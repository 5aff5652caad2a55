"""Tests for the truncated series layer.

Products and compositions are checked against brute-force loops written
independently of the library code; frozen literal expectations are
hand-derived (binomial and Catalan coefficients, geometric series).
"""

import math

import numpy as np
import pytest

from revtwist import series
from revtwist.series import (
    DEFAULT_ORDER,
    MAX_ORDER,
    Jet,
    MapJet,
    diagonal_series,
    jet_compose,
    jet_exp_i,
    jet_mul,
    map_compose,
    map_inverse,
    map_residual,
    off_diagonal_residual,
    reality_defect,
    rho_conjugate,
    series_exp,
    series_log,
    series_mul,
    series_pow,
    series_reciprocal,
)


def coeffs_close(a, b, tol=1e-12):
    """Absolute comparison scaled by the max input coefficient modulus."""
    ca = a.coeffs if isinstance(a, Jet) else np.asarray(a)
    cb = b.coeffs if isinstance(b, Jet) else np.asarray(b)
    scale = max(1.0, float(np.abs(ca).max()), float(np.abs(cb).max()))
    return float(np.abs(ca - cb).max()) <= tol * scale


def random_jet(rng, order, scale=1.0, zero_constant=False):
    c = rng.standard_normal((order + 1, order + 1)) + 1j * rng.standard_normal(
        (order + 1, order + 1)
    )
    i = np.arange(order + 1)
    c[(i[:, None] + i[None, :]) > order] = 0.0
    if zero_constant:
        c[0, 0] = 0.0
    return Jet(scale * c, order)


def brute_mul(a, b):
    n = a.order
    out = np.zeros_like(a.coeffs)
    for i1 in range(n + 1):
        for j1 in range(n + 1 - i1):
            if a.coeffs[i1, j1] == 0:
                continue
            for i2 in range(n + 1):
                for j2 in range(n + 1 - i2):
                    if i1 + i2 + j1 + j2 <= n:
                        out[i1 + i2, j1 + j2] += a.coeffs[i1, j1] * b.coeffs[i2, j2]
    return out


def sparse_jet(rng, order, count=4):
    """A jet with `count` nonzero entries at random places of the triangle."""
    i, j = np.nonzero(np.add.outer(np.arange(order + 1), np.arange(order + 1)) <= order)
    pick = rng.choice(len(i), size=min(count, len(i)), replace=False)
    c = np.zeros((order + 1, order + 1), dtype=complex)
    c[i[pick], j[pick]] = rng.standard_normal(len(pick)) + 1j * rng.standard_normal(len(pick))
    return Jet(c, order)


def test_mul_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(4):
        a = random_jet(rng, 9)
        b = random_jet(rng, 9)
        assert coeffs_close(jet_mul(a, b), brute_mul(a, b), 1e-13)


@pytest.mark.parametrize("order", [1, 2, 3, 9, 16, 20])
def test_mul_kernels_match_brute_force(order):
    # Both kernels: the dense gather plan and shift-and-add for a factor
    # with at most 4 nonzero entries (either side), and the zero jet.
    rng = np.random.default_rng(100 + order)
    dense = [random_jet(rng, order) for _ in range(3)]
    sparse = [sparse_jet(rng, order, k) for k in (1, 4)]
    zero = Jet.zero(order)
    cases = [(dense[0], dense[1]), (dense[2], dense[2])]
    cases += [(s, d) for s in sparse for d in dense[:1]] + [(d, s) for s in sparse for d in dense[1:2]]
    cases += [(zero, dense[0]), (dense[1], zero), (zero, zero)]
    for a, b in cases:
        got = jet_mul(a, b)
        assert coeffs_close(got, brute_mul(a, b), 1e-13)
        i = np.arange(order + 1)
        assert not got.coeffs[(i[:, None] + i[None, :]) > order].any()


def test_mul_is_exact_on_integers():
    # Integer coefficients keep every partial sum an integer below 2^53, so
    # an exact finite sum of coefficient products (README: no FFT) must
    # reproduce Python integer arithmetic bit for bit.
    n = 16
    rng = np.random.default_rng(16)
    tri = np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n
    re_a, im_a, re_b, im_b = (np.where(tri, rng.integers(-8, 9, (n + 1, n + 1)), 0) for _ in range(4))
    got = jet_mul(Jet(re_a + 1j * im_a, n), Jet(re_b + 1j * im_b, n)).coeffs
    want_re = [[0] * (n + 1) for _ in range(n + 1)]
    want_im = [[0] * (n + 1) for _ in range(n + 1)]
    for i1, j1 in zip(*np.nonzero(tri)):
        for i2 in range(n + 1 - i1 - j1):
            for j2 in range(n + 1 - i1 - j1 - i2):
                ar, ai = int(re_a[i1, j1]), int(im_a[i1, j1])
                br, bi = int(re_b[i2, j2]), int(im_b[i2, j2])
                want_re[i1 + i2][j1 + j2] += ar * br - ai * bi
                want_im[i1 + i2][j1 + j2] += ar * bi + ai * br
    assert np.array_equal(got.real, np.array(want_re, dtype=float))
    assert np.array_equal(got.imag, np.array(want_im, dtype=float))


def test_mul_runs_at_max_order():
    # With every triangle entry 1, entry (p, q) of the square counts its
    # (p+1)(q+1) contributing pairs.
    n = MAX_ORDER
    i = np.arange(n + 1)
    tri = (i[:, None] + i[None, :]) <= n
    ones = Jet(tri.astype(complex), n)
    want = np.where(tri, (i[:, None] + 1) * (i[None, :] + 1), 0)
    assert np.array_equal(jet_mul(ones, ones).coeffs, want.astype(complex))


def test_mul_ring_laws():
    rng = np.random.default_rng(12)
    a, b, c = (random_jet(rng, 8) for _ in range(3))
    assert coeffs_close(jet_mul(a, b), jet_mul(b, a))
    assert coeffs_close(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)), 1e-12)
    assert coeffs_close(jet_mul(a, b + c), jet_mul(a, b) + jet_mul(a, c))
    one = Jet.constant(1.0, 8)
    assert coeffs_close(jet_mul(a, one), a)


def test_mul_truncates_high_degree():
    n = 6
    a = Jet.from_entries({(3, 1): 2.0}, n)
    b = Jet.from_entries({(2, 2): 1.0, (1, 0): 1.0}, n)
    p = jet_mul(a, b)
    # degree 8 part is cut, degree 5 part survives
    assert p.coeff(5, 3) == 0.0
    assert p.coeff(4, 1) == 2.0


def test_from_entries_rejects_outside_triangle():
    with pytest.raises(ValueError):
        Jet.from_entries({(4, 4): 1.0}, 6)


def test_compose_with_identity_and_linear():
    rng = np.random.default_rng(13)
    f = random_jet(rng, 7)
    assert coeffs_close(jet_compose(f, MapJet.identity(7)), f)
    a, b = 0.5 - 0.25j, 1.5j
    lin = MapJet(a * Jet.coordinate("xi", 7), b * Jet.coordinate("eta", 7))
    g = jet_compose(f, lin)
    i = np.arange(8)
    expected = f.coeffs * (a ** i[:, None]) * (b ** i[None, :])
    expected[(i[:, None] + i[None, :]) > 7] = 0.0
    assert coeffs_close(g, expected, 1e-13)


def brute_compose(f, phi):
    n = f.order
    xp = [Jet.constant(1.0, n).coeffs]
    yp = [Jet.constant(1.0, n).coeffs]
    for _ in range(n):
        xp.append(brute_mul(Jet(xp[-1], n), phi.x))
        yp.append(brute_mul(Jet(yp[-1], n), phi.y))
    out = np.zeros_like(f.coeffs)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if f.coeffs[i, j] != 0:
                out += f.coeffs[i, j] * brute_mul(Jet(xp[i], n), Jet(yp[j], n))
    return out


def test_compose_matches_brute_force():
    rng = np.random.default_rng(14)
    f = random_jet(rng, 6)
    phi = MapJet(
        random_jet(rng, 6, scale=0.5, zero_constant=True),
        random_jet(rng, 6, scale=0.5, zero_constant=True),
    )
    assert coeffs_close(jet_compose(f, phi), brute_compose(f, phi), 1e-12)


def test_compose_requires_origin():
    f = Jet.coordinate("xi", 5)
    phi = MapJet(Jet.constant(1.0, 5), Jet.coordinate("eta", 5))
    with pytest.raises(ValueError):
        jet_compose(f, phi)
    with pytest.raises(ValueError):
        map_compose(MapJet.identity(5), phi)


def test_map_compose_matches_componentwise():
    # map_compose shares one power table of phi.y between the components.
    rng = np.random.default_rng(17)
    for n in (1, 2, 10):
        f = MapJet(random_jet(rng, n, zero_constant=True), random_jet(rng, n, zero_constant=True))
        phi = MapJet(
            random_jet(rng, n, scale=0.5, zero_constant=True),
            random_jet(rng, n, scale=0.5, zero_constant=True),
        )
        want = MapJet(jet_compose(f.x, phi), jet_compose(f.y, phi))
        assert map_residual(map_compose(f, phi), want) <= 1e-13 * max(1.0, want.max_abs())


def test_compose_numeric_consistency():
    # f(phi(z)) and the composed jet agree at small points up to the
    # truncation tail, which sits far below threshold at |z| ~ 0.02.
    rng = np.random.default_rng(15)
    f = random_jet(rng, 8)
    phi = MapJet(
        random_jet(rng, 8, scale=0.3, zero_constant=True),
        random_jet(rng, 8, scale=0.3, zero_constant=True),
    )
    g = jet_compose(f, phi)
    z = 0.01 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    w = 0.01 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    px, py = phi.eval(z, w)
    assert np.abs(g.eval(z, w) - f.eval(px, py)).max() < 1e-8


def test_inverse_round_trip():
    rng = np.random.default_rng(16)
    phi = MapJet(
        Jet.coordinate("xi", 8) + random_jet(rng, 8, scale=0.1, zero_constant=True),
        Jet.coordinate("eta", 8) + random_jet(rng, 8, scale=0.1, zero_constant=True),
    )
    # kill stray linear terms the random part may carry
    cx = phi.x.coeffs.copy()
    cy = phi.y.coeffs.copy()
    cx[0, 1] = cy[1, 0] = 0.0
    cx[1, 0] = cy[0, 1] = 1.0
    phi = MapJet(Jet(cx, 8), Jet(cy, 8))
    inv = map_inverse(phi)
    assert map_residual(map_compose(phi, inv), MapJet.identity(8)) < 1e-11
    assert map_residual(map_compose(inv, phi), MapJet.identity(8)) < 1e-11


def test_inverse_known_coefficients():
    # (xi + xi^2, eta) inverts to xi -> sum (-1)^{k+1} Catalan(k-1) xi^k
    n = 6
    phi = MapJet(
        Jet.from_entries({(1, 0): 1.0, (2, 0): 1.0}, n), Jet.coordinate("eta", n)
    )
    inv = map_inverse(phi)
    catalan = [1, 1, 2, 5, 14, 42]
    for k in range(1, 7):
        expected = (-1) ** (k + 1) * catalan[k - 1]
        assert abs(inv.x.coeff(k, 0) - expected) < 1e-12
    # shear has an exact polynomial inverse
    shear = MapJet(
        Jet.from_entries({(1, 0): 1.0, (0, 3): 1.0}, n), Jet.coordinate("eta", n)
    )
    sinv = map_inverse(shear)
    assert coeffs_close(sinv.x, Jet.from_entries({(1, 0): 1.0, (0, 3): -1.0}, n))


def test_inverse_rejects_singular():
    phi = MapJet(Jet.coordinate("xi", 4), Jet.zero(4))
    with pytest.raises(ValueError, match="singular"):
        map_inverse(phi)


def homogeneous_jet(rng, order, degree):
    """A jet whose nonzero coefficients all sit at total degree `degree`."""
    c = random_jet(rng, order).coeffs.copy()
    i = np.arange(order + 1)
    c[(i[:, None] + i[None, :]) != degree] = 0.0
    return Jet(c, order)


@pytest.mark.parametrize("order", [12, 20])
def test_compose_trim_is_bitwise_exact(order):
    # Trimming the power table and the Horner sweep to the outer map's top
    # degree D drops only exact zeros: the result equals the contraction
    # through all N powers bit for bit.
    rng = np.random.default_rng(100 + order)
    inner = MapJet(
        random_jet(rng, order, scale=0.5, zero_constant=True),
        random_jet(rng, order, scale=0.5, zero_constant=True),
    )
    full = series._powers(inner.y, order)
    outers = [
        MapJet(Jet.zero(order), Jet.zero(order)),
        MapJet(random_jet(rng, order), random_jet(rng, order)),
        # components of different top degree share the larger one
        MapJet(homogeneous_jet(rng, order, 3), Jet.coordinate("eta", order)),
    ]
    outers += [
        MapJet(homogeneous_jet(rng, order, d), homogeneous_jet(rng, order, d))
        for d in range(order + 1)
    ]
    for outer in outers:
        got = map_compose(outer, inner)
        for f, g in ((outer.x, got.x), (outer.y, got.y)):
            want = series._compose(f, inner.x, full).coeffs
            assert np.array_equal(g.coeffs, want)
            assert np.array_equal(jet_compose(f, inner).coeffs, want)


def test_compose_cost_follows_outer_degree(monkeypatch):
    # D - 1 products build the power table and D run each Horner sweep.
    order = 12
    rng = np.random.default_rng(7)
    inner = MapJet(
        random_jet(rng, order, scale=0.5, zero_constant=True),
        random_jet(rng, order, scale=0.5, zero_constant=True),
    )
    calls = []
    monkeypatch.setattr(series, "jet_mul", lambda a, b: calls.append(1) or jet_mul(a, b))
    for d in (1, 2, 5, order):
        del calls[:]
        outer = MapJet(homogeneous_jet(rng, order, d), homogeneous_jet(rng, order, d))
        map_compose(outer, inner)
        assert len(calls) == 3 * d - 1
        del calls[:]
        jet_compose(outer.x, inner)
        assert len(calls) == 2 * d - 1


def reference_inverse(phi):
    """map_inverse's fixed-point iteration with no pass bound, run until a
    pass returns its input."""
    n = phi.order
    lin = phi.linear_part()
    det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
    inv = np.array([[lin[1, 1], -lin[0, 1]], [-lin[1, 0], lin[0, 0]]]) / det
    px = phi.x.coeffs.copy()
    py = phi.y.coeffs.copy()
    px[1, 0] = px[0, 1] = py[1, 0] = py[0, 1] = 0.0
    pnl = MapJet(Jet(px, n), Jet(py, n))
    ident = MapJet.identity(n)

    def linmap(m):
        return MapJet(
            Jet(inv[0, 0] * m.x.coeffs + inv[0, 1] * m.y.coeffs, n),
            Jet(inv[1, 0] * m.x.coeffs + inv[1, 1] * m.y.coeffs, n),
        )

    psi = linmap(ident)
    for _ in range(2 * n + 1):
        nxt = linmap(ident - map_compose(pnl, psi))
        if np.array_equal(nxt.x.coeffs, psi.x.coeffs) and np.array_equal(
            nxt.y.coeffs, psi.y.coeffs
        ):
            return psi
        psi = nxt
    raise AssertionError("reference iteration did not settle")


@pytest.mark.parametrize("order", [12, 20])
def test_inverse_is_bitwise_exact_within_pass_bound(order, monkeypatch):
    rng = np.random.default_rng(200 + order)
    linear = np.array([[0.8, 0.3 - 0.1j], [-0.2j, 1.1]])
    cases = [(MapJet(0.5j * Jet.coordinate("xi", order), Jet.coordinate("eta", order)), None)]
    for d in range(2, order + 1):
        u = MapJet(homogeneous_jet(rng, order, d), homogeneous_jet(rng, order, d))
        cases.append((MapJet(Jet.coordinate("xi", order) + 0.1 * u.x,
                             Jet.coordinate("eta", order) + 0.1 * u.y), d))
    dense = MapJet(random_jet(rng, order, 0.05, zero_constant=True),
                   random_jet(rng, order, 0.05, zero_constant=True))
    cx, cy = dense.x.coeffs.copy(), dense.y.coeffs.copy()
    cx[1, 0], cx[0, 1], cy[1, 0], cy[0, 1] = linear.ravel()
    cases.append((MapJet(Jet(cx, order), Jet(cy, order)), 2))

    passes = []
    monkeypatch.setattr(series, "map_compose", lambda f, g: passes.append(1) or map_compose(f, g))
    for phi, d in cases:
        want = reference_inverse(phi)
        del passes[:]
        got = map_inverse(phi)
        assert np.array_equal(got.x.coeffs, want.x.coeffs)
        assert np.array_equal(got.y.coeffs, want.y.coeffs)
        bound = 0 if d is None else (order - d) // (d - 1) + 1
        assert len(passes) == bound


def test_exp_i_radial():
    n = 10
    t = Jet.from_entries({(1, 1): 1.0}, n)
    e = jet_exp_i(t)
    for k in range(n // 2 + 1):
        assert abs(e.coeff(k, k) - 1j**k / math.factorial(k)) < 1e-14
    assert off_diagonal_residual(e, "plain") == 0.0


def test_exp_i_is_multiplicative():
    rng = np.random.default_rng(17)
    g = random_jet(rng, 8, scale=0.3, zero_constant=True)
    h = random_jet(rng, 8, scale=0.3, zero_constant=True)
    assert coeffs_close(jet_exp_i(g + h), jet_mul(jet_exp_i(g), jet_exp_i(h)), 1e-13)


def test_exp_i_rejects_constant_term():
    with pytest.raises(ValueError):
        jet_exp_i(Jet.constant(1.0, 4))


def test_reality_defect_values():
    n = 5
    rot = MapJet(1j * Jet.coordinate("xi", n), 1j * Jet.coordinate("eta", n))
    assert abs(reality_defect(rot, "standard") - 2.0) < 1e-15
    assert reality_defect(MapJet.swap(n), "standard") == 0.0
    assert reality_defect(MapJet.identity(n), "surface") == 0.0
    # rho conjugation is an involution on maps
    back = rho_conjugate(rho_conjugate(rot, "standard"), "standard")
    assert map_residual(back, rot) == 0.0


def test_series_reciprocal_geometric():
    r = 0.3 - 0.4j
    a = np.zeros(8, dtype=complex)
    a[0], a[1] = 1.0, -r
    inv = series_reciprocal(a)
    assert np.abs(inv - r ** np.arange(8)).max() < 1e-14
    with pytest.raises(ValueError):
        series_reciprocal(np.array([0.0, 1.0]))


def test_series_log_exp_round_trip():
    rng = np.random.default_rng(19)
    g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.abs(series_log(series_exp(g)) - g).max() < 1e-11


def test_series_pow_binomial():
    a = np.zeros(5, dtype=complex)
    a[0], a[1] = 1.0, 1.0
    r = series_pow(a, 0.5)
    expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
    assert np.abs(r - expected).max() < 1e-14


def test_radial_round_trip():
    # The product-form kernel writes a radial series exactly onto the xi
    # and eta diagonals: (xi M, eta M') on the identity, (eta M, xi M') on
    # the swap; diagonal_series reads it back off each, and off the plain
    # diagonal of (xi eta)^k.
    rng = np.random.default_rng(21)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a[0] = 1.0 + 0.2j
    on_identity = series._compose_product_form(a, a, MapJet.identity(12))
    on_swap = series._compose_product_form(a, a, MapJet.swap(12))
    plain = Jet.from_entries({(k, k): v for k, v in enumerate(a)}, 12)
    for j, kind in ((on_identity.x, "xi"), (on_identity.y, "eta"), (on_swap.x, "eta"),
                    (on_swap.y, "xi"), (plain, "plain")):
        assert np.abs(diagonal_series(j, kind)[:5] - a).max() == 0.0
        assert off_diagonal_residual(j, kind) == 0.0


def test_series_mul_matches_polynomial_product():
    a = np.array([1.0, 2.0, 3.0], dtype=complex)
    b = np.array([4.0, 5.0, 6.0], dtype=complex)
    p = series_mul(a, b)
    assert p.tolist() == [4.0, 13.0, 28.0]
    assert len(p) == len(a)


def test_default_order_constant():
    assert Jet.zero().order == DEFAULT_ORDER
    with pytest.raises(ValueError):
        Jet.zero(200)
