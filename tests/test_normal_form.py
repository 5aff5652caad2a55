"""Tests for the involution-pair normalization pipeline.

Oracle strategy: plant a known answer (a normalized transformation applied
to an exactly-solvable model pair), run the pipeline, and demand the plant
back.  Invariants are checked against hand-computed model maps.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from revtwist.families import CoefficientFamily
from revtwist.normal_form import (
    RESONANCE_TOL,
    InvolutionPair,
    ResonanceError,
    _phi2_series,
    _solve_conjugacy,
    _unit_defect,
    extract_eps_s,
    full_normalize,
    gamma_from_M,
    involution_residual,
    linearize_involution,
    mw_normalize,
    normal_form_map,
)
from revtwist.series import (
    Jet,
    MapJet,
    _compose,
    _compose_product_form,
    _powers,
    _triangle_mask,
    diagonal_series,
    jet_mul,
    map_compose,
    map_inverse,
    map_residual,
    off_diagonal_residual,
    reality_defect,
    series_exp,
    series_reciprocal,
)
from revtwist.surface import involution_jets
from revtwist.twist import TwistParams


def coeffs_close(a, b, tol):
    """Jets a and b agree within tol, scaled by their largest coefficient."""
    scale = max(1.0, float(np.abs(a.coeffs).max()), float(np.abs(b.coeffs).max()))
    return float(np.abs(a.coeffs - b.coeffs).max()) <= tol * scale


def triangle_noise(rng, order, scale, min_degree=2):
    c = rng.standard_normal((order + 1,) * 2) + 1j * rng.standard_normal((order + 1,) * 2)
    i = np.arange(order + 1)
    deg = i[:, None] + i[None, :]
    c[(deg > order) | (deg < min_degree)] = 0.0
    return scale * c


def real_swap_commuting_map(rng, order, scale):
    """id + higher order, commuting with the swap and with the standard rho."""
    a = triangle_noise(rng, order, scale).real.astype(complex)
    a[1, 0] += 1.0
    return MapJet(Jet(a, order), Jet(a.T.copy(), order))


def real_diagonal_frame(rng, order, p, scale):
    """Linear part diag(p, conj(p)) plus rho-symmetric higher-order noise."""
    a = triangle_noise(rng, order, scale)
    a[1, 0] += p
    return MapJet(Jet(a, order), Jet(np.conj(a).T.copy(), order))


def anti_diagonal_involution(lam, order, gamma_coeffs=()):
    """(Lambda(t) eta, Lambda(t)^{-1} xi) with Lambda = lam e^{i gamma(t)}."""
    g = np.zeros(order // 2 + 1, dtype=complex)
    for k, v in enumerate(gamma_coeffs, start=1):
        g[k] = v
    lam_series = lam * series_exp(1j * g)
    return _compose_product_form(lam_series, series_reciprocal(lam_series), MapJet.swap(order))


def phi2(gamma, eps, s, order):
    """Phi2 = (xi r(xi eta), eta r(xi eta)), built as full_normalize builds it."""
    r = _phi2_series(gamma, eps, s)
    return _compose_product_form(r, r, MapJet.identity(order))


def conjugate_map(frame, target):
    return map_compose(map_compose(frame, target), map_inverse(frame))


# --- linearize_involution ---------------------------------------------------


def surface_pair(s, alpha, n=12):
    """(tau1, tau2, phi) of the surface pair of TestNormalFormOfPair
    (test_surface.py) at order n."""
    fam = CoefficientFamily({(2 * s + 2, 0): 0.05 + 0.02j, (s + 1, s): 0.03 - 0.01j}, s)
    return involution_jets(fam, TwistParams(alpha=alpha, s=s), order=n)


def real_involution(n=10):
    return conjugate_map(real_diagonal_frame(np.random.default_rng(41), n, np.exp(0.35j), 0.05),
                         MapJet.swap(n))


def near_involution():
    """real_involution() about 1e-11 off an involution, |lambda0| about 1 + 1e-11."""
    tau = real_involution()
    nudge = Jet.from_entries({(0, 1): 1e-11 * tau.x.coeff(0, 1), (3, 0): 1e-11}, tau.order)
    return MapJet(tau.x + nudge, tau.y)


LINEARIZATION_INPUTS = {"surface-s1": lambda: surface_pair(1, 0.73)[0],
                        "surface-s2": lambda: surface_pair(2, 1.18)[0],
                        "real": real_involution, "near-involution": near_involution}


def test_linearize_swap_is_identity():
    change, change_inv = linearize_involution(MapJet.swap(8))
    assert map_residual(change, MapJet.identity(8)) == 0.0
    assert map_residual(change_inv, MapJet.identity(8)) == 0.0


def test_linearize_linear_involution():
    lam0 = np.exp(0.6j)
    n = 8
    tau = MapJet(
        lam0 * Jet.coordinate("eta", n), np.conj(lam0) * Jet.coordinate("xi", n)
    )
    change, change_inv = linearize_involution(tau)
    assert abs(change.x.coeff(1, 0) - lam0 ** -0.5) < 1e-14
    assert abs(change.y.coeff(0, 1) - lam0 ** 0.5) < 1e-14
    tau_std = map_compose(map_compose(change, tau), change_inv)
    assert map_residual(tau_std, MapJet.swap(n)) < 1e-14


def test_linearize_nonlinear_real_involution():
    n = 10
    tau = real_involution(n)
    assert involution_residual(tau) < 1e-12

    change, change_inv = linearize_involution(tau)
    tau_std = map_compose(map_compose(change, tau), change_inv)
    assert map_residual(tau_std, MapJet.swap(n)) < 1e-11
    # the intertwining identity change . tau = swap . change holds exactly
    lhs = map_compose(change, tau)
    rhs = map_compose(MapJet.swap(n), change)
    assert map_residual(lhs, rhs) < 1e-12
    # a real involution gets a real linearizing change
    assert reality_defect(tau, "standard") < 1e-12
    assert reality_defect(change, "standard") < 1e-11


@pytest.mark.parametrize("name", sorted(LINEARIZATION_INPUTS))
def test_linearization_defect_is_half_the_involution_residual(name):
    # change . tau - S . change = (lambda0^{1/2} ((tau . tau).y - eta),
    # lambda0^{-1/2} ((tau . tau).x - xi)) / 2 for |lambda0| = 1, and
    # |lambda0| = 1 + delta adds at most about delta max(1, |tau|): the
    # identity that lets linearize_involution skip composing to check it.
    tau = LINEARIZATION_INPUTS[name]()
    change, _ = linearize_involution(tau)
    defect = map_residual(map_compose(change, tau), MapJet(change.y, change.x))
    half = 0.5 * involution_residual(tau)
    scale = max(1.0, tau.max_abs())
    delta = abs(abs(tau.x.coeff(0, 1)) - 1.0)
    assert abs(defect - half) <= delta * scale + 1e-15 * scale
    if name == "near-involution":
        assert half > 5e-12 and delta > 5e-12


def test_linearize_rejects_bad_input():
    n = 6
    with pytest.raises(ValueError, match="involution"):
        linearize_involution(
            MapJet(Jet.coordinate("eta", n) + Jet.from_entries({(2, 0): 1.0}, n),
                   Jet.coordinate("xi", n))
        )
    # linear involution with |lambda0| != 1
    tau = MapJet(1.1 * Jet.coordinate("eta", n), (1 / 1.1) * Jet.coordinate("xi", n))
    with pytest.raises(ValueError, match="unit circle"):
        linearize_involution(tau)


# --- pair validation ---------------------------------------------------------


def test_pair_rejects_non_involution():
    n = 6
    good = MapJet.swap(n)
    bad = MapJet(Jet.coordinate("xi", n) + Jet.from_entries({(2, 0): 0.5}, n),
                 Jet.coordinate("eta", n))
    with pytest.raises(ValueError, match="involution"):
        InvolutionPair.from_maps(bad, good)
    with pytest.raises(ValueError, match="unit circle"):
        InvolutionPair.from_maps(MapJet.identity(n), good)
    # linear involution (0.6 xi + eta, 0.64 xi - 0.6 eta): unit corner entry
    # but a diagonal part, so the shape check trips
    cross = MapJet(
        Jet.from_entries({(1, 0): 0.6, (0, 1): 1.0}, n),
        Jet.from_entries({(1, 0): 0.64, (0, 1): -0.6}, n),
    )
    assert involution_residual(cross) < 1e-15
    with pytest.raises(ValueError, match="anti-diagonal"):
        InvolutionPair.from_maps(cross, good)
    # each map is an involution through its own order, but a pair of
    # mixed truncation orders has no common order to normalize at
    pair, _, _, _ = planted_pair(np.random.default_rng(43), np.exp(0.7j), 12)
    short = pair.tau2.truncate(8)
    with pytest.raises(ValueError, match="truncation orders 12 and 8"):
        InvolutionPair.from_maps(pair.tau1, short)


# --- mw_normalize ------------------------------------------------------------


def test_mw_linear_pair():
    lam = np.exp(0.8j)
    n = 10
    tau1 = MapJet(lam * Jet.coordinate("eta", n), np.conj(lam) * Jet.coordinate("xi", n))
    tau2 = MapJet(np.conj(lam) * Jet.coordinate("eta", n), lam * Jet.coordinate("xi", n))
    mw = mw_normalize(InvolutionPair.from_maps(tau1, tau2))
    assert map_residual(mw.Phi0, MapJet.identity(n)) == 0.0
    assert abs(mw.mu - lam ** 2) < 1e-14
    assert np.abs(mw.M - np.eye(1, len(mw.M), 0)[0] * lam**2).max() < 1e-14
    assert abs(mw.Lambda1[0] - lam) < 1e-14
    assert np.abs(mw.Lambda1[1:]).max() < 1e-14
    assert abs(mw.Lambda2[0] - np.conj(lam)) < 1e-14


def planted_pair(rng, lam, n, scale=0.05):
    g1 = 0.3 * rng.standard_normal(2)
    g2 = 0.3 * rng.standard_normal(2)
    tau1_model = anti_diagonal_involution(lam, n, g1)
    tau2_model = anti_diagonal_involution(np.conj(lam), n, g2)

    w = triangle_noise(rng, n, scale)
    k = np.arange(n // 2)
    w[k + 1, k] = 0.0
    w[1, 0] += 1.0
    wx = Jet(w, n)
    wy = Jet(np.conj(w).T.copy(), n)
    west = MapJet(wx, wy)
    winv = map_inverse(west)

    tau1 = conjugate_map(winv, tau1_model)
    tau2 = conjugate_map(winv, tau2_model)
    return InvolutionPair.from_maps(tau1, tau2), west, tau1_model, tau2_model


def test_mw_recovers_planted_transformation():
    rng = np.random.default_rng(42)
    lam = np.exp(0.7j)
    n = 12
    pair, west, tau1_model, tau2_model = planted_pair(rng, lam, n)

    mw = mw_normalize(pair)
    assert coeffs_close(mw.Phi0.x, west.x, 1e-8)
    assert coeffs_close(mw.Phi0.y, west.y, 1e-8)
    lam1 = diagonal_series(tau1_model.x, "eta")
    lam2 = diagonal_series(tau2_model.x, "eta")
    assert np.abs(mw.Lambda1 - lam1).max() < 1e-9
    assert np.abs(mw.Lambda2 - lam2).max() < 1e-9
    expected_m = np.convolve(lam1, series_reciprocal(lam2))[: len(mw.M)]
    assert np.abs(mw.M - expected_m).max() < 1e-9
    assert mw.residual < 1e-10
    # real pair, so the normalized transformation is real
    assert reality_defect(mw.Phi0, "standard") < 1e-10


def split_elimination(pair):
    """Oracle for mw_normalize: the same normalized elimination, but at each
    degree the xi component is removed first and the eta component after it.
    The normalized conjugator is unique, so Phi0 must not depend on the order."""
    n = pair.tau1.order
    mu = pair.lambda1 / pair.lambda2
    ident = MapJet.identity(n)
    phi_cur, phi_total = map_compose(pair.tau1, pair.tau2), ident
    for d in range(2, n + 1):
        for component in ("x", "y"):
            u1 = np.zeros((n + 1, n + 1), dtype=complex)
            u2 = np.zeros_like(u1)
            for i in range(d + 1):
                j = d - i
                if component == "x":
                    u1[i, j] = (-phi_total.x.coeffs[i, j] if i == j + 1
                                else -phi_cur.x.coeffs[i, j] / (mu ** (i - j) - mu))
                else:
                    u2[i, j] = (-phi_total.y.coeffs[i, j] if j == i + 1
                                else -phi_cur.y.coeffs[i, j] / (mu ** (i - j) - 1.0 / mu))
            psi = MapJet(ident.x + Jet(u1, n), ident.y + Jet(u2, n))
            phi_cur = conjugate_map(psi, phi_cur)
            phi_total = map_compose(psi, phi_total)
    return phi_total


@pytest.mark.parametrize("theta,n", [(0.7, 12)] + [(t, n) for t in (1.3, 2.4) for n in (8, 12, 16)])
def test_mw_sweep_orders_agree(theta, n):
    rng = np.random.default_rng(43)
    pair, _, _, _ = planted_pair(rng, np.exp(1j * theta), n)
    phi0 = mw_normalize(pair).Phi0
    assert map_residual(phi0, split_elimination(pair)) < 1e-10
    # the normalization: Phi0 has no resonant entries beyond the identity
    k = np.arange(1, (n + 1) // 2)
    assert not phi0.x.coeffs[k + 1, k].any() and not phi0.y.coeffs[k, k + 1].any()


def test_mw_detects_resonance():
    lam = np.exp(1j * np.pi / 3)
    n = 8
    tau1 = MapJet(lam * Jet.coordinate("eta", n), np.conj(lam) * Jet.coordinate("xi", n))
    tau2 = MapJet(np.conj(lam) * Jet.coordinate("eta", n), lam * Jet.coordinate("xi", n))
    with pytest.raises(ResonanceError) as err:
        mw_normalize(InvolutionPair.from_maps(tau1, tau2))
    assert err.value.k == 3


# --- radial invariants -------------------------------------------------------


def test_gamma_round_trip():
    g = np.array([0.9, 1.0, 2.0, -0.5], dtype=complex)
    m = series_exp(1j * g)
    assert np.abs(gamma_from_M(m) - g).max() < 1e-12
    with pytest.raises(ValueError, match="unit circle"):
        gamma_from_M(np.array([1.1, 0.0]))


def test_extract_eps_s():
    assert extract_eps_s([0.9, 0.0, 0.0, -0.03, 1.0]) == (-1, 3)
    assert extract_eps_s([0.9, 0.02]) == (1, 1)
    eps, s = extract_eps_s([5.0, 0.0, 1e-10])
    assert eps == 0 and math.isinf(s)


def test_phi2_constant_rescaling():
    # Gamma = alpha + 4 t^2: the flattening rescale is the constant 4^{1/4}
    rescale = phi2([0.3, 0.0, 4.0], eps=1, s=2, order=8)
    assert abs(rescale.x.coeff(1, 0) - 4 ** 0.25) < 1e-14
    assert abs(rescale.y.coeff(0, 1) - 4 ** 0.25) < 1e-14
    assert rescale.x.max_abs() == pytest.approx(4 ** 0.25)


def test_phi2_square_root_series():
    # Gamma = alpha + t + t^2 gives r = (1+t)^{1/2}
    gamma = [0.3, 1.0, 1.0, 0.0, 0.0, 0.0]
    r = diagonal_series(phi2(gamma, eps=1, s=1, order=12).x, "xi")
    expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
    assert np.abs(r[:5] - expected).max() < 1e-13

    with pytest.raises(ValueError, match="eps"):
        phi2([0.3, 0.0, -4.0], eps=1, s=2, order=8)


def test_phi2_flattens_radial_map():
    # conjugating (e^{i Gamma(t)} xi, e^{-i Gamma(t)} eta) by the rescale
    # leaves exactly Gamma0 + eps t^s
    n = 14
    gamma = np.array([0.9, -0.2, 0.05, 0.01, -0.03, 0.02, 0.004], dtype=complex)
    m_series = series_exp(1j * gamma)
    m = _compose_product_form(m_series, series_reciprocal(m_series), MapJet.identity(n))
    eps, s = extract_eps_s(gamma)
    assert (eps, s) == (-1, 1)
    flattened = conjugate_map(phi2(gamma, eps, s, n), m)
    new_gamma = gamma_from_M(diagonal_series(flattened.x, "xi"))
    expected = np.zeros_like(new_gamma)
    expected[0], expected[s] = gamma[0], eps
    assert np.abs(new_gamma - expected).max() < 1e-11


# --- full pipeline -----------------------------------------------------------


def test_full_normalize_recovers_planted_invariants():
    rng = np.random.default_rng(44)
    lam = np.exp(0.9j)
    n = 12
    target = normal_form_map(lam, 1, 2, n)
    frame = real_swap_commuting_map(rng, n, 0.05)
    phi = conjugate_map(map_inverse(frame), target)

    res = full_normalize(phi)
    assert abs(res.lam - lam) < 1e-10
    # with tau the swap, lambda is phi's own multiplier, bit for bit
    assert res.lam == phi.x.coeff(1, 0)
    assert res.eps == 1
    assert res.s == 2
    assert res.residual < 1e-9
    assert abs(res.Gamma[0] - 0.9) < 1e-9
    assert np.abs(res.Gamma.imag).max() < 1e-9


def test_full_normalize_negative_eps():
    rng = np.random.default_rng(45)
    lam = np.exp(0.9j)
    n = 12
    target = normal_form_map(lam, -1, 3, n)
    frame = real_swap_commuting_map(rng, n, 0.04)
    phi = conjugate_map(map_inverse(frame), target)
    res = full_normalize(phi)
    assert (res.eps, res.s) == (-1, 3)
    assert res.residual < 1e-9


@functools.lru_cache(maxsize=None)
def planted_frame(n, seed):
    """The inverse of the planted frame real_swap_commuting_map(default_rng(seed),
    n, 0.04) and the inverse of that inverse, kept per (n, seed): these
    two inverses are most of the cost of a planted input at high order."""
    inverse = map_inverse(real_swap_commuting_map(np.random.default_rng(seed), n, 0.04))
    return inverse, map_inverse(inverse)


def planted_swap_reversible(theta, s, n, seed=1):
    inverse, frame = planted_frame(n, seed)
    return map_compose(map_compose(inverse, normal_form_map(np.exp(1j * theta), 1, s, n)), frame)


@pytest.mark.parametrize("theta,n", [(0.7, 12)] + [(t, n) for t in (1.3, 2.4) for n in (8, 12, 16)])
def test_full_normalize_matches_swap_pair(theta, n):
    # Oracle: the involution pair (S, S . phi) normalized by mw_normalize.
    # Its Phi0 commutes with S, so Lambda1 is 1 and no radial change sits
    # between Phi0 and the flattening Phi2.
    phi = planted_swap_reversible(theta, 2, n)
    swap = MapJet.swap(n)
    mw = mw_normalize(InvolutionPair.from_maps(swap, map_compose(swap, phi)))
    res = full_normalize(phi)
    assert np.abs(mw.Lambda1 - np.eye(1, len(mw.Lambda1))[0]).max() < 1e-12
    assert np.abs(mw.M - res.M).max() < 1e-12
    assert map_residual(res.Phi, map_compose(phi2(res.Gamma, res.eps, res.s, n), mw.Phi0)) < 1e-10


def test_full_normalize_order_boundary():
    # The highest order the inner gate accepts depends on lambda and s: at
    # N = 24 lambda = e^{2.4i}, s = 2 passes, while at N = 28
    # lambda = e^{0.7i}, s = 1 fails the inner gate with one error: the
    # rounding of the input, amplified through |lambda^k - 1| = 0.017,
    # 0.034 and 0.05 at k = 9, 18 and 27, sets Phi0's top degrees there.
    res = full_normalize(planted_swap_reversible(2.4, 2, 24))
    assert (res.eps, res.s) == (1, 2) and res.residual < 1e-9
    with pytest.raises(ValueError, match="normalization failed"):
        full_normalize(planted_swap_reversible(0.7, 1, 28))


# Every (theta, s, N) of the order sweep passes the final gate except these.
SWEEP_REFUSED = {(0.7, 1, 28)}


@pytest.mark.parametrize("theta,s,n,seed", [(t, s, n, 1) for t in (0.7, 1.225, 2.4) for s in (1, 2)
                                            for n in (12, 16, 20, 24, 28)] + [(0.7, 1, 16, 7)])
def test_full_normalize_order_sweep(theta, s, n, seed):
    # Each planted input either passes the final gate with its planted
    # (eps, s) and lambda, or is refused with one "normalization failed"
    # line.  Among the passing ones are the inputs a solve outside Phi0's
    # symmetry class refused: theta = 1.225, s = 1 at N = 20; theta = 0.7,
    # s = 2 at N = 24 and 28; theta = 0.7, s = 1 at N = 16 on the frames
    # of seeds 1 and 7.
    phi = planted_swap_reversible(theta, s, n, seed)
    if (theta, s, n) in SWEEP_REFUSED:
        with pytest.raises(ValueError, match="normalization failed") as refused:
            full_normalize(phi)
        assert "\n" not in str(refused.value)
        return
    res = full_normalize(phi)
    assert (res.eps, res.s) == (1, s)
    assert abs(res.lam - np.exp(1j * theta)) < 1e-10
    assert res.residual <= 1e-6 * max(1.0, phi.max_abs())


@pytest.mark.parametrize("theta,s,n", [(t, s, n) for t in (0.7, 1.225, 2.4) for s in (1, 2)
                                       for n in (8, 12, 16, 20)])
def test_default_reversor_is_the_swap_bitwise(theta, s, n):
    # Without tau the swap takes no change of coordinates, and conjugator . S
    # is read off the transposed tables; the explicit swap is linearized by
    # the identity and composed.  Every output agrees bit for bit.
    phi = planted_swap_reversible(theta, s, n)
    got, want = full_normalize(phi), full_normalize(phi, tau=MapJet.swap(n))
    for a, b in ((got.Phi.x.coeffs, want.Phi.x.coeffs), (got.Phi.y.coeffs, want.Phi.y.coeffs),
                 (got.M, want.M), (got.Gamma, want.Gamma)):
        assert np.array_equal(a, b)
    assert (got.lam, got.eps, got.s, got.residual) == (want.lam, want.eps, want.s, want.residual)


def test_full_normalize_general_involution():
    rng = np.random.default_rng(46)
    lam = np.exp(0.9j)
    n = 12
    target = normal_form_map(lam, 1, 2, n)
    frame = real_diagonal_frame(rng, n, 1.2 * np.exp(0.35j), 0.04)
    phi = conjugate_map(frame, target)
    tau = conjugate_map(frame, MapJet.swap(n))

    res = full_normalize(phi, tau=tau)
    assert abs(res.lam - lam) < 1e-9
    assert (res.eps, res.s) == (1, 2)
    assert res.residual < 1e-9
    # the composite change sends tau to the exact swap
    moved = conjugate_map(res.Phi, tau)
    assert map_residual(moved, MapJet.swap(n)) < 1e-9


def test_full_normalize_linear_map():
    lam = np.exp(0.9j)
    n = 10
    phi = MapJet(lam * Jet.coordinate("xi", n), np.conj(lam) * Jet.coordinate("eta", n))
    res = full_normalize(phi)
    assert res.eps == 0
    assert math.isinf(res.s)
    assert res.residual < 1e-12
    # the model map with eps = 0 is this linear map, and takes s only as
    # the infinity marker; eps itself is -1, 0 or 1 (test_integer_rule.py)
    assert map_residual(normal_form_map(lam, 0, math.inf, n), phi) < 1e-15
    for s in (2, 0, 1.5):
        with pytest.raises(ValueError, match="^eps = 0 requires the infinity marker for s$"):
            normal_form_map(lam, 0, s, n)


def test_full_normalize_rejects_bad_maps():
    n = 10
    lam = np.exp(0.9j)
    # multiplier in the lower half plane
    down = MapJet(np.conj(lam) * Jet.coordinate("xi", n), lam * Jet.coordinate("eta", n))
    with pytest.raises(ValueError, match="Im lambda"):
        full_normalize(down)
    # not reversible by the swap
    skew = MapJet(
        lam * Jet.coordinate("xi", n) + Jet.from_entries({(2, 0): 0.1 * lam}, n),
        np.conj(lam) * Jet.coordinate("eta", n),
    )
    with pytest.raises(ValueError, match="reversible"):
        full_normalize(skew)
    # root-of-unity multiplier
    res_lam = np.exp(1j * np.pi / 4)
    rot = MapJet(res_lam * Jet.coordinate("xi", n), np.conj(res_lam) * Jet.coordinate("eta", n))
    with pytest.raises(ResonanceError):
        full_normalize(rot)
    # an order above the map's or the reversor's own truncation order would
    # zero-pad the jets and fail later with a misleading cause
    planted = conjugate_map(
        map_inverse(real_swap_commuting_map(np.random.default_rng(1), 8, 0.04)),
        normal_form_map(np.exp(0.7j), 1, 2, 8),
    )
    with pytest.raises(ValueError, match="order 12 exceeds"):
        full_normalize(planted, order=12)
    with pytest.raises(ValueError, match="order 10 exceeds"):
        full_normalize(down, tau=MapJet.swap(8))
    # a constant term: no formal conjugacy at the origin, refused by the
    # first composition on both paths
    shifted = MapJet(down.x + Jet.constant(0.1, n), down.y)
    for tau in (None, MapJet.swap(n)):
        with pytest.raises(ValueError, match="^composition target must fix the origin$"):
            full_normalize(shifted, tau=tau)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_maps_are_refused_by_name(value):
    # A non-finite coefficient passes every ">" gate, so it is refused by
    # name before any arithmetic, and no numpy RuntimeWarning fires.
    n = 8
    model = normal_form_map(cmath.exp(0.9j), 1, 1, n)

    def spoiled(m, entry):
        c = m.x.coeffs.copy()
        c[entry] = value
        return MapJet(Jet(c, n), m.y)

    for entry in ((3, 2), (2, 1)):
        for tau in (None, MapJet.swap(n)):
            with pytest.raises(ValueError, match="^phi has a non-finite coefficient$"):
                full_normalize(spoiled(model, entry), tau=tau)
    bad_tau = spoiled(MapJet.swap(n), (2, 0))
    with pytest.raises(ValueError, match="^tau has a non-finite coefficient$"):
        full_normalize(model, tau=bad_tau)
    with pytest.raises(ValueError, match="^tau2 has a non-finite coefficient$"):
        InvolutionPair.from_maps(MapJet.swap(n), bad_tau)


def test_full_normalize_rejects_map_not_reversed_by_non_swap_involution():
    # tau is no swap here, and phi = frame . skew . frame^{-1} is not
    # tau-reversible for tau = frame . S . frame^{-1}, since skew is not
    # S-reversible: refused where the solve would read it.
    n = 10
    lam = np.exp(0.9j)
    skew = MapJet(
        lam * Jet.coordinate("xi", n) + Jet.from_entries({(2, 0): 0.1 * lam}, n),
        np.conj(lam) * Jet.coordinate("eta", n),
    )
    frame = real_diagonal_frame(np.random.default_rng(46), n, 1.2 * np.exp(0.35j), 0.04)
    with pytest.raises(ValueError, match="^phi is not tau-reversible: residual"):
        full_normalize(conjugate_map(frame, skew), tau=conjugate_map(frame, MapJet.swap(n)))


def test_full_normalize_refuses_unknown_reality_mode_first(monkeypatch):
    # The mode is an argument check: a map that would also fail
    # reversibility is refused for its mode, before any composition.
    n = 6
    lam = np.exp(0.9j)
    skew = MapJet(
        lam * Jet.coordinate("xi", n) + Jet.from_entries({(2, 0): 0.1 * lam}, n),
        np.conj(lam) * Jet.coordinate("eta", n),
    )
    counts = count_series_ops(monkeypatch)
    with pytest.raises(ValueError, match="^unknown reality mode 'bogus'$"):
        full_normalize(skew, reality="bogus")
    assert counts["map_compose"] == 0


def test_full_normalize_refuses_complex_gamma_head():
    # phi = (xi M(t), eta / M(t)), M = e^{0.9i} exp(i (1 + 0.1i) t), is
    # swap-reversible and already in product form, but its Gamma has the
    # complex head 1 + 0.1i: "surface" mode refuses it after the solve,
    # "standard" mode at the input, since rho phi != phi rho.
    n = 8
    g = np.zeros(n + 1, dtype=complex)
    g[1] = 1j * (1 + 0.1j)
    m = np.exp(0.9j) * series_exp(g)
    phi = _compose_product_form(m, series_reciprocal(m), MapJet.identity(n))
    with pytest.raises(ValueError, match=r"^Gamma head is not real \(defect 1\.000e-01\); "
                                         "pair lacks the rho-symmetry$"):
        full_normalize(phi, reality="surface")
    with pytest.raises(ValueError, match="^standard reality condition fails: defect 2\\.000e-01$"):
        full_normalize(phi)


def test_full_normalize_reality_modes():
    rng = np.random.default_rng(47)
    lam = np.exp(0.9j)
    n = 12
    target = normal_form_map(lam, 1, 2, n)
    a = triangle_noise(rng, n, 0.04)
    # a frame with entries on the resonant diagonals would reparametrize t
    # with complex coefficients and push Gamma off the real axis; keep the
    # frame normalized so the invariant extraction stays meaningful
    k = np.arange(n // 2)
    a[k + 1, k] = 0.0
    a[1, 0] += 1.0
    frame = MapJet(Jet(a, n), Jet(a.T.copy(), n))  # swap-commuting, not real
    phi = conjugate_map(map_inverse(frame), target)
    assert reality_defect(phi, "standard") > 1e-6

    with pytest.raises(ValueError, match="reality"):
        full_normalize(phi)
    res = full_normalize(phi, reality="surface")
    assert (res.eps, res.s) == (1, 2)
    assert res.residual < 1e-9


# --- the elimination loop -----------------------------------------------------


def full_order_conjugacy(phi, mu):
    """Oracle for _solve_conjugacy: the same elimination, but err is
    recomposed in full, through order N, with map_compose at every degree."""
    n = phi.order
    pows = np.array([mu**k for k in range(-n, n + 2)])
    i, j = np.indices((n + 1, n + 1))
    resonant = np.array([i == j + 1, j == i + 1])
    divisors = np.where(resonant, 1.0, pows[n + i - j] - np.array([mu, 1.0 / mu])[:, None, None])
    lin = phi.linear_part()
    phi_total = MapJet.identity(n)
    form = MapJet(lin[0, 0] * phi_total.x, lin[1, 1] * phi_total.y)
    err = phi - form
    for d in range(2, n + 1):
        e = np.where(i + j == d, np.array([err.x.coeffs, err.y.coeffs]), 0.0)
        u = np.where(resonant, 0.0, -e / divisors)
        f = np.where(resonant, e, 0.0)
        phi_total = MapJet(phi_total.x + Jet(u[0], n), phi_total.y + Jet(u[1], n))
        form = MapJet(form.x + Jet(f[0], n), form.y + Jet(f[1], n))
        err = map_compose(phi_total, phi) - map_compose(form, phi_total)
    m_defect = _unit_defect(diagonal_series(form.x, "xi"), diagonal_series(form.y, "eta"))
    return phi_total, form, max(err.max_abs(), m_defect)


def dense_form_conjugacy(phi, mu):
    """Bitwise oracle for _solve_conjugacy: the same loop with F carried as
    a dense jet, its series read back off the diagonals at every step, and
    F . Phi0 composed by a kernel that takes F itself."""
    n = phi.order
    pows = np.array([mu**k for k in range(-n, n + 2)])
    for k, gap in enumerate(np.abs(pows[n + 1 :] - 1.0), start=1):
        if gap < RESONANCE_TOL:
            raise ResonanceError(k, float(gap))
    lin = phi.linear_part()
    off = max(abs(lin[0, 1]), abs(lin[1, 0]), abs(lin[0, 0] - mu), abs(lin[1, 1] - 1.0 / mu))
    if off > 1e-9 * max(1.0, phi.max_abs()):
        raise ValueError("phi does not have the diagonal linear part (mu, 1/mu)")

    def radial(c, t):
        one = Jet.constant(1.0, t.order)
        out = c[-1] * one
        for ck in c[-2::-1]:
            out = jet_mul(out, t) + ck * one
        return out

    def compose_dense_form(form, inner):
        t = jet_mul(inner.x, inner.y)
        return MapJet(
            jet_mul(inner.x, radial(diagonal_series(form.x, "xi"), t)),
            jet_mul(inner.y, radial(diagonal_series(form.y, "eta"), t)),
        )

    i, j = np.indices((n + 1, n + 1))
    resonant = np.array([i == j + 1, j == i + 1])
    divisors = np.where(resonant, 1.0, pows[n + i - j] - np.array([mu, 1.0 / mu])[:, None, None])
    ypow = _powers(phi.y, n)
    phi_total = MapJet.identity(n)
    form = MapJet(lin[0, 0] * phi_total.x, lin[1, 1] * phi_total.y)
    err = phi - form
    for d in range(2, n + 1):
        e = np.where(i + j == d, np.array([err.x.coeffs, err.y.coeffs]), 0.0)
        u = np.where(resonant, 0.0, -e / divisors)
        f = np.where(resonant, e, 0.0)
        phi_total = MapJet(phi_total.x + Jet(u[0], n), phi_total.y + Jet(u[1], n))
        form = MapJet(form.x + Jet(f[0], n), form.y + Jet(f[1], n))
        m = min(d + 1, n)
        conj, x = phi_total.truncate(m), phi.x.truncate(m)
        pw = np.where(_triangle_mask(m), ypow[: d + 1, : m + 1, : m + 1], 0.0)
        lhs = MapJet(_compose(conj.x, x, pw), _compose(conj.y, x, pw))
        err = (lhs - compose_dense_form(form.truncate(m), conj)).truncate(n)

    m_series, m_inv = diagonal_series(form.x, "xi"), diagonal_series(form.y, "eta")
    return phi_total, m_series, m_inv, max(err.max_abs(), _unit_defect(m_series, m_inv))


def assert_bitwise_conjugacy(phi, mu):
    """_solve_conjugacy equals the dense-form loop bit for bit."""
    got = _solve_conjugacy(phi, mu)
    phi0, m_series, m_inv, defect = got
    phi0_dense, m_dense, m_inv_dense, defect_dense = dense_form_conjugacy(phi, mu)
    assert np.array_equal(phi0.x.coeffs, phi0_dense.x.coeffs)
    assert np.array_equal(phi0.y.coeffs, phi0_dense.y.coeffs)
    assert np.array_equal(m_series, m_dense) and np.array_equal(m_inv, m_inv_dense)
    assert defect == defect_dense
    return got


def assert_same_conjugacy(phi, mu):
    """_solve_conjugacy equals the dense-form loop bit for bit, and the
    full-order oracle to rounding."""
    tol = 1e-12 * max(1.0, phi.max_abs())
    phi0, m_series, m_inv, defect = assert_bitwise_conjugacy(phi, mu)
    phi0_full, form_full, defect_full = full_order_conjugacy(phi, mu)
    assert map_residual(phi0, phi0_full) <= tol
    assert np.abs(m_series - diagonal_series(form_full.x, "xi")).max() <= tol
    assert np.abs(m_inv - diagonal_series(form_full.y, "eta")).max() <= tol
    assert abs(defect - defect_full) <= tol
    return defect


@pytest.mark.parametrize("s,n", [(2, 8), (2, 12), (2, 16), (2, 24), (1, 12), (3, 12)])
def test_conjugacy_matches_full_order_loop(s, n):
    phi = planted_swap_reversible(2.4, s, n)
    assert assert_same_conjugacy(phi, phi.x.coeff(1, 0)) < 1e-9


@pytest.mark.parametrize("theta,s,n", [(0.7, 1, 12), (0.7, 2, 12), (0.7, 3, 16), (1.225, 1, 16),
                                       (2.4, 3, 20), (2.4, 1, 24), (2.4, 1, 1), (2.4, 2, 2)])
def test_conjugacy_matches_dense_form_loop_bitwise(theta, s, n):
    # Carrying F as its two series changes no bit of Phi0, M, M' or the
    # defect.  At s = 1 the small divisors leave the full-order loop further
    # apart than the rounding bound of assert_same_conjugacy.  At N = 1 the
    # loop runs no step, so the defect is read off the starting err alone.
    phi = planted_swap_reversible(theta, s, n)
    assert assert_bitwise_conjugacy(phi, phi.x.coeff(1, 0))[3] < 1e-9


def surface_pair_inner():
    """The map full_normalize(reality="surface") solves for an order-12
    surface pair: phi brought into the frame where tau1 is the swap, and its mu."""
    tau1, _, phi = surface_pair(1, 0.73)
    change, change_inv = linearize_involution(tau1)
    return map_compose(map_compose(change, phi), change_inv), phi.x.coeff(1, 0)


def test_conjugacy_matches_full_order_loop_on_surface_pair():
    assert assert_same_conjugacy(*surface_pair_inner()) < 1e-9


def assert_xi_half_conjugacy(phi, mu, reality):
    """The xi-half solve in Phi0's symmetry class: Phi0.y is Phi0.x
    transposed bit for bit, Phi0.x is real in "standard" mode, and both
    halves of Phi0 . phi = F . Phi0 hold.  M and M' agree with the
    two-half loop to rounding, Phi0.x to rounding plus the two-half
    loop's own departure from the class (its Phi0.x - Phi0.y^T and, in
    "standard" mode, Im Phi0.x): the small divisors amplify the rounding
    of both loops in the directions the class excludes, and at s = 1
    that departure reaches 1.7e-11 by N = 16."""
    tol = 1e-12 * max(1.0, phi.max_abs())
    phi0, m_series, m_inv, defect = _solve_conjugacy(phi, mu, reality=reality)
    two_half, m_two, m_inv_two, _ = _solve_conjugacy(phi, mu)
    assert np.array_equal(phi0.y.coeffs, phi0.x.coeffs.T)
    if reality == "standard":
        assert not phi0.x.coeffs.imag.any()
        departure = float(np.abs(two_half.x.coeffs.imag).max())
    else:
        assert phi0.x.coeffs.imag.any()
        departure = 0.0
    departure = max(departure, float(np.abs(two_half.x.coeffs - two_half.y.coeffs.T).max()))
    assert float(np.abs(phi0.x.coeffs - two_half.x.coeffs).max()) <= tol + departure
    assert np.abs(m_series - m_two).max() <= tol and np.abs(m_inv - m_inv_two).max() <= tol
    assert map_residual(map_compose(phi0, phi), _compose_product_form(m_series, m_inv, phi0)) <= tol
    assert defect <= tol


@pytest.mark.parametrize("s,n", [(s, n) for s in (1, 2, 3) for n in range(8, 17)])
def test_xi_half_conjugacy_matches_two_half_loop(s, n):
    phi = planted_swap_reversible(2.4, s, n)
    assert_xi_half_conjugacy(phi, phi.x.coeff(1, 0), "standard")


def test_xi_half_conjugacy_on_surface_pair():
    # "surface" mode transposes but does not project onto the reals: the
    # surface pair's conjugator is not real.
    assert_xi_half_conjugacy(*surface_pair_inner(), "surface")


@pytest.mark.parametrize("n,terms", [(2, 1), (3, 2), (8, 1), (8, 4), (13, 7), (8, 9)])
def test_product_form_composition(n, terms):
    # F = (xi M(xi eta), eta M'(xi eta)) with `terms` coefficients in each
    # series (1: a linear F; beyond (n + 1) // 2 they reach past degree n),
    # composed with a random map fixing the origin; the swapped form
    # (eta M, xi M') is the same kernel on the swapped inner map.  Both
    # forms are the kernel on the identity and the swap, whose entries sit
    # on the xi and eta diagonals and nowhere else.
    rng = np.random.default_rng(48 + n + terms)
    m1, m2 = (rng.standard_normal(terms) + 1j * rng.standard_normal(terms) for _ in range(2))
    form = _compose_product_form(m1, m2, MapJet.identity(n))
    swapped = _compose_product_form(m1, m2, MapJet.swap(n))
    k = (n + 1) // 2
    for jet, kind, m in ((form.x, "xi", m1), (form.y, "eta", m2),
                         (swapped.x, "eta", m1), (swapped.y, "xi", m2)):
        assert diagonal_series(jet, kind).tolist() == m[:k].tolist() + [0] * (k - len(m[:k]))
        assert off_diagonal_residual(jet, kind) == 0.0
    inner = MapJet(Jet(triangle_noise(rng, n, 0.5, min_degree=1), n),
                   Jet(triangle_noise(rng, n, 0.5, min_degree=1), n))
    want = map_compose(form, inner)
    assert map_residual(_compose_product_form(m1, m2, inner), want) <= 1e-12 * max(1.0, want.max_abs())
    want = map_compose(swapped, inner)
    got = _compose_product_form(m1, m2, MapJet(inner.y, inner.x))
    assert map_residual(got, want) <= 1e-12 * max(1.0, want.max_abs())


# --- operation counts ---------------------------------------------------------


def count_series_ops(monkeypatch):
    """Count jet_mul, map_compose and map_inverse calls, and the map_compose
    calls made inside map_inverse (its passes), wherever the pipeline
    reaches them: each name is patched in the modules that bind it."""
    from revtwist import normal_form, series

    counts = {"jet_mul": 0, "map_compose": 0, "passes": 0, "map_inverse": 0}
    inverting = []
    mul, compose, invert = series.jet_mul, series.map_compose, series.map_inverse

    def counted_mul(a, b):
        counts["jet_mul"] += 1
        return mul(a, b)

    def counted_compose(f, g):
        counts["map_compose"] += 1
        if inverting:
            counts["passes"] += 1
        return compose(f, g)

    def counted_invert(phi):
        counts["map_inverse"] += 1
        inverting.append(phi)
        try:
            return invert(phi)
        finally:
            inverting.pop()

    counted = {"jet_mul": counted_mul, "map_compose": counted_compose,
               "map_inverse": counted_invert}
    for module in (series, normal_form):
        for name, fn in counted.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    return counts


def test_full_normalize_operation_counts(monkeypatch):
    # Machine-independent cost of one N=12 run on a criterion-2-style input:
    # with no tau the reversor is the swap itself, so there is no change of
    # coordinates to build, invert or compose, and conjugator . S is read
    # off the transposed tables.  Two compositions remain: reversibility,
    # checked as (S phi)^2 = id, and conjugator . phi in the final gate.
    # The elimination makes no map_compose call: each step composes at the
    # order the next one reads, over one power table of phi.y.  F, Phi2 and
    # the model map are product forms and never the outer map of
    # map_compose.  Any change here is a change of algorithm and should be
    # deliberate.
    n = 12
    target = normal_form_map(np.exp(0.7j), 1, 2, n)
    frame = real_swap_commuting_map(np.random.default_rng(1), n, 0.04)
    phi = conjugate_map(map_inverse(frame), target)
    counts = count_series_ops(monkeypatch)
    res = full_normalize(phi)
    assert (res.eps, res.s) == (1, 2)
    assert counts == {"jet_mul": 237, "map_compose": 2, "passes": 0, "map_inverse": 0}


def test_full_normalize_operation_counts_with_non_swap_reversor(monkeypatch):
    # The same for an N=12 surface pair, phi = tau1 . tau2 reversed by
    # tau1: the change sending tau1 to the swap is inverted in five passes
    # and phi is conjugated by it; nothing composes the change with tau1.
    tau1, _, phi = surface_pair(1, 0.73)
    counts = count_series_ops(monkeypatch)
    res = full_normalize(phi, tau=tau1, reality="surface")
    assert (res.eps, res.s) == (1, 1)
    assert counts == {"jet_mul": 529, "map_compose": 12, "passes": 5, "map_inverse": 1}


def count_exponent_solves(monkeypatch):
    """Counts of the orbit kernel's exponent solves, of its forward Laurent
    sums, and of the exps made inside the solves (one per Newton step after
    the closed-form first)."""
    from revtwist import twist

    counts = {"solves": 0, "eval": 0, "passes": 0}
    solving = []
    solve, laurent, exp = twist._exponent_fixed_point, twist._laurent, np.exp

    def counted_solve(*args):
        counts["solves"] += 1
        solving.append(args)
        try:
            return solve(*args)
        finally:
            solving.pop()

    def counted_eval(*args):
        counts["eval"] += 1
        return laurent(*args)

    def counted_exp(*args, **kwargs):
        if solving:
            counts["passes"] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(twist, "_exponent_fixed_point", counted_solve)
    monkeypatch.setattr(twist, "_laurent", counted_eval)
    monkeypatch.setattr(np, "exp", counted_exp)
    return counts


def test_surface_exponent_solve_operation_counts(monkeypatch):
    # Machine-independent cost of one small involution-pair curve: each
    # tau step of the orbit kernel inverts one phase change by an exponent
    # solve on the modes of its bands, which takes its first Newton step
    # in closed form, so it pays one exp per later step (its passes) and
    # no Laurent sum; only the forward phases sum the family's bands.
    # Each solve exits once its error is certified below kappa u A0
    # (`twist._exponent_fixed_point`): two passes per solve here, where the
    # step-size rule alone took three (192).
    # The return test reads the orbit of the last h evaluation, so every
    # n = 4 orbit here (two tau steps per map step) serves an h evaluation.
    # Any change here is a change of algorithm and should be deliberate.
    from revtwist import twist
    from revtwist.families import CoefficientFamily
    from revtwist.surface import surface_curves

    counts = count_exponent_solves(monkeypatch)
    tp = twist.TwistParams(alpha=(4 * math.pi - 2) / 4, s=1)
    crv = surface_curves(CoefficientFamily({(4, 0): 0.05}, 1), tp, 4, 2,
                         grid_size=64, intersect=False)
    assert crv.residual <= 1e-10
    assert counts == {"solves": 64, "eval": 64, "passes": 128}


def test_witness_exponent_solve_operation_counts(monkeypatch):
    # A witness-sized varphi curve: a generic Hermitian family of modes
    # +-1 and +-2 at n = 150 on 4n points, zeta0 = 7.7e-3.  Every solve,
    # the first step of each orbit included, is bounded at the radii its
    # input guard measured and certified after its closed-form first
    # step, with no exp; the step-size rule alone paid one exp per solve
    # (300).  Any change here is a change of algorithm.
    from revtwist import twist

    counts = count_exponent_solves(monkeypatch)
    fam = CoefficientFamily({(2, 1): 0.02 * cmath.exp(0.7j), (3, 1): 0.02 * cmath.exp(2.1j)}, 1,
                            hermitian=True)
    n = 150
    tp = TwistParams(alpha=(2 * math.pi * 47 - 0.009) / n, s=1)
    crv = twist.periodic_curve(fam, tp, n, 2, grid_size=4 * n)
    assert crv.residual <= 1e-10 and crv.steps == 1
    assert counts == {"solves": 300, "eval": 300, "passes": 0}
