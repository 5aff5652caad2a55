"""Tests for the involution-pair normalization pipeline.

Oracle strategy: plant a known answer (a normalized transformation applied
to an exactly-solvable model pair), run the pipeline, and demand the plant
back.  Invariants are checked against hand-computed model maps.
"""

import math

import numpy as np
import pytest

from revtwist.normal_form import (
    InvolutionPair,
    ResonanceError,
    extract_eps_s,
    full_normalize,
    gamma_from_M,
    involution_residual,
    linearize_involution,
    mw_normalize,
    normal_form_map,
    phi2_from_Gamma,
)
from revtwist.series import (
    Jet,
    MapJet,
    coeffs_close,
    diagonal_series,
    map_compose,
    map_inverse,
    map_residual,
    radial_to_jet,
    reality_defect,
    series_exp,
    series_reciprocal,
)


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
    return MapJet(
        radial_to_jet(lam_series, order, "eta"),
        radial_to_jet(series_reciprocal(lam_series), order, "xi"),
    )


def conjugate_map(frame, target):
    return map_compose(map_compose(frame, target), map_inverse(frame))


# --- linearize_involution ---------------------------------------------------


def test_linearize_swap_is_identity():
    change, _, tau_std = linearize_involution(MapJet.swap(8))
    assert map_residual(change, MapJet.identity(8)) == 0.0
    assert map_residual(tau_std, MapJet.swap(8)) == 0.0


def test_linearize_linear_involution():
    lam0 = np.exp(0.6j)
    n = 8
    tau = MapJet(
        lam0 * Jet.coordinate("eta", n), np.conj(lam0) * Jet.coordinate("xi", n)
    )
    change, _, tau_std = linearize_involution(tau)
    assert abs(change.x.coeff(1, 0) - lam0 ** -0.5) < 1e-14
    assert abs(change.y.coeff(0, 1) - lam0 ** 0.5) < 1e-14
    assert map_residual(tau_std, MapJet.swap(n)) < 1e-14


def test_linearize_nonlinear_real_involution():
    rng = np.random.default_rng(41)
    n = 10
    frame = real_diagonal_frame(rng, n, np.exp(0.35j), 0.05)
    tau = conjugate_map(frame, MapJet.swap(n))
    assert involution_residual(tau) < 1e-12

    change, _, tau_std = linearize_involution(tau)
    assert map_residual(tau_std, MapJet.swap(n)) < 1e-11
    # the intertwining identity change . tau = swap . change holds exactly
    lhs = map_compose(change, tau)
    rhs = map_compose(MapJet.swap(n), change)
    assert map_residual(lhs, rhs) < 1e-12
    # a real involution gets a real linearizing change
    assert reality_defect(tau, "standard") < 1e-12
    assert reality_defect(change, "standard") < 1e-11


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
    short = MapJet(pair.tau2.x.truncate(8), pair.tau2.y.truncate(8))
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
    phi2 = phi2_from_Gamma([0.3, 0.0, 4.0], eps=1, s=2, order=8)
    assert abs(phi2.x.coeff(1, 0) - 4 ** 0.25) < 1e-14
    assert abs(phi2.y.coeff(0, 1) - 4 ** 0.25) < 1e-14
    assert phi2.x.max_abs() == pytest.approx(4 ** 0.25)


def test_phi2_square_root_series():
    # Gamma = alpha + t + t^2 gives r = (1+t)^{1/2}
    gamma = [0.3, 1.0, 1.0, 0.0, 0.0, 0.0]
    phi2 = phi2_from_Gamma(gamma, eps=1, s=1, order=12)
    r = diagonal_series(phi2.x, "xi")
    expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
    assert np.abs(r[:5] - expected).max() < 1e-13

    with pytest.raises(ValueError, match="eps"):
        phi2_from_Gamma([0.3, 0.0, -4.0], eps=1, s=2, order=8)


def test_phi2_flattens_radial_map():
    # conjugating (e^{i Gamma(t)} xi, e^{-i Gamma(t)} eta) by the rescale
    # leaves exactly Gamma0 + eps t^s
    n = 14
    gamma = np.array([0.9, -0.2, 0.05, 0.01, -0.03, 0.02, 0.004], dtype=complex)
    m_series = series_exp(1j * gamma)
    m = MapJet(
        radial_to_jet(m_series, n, "xi"),
        radial_to_jet(series_reciprocal(m_series), n, "eta"),
    )
    eps, s = extract_eps_s(gamma)
    assert (eps, s) == (-1, 1)
    phi2 = phi2_from_Gamma(gamma, eps, s, n)
    flattened = conjugate_map(phi2, m)
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


def planted_swap_reversible(theta, s, n, seed=1):
    target = normal_form_map(np.exp(1j * theta), 1, s, n)
    frame = real_swap_commuting_map(np.random.default_rng(seed), n, 0.04)
    return conjugate_map(map_inverse(frame), target)


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
    phi2 = phi2_from_Gamma(res.Gamma, res.eps, res.s, n)
    assert map_residual(res.Phi, map_compose(phi2, mw.Phi0)) < 1e-10


def test_full_normalize_order_boundary():
    # The highest order the inner gate accepts depends on lambda and s: at
    # N = 24 lambda = e^{2.4i}, s = 2 still passes, while already at N = 16
    # lambda = e^{0.7i}, s = 1 fails the inner gate with one error.
    res = full_normalize(planted_swap_reversible(2.4, 2, 24))
    assert (res.eps, res.s) == (1, 2) and res.residual < 1e-9
    with pytest.raises(ValueError, match="normalization failed"):
        full_normalize(planted_swap_reversible(0.7, 1, 16))


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


# --- operation counts ---------------------------------------------------------


def count_series_ops(monkeypatch):
    """Count jet_mul, map_compose and map_inverse calls, and the map_compose
    calls made inside map_inverse (its passes), wherever the pipeline
    reaches them."""
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

    for module in (series, normal_form):
        monkeypatch.setattr(module, "jet_mul", counted_mul)
        monkeypatch.setattr(module, "map_compose", counted_compose)
        monkeypatch.setattr(module, "map_inverse", counted_invert)
    return counts


def test_full_normalize_operation_counts(monkeypatch):
    # Machine-independent cost of one N=12 run on a criterion-2-style input:
    # the conjugacy equation is solved directly against the swap, so only
    # the involution change is inverted (the identity here, in no pass);
    # compositions stop at the outer map's top degree and inverses at the
    # pass count its lowest nonlinear degree fixes.  Any change here is a
    # change of algorithm and should be deliberate.
    n = 12
    target = normal_form_map(np.exp(0.7j), 1, 2, n)
    frame = real_swap_commuting_map(np.random.default_rng(1), n, 0.04)
    phi = conjugate_map(map_inverse(frame), target)
    counts = count_series_ops(monkeypatch)
    res = full_normalize(phi)
    assert (res.eps, res.s) == (1, 2)
    assert counts == {"jet_mul": 679, "map_compose": 34, "passes": 0, "map_inverse": 1}
