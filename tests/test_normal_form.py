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


def test_mw_sweep_orders_agree():
    rng = np.random.default_rng(43)
    pair, _, _, _ = planted_pair(rng, np.exp(0.7j), 12)
    joint = mw_normalize(pair, sweep="joint")
    split = mw_normalize(pair, sweep="split")
    assert map_residual(joint.Phi0, split.Phi0) < 1e-10
    with pytest.raises(ValueError, match="sweep"):
        mw_normalize(pair, sweep="zigzag")


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
    res = full_normalize(phi, reality="none")
    assert (res.eps, res.s) == (1, 2)
    assert res.residual < 1e-9


# --- operation counts ---------------------------------------------------------


def count_series_ops(monkeypatch):
    """Count jet_mul and map_compose calls, and the map_compose calls made
    inside map_inverse (its passes), wherever the pipeline reaches them."""
    from revtwist import normal_form, series

    counts = {"jet_mul": 0, "map_compose": 0, "passes": 0}
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
    assert counts == {"jet_mul": 2466, "map_compose": 107, "passes": 51}
