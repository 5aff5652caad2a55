"""Normal forms for reversible elliptic-type plane maps.

The pipeline: bring the reversing involution to the exact swap S, solve
Phi0 . phi = F . Phi0 for the unique normalized Phi0 and the product form
F = (M(xi eta) xi, M^{-1} eta) (Phi0 then commutes with S), read off
Gamma = -i log M, and extract the invariants (lambda, eps, s).  Conjugation
convention throughout: Phi carries the map phi to Phi . phi . Phi^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    Jet,
    MapJet,
    diagonal_series,
    jet_exp_i,
    jet_mul,
    map_compose,
    map_inverse,
    map_residual,
    off_diagonal_residual,
    radial_to_jet,
    reality_defect,
    series_log,
    series_mul,
    series_pow,
    series_reciprocal,
)

INVOLUTION_TOL = 1e-10
CONJUGATION_TOL = 1e-9
RESONANCE_TOL = 1e-8

S_INFINITY = math.inf


class ResonanceError(ValueError):
    """Raised when the multiplier is within tolerance of a root of unity."""

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"|lambda^{k} - 1| = {value:.3e} < {RESONANCE_TOL}: (near-)resonance")


def check_nonresonant(mu: complex, order: int) -> None:
    # Degree-N elimination divides by mu^k - 1 with k up to N+1.
    p = 1.0 + 0.0j
    for k in range(1, order + 2):
        p *= mu
        if abs(p - 1.0) < RESONANCE_TOL:
            raise ResonanceError(k, abs(p - 1.0))


def involution_residual(m: MapJet) -> float:
    return map_residual(map_compose(m, m), MapJet.identity(m.order))


@dataclass(frozen=True)
class InvolutionPair:
    """Two involutions whose linear parts are (lambda_j eta, lambda_j^{-1} xi).

    Build it with ``from_maps``, which checks both involutions and demands
    one truncation order for the pair.
    """

    tau1: MapJet
    tau2: MapJet
    lambda1: complex
    lambda2: complex

    @staticmethod
    def from_maps(tau1: MapJet, tau2: MapJet) -> "InvolutionPair":
        if tau1.order != tau2.order:
            raise ValueError(
                f"tau1 and tau2 have different truncation orders {tau1.order} and {tau2.order}"
            )
        lams = []
        for tau in (tau1, tau2):
            res = involution_residual(tau)
            if res > INVOLUTION_TOL * max(1.0, tau.max_abs()):
                raise ValueError(f"not an involution through order {tau.order}: residual {res:.3e}")
            lam = tau.x.coeff(0, 1)
            if abs(abs(lam) - 1.0) > 1e-9:
                raise ValueError(f"|lambda| = {abs(lam)} off the unit circle")
            lin = tau.linear_part()
            defect = max(
                abs(lin[0, 0]), abs(lin[1, 1]), abs(lin[1, 0] - 1.0 / lam)
            )
            if defect > INVOLUTION_TOL * max(1.0, tau.max_abs()):
                raise ValueError(f"linear part not of anti-diagonal involution form: {defect:.3e}")
            lams.append(lam)
        return InvolutionPair(tau1, tau2, lams[0], lams[1])


@dataclass(frozen=True)
class MWResult:
    """``residual`` is the worst of the conjugacy defect Phi0 . phi - F . Phi0
    through degree N, M M^{-1} - 1, and the form defects of each
    Phi0 . tau_j . Phi0^{-1} (with Lambda_j Lambda_j^{-1} - 1, M - Lambda1/Lambda2).
    """

    Phi0: MapJet
    M: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
    mu: complex
    residual: float


@dataclass(frozen=True)
class NormalFormResult:
    """Invariants {lambda, eps, s}, the conjugator Phi, M and Gamma = -i log M."""

    Phi: MapJet
    lam: complex
    eps: int
    s: int | float
    M: np.ndarray
    Gamma: np.ndarray
    residual: float

    def __post_init__(self):
        if self.eps == 0 and self.s != S_INFINITY:
            raise ValueError("eps = 0 requires the infinity marker for s")


def linearize_involution(tau: MapJet) -> tuple[MapJet, MapJet, MapJet]:
    """Return (change, change_inv, tau_std), tau_std = change . tau . change_inv = (eta, xi).

    The change is the half-power scaling average
    xi' = lambda0^{-1/2} (xi + lambda0 * (eta . tau)) / 2,
    eta' = lambda0^{1/2} (eta + lambda0bar * (xi . tau)) / 2,
    which sends tau to the exact swap and preserves the standard reality
    condition whenever tau satisfies it.
    """
    n = tau.order
    res = involution_residual(tau)
    scale = max(1.0, tau.max_abs())
    if res > INVOLUTION_TOL * scale:
        raise ValueError(f"tau is not an involution: residual {res:.3e}")
    lam0 = tau.x.coeff(0, 1)
    if abs(abs(lam0) - 1.0) > 1e-10:
        raise ValueError(f"|lambda0| = {abs(lam0)} off the unit circle")
    lin = tau.linear_part()
    defect = max(abs(lin[0, 0]), abs(lin[1, 1]), abs(lin[1, 0] - np.conj(lam0)))
    if defect > 1e-10 * scale:
        raise ValueError(f"linear part of tau is not (lambda0 eta, conj(lambda0) xi): {defect:.3e}")

    half = np.exp(0.5j * np.angle(lam0))
    cx = (Jet.coordinate("xi", n) + lam0 * tau.y) * (0.5 / half)
    cy = (Jet.coordinate("eta", n) + np.conj(lam0) * tau.x) * (0.5 * half)
    change = MapJet(cx, cy)
    change_inv = map_inverse(change)
    tau_std = map_compose(map_compose(change, tau), change_inv)
    if map_residual(tau_std, MapJet.swap(n)) > CONJUGATION_TOL * scale:
        raise ValueError("linearization failed to reach the swap involution")
    return change, change_inv, tau_std


def _solve_conjugacy(phi: MapJet, mu: complex) -> tuple[MapJet, MapJet, float]:
    """Solve Phi0 . phi = F . Phi0 for the normalized Phi0 and the product form F.

    phi has the linear part (mu, 1/mu).  With Phi0 and F known through
    degree d - 1, the degree-d part of err = Phi0 . phi - F . Phi0 is
    cancelled: off the resonant entries ((i+1,i) in xi, (i,i+1) in eta) by
    Phi0's coefficient -err / (mu^{i-j} - mu) (1/mu in eta), on them by F,
    while Phi0 stays zero there, which is the normalization that makes the
    conjugator unique.  Returns (Phi0, F, defect), the defect being the
    worst of err after phi's truncation order N and of M M^{-1} - 1.
    """
    n = phi.order
    check_nonresonant(mu, n)
    lin = phi.linear_part()
    off = max(abs(lin[0, 1]), abs(lin[1, 0]), abs(lin[0, 0] - mu), abs(lin[1, 1] - 1.0 / mu))
    if off > 1e-9 * max(1.0, phi.max_abs()):
        raise ValueError("phi does not have the diagonal linear part (mu, 1/mu)")

    # Phi0 starts at the identity and F at phi's own diagonal, so err
    # vanishes through degree 1 up to phi's off-diagonal linear entries.
    phi_total = MapJet.identity(n)
    form = MapJet(lin[0, 0] * phi_total.x, lin[1, 1] * phi_total.y)
    mu_pows = {k: mu**k for k in range(-n - 1, n + 2)}
    err = phi - form
    for d in range(2, n + 1):
        u1, u2, f1, f2 = np.zeros((4, n + 1, n + 1), dtype=complex)
        for i in range(d + 1):
            j = d - i
            if i == j + 1:
                f1[i, j] = err.x.coeffs[i, j]
            else:
                u1[i, j] = -err.x.coeffs[i, j] / (mu_pows[i - j] - mu)
            if j == i + 1:
                f2[i, j] = err.y.coeffs[i, j]
            else:
                u2[i, j] = -err.y.coeffs[i, j] / (mu_pows[i - j] - 1.0 / mu)
        phi_total = MapJet(phi_total.x + Jet(u1, n), phi_total.y + Jet(u2, n))
        form = MapJet(form.x + Jet(f1, n), form.y + Jet(f2, n))
        err = map_compose(phi_total, phi) - map_compose(form, phi_total)

    m_series = diagonal_series(form.x, "xi")
    m_inv = diagonal_series(form.y, "eta")
    defect = max(
        err.max_abs(),
        float(np.abs(series_mul(m_series, m_inv) - _one_series(len(m_series))).max()),
    )
    return phi_total, form, defect


def _check_off_form(residual: float, form: MapJet) -> None:
    if residual > 1e-6 * max(1.0, form.max_abs()):
        raise ValueError(f"normalization failed: off-form residual {residual:.3e}")


def mw_normalize(pair: InvolutionPair) -> MWResult:
    """Unique normalized conjugation of the pair to the product normal form.

    Solves the conjugacy equation for phi = tau1 . tau2, then reads each
    involution's radial factor Lambda_j from Phi0 . tau_j . Phi0^{-1}.
    """
    mu = pair.lambda1 / pair.lambda2
    phi_total, form, residual = _solve_conjugacy(map_compose(pair.tau1, pair.tau2), mu)
    m_series = diagonal_series(form.x, "xi")

    phi_total_inv = map_inverse(phi_total)
    lambdas = []
    for tau in (pair.tau1, pair.tau2):
        tt = map_compose(map_compose(phi_total, tau), phi_total_inv)
        lambdas.append(diagonal_series(tt.x, "eta"))
        lam_inv = diagonal_series(tt.y, "xi")
        residual = max(
            residual,
            off_diagonal_residual(tt.x, "eta"),
            off_diagonal_residual(tt.y, "xi"),
            float(np.abs(series_mul(lambdas[-1], lam_inv) - _one_series(len(lam_inv))).max()),
        )
    # Consistency M = Lambda1 * Lambda2^{-1}.
    recomposed = series_mul(lambdas[0], series_reciprocal(lambdas[1]))
    residual = max(residual, float(np.abs(recomposed - m_series).max()))

    _check_off_form(residual, form)
    return MWResult(phi_total, m_series, lambdas[0], lambdas[1], mu, residual)


def _one_series(length: int) -> np.ndarray:
    out = np.zeros(length, dtype=complex)
    out[0] = 1.0
    return out


def gamma_from_M(m_series) -> np.ndarray:
    """Gamma with e^{i Gamma} = M, Gamma(0) the principal argument of M(0)."""
    m = np.asarray(m_series, dtype=complex)
    if abs(abs(m[0]) - 1.0) > 1e-10:
        raise ValueError(f"|M(0)| = {abs(m[0])} off the unit circle")
    return -1j * series_log(m)


def extract_eps_s(gamma) -> tuple[int, int | float]:
    """Sign and order of the first non-vanishing non-constant Gamma coefficient."""
    g = np.asarray(gamma, dtype=complex)
    threshold = 1e-9 * max(1.0, float(np.abs(g).max()))
    for k in range(1, len(g)):
        if abs(g[k]) > threshold:
            return (1 if g[k].real > 0 else -1), k
    return 0, S_INFINITY


def phi2_from_Gamma(gamma, eps: int, s: int, order: int) -> MapJet:
    """Radial rescaling (xi r(xi eta), eta r(xi eta)) flattening Gamma to eps t^s."""
    if eps == 0:
        raise ValueError("eps = 0: no rescaling exists (caller should skip Phi2)")
    g = np.asarray(gamma, dtype=complex)
    shifted = g[s:] / eps
    if shifted[0].real <= 0:
        raise ValueError("Gamma's leading non-constant coefficient does not match eps at order s")
    r = series_pow(shifted, 1.0 / (2 * s))
    return MapJet(radial_to_jet(r, order, "xi"), radial_to_jet(r, order, "eta"))


def normal_form_map(lam: complex, eps: int, s: int | float, order: int) -> MapJet:
    """The model map (lambda xi e^{i eps (xi eta)^s}, lambda^{-1} eta e^{-i eps (xi eta)^s})."""
    if eps == 0:
        return MapJet(
            lam * Jet.coordinate("xi", order), (1.0 / lam) * Jet.coordinate("eta", order)
        )
    t_s = radial_to_jet([0.0] * int(s) + [float(eps)], order, "plain")
    e_plus = jet_exp_i(t_s)
    e_minus = jet_exp_i(-1.0 * t_s)
    return MapJet(
        lam * jet_mul(Jet.coordinate("xi", order), e_plus),
        (1.0 / lam) * jet_mul(Jet.coordinate("eta", order), e_minus),
    )


def full_normalize(
    phi: MapJet,
    tau: MapJet | None = None,
    order: int | None = None,
    reality: str = "standard",
) -> NormalFormResult:
    """Run the whole pipeline and return the invariants of phi.

    Parameters
    ----------
    phi : MapJet
        Reversible map with linear part (lambda xi, lambda^{-1} eta),
        Im lambda > 0, lambda not a root of unity of order <= N.
    tau : MapJet, optional
        Reversing involution; defaults to the swap (eta, xi).
    order : int, optional
        Truncation order N of the computation; defaults to phi's.  It may
        not exceed the truncation order of phi or of tau.
    reality : {"standard", "surface"}
        "standard" demands the reality condition rho phi = phi rho for
        rho(xi, eta) = (etabar, xibar) and checks that the conjugator
        inherits it.  "surface" skips that (the surface pair satisfies a
        twisted condition instead) and instead verifies post hoc that the
        head of Gamma through order s came out real, which is what the
        type extraction relies on; coefficients beyond the head may acquire
        imaginary parts and are returned as computed.

    The inner gate holds Phi0's conjugacy defect and swap asymmetry
    Phi0.y - Phi0.x^T to 1e-6 of F's scale ("normalization failed").  The
    result is accepted only if conjugator . phi = target . conjugator and
    conjugator . tau = swap . conjugator hold through degree N (and, in
    "standard" mode, the conjugator is real) to 1e-6 of the inputs' scale;
    ``residual`` is the worst of these defects.
    """
    n = phi.order if order is None else int(order)
    if n > phi.order or (tau is not None and n > tau.order):
        raise ValueError(f"order {n} exceeds the truncation order of phi or tau")
    if n != phi.order:
        phi = MapJet(phi.x.truncate(n), phi.y.truncate(n))
    if tau is None:
        tau = MapJet.swap(n)
    elif tau.order != n:
        tau = MapJet(tau.x.truncate(n), tau.y.truncate(n))
    scale = max(1.0, phi.max_abs(), tau.max_abs())

    change, change_inv, _ = linearize_involution(tau)
    # (tau phi)^2 = id is exactly reversibility phi^{-1} = tau phi tau.
    res_rev = involution_residual(map_compose(tau, phi))
    if res_rev > CONJUGATION_TOL * scale:
        raise ValueError(f"phi is not tau-reversible: residual {res_rev:.3e}")
    if reality == "standard":
        defect = reality_defect(phi, "standard")
        if defect > INVOLUTION_TOL * scale:
            raise ValueError(f"standard reality condition fails: defect {defect:.3e}")
    elif reality != "surface":
        raise ValueError(f"unknown reality mode {reality!r}")

    lam_phi = phi.x.coeff(1, 0)
    if abs(abs(lam_phi) - 1.0) > 1e-9:
        raise ValueError(f"|lambda| = {abs(lam_phi)} off the unit circle")
    if lam_phi.imag <= 0:
        raise ValueError("normalization requires Im lambda > 0")

    phi0, form, defect = _solve_conjugacy(map_compose(map_compose(change, phi), change_inv), lam_phi)
    # The swap-reversed S . Phi0 . S is again a normalized conjugator, so by
    # uniqueness Phi0 commutes with the swap: Phi0.y is Phi0.x transposed.
    _check_off_form(max(defect, float(np.abs(phi0.y.coeffs - phi0.x.coeffs.T).max())), form)
    m_series = diagonal_series(form.x, "xi")

    gamma = gamma_from_M(m_series)
    eps, s = extract_eps_s(gamma)
    if reality == "surface":
        # Only the head through order s decides the type (eps, s); beyond
        # it the twisted reality condition does not pin the normalization
        # choices and Gamma may acquire imaginary parts.
        head = gamma[: int(s) + 1] if eps else gamma[:1]
        gamma_imag = float(np.abs(head.imag).max())
        if gamma_imag > 1e-8 * max(1.0, float(np.abs(gamma).max())):
            raise ValueError(f"Gamma head is not real (defect {gamma_imag:.3e}); pair lacks the rho-symmetry")
    if eps == 0:
        phi2 = MapJet.identity(n)
    else:
        phi2 = phi2_from_Gamma(gamma, eps, s, n)

    conjugator = map_compose(phi2, map_compose(phi0, change))
    lam = m_series[0]
    target = normal_form_map(lam, eps, s, n)
    residual = max(
        map_residual(map_compose(conjugator, phi), map_compose(target, conjugator)),
        map_residual(map_compose(conjugator, tau), MapJet(conjugator.y, conjugator.x)),
    )
    if reality == "standard":
        residual = max(residual, reality_defect(conjugator, "standard"))
    if residual > 1e-6 * scale:
        raise ValueError(f"normal-form residual {residual:.3e} out of tolerance")

    return NormalFormResult(conjugator, lam, eps, s, m_series, gamma, residual)
