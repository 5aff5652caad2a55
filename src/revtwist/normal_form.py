"""Normal forms for reversible elliptic-type plane maps.

The pipeline: bring the reversing involution to the exact swap (eta, xi),
conjugate the involution pair (tau1, tau2 = tau.phi) to the product form
(xi -> M(xi eta) xi) by the unique normalized transformation, read off
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
    radial_map,
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
    """Two involutions whose linear parts are (lambda_j eta, lambda_j^{-1} xi)."""

    tau1: MapJet
    tau2: MapJet
    lambda1: complex
    lambda2: complex

    @staticmethod
    def from_maps(tau1: MapJet, tau2: MapJet) -> "InvolutionPair":
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
    Phi0: MapJet
    M: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
    mu: complex
    residual: float


@dataclass(frozen=True)
class NormalFormResult:
    """Invariants {lambda, eps, s} plus the conjugator and radial data."""

    Phi: MapJet
    lam: complex
    eps: int
    s: int | float
    M: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
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
        raise ValueError(f"not an involution: residual {res:.3e}")
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


def mw_normalize(pair: InvolutionPair, order: int | None = None, sweep: str = "joint") -> MWResult:
    """Unique normalized conjugation of the pair to the product normal form.

    Eliminates non-resonant coefficients of phi = tau1 . tau2 degree by
    degree while pinning the resonant ((i+1,i) in xi, (i,i+1) in eta)
    entries of the accumulated transformation to zero, which is exactly the
    normalization that makes the conjugator unique.  ``sweep`` chooses the
    per-degree elimination order: "joint" removes both components in one
    step, "split" removes the xi component first, then eta; the final
    transformation is the same either way (uniqueness).

    Returns
    -------
    MWResult
        Phi0, the radial multiplier M (coefficients of M(t)), the involution
        multipliers Lambda1/Lambda2, the eigenvalue mu = lambda1/lambda2,
        and the worst off-form residual.
    """
    if sweep not in ("joint", "split"):
        raise ValueError(f"unknown sweep {sweep!r}")
    n = pair.tau1.order if order is None else int(order)
    if n > pair.tau1.order:
        raise ValueError("requested order exceeds the pair's truncation order")
    tau1 = MapJet(pair.tau1.x.truncate(n), pair.tau1.y.truncate(n))
    tau2 = MapJet(pair.tau2.x.truncate(n), pair.tau2.y.truncate(n))
    mu = pair.lambda1 / pair.lambda2
    check_nonresonant(mu, n)

    phi_cur = map_compose(tau1, tau2)
    lin = phi_cur.linear_part()
    if max(abs(lin[0, 1]), abs(lin[1, 0]), abs(lin[0, 0] - mu), abs(lin[1, 1] - 1.0 / mu)) > 1e-9 * max(
        1.0, phi_cur.max_abs()
    ):
        raise ValueError("tau1 . tau2 does not have the diagonal linear part (mu, 1/mu)")

    ident = MapJet.identity(n)
    phi_total = ident
    mu_pows = {k: mu**k for k in range(-n - 1, n + 2)}

    for d in range(2, n + 1):
        passes = ("xy",) if sweep == "joint" else ("x", "y")
        for which in passes:
            u1 = np.zeros_like(phi_cur.x.coeffs)
            u2 = np.zeros_like(u1)
            any_nonzero = False
            for i in range(d + 1):
                j = d - i
                if "x" in which or which == "xy":
                    if i == j + 1:
                        u1[i, j] = -phi_total.x.coeffs[i, j]
                    else:
                        u1[i, j] = -phi_cur.x.coeffs[i, j] / (mu_pows[i - j] - mu)
                    any_nonzero = any_nonzero or u1[i, j] != 0
                if "y" in which or which == "xy":
                    if j == i + 1:
                        u2[i, j] = -phi_total.y.coeffs[i, j]
                    else:
                        u2[i, j] = -phi_cur.y.coeffs[i, j] / (mu_pows[i - j] - 1.0 / mu)
                    any_nonzero = any_nonzero or u2[i, j] != 0
            if not any_nonzero:
                continue
            psi = MapJet(ident.x + Jet(u1, n), ident.y + Jet(u2, n))
            phi_cur = map_compose(map_compose(psi, phi_cur), map_inverse(psi))
            phi_total = map_compose(psi, phi_total)

    m_series = diagonal_series(phi_cur.x, "xi")
    m_inv = diagonal_series(phi_cur.y, "eta")
    residual = max(
        off_diagonal_residual(phi_cur.x, "xi"),
        off_diagonal_residual(phi_cur.y, "eta"),
        float(np.abs(series_mul(m_series, m_inv) - _one_series(len(m_series))).max()),
    )

    phi_total_inv = map_inverse(phi_total)
    lambdas = []
    for tau in (tau1, tau2):
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

    if residual > 1e-6 * max(1.0, phi_cur.max_abs()):
        raise ValueError(f"normalization failed: off-form residual {residual:.3e}")
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
    sweep: str = "joint",
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
    reality : {"standard", "surface", "none"}
        "standard" demands the reality condition rho phi = phi rho for
        rho(xi, eta) = (etabar, xibar) and checks that the conjugator
        inherits it.  "surface" and "none" skip that (the surface pair
        satisfies a twisted condition instead) and instead verify post hoc
        that the head of Gamma through order s came out real, which is
        what the type extraction relies on; coefficients beyond the head
        may acquire imaginary parts and are returned as computed.
    """
    n = phi.order if order is None else int(order)
    if order is not None and n != phi.order:
        phi = MapJet(phi.x.truncate(n), phi.y.truncate(n))
    if tau is None:
        tau = MapJet.swap(n)
    elif tau.order != n:
        tau = MapJet(tau.x.truncate(n), tau.y.truncate(n))
    scale = max(1.0, phi.max_abs(), tau.max_abs())

    res_tau = involution_residual(tau)
    if res_tau > INVOLUTION_TOL * scale:
        raise ValueError(f"tau is not an involution: residual {res_tau:.3e}")
    # (tau phi)^2 = id is exactly reversibility phi^{-1} = tau phi tau.
    tau2 = map_compose(tau, phi)
    res_rev = involution_residual(tau2)
    if res_rev > CONJUGATION_TOL * scale:
        raise ValueError(f"phi is not tau-reversible: residual {res_rev:.3e}")
    if reality == "standard":
        defect = reality_defect(phi, "standard")
        if defect > INVOLUTION_TOL * scale:
            raise ValueError(f"standard reality condition fails: defect {defect:.3e}")
    elif reality not in ("surface", "none"):
        raise ValueError(f"unknown reality mode {reality!r}")

    lam_phi = phi.x.coeff(1, 0)
    if abs(abs(lam_phi) - 1.0) > 1e-9:
        raise ValueError(f"|lambda| = {abs(lam_phi)} off the unit circle")
    if lam_phi.imag <= 0:
        raise ValueError("normalization requires Im lambda > 0")
    check_nonresonant(lam_phi, n)

    # Standardize the reversing involution, then normalize the pair.
    change, change_inv, tau_std = linearize_involution(tau)
    phi_std = map_compose(map_compose(change, phi), change_inv)
    pair = InvolutionPair.from_maps(tau_std, map_compose(tau_std, phi_std))
    mw = mw_normalize(pair, n, sweep=sweep)

    # Phi1 straightens tau to the exact swap: (Lambda1^{-1/2} xi, Lambda1^{1/2} eta).
    a_inv_half = series_pow(mw.Lambda1, -0.5)
    phi1 = radial_map(a_inv_half, n)

    gamma = gamma_from_M(mw.M)
    eps, s = extract_eps_s(gamma)
    if reality in ("surface", "none"):
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

    conjugator = map_compose(phi2, map_compose(phi1, map_compose(mw.Phi0, change)))
    lam = mw.M[0]
    target = normal_form_map(lam, eps, s, n)
    conjugator_inv = map_inverse(conjugator)
    achieved = map_compose(map_compose(conjugator, phi), conjugator_inv)
    residual = map_residual(achieved, target)
    tau_residual = map_residual(
        map_compose(map_compose(conjugator, tau), conjugator_inv), MapJet.swap(n)
    )
    residual = max(residual, tau_residual)
    if reality == "standard":
        residual = max(residual, reality_defect(conjugator, "standard"))
    if residual > 1e-6 * scale:
        raise ValueError(f"normal-form residual {residual:.3e} out of tolerance")

    return NormalFormResult(
        Phi=conjugator,
        lam=lam,
        eps=eps,
        s=s,
        M=mw.M,
        Lambda1=mw.Lambda1,
        Lambda2=mw.Lambda2,
        Gamma=gamma,
        residual=residual,
    )
