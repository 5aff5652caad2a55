"""Normal forms for reversible elliptic-type plane maps.

The pipeline: bring the reversing involution to the exact swap S, solve
Phi0 . phi = F . Phi0 for the unique normalized Phi0 and the product form
F = (M(xi eta) xi, M^{-1} eta), read off Gamma = -i log M, and extract the
invariants (lambda, eps, s).  Phi0 commutes with S (and, under the
standard reality condition, has real coefficients), so only its xi half
is solved: Phi0.y is its transpose and F's second series is 1/M
(`_solve_conjugacy` derives both).  Conjugation convention throughout:
Phi carries the map phi to Phi . phi . Phi^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import (
    Jet,
    MapJet,
    _check_order,
    _compose,
    _compose_product_form,
    _powers,
    _product_half,
    _triangle_mask,
    diagonal_series,
    jet_mul,
    map_compose,
    map_inverse,
    map_residual,
    off_diagonal_residual,
    reality_defect,
    series_exp,
    series_log,
    series_mul,
    series_pow,
    series_reciprocal,
)

INVOLUTION_TOL = 1e-10
UNIT_CIRCLE_TOL = 1e-10
CONJUGATION_TOL = 1e-9
RESONANCE_TOL = 1e-8

S_INFINITY = math.inf


class ResonanceError(ValueError):
    """Raised when the multiplier is within tolerance of a root of unity."""

    def __init__(self, k: int, value: float):
        self.k = k
        self.value = value
        super().__init__(f"|lambda^{k} - 1| = {value:.3e} < {RESONANCE_TOL}: (near-)resonance")


def involution_residual(m: MapJet) -> float:
    return map_residual(map_compose(m, m), MapJet.identity(m.order))


def _check_involution(tau: MapJet) -> complex:
    """Check that tau is an involution with linear part (lambda eta, conj(lambda) xi)
    and |lambda| = 1; return lambda."""
    tol = INVOLUTION_TOL * max(1.0, tau.max_abs())
    res = involution_residual(tau)
    if res > tol:
        raise ValueError(f"not an involution through order {tau.order}: residual {res:.3e}")
    lam = tau.x.coeff(0, 1)
    if abs(abs(lam) - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"|lambda| = {abs(lam)} off the unit circle")
    lin = tau.linear_part()
    defect = max(abs(lin[0, 0]), abs(lin[1, 1]), abs(lin[1, 0] - np.conj(lam)))
    if defect > tol:
        raise ValueError(f"linear part not of anti-diagonal involution form: {defect:.3e}")
    return lam


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
        return InvolutionPair(tau1, tau2, _check_involution(tau1), _check_involution(tau2))


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
    """Invariants {lambda, eps, s}, the conjugator Phi, M and Gamma = -i log M.

    (eps, s) = (0, S_INFINITY) means Gamma is constant through the
    truncation order N, not that the map has no twist: a twist of order s
    shows only from N = 2s + 1 on (the model map with eps = 1, s = 2 at
    N = 4 gives (0, S_INFINITY)).
    """

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


def linearize_involution(tau: MapJet) -> tuple[MapJet, MapJet]:
    """Return (change, change_inv) with change . tau = (eta, xi) . change.

    The change is the half-power scaling average
    xi' = lambda0^{-1/2} (xi + lambda0 * (eta . tau)) / 2,
    eta' = lambda0^{1/2} (eta + lambda0bar * (xi . tau)) / 2,
    which sends tau to the exact swap S and preserves the standard reality
    condition whenever tau satisfies it.  For |lambda0| = 1, componentwise,
    change . tau - S . change = (lambda0^{1/2} ((tau . tau).y - eta),
    lambda0^{-1/2} ((tau . tau).x - xi)) / 2, and |lambda0| = 1 + delta adds
    about delta max(1, |tau|); past `_check_involution` the defect is so at
    most about 1.5e-10 max(1, |tau|) plus rounding, and is not checked.
    """
    n = tau.order
    lam0 = _check_involution(tau)
    half = np.exp(0.5j * np.angle(lam0))
    change = MapJet((Jet.coordinate("xi", n) + lam0 * tau.y) * (0.5 / half),
                    (Jet.coordinate("eta", n) + np.conj(lam0) * tau.x) * (0.5 * half))
    return change, map_inverse(change)


def _solve_conjugacy(
    phi: MapJet, mu: complex, *, reality: str | None = None
) -> tuple[MapJet, np.ndarray, np.ndarray, float]:
    """Solve Phi0 . phi = F . Phi0 for the normalized Phi0 and F = (xi M, eta M').

    phi has the linear part (mu, 1/mu).  With Phi0 and F known through
    degree d - 1, the degree-d part of err = Phi0 . phi - F . Phi0 is
    cancelled: off the resonant entries ((i+1,i) in xi, (i,i+1) in eta) by
    Phi0's coefficient -err / (mu^{i-j} - mu) (1/mu in eta), on them by M
    or M', while Phi0 stays zero there, which is the normalization that
    makes the conjugator unique.  Returns (Phi0, M, M', defect), the defect
    being the worst of err after phi's truncation order N and of M M' - 1.

    Step d then recomputes err, which the next step reads at degree d + 1
    alone, so it composes at order m = min(d + 1, N): the degree-m part of
    a composition needs only the degree-m parts of its factors.  The last
    step composes at order N, so the defect is read in full.  Phi0 . phi
    reads the corner of phi.y's power table (built once at order N, since
    phi is the inner map of every step) that the degree-d Phi0 and order m
    need; F . Phi0 is one `_product_half` per component over t = XY.

    With ``reality`` None both halves are solved.  Given a reality mode,
    phi must be reversible by the swap S, S phi S = phi^{-1}, and only the
    xi half is solved, inside the conjugator's symmetry class:

    - Phi0.y = Phi0.x^T.  (S Phi0 S, S F^{-1} S) solves the equation again,
      S F^{-1} S is a product form and S Phi0 S is normalized, so by
      uniqueness S Phi0 S = Phi0 and S F S = F^{-1}.  The degree-d xi
      equation fixes Phi0.x's degree-d entries and M's coefficient from
      lower degrees alone (Phi0.y's degree-d entries reach the xi half of
      F . Phi0 only from degree d + 2), so the xi recursion with Phi0.y set
      to its transpose gives the unique solution, and the eta half holds.
    - M' = 1/M.  S F S = (xi M', eta M) = F^{-1}, and F . F^{-1} = id reads
      M(t P) M'(t) = 1 and M'(t P) M(t) = 1 for P = M M', whose product is
      P(t P) = 1/P.  P(0) = mu/mu = 1; were P = 1 + c t^k + ..., c != 0,
      its lowest term would read c = -c, so P = 1 and M' is M's reciprocal.
    - In "standard" mode Phi0.x is real.  For rho(xi, eta) = (etabar,
      xibar), rho phi rho = phi, and rho Phi0 rho is a normalized solution
      with the product form (xi conj(M'), eta conj(M)), so rho Phi0 rho =
      Phi0: Phi0.x = conj(Phi0.y)^T = conj(Phi0.x).  Each degree-d step
      therefore keeps only the real part of -err/divisor; "surface" mode
      has no such rho and keeps the complex step.

    The small divisors amplify the rounding of a float64 input most in the
    directions this class excludes (Phi0.x - Phi0.y^T, Im Phi0.x), so the
    class is also what keeps high orders within the gates.  The defect is
    then the xi half's, and M M' - 1 is zero to rounding.
    """
    n = phi.order
    # pows[n + k] = mu^k for k = -N..N+1: the degree-N elimination divides
    # by mu^k - 1 with k up to N+1, which must stay clear of zero.
    pows = np.array([mu**k for k in range(-n, n + 2)])
    for k, gap in enumerate(np.abs(pows[n + 1 :] - 1.0), start=1):
        if gap < RESONANCE_TOL:
            raise ResonanceError(k, float(gap))
    lin = phi.linear_part()
    off = max(abs(lin[0, 1]), abs(lin[1, 0]), abs(lin[0, 0] - mu), abs(lin[1, 1] - 1.0 / mu))
    if off > 1e-9 * max(1.0, phi.max_abs()):
        raise ValueError("phi does not have the diagonal linear part (mu, 1/mu)")

    # Per component (xi, eta): its resonant entries and the divisors of the
    # others, with a unit divisor at the resonant entries so nothing divides by zero.
    i, j = np.indices((n + 1, n + 1))
    resonant = np.array([i == j + 1, j == i + 1])
    divisors = np.where(resonant, 1.0, pows[n + i - j] - np.array([mu, 1.0 / mu])[:, None, None])
    ypow = _powers(phi.y, n)

    # Phi0 starts at the identity and M, M' at phi's own diagonal, so err
    # = phi - F vanishes through degree 1 up to phi's off-diagonal linear entries.
    phi0 = np.array([Jet.coordinate("xi", n).coeffs, Jet.coordinate("eta", n).coeffs])
    m_series = np.zeros((2, (n + 1) // 2), dtype=complex)
    m_series[:, 0] = lin[0, 0], lin[1, 1]
    err = np.array([phi.x.coeffs, phi.y.coeffs])
    err[(0, 1), (1, 0), (0, 1)] -= np.diag(lin)
    # The halves solved: both, or xi alone, whose eta twin is its transpose.
    halves = 2 if reality is None else 1
    half = np.arange(halves)
    err = err[:halves]
    for d in range(2, n + 1):
        rows, cols = np.arange(d + 1), np.arange(d, -1, -1)  # the degree-d entries
        deg = (slice(halves), rows, cols)
        e = err[deg]
        step = np.where(resonant[deg], 0.0, -e / divisors[deg])
        phi0[deg] = step.real if reality == "standard" else step
        if halves == 1:
            phi0[1, cols, rows] = phi0[0, rows, cols]
        if d % 2:  # the resonant entry (k+1, k) in xi, (k, k+1) in eta
            m_series[half, d // 2] = e[half, d // 2 + 1 - half]
        m = min(d + 1, n)
        conj = MapJet(*(Jet(c[: m + 1, : m + 1].copy(), m) for c in phi0))
        x = phi.x.truncate(m)
        pw = np.where(_triangle_mask(m), ypow[: d + 1, : m + 1, : m + 1], 0.0)
        t = jet_mul(conj.x, conj.y)
        err = np.array([_compose(c, x, pw).coeffs - _product_half(ms, c, t).coeffs
                        for c, ms in zip((conj.x, conj.y)[:halves], m_series)])

    if halves == 1:
        m_series[1] = series_reciprocal(m_series[0])
    defect = max(float(np.abs(err).max()), _unit_defect(*m_series))
    return MapJet(Jet(phi0[0], n), Jet(phi0[1], n)), m_series[0], m_series[1], defect


def _check_off_form(residual: float, m_series, m_inv) -> None:
    if residual > 1e-6 * max(1.0, float(np.abs(m_series).max()), float(np.abs(m_inv).max())):
        raise ValueError(f"normalization failed: off-form residual {residual:.3e}")


def mw_normalize(pair: InvolutionPair) -> MWResult:
    """Unique normalized conjugation of the pair to the product normal form.

    Solves the conjugacy equation for phi = tau1 . tau2, then reads each
    involution's radial factor Lambda_j from Phi0 . tau_j . Phi0^{-1}.
    """
    mu = pair.lambda1 / pair.lambda2
    phi_total, m_series, m_inv, residual = _solve_conjugacy(map_compose(pair.tau1, pair.tau2), mu)

    phi_total_inv = map_inverse(phi_total)
    lambdas = []
    for tau in (pair.tau1, pair.tau2):
        tt = map_compose(map_compose(phi_total, tau), phi_total_inv)
        lambdas.append(diagonal_series(tt.x, "eta"))
        residual = max(
            residual,
            off_diagonal_residual(tt.x, "eta"),
            off_diagonal_residual(tt.y, "xi"),
            _unit_defect(lambdas[-1], diagonal_series(tt.y, "xi")),
        )
    # Consistency M = Lambda1 * Lambda2^{-1}.
    recomposed = series_mul(lambdas[0], series_reciprocal(lambdas[1]))
    residual = max(residual, float(np.abs(recomposed - m_series).max()))

    _check_off_form(residual, m_series, m_inv)
    return MWResult(phi_total, m_series, lambdas[0], lambdas[1], mu, residual)


def _unit_defect(a, b) -> float:
    """Max coefficient modulus of a b - 1 for two radial series."""
    p = series_mul(a, b)
    p[0] -= 1.0
    return float(np.abs(p).max())


def gamma_from_M(m_series) -> np.ndarray:
    """Gamma with e^{i Gamma} = M, Gamma(0) the principal argument of M(0)."""
    m = np.asarray(m_series, dtype=complex)
    if abs(abs(m[0]) - 1.0) > UNIT_CIRCLE_TOL:
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


def _phi2_series(gamma, eps: int, s: int) -> np.ndarray:
    """The series r of the radial rescaling Phi2 = (xi r(xi eta), eta r(xi eta))
    that flattens Gamma to Gamma(0) + eps t^s, for eps = +-1."""
    g = np.asarray(gamma, dtype=complex)
    shifted = g[s:] / eps
    if shifted[0].real <= 0:
        raise ValueError("Gamma's leading non-constant coefficient does not match eps at order s")
    return series_pow(shifted, 1.0 / (2 * s))


def _model_series(lam: complex, eps: int, s: int | float, order: int):
    """The series (M, M') of the model map's product form."""
    # Radial: g = i eps t^s in t = xi eta, zero for eps = 0 or s beyond order.
    g = np.zeros(order // 2 + 1, dtype=complex)
    if eps and s < len(g):
        g[int(s)] = 1j * eps
    return lam * series_exp(g), (1.0 / lam) * series_exp(-g)


def normal_form_map(lam: complex, eps: int, s: int | float, order: int) -> MapJet:
    """The model map (lambda xi e^{i eps (xi eta)^s}, lambda^{-1} eta e^{-i eps (xi eta)^s})."""
    order = _check_order(order)
    return _compose_product_form(*_model_series(lam, eps, s, order), MapJet.identity(order))


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

    tau is brought to the swap S (``linearize_involution``), and phi is
    checked S-reversible where the solve needs it, on inner = change . phi .
    change^{-1}, as (S inner)^2 = id to 1e-9 of the inputs' scale ("phi is
    not tau-reversible").  Phi0 is solved in its symmetry class: its xi half
    alone, Phi0.y its transpose, real in "standard" mode, and M' = 1/M (see
    ``_solve_conjugacy``).  The inner gate holds the xi half's conjugacy
    defect to 1e-6 of F's scale ("normalization failed").  The result is
    accepted only if conjugator . phi = target . conjugator and conjugator .
    tau = swap . conjugator hold through degree N (and, in "standard" mode,
    the conjugator is real) to 1e-6 of the inputs' scale; ``residual`` is
    the worst of these defects.  (eps, s) = (0, S_INFINITY) means Gamma is
    constant through order N (see ``NormalFormResult``).
    Phi2 and the target are composed from their series by the product-form kernel.
    """
    if reality not in ("standard", "surface"):
        raise ValueError(f"unknown reality mode {reality!r}")
    n = phi.order if order is None else _check_order(order)
    if n > phi.order or (tau is not None and n > tau.order):
        raise ValueError(f"order {n} exceeds the truncation order of phi or tau")
    phi = phi.truncate(n)
    tau = MapJet.swap(n) if tau is None else tau.truncate(n)
    scale = max(1.0, phi.max_abs(), tau.max_abs())

    change, change_inv = linearize_involution(tau)
    inner = map_compose(map_compose(change, phi), change_inv)
    res_rev = involution_residual(MapJet(inner.y, inner.x))
    if res_rev > CONJUGATION_TOL * scale:
        raise ValueError(f"phi is not tau-reversible: residual {res_rev:.3e}")
    if reality == "standard":
        defect = reality_defect(phi, "standard")
        if defect > INVOLUTION_TOL * scale:
            raise ValueError(f"standard reality condition fails: defect {defect:.3e}")

    lam_phi = phi.x.coeff(1, 0)
    if abs(abs(lam_phi) - 1.0) > UNIT_CIRCLE_TOL:
        raise ValueError(f"|lambda| = {abs(lam_phi)} off the unit circle")
    if lam_phi.imag <= 0:
        raise ValueError("normalization requires Im lambda > 0")

    phi0, m_series, m_inv, defect = _solve_conjugacy(inner, lam_phi, reality=reality)
    _check_off_form(defect, m_series, m_inv)

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
    r = _phi2_series(gamma, eps, s) if eps else np.ones(1)  # Phi2 = identity at eps = 0
    conjugator = _compose_product_form(r, r, map_compose(phi0, change))
    lam = m_series[0]
    target = _compose_product_form(*_model_series(lam, eps, s, n), conjugator)  # target . conjugator
    residual = max(
        map_residual(map_compose(conjugator, phi), target),
        map_residual(map_compose(conjugator, tau), MapJet(conjugator.y, conjugator.x)),
    )
    if reality == "standard":
        residual = max(residual, reality_defect(conjugator, "standard"))
    if residual > 1e-6 * scale:
        raise ValueError(f"normal-form residual {residual:.3e} out of tolerance")

    return NormalFormResult(conjugator, lam, eps, s, m_series, gamma, residual)
