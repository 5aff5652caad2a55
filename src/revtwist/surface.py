"""Involution pairs of complex tangents and their periodic curves.

Hyperbolic Bishop-invariant arithmetic, the numeric involution triple
tau1 = phi_a T1 phi_a^{-1} and tau2 built from a second coefficient
family abar (defaulting to the conjugated family, which makes
tau2 = rho tau1 rho for plain coordinate conjugation rho), periodic
curves of phi = tau1 tau2, the search for intersections with the totally
real space, and the second-order w^{2n} probes that feed the obstruction
product.  The two families are independent arguments throughout: the
self-conjugate default describes an actual surface, while an independent
abar probes the full two-variable obstruction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .families import CoefficientFamily
from .series import (
    DEFAULT_ORDER,
    Jet,
    MapJet,
    jet_exp_i,
    jet_mul,
    map_compose,
    map_inverse,
    radial_to_jet,
    rho_conjugate,
    series_exp,
    series_reciprocal,
)
from .twist import (
    HypothesisViolation,
    PeriodicCurve,
    SolverError,
    TwistParams,
    _beta_window,
    _phase_conjugate,
    curve_band,
    periodic_curve,
)

EXCEPTIONAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# Bishop invariant arithmetic


@dataclass(frozen=True)
class BishopData:
    """Multiplier data of a hyperbolic complex tangent.

    ``exceptional`` is a certificate only up to ``scan_bound``: the scan is
    finite, so False means no root of unity of order <= scan_bound.
    """

    gamma: float
    lam: complex
    exceptional: bool
    root_order: int | None
    scan_bound: int


def is_exceptional(lam: complex, max_order: int = 64) -> tuple[bool, int | None]:
    """First k <= max_order with lam^k = 1, if any."""
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    if not abs(abs(lam) - 1.0) <= 1e-8:
        raise ValueError(f"|lambda| = {abs(lam)} is off the unit circle")
    power = 1.0 + 0.0j
    for k in range(1, max_order + 1):
        power *= lam
        if abs(power - 1.0) < EXCEPTIONAL_TOL:
            return True, k
    return False, None


def lambda_from_gamma(gamma: float, max_order: int = 64) -> BishopData:
    """Unit-circle multiplier of the hyperbolic tangent with invariant gamma.

    Solves gamma lam^2 - lam + gamma = 0 for the root with positive
    imaginary part; gamma > 1/2 makes the pair complex conjugate and of
    modulus exactly one.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not gamma > 0.5:
        raise ValueError("only hyperbolic tangents (gamma > 1/2) are supported")
    lam = (1.0 + 1j * math.sqrt(4.0 * gamma * gamma - 1.0)) / (2.0 * gamma)
    flag, k = is_exceptional(lam, max_order)
    return BishopData(gamma=gamma, lam=lam, exceptional=flag, root_order=k,
                      scan_bound=max_order)


# ---------------------------------------------------------------------------
# The involution triple


def build_involution_maps(a: CoefficientFamily, tp: TwistParams,
                          abar: CoefficientFamily | None = None):
    """Numeric evaluators (tau1, tau2, phi) with phi = tau1 . tau2.

    tau1 conjugates the half-angle swap T1 by phi_a.  tau2 conjugates the
    opposite swap T2 by the companion change of variables built from abar;
    the two coefficient families are independent arguments.  Passing
    abar=None uses the conjugated family, the self-conjugate case where
    tau2 = rho tau1 rho and the reality condition rho tau1 = tau2 rho holds
    exactly; that case is realized by conjugating the point before and
    after tau1.
    """

    def t1(xi, eta):
        ph = np.exp(0.5j * tp.omega(xi * eta))
        return ph * eta, xi / ph

    tau1 = _phase_conjugate(a, t1, a, "tau1")
    if abar is None:

        def tau2(xi, eta):
            x, y = tau1(np.conj(xi), np.conj(eta))
            return np.conj(x), np.conj(y)

    else:
        # psi = rho phi_a rho with abar in place of the conjugated family;
        # it multiplies xi by exp(-i abar) and eta by exp(+i abar), which
        # is phi_b for b = -abar.
        b = abar.scaled(-1.0)

        def t2(xi, eta):
            ph = np.exp(0.5j * tp.omega(xi * eta))
            return eta / ph, ph * xi

        tau2 = _phase_conjugate(b, t2, b, "tau2")

    def phi(xi, eta):
        return tau1(*tau2(xi, eta))

    return tau1, tau2, phi


def involution_jets(a: CoefficientFamily, tp: TwistParams,
                    order: int = DEFAULT_ORDER,
                    abar: CoefficientFamily | None = None):
    """Truncated series (tau1, tau2, phi) of the same triple.

    Matches build_involution_maps through the jet order; feeds the normal
    form pipeline, which expects maps as power series.
    """
    xi = Jet.coordinate("xi", order)
    eta = Jet.coordinate("eta", order)

    def conjugate(f: CoefficientFamily, model: MapJet) -> MapJet:
        # phi_f . model . phi_f^{-1}, phi_f = (xi e^{i f}, eta e^{-i f})
        ftilde = f.to_jet(order)
        phi_f = MapJet(jet_mul(xi, jet_exp_i(ftilde)), jet_mul(eta, jet_exp_i(-1.0 * ftilde)))
        return map_compose(phi_f, map_compose(model, map_inverse(phi_f)))

    half = np.zeros(order + 1, dtype=complex)
    half[tp.s] = 0.5j
    c = cmath.exp(0.5j * tp.alpha) * series_exp(half)
    t1 = MapJet(radial_to_jet(c, order, "eta"),
                radial_to_jet(series_reciprocal(c), order, "xi"))

    tau1 = conjugate(a, t1)
    if abar is None:
        tau2 = rho_conjugate(tau1, "surface")
    else:
        t2 = MapJet(radial_to_jet(series_reciprocal(c), order, "eta"),
                    radial_to_jet(c, order, "xi"))
        tau2 = conjugate(abar.scaled(-1.0), t2)
    phi = map_compose(tau1, tau2)
    return tau1, tau2, phi


# ---------------------------------------------------------------------------
# Periodic curves of phi = tau1 tau2


def surface_curves(a: CoefficientFamily, tp: TwistParams, n: int, j: int,
                   grid_size: int | None = None, intersect: bool = True,
                   abar: CoefficientFamily | None = None) -> PeriodicCurve:
    """Solve the branch-j period-n curve of the involution product.

    Runs the solver of `solve_branch`, its stopping rule and gates included,
    with phi = tau1 tau2 injected as the map, on grid_size points (default
    max(8n, 64)) with the Laurent band of `curve_band`; the returned Laurent
    data is the input for the real-space intersection search and the w^{2n}
    probes.  intersect=True fills in `real_intersections`.
    """
    _, _, phi = build_involution_maps(a, tp, abar=abar)
    G = max(8 * n, 64) if grid_size is None else grid_size
    crv = periodic_curve(a, tp, n, j, grid_size=G, K=curve_band(n, G), map_eval=phi)
    if intersect:
        crv = replace(crv, real_intersections=real_intersection(crv))
    return crv


def _laurent_eval(curve: PeriodicCurve):
    ks = np.array(sorted(curve.laurent))
    cs = np.array([curve.laurent[k] for k in ks])

    def at(w):
        w = np.asarray(w, dtype=complex)
        return (cs[None, :] * w[:, None] ** ks[None, :]).sum(axis=1)

    return at


def _bisect_zero(f, lo: float, hi: float, iters: int = 60) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def real_intersection(curve: PeriodicCurve, samples: int = 512):
    """Where the curve meets the totally real space xi, eta both real.

    A point (zeta w, zeta / w) is real only when zeta and w are both real
    or both pure imaginary, so the search runs along the four axis
    segments of the annulus: the defect is Im(zeta) over real w and
    Re(zeta) over imaginary w.  Sign changes are refined by bisection; a
    segment whose defect stays below 1e-9 everywhere is a continuum of
    real points and is reported as the string "continuum".
    """
    at = _laurent_eval(curve)
    vs = np.linspace(0.55, 1.8, samples)
    hits = []
    for axis in (1.0, -1.0, 1j, -1j):
        def defect(v, axis=axis):
            z = at(np.atleast_1d(axis * v))[0]
            return z.imag if axis.imag == 0 else z.real

        g = np.array([defect(v) for v in vs])
        if np.abs(g).max() < 1e-9:
            return "continuum"
        sign = np.sign(g)
        for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            v = _bisect_zero(defect, vs[k], vs[k + 1])
            hits.append(complex(axis * v))
    return tuple(hits)


# ---------------------------------------------------------------------------
# Second-order probes (the w^{2n} coefficient)


@dataclass(frozen=True)
class QZetaReport:
    """Two-phase separation of the w^{2n} quadratic response."""

    n: int
    j: int
    t: float
    a2_coeff: complex
    predicted: complex
    rel_error: float
    symmetric_coeff: complex


def _require_even_resonance(tp: TwistParams, n: int) -> float:
    """Check 4s | n, beta in (-pi, 0) and an even winding; return zeta0."""
    if n % (4 * tp.s):
        raise HypothesisViolation("the second-order display needs 4s | n")
    rd, zeta0 = _beta_window(tp, n)
    # The half-angle phase over one period is g*pi; the w^{2n} display
    # needs it to be a full turn, so the winding g must be even.
    if rd.g % 2:
        raise HypothesisViolation(
            f"resonance n = {n} has odd winding g = {rd.g}; the half-angle "
            "identity needs an even winding")
    return zeta0


def _quad_coeff(a: CoefficientFamily, tp: TwistParams, n: int, j: int,
                t: float) -> complex:
    """Richardson-extrapolated w^{2n} coefficient of zeta(t a) / t^2."""
    vals = []
    for tt in (t, 0.5 * t):
        crv = surface_curves(a.scaled(tt), tp, n, j, intersect=False)
        vals.append(crv.laurent[2 * n] / tt**2)
    return 2.0 * vals[1] - vals[0]


def _branch_scale(tp: TwistParams, zeta0: float, n: int, j: int) -> complex:
    """Reference w^{2n} coefficient i n zeta_j(0)^{2n-2s+1} / s."""
    s = tp.s
    zj = zeta0 * cmath.exp(1j * j * math.pi / s)
    return 1j * n * zj ** (2 * n - 2 * s + 1) / s


def _two_phase_a2(x: float, tp: TwistParams, zeta0: float, n: int, j: int,
                  t: float) -> tuple[complex, complex]:
    """Separate the a^2 part of the w^{2n} response from the symmetric rest.

    Probes the single-mode family at phases e^{+i pi/4} and e^{-i pi/4} of
    equal modulus x: the a^2 part flips sign between the probes while the
    symmetric quadratic remainder takes the same value, so the half
    difference isolates the a^2 coefficient exactly through second order.
    Raises SolverError before probing when the expected w^{2n} signal of
    the smaller probe, |reference| x^2 (t/2)^2, is within three decades of
    the rounding floor eps zeta0 of the sampled curve: the result would be
    noise.
    """
    signal = abs(_branch_scale(tp, zeta0, n, j)) * x * x * (0.5 * t) ** 2
    floor = 1e3 * np.finfo(float).eps * zeta0
    if signal < floor:
        raise SolverError(
            f"w^{2 * n} probe signal {signal:.3e} at t = {t:g} is below 1e3 eps zeta0 = "
            f"{floor:.3e}: raise t or the amplitude")
    probes = {}
    for sgn in (1.0, -1.0):
        fam = CoefficientFamily({(n, 0): x * cmath.exp(sgn * 0.25j * math.pi)},
                                tp.s, False, _validate=False)
        probes[sgn] = _quad_coeff(fam, tp, n, j, t)
    a2 = (probes[1.0] - probes[-1.0]) / (2j * x * x)
    sym = (probes[1.0] + probes[-1.0]) / (2.0 * x * x)
    return a2, sym


def q_zeta_check(a_n0: complex, tp: TwistParams, n: int,
                 t: float = 1e-3) -> QZetaReport:
    """Measure the pure a_{n,0}^2 part of the w^{2n} response and compare.

    The measurement is taken on the branch j = 2s with probe size t.  The
    reference value is i n zeta_j(0)^{2n-2s+1} / s; rel_error is the
    relative gap between the two-phase measurement and that value.  Raises
    SolverError when t |a_n0| is too small for the probe to rise above
    rounding.
    """
    zeta0 = _require_even_resonance(tp, n)
    j = 2 * tp.s
    predicted = _branch_scale(tp, zeta0, n, j)
    x = abs(a_n0)
    if x == 0.0:
        return QZetaReport(n=n, j=j, t=t, a2_coeff=0.0, predicted=predicted,
                           rel_error=1.0, symmetric_coeff=0.0)
    a2, sym = _two_phase_a2(x, tp, zeta0, n, j, t)
    rel = abs(a2 - predicted) / abs(predicted)
    return QZetaReport(n=n, j=j, t=t, a2_coeff=a2, predicted=predicted,
                       rel_error=rel, symmetric_coeff=sym)


def Hn_obstruction(a: CoefficientFamily, tp: TwistParams, n: int,
                   t: float = 1e-3, include_remainder: bool = False,
                   abar: CoefficientFamily | None = None) -> float:
    """Estimate the isolation obstruction, a product over the 2s branches.

    The default estimator takes the leading part of each branch factor:
    twice the real part of a_{n,0}^2 times the measured a^2 response of
    the branch (normalized by its reference value), so a single-mode
    family gives the product of a_{n,0}^2 + conj(a_{n,0})^2 per branch up
    to relative O(t) probe error.

    include_remainder=True instead measures the full form at the family's
    own amplitude: twice the real part of the normalized w^{2n}
    coefficient of each branch curve, which includes every symmetric
    remainder term.  The reference value is pure imaginary on the branches
    used here, so the full factor is proportional to the reality defect
    Im c_{2n} of the curve.  At the self-conjugate pair (abar=None) the
    reversor forces the curve to be real over real w, a continuum of real
    points, and the full product vanishes identically for every a; it is
    nonzero only for an independent abar, the regime where isolated
    intersections exist.  The probe size t applies to the default
    estimator only, which raises SolverError when t |a_{n,0}| is too small
    for the probe to rise above rounding.
    """
    s = tp.s
    zeta0 = _require_even_resonance(tp, n)
    an0 = a.entries.get((n, 0), 0.0 + 0.0j)
    if an0 == 0 and not include_remainder:
        return 0.0
    prod = 1.0
    for j in range(1, 2 * s + 1):
        scale = _branch_scale(tp, zeta0, n, j)
        if include_remainder:
            crv = surface_curves(a, tp, n, j, intersect=False, abar=abar)
            factor = 2.0 * (crv.laurent[2 * n] / scale).real
        else:
            a2, _ = _two_phase_a2(abs(an0), tp, zeta0, n, j, t)
            factor = 2.0 * (an0 * an0 * a2 / scale).real
        prod *= factor
    return prod
