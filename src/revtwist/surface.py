"""Involution pairs of complex tangents and their periodic curves.

Hyperbolic Bishop-invariant arithmetic, the numeric involution triple
tau1 = phi_a T1 phi_a^{-1} and tau2 built from a second coefficient
family abar (defaulting to the conjugated family, which makes
tau2 = rho tau1 rho to rounding, rho the coordinate conjugation),
periodic curves of phi = tau1 tau2, the search for intersections with
the totally real space, and the second-order w^{2n} probes that feed the
obstruction product.  The two families are independent arguments
wherever tau2 is built: the self-conjugate default describes an actual
surface, while an independent abar probes the full two-variable obstruction.
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
    _check_int,
    _compose_product_form,
    jet_exp_i,
    jet_mul,
    map_compose,
    map_inverse,
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
    _default_grid,
    _one_step,
    _phase_factor,
    _solve_branch,
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
    max_order = _check_int(max_order, "max_order")
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
    modulus exactly one.  The root is written 1/(2 gamma) +
    i sqrt(1 - 1/(4 gamma^2)), which does not overflow for large gamma.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not gamma > 0.5:
        raise ValueError("only hyperbolic tangents (gamma > 1/2) are supported")
    lam = complex(0.5 / gamma, math.sqrt(1.0 - 0.25 / (gamma * gamma)))
    flag, k = is_exceptional(lam, max_order)
    return BishopData(gamma=gamma, lam=lam, exceptional=flag, root_order=k,
                      scan_bound=max_order)


# ---------------------------------------------------------------------------
# The involution triple


def _involution_orbits(a: CoefficientFamily, tp: TwistParams,
                       abar: CoefficientFamily | None = None):
    """tau1, tau2 and phi = tau1 . tau2 in the orbit kernel's step contract.

    On the level set xi*eta = t, each tau's orbit(t) fixes its half turn
    e^{+-i omega(t)/2} and the bands of its family (a for tau1, b = -abar
    for tau2) and returns one `_phase_factor` with a half-turn swap, whose
    phase c + f is counted from the coordinate it swaps in.  phi's swaps
    flip the sign of what tau2 added: xi' = xi e^{i (omega + (f_a + c_1)
    - (f_b + c_2))}, so phi's phase is (f_a + c_1) - (f_b + c_2).
    """
    b = (a.conjugated() if abar is None else abar).scaled(-1.0)

    def tau(fam: CoefficientFamily, half: complex, what: str):
        def orbit(t):
            bands = fam._bands(t)
            return _phase_factor(bands, bands, np.exp(half * tp.omega(t)), True, what)

        return orbit

    tau1, tau2 = tau(a, 0.5j, "tau1"), tau(b, -0.5j, "tau2")

    def phi(t):
        step1, step2 = tau1(t), tau2(t)

        def step(x, y):
            x, y, p2 = step2(x, y)
            x, y, p1 = step1(x, y)
            return x, y, p1 - p2

        return step

    return tau1, tau2, phi


def build_involution_maps(a: CoefficientFamily, tp: TwistParams,
                          abar: CoefficientFamily | None = None):
    """Numeric evaluators (tau1, tau2, phi) with phi = tau1 . tau2.

    tau1 conjugates the half-angle swap T1 by phi_a.  tau2 conjugates the
    opposite swap T2 by phi_b, b = -abar: rho phi_a rho with abar in place
    of the conjugated family, rho the coordinate conjugation.  The two
    coefficient families are independent arguments; abar=None takes
    a.conjugated(), the self-conjugate case where tau2 = rho tau1 rho and
    the reality condition rho tau1 = tau2 rho hold to rounding.  Each is
    one step of the maps that the orbit kernel iterates, with the same
    factor code (`_involution_orbits`).
    """
    tau1, tau2, _ = _involution_orbits(a, tp, abar)
    step2 = _one_step(tau2, "tau2")

    def phi(xi, eta):
        # tau1 at the level set of tau2's output, which tau2 has just tested.
        x, y = (np.asarray(v) for v in step2(xi, eta))
        return tau1(x * y)(x, y)[:2]

    return _one_step(tau1, "tau1"), step2, phi


def involution_jets(a: CoefficientFamily, tp: TwistParams,
                    order: int = DEFAULT_ORDER,
                    abar: CoefficientFamily | None = None):
    """Truncated series (tau1, tau2, phi) of the same triple.

    Matches build_involution_maps through the jet order; feeds the normal
    form pipeline, which expects maps as power series.  tau1 conjugates
    the half-turn swap T1 = (eta c, xi / c) by phi_a through the
    product-form kernel.  tau2 is rho tau1' rho, tau1' the same conjugate
    built from conj(abar) (tau1 itself when abar is None): rho T1 rho = T2
    and rho phi_{conj(abar)} rho = phi_{-abar}.
    """
    xi = Jet.coordinate("xi", order)
    eta = Jet.coordinate("eta", order)
    half = np.zeros(order + 1, dtype=complex)
    half[tp.s] = 0.5j
    c = cmath.exp(0.5j * tp.alpha) * series_exp(half)
    c_inv = series_reciprocal(c)

    def conjugate(f: CoefficientFamily) -> MapJet:
        # phi_f . T1 . phi_f^{-1}, phi_f = (xi e^{i f}, eta e^{-i f})
        ftilde = f.to_jet(order)
        phi_f = MapJet(jet_mul(xi, jet_exp_i(ftilde)), jet_mul(eta, jet_exp_i(-1.0 * ftilde)))
        inv = map_inverse(phi_f)
        return map_compose(phi_f, _compose_product_form(c, c_inv, MapJet(inv.y, inv.x)))

    tau1 = conjugate(a)
    tau2 = rho_conjugate(tau1 if abar is None else conjugate(abar.conjugated()), "surface")
    return tau1, tau2, map_compose(tau1, tau2)


# ---------------------------------------------------------------------------
# Periodic curves of phi = tau1 tau2


def surface_curves(a: CoefficientFamily, tp: TwistParams, n: int, j: int,
                   grid_size: int | None = None, intersect: bool = True,
                   abar: CoefficientFamily | None = None) -> PeriodicCurve:
    """Solve the branch-j period-n curve of the involution product.

    Runs the solver of `solve_branch`, its stopping rule and gates included,
    with phi = tau1 tau2 as the orbit kernel's map, on grid_size points (default
    max(8n, 64)) with the Laurent band of `curve_band`; the returned Laurent
    data is the input for the real-space intersection search and the w^{2n}
    probes.  intersect=True fills in `real_intersections`.
    """
    G = _default_grid(n) if grid_size is None else grid_size
    crv = periodic_curve(a, tp, n, j, grid_size=G, _orbit=_involution_orbits(a, tp, abar)[2])
    if intersect:
        crv = replace(crv, real_intersections=real_intersection(crv))
    return crv


def _w2n_coeffs(a: CoefficientFamily, tp: TwistParams, n: int, js: tuple,
                abar: CoefficientFamily | None = None,
                scales: tuple = (1.0,)) -> np.ndarray:
    """The w^{2n} Laurent coefficient of each branch curve in js for each
    probe family a.scaled(c), c in scales, as `surface_curves` reads it at
    its default grid G; shape (len(scales), len(js)).  abar is used as
    given.  Any branches may be asked for; `Hn_obstruction` asks for the
    s branch pairs through branches 1..s only, since branch j + s gives
    the coefficient of branch j with its sign flipped, and takes the
    product of squares of their factors, H_n >= 0.

    All len(js) x len(scales) curves are one `_solve_branch` over a flat
    axis of len(js) x len(scales) x G points, and one FFT along the grid
    axis reads them.  The probes are one family whose entries are per-point
    arrays along that axis.  The batch takes the steps of its slowest
    curve, every gate applies to every curve, and the error raised is the
    first gate that any curve reaches.
    """
    G = _default_grid(n)
    w = np.exp(2j * np.pi * np.arange(G) / G)
    probes = a.scaled(np.tile(np.repeat(np.asarray(scales, dtype=complex), G), len(js)))
    phi = _involution_orbits(probes, tp, abar)[2]
    zeta = _solve_branch(probes, tp, n, js, np.tile(w, (len(scales), 1)), phi)[0]
    return (np.fft.fft(zeta) / G)[..., 2 * n].T


def _laurent_eval(curve: PeriodicCurve):
    ks = np.array(sorted(curve.laurent))
    cs = np.array([curve.laurent[k] for k in ks])

    def at(w):
        w = np.asarray(w, dtype=complex)
        return (cs[None, :] * w[:, None] ** ks[None, :]).sum(axis=1)

    return at


def _bisect_zero(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(60):
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
    real points and is reported as the string "continuum".  Each segment
    is sampled at ``samples`` points (at least 2) by one Laurent evaluation.
    """
    samples = _check_int(samples, "samples", 2)
    at = _laurent_eval(curve)
    vs = np.linspace(0.55, 1.8, samples)
    hits = []
    for axis in (1.0, -1.0, 1j, -1j):
        def defect(v, axis=axis):
            z = at(axis * np.atleast_1d(v))
            return z.imag if axis.imag == 0 else z.real

        g = defect(vs)
        if np.abs(g).max() < 1e-9:
            return "continuum"
        sign = np.sign(g)
        for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            v = _bisect_zero(lambda x: defect(x)[0], vs[k], vs[k + 1])
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
    if _check_int(n, "n") % (4 * tp.s):
        raise HypothesisViolation("the second-order display needs 4s | n")
    rd, zeta0 = _beta_window(tp, n)
    # The half-angle phase over one period is g*pi; the w^{2n} display
    # needs it to be a full turn, so the winding g must be even.
    if rd.g % 2:
        raise HypothesisViolation(
            f"resonance n = {n} has odd winding g = {rd.g}; the half-angle "
            "identity needs an even winding")
    return zeta0


def _branch_scale(tp: TwistParams, zeta0: float, n: int, j: int) -> complex:
    """Reference w^{2n} coefficient i n zeta_j(0)^{2n-2s+1} / s."""
    s = tp.s
    zj = zeta0 * cmath.exp(1j * j * math.pi / s)
    return 1j * n * zj ** (2 * n - 2 * s + 1) / s


def _two_phase_a2(x: float, tp: TwistParams, zeta0: float, n: int, js: tuple,
                  t: float) -> tuple[list[complex], list[complex]]:
    """Separate the a^2 part of the w^{2n} response from the symmetric rest,
    on each branch in js.

    Probes the single-mode family at phases e^{+i pi/4} and e^{-i pi/4} of
    equal modulus x: the a^2 part flips sign between the probes while the
    symmetric quadratic remainder takes the same value, so the half
    difference isolates the a^2 coefficient exactly through second order.
    Each phase is probed at sizes t and t/2 and Richardson-extrapolated.
    The four probe curves of every branch are one `_w2n_coeffs` solve: the
    slowest probe sets the steps, and the error raised is the first gate
    that any probe reaches.
    Raises SolverError before probing when the expected w^{2n} signal of
    the smaller probe, |reference| x^2 (t/2)^2, is within three decades of
    the rounding floor eps zeta0 of the sampled curve on any branch: the
    result would be noise.
    """
    signal = min(abs(_branch_scale(tp, zeta0, n, j)) for j in js) * x * x * (0.5 * t) ** 2
    floor = 1e3 * np.finfo(float).eps * zeta0
    if signal < floor:
        raise SolverError(
            f"w^{2 * n} probe signal {signal:.3e} at t = {t:g} is below 1e3 eps zeta0 = "
            f"{floor:.3e}: raise t or the amplitude")
    sizes = (t, 0.5 * t)
    amps = tuple(tt * (x * cmath.exp(sgn * 0.25j * math.pi))
                 for sgn in (1.0, -1.0) for tt in sizes)
    unit = CoefficientFamily({(n, 0): 1.0}, tp.s, False, _validate=False)
    v = _w2n_coeffs(unit, tp, n, js, scales=amps) / np.array(sizes * 2)[:, None] ** 2
    plus, minus = 2.0 * v[1::2] - v[0::2]
    return ((plus - minus) / (2j * x * x)).tolist(), ((plus + minus) / (2.0 * x * x)).tolist()


def _check_probe(t: float, amplitude: complex) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError(f"probe size t must be positive and finite, got {t!r}")
    if not cmath.isfinite(amplitude):
        raise ValueError(f"amplitude a_n0 must be finite, got {amplitude!r}")


def q_zeta_check(a_n0: complex, tp: TwistParams, n: int,
                 t: float = 1e-3) -> QZetaReport:
    """Measure the pure a_{n,0}^2 part of the w^{2n} response and compare.

    The measurement is taken on the branch j = 2s with probe size t.  The
    reference value is i n zeta_j(0)^{2n-2s+1} / s; rel_error is the
    relative gap between the two-phase measurement and that value.  The
    four probe curves of the branch are one stacked `_solve_branch`: the
    slowest probe sets the steps, and the error raised is the first gate
    that any probe reaches.  Raises
    ValueError unless t is positive and finite and a_n0 finite, and
    SolverError when t |a_n0| is too small for the probe to rise above
    rounding, a zero a_n0 included.
    """
    _check_probe(t, a_n0)
    zeta0 = _require_even_resonance(tp, n)
    j = 2 * tp.s
    predicted = _branch_scale(tp, zeta0, n, j)
    a2, sym = _two_phase_a2(abs(a_n0), tp, zeta0, n, (j,), t)
    a2, sym = a2[0], sym[0]
    rel = abs(a2 - predicted) / abs(predicted)
    return QZetaReport(n=n, j=j, t=t, a2_coeff=a2, predicted=predicted,
                       rel_error=rel, symmetric_coeff=sym)


def Hn_obstruction(a: CoefficientFamily, tp: TwistParams, n: int,
                   t: float = 1e-3, include_remainder: bool = False,
                   abar: CoefficientFamily | None = None) -> float:
    """Estimate the isolation obstruction, a product over the 2s branches.

    The 2s branches form s pairs (j, j + s), and H_n is the product of
    squares of the factors of branches 1..s, so H_n >= 0.  h(zeta, w)
    reads (zeta, w) only through the start point (zeta w, zeta/w) and
    zeta^{2s}, which (zeta, w) -> (-zeta, -w) keeps, so branch j + s is
    -zeta_j(-w): its w^{2n} coefficient and its reference value both
    change sign, and its factor is that of branch j.

    The default estimator takes the leading part of each branch factor:
    twice the real part of a_{n,0}^2 times the measured a^2 response of
    the branch (normalized by its reference value), so a single-mode
    family gives the product of a_{n,0}^2 + conj(a_{n,0})^2 per branch up
    to relative O(t) probe error.  It reads a_{n,0} alone and refuses an
    abar with a ValueError.

    include_remainder=True instead measures the full form at the family's
    own amplitude: 2 Re(c_{2n}/reference) on each branch curve, which
    includes every symmetric remainder term.  That reads Im c_{2n}, the
    curve's reality defect, where the reference is pure imaginary (every
    branch at s = 1), and Re c_{2n} where it is real (branch 1 at s = 2).
    At the self-conjugate pair (abar=None) the
    reversor forces the curve to be real over real w, a continuum of real
    points, and the full product vanishes identically for every a; it is
    nonzero only for an independent abar, the regime where isolated
    intersections exist.  The probe size t applies to the default
    estimator only, which raises SolverError when t |a_{n,0}| is too small
    for the probe to rise above rounding.

    Either estimator makes one stacked `_solve_branch` (`_w2n_coeffs`):
    the s branch curves 1..s, times the four probe curves of the default
    estimator.  The batch stops at its slowest curve, every gate applies to
    every curve, and the error raised is the first gate that any curve
    reaches.
    Raises ValueError unless t is positive and finite and a_{n,0} finite.
    """
    if abar is not None and not include_remainder:
        raise ValueError("abar enters only the include_remainder=True estimator")
    an0 = a.entries.get((n, 0), 0.0 + 0.0j)
    _check_probe(t, an0)
    zeta0 = _require_even_resonance(tp, n)
    if an0 == 0 and not include_remainder:
        return 0.0
    js = tuple(range(1, tp.s + 1))
    scales = [_branch_scale(tp, zeta0, n, j) for j in js]
    if include_remainder:
        c2n = _w2n_coeffs(a, tp, n, js, abar)[0].tolist()
        factors = [2.0 * (c / sc).real for c, sc in zip(c2n, scales)]
    else:
        a2, _ = _two_phase_a2(abs(an0), tp, zeta0, n, js, t)
        factors = [2.0 * (an0 * an0 * a2j / sc).real for a2j, sc in zip(a2, scales)]
    return math.prod(f * f for f in factors)
