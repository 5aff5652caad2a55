"""Numerical dynamics of reversibly perturbed twist maps.

The map under study is the conjugated twist phi_a . T . phibar_a^{-1}, where
T rotates by omega(xi eta) = alpha + (xi eta)^s and phi_a multiplies the two
coordinates by e^{+-i atilde(xi, eta)}.  Everything here is pointwise numeric
(vectorized over numpy arrays); truncated series never enter.  Every map
keeps t = xi eta, so the orbit kernel `_h_orbit` carries each orbit on its
level set and reads h as the orbit's phase sum.  The module
also carries the explicit constants (d0, c1, c2, epsilon0, delta, r0), the
scalar majorant recursion that underwrites them, and the branch solver for
the periodic-point equation zeta (1+h)^{1/(2s)} = e^{i j pi/s} (-beta/n)^{1/(2s)}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import mpmath
import numpy as np

from .families import CoefficientFamily, _band_terms, _laurent, _power_table
from .series import _check_int


class DomainError(ValueError):
    """A point left the numerically validated region."""


class HypothesisViolation(ValueError):
    """Input data violates a hypothesis of the underlying theorems."""


class SolverError(RuntimeError):
    """Iteration failed to converge or a post-condition residual is too large."""


BETA_BOUNDARY_TOL = 1e-14
EQ_RESIDUAL_BOUND = 1e-12


@dataclass(frozen=True)
class TwistParams:
    """Parameters of the unperturbed twist and the perturbation class."""

    alpha: float
    s: int
    m0: float = 1.0
    R: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "s", _check_int(self.s, "s"))
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 < self.R < 1.0:
            raise ValueError("R must lie in (0, 1)")
        if not 0.0 < self.m0 < math.inf:
            raise ValueError(f"m0 must be positive and finite, got {self.m0}")

    def turn(self, t, r=1):
        """The model's rotation e^{i r omega(t)}, omega(t) = alpha + t^s, at
        t = xi*eta, rounded as e^{i r alpha} e^{i r t^s} as the jets round it
        (`surface.involution_jets`): alpha is never added to t^s, so any
        finite alpha keeps the twist t^s to rounding."""
        t = np.asarray(t, dtype=complex)
        return cmath.exp(1j * r * self.alpha) * np.exp(1j * r * t**self.s)


@dataclass(frozen=True)
class ResonanceData:
    n: int
    g: int
    beta: float


@dataclass(frozen=True)
class CurveDomain:
    """Validated constants for period n: the solver disk and its pedigree."""

    epsilon0: float
    delta: float
    r0: float
    d0: float
    n: int
    c1: float
    c2: float

    def __post_init__(self):
        if not self.r0 < self.d0 / 2:
            raise ValueError(f"r0 = {self.r0} is not below d0/2 = {self.d0 / 2}")
        s_exp = round(math.log(self.delta) / math.log(self.epsilon0 / 4))
        if abs(self.delta - (self.epsilon0 / 4) ** s_exp) > 1e-15 * self.delta:
            raise ValueError("delta is not (epsilon0/4)^{2s}")


@dataclass(frozen=True)
class PeriodicCurve:
    """Period-n branch curve sampled over the unit w-circle.

    ``steps`` is the number of h evaluations the solver's iteration made
    (the final evaluation, which the gates read, not counted).
    ``real_intersections`` is filled in by ``surface_curves`` only.
    """

    j: int
    samples: list
    laurent: dict
    residual: float
    n: int
    grid_size: int
    zeta0: float
    steps: int
    reality_defect: float | None = None
    real_intersections: tuple | str | None = None


@dataclass(frozen=True)
class MajorantReport:
    d0: float
    values: np.ndarray
    bounds: np.ndarray
    satisfied: bool


# The caches of beta_reduce and compute_constants are typed: True and 5.0
# hash like 1 and 5, and an untyped cache would hand them the entry of the
# integer without checking them.
@lru_cache(maxsize=None, typed=True)
def beta_reduce(n: int, alpha: float) -> ResonanceData:
    """Write n*alpha = 2 g pi + beta with beta in (-pi, pi).

    The reduction runs in extended precision so that beta keeps full double
    accuracy even when n*alpha is large.  A beta within 1e-14 of +-pi is
    ambiguous (the sign of the residual window is undecidable) and rejected.
    """
    n = _check_int(n, "n")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    # The count of digits of n*alpha, taken in log space: the product
    # itself overflows float64 once |alpha| n passes 1.8e308.
    digits = 30 + int(math.log10(max(abs(alpha), 1.0)) + math.log10(n))
    with mpmath.workdps(digits):
        x = mpmath.mpf(n) * mpmath.mpf(alpha)
        g = int(mpmath.floor((x + mpmath.pi) / (2 * mpmath.pi)))
        beta = x - 2 * g * mpmath.pi
        beta_f = float(beta)
    if abs(abs(beta_f) - math.pi) < BETA_BOUNDARY_TOL:
        raise ValueError(
            f"beta = {beta_f!r} sits within {BETA_BOUNDARY_TOL} of the branch cut +-pi"
        )
    return ResonanceData(n=n, g=g, beta=beta_f)


def _guard_inside(xi, eta, what: str) -> tuple[float, float]:
    """The polydisk guard: the radii (max|xi|, max|eta|) of the points, each
    below 1, else DomainError; no points at all are refused."""
    if not (np.size(xi) and np.size(eta)):
        raise ValueError(f"{what}: no points to evaluate")
    radii = (float(np.abs(xi).max()), float(np.abs(eta).max()))
    # Each modulus is tested on its own: a nan fails its test, where
    # max(m_xi, nan) would let it pass.
    for m in radii:
        if not m < 1.0:
            raise DomainError(f"{what}: point modulus {m} escaped the unit polydisk")
    return radii


def twist_eval(tp: TwistParams, xi, eta):
    """The unperturbed twist: multiply by e^{+-i omega(xi eta)} (`TwistParams.turn`)."""
    ph = tp.turn(np.asarray(xi, dtype=complex) * eta)
    return ph * xi, eta / ph


# The Newton exit: unit roundoff u of float64 and the factor kappa of the
# certified truncation kappa u A0 (`_newton_certified`).
UNIT_ROUNDOFF = 2.0**-53
KAPPA = 2.0


def _mode_bounds(bands: dict):
    """(radii, lo, hi) -> (K, A0, A1, A2) for a family's modes on a level set.

    The modes of `_band_terms` are B_k x^k (k >= 0) and B_k y^{-k} (k < 0),
    turned by u = e^{-ic} into B_k (u x)^k and B_k (y/u)^{-k}.  The band
    maxima max|B_k| are taken here, once.  Given radii (rx, ry) of the
    points x, y and lo <= -Im c <= hi at each, A_p = sum_k |k|^p
    max|B_k| q^{|k|}, q = rx e^{-lo} for k >= 0 and ry e^{hi} for k < 0,
    bounds sum_k |k|^p |m_k u^k| at every point (inf past float64's
    range), and K is the largest |k|.
    """
    terms = [(abs(k), k >= 0, float(np.abs(b).max())) for k, b in bands.items()]
    K = max((k for k, _, _ in terms), default=0)

    def bounds(radii, lo, hi):
        a0 = a1 = a2 = 0.0
        try:
            px, py = radii[0] * math.exp(-lo), radii[1] * math.exp(hi)
            for k, on_x, b in terms:
                a = b * (px if on_x else py) ** k
                a0, a1, a2 = a0 + a, a1 + k * a, a2 + k * k * a
        except OverflowError:
            return K, math.inf, math.inf, math.inf
        return K, a0, a1, a2

    return bounds


def _newton_certified(bounds, dmax: float) -> bool:
    """Whether the Newton iterate c, after a step delta from c_p, is certified
    within kappa u A0 of the root (the derivation is in
    `_exponent_fixed_point`), bounds = (K, A0, A1, A2) at the phases of c_p:
    rho = e^{3 K max|delta|}, L = rho A1 < 1 and
    rho A2 max|delta|^2 / 2 <= (1 - L) min(kappa u A0, 2 max|delta|)."""
    K, a0, a1, a2 = bounds
    x = 3.0 * K * dmax
    if not x < 709.0:  # rho past the float64 range: nothing to certify
        return False
    rho = math.exp(x)
    lip = rho * a1
    return lip < 1.0 and 0.5 * rho * a2 * dmax * dmax <= (1.0 - lip) * min(
        KAPPA * UNIT_ROUNDOFF * a0, 2.0 * dmax)


def _exponent_fixed_point(fam: CoefficientFamily, bands: dict, x, y, what: str, bounds):
    """Solve c = g(c) = fam(e^{-ic} x, e^{ic} y) by Newton's method.

    The points (x, y) lie on the level set x*y = t of bands =
    fam._bands(t), which the phase change by u = e^{-ic} keeps, so
    g(c) = sum_k m_k u^k on the modes m_k of fam at (x, y) (`_band_terms`),
    whose keys are fam._mode_powers.  bounds(lo, hi) = (K, A0, A1, A2)
    bounds them wherever lo <= -Im c <= hi (`_mode_bounds` at the radii
    of (x, y), partially applied).  g'(c) = -i sum_k k m_k u^k.  Newton
    on c - g(c) takes its first step in closed form, c = g/(1 - g') at
    u = 1; each later step delta, c <- c - delta, costs one exp.

    The one exit, in contraction-mapping form.  Let a step delta from c_p,
    the iterate the sums were taken at (0 for the first step), reach c; let
    lo and hi be the least and greatest -Im c_p, rho = e^{3 K max|delta|}
    and B the disk of radius 3 max|delta| about each point's c_p.  On B each
    |u^k| is at most rho times its bound at c_p, so with (K, A0, A1, A2) =
    bounds(lo, hi), |g'| <= L = rho A1 and |g''| <= rho A2 there.  The
    segment from c_p to c lies in B, and Newton's step makes c - g(c) the
    remainder of the linear Taylor expansion of z - g(z) about c_p:
    |c - g(c)| <= E = rho A2 max|delta|^2 / 2.  If L < 1, g maps the disk
    D = {|z - c| <= r}, r = E / (1 - L), into itself (|g(z) - c| <= L r +
    E = r), and D lies in B while r <= 2 max|delta|.  So D holds a root, the
    only one in B, at most r from c, and |g'| <= L < 1 there: the branch the
    plain iteration c <- g(c) converges to.  The solve returns c once
    r <= min(kappa u A0, 2 max|delta|) (`_newton_certified`), with u = 2^-53
    the unit roundoff and kappa = 2 < sqrt5: the truncation left is below
    the sqrt5 u sum_k |m_k u^k| to which the complex products of the sum g
    alone are rounded, a sum that A0 bounds at c_p.  The bound uses the
    computed step, so c carries the rounding of that step besides.
    Otherwise SolverError, "exponent iteration did not converge", names one
    of two causes: a non-finite iterate (found by its step) or 80 steps
    without a certified root (with the last step size).  No modes (an empty
    family) give the root c = 0 of the shape of x, returned without a step.
    """
    modes = _band_terms(fam, bands, x, y)
    if not modes:
        return np.zeros(np.shape(x), dtype=complex)

    def sums(powers):
        # g = sum m_k u^k and dg = sum k m_k u^k; g'(c) = -i dg.
        g = None
        for k, mk in modes.items():
            t = mk if powers is None else mk * powers[k]
            g, dg = (t, k * t) if g is None else (g + t, dg + k * t)
        return g, dg

    fail = f"{what}: exponent iteration did not converge"
    # Off the solver disk the steps can overflow or divide by zero; such a
    # run ends at the finiteness test in SolverError, not in a warning.
    with np.errstate(all="ignore"):
        g, dg = sums(None)
        c = step = g / (1.0 + 1j * dg)
        lo = hi = 0.0
        for n in range(80):
            if n:
                lo, hi = -float(c.imag.max()), -float(c.imag.min())
                g, dg = sums(_power_table(np.exp(-1j * c), fam._mode_powers))
                step = (c - g) / (1.0 + 1j * dg)
                c = c - step
            dmax = float(np.abs(step).max())
            if not dmax < math.inf:
                raise SolverError(f"{fail}: non-finite iterate at step {n + 1}")
            if _newton_certified(bounds(lo, hi), dmax):
                return c
    raise SolverError(f"{fail}: 80 steps without a certified root, last step {dmax:.3e}")


def _phase_factor(f: CoefficientFamily, g: CoefficientFamily, t, turn, swap: bool, what: str):
    """One phase conjugation phi_f . model . phi_g^{-1} on a level set xi*eta = t.

    It forms the bands of the families f and g at t once, of one family
    when g is f (`CoefficientFamily._bands`), and the band maxima of g
    (`_mode_bounds`).  turn is the model's unit factor there:
    the model multiplies (xi, eta) by (turn, 1/turn), or with swap=True is
    the half-turn swap (xi, eta) -> (turn eta, xi / turn).  Returns
    step(x, y, radii) -> (x', y', phase, radii'), radii the polydisk radii
    (max|x|, max|y|) that a guard measured on the input.  The inverse of
    phi_g solves c = g(e^{-ic} x, e^{ic} y) (`_exponent_fixed_point`),
    bounded at those radii, and returns only once its error is certified
    below kappa u A0; phi_f then multiplies by e^{+-i f} at the model's
    image, f its Laurent sum (`_laurent`).  x' is the source coordinate
    (x, or y when swapping) times turn e^{i phase}, phase = f - c, or
    f + c when swapping.  The output must pass the polydisk guard, whose
    radii are radii' (`_guard_inside`).
    """
    fb = f._bands(t)
    gb = fb if g is f else g._bands(t)
    bounds = _mode_bounds(gb)
    inverse, output = f"{what} inverse", f"{what} output"

    # Operand order matters: numpy's complex product is not bitwise
    # commutative, so ph * xi and xi * ph can differ in the last bit.
    def step(x, y, radii):
        c = _exponent_fixed_point(g, gb, x, y, inverse, partial(bounds, radii))
        if swap:
            q = turn * np.exp(1j * c)
            x, y = q * y, x / q
        else:
            q = turn * np.exp(-1j * c)
            x, y = q * x, y / q
        fv = _laurent(f, fb, x, y)
        e = np.exp(1j * fv)
        x, y = e * x, y / e
        return x, y, fv + c if swap else fv - c, _guard_inside(x, y, output)

    return step


def _varphi_orbit(a: CoefficientFamily, tp: TwistParams):
    """varphi = phi_a . T . phibar_a^{-1} in the orbit kernel's step contract:
    orbit(t) fixes tp.turn(t) on the level set xi*eta = t and returns
    the step of `_phase_factor` for a and g = -abar (phibar_a is the
    coefficient-conjugate of phi_a, which is phi_g), whose phase is f - c."""
    g = a.conjugated().scaled(-1.0)

    def orbit(t):
        return _phase_factor(a, g, t, tp.turn(t), False, "varphi")

    return orbit


def _one_step(orbit, what: str):
    """Pointwise evaluator (xi, eta) -> (xi', eta') of a map given in the
    orbit kernel's step contract: one step on the level set of the point,
    from the radii of its input guard; the input must lie inside the unit
    polydisk."""

    def evaluate(xi, eta):
        xi = np.asarray(xi, dtype=complex)
        eta = np.asarray(eta, dtype=complex)
        return orbit(xi * eta)(xi, eta, _guard_inside(xi, eta, f"{what} input"))[:2]

    return evaluate


def make_varphi(a: CoefficientFamily, tp: TwistParams):
    """Pointwise evaluator of phi_a . T . phibar_a^{-1}.

    Each factor multiplies the coordinates by reciprocal unit factors, so
    xi*eta is preserved to rounding regardless of the family.  phibar_a is
    the coefficient-conjugate of phi_a, which is phi_g for g = -abar.  It is
    one step of the map that the orbit kernel (`_h_orbit`) iterates, with
    the same factor code (`_phase_factor`).
    """
    return _one_step(_varphi_orbit(a, tp), "varphi")


def iterate(map_eval, n: int, point):
    """n-fold composition of a pointwise map."""
    xi, eta = point
    for _ in range(_check_int(n, "n")):
        xi, eta = map_eval(xi, eta)
    return xi, eta


def _h_orbit(zeta, w, tp: TwistParams, n: int, orbit):
    """The orbit kernel: h at (zeta, w) with the start points
    (xi, eta) = (zeta w, zeta/w) and their n-th iterates: (h, (xi, eta),
    (xi_n, eta_n)).

    Every map here multiplies xi and eta by reciprocal factors or swaps
    them, so t = xi*eta is an exact integral.  `orbit(t)` fixes what t
    determines once per orbit and returns the step
    (xi, eta, radii) -> (xi', eta', phase, radii') with
    xi' = xi e^{i (omega(t) + phase)} in exact arithmetic, radii the
    polydisk radii (max|xi|, max|eta|) of the step's input and radii' those
    its output guard measured (`_guard_inside`).  The kernel starts from
    the radii of its start guard, advances both coordinates n times,
    handing each step the radii of the one before, and sums the phases
    into Sigma.  Since n alpha = beta mod 2 pi and
    omega(t) = alpha + t^s, the deviation of xi_n from the model rotation
    is p_n = xi_n e^{-i n omega(t)} / xi - 1 = e^{i Sigma} - 1, and
    h = log(1 + p_n) / (i n zeta^{2s}) = Sigma / (n zeta^{2s}) with Sigma
    taken at its principal value.  No end point is subtracted, so h carries
    only the rounding of the phases it sums, not a floor of eps/zeta^{2s}.
    """
    zeta = np.asarray(zeta, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(zeta == 0):
        raise DomainError("h is undefined at zeta = 0")
    xi, eta = zeta * w, zeta / w
    radii = _guard_inside(xi, eta, "h_eval")
    step = orbit(xi * eta)
    x, y, total = xi, eta, 0.0
    for _ in range(_check_int(n, "n")):
        x, y, phase, radii = step(x, y, radii)
        total = total + phase
    total = total - 2 * math.pi * np.round(total.real / (2 * math.pi))
    pmax = float(np.abs(np.expm1(1j * total)).max())
    if pmax > 0.5:
        raise DomainError(f"|p_n| = {pmax:.3f} > 1/2: outside the validated region")
    return total / (n * zeta ** (2 * tp.s)), (xi, eta), (x, y)


def h_eval(zeta, w, a: CoefficientFamily, tp: TwistParams, n: int, *, _orbit=None):
    """h(zeta, w) = log(1 + p_n(zeta w, zeta/w)) / (i n zeta^{2s}) of varphi,
    read by the orbit kernel (`_h_orbit`) as the orbit's phase sum over
    n zeta^{2s}.

    The private _orbit replaces varphi by another map in the kernel's step
    contract, orbit(t) -> step with
    step(xi, eta, radii) -> (xi', eta', phase, radii'), as the involution
    pair of ``surface_curves``; no pointwise map enters.
    """
    return _h_orbit(zeta, w, tp, n, _varphi_orbit(a, tp) if _orbit is None else _orbit)[0]


def _check_beta(rd: ResonanceData) -> ResonanceData:
    """rd, whose beta must lie in (-pi, 0) for period rd.n to carry a curve."""
    if not rd.beta < 0.0:
        raise HypothesisViolation(
            f"beta = {rd.beta:.6e} outside (-{math.pi:.6e}, 0): period {rd.n} carries no curve here"
        )
    return rd


def _beta_window(tp: TwistParams, n: int) -> tuple[ResonanceData, float]:
    """Resonance data of period n, whose beta must lie in (-pi, 0), and the
    radius zeta0 = (-beta/n)^{1/(2s)}.  beta_reduce keeps beta above -pi."""
    rd = _check_beta(beta_reduce(n, tp.alpha))
    return rd, (-rd.beta / n) ** (1.0 / (2 * tp.s))


def _default_grid(n: int) -> int:
    """Default grid of every sampled curve: max(8n, 64) points."""
    return max(8 * _check_int(n, "n"), 64)


def curve_band(n: int, grid_size: int) -> int:
    """Laurent half-width of a sampled curve: 2n+8, capped by the grid.  On
    4n points this is 2n-1, the band of the divergence witness."""
    return min(2 * n + 8, (grid_size - 1) // 2)


def _rounding_floor(zeta0: float, s: int) -> float:
    """Rounding floor of R = T(zeta) - zeta: zeta0 eps_mach / (2s zeta0^{2s}).

    This is the floor of h read from the end point of its orbit, eps_mach /
    zeta0^{2s}, carried through T.  The orbit kernel sums phases instead,
    whose rounding is far below it; the floor still sets the secant rule
    and the stopping bound."""
    return zeta0 * float(np.finfo(float).eps) / (2 * s * zeta0 ** (2 * s))


def _step_bound(zeta0: float, s: int) -> float:
    """Stopping step of the branch iteration: 4x its rounding floor, at least 1e-13."""
    return max(1e-13, 4 * _rounding_floor(zeta0, s))


def _secant_update(zeta, r, zeta_prev, r_prev, floor):
    """One step on R(zeta) = T(zeta) - zeta: secant where R moved by more than
    4 floor, else Picard zeta + r (a nan r_prev, the first iterate, never moved).
    The polydisk guard and the |h| gate bound r and zeta, so the quotient is finite."""
    dr = r - r_prev
    moved = np.abs(dr) > 4 * floor
    return np.where(moved, zeta - r * (zeta - zeta_prev) / np.where(moved, dr, 1.0), zeta + r)


def _solve_branch(a, tp, n, js, w, orbit):
    """Solve the branches js at w together: zeta of shape (len(js),) + w.shape,
    zeta0, the largest n-step return residual and the number of h
    evaluations the iteration made.

    The root of R(zeta) = T(zeta) - zeta, T(zeta) = target (1 + h(zeta, w))^{-1/(2s)},
    is found at one h evaluation per step, one n-step orbit of the kernel
    `_h_orbit` (orbit in its step contract, varphi when None): the
    secant step where R moved by more than four times its rounding floor
    since the previous iterate, the Picard step zeta + R elsewhere, the
    first iterate included (`_secant_update`).  The loop runs until the largest step of
    any branch is within `_step_bound`, so every branch takes the steps of
    the slowest.  That test bounds the step, not the residual; the
    equation residual is checked after the loop.  Each gate of
    `solve_branch` is taken over all branches: the input passes only if
    every branch passes, and the error raised is the first gate that any
    branch reaches.
    """
    if orbit is None:
        orbit = _varphi_orbit(a, tp)
    _, zeta0 = _beta_window(tp, n)
    js = [_check_int(j, "branch index", 1, 2 * tp.s) for j in js]
    w = np.asarray(w, dtype=complex)
    wmod = np.abs(w)
    if not (w.size and np.all(wmod > 0.5) and np.all(wmod < 2.0)):
        raise ValueError("w must be one or more points of the annulus 1/2 < |w| < 2")
    # The branches run as one flat array of points: a single branch runs on
    # the 1-d arrays of its own grid, and no ufunc pays for a second axis.
    shape = (len(js),) + w.shape
    target = np.repeat(np.array([complex(np.exp(1j * j * math.pi / tp.s)) * zeta0
                                 for j in js]), w.size)
    w = np.concatenate([w.ravel()] * len(js))

    inv_root = -1.0 / (2 * tp.s)
    floor = _rounding_floor(zeta0, tp.s)
    bound = _step_bound(zeta0, tp.s)
    zeta_prev, r_prev, zeta = target, math.nan, target
    for steps in range(1, 51):
        h = h_eval(zeta, w, a, tp, n, _orbit=orbit)
        if float(np.abs(h).max()) > 0.5:
            raise DomainError("|h| > 1/2: contraction hypothesis lost")
        r = target * np.exp(inv_root * np.log(1.0 + h)) - zeta
        znew = _secant_update(zeta, r, zeta_prev, r_prev, floor)
        step = float(np.abs(znew - zeta).max())
        zeta_prev, r_prev, zeta = zeta, r, znew
        if step <= bound:
            break
    else:
        raise SolverError(f"no convergence in 50 iterations; last step {step:.3e}")

    # The return test reads the orbit of this last h evaluation.
    h, (xi, eta), (xin, etan) = _h_orbit(zeta, w, tp, n, orbit)
    eq_res = float(np.abs(zeta * np.exp(-inv_root * np.log(1.0 + h)) - target).max())
    if eq_res > EQ_RESIDUAL_BOUND:
        raise SolverError(f"equation residual {eq_res:.3e} exceeds {EQ_RESIDUAL_BOUND}")

    ret = max(float(np.abs(xin - xi).max()), float(np.abs(etan - eta).max()))
    if ret > 1e-10:
        raise SolverError(f"n-step return residual {ret:.3e} exceeds 1e-10")
    return zeta.reshape(shape), zeta0, ret, steps


def solve_branch(a, tp: TwistParams, n: int, j: int, w):
    """Solve the branch-j periodic-point equation at w (scalar or array).

    Returns zeta with zeta (1+h(zeta,w))^{1/(2s)} = e^{i j pi / s} (-beta/n)^{1/(2s)}.
    Each step costs one h evaluation.  On R(zeta) = e^{i j pi / s} zeta0
    (1+h)^{-1/(2s)} - zeta it is the secant step where R moved by more than
    four times its rounding floor zeta0 eps_mach / (2s zeta0^{2s}) since the
    previous iterate, else the Picard step zeta + R (so at the first
    iterate).  It stops once a step is at most four times that floor, or
    1e-13 if larger (50 steps at most).  That bounds the step, not the
    residual, so zeta is then verified both against the equation (absolute
    residual below 1e-12) and by the n-step return test, which reads the
    orbit of the final h evaluation instead of iterating again.  Raises
    HypothesisViolation when beta is not in (-pi, 0), DomainError when the
    orbit leaves the validated region, SolverError on convergence failure.
    """
    scalar = np.isscalar(w) or np.asarray(w).ndim == 0
    zeta = _solve_branch(a, tp, n, (j,), w, None)[0][0]
    return complex(zeta) if scalar else zeta


def periodic_curve(a, tp: TwistParams, n: int, j: int, grid_size: int | None = None,
                   K: int | None = None, check_domain: bool = True, *,
                   _orbit=None) -> PeriodicCurve:
    """Sample the branch over the unit w-circle and take its Laurent data.

    The grid has grid_size points, by default ``_default_grid(n)`` =
    max(8n, 64).  Laurent coefficients come from the discrete Fourier
    transform over the grid (alias rule: coefficient k is read at index
    k mod grid_size), so the grid must satisfy grid_size >= 2K+1.  The dict
    holds |k| <= K, K defaulting to ``curve_band(n, grid_size)``; K picks
    the keys only and moves no sampled value.

    Each sample is solved as in ``solve_branch``: the secant step where R
    moved above its rounding floor, the Picard step elsewhere, stopped on a
    step within the stopping bound; ``steps`` counts the h evaluations this
    took on the grid.  The curve is validated numerically by the gates of
    ``solve_branch`` (|h| <= 1/2, equation residual 1e-12, n-step return
    1e-10, the last on the orbit of the final h evaluation).  The |h| <= 1/2
    gate bounds each iterate T(zeta) = target (1 + h)^{-1/(2s)} by
    |T(zeta)| <= zeta0 2^{1/(2s)}; the polydisk guard alone keeps only
    |zeta| < 1 on the unit circle.  ``check_domain`` is accepted and
    ignored; the paper's constants come from ``compute_constants``.
    The private ``_orbit`` replaces varphi by another map in the step
    contract of the orbit kernel, step(xi, eta, radii) ->
    (xi', eta', phase, radii') (`_h_orbit`), as ``surface_curves`` does.
    """
    grid_size = _default_grid(n) if grid_size is None else _check_int(grid_size, "grid_size")
    K = curve_band(_check_int(n, "n"), grid_size) if K is None else _check_int(K, "K", 0)
    if grid_size < 2 * K + 1:
        raise ValueError("grid must have at least 2K+1 points")
    m = np.arange(grid_size)
    w = np.exp(2j * np.pi * m / grid_size)
    zeta, zeta0, ret, steps = _solve_branch(a, tp, n, (j,), w, _orbit)
    zeta = zeta[0]
    fft = np.fft.fft(zeta) / grid_size
    laurent = {k: complex(fft[k % grid_size]) for k in range(-K, K + 1)}
    reality = None
    if _orbit is None and a.hermitian and j == 2 * tp.s:
        reality = float(np.abs(zeta.imag).max())
    samples = [(complex(wv), complex(zv)) for wv, zv in zip(w, zeta)]
    return PeriodicCurve(
        j=j, samples=samples, laurent=laurent, residual=ret, n=n,
        grid_size=grid_size, zeta0=zeta0, steps=steps, reality_defect=reality,
    )


def _d0(tp: TwistParams, n: int) -> float:
    return min(
        tp.R ** (2 * tp.s + 1) / (2 ** (6 * tp.s + 6) * tp.m0),
        (1.0 / (2 * n)) ** (1.0 / (2 * tp.s)),
        tp.R / 16.0,
    )


def calibration_family(tp: TwistParams) -> CoefficientFamily:
    """Extremal perturbation data: every coefficient at its class ceiling
    m0 / (4 (2R)^{i+j}) through 2s < i+j <= 2s + 8."""
    ent = {}
    for d in range(2 * tp.s + 1, 2 * tp.s + 9):
        cap = tp.m0 / (4.0 * (2.0 * tp.R) ** d)
        for i in range(d + 1):
            ent[(i, d - i)] = cap
    return CoefficientFamily(ent, tp.s, _validate=False)


def measurable_ring(s: int) -> float:
    """Smallest |zeta| at which eps/|zeta|^{2s}, the rounding floor of h read
    from the end point of its orbit, stays two decades under the 1/4
    threshold for |h|.  The orbit kernel reads h as a phase sum, whose
    rounding is far below that floor, so the ring is conservative."""
    return (400.0 * np.finfo(float).eps) ** (1.0 / (2 * _check_int(s, "s")))


def _calibrate_c2(tp: TwistParams, n: int, c1: float) -> float:
    """Largest c in {c1/2^k, k >= 1} whose solver disk passes |h| <= 1/4,
    driven by the extremal family.

    h(., w) is analytic in zeta and vanishes at 0, so by the maximum
    principle a bound on an outer ring bounds every smaller disk.  When the
    candidate radius r0(c) sinks below the float64-measurable ring, the
    check therefore runs on that ring instead and dominates the disk.
    """
    fam = calibration_family(tp)
    floor = measurable_ring(tp.s)
    radii = np.array([0.7, 0.85, 1.0])
    zph = np.exp(1j * np.pi * np.arange(4) / 4)
    wv = (np.array([0.55, 1.0, 1.8])[:, None] * np.exp(2j * np.pi * np.arange(4) / 4)).ravel()
    for k in range(1, 13):
        c = c1 / 2**k
        r_meas = max(0.5 * c * n ** (-1.0 / (2 * tp.s)), floor)
        zv = (r_meas * radii[:, None] * zph).ravel()
        zz, ww = np.meshgrid(zv, wv)
        try:
            h = h_eval(zz.ravel(), ww.ravel(), fam, tp, n)
            if float(np.abs(h).max()) <= 0.25:
                return c
        except DomainError:
            pass
    raise SolverError("c2 calibration failed: |h| > 1/4 persists down to c1/2^12")


@lru_cache(maxsize=None, typed=True)
def compute_constants(tp: TwistParams, n: int) -> CurveDomain:
    """Explicit constants for period n: d0, the bracket constant c1, the
    calibrated c2, and the derived (epsilon0, delta, r0)."""
    n = _check_int(n, "n")
    s = tp.s
    d0 = _d0(tp, n)
    c1 = 0.5 * n * d0 ** (2 * s)
    c2 = _calibrate_c2(tp, n, c1)
    eps0 = c2
    delta = (c2 / 4.0) ** (2 * s)
    if delta == 0.0:
        raise SolverError(f"delta = (c2/4)^{2 * s} underflows float64 at s = {s} (c2 = {c2:.3e})")
    r0 = 0.5 * eps0 * n ** (-1.0 / (2 * s))
    return CurveDomain(epsilon0=eps0, delta=delta, r0=r0, d0=d0, n=n, c1=c1, c2=c2)


def majorant_sequence(tp: TwistParams, n: int, K: int | None = None) -> MajorantReport:
    """Scalar majorant recursion at (d0, d0) with the bound f_k <= k/(4n).

    f_{k+1} = f_k + (m0/R^{2s+1}) (2 d0)^{2s+1} e^{k(2s+1) d0^{2s}}
              (1-f_k)^{-2s-2} / (1 - (2 d0/R) e^{k d0^{2s}} (1-f_k)^{-1}).
    The bound is proven, so ``satisfied`` False flags a constants-pipeline bug.
    """
    n = _check_int(n, "n")
    K = n if K is None else _check_int(K, "K", 0, n)
    s, m0, R = tp.s, tp.m0, tp.R
    d0 = _d0(tp, n)
    t0 = d0 ** (2 * s)
    values = np.zeros(K + 1)
    f = 0.0
    for k in range(K):
        grow = math.exp(k * (2 * s + 1) * t0)
        den = 1.0 - (2 * d0 / R) * math.exp(k * t0) / (1.0 - f)
        if den <= 0:
            raise SolverError(f"majorant denominator vanished at k = {k}")
        f = f + (m0 / R ** (2 * s + 1)) * (2 * d0) ** (2 * s + 1) * grow / (
            (1.0 - f) ** (2 * s + 2) * den
        )
        values[k + 1] = f
    bounds = np.arange(K + 1) / (4.0 * n)
    return MajorantReport(d0=d0, values=values, bounds=bounds,
                          satisfied=bool(np.all(values <= bounds + 1e-15)))
