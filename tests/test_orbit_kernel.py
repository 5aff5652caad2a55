"""The orbit kernel: each orbit carried on its integral t = xi eta, h read
as the orbit's phase sum over n zeta^{2s}."""

import math
import re

import mpmath
import numpy as np
import pytest

from revtwist import surface, twist
from revtwist.families import CoefficientFamily, _band_terms
from revtwist.obstruction import divergence_witness, select_resonant_n
from revtwist.surface import build_involution_maps
from revtwist.twist import (
    DomainError,
    TwistParams,
    _beta_window,
    beta_reduce,
    h_eval,
    iterate,
    periodic_curve,
    solve_branch,
)

U = 2.0**-53  # unit roundoff of float64
SQRT5 = math.sqrt(5.0)
# A product or quotient of two complex numbers is taken within 4u
# relative (sqrt(5) u for the product), and a complex exp within 6u: two
# ulps in each part.
PRODUCT, EXP = 4.0, 6.0
KAPPA = 2.0  # an exponent solve's certified truncation is KAPPA U A0


def phase_sum_oracle(a, tp, n, zeta, w, dps=40):
    """The exact orbit of the kernel's start point (the float products
    zeta w and zeta / w), at dps digits: h = Sigma / (n zeta^{2s}); S,
    the sum over the steps of |f_k| + |c_k| taken term by term; the
    largest d sum |g-terms| of the inverse exponent (d the largest mode);
    |t|; the largest |xi_k| and |eta_k| of the orbit; and the largest
    |Im c_k| of its inverse exponents."""
    z = np.asarray(zeta, dtype=complex)
    xis, etas = z * w, z / w
    g = {k: -np.conj(v) for k, v in a.entries.items()}
    d = max(abs(i - j) for i, j in a.entries)
    out = []
    with mpmath.workdps(dps):
        for xi0, eta0 in zip(xis, etas):
            x, t = mpmath.mpc(complex(xi0)), mpmath.mpc(complex(xi0)) * mpmath.mpc(complex(eta0))
            turn = mpmath.expj(mpmath.mpf(tp.alpha) + t**tp.s)
            total = S = 0
            worst = rx = ry = im = 0
            for _ in range(n):
                rx, ry = max(rx, abs(x)), max(ry, abs(t / x))
                c = mpmath.mpc(0)
                for _ in range(200):
                    u = mpmath.expj(-c)
                    terms = [v * (u * x) ** i * (t / (u * x)) ** j for (i, j), v in g.items()]
                    c_new = mpmath.fsum(terms)
                    if abs(c_new - c) < mpmath.mpf(10) ** (-dps + 2):
                        break
                    c = c_new
                c = c_new
                im = max(im, abs(c.imag))
                S += sum(abs(v) for v in terms)
                worst = max(worst, d * sum(abs(v) for v in terms))
                x = turn * mpmath.expj(-c) * x
                terms = [v * x**i * (t / x) ** j for (i, j), v in a.entries.items()]
                f = mpmath.fsum(terms)
                S += sum(abs(v) for v in terms)
                x = mpmath.expj(f) * x
                total += f - c
            h = total / (n * mpmath.mpc(complex(z)) ** (2 * tp.s))
            out.append((complex(h), float(S), float(worst), float(abs(t)), float(rx), float(ry),
                        float(im)))
    return out


def solve_truncation(a, n, abs_t, rx, ry, im):
    """What the exits of an orbit's n inverse-exponent solves may leave in
    Sigma: each c is certified within KAPPA u A0 of its root
    (`_exponent_fixed_point`), A0 = sum_k max|B_k| q^{|k|} over the modes
    of g = -abar at the radii of the step's input turned by the phase of
    the iterate c_p of the last step (`_mode_bounds`): q <= r e^{|Im c_p|},
    r at most the radii (rx, ry) of the orbit's points, the start points'
    included (r = rx for k >= 0, ry for k < 0), each within 1e-12 relative
    of the oracle's, and c_p within 1e-6 of its root, whose |Im c| is at
    most im."""
    bands = {}
    for (i, j), v in a.entries.items():
        bands[i - j] = bands.get(i - j, 0) + abs(v) * abs_t ** min(i, j)
    turn = (1 + 1e-12) * math.exp(im + 1e-6)
    radii = {True: rx * turn, False: ry * turn}
    return KAPPA * U * n * sum(b * radii[k >= 0] ** abs(k) for k, b in bands.items())


def phase_sum_bound(a, tp, n, zeta, S, abs_t, T):
    """First-order rounding bound on h from the accumulated S.

    Per step the kernel turns xi by four rounded unit factors (e^{i alpha}
    and e^{i t^s}, whose product it forms once per orbit, e^{-ic} and
    e^{if}; t^s itself off by 2 s sqrt5 u |t|^s through the rounding of t
    and of the power) through four products, so after k steps the point's
    phase is off by at most k rho u, rho = 2 s sqrt5 |t|^s + 4 EXP + 4 sqrt5.
    Since alpha never meets t^s in a sum, no term grows with |alpha|.  A phase error e
    moves f by at most d e |f| (d the largest mode |i - j|) and c by at most
    2 d e |c| while d |c| <= 1/2: at most 2 n d rho u S over the orbit.
    (eta, advanced by the reciprocal factors, carries the same phase error
    with its sign flipped.)  Each f and c is a sum of m terms a x^k t^j or
    a eta^{-k} t^i built by squaring, within
    (sqrt5 (2D + 1) + m) u of their term sums (D the largest degree i + j),
    and c at most twice that through Newton's solve, plus 4u of its own
    arithmetic.  The n additions of Sigma add (n + 1) u S, and the
    division by n zeta^{2s} (2s + 8) u |Sigma|.  Newton's exit leaves each
    c within its certified truncation of the root, T over the orbit
    (`solve_truncation`): T enters Sigma once, and as a phase error of the
    point moves f and c by at most 2 d T S more.
    """
    d = max(abs(i - j) for i, j in a.entries)
    D = max(i + j for i, j in a.entries)
    m = len(a.entries)
    s = tp.s
    rho = 2 * s * SQRT5 * abs_t**s + 4 * EXP + 4 * SQRT5
    local = SQRT5 * (2 * D + 1) + m + 4
    C = 2 * n * d * rho + (n + 1) + 2 * local + 2 * s + 8
    return (C * U * S + T * (1 + 2 * d * S)) / (n * abs(zeta) ** (2 * s))


# Item 10 of the roadmap: (twist, n, family); each h is taken at zeta0 on
# four points of the unit w-circle.
README_FAMILY = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
ORACLE_CASES = {
    "readme-curve": (TwistParams(alpha=2.8915926535897931, s=1), 4, README_FAMILY),
    "n31": (TwistParams(alpha=1.41421356, s=1), 31, README_FAMILY),
    "n71": (TwistParams(alpha=1.41421356, s=1), 71, README_FAMILY),
    "s2-two-modes": (TwistParams(alpha=2.0, s=2), 8,
                     CoefficientFamily({(5, 0): 0.05, (0, 5): 0.05}, 2)),
}


@pytest.mark.parametrize("tp, n, fam", ORACLE_CASES.values(), ids=ORACLE_CASES)
def test_phase_sum_against_a_40_digit_oracle(tp, n, fam):
    zeta0 = _beta_window(tp, n)[1]
    w = np.exp(2j * np.pi * (0.1 + np.arange(4) / 4))
    h = h_eval(zeta0, w, fam, tp, n)
    oracle = phase_sum_oracle(fam, tp, n, zeta0, w)
    # The kernel's radii are the largest over all four points.
    rx, ry = max(o[4] for o in oracle), max(o[5] for o in oracle)
    im = max(o[6] for o in oracle)
    for got, (want, S, worst, abs_t, *_) in zip(h, oracle):
        assert worst <= 0.5
        T = solve_truncation(fam, n, abs_t, rx, ry, im)
        assert abs(got - want) <= phase_sum_bound(fam, tp, n, zeta0, S, abs_t, T)


@pytest.mark.parametrize("xi", [np.zeros(0, dtype=complex), 0.1], ids=["empty", "scalar"])
def test_no_points_are_refused_at_the_boundary_guards(xi):
    # With no points there are no radii to measure: each entry point
    # refuses in one line, not inside a reduction over an empty array.
    tp = ORACLE_CASES["readme-curve"][0]
    empty = np.zeros(0, dtype=complex)
    tau1, tau2, phi = build_involution_maps(README_FAMILY, tp)
    entries = [("h_eval", lambda: h_eval(xi, empty, README_FAMILY, tp, 4)),
               ("varphi input", lambda: twist.make_varphi(README_FAMILY, tp)(xi, empty)),
               ("tau1 input", lambda: tau1(xi, empty)),
               ("tau2 input", lambda: tau2(xi, empty)),
               ("tau2 input", lambda: phi(xi, empty))]
    for what, call in entries:
        with pytest.raises(ValueError, match=f"^{what}: no points to evaluate$"):
            call()


def test_empty_family_h_is_exactly_zero():
    tp = TwistParams(alpha=(2 * math.pi * 7 - 1e-4) / 100, s=1)
    zeta = 1e-3 * np.exp(1j * np.linspace(0, 6, 9))
    w = 1.3 * np.exp(1j * np.linspace(1, 2, 9))
    assert np.array_equal(h_eval(zeta, w, CoefficientFamily.empty(1), tp, 100), np.zeros(9))
    # So each branch point is its target, on every grid point.
    z = solve_branch(CoefficientFamily.empty(1), tp, 100, 2, w)
    assert np.all(z == z[0])


@pytest.mark.parametrize("s", [1, 2])
def test_empty_family_witness_width_is_exactly_zero(s):
    tp = TwistParams(alpha=1.41421356, s=s)
    report = divergence_witness(CoefficientFamily.empty(s), tp,
                                select_resonant_n(tp.alpha, 0.3, 2, 500))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.width == 0.0 and row.I_min == row.I_max
        assert not row.nonconstant


PAIR_CASES = {
    "s1": (TwistParams(alpha=(4 * math.pi - 2.0) / 4, s=1), 4,
           CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1),
           CoefficientFamily({(4, 0): -0.06 + 0.01j}, 1)),
    "s2": (TwistParams(alpha=(4 * math.pi - 1.25) / 8, s=2), 8,
           CoefficientFamily({(8, 0): 0.05 + 0.02j, (3, 2): 0.03j}, 2),
           CoefficientFamily({(8, 0): -0.06 + 0.01j, (2, 3): 0.02}, 2)),
}


@pytest.mark.parametrize("tp, n, a, abar", PAIR_CASES.values(), ids=PAIR_CASES)
def test_pair_phase_sum_matches_the_end_point_form(tp, n, a, abar):
    # phi = tau1 tau2 with an independent abar.  The end-point form reads h
    # from n steps of the pointwise phi: p_n = xi_n e^{-i (beta + n t^s)} /
    # xi - 1, h = log(1 + p_n) / (i n zeta^{2s}).  Per phi step the
    # pointwise maps round the point's phase through two half turns
    # e^{+-i alpha/2} e^{+-i t^s/2} (t^s off by s sqrt5 u |t|^s in all),
    # eight exps and eight products or quotients; the end point adds beta,
    # n t^s, one exp, one product, one quotient and the log, and log(1 + p)
    # at most doubles an error in p for |p| <= 1/2.  The phase sum's own error is
    # far below that.
    zeta0 = _beta_window(tp, n)[1]
    w = np.exp(2j * np.pi * (0.05 + np.arange(16) / 16))
    _, _, phi = build_involution_maps(a, tp, abar=abar)
    orbit = surface._involution_orbits(a, tp, abar)[2]
    beta = beta_reduce(n, tp.alpha).beta
    for zeta, r in ((zeta0, 1.0), (0.93 * zeta0, 1.04)):
        h = twist._h_orbit(zeta, r * w, tp, n, orbit)[0]
        xi, eta = zeta * r * w, zeta / (r * w)
        xin, _ = iterate(phi, n, (xi, eta))
        t = xi * eta
        p = xin / (xi * np.exp(1j * (beta + n * t**tp.s))) - 1.0
        direct = np.log(1.0 + p) / (1j * n * zeta ** (2 * tp.s))
        abs_t = float(np.abs(t).max())
        rho = tp.s * SQRT5 * abs_t**tp.s + 8 * EXP + 8 * PRODUCT
        end = abs(beta) + n * (1 + tp.s * SQRT5) * abs_t**tp.s + EXP + 3 * PRODUCT
        bound = 2 * (n * rho + end) * U / (n * abs(zeta) ** (2 * tp.s))
        assert float(np.abs(p).max()) <= 0.5
        assert float(np.abs(h - direct).max()) <= bound


@pytest.mark.parametrize("tp, n, a, abar", PAIR_CASES.values(), ids=PAIR_CASES)
def test_every_solve_is_bounded_at_its_own_input(monkeypatch, tp, n, a, abar):
    # The mode bounds of each exponent solve come from the radii that a
    # guard measured, which must be those of the solve's own input: at
    # every point A_p >= sum_k |k|^p |m_k u^k|, at c = 0 (u = 1,
    # lo = hi = 0) and at the root, lo and hi its least and greatest
    # -Im c (up to the rounding of both sides).  Off the unit w-circle
    # |xi| != |eta|, and each swap of the pair trades them, so tau1 must
    # be handed the radii of tau2's output and tau2 those of tau1's: the
    # radii of a factor's own last output would be those of the other
    # coordinate.  The pointwise maps hand them on the same way.
    calls = []
    solve = twist._exponent_fixed_point

    def checked(fam, bands, x, y, what, bounds):
        modes = _band_terms(fam, bands, x, y)
        c = solve(fam, bands, x, y, what, bounds)
        phase = -c.imag
        for lo, hi, u in (0.0, 0.0, 1.0), (phase.min(), phase.max(), np.exp(-1j * c)):
            for p, bound in enumerate(bounds(lo, hi)[1:]):
                total = sum(abs(k) ** p * np.abs(m * u**k) for k, m in modes.items())
                assert np.all(total <= bound * (1 + 1e-12)), (what, p)
        calls.append(what)
        return c

    monkeypatch.setattr(twist, "_exponent_fixed_point", checked)
    zeta0 = _beta_window(tp, n)[1]
    w = 1.15 * np.exp(2j * np.pi * np.arange(8) / 8)
    pointwise = (*build_involution_maps(a, tp, abar=abar), twist.make_varphi(a, tp))
    for r in (1.0, 1.15**-2):
        for orbit in (surface._involution_orbits(a, tp, abar)[2], twist._varphi_orbit(a, tp)):
            twist._h_orbit(zeta0, r * w, tp, n, orbit)
        for evaluate in pointwise:
            evaluate(zeta0 * r * w, zeta0 / (r * w))
    assert calls.count("tau1 inverse") == calls.count("tau2 inverse") == 2 * n + 4
    assert calls.count("varphi inverse") == 2 * n + 2


def direct_sum(fam, xi, eta):
    """fam at (xi, eta) as the direct sum of a_ij xi**i eta**j, apart from
    the band form of `CoefficientFamily.eval` and the kernel."""
    out = np.zeros(np.broadcast(np.asarray(xi), np.asarray(eta)).shape, dtype=complex)
    for (i, j), v in fam.entries.items():
        out = out + v * xi**i * eta**j
    return out


def conjugated_reference(f, model, g):
    """phi_f . model . phi_g^{-1} at one point from the direct sums of f and
    g: c = g(e^{-ic} xi, e^{ic} eta) by plain iteration, which contracts for
    these small families."""

    def evaluate(xi, eta):
        c = 0j
        for _ in range(100):
            c = complex(direct_sum(g, np.exp(-1j * c) * xi, np.exp(1j * c) * eta))
        x, y = model(np.exp(-1j * c) * xi, np.exp(1j * c) * eta)
        fv = complex(direct_sum(f, x, y))
        return np.exp(1j * fv) * x, np.exp(-1j * fv) * y

    return evaluate


# Modes of both signs, one of them eta^80: on an axis, or at xi = 1e-4,
# each must come from powers of the coordinates, not of 1/xi.
AXIS_TP = TwistParams(alpha=1.3, s=1)
AXIS_A = CoefficientFamily({(1, 2): 0.1 + 0.05j, (0, 80): 0.3 - 0.1j, (3, 0): 0.05}, 1,
                           hermitian=True)
AXIS_ABAR = CoefficientFamily({(2, 1): 0.07, (0, 5): 0.1j, (80, 0): 0.2}, 1)
AXIS_POINTS = [(0j, 0j), (0j, 0.5 + 0j), (1e-4 + 0j, 0.9 + 0j), (0.3 + 0.1j, 0.4 - 0.2j)]


def reference_maps(a, tp, abar):
    """varphi, tau1, tau2 and phi = tau1 tau2 of `conjugated_reference`."""

    def half(xi, eta):
        return np.exp(0.5j * (tp.alpha + (xi * eta) ** tp.s))

    b = abar.scaled(-1.0)
    tau1 = conjugated_reference(a, lambda x, y: (half(x, y) * y, x / half(x, y)), a)
    tau2 = conjugated_reference(b, lambda x, y: (y / half(x, y), half(x, y) * x), b)
    varphi = conjugated_reference(a, lambda x, y: twist.twist_eval(tp, x, y),
                                  a.conjugated().scaled(-1.0))
    return varphi, tau1, tau2, lambda x, y: tau1(*tau2(x, y))


@pytest.mark.parametrize("point", AXIS_POINTS, ids=["origin", "eta-axis", "near-axis", "generic"])
def test_pointwise_maps_on_and_near_the_axes(point):
    got = [twist.make_varphi(AXIS_A, AXIS_TP), *build_involution_maps(AXIS_A, AXIS_TP, AXIS_ABAR)]
    for mine, ref in zip(got, reference_maps(AXIS_A, AXIS_TP, AXIS_ABAR)):
        x, y = mine(*point)
        rx, ry = ref(*point)
        assert abs(x - rx) <= 1e-15 and abs(y - ry) <= 1e-15
        if point == (0j, 0j):
            assert (x, y) == (0, 0)
    # eval is the kernel's Laurent sum of the bands of t = xi*eta, at the
    # point and at its turns (u xi, eta/u) on the same level set; the direct
    # sum agrees within a few ulp of sum |terms|.
    turns = np.exp(2j * np.pi * np.arange(5) / 5)
    xi, eta = point[0] * turns, point[1] / turns
    for fam in (AXIS_A, AXIS_ABAR):
        got = fam.eval(xi, eta)
        assert np.array_equal(got, twist._laurent(fam, fam._bands(xi * eta), xi, eta))
        scale = sum(np.abs(v * xi**i * eta**j) for (i, j), v in fam.entries.items())
        assert np.all(np.abs(got - direct_sum(fam, xi, eta)) <= 8 * np.finfo(float).eps * scale)


def huge_alpha(e):
    """alpha = (2 pi g - 2)/4 in float64, g = round(4 10^e / 2 pi): 4 alpha
    is -2 mod 2 pi up to the rounding of alpha."""
    g = round(4 * 10**e / (2 * math.pi))
    return (2 * math.pi * g - 2) / 4


def reduced_twin(alpha):
    """float(alpha mod 2 pi), the reduction taken in extended precision."""
    with mpmath.workdps(340):
        return float(mpmath.fmod(mpmath.mpf(alpha), 2 * mpmath.pi))


HUGE_FAMILY = CoefficientFamily({(4, 0): 0.05}, 1)
# Through e = 12 beta(4) stays within 1e-3 of -2.  Past it the rounding
# of alpha sets beta(4): near -pi at e = 20, 150 and 200, where an orbit
# leaves the polydisk.
HUGE_ALPHAS = {f"e={e}": huge_alpha(e) for e in (4, 5, 6, 7, 8, 9, 10, 11, 12, 20, 50, 100,
                                                  150, 200, 300, 307)}
HUGE_ALPHAS["alpha=1e308"] = 1e308
ESCAPES = ("e=20", "e=150", "e=200")
ESCAPE = re.compile(r"^varphi output: point modulus (\S+) escaped the unit polydisk$")


@pytest.mark.parametrize("key", HUGE_ALPHAS)
def test_huge_alpha_curve_is_its_reduced_twin(key):
    # The model turns by e^{i alpha} e^{i t^s}, so a huge alpha keeps its
    # twist: the curve is the one of alpha mod 2 pi, to rounding, in as
    # many steps, or both refuse with the same line.
    alpha = HUGE_ALPHAS[key]
    assert -math.pi < beta_reduce(4, alpha).beta < 0
    runs = []
    for a in (alpha, reduced_twin(alpha)):
        try:
            runs.append(periodic_curve(HUGE_FAMILY, TwistParams(alpha=a, s=1), 4, 2, grid_size=64))
        except DomainError as exc:
            runs.append(exc)
    got, twin = runs
    if key in ESCAPES:
        # The same line, up to the rounding of the modulus it prints.
        m, mt = ESCAPE.match(str(got)), ESCAPE.match(str(twin))
        assert m and mt and abs(float(m[1]) - float(mt[1])) <= 1e-12
        return
    assert got.steps == twin.steps
    assert max(abs(z - zt) for (_, z), (_, zt) in zip(got.samples, twin.samples)) <= 1e-12
