"""The orbit kernel: each orbit carried on its integral t = xi eta, h read
as the orbit's phase sum over n zeta^{2s}."""

import math

import mpmath
import numpy as np
import pytest

from revtwist import surface, twist
from revtwist.families import CoefficientFamily
from revtwist.obstruction import divergence_witness, select_resonant_n
from revtwist.surface import build_involution_maps
from revtwist.twist import (
    HypothesisViolation,
    TwistParams,
    _beta_window,
    beta_reduce,
    h_eval,
    iterate,
    solve_branch,
)

U = 2.0**-53  # unit roundoff of float64
SQRT5 = math.sqrt(5.0)
# A product or quotient of two complex numbers is taken within 4u
# relative (sqrt(5) u for the product), and a complex exp within 6u: two
# ulps in each part.
PRODUCT, EXP = 4.0, 6.0


def phase_sum_oracle(a, tp, n, zeta, w, dps=40):
    """The exact orbit of the kernel's start point (the float products
    zeta w and zeta / w), at dps digits: h = Sigma / (n zeta^{2s}), and S,
    the sum over the steps of |f_k| + |c_k| taken term by term, and the
    largest d sum |g-terms| of the inverse exponent (d the largest mode)."""
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
            worst = 0
            for _ in range(n):
                c = mpmath.mpc(0)
                for _ in range(200):
                    u = mpmath.expj(-c)
                    terms = [v * (u * x) ** i * (t / (u * x)) ** j for (i, j), v in g.items()]
                    c_new = mpmath.fsum(terms)
                    if abs(c_new - c) < mpmath.mpf(10) ** (-dps + 2):
                        break
                    c = c_new
                c = c_new
                S += sum(abs(v) for v in terms)
                worst = max(worst, d * sum(abs(v) for v in terms))
                x = turn * mpmath.expj(-c) * x
                terms = [v * x**i * (t / x) ** j for (i, j), v in a.entries.items()]
                f = mpmath.fsum(terms)
                S += sum(abs(v) for v in terms)
                x = mpmath.expj(f) * x
                total += f - c
            h = total / (n * mpmath.mpc(complex(z)) ** (2 * tp.s))
            out.append((complex(h), float(S), float(worst), float(abs(t))))
    return out


def phase_sum_bound(a, tp, n, zeta, S, abs_t):
    """First-order rounding bound on h from the accumulated S.

    Per step the kernel turns xi by three rounded unit factors (e^{i omega},
    e^{-ic}, e^{if}; omega itself off by u (|alpha| + |t|^s) and by the
    rounding of t, s sqrt5 u |t|^s) through three products, so after k
    steps the point's phase is off by at most k rho u,
    rho = |alpha| + (1 + 2 s sqrt5)|t|^s + 3 EXP + 3 sqrt5.  A phase error e
    moves f by at most d e |f| (d the largest mode |i - j|) and c by at most
    2 d e |c| while d |c| <= 1/2: at most 2 n d rho u S over the orbit.
    (eta, advanced by the reciprocal factors, carries the same phase error
    with its sign flipped.)  Each f and c is a sum of m terms a x^k t^j or
    a eta^{-k} t^i built by squaring, within
    (sqrt5 (2D + 1) + m) u of their term sums (D the largest degree i + j),
    and c at most twice that through Newton's solve, plus 4u of its own
    arithmetic.  The n additions of Sigma add (n + 1) u S, and the
    division by n zeta^{2s} (2s + 8) u |Sigma|.
    """
    d = max(abs(i - j) for i, j in a.entries)
    D = max(i + j for i, j in a.entries)
    m = len(a.entries)
    s = tp.s
    rho = abs(tp.alpha) + (1 + 2 * s * SQRT5) * abs_t**s + 3 * EXP + 3 * SQRT5
    local = SQRT5 * (2 * D + 1) + m + 4
    C = 2 * n * d * rho + (n + 1) + 2 * local + 2 * s + 8
    return C * U * S / (n * abs(zeta) ** (2 * s))


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
    for got, (want, S, worst, abs_t) in zip(h, phase_sum_oracle(fam, tp, n, zeta0, w)):
        assert worst <= 0.5
        assert abs(got - want) <= phase_sum_bound(fam, tp, n, zeta0, S, abs_t)


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
    # (omega off by u |alpha| + (1 + s sqrt5) u |t|^s in all), six exps
    # and six products or quotients; the end point adds beta, n t^s, one
    # exp, one product, one quotient and the log, and log(1 + p) at most
    # doubles an error in p for |p| <= 1/2.  The phase sum's own error is
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
        rho = abs(tp.alpha) + (1 + tp.s * SQRT5) * abs_t**tp.s + 6 * EXP + 6 * PRODUCT
        end = abs(beta) + n * (1 + tp.s * SQRT5) * abs_t**tp.s + EXP + 3 * PRODUCT
        bound = 2 * (n * rho + end) * U / (n * abs(zeta) ** (2 * tp.s))
        assert float(np.abs(p).max()) <= 0.5
        assert float(np.abs(h - direct).max()) <= bound


def conjugated_reference(f, model, g):
    """phi_f . model . phi_g^{-1} at one point from `CoefficientFamily.eval`:
    c = g(e^{-ic} xi, e^{ic} eta) by plain iteration, which contracts for
    these small families."""

    def evaluate(xi, eta):
        c = 0j
        for _ in range(100):
            c = complex(g.eval(np.exp(-1j * c) * xi, np.exp(1j * c) * eta))
        x, y = model(np.exp(-1j * c) * xi, np.exp(1j * c) * eta)
        fv = complex(f.eval(x, y))
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
        return np.exp(0.5j * tp.omega(xi * eta))

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


def test_rotation_that_absorbs_the_twist_is_a_hypothesis_violation():
    # alpha = 1e308 leaves beta(4) in (-pi, 0), but alpha + zeta0^2 rounds
    # to alpha: no twist is left for the curve to balance.
    tp = TwistParams(alpha=1e308, s=1)
    rd = beta_reduce(4, tp.alpha)
    assert -math.pi < rd.beta < 0
    zeta0_2s = -rd.beta / 4
    with pytest.raises(HypothesisViolation,
                       match=rf"^alpha = 1\.000000e\+308 absorbs zeta0\^2 = "
                             rf"{zeta0_2s:.6e} in float64"):
        _beta_window(tp, 4)
