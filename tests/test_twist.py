"""Pointwise twist dynamics: reduction, evaluators, constants, branch solver."""

import cmath
import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtwist.families import CoefficientFamily, _band_terms, _power_table
from revtwist.twist import (
    CurveDomain,
    DomainError,
    HypothesisViolation,
    SolverError,
    TwistParams,
    beta_reduce,
    calibration_family,
    compute_constants,
    h_eval,
    iterate,
    majorant_sequence,
    make_varphi,
    measurable_ring,
    periodic_curve,
    solve_branch,
    twist_eval,
)
from revtwist.twist import (
    _beta_window,
    _d0,
    _exponent_fixed_point,
    _mode_bounds,
    _newton_certified,
    _secant_update,
    _solve_branch,
    _step_bound,
)
from test_orbit_kernel import AXIS_A


U = 2.0**-53  # unit roundoff of float64
KAPPA = 2.0  # the exit's certified truncation is KAPPA U A0
# A product or quotient of two complex numbers is taken within 4u
# relative, and a complex exp within 6u: two ulps in each part.
PRODUCT, EXP = 4.0, 6.0


def resonant_alpha(n, g, beta):
    """alpha with n*alpha = 2 g pi + beta exactly (to double rounding)."""
    return (2 * g * math.pi + beta) / n


def random_hermitian_family(rng, s, degrees, scale):
    ent = {}
    for d in degrees:
        for i in range(d + 1):
            j = d - i
            if (i, j) in ent or (j, i) in ent:
                continue
            if i == j:
                ent[(i, j)] = scale * rng.standard_normal()
            else:
                c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
                ent[(i, j)] = c
                ent[(j, i)] = np.conj(c)
    return CoefficientFamily(ent, s, hermitian=True)


# `revtwist obstruct --alpha 1.4660520412407083 --s 2 --schedule-count 2
# --n-max 400 --hermitian` schedules n = 30, where zeta0 = 0.07 puts the
# rounding floor of a solver step at 1.6e-13, above 1e-13.
FLOOR_ALPHA = 1.4660520412407083
FLOOR_FAMILY = CoefficientFamily({
    (5, 0): complex(-0.019848387910666, 0.025145008821470),
    (5, 1): complex(0.0037930366559, 0.0158341263749),
    (5, 2): complex(-0.0221637009443, -0.0415694122349),
}, 2, hermitian=True)


class TestBetaReduce:
    def test_small_n_examples(self):
        rd = beta_reduce(1, 0.1)
        assert rd.g == 0 and abs(rd.beta - 0.1) < 1e-15

        rd = beta_reduce(2, math.pi - 0.05)
        assert rd.g == 1
        assert abs(rd.beta + 0.1) < 1e-14

    def test_large_n_against_independent_reduction(self):
        n, alpha = 10**6, math.sqrt(2)
        rd = beta_reduce(n, alpha)
        with mpmath.workdps(60):
            x = mpmath.mpf(n) * mpmath.mpf(alpha)
            k = mpmath.floor(x / (2 * mpmath.pi))
            b = x - 2 * k * mpmath.pi
            if b > mpmath.pi:
                b -= 2 * mpmath.pi
                k += 1
            assert rd.g == int(k)
            assert abs(rd.beta - float(b)) < 1e-12
        # the true-irrational reduction differs only by n * (sqrt(2) - float)
        with mpmath.workdps(60):
            x = mpmath.mpf(n) * mpmath.sqrt(2)
            b = x - 2 * mpmath.floor(x / (2 * mpmath.pi)) * mpmath.pi
            if b > mpmath.pi:
                b -= 2 * mpmath.pi
        assert abs(rd.beta - float(b)) < 1e-6

    def test_reconstruction_identity(self):
        for n, alpha in [(3, 1.9), (97, 0.4777), (12345, 2.71)]:
            rd = beta_reduce(n, alpha)
            assert -math.pi < rd.beta < math.pi
            with mpmath.workdps(40):
                err = mpmath.mpf(n) * mpmath.mpf(alpha) - 2 * rd.g * mpmath.pi - mpmath.mpf(rd.beta)
            assert abs(float(err)) < 1e-12

    def test_huge_product_against_independent_reduction(self):
        # 3 * 6e307 overflows float64; the digit count is taken in log space.
        n, alpha = 3, 6e307
        rd = beta_reduce(n, alpha)
        with mpmath.workdps(700):
            x = mpmath.mpf(n) * mpmath.mpf(alpha)
            g = mpmath.floor((x + mpmath.pi) / (2 * mpmath.pi))
            assert rd.g == int(g)
            assert rd.beta == float(x - 2 * g * mpmath.pi)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="branch cut"):
            beta_reduce(1, math.pi)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            beta_reduce(0, 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            beta_reduce(5, alpha)


class TestTwistParams:
    def test_validation(self):
        for bad_s in (0, 1.5, True, "2"):
            with pytest.raises(ValueError, match=r"^s must be (an integer|at least 1), got "):
                TwistParams(alpha=0.1, s=bad_s)
        tp = TwistParams(alpha=0.1, s=np.int64(2))
        assert tp.s == 2 and type(tp.s) is int
        with pytest.raises(ValueError):
            TwistParams(alpha=0.1, s=1, R=1.0)
        with pytest.raises(ValueError):
            TwistParams(alpha=0.1, s=1, m0=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                TwistParams(alpha=bad, s=1)
            with pytest.raises(ValueError, match="m0"):
                TwistParams(alpha=0.1, s=1, m0=bad)

    @pytest.mark.parametrize("alpha", [0.3, -2.9, 1e4, 1e308])
    @pytest.mark.parametrize("s", [1, 2])
    def test_turn(self, alpha, s):
        # For real t the turn is a unit factor, its half turn squares to it
        # and its inverse turn cancels it, each within a few ulp, whatever
        # the size of alpha.
        tp = TwistParams(alpha=alpha, s=s)
        t = np.linspace(-0.9, 0.9, 13)
        eps = np.finfo(float).eps
        one = tp.turn(t)
        assert np.all(np.abs(np.abs(one) - 1.0) <= 4 * eps)
        assert np.all(np.abs(tp.turn(t, 0.5) ** 2 - one) <= 8 * eps)
        assert np.all(np.abs(one * tp.turn(t, -1) - 1.0) <= 8 * eps)
        if alpha == 0.3:
            assert abs(complex(tp.turn(0.01)) - cmath.exp(1j * (0.3 + 0.01**s))) <= 4 * eps


class TestVarphi:
    def test_a_zero_is_twist(self):
        tp = TwistParams(alpha=0.7, s=1)
        fam = CoefficientFamily({}, 1)
        xi, eta = 0.1 + 0.05j, 0.12 - 0.01j
        got = make_varphi(fam, tp)(xi, eta)
        want = twist_eval(tp, xi, eta)
        assert abs(complex(got[0]) - complex(want[0])) < 1e-16
        assert abs(complex(got[1]) - complex(want[1])) < 1e-16

    def test_kappa_invariance(self):
        rng = np.random.default_rng(7)
        tp = TwistParams(alpha=1.1, s=1)
        fam = random_hermitian_family(rng, 1, [3, 4], 0.1)
        v = make_varphi(fam, tp)
        xi = 0.08 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        eta = 0.08 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        x2, e2 = v(xi, eta)
        kappa = xi * eta
        assert np.max(np.abs(x2 * e2 - kappa) / np.abs(kappa)) < 1e-12

    def test_overflow_guard(self):
        tp = TwistParams(alpha=0.7, s=1)
        fam = CoefficientFamily({}, 1)
        with pytest.raises(DomainError, match="unit polydisk"):
            make_varphi(fam, tp)(1.5, 0.1)

    def test_nan_input_fails_the_guard(self):
        fam = CoefficientFamily({(3, 0): 0.1}, 1)
        tp = TwistParams(1.0, 1)
        for point in ((0.5, math.nan), (math.nan, 0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="varphi input"):
                    make_varphi(fam, tp)(*point)

    def test_one_step_linearization(self):
        # first order in the family: p = i a(xi e^{iw}, eta e^{-iw}) + i a_conj(xi, eta)
        tp = TwistParams(alpha=resonant_alpha(7, 1, -0.2), s=1)
        fam = CoefficientFamily(
            {(3, 0): 0.3 + 0.1j, (0, 3): 0.3 - 0.1j, (2, 1): 0.05j, (1, 2): -0.05j},
            1, hermitian=True,
        )
        xi, eta = 0.11 + 0.03j, 0.07 - 0.02j
        om = tp.alpha + (xi * eta) ** tp.s

        def p_of(t):
            x2, _ = make_varphi(fam.scaled(t), tp)(xi, eta)
            return complex(x2) * np.exp(-1j * om) / xi - 1

        eps = 1e-6
        fd = (p_of(eps) - p_of(-eps)) / (2 * eps)
        pred = 1j * (
            complex(fam.eval(xi * np.exp(1j * om), eta * np.exp(-1j * om)))
            + complex(fam.conjugated().eval(xi, eta))
        )
        assert abs(fd - pred) < 1e-3 * abs(pred)

    def test_reversible_under_conjugation(self):
        # phi(tau(phi(tau(z)))) = z with tau = componentwise conjugation,
        # checked on the real slice eta = conj(xi)
        rng = np.random.default_rng(11)
        tp = TwistParams(alpha=0.9, s=1)
        fam = random_hermitian_family(rng, 1, [3, 5], 0.2)
        v = make_varphi(fam, tp)
        xi = 0.1 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        eta = np.conj(xi)
        x1, e1 = v(np.conj(xi), np.conj(eta))
        x2, e2 = v(np.conj(x1), np.conj(e1))
        assert np.max(np.abs(x2 - xi)) < 1e-11
        assert np.max(np.abs(e2 - eta)) < 1e-11


class TestIterate:
    def test_twist_closed_form(self):
        tp = TwistParams(alpha=0.37, s=2)
        xi, eta = 0.21 + 0.02j, 0.18 - 0.05j
        n = 137
        xin, etan = iterate(lambda x, e: twist_eval(tp, x, e), n, (xi, eta))
        om = tp.alpha + (xi * eta) ** tp.s
        assert abs(complex(xin) - xi * np.exp(1j * n * om)) < 1e-12
        assert abs(complex(etan) - eta * np.exp(-1j * n * om)) < 1e-12

    def test_matches_successive_calls(self):
        rng = np.random.default_rng(3)
        tp = TwistParams(alpha=1.3, s=1)
        fam = random_hermitian_family(rng, 1, [3], 0.15)
        v = make_varphi(fam, tp)
        pt = (0.09 + 0.01j, 0.07 - 0.03j)
        xin, etan = iterate(v, 5, pt)
        x, e = pt
        for _ in range(5):
            x, e = v(x, e)
        assert complex(xin) == complex(x) and complex(etan) == complex(e)

    def test_kappa_preserved_along_orbit(self):
        rng = np.random.default_rng(5)
        tp = TwistParams(alpha=0.8, s=1)
        fam = random_hermitian_family(rng, 1, [3, 4], 0.1)
        n = 200
        xi, eta = 0.1 + 0.02j, 0.09 - 0.04j
        xin, etan = iterate(make_varphi(fam, tp), n, (xi, eta))
        assert abs(complex(xin * etan) - xi * eta) < 1e-12 * n * abs(xi * eta)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            iterate(lambda x, e: (x, e), 0, (0.1, 0.1))


class TestConstants:
    def test_d0_example(self):
        tp = TwistParams(alpha=0.1, s=1, m0=1.0, R=0.5)
        # min{ 2^-12/8, (1/200)^(1/2), 1/32 } = 1/32768
        assert _d0(tp, 100) == 1.0 / 32768.0

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("m0", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("R", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 10, 316, 4096])
    def test_d0_bracket_grid(self, s, m0, R, n):
        tp = TwistParams(alpha=0.1, s=s, m0=m0, R=R)
        d0 = _d0(tp, n)
        assert d0 <= R / 16.0
        c1 = 0.5 * n * d0 ** (2 * s)
        # n d0^{2s} hits 1/2 exactly when the (2n)^{-1/(2s)} term is the min
        assert c1 < n * d0 ** (2 * s) <= 0.5 + 1e-14

    def test_full_pipeline_example(self):
        tp = TwistParams(alpha=0.1, s=1, m0=1.0, R=0.5)
        dom = compute_constants(tp, 100)
        assert dom.d0 == 1.0 / 32768.0
        assert dom.c2 < dom.c1
        assert dom.epsilon0 == dom.c2
        assert dom.delta == (dom.c2 / 4.0) ** 2
        assert dom.r0 == 0.5 * dom.epsilon0 * 100 ** -0.5
        assert dom.r0 < dom.d0 / 2

    def test_measurable_r0_case(self):
        # parameters where the solver disk itself sits above the float noise
        tp = TwistParams(alpha=0.31, s=1, m0=0.01, R=0.9)
        dom = compute_constants(tp, 2000)
        assert dom.r0 > measurable_ring(1)

    def test_rouche_region(self):
        for tp, n in [
            (TwistParams(alpha=0.1, s=1, m0=1.0, R=0.5), 100),
            (TwistParams(alpha=0.31, s=1, m0=0.01, R=0.9), 2000),
        ]:
            dom = compute_constants(tp, n)
            beta = -0.999 * dom.delta
            zeta0 = (-beta / n) ** (1.0 / (2 * tp.s))
            assert zeta0 < dom.r0 / 2

    def test_curve_domain_validation(self):
        with pytest.raises(ValueError, match="r0"):
            CurveDomain(epsilon0=0.1, delta=(0.1 / 4) ** 2, r0=0.3, d0=0.5, n=1, c1=1.0, c2=0.1)

    def test_calibration_family_ceiling(self):
        tp = TwistParams(alpha=0.1, s=1, m0=2.0, R=0.3)
        fam = calibration_family(tp)
        assert fam.s == 1
        assert min(i + j for i, j in fam.entries) == 3
        # ceilings may exceed the unit modulus cap, which regular validation forbids
        assert fam.entries[(3, 0)] == 2.0 / (4.0 * 0.6**3) > 1.0
        assert fam.entries[(2, 2)] == 2.0 / (4.0 * 0.6**4)


class TestHEval:
    def test_a_zero_vanishes_to_noise(self):
        tp = TwistParams(alpha=resonant_alpha(100, 7, -1e-4), s=1)
        fam = CoefficientFamily({}, 1)
        h = h_eval(1e-3, 1.2 + 0.4j, fam, tp, 100)
        assert abs(complex(h)) < 1e-8

    def test_quarter_bound_inside_solver_disk(self):
        # r0 here is large enough to sample directly
        tp = TwistParams(alpha=0.31, s=1, m0=0.01, R=0.9)
        n = 2000
        dom = compute_constants(tp, n)
        fam = calibration_family(tp)
        rng = np.random.default_rng(13)
        zeta = dom.r0 * (0.2 + 0.8 * rng.random(24)) * np.exp(2j * np.pi * rng.random(24))
        w = (0.6 + 0.9 * rng.random(24)) * np.exp(2j * np.pi * rng.random(24))
        h = h_eval(zeta, w, fam, tp, n)
        assert float(np.abs(h).max()) <= 0.25

    def test_pn_domain_violation(self):
        # alpha + zeta^2 = 0 mod 2pi makes the degree-3 modes push the phase
        # coherently, while the real-slice point keeps |xi| pinned at 0.35
        tp = TwistParams(alpha=2 * math.pi - 0.1225, s=1)
        fam = CoefficientFamily({(3, 0): 0.2, (0, 3): 0.2}, 1, hermitian=True)
        with pytest.raises(DomainError, match="p_n"):
            h_eval(0.35, 1.0, fam, tp, 60)

    def test_zero_zeta_rejected(self):
        tp = TwistParams(alpha=0.5, s=1)
        with pytest.raises(DomainError):
            h_eval(0.0, 1.0, CoefficientFamily({}, 1), tp, 3)

    def test_orbit_sum_linearization(self):
        # h to first order: (1/(i n zeta^{2s})) sum_k p_lin(orbit point k)
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.2), s=1)
        fam = CoefficientFamily(
            {(3, 0): 0.3 + 0.1j, (0, 3): 0.3 - 0.1j, (2, 1): 0.05j, (1, 2): -0.05j},
            1, hermitian=True,
        )
        ab = fam.conjugated()
        z, w = 0.08 + 0.01j, 1.1 + 0.2j

        def h_of(t):
            return complex(h_eval(z, w, fam.scaled(t), tp, n))

        eps = 1e-5
        fd = (h_of(eps) - h_of(-eps)) / (2 * eps)
        xi, eta = z * w, z / w
        u = np.exp(1j * (tp.alpha + (xi * eta) ** tp.s))
        acc = 0.0
        for k in range(n):
            xk, ek = xi * u**k, eta * u ** (-k)
            omk = tp.alpha + (xk * ek) ** tp.s
            acc += 1j * (
                complex(fam.eval(xk * np.exp(1j * omk), ek * np.exp(-1j * omk)))
                + complex(ab.eval(xk, ek))
            )
        pred = acc / (1j * n * z**2)
        assert abs(fd - pred) < 1e-3 * abs(pred)


class TestSolveBranch:
    def test_a_zero_exact_circle(self):
        n = 100
        tp = TwistParams(alpha=resonant_alpha(n, 7, -1e-4), s=1)
        fam = CoefficientFamily({}, 1)
        z = solve_branch(fam, tp, n, 2, 1.0 + 0.0j)
        assert abs(z - 1e-3) < 1e-12
        # independent of w
        zs = solve_branch(fam, tp, n, 2, np.exp(2j * np.pi * np.arange(5) / 5))
        assert np.max(np.abs(zs - 1e-3)) < 1e-12

    def test_branch_phases(self):
        n = 100
        tp = TwistParams(alpha=resonant_alpha(n, 7, -1e-4), s=1)
        fam = CoefficientFamily({}, 1)
        z1 = solve_branch(fam, tp, n, 1, 1.0 + 0.0j)
        assert abs(z1 + 1e-3) < 1e-12

    def test_perturbed_return_residual(self):
        rng = np.random.default_rng(23)
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = random_hermitian_family(rng, 1, [3, 4], 0.05)
        w = np.exp(2j * np.pi * np.arange(6) / 6)
        zeta = solve_branch(fam, tp, n, 2, w)
        v = make_varphi(fam, tp)
        xi, eta = zeta * w, zeta / w
        xin, etan = iterate(v, n, (xi, eta))
        assert float(np.abs(xin - xi).max()) < 1e-10
        assert float(np.abs(etan - eta).max()) < 1e-10

    def test_branch_symmetry(self):
        # zeta_{j+s}(-w) = -zeta_j(w), inherited from (zeta, w) -> (-zeta, -w)
        rng = np.random.default_rng(29)
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = random_hermitian_family(rng, 1, [3, 4], 0.05)
        w = 1.2 * np.exp(0.7j)
        z1 = solve_branch(fam, tp, n, 1, w)
        z2 = solve_branch(fam, tp, n, 2, -w)
        assert abs(z2 + z1) < 1e-12

    def test_branch_symmetry_s2(self):
        n = 9
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.02), s=2)
        fam = CoefficientFamily({(5, 0): 0.02, (0, 5): 0.02}, 2, hermitian=True)
        w = 0.9 * np.exp(1.1j)
        for j in [1, 2]:
            zj = solve_branch(fam, tp, n, j, w)
            zjs = solve_branch(fam, tp, n, j + 2, -w)
            assert abs(zjs + zj) < 1e-12

    def test_hypothesis_violations(self):
        n = 100
        fam = CoefficientFamily({}, 1)
        tp_pos = TwistParams(alpha=resonant_alpha(n, 7, 0.1), s=1)
        with pytest.raises(HypothesisViolation, match="outside"):
            solve_branch(fam, tp_pos, n, 2, 1.0 + 0.0j)
        tp_neg = TwistParams(alpha=resonant_alpha(n, 7, -0.2), s=1)
        with pytest.raises(ValueError, match="branch index"):
            solve_branch(fam, tp_neg, n, 3, 1.0 + 0.0j)
        with pytest.raises(ValueError, match="annulus"):
            solve_branch(fam, tp_neg, n, 2, 2.5 + 0.0j)

    def test_empty_w_is_refused(self):
        # numpy's max has no identity on an empty array: refuse at the boundary.
        tp = TwistParams(alpha=resonant_alpha(4, 1, -0.2), s=1)
        with pytest.raises(ValueError, match="one or more points of the annulus"):
            solve_branch(CoefficientFamily({}, 1), tp, 4, 2, np.array([]))

    def test_bool_branch_index_is_refused(self):
        # operator.index(True) == 1, so a bool would pass as branch 1.
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = CoefficientFamily({(3, 0): 0.02}, 1)
        for j in (True, False):
            with pytest.raises(ValueError, match=rf"^branch index must be an integer, got {j!r}$"):
                solve_branch(fam, tp, n, j, 1.0)
            with pytest.raises(ValueError, match="branch index"):
                periodic_curve(fam, tp, n, j, grid_size=16, K=4)
        # one bad index refuses the whole batch
        with pytest.raises(ValueError, match="branch index"):
            _solve_branch(fam, tp, n, (1, 2, 3), np.ones(4), None)

    def test_batched_rows_match_single_branch_solves(self):
        # Every branch and point of this input takes the same solver steps,
        # so each row is its single-branch solve bitwise, and a scalar w,
        # solved as a one-point array, gives that point of the row.
        n = 9
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.02), s=2)
        fam = CoefficientFamily({(5, 0): 0.02, (0, 5): 0.02}, 2, hermitian=True)
        w = 0.9 * np.exp(2j * np.pi * np.arange(5) / 5)
        zeta, _, ret, _ = _solve_branch(fam, tp, n, (4, 1, 2), w, None)
        assert zeta.shape == (3, 5) and ret < 1e-10
        for row, j in zip(zeta, (4, 1, 2)):
            assert row.tobytes() == solve_branch(fam, tp, n, j, w).tobytes()
            assert solve_branch(fam, tp, n, j, w[2]) == row[2]


GATE_N = 5
GATE_TP = TwistParams(alpha=resonant_alpha(GATE_N, 1, -0.1), s=1)
GATE_R2 = _beta_window(GATE_TP, GATE_N)[1] ** 2  # zeta0^2


def twist_with_h(H, eta_turn=0.0):
    """The twist of GATE_TP turned by a further t H(t) per step, in the orbit
    kernel's step contract: on the level set xi eta = t the step returns
    the point, its phase t H(t) beyond omega(t) and the radii it was
    handed, with eta turned by eta_turn more.  The phase sum over n zeta^2 is h = H(zeta^2) (s = 1);
    h reads the phases alone, so eta_turn only spoils the n-step return."""

    def orbit(t):
        phase = t * H(t)
        ph = np.exp(1j * (GATE_TP.alpha + t**GATE_TP.s + phase))

        def step(xi, eta, radii):
            return ph * xi, eta / ph * np.exp(1j * eta_turn), phase, radii

        return step

    return orbit


class TestCurveGates:
    """One injected map per gate of the curve solver, each reaching it first.
    Each is given in the orbit kernel's step contract (`twist_with_h`)."""

    def solve(self, orbit):
        return periodic_curve(CoefficientFamily({}, 1), GATE_TP, GATE_N, 2,
                              grid_size=8, K=2, _orbit=orbit)

    def test_h_above_one_half(self):
        # |p_n| = 0.06 stays inside the validated region, but h = 0.6
        with pytest.raises(DomainError, match=r"^\|h\| > 1/2: contraction hypothesis lost$"):
            self.solve(twist_with_h(lambda t: 0.6 + 0 * t))

    def test_no_convergence_in_50_steps(self):
        # The equation has no root: T(zeta) = zeta0 (1 + h)^{-1/2} lies
        # inside the circle |zeta| = zeta0 from outside it and outside from
        # inside, so no step rule settles (the last step is near 1e-2)
        with pytest.raises(SolverError, match=r"^no convergence in 50 iterations; last step "):
            self.solve(twist_with_h(lambda t: np.where(np.abs(t) > GATE_R2, 0.2, -0.2)))

    def test_equation_residual(self):
        # h = 4e-13 at the start radius makes a first step below the 1e-13
        # stopping bound, but just inside it h jumps to 1e-3: the last h
        # evaluation, at the accepted zeta, misses the equation by ~7e-5
        def H(t):
            return np.where(np.abs(t) >= GATE_R2 * (1 - 1e-13), 4e-13, 1e-3)

        with pytest.raises(SolverError, match=r"^equation residual .* exceeds 1e-12$"):
            self.solve(twist_with_h(H))

    def test_n_step_return(self):
        # the unperturbed curve solves its equation, but eta drifts 1e-6 per step
        with pytest.raises(SolverError, match=r"^n-step return residual .* exceeds 1e-10$"):
            self.solve(twist_with_h(lambda t: 0 * t, eta_turn=1e-6))

    def test_the_unturned_map_passes_every_gate(self):
        crv = self.solve(twist_with_h(lambda t: 0 * t))
        assert crv.residual < 1e-10


def picard_curve(fam, tp, n, j, w):
    """The curve solver's former step rule zeta <- T(zeta), with the same
    start and stop test but 200 steps: the samples and the h evaluations
    it made."""
    _, zeta0 = _beta_window(tp, n)
    target = complex(np.exp(1j * j * math.pi / tp.s)) * zeta0
    bound = _step_bound(zeta0, tp.s)
    zeta = np.full(w.shape, target)
    for steps in range(1, 201):
        h = h_eval(zeta, w, fam, tp, n)
        znew = target * np.exp(-np.log(1.0 + h) / (2 * tp.s))
        step = np.abs(znew - zeta).max()
        zeta = znew
        if step <= bound:
            return zeta, steps
    raise SolverError("the Picard oracle did not converge")


# (family, twist, n, j, h evaluations of the Picard oracle and of the
# solver) on a 64-point grid
SECANT_INPUTS = {
    "readme-library": (CoefficientFamily({(4, 0): 0.05, (0, 4): 0.05}, 1, hermitian=True),
                       TwistParams(alpha=(4 * math.pi - 2.0) / 4, s=1), 4, 2, 37, 7),
    "readme-curve": (CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1),
                     TwistParams(alpha=2.8915926535897931, s=1), 4, 2, 10, 5),
    "s2-two-modes": (CoefficientFamily({(8, 0): 0.05, (0, 8): 0.05}, 2, hermitian=True),
                     TwistParams(alpha=(4 * math.pi - 1.25) / 8, s=2), 8, 4, 14, 5),
    "s1-n40-hermitian": (CoefficientFamily({(3, 0): 0.02, (0, 3): 0.02}, 1, hermitian=True),
                         TwistParams(alpha=resonant_alpha(40, 7, -0.2), s=1), 40, 2, 2, 2),
}


class TestSecantStep:
    @pytest.mark.parametrize("fam, tp, n, j, picard_steps, secant_steps",
                             SECANT_INPUTS.values(), ids=SECANT_INPUTS)
    def test_agrees_with_picard(self, fam, tp, n, j, picard_steps, secant_steps):
        # Both rules stop on a step within the bound, so their roots agree
        # to a few bounds; the secant loop gets there in fewer h evaluations.
        crv = periodic_curve(fam, tp, n, j, grid_size=64, K=16)
        w = np.array([wv for wv, _ in crv.samples])
        zeta, steps = picard_curve(fam, tp, n, j, w)
        assert (steps, crv.steps) == (picard_steps, secant_steps)
        got = np.array([zv for _, zv in crv.samples])
        assert np.abs(got - zeta).max() <= 4 * _step_bound(crv.zeta0, tp.s)

    def test_secant_step_only_where_r_moved_above_its_floor(self):
        # Point 0 repeats R exactly, point 1 moved R by less than 4 floors,
        # point 2 is a first iterate (no previous R), point 3 takes the
        # secant step.
        floor = 1e-16
        zeta = np.array([0.5, 0.5, 0.7, 0.6], dtype=complex)
        zeta_prev = np.array([0.4, 0.45, 0.7, 0.65], dtype=complex)
        r = np.array([0.1, 1e-12, 0.02, 0.03], dtype=complex)
        r_prev = np.array([0.1, 1e-12 + 3e-16, math.nan, 0.05], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _secant_update(zeta, r, zeta_prev, r_prev, floor)
        assert got[:3].tolist() == (zeta[:3] + r[:3]).tolist()
        assert abs(got[3] - (0.6 - 0.03 * -0.05 / -0.02)) < 1e-15

    @pytest.mark.parametrize("b", [1.61, 1.62, 1.64, 1.67, 1.71, 1.72, 2.20, 2.23,
                                   2.24, 2.26, 2.30, 2.35, 2.36, 2.37, 2.40])
    def test_readme_library_family_where_r_sits_at_its_floor(self, b):
        # R sits at its rounding floor at some grid points here: a secant
        # step there would divide rounding noise by rounding noise and send
        # the next orbit out of the polydisk.  The Picard oracle converges.
        fam, tp = SECANT_INPUTS["readme-library"][0], TwistParams(alpha=(4 * math.pi - b) / 4, s=1)
        crv = periodic_curve(fam, tp, 4, 2)
        assert crv.residual <= 1e-10 and crv.steps <= 8
        w = np.array([wv for wv, _ in crv.samples])
        zeta, _ = picard_curve(fam, tp, 4, 2, w)
        got = np.array([zv for _, zv in crv.samples])
        assert np.abs(got - zeta).max() <= _step_bound(crv.zeta0, tp.s)

    @pytest.mark.parametrize("alpha, a", [
        (2.4909446165996454, 0.005667673854954483 + 0.008238778615417785j),
        (2.492312360818099, -0.003387585427003907 - 0.009408733441582388j),
    ])
    def test_witness_curves_where_r_sits_at_its_floor(self, alpha, a):
        # Two witness rows of a linear q = 5 family at n = 5 on 4n points.
        fam = CoefficientFamily({(5, 0): a, (0, 5): a.conjugate()}, 1, hermitian=True)
        crv = periodic_curve(fam, TwistParams(alpha=alpha, s=1), 5, 2, grid_size=20, K=9)
        assert crv.residual <= 1e-10

    def test_every_refusal_is_an_oracle_refusal(self):
        # The README family over b = 0.20, 0.25, ..., 3.00 on 64 points: the
        # rule refuses only where |p_n| > 1/2 (b >= 2.7, b = 2.8 among them).
        # The Picard oracle refuses each of these too, at b = 2.7 by
        # cycling without convergence and elsewhere at |p_n| > 1/2.
        fam, w = SECANT_INPUTS["readme-library"][0], np.exp(2j * np.pi * np.arange(64) / 64)
        refused = []
        for b in np.round(np.arange(0.2, 3.01, 0.05), 2):
            tp = TwistParams(alpha=(4 * math.pi - b) / 4, s=1)
            try:
                periodic_curve(fam, tp, 4, 2, grid_size=64, K=16)
            except DomainError as exc:
                refused.append(float(b))
                assert str(exc).startswith("|p_n| = ")
                with pytest.raises((DomainError, SolverError)):
                    picard_curve(fam, tp, 4, 2, w)
        assert refused == [2.7, 2.75, 2.8, 2.85, 2.9, 2.95, 3.0]


class TestPeriodicCurve:
    def test_return_test_reads_the_last_orbit(self, monkeypatch):
        # Every map step belongs to the orbit of one h evaluation: the n-step
        # return test reuses the orbit of the final one.  The map is varphi
        # in the orbit kernel's step contract, counted.
        from revtwist import twist

        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = CoefficientFamily({(7, 0): 0.05, (3, 0): 0.02 + 0.01j, (1, 3): -0.03j}, 1)
        counts = {"steps": 0, "h": 0, "orbits": 0}
        orbit, h_orbit = twist._varphi_orbit(fam, tp), twist._h_orbit

        def counted_orbit(t):
            counts["orbits"] += 1
            step = orbit(t)

            def counted_step(xi, eta, radii):
                counts["steps"] += 1
                return step(xi, eta, radii)

            return counted_step

        def counted_h(*args):
            counts["h"] += 1
            return h_orbit(*args)

        monkeypatch.setattr(twist, "_h_orbit", counted_h)
        crv = periodic_curve(fam, tp, n, 2, grid_size=32, K=8, _orbit=counted_orbit)
        assert crv.residual <= 1e-10
        assert counts["h"] == 4  # three secant-loop steps and the final evaluation
        assert counts["orbits"] == counts["h"]
        assert counts["steps"] == n * counts["h"]

    def test_every_default_band_is_curve_band(self, monkeypatch):
        # Wherever K is left out, one rule sets the Laurent band: the
        # library default, the surface curve and the witness curve on 4n
        # points.  16 points cap the band, 64 do not.
        from revtwist import obstruction
        from revtwist.surface import surface_curves
        from revtwist.twist import _default_grid, curve_band

        n = 4
        tp = TwistParams(alpha=2.8915926535897931, s=1)
        fam = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
        assert max(periodic_curve(fam, tp, n, 2).laurent) == curve_band(n, 128)
        crv = surface_curves(fam, tp, n, 2, intersect=False)
        assert max(crv.laurent) == curve_band(n, _default_grid(n))
        witness = []

        def spy(*args, **kwargs):
            witness.append(periodic_curve(*args, **kwargs))
            return witness[-1]

        monkeypatch.setattr(obstruction, "periodic_curve", spy)
        assert obstruction.Hk_estimate(fam, tp, n)[0] == witness[0].laurent[n]
        assert max(witness[0].laurent) == curve_band(n, 4 * n) == 2 * n - 1
        assert (curve_band(n, 16), curve_band(n, 64)) == (7, 16)

    def test_a_zero_circle(self):
        n = 100
        tp = TwistParams(alpha=resonant_alpha(n, 7, -1e-4), s=1)
        crv = periodic_curve(CoefficientFamily({}, 1), tp, n, 2, grid_size=64, K=16)
        assert abs(crv.laurent[0] - 1e-3) < 1e-12
        others = max(abs(v) for k, v in crv.laurent.items() if k != 0)
        assert others < 1e-13
        assert crv.residual < 1e-10
        assert len(crv.samples) == 64

    def test_reality_on_hermitian_top_branch(self):
        rng = np.random.default_rng(31)
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = random_hermitian_family(rng, 1, [3, 7], 0.04)
        crv = periodic_curve(fam, tp, n, 2, grid_size=64, K=16)
        assert crv.reality_defect is not None
        assert crv.reality_defect < 1e-9

    def test_grid_refinement_agreement(self):
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = CoefficientFamily({(7, 0): 0.05, (0, 7): 0.05}, 1, hermitian=True)
        c128 = periodic_curve(fam, tp, n, 2, grid_size=128, K=32).laurent
        c256 = periodic_curve(fam, tp, n, 2, grid_size=256, K=32).laurent
        for k in range(-32, 33):
            assert abs(c128[k] - c256[k]) < 1e-10

    def test_perturbation_moves_resonant_mode(self):
        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = CoefficientFamily({(7, 0): 0.05, (0, 7): 0.05}, 1, hermitian=True)
        crv = periodic_curve(fam, tp, n, 2, grid_size=64, K=16)
        assert abs(crv.laurent[7]) > 1e-9
        assert abs(crv.laurent[1]) < 1e-12

    def test_every_sample_returns(self):
        rng = np.random.default_rng(37)
        n = 5
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.12), s=1)
        fam = random_hermitian_family(rng, 1, [3, 5], 0.05)
        crv = periodic_curve(fam, tp, n, 1, grid_size=32, K=8)
        v = make_varphi(fam, tp)
        for wv, zv in crv.samples:
            xi, eta = zv * wv, zv / wv
            xin, etan = iterate(v, n, (xi, eta))
            assert abs(complex(xin) - xi) < 1e-10
            assert abs(complex(etan) - eta) < 1e-10

    def test_s3_curve_converges(self):
        n = 6
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.3), s=3)
        fam = CoefficientFamily({(7, 0): 0.01}, 3, hermitian=True)
        crv = periodic_curve(fam, tp, n, 6, grid_size=64, K=16)
        assert crv.residual < 1e-10
        assert abs(crv.zeta0 - (0.3 / n) ** (1 / 6)) < 1e-15

    @pytest.mark.parametrize("s,n,beta", [(1, 7, -0.08), (2, 8, -0.2), (3, 12, -0.6)])
    def test_radius_within_guard_bound(self, s, n, beta):
        # |h| <= 1/2 in the solver forces zeta0 (3/2)^{-1/(2s)} <= |zeta| <= zeta0 2^{1/(2s)}.
        tp = TwistParams(alpha=resonant_alpha(n, 1, beta), s=s)
        for seed in range(3):
            fam = random_hermitian_family(np.random.default_rng(seed), s,
                                          [2 * s + 1, 2 * s + 3], 0.05)
            crv = periodic_curve(fam, tp, n, 2 * s, grid_size=32, K=8)
            radii = np.abs([z for _, z in crv.samples])
            assert radii.max() <= crv.zeta0 * 2.0 ** (1.0 / (2 * s))
            assert radii.min() >= crv.zeta0 * 1.5 ** (-1.0 / (2 * s))
            assert radii.max() > radii.min()

    def test_curve_runs_never_consult_constants(self):
        from revtwist.obstruction import divergence_witness
        from revtwist.surface import surface_curves

        n = 7
        tp = TwistParams(alpha=resonant_alpha(n, 1, -0.08), s=1)
        fam = CoefficientFamily({(7, 0): 0.05}, 1, hermitian=True)
        before = compute_constants.cache_info()
        periodic_curve(fam, tp, n, 2, grid_size=32, K=8)
        divergence_witness(fam, tp, [beta_reduce(n, tp.alpha)])
        surface_curves(fam, tp, n, 2, grid_size=32)
        assert compute_constants.cache_info() == before

    def test_converges_above_fixed_step_floor(self):
        # The grid and band of the witness row for n = 30.
        tp = TwistParams(alpha=FLOOR_ALPHA, s=2)
        crv = periodic_curve(FLOOR_FAMILY, tp, 30, 4, grid_size=120, K=59)
        assert crv.residual <= 1e-10

    def test_step_bound_is_1e13_where_rounding_allows(self):
        # The README curve and the rows of the README obstruct schedule keep
        # the 1e-13 stopping bound, and so their results.
        readme = TwistParams(alpha=(4 * math.pi - 2.0) / 4, s=1)
        assert _step_bound(_beta_window(readme, 4)[1], 1) == 1e-13
        from revtwist.obstruction import select_resonant_n
        tp = TwistParams(alpha=1.41421356, s=1)
        for rd in select_resonant_n(tp.alpha, 0.3, 3, 500):
            assert _step_bound(_beta_window(tp, rd.n)[1], 1) == 1e-13
        floor = _step_bound(_beta_window(TwistParams(alpha=FLOOR_ALPHA, s=2), 30)[1], 2)
        assert 6e-13 < floor < 7e-13

    def test_grid_too_small_for_K(self):
        tp = TwistParams(alpha=resonant_alpha(5, 1, -0.12), s=1)
        with pytest.raises(ValueError, match="2K"):
            periodic_curve(CoefficientFamily({}, 1), tp, 5, 1, grid_size=16, K=8)


class TestMajorant:
    def test_first_step_closed_form(self):
        tp = TwistParams(alpha=0.1, s=1, m0=1.0, R=0.5)
        rep = majorant_sequence(tp, 100, K=1)
        d0 = rep.d0
        f1 = (1.0 / 0.5**3) * (2 * d0) ** 3 / (1 - 2 * d0 / 0.5)
        assert rep.values[0] == 0.0
        assert abs(rep.values[1] - f1) < 1e-18
        assert rep.values[1] <= 1 / 400

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("m0", [0.5, 2.0])
    @pytest.mark.parametrize("R", [0.3, 0.7])
    @pytest.mark.parametrize("n", [10, 500])
    def test_bound_sweep(self, s, m0, R, n):
        tp = TwistParams(alpha=0.1, s=s, m0=m0, R=R)
        rep = majorant_sequence(tp, n)
        assert rep.satisfied
        assert len(rep.values) == n + 1
        assert np.all(np.diff(rep.values) >= 0)
        assert np.all(rep.values <= rep.bounds + 1e-15)

    def test_K_exceeds_n(self):
        tp = TwistParams(alpha=0.1, s=1)
        with pytest.raises(ValueError, match="K"):
            majorant_sequence(tp, 10, K=11)


def direct_sum(fam, xi, eta):
    """fam at (xi, eta) as the direct sum of a_ij xi**i eta**j, apart from
    the band form that `CoefficientFamily.eval` and the solve read."""
    out = np.zeros(np.broadcast(np.asarray(xi), np.asarray(eta)).shape, dtype=complex)
    for (i, j), v in fam.entries.items():
        out = out + v * xi**i * eta**j
    return out


def plain_exponent_iteration(fam, xi, eta, sign):
    """Reference: c <- fam(e^{i sign c} xi, e^{-i sign c} eta) from c = 0,
    stopped by the solve's own test."""
    c = np.zeros(np.broadcast(np.asarray(xi), np.asarray(eta)).shape, dtype=complex)
    for _ in range(200):
        ph = np.exp(1j * sign * c)
        cn = direct_sum(fam, ph * xi, eta / ph)
        if np.abs(cn - c).max() <= 4e-16 * (1.0 + np.abs(cn).max()):
            return cn
        c = cn
    raise AssertionError("reference iteration did not converge")


def exponent_solve(fam, xi, eta, what):
    """The kernel's exponent solve, c = fam(e^{-ic} xi, e^{ic} eta), at the
    points (xi, eta), broadcast together, on the bands of fam at t = xi eta,
    bounded at their radii (max|xi|, max|eta|) as the polydisk guard
    measures them."""
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex))
    bands = fam._bands(xi * eta)
    radii = float(np.abs(xi).max()), float(np.abs(eta).max())
    bounds = partial(_mode_bounds(bands), radii)
    return _exponent_fixed_point(fam, bands, xi, eta, what, bounds)


def oriented(fam, xi, eta, sign):
    """The equation c = fam(e^{i sign c} xi, e^{-i sign c} eta) in the
    solve's own form c = fam'(e^{-ic} xi', e^{ic} eta'): as given at
    sign = -1, and at sign = +1 the family transposed (a_ij moved to
    (j, i)) at the swapped point, since fam(e^{ic} xi, e^{-ic} eta) is
    fam^T(e^{-ic} eta, e^{ic} xi)."""
    if sign < 0:
        return fam, xi, eta
    return CoefficientFamily({(j, i): v for (i, j), v in fam.entries.items()}, fam.s,
                             _validate=False), eta, xi


def exponent_residual(fam, xi, eta, sign, c):
    """max |c - fam(e^{i sign c} xi, e^{-i sign c} eta)| over (1 + max|c|)."""
    ph = np.exp(1j * sign * c)
    return float(np.abs(c - direct_sum(fam, ph * xi, eta / ph)).max() / (1.0 + np.abs(c).max()))


# Modes k = 3, -2 and 0: the (2, 2) entry does not turn with the phase.
SOLVE_FAMILY = CoefficientFamily({(3, 0): 0.4 + 0.2j, (1, 3): -0.3j, (2, 2): 0.5}, 1)
SOLVE_POINTS = {
    "scalar": (0.5 * cmath.exp(0.3j), 0.45 * cmath.exp(-1.1j)),
    "broadcast": (0.5 * np.exp(2j * np.pi * np.arange(3) / 3)[:, None],
                  np.array([[0.3, 0.45j, -0.5, 0.2 - 0.3j]])),
}


class TestExponentSolve:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("points", sorted(SOLVE_POINTS))
    @pytest.mark.parametrize("fam", [
        SOLVE_FAMILY,
        CoefficientFamily({(5, 0): 0.6, (3, 3): -0.8, (2, 4): 0.5j}, 2, hermitian=True),
    ], ids=["s1", "s2-hermitian"])
    def test_matches_plain_iteration(self, fam, points, sign):
        xi, eta = SOLVE_POINTS[points]
        c = exponent_solve(*oriented(fam, xi, eta, sign), "test")
        ref = plain_exponent_iteration(fam, xi, eta, sign)
        assert np.shape(c) == np.broadcast(np.asarray(xi), np.asarray(eta)).shape
        assert np.abs(ref).max() > 1e-3
        assert np.abs(c - ref).max() <= 1e-15 * (1.0 + np.abs(ref).max())
        assert exponent_residual(fam, xi, eta, sign, c) <= 1e-15

    def test_empty_family_gives_zeros(self):
        xi, eta = SOLVE_POINTS["broadcast"]
        c = exponent_solve(CoefficientFamily.empty(1), xi, eta, "test")
        assert c.shape == (3, 4) and not np.any(c)

    # Each refusal keeps the prefix and names its exit; the reference solve
    # as first written refuses each input too.  No numpy warning may escape
    # (the suite runs with warnings as errors).
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("entries", [{(3, 0): 1.0}, {(4, 0): 1.0}, {(4, 0): -1.0}])
    def test_divergent_input_raises(self, entries, sign):
        # Far outside the solver disk, Newton converges to a root where the
        # plain iteration would not: max|g'| >= 1 there, so no disk about
        # it contracts and no step is certified.
        fam = CoefficientFamily(entries, 1, _validate=False)
        args = oriented(fam, np.full(4, 0.99), np.full(4, 0.99), sign)
        with pytest.raises(SolverError, match=r"^test: exponent iteration did not converge: "
                           r"80 steps without a certified root, last step \d\.\d{3}e[+-]\d+$"):
            exponent_solve(*args, "test")
        with pytest.raises(SolverError, match="exponent iteration did not converge"):
            exponent_solve_oracle(*args, "test")

    def test_singular_first_step_raises(self):
        # 1 + i sum k m_k vanishes at c = 0 for the second point, so the
        # closed-form step is infinite: SolverError, not inf or a warning.
        fam = CoefficientFamily({(0, 1): 1.0}, 1, _validate=False)
        point = 0.5, np.array([-1j, 0.3])
        with pytest.raises(SolverError, match="^test: exponent iteration did not converge: "
                           "non-finite iterate at step 1$"):
            exponent_solve(fam, *point, "test")
        with pytest.raises(SolverError, match="exponent iteration did not converge"):
            exponent_solve_oracle(fam, *point, "test")

    def test_growing_iterate_raises(self):
        # c = 1.5i e^{-ic}: the iterates grow through finite values far
        # past e^{K |c|} = float64's range, where the bound has nothing to
        # certify, until one is not finite.
        fam = CoefficientFamily({(1, 0): 1.5j}, 1, _validate=False)
        with pytest.raises(SolverError, match=r"^test: exponent iteration did not converge: "
                           r"non-finite iterate at step \d+$"):
            exponent_solve(fam, np.array([1.0 + 0j]), 0.5, "test")

    def test_cycling_newton_raises(self):
        # c = 0.8i e^{-ic}: Newton cycles with steps of order one and is
        # never certified in 80 steps.
        fam = CoefficientFamily({(1, 0): 0.8j}, 1, _validate=False)
        with pytest.raises(SolverError, match=r"^test: exponent iteration did not converge: "
                           r"80 steps without a certified root, last step \d\.\d{3}e[+-]\d+$"):
            exponent_solve(fam, np.array([1.0 + 0j]), 0.5, "test")
        with pytest.raises(SolverError, match="exponent iteration did not converge"):
            exponent_solve_oracle(fam, np.array([1.0 + 0j]), 0.5, "test")

    def test_iterate_past_the_exp_range_raises(self):
        # 1 - g' = -1e-3 at c = 0: the first step lands at Im c ~ 1000,
        # where the mode's e^{ic} underflows and the next step returns to 0.
        # The bound's phase factor e^{Im c} is then past float64's range: it
        # certifies nothing, and raises no OverflowError.
        fam = CoefficientFamily({(0, 1): -1.001j}, 1, _validate=False)
        with pytest.raises(SolverError, match=r"^test: exponent iteration did not converge: "
                           r"80 steps without a certified root, last step \d\.\d{3}e[+-]\d+$"):
            exponent_solve(fam, 0.5, np.array([1.0 + 0j]), "test")
        with pytest.raises(SolverError, match="exponent iteration did not converge"):
            exponent_solve_oracle(fam, 0.5, np.array([1.0 + 0j]), "test")

    @settings(derandomize=True, deadline=None)
    @given(s=st.sampled_from([1, 2]),
           terms=st.lists(st.tuples(st.integers(1, 6), st.floats(0, 1), st.floats(0, 1),
                                    st.floats(0, 1)), max_size=5),
           points=st.lists(st.tuples(*[st.floats(0, 1)] * 4), min_size=1, max_size=4),
           sign=st.sampled_from([1, -1]))
    def test_converged_solve_satisfies_identity(self, s, terms, points, sign):
        # terms: (degree above 2s, share of xi in it, modulus, phase/2pi).
        ent = {}
        for extra, share, mod, turn in terms:
            d = 2 * s + extra
            i = round(share * d)
            ent[(i, d - i)] = cmath.rect(mod, 2 * math.pi * turn)
        fam = CoefficientFamily(ent, s)
        p = np.array(points)
        xi = 0.6 * p[:, 0] * np.exp(2j * np.pi * p[:, 1])
        eta = 0.6 * p[:, 2] * np.exp(2j * np.pi * p[:, 3])
        try:
            c = exponent_solve(*oriented(fam, xi, eta, sign), "test")
        except SolverError:
            return
        assert exponent_residual(fam, xi, eta, sign, c) <= 1e-14


def exponent_solve_oracle(fam, xi, eta, what):
    """The exponent solve as first written (Newton from c = 0 with sums
    started from zeros, the phase extremes and the step maximum taken on
    every pass), with the certified exit on the solve's own bounds: the
    reference that the leaner solve, whose first step is the closed form
    g / (1 - g'), must match bit for bit.  Its modes are the band terms of
    fam at the point."""
    xi, eta = np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex)
    bands = fam._bands(xi * eta)
    modes = _band_terms(fam, bands, xi, eta)
    radii = float(np.abs(xi).max()), float(np.abs(eta).max())
    bounds = partial(_mode_bounds(bands), radii)
    shape = np.broadcast(xi, eta).shape
    isign = -1j

    def sums(powers):
        g = dg = np.zeros(shape, dtype=complex)
        for k, mk in modes.items():
            t = mk if powers is None else mk * powers[k]
            g, dg = g + t, dg + k * t
        return g, dg

    c = np.zeros(shape, dtype=complex)
    with np.errstate(all="ignore"):
        for n in range(80):
            phase = -c.imag
            lo, hi = float(phase.min()), float(phase.max())
            g, dg = sums(_power_table(np.exp(isign * c), modes) if n else None)
            step = (c - g) / (1.0 - isign * dg)
            c = c - step
            dmax = float(np.abs(step).max())
            if not dmax < math.inf:
                break
            if _newton_certified(bounds(lo, hi), dmax):
                return c
    raise SolverError(f"{what}: exponent iteration did not converge")


def exponent_root(modes, dps=40):
    """The root c of c = sum_k m_k e^{-ikc} at each point, at dps digits,
    with the float64 modes taken exactly: object arrays of c, of the terms
    {k: m_k e^{-ikc}} and of g'(c) at each point."""
    shape = np.broadcast(*modes.values()).shape
    out = np.empty(shape, dtype=object), np.empty(shape, dtype=object), np.empty(shape, dtype=object)
    with mpmath.workdps(dps):
        for idx in np.ndindex(shape):
            m = {k: mpmath.mpc(complex(np.broadcast_to(v, shape)[idx])) for k, v in modes.items()}
            c = mpmath.mpc(0)
            for _ in range(200):
                terms = {k: v * mpmath.expj(-k * c) for k, v in m.items()}
                dg = -1j * mpmath.fsum(k * t for k, t in terms.items())
                step = (c - mpmath.fsum(terms.values())) / (1 - dg)
                c -= step
                if abs(step) < mpmath.mpf(10) ** (-dps + 2):
                    break
            else:
                raise AssertionError("oracle Newton did not converge")
            terms = {k: v * mpmath.expj(-k * c) for k, v in m.items()}
            dg = -1j * mpmath.fsum(k * t for k, t in terms.items())
            out[0][idx], out[1][idx], out[2][idx] = c, terms, dg
    return out


def exponent_solve_bound(fam, xi, eta, terms, dg, c):
    """First-order bound on |c_solve - c| for the root c of the solve's
    equation, from `_exponent_fixed_point`'s exit and the rounding of its last
    Newton step.

    Exit: the solve stops within kappa u A0 of the root of the exact Newton
    step, A0 = sum_k max|B_k| q^{|k|} (B_k the bands at t = xi eta, taken
    here from the entries) at the radii turned by the phases of the last
    step's iterate c_p: q = max|xi| e^{-lo} for k >= 0 and max|eta| e^{hi}
    for k < 0, lo and hi the least and greatest -Im c_p, to first order
    those of the root.  At that exit rho A2 |delta|^2 / 2 <= kappa u A0
    (rho >= 1), so the last step is at most delta = sqrt(2 kappa u A0 / A2).

    Rounding of that step c - (c - g) / (1 - g') from the previous
    iterate, whose terms t_k = m_k u^k are those at the root to first
    order: u = e^{-ic} within EXP u; u^k by at most 2|k| products or
    quotients of the squaring chain, within |k| (EXP + 2 PRODUCT) u; t_k
    within one more PRODUCT u; and the m sums of g and of dg within
    (m - 1) u sum |t|.  So g is off by e_g = u sum_k w_k |t_k|,
    w_k = |k| (EXP + 2 PRODUCT) + PRODUCT + m - 1, and 1 - g' by
    e_D = u (sum_k |k| (w_k + 1) |t_k| + 1 + |g'|) (k t_k and the
    subtraction from 1 once each).  The step moves by
    (e_g + delta ((2 + PRODUCT) u |D| + e_D)) / |D|, D = 1 - g'(c)
    (the subtraction c - g, the quotient and e_D's share), and the last
    subtraction adds u |c|.
    """
    t = xi * eta
    bands = {}
    for (i, j), v in fam.entries.items():
        bands[i - j] = bands.get(i - j, 0) + v * t ** min(i, j)
    phase = [-float(v.imag) for v in c.ravel()]
    radii = {True: float(np.abs(xi).max()) * math.exp(-min(phase)),
             False: float(np.abs(eta).max()) * math.exp(max(phase))}
    size = {k: float(np.abs(b).max()) * radii[k >= 0] ** abs(k) for k, b in bands.items()}
    a0 = sum(size.values())
    a2 = sum(k * k * v for k, v in size.items())
    delta = math.sqrt(2 * KAPPA * U * a0 / a2)
    w = {k: abs(k) * (EXP + 2 * PRODUCT) + PRODUCT + len(bands) - 1 for k in bands}
    bound = np.empty(np.shape(c))
    for idx in np.ndindex(np.shape(c)):
        tk = {k: float(abs(v)) for k, v in terms[idx].items()}
        e_g = U * sum(w[k] * v for k, v in tk.items())
        e_d = U * (sum(abs(k) * (w[k] + 1) * v for k, v in tk.items()) + 1 + float(abs(dg[idx])))
        d = float(abs(1 - dg[idx]))
        bound[idx] = (KAPPA * U * a0 + (e_g + delta * ((2 + PRODUCT) * U * d + e_d)) / d
                      + U * float(abs(c[idx])))
    return bound


ORACLE_CASES = {
    "s1-scalar": (SOLVE_FAMILY, *SOLVE_POINTS["scalar"]),
    "s1-broadcast": (SOLVE_FAMILY, *SOLVE_POINTS["broadcast"]),
    "scalar-xi-array-eta": (SOLVE_FAMILY, 0.4 + 0.1j, np.array([0.3, -0.2j, 0.1 + 0.4j])),
    "empty": (CoefficientFamily.empty(1), *SOLVE_POINTS["broadcast"]),
    # modes 5, 3, 0, -1, -4 and -6
    "negative-modes": (CoefficientFamily({(5, 0): 0.3 - 0.1j, (4, 1): 0.2j, (2, 2): -0.25,
                                          (3, 4): 0.4 + 0.3j, (1, 5): -0.2 + 0.1j,
                                          (0, 6): 0.35}, 1),
                       0.45 * np.exp(2j * np.pi * np.arange(5) / 5),
                       0.5 * np.exp(-1j * np.arange(5))),
    "per-point-entries": (CoefficientFamily({(4, 0): np.linspace(0.05, 0.3, 6) * 1j,
                                             (1, 4): np.linspace(-0.2, 0.2, 6)}, 1,
                                            _validate=False),
                          0.5 * np.exp(2j * np.pi * np.arange(6) / 6), np.full(6, 0.4 - 0.1j)),
    # The near-axis point of the orbit kernel's axis test: the mode eta^80
    # gives K = 80, and only the phase of the iterate certifies the root.
    "near-axis": (AXIS_A, 1e-4 + 0j, 0.9 + 0j),
}


class TestExponentSolveOracle:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_oracle_bitwise(self, case, sign):
        fam, xi, eta = oriented(*ORACLE_CASES[case], sign)
        c = exponent_solve(fam, xi, eta, "test")
        ref = exponent_solve_oracle(fam, xi, eta, "test")
        assert c.shape == ref.shape and c.dtype == ref.dtype
        assert np.array_equal(c, ref)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_within_the_derived_bound_of_a_40_digit_root(self, case, sign):
        # The root of the solve's own equation, its float64 modes taken
        # exactly; the bound is the exit's truncation plus the rounding of
        # the last step (`exponent_solve_bound`).
        fam, xi, eta = oriented(*ORACLE_CASES[case], sign)
        xi, eta = np.asarray(xi, dtype=complex), np.asarray(eta, dtype=complex)
        c = exponent_solve(fam, xi, eta, "test")
        if not fam.entries:
            assert not np.any(c)
            return
        modes = _band_terms(fam, fam._bands(xi * eta), xi, eta)
        root, terms, dg = exponent_root(modes)
        bound = exponent_solve_bound(fam, xi, eta, terms, dg, root)
        err = np.array([float(abs(mpmath.mpc(complex(v)) - r)) for v, r in
                        zip(np.broadcast_to(c, root.shape).ravel(), root.ravel())])
        assert np.all(err <= bound.ravel())
        # The bound is a few hundred units of roundoff of the root, not a
        # loose tolerance.
        assert np.all(bound <= 1e3 * U * (1 + np.abs(root.astype(complex))))
