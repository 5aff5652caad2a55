"""Pointwise twist dynamics: reduction, evaluators, constants, branch solver."""

import math

import mpmath
import numpy as np
import pytest

from revtwist.families import CoefficientFamily
from revtwist.twist import (
    CurveDomain,
    DomainError,
    HypothesisViolation,
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
    varphi_eval,
)
from revtwist.twist import _beta_window, _d0, _step_bound


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
        with pytest.raises(ValueError):
            TwistParams(alpha=0.1, s=0)
        with pytest.raises(ValueError):
            TwistParams(alpha=0.1, s=1, R=1.0)
        with pytest.raises(ValueError):
            TwistParams(alpha=0.1, s=1, m0=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                TwistParams(alpha=bad, s=1)
            with pytest.raises(ValueError, match="m0"):
                TwistParams(alpha=0.1, s=1, m0=bad)

    def test_omega(self):
        tp = TwistParams(alpha=0.3, s=2)
        assert abs(complex(tp.omega(0.01)) - (0.3 + 1e-4)) < 1e-18


class TestVarphi:
    def test_a_zero_is_twist(self):
        tp = TwistParams(alpha=0.7, s=1)
        fam = CoefficientFamily({}, 1)
        xi, eta = 0.1 + 0.05j, 0.12 - 0.01j
        got = varphi_eval(fam, tp, (xi, eta))
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
            varphi_eval(fam, tp, (1.5, 0.1))

    def test_one_step_linearization(self):
        # first order in the family: p = i a(xi e^{iw}, eta e^{-iw}) + i a_conj(xi, eta)
        tp = TwistParams(alpha=resonant_alpha(7, 1, -0.2), s=1)
        fam = CoefficientFamily(
            {(3, 0): 0.3 + 0.1j, (0, 3): 0.3 - 0.1j, (2, 1): 0.05j, (1, 2): -0.05j},
            1, hermitian=True,
        )
        xi, eta = 0.11 + 0.03j, 0.07 - 0.02j
        om = complex(tp.omega(xi * eta))

        def p_of(t):
            x2, _ = varphi_eval(fam.scaled(t), tp, (xi, eta))
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
        om = complex(tp.omega(xi * eta))
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
        u = np.exp(1j * complex(tp.omega(xi * eta)))
        acc = 0.0
        for k in range(n):
            xk, ek = xi * u**k, eta * u ** (-k)
            omk = complex(tp.omega(xk * ek))
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


class TestPeriodicCurve:
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
