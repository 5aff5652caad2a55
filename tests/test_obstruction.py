"""Tests for resonance schedules and divergence obstructions."""

import math
import warnings

import numpy as np
import pytest

import revtwist.obstruction as ob
import revtwist.twist as tw
from revtwist.families import CoefficientFamily
from revtwist.twist import HypothesisViolation, ResonanceData, TwistParams


def resonant_alpha(n, g, beta):
    return (2 * g * math.pi + beta) / n


# Planted resonance used throughout: n = 7 hits beta = -0.25 exactly.
N1, G1, B1 = 7, 1, -0.25
ALPHA = resonant_alpha(N1, G1, B1)
TP = TwistParams(alpha=ALPHA, s=1)
ZETA0 = (-B1 / N1) ** 0.5

W3 = np.exp(2j * np.pi * np.array([0.13, 0.37, 0.71]))


class TestSelectResonant:
    def test_planted_period_found_first(self):
        sched = ob.select_resonant_n(ALPHA, 0.3, 3, 10**4)
        assert sched[0].n == N1
        assert sched[0].g == G1
        assert abs(sched[0].beta - B1) < 1e-12

    def test_matches_brute_force_scan(self):
        alpha = math.pi * (3.0 - math.sqrt(5.0))
        delta = 0.05
        sched = ob.select_resonant_n(alpha, delta, 4, 3000)
        expected = []
        for n in range(1, 3001):
            rd = tw.beta_reduce(n, alpha)
            if -delta < rd.beta < 0:
                expected.append(rd)
            if len(expected) == 4:
                break
        assert [r.n for r in sched] == [r.n for r in expected]
        for got, want in zip(sched, expected):
            assert got.beta == want.beta

    def test_ascending_and_in_window(self):
        sched = ob.select_resonant_n(ALPHA, 0.3, 5, 10**4)
        assert len(sched) == 5
        ns = [r.n for r in sched]
        assert ns == sorted(ns)
        for rd in sched:
            assert -0.3 < rd.beta < 0

    def test_overflowing_prefilter_keeps_its_periods(self):
        # n * 1e308 overflows float64 for n >= 2; such periods skip the
        # float64 prefilter and are reduced exactly, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = ob.select_resonant_n(1e308, 0.3, 2, 50)
        assert [r.n for r in sched] == [7, 47]
        assert [r.beta for r in sched] == [tw.beta_reduce(n, 1e308).beta for n in (7, 47)]

    def test_partial_schedule_warns(self):
        with pytest.warns(UserWarning, match="only"):
            sched = ob.select_resonant_n(ALPHA, 0.3, 5, 20)
        assert [r.n for r in sched] == [N1]

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            ob.select_resonant_n(ALPHA, 0.0, 1, 100)
        with pytest.raises(ValueError):
            ob.select_resonant_n(ALPHA, 4.0, 1, 100)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                ob.select_resonant_n(alpha, 0.3, 2, 100)


class TestPredictedLinearZeta:
    def test_zero_family_gives_zero(self):
        out = ob.predicted_linear_zeta(CoefficientFamily.empty(1), TP, N1, W3)
        assert np.all(out == 0)

    def test_single_mode_closed_form(self):
        # With only the (n,0)/(0,n) pair the orbit sum collapses and the
        # response is H*(w^n + w^-n) with H the leading coefficient.
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        lead = ob.leading_Hk(fam, TP, N1)
        got = ob.predicted_linear_zeta(fam, TP, N1, W3)
        want = lead * (W3**N1 + W3 ** (-N1))
        assert np.abs(got - want).max() < 1e-14 * abs(lead)

    def test_finite_difference_first_order(self):
        fam = CoefficientFamily(
            {(7, 0): 0.1, (0, 7): 0.1, (2, 1): 0.3, (1, 2): 0.3,
             (3, 0): 0.2j, (0, 3): -0.2j},
            1, hermitian=True)
        pred = ob.predicted_linear_zeta(fam, TP, N1, W3)
        errs = []
        for t in (1e-3, 5e-4, 2.5e-4):
            z = tw.solve_branch(fam.scaled(t), TP, N1, 2, W3)
            errs.append(np.abs((z - ZETA0) / t - pred).max())
        assert errs[0] < 1e-6
        # halving t halves the first-order remainder
        assert 1.8 < errs[0] / errs[1] < 2.2
        assert 1.8 < errs[1] / errs[2] < 2.2

    @pytest.mark.parametrize("entries", [{(8, 0): 0.05 + 0.02j}, {(8, 0): 0.05, (0, 8): 0.03}])
    def test_non_hermitian_family(self, entries):
        # phibar_a uses the conjugated family, so a_{0,n} does not stand in
        # for conj(a_{n,0}) once a is not Hermitian: the central difference
        # of the solved curve and the w^n coefficient follow conj(a_{n,0}).
        tp, n = TwistParams(alpha=1.41421356, s=1), 8
        fam = CoefficientFamily(entries, 1)
        pred = ob.predicted_linear_zeta(fam, tp, n, W3)
        t = 1e-3
        resp = (tw.solve_branch(fam.scaled(t), tp, n, 2, W3)
                - tw.solve_branch(fam.scaled(-t), tp, n, 2, W3)) / (2 * t)
        assert np.abs(resp - pred).max() < 1e-6 * np.abs(resp).max()
        num, lead = ob.Hk_estimate(fam.scaled(1e-2), tp, n)
        assert abs(num / lead - 1.0) < 1e-6

    def test_orbit_shift_invariance(self):
        fam = CoefficientFamily(
            {(7, 0): 0.1, (0, 7): 0.1, (2, 1): 0.3, (1, 2): 0.3}, 1,
            hermitian=True)
        u = np.exp(1j * (ALPHA + ZETA0**2))
        a = ob.predicted_linear_zeta(fam, TP, N1, W3)
        b = ob.predicted_linear_zeta(fam, TP, N1, W3 * u)
        assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()

    def test_resonance_gate(self):
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        # n = 2 has beta = 2 alpha, about +1.72: the period carries no curve
        assert tw.beta_reduce(2, ALPHA).beta > 0
        with pytest.raises(HypothesisViolation):
            ob.predicted_linear_zeta(fam, TP, 2, W3)


class TestHkEstimate:
    def test_numeric_matches_leading_for_planted_mode(self):
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        num, lead = ob.Hk_estimate(fam, TP, N1)
        assert lead == pytest.approx(-0.1 * ZETA0**6 * 2 / 2)
        assert abs(num - lead) < 1e-5 * abs(lead)

    def test_hermitian_coefficient_is_real(self):
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        num, _ = ob.Hk_estimate(fam, TP, N1)
        assert abs(num.imag) < 1e-9

    def test_remainder_decays_quadratically(self):
        # (3,0) and (4,0) interact at second order to feed the w^7 mode,
        # giving a genuine t^2 remainder on top of the linear prediction.
        fam = CoefficientFamily(
            {(7, 0): 0.1, (0, 7): 0.1, (3, 0): 0.3, (0, 3): 0.3,
             (4, 0): 0.3, (0, 4): 0.3},
            1, hermitian=True)
        rems = []
        for t in (2e-2, 1e-2):
            num, lead = ob.Hk_estimate(fam.scaled(t), TP, N1)
            rems.append(abs(num - lead))
        assert rems[0] > 1e-11
        assert 3.5 < rems[0] / rems[1] < 4.5

    def test_off_diagonal_family_is_second_order(self):
        fam = CoefficientFamily(
            {(3, 0): 0.3, (0, 3): 0.3, (4, 0): 0.3, (0, 4): 0.3}, 1,
            hermitian=True)
        nums = []
        for t in (2e-2, 1e-2):
            num, lead = ob.Hk_estimate(fam.scaled(t), TP, N1)
            assert lead == 0
            nums.append(abs(num))
        assert 3.5 < nums[0] / nums[1] < 4.5

    def test_leading_term_ignores_other_modes(self):
        pure = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        mixed = CoefficientFamily(
            {(7, 0): 0.1, (0, 7): 0.1, (3, 0): 0.3, (0, 3): 0.3}, 1,
            hermitian=True)
        assert ob.leading_Hk(pure, TP, N1) == ob.leading_Hk(mixed, TP, N1)

    @pytest.mark.parametrize("n, alpha, entries", [
        (1, -0.25, {(3, 0): 0.02, (0, 3): 0.02}),
        (N1, ALPHA, {(7, 0): 0.1, (0, 7): 0.1, (3, 0): 0.05, (0, 3): 0.05}),
    ])
    def test_witness_grid_and_band(self, n, alpha, entries):
        # The estimate reads w^n off the j = 2s curve on 4n points with band 2n-1.
        fam = CoefficientFamily(entries, 1, hermitian=True)
        tp = TwistParams(alpha=alpha, s=1)
        crv = tw.periodic_curve(fam, tp, n, 2, grid_size=4 * n, K=2 * n - 1)
        assert ob.Hk_estimate(fam, tp, n)[0] == crv.laurent[n]


class TestDivergenceWitness:
    def test_zero_family_degenerate_intervals(self):
        sched = ob.select_resonant_n(ALPHA, 0.3, 2, 100)
        rep = ob.divergence_witness(CoefficientFamily.empty(1), TP, sched)
        assert not rep.witness
        for row in rep.rows:
            assert row.width < 1e-12
            assert not row.nonconstant

    def test_planted_mode_flags_its_period(self):
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        rd = tw.beta_reduce(N1, ALPHA)
        rep = ob.divergence_witness(fam, TP, [rd])
        assert rep.witness
        row = rep.rows[0]
        assert row.nonconstant
        assert row.I_min < ZETA0 < row.I_max
        assert row.residual <= 1e-10
        # interval width tracks four times the leading coefficient
        assert 0.75 < row.width / (4 * abs(row.Hk_leading)) < 1.25

    def test_unplanted_periods_stay_constant(self):
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        sched = ob.select_resonant_n(ALPHA, 0.3, 3, 10**4)
        rep = ob.divergence_witness(fam, TP, sched)
        assert rep.rows[0].nonconstant
        for row in rep.rows[1:]:
            assert not row.nonconstant
        assert not rep.witness

    def test_schedule_rejects_nonnegative_beta(self):
        # A made-up entry, and the true entry of n = 2, whose beta = 2 alpha
        # (about +1.72) carries no curve: the window rule refuses both.
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        for entry in (ResonanceData(5, 1, 0.1), tw.beta_reduce(2, ALPHA)):
            assert entry.beta >= 0.0
            with pytest.raises(HypothesisViolation):
                ob.divergence_witness(fam, TP, [entry])

    def test_schedule_rejects_stale_beta(self):
        # A schedule built for alpha1 but passed with a shifted alpha: the
        # n = 40 entry says beta = -0.040 where its curve would be solved
        # at beta = -0.020.
        alpha1 = 2 * math.pi * 3 / 40 - 0.001
        tp = TwistParams(alpha=alpha1 + 5e-4, s=1)
        fam = CoefficientFamily({(7, 0): 0.1, (0, 7): 0.1}, 1, hermitian=True)
        stale = tw.beta_reduce(40, alpha1)
        with pytest.raises(ValueError, match=r"n = 40 has beta = -0\.04\d*, but .* "
                           r"gives beta = -0\.02"):
            ob.divergence_witness(fam, tp, [stale])
        assert ob.divergence_witness(fam, tp, [tw.beta_reduce(40, tp.alpha)]).rows
