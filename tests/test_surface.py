"""Involution pairs over coefficient families: maps, jets, curves, obstruction."""

import cmath
import math
import re

import numpy as np
import pytest

from revtwist.families import CoefficientFamily, _band_terms
from revtwist.normal_form import full_normalize
from revtwist.surface import (
    Hn_obstruction,
    build_involution_maps,
    involution_jets,
    is_exceptional,
    lambda_from_gamma,
    q_zeta_check,
    real_intersection,
    surface_curves,
)
from revtwist.surface import _branch_scale, _require_even_resonance, _two_phase_a2, _w2n_coeffs
from revtwist import surface, twist
from revtwist.twist import (
    DomainError,
    HypothesisViolation,
    SolverError,
    TwistParams,
    _solve_branch,
    _step_bound,
)

# One resonance configuration shared by the curve-level tests: n = 4 with
# winding g = 2 keeps both 4s | n and the even-winding requirement satisfied
# at s = 1, and beta = -2 sits inside the admissible window.
N1, G1, B1 = 4, 2, -2.0
ALPHA = (2 * G1 * math.pi + B1) / N1
TP = TwistParams(alpha=ALPHA, s=1)
ZETA0 = (-B1 / N1) ** 0.5

WITNESS_A = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
WITNESS_ABAR = CoefficientFamily({(4, 0): -0.06 + 0.01j}, 1)

# The same pairs at s = 2: n = 8 with winding 2 and beta = -1.25.
TP_S2 = TwistParams(alpha=(4 * math.pi - 1.25) / 8, s=2)
WITNESS_A2 = CoefficientFamily({(8, 0): 0.05 + 0.02j}, 2)
WITNESS_ABAR2 = CoefficientFamily({(8, 0): -0.06 + 0.01j}, 2)
# (tp, n, a, abar): the self-conjugate pair and the witness pair at s = 1, 2
BRANCH_PAIRS = {
    "s1-self": (TP, N1, WITNESS_A, None),
    "s1-witness": (TP, N1, WITNESS_A, WITNESS_ABAR),
    "s2-self": (TP_S2, 8, WITNESS_A2, None),
    "s2-witness": (TP_S2, 8, WITNESS_A2, WITNESS_ABAR2),
}


def rho(xi, eta):
    # Antiholomorphic involution fixing the totally real plane.
    return np.conj(xi), np.conj(eta)


def sample_points(rng, m, lo=0.05, hi=0.4):
    r = rng.uniform(lo, hi, size=m)
    t1 = rng.uniform(0, 2 * np.pi, size=m)
    t2 = rng.uniform(0, 2 * np.pi, size=m)
    return r * np.exp(1j * t1), r * np.exp(1j * t2)


class TestBishop:
    def test_characteristic_identities_on_grid(self):
        # gamma lambda^2 - lambda + gamma = 0, |lambda| = 1 and
        # lambda + conj(lambda) = 1/gamma across the hyperbolic range.
        for gamma in np.linspace(0.5001, 10.0, 400):
            lam = lambda_from_gamma(float(gamma)).lam
            assert abs(gamma * lam * lam - lam + gamma) < 1e-13
            assert abs(abs(lam) - 1.0) < 1e-13
            assert abs((lam + np.conj(lam)) - 1.0 / gamma) < 1e-13

    @pytest.mark.parametrize("gamma", [1e154, 1e200, 1e300])
    def test_huge_gamma_does_not_overflow(self, gamma):
        # gamma lambda^2 - lambda + gamma = 0, divided by gamma.
        lam = lambda_from_gamma(gamma).lam
        assert abs(abs(lam) - 1.0) < 1e-13
        assert lam.imag > 0
        assert abs(lam * lam - lam / gamma + 1.0) < 1e-13

    def test_gamma_one_is_exceptional_order_six(self):
        bd = lambda_from_gamma(1.0)
        assert abs(bd.lam - cmath.exp(1j * math.pi / 3)) < 1e-15
        assert bd.exceptional
        assert bd.root_order == 6

    def test_generic_gamma_not_exceptional(self):
        bd = lambda_from_gamma(0.8)
        assert abs(bd.lam - (0.625 + 0.780624749799799j)) < 1e-14
        assert not bd.exceptional
        assert bd.root_order is None
        assert bd.scan_bound == 64

    def test_inverse_sqrt_two_is_order_eight(self):
        bd = lambda_from_gamma(1.0 / math.sqrt(2.0))
        assert abs(bd.lam - cmath.exp(1j * math.pi / 4)) < 1e-13
        assert bd.exceptional and bd.root_order == 8

    def test_is_exceptional_directly(self):
        assert is_exceptional(-1.0 + 0j) == (True, 2)
        assert is_exceptional(cmath.exp(1j)) == (False, None)
        with pytest.raises(ValueError, match="max_order must"):
            is_exceptional(-1.0 + 0j, max_order=0)

    def test_rejects_elliptic_and_parabolic_gamma(self):
        for gamma in (0.5, 0.3, 0.0, -1.0):
            with pytest.raises(ValueError):
                lambda_from_gamma(gamma)

    def test_is_exceptional_requires_unit_modulus(self):
        with pytest.raises(ValueError):
            is_exceptional(1.1 + 0j)


class TestInvolutionMaps:
    def check_pair(self, a, tp, rng, abar=None):
        tau1, tau2, phi = build_involution_maps(a, tp, abar=abar)
        xi, eta = sample_points(rng, 200)
        fx, fe = phi(xi, eta)

        # Both factors are involutions.
        for tau in (tau1, tau2):
            tx, te = tau(*tau(xi, eta))
            assert np.max(np.abs(tx - xi) + np.abs(te - eta)) < 1e-11

        # phi = tau1 tau2 reverses under tau1: phi tau1 phi tau1 = id.
        bx, be = phi(*tau1(*phi(*tau1(xi, eta))))
        assert np.max(np.abs(bx - xi) + np.abs(be - eta)) < 1e-11

        # xi * eta is the conserved product.
        assert np.max(np.abs(fx * fe - xi * eta)) < 1e-12
        return tau1, tau2, phi

    def test_default_pair_identities(self):
        rng = np.random.default_rng(7)
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j}, 1)
        tau1, tau2, _ = self.check_pair(a, TP, rng)

        # The defaulted second factor is the rho conjugate of the first.
        xi, eta = sample_points(rng, 200)
        lx, le = rho(*tau1(*rho(xi, eta)))
        rx, re = tau2(xi, eta)
        assert np.max(np.abs(lx - rx) + np.abs(le - re)) < 1e-11

    def test_explicit_conjugate_matches_default(self):
        rng = np.random.default_rng(11)
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j}, 1)
        _, _, phi0 = build_involution_maps(a, TP)
        _, _, phi1 = build_involution_maps(a, TP, abar=a.conjugated())
        xi, eta = sample_points(rng, 100)
        x0, e0 = phi0(xi, eta)
        x1, e1 = phi1(xi, eta)
        assert np.array_equal(x0, x1) and np.array_equal(e0, e1)

    def test_self_conjugate_tau2_names_itself(self):
        # tau2 is built from a.conjugated(), not by conjugating tau1, so a
        # point escaping on the way in is reported as tau2's input.
        _, tau2, phi = build_involution_maps(WITNESS_A, TP)
        for f in (tau2, phi):
            with pytest.raises(DomainError, match=r"^tau2 input: point modulus 1\.2 escaped"):
                f(1.2, 0.1)

    def test_independent_second_family(self):
        rng = np.random.default_rng(13)
        self.check_pair(WITNESS_A, TP, rng, abar=WITNESS_ABAR)

    @pytest.mark.parametrize("abar", [None, WITNESS_ABAR], ids=["self", "witness"])
    def test_evaluators_are_one_step_of_their_orbits(self, abar):
        # Each pointwise evaluator is one step of the map the orbit kernel
        # iterates, from the radii of its input guard: values, shapes and
        # errors.  phi's step is tau2's and then tau1's, both on the level
        # set of phi's input, tau1 handed the radii of tau2's output guard;
        # its input guard is tau2's.  (0.99, 0.99) escapes on the way out of
        # tau2 and (1.2, 0.1) on the way in.
        tau1, tau2, _ = surface._involution_orbits(WITNESS_A, TP, abar)

        def phi(t):
            def step(x, y, radii):
                x, y, _, radii = tau2(t)(x, y, radii)
                return tau1(t)(x, y, radii)

            return step

        cases = [(twist.make_varphi(WITNESS_A, TP), twist._varphi_orbit(WITNESS_A, TP), "varphi"),
                 *zip(build_involution_maps(WITNESS_A, TP, abar=abar),
                      (tau1, tau2, phi), ("tau1", "tau2", "tau2"))]
        xi, eta = sample_points(np.random.default_rng(29), 64)
        for point in ((xi, eta), (0.2 + 0.1j, 0.3 - 0.05j), (0.5, 0.999), (0.99, 0.99),
                      (1.2, 0.1)):
            x, y = (np.asarray(v, dtype=complex) for v in point)
            for evaluate, orbit, what in cases:
                try:
                    ref = orbit(x * y)(x, y, twist._guard_inside(x, y, f"{what} input"))[:2]
                except DomainError as exc:
                    with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                        evaluate(*point)
                    continue
                for got, want in zip(evaluate(*point), ref, strict=True):
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_zero_family_reduces_to_rotation(self):
        rng = np.random.default_rng(17)
        _, _, phi = build_involution_maps(CoefficientFamily.empty(1), TP)
        xi, eta = sample_points(rng, 50)
        fx, fe = phi(xi, eta)
        ph = np.exp(1j * (TP.alpha + (xi * eta) ** TP.s))
        assert np.max(np.abs(fx - ph * xi)) < 1e-14
        assert np.max(np.abs(fe - eta / ph)) < 1e-14

    def test_random_families_keep_identities(self):
        rng = np.random.default_rng(19)
        for s in (1, 2):
            tp = TwistParams(alpha=0.7 + 0.1 * s, s=s)
            for _ in range(3):
                ent = {}
                for _ in range(3):
                    d = int(rng.integers(2 * s + 1, 2 * s + 5))
                    i = int(rng.integers(0, d + 1))
                    ent[(i, d - i)] = 0.05 * (rng.standard_normal()
                                              + 1j * rng.standard_normal())
                a = CoefficientFamily(ent, s)
                self.check_pair(a, tp, rng)


class TestInvolutionJets:
    def test_jets_match_pointwise_maps(self):
        rng = np.random.default_rng(23)
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j}, 1)
        maps = build_involution_maps(a, TP)
        jets = involution_jets(a, TP, order=10)
        xi, eta = sample_points(rng, 60, lo=0.02, hi=0.08)
        for f, g in zip(maps, jets):
            fx, fe = f(xi, eta)
            gx, ge = g.eval(xi, eta)
            assert np.max(np.abs(fx - gx) + np.abs(fe - ge)) < 1e-11

    def test_jets_match_for_independent_pair(self):
        rng = np.random.default_rng(29)
        _, _, phi = build_involution_maps(WITNESS_A, TP, abar=WITNESS_ABAR)
        _, _, phij = involution_jets(WITNESS_A, TP, order=10,
                                     abar=WITNESS_ABAR)
        xi, eta = sample_points(rng, 60, lo=0.02, hi=0.08)
        fx, fe = phi(xi, eta)
        gx, ge = phij.eval(xi, eta)
        assert np.max(np.abs(fx - gx) + np.abs(fe - ge)) < 1e-11


class TestNormalFormOfPair:
    def test_recovers_planted_type(self):
        for s, alpha in ((1, 0.73), (2, 1.18)):
            fam = {(2 * s + 2, 0): 0.05 + 0.02j, (s + 1, s): 0.03 - 0.01j}
            tp = TwistParams(alpha=alpha, s=s)
            tau1, _, phi = involution_jets(CoefficientFamily(fam, s), tp,
                                           order=10)
            res = full_normalize(phi, tau=tau1, order=10, reality="surface")
            assert res.eps == 1
            assert res.s == s
            assert res.residual < 1e-9


class TestSurfaceCurves:
    def test_zero_family_gives_exact_circle(self):
        crv = surface_curves(CoefficientFamily.empty(1), TP, N1, 2)
        assert abs(crv.zeta0 - ZETA0) < 1e-13
        zs = np.array([z for _, z in crv.samples])
        assert np.max(np.abs(np.abs(zs) - ZETA0)) < 1e-12
        assert crv.real_intersections == "continuum"

    def check_return(self, a, abar=None):
        crv = surface_curves(a, TP, N1, 2, abar=abar, intersect=False)
        _, _, phi = build_involution_maps(a, TP, abar=abar)
        for wv, zv in crv.samples[::7]:
            xi, eta = zv * wv, zv / wv
            for _ in range(N1):
                xi, eta = phi(xi, eta)
            assert abs(complex(xi) - zv * wv) < 1e-10
            assert abs(complex(eta) - zv / wv) < 1e-10
        return crv

    def test_n_step_return_default_pair(self):
        crv = self.check_return(CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1))
        assert crv.residual < 1e-11

    def test_n_step_return_independent_pair(self):
        crv = self.check_return(WITNESS_A, abar=WITNESS_ABAR)
        assert crv.residual < 1e-11

    def test_pair_swap_conjugation_identity(self):
        # Conjugating both families and swapping their roles conjugates
        # the curve coefficients.
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j}, 1)
        b = CoefficientFamily({(4, 0): -0.06 + 0.01j}, 1)
        c1 = surface_curves(a, TP, N1, 2, abar=b, intersect=False)
        c2 = surface_curves(b.conjugated(), TP, N1, 2,
                            abar=a.conjugated(), intersect=False)
        assert sorted(c1.laurent) == sorted(c2.laurent)
        defect = max(abs(c2.laurent[k] - np.conj(c1.laurent[k]))
                     for k in c1.laurent)
        assert defect < 1e-12


class TestRealIntersection:
    def test_self_conjugate_pairs_are_continua(self):
        for fam in ({(4, 0): 0.05 + 0.02j},
                    {(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j},
                    {(4, 0): 0.05}):
            a = CoefficientFamily(fam, 1)
            crv = surface_curves(a, TP, N1, 2)
            assert crv.real_intersections == "continuum"

    def test_witness_pair_has_isolated_hits(self):
        crv = surface_curves(WITNESS_A, TP, N1, 2, abar=WITNESS_ABAR)
        hits = crv.real_intersections
        assert isinstance(hits, tuple)
        assert len(hits) == 4

    def test_isolation_count_stable_under_grid(self):
        counts = []
        for gs in (256, 512, 1024):
            crv = surface_curves(WITNESS_A, TP, N1, 2,
                                 abar=WITNESS_ABAR, grid_size=gs)
            counts.append(len(crv.real_intersections))
        assert counts[0] == counts[1] == counts[2] == 4

    def test_pair_with_no_hits(self):
        abar = CoefficientFamily({(4, 0): 0.05j}, 1)
        crv = surface_curves(WITNESS_A, TP, N1, 2, abar=abar)
        assert crv.real_intersections == ()

    def test_hit_locations_frozen(self):
        abar = CoefficientFamily({(4, 0): -0.05 + 0.02j}, 1)
        crv = surface_curves(WITNESS_A, TP, N1, 2, abar=abar)
        got = sorted(crv.real_intersections, key=lambda z: z.real)
        want = [-1.607935, -0.558299, 0.558299, 1.607935]
        assert len(got) == 4
        for g, w in zip(got, want):
            assert abs(g.imag) < 1e-12
            assert abs(g.real - w) < 1e-4

    def test_explicit_call_matches_stored(self):
        crv = surface_curves(WITNESS_A, TP, N1, 2, abar=WITNESS_ABAR)
        again = real_intersection(crv)
        assert again == crv.real_intersections

    def test_sample_count_bounds(self):
        crv = surface_curves(WITNESS_A, TP, N1, 2, abar=WITNESS_ABAR, intersect=False)
        for samples in (0, 1):
            with pytest.raises(ValueError, match="samples must be at least 2"):
                real_intersection(crv, samples=samples)
        # two samples per segment: the ends, whose defects share a sign here
        assert real_intersection(crv, samples=2) == ()


class TestQZetaCheck:
    def test_probe_matches_leading_coefficient(self):
        rep = q_zeta_check(0.05, TP, N1, t=1e-3)
        assert rep.rel_error < 1e-4
        assert abs(rep.a2_coeff - rep.predicted) < 1e-4 * abs(rep.predicted)
        # The symmetric remainder is real at this order.
        assert abs(rep.symmetric_coeff.imag) < 1e-4
        assert abs(rep.symmetric_coeff.real - 0.30936) < 1e-3

    def test_probe_stable_in_t(self):
        r1 = q_zeta_check(0.05, TP, N1, t=1e-3)
        r2 = q_zeta_check(0.05, TP, N1, t=5e-4)
        assert abs(r1.a2_coeff - r2.a2_coeff) < 1e-4 * abs(r1.predicted)

    def test_zero_amplitude_degenerates(self):
        # Nothing to measure: the probe signal is zero, below rounding.
        with pytest.raises(SolverError, match=r"probe signal 0\.000e\+00 "):
            q_zeta_check(0.0, TP, N1)

    def test_resonance_hypotheses_enforced(self):
        # 4s must divide n.
        with pytest.raises(HypothesisViolation):
            q_zeta_check(0.05, TwistParams(alpha=(2 * math.pi - 2) / 6, s=1),
                         6)
        # Winding must be even: n = 4 with g = 1 fails.
        with pytest.raises(HypothesisViolation):
            q_zeta_check(0.05, TwistParams(alpha=(2 * math.pi - 2) / 4, s=1),
                         4)

    @pytest.mark.parametrize("s, alpha", [
        (1, (8 * math.pi - 2) / 16),
        (2, (4 * math.pi - 1.5) / 16),
    ])
    def test_probe_below_rounding_is_refused(self, s, alpha):
        # At n = 16 and the default t = 1e-3 the w^32 signal of the smaller
        # probe is 1.3e-6 and 1.4 times eps zeta0; measured anyway, these
        # gave rel_error 1.6e5 and 2.6.
        tp = TwistParams(alpha=alpha, s=s)
        with pytest.raises(SolverError, match="probe signal"):
            q_zeta_check(0.05, tp, 16)
        with pytest.raises(SolverError, match="probe signal"):
            Hn_obstruction(CoefficientFamily({(16, 0): 0.05}, s), tp, 16)


class TestBatchedBranches:
    """Hn_obstruction solves branches 1..s together and squares each
    factor, since branch j + s is branch j reflected; each factor must be
    the one the single-branch curve gives."""

    @pytest.mark.parametrize("tp, n, a, abar", BRANCH_PAIRS.values(), ids=BRANCH_PAIRS)
    def test_remainder_is_the_product_over_branch_curves(self, tp, n, a, abar):
        zeta0 = _require_even_resonance(tp, n)
        factors = [2.0 * (surface_curves(a, tp, n, j, intersect=False, abar=abar).laurent[2 * n]
                          / _branch_scale(tp, zeta0, n, j)).real
                   for j in range(1, tp.s + 1)]
        h = Hn_obstruction(a, tp, n, include_remainder=True, abar=abar)
        assert h == math.prod(f * f for f in factors) and h >= 0.0

    @pytest.mark.parametrize("tp, n, a, abar", BRANCH_PAIRS.values(), ids=BRANCH_PAIRS)
    def test_default_estimator_is_the_product_over_branch_probes(self, tp, n, a, abar):
        zeta0 = _require_even_resonance(tp, n)
        an0 = a.entries[(n, 0)]
        js = tuple(range(1, tp.s + 1))
        alone = [_two_phase_a2(abs(an0), tp, zeta0, n, (j,), 1e-3)[0][0] for j in js]
        assert _two_phase_a2(abs(an0), tp, zeta0, n, js, 1e-3)[0] == alone
        factors = [2.0 * (an0 * an0 * a2 / _branch_scale(tp, zeta0, n, j)).real
                   for j, a2 in zip(js, alone)]
        # The default estimator reads a_{n,0} alone, so it takes no abar.
        h = Hn_obstruction(a, tp, n)
        assert h == math.prod(f * f for f in factors) and h >= 0.0

    @pytest.mark.parametrize("tp, n, a, abar", BRANCH_PAIRS.values(), ids=BRANCH_PAIRS)
    def test_branch_j_plus_s_is_branch_j_reflected(self, tp, n, a, abar):
        # h is unchanged by (zeta, w) -> (-zeta, -w), so zeta_{j+s}(w) =
        # -zeta_j(-w); -w is the grid point half a turn on.  Both curves
        # are solved to the stopping bound, and so agree within it.
        bound = _step_bound(_require_even_resonance(tp, n), tp.s)
        for j in range(1, tp.s + 1):
            zj, zjs = (np.array([z for _, z in surface_curves(a, tp, n, b, intersect=False,
                                                              abar=abar).samples])
                       for b in (j, j + tp.s))
            assert np.abs(zjs + np.roll(zj, -(len(zj) // 2))).max() <= bound

    def test_branches_that_stop_at_different_steps(self):
        # Alone, branches 2 and 4 stop after 5 secant steps and 1 and 3
        # after 6 (their fifth step is 1.5 stopping bounds); together all
        # four take 6.  The extra step moves a coefficient by rounding only,
        # within 4 stopping bounds.
        a = CoefficientFamily({(8, 0): 0.05 + 0.02j, (6, 2): -0.113 - 0.01j,
                               (3, 3): 0.013 + 0.013j}, 2)
        batch = _w2n_coeffs(a, TP_S2, 8, (1, 2, 3, 4), WITNESS_ABAR2)[0]
        bound = 4 * _step_bound(_require_even_resonance(TP_S2, 8), 2)
        for j, c in enumerate(batch, start=1):
            alone = surface_curves(a, TP_S2, 8, j, intersect=False, abar=WITNESS_ABAR2)
            assert alone.steps == (6 if j % 2 else 5)
            assert abs(c - alone.laurent[16]) <= bound
            if j % 2:
                assert c == alone.laurent[16]


def probe_amplitudes(x, t):
    """The four probe amplitudes of `_two_phase_a2`, in its order."""
    return tuple(tt * (x * cmath.exp(sgn * 0.25j * math.pi))
                 for sgn in (1.0, -1.0) for tt in (t, 0.5 * t))


class TestStackedProbes:
    """`_w2n_coeffs` solves every probe curve of every branch in one
    `_solve_branch`, with the probe amplitudes as per-point family entries."""

    @pytest.mark.parametrize("tp, n", [(TP, N1), (TP_S2, 8)], ids=["s1", "s2"])
    def test_probes_solved_alone_agree_with_the_stack(self, tp, n, monkeypatch):
        js = tuple(range(1, 2 * tp.s + 1))
        amps = probe_amplitudes(0.05, 1e-2)
        unit = CoefficientFamily({(n, 0): 1.0}, tp.s, False, _validate=False)
        stacked = []

        def capture(*args):
            out = _solve_branch(*args)
            stacked.append(out[0])
            return out

        monkeypatch.setattr(surface, "_solve_branch", capture)
        coeffs = _w2n_coeffs(unit, tp, n, js, scales=amps)
        monkeypatch.undo()
        (zeta,) = stacked
        G = surface._default_grid(n)
        assert zeta.shape == (len(js), len(amps), G)
        assert coeffs.shape == (len(amps), len(js))
        w = np.exp(2j * np.pi * np.arange(G) / G)
        bound = 4 * _step_bound(_require_even_resonance(tp, n), tp.s)
        for p, amp in enumerate(amps):
            fam = CoefficientFamily({(n, 0): amp}, tp.s, False, _validate=False)
            phi = surface._involution_orbits(fam, tp)[2]
            alone = _solve_branch(fam, tp, n, js, w, phi)[0]
            assert np.abs(alone - zeta[:, p]).max() <= bound
            assert np.abs(np.fft.fft(alone)[:, 2 * n] / G - coeffs[p]).max() <= bound

    @pytest.mark.parametrize("amp, error", [(0.1, DomainError), (0.3, SolverError)],
                             ids=["p_n-gate", "exponent-solve"])
    def test_a_probe_that_fails_alone_fails_the_stack(self, amp, error):
        # At amplitude 0.1 the orbit leaves the validated region (|p_n| > 1/2)
        # and at 0.3 the inverse's exponent solve fails; the probes beside
        # it pass alone.
        fam = CoefficientFamily({(N1, 0): amp}, 1, False, _validate=False)
        phi = surface._involution_orbits(fam, TP)[2]
        w = np.exp(2j * np.pi * np.arange(64) / 64)
        with pytest.raises(error):
            _solve_branch(fam, TP, N1, (2,), w, phi)
        unit = CoefficientFamily({(N1, 0): 1.0}, 1, False, _validate=False)
        assert np.all(np.isfinite(_w2n_coeffs(unit, TP, N1, (2,), scales=(0.05, 0.02))))
        with pytest.raises(error):
            _w2n_coeffs(unit, TP, N1, (2,), scales=(0.05, amp, 0.02))

    def test_array_entries_evaluate_like_scalar_families(self):
        # Three segments of m points, each carrying its own scalar family.
        rng = np.random.default_rng(5)
        m = 7
        xi, eta = sample_points(rng, 3 * m)
        values = {(4, 0): [0.05 + 0.02j, -0.03j, 0.7],
                  (2, 3): [0.01, 0.02 - 0.01j, -0.04],
                  (1, 5): [0.0, 0.3j, 0.001 + 0.002j]}
        stacked = CoefficientFamily({k: np.repeat(v, m) for k, v in values.items()}, 1,
                                    False, _validate=False)
        got_eval = stacked.eval(xi, eta)
        got_modes = _band_terms(stacked, stacked._bands(xi * eta), xi, eta)
        for p in range(3):
            seg = slice(p * m, (p + 1) * m)
            fam = CoefficientFamily({k: v[p] for k, v in values.items()}, 1,
                                    False, _validate=False)
            assert np.array_equal(got_eval[seg], fam.eval(xi[seg], eta[seg]))
            modes = _band_terms(fam, fam._bands(xi[seg] * eta[seg]), xi[seg], eta[seg])
            # A zero scalar entry is dropped; its array column is zero there.
            for k, mk in got_modes.items():
                want = modes.get(k, np.zeros(m, dtype=complex))
                assert np.array_equal(mk[seg], want), k

    def test_validated_family_refuses_array_entries(self):
        with pytest.raises(ValueError, match="not an array"):
            CoefficientFamily({(4, 0): np.full(3, 0.05)}, 1)
        with pytest.raises(ValueError, match="not an array"):
            CoefficientFamily({(4, 0): np.full(3, 0.05)}, 1, hermitian=True)


class TestHnObstruction:
    def test_real_amplitude_quartic_law(self):
        # Planted a_{n,0} = t real: the estimate is (2 t^2)^{2s} to rel O(t).
        t = 0.05
        a = CoefficientFamily({(4, 0): t}, 1)
        h = Hn_obstruction(a, TP, N1)
        assert abs(h / (2 * t * t) ** 2 - 1.0) < 1e-3

    def test_scaling_ratio_sixteen(self):
        a1 = CoefficientFamily({(4, 0): 0.04}, 1)
        a2 = CoefficientFamily({(4, 0): 0.02}, 1)
        r = Hn_obstruction(a1, TP, N1) / Hn_obstruction(a2, TP, N1)
        assert 15.8 < r < 16.2

    def test_eighth_root_phase_annihilates(self):
        a = CoefficientFamily({(4, 0): 0.05 * cmath.exp(1j * math.pi / 4)}, 1)
        assert abs(Hn_obstruction(a, TP, N1)) < 1e-12

    def test_zero_mode_gives_zero(self):
        a = CoefficientFamily({(2, 1): 0.03 - 0.01j}, 1)
        assert Hn_obstruction(a, TP, N1) == 0.0

    def test_remainder_vanishes_on_conjugate_diagonal(self):
        a = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
        h = Hn_obstruction(a, TP, N1, include_remainder=True)
        assert abs(h) < 1e-12

    def test_remainder_sees_independent_pair(self):
        h = Hn_obstruction(WITNESS_A, TP, N1, include_remainder=True,
                           abar=WITNESS_ABAR)
        assert abs(h) > 1e-7

    @pytest.mark.parametrize("pair", ["s1-witness", "s2-witness"])
    def test_default_estimator_refuses_abar(self, pair):
        # The default estimator reads a_{n,0} alone: an abar it would ignore
        # is refused rather than answered with the abar=None value.
        tp, n, a, abar = BRANCH_PAIRS[pair]
        with pytest.raises(ValueError, match="^abar enters only the include_remainder=True"):
            Hn_obstruction(a, tp, n, t=1e-2, abar=abar)
        assert Hn_obstruction(a, tp, n, include_remainder=True, abar=abar) >= 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_probe_size_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="^probe size t must be positive and finite"):
            q_zeta_check(0.05, TP, N1, t=t)
        for remainder in (False, True):
            with pytest.raises(ValueError, match="^probe size t must be positive and finite"):
                Hn_obstruction(WITNESS_A, TP, N1, t=t, include_remainder=remainder)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.05, math.nan)])
    def test_amplitude_must_be_finite(self, amp):
        with pytest.raises(ValueError, match="^amplitude a_n0 must be finite"):
            q_zeta_check(amp, TP, N1)
        # only an unvalidated family can carry a non-finite entry
        a = CoefficientFamily({(4, 0): amp}, 1, _validate=False)
        with pytest.raises(ValueError, match="^amplitude a_n0 must be finite"):
            Hn_obstruction(a, TP, N1)
