"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test also enforces its runtime budget.
"""

import cmath
import math
import time

import numpy as np

import test_normal_form as tnf
from revtwist.families import CoefficientFamily
from revtwist.normal_form import full_normalize, mw_normalize, normal_form_map
from revtwist.obstruction import (
    Hk_estimate,
    divergence_witness,
    leading_Hk,
    predicted_linear_zeta,
    select_resonant_n,
)
from revtwist.series import map_inverse, map_residual
from revtwist.surface import (
    build_involution_maps,
    lambda_from_gamma,
    q_zeta_check,
    surface_curves,
)
from revtwist.twist import (
    TwistParams,
    beta_reduce,
    iterate,
    majorant_sequence,
    make_varphi,
    periodic_curve,
    solve_branch,
)

ALPHA7 = (2 * math.pi - 0.25) / 7  # n = 7 resonance, beta = -0.25


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({detail}; {elapsed:.1f}s, "
          f"budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f}s"


def random_hermitian(rng, s, degrees, scale):
    ent = {}
    for d in degrees:
        i = int(rng.integers(0, d + 1))
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        if 2 * i == d:
            c = c.real
        ent[(i, d - i)] = c
        if (d - i, i) not in ent:
            ent[(d - i, i)] = np.conj(c)
    return CoefficientFamily(ent, s, hermitian=True)


def test_criterion_1_integral_and_reversibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = 0
    cons_worst = 0.0
    rev_worst = 0.0
    while pairs < 1000:
        s = int(rng.integers(1, 3))
        fam = random_hermitian(rng, s, [2 * s + 1, 2 * s + 2], 0.1)
        v = make_varphi(fam, TwistParams(alpha=float(rng.uniform(0.2, 2.9)),
                                         s=s))
        m = 25
        r = rng.uniform(0.02, 0.25, size=m)
        xi = r * np.exp(2j * np.pi * rng.uniform(size=m))
        eta = np.conj(xi)
        fx, fe = v(xi, eta)
        cons = np.abs(fx * fe - xi * eta) / np.abs(xi * eta)
        cons_worst = max(cons_worst, float(cons.max()))
        # tau phi tau = phi^{-1} with tau componentwise conjugation:
        # phi(tau(phi(tau(p)))) = p on the real slice.
        bx, be = v(*[np.conj(z) for z in v(np.conj(xi), np.conj(eta))])
        rev = np.abs(bx - xi) + np.abs(be - eta)
        rev_worst = max(rev_worst, float(rev.max()))
        pairs += m
    ok = cons_worst < 1e-12 and rev_worst < 1e-11
    report(1, "integral/reversibility", ok,
           f"{pairs} pairs, conservation {cons_worst:.2e}, "
           f"reversibility {rev_worst:.2e}",
           time.perf_counter() - t0, 5.0)


def test_criterion_2_normal_form_conjugacy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    order = 12
    recovered = 0
    worst_residual = 0.0
    for _ in range(20):
        while True:
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            lam = cmath.exp(1j * theta)
            if min(abs(lam ** k - 1.0) for k in range(1, order + 1)) >= 0.1:
                break
        eps = int(rng.choice([-1, 1]))
        s = int(rng.integers(1, 4))
        target = normal_form_map(lam, eps, s, order)
        frame = tnf.real_swap_commuting_map(rng, order, 0.04)
        phi = tnf.conjugate_map(map_inverse(frame), target)
        res = full_normalize(phi)
        worst_residual = max(worst_residual, res.residual)
        if (res.eps, res.s) == (eps, s) and res.residual < 1e-9:
            recovered += 1
    pair, _, _, _ = tnf.planted_pair(rng, cmath.exp(0.7j), order)
    split_gap = map_residual(mw_normalize(pair).Phi0, tnf.split_elimination(pair))
    ok = recovered == 20 and split_gap < 1e-10
    report(2, "normal-form conjugacy", ok,
           f"{recovered}/20 recovered, residual {worst_residual:.2e}, "
           f"split-oracle gap {split_gap:.2e}",
           time.perf_counter() - t0, 30.0)


def reference_varphi(a, tp):
    """varphi = phi_a . T . phibar_a^{-1} vectorized over the points, built
    apart from the package's maps: direct sums of a_ij xi^i eta^j, the
    inverse exponent c = g(e^{-ic} xi, e^{ic} eta), g = -abar, by plain
    iteration, and the rotation e^{i (alpha + t^s)}."""
    g = a.conjugated().scaled(-1.0)

    def direct_sum(fam, xi, eta):
        return sum(v * xi**i * eta**j for (i, j), v in fam.entries.items())

    def evaluate(xi, eta):
        c = np.zeros_like(xi)
        for _ in range(100):
            c = direct_sum(g, np.exp(-1j * c) * xi, np.exp(1j * c) * eta)
        u = np.exp(1j * (tp.alpha + (xi * eta) ** tp.s))
        x, y = u * np.exp(-1j * c) * xi, np.exp(1j * c) * eta / u
        f = direct_sum(a, x, y)
        return np.exp(1j * f) * x, np.exp(-1j * f) * y

    return evaluate


def test_criterion_3_curve_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    tp = TwistParams(alpha=ALPHA7, s=1)
    schedule = select_resonant_n(tp.alpha, 0.3, 5, 10**4)
    assert len(schedule) == 5 and all(r.n <= 10**4 for r in schedule)
    worst_ret = 0.0
    worst_imag = 0.0
    worst_laurent = 0.0
    for rd in schedule:
        fam = random_hermitian(rng, 1, [3, 4, 5], 0.03)
        assert fam.max_modulus() <= 0.1
        n = rd.n
        K = (4 * n - 1) // 2
        crv = periodic_curve(fam, tp, n, 2, grid_size=4 * n, K=K)
        # every 8th sample: n-step return of the reference varphi
        xi = np.array([z * w for w, z in crv.samples[::8]])
        eta = np.array([z / w for w, z in crv.samples[::8]])
        xin, etan = iterate(reference_varphi(fam, tp), n, (xi, eta))
        ret = max(float(np.abs(xin - xi).max()), float(np.abs(etan - eta).max()))
        worst_ret = max(worst_ret, ret)
        worst_imag = max(worst_imag, crv.reality_defect)
        fine = periodic_curve(fam, tp, n, 2, grid_size=8 * n, K=K)
        gap = max(abs(crv.laurent[k] - fine.laurent[k]) for k in crv.laurent)
        worst_laurent = max(worst_laurent, gap)
    ok = worst_ret < 1e-10 and worst_imag < 1e-9 and worst_laurent < 1e-10
    report(3, "curve solver", ok,
           f"schedule {[r.n for r in schedule]}, return {worst_ret:.2e}, "
           f"im {worst_imag:.2e}, refine {worst_laurent:.2e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_4_linear_response():
    t0 = time.perf_counter()
    tp = TwistParams(alpha=ALPHA7, s=1)
    n = 7
    zeta0 = (0.25 / 7) ** 0.5
    w3 = np.exp(2j * np.pi * np.array([0.13, 0.37, 0.71]))
    fam = CoefficientFamily(
        {(7, 0): 0.1, (0, 7): 0.1, (2, 1): 0.3, (1, 2): 0.3,
         (3, 0): 0.2j, (0, 3): -0.2j},
        1, hermitian=True)
    pred = predicted_linear_zeta(fam, tp, n, w3)
    errs = []
    for t in (1e-3, 5e-4):
        z = solve_branch(fam.scaled(t), tp, n, 2, w3)
        errs.append(float(np.abs((z - zeta0) / t - pred).max()))
    fd_ratio = errs[0] / errs[1]

    # w^n Laurent coefficient against the closed-form leading term; the
    # mismatch is the second-order remainder, so quartering under t -> t/2.
    fam2 = CoefficientFamily(
        {(7, 0): 0.1, (0, 7): 0.1, (3, 0): 0.3, (0, 3): 0.3,
         (4, 0): 0.3, (0, 4): 0.3},
        1, hermitian=True)
    rems = []
    for t in (2e-2, 1e-2):
        num, lead = Hk_estimate(fam2.scaled(t), tp, n)
        rems.append(abs(num - lead))
    quad_factor = rems[0] / rems[1]

    ok = 1.8 < fd_ratio < 2.2 and 3.5 < quad_factor < 4.5
    report(4, "linear-response law", ok,
           f"fd ratio {fd_ratio:.3f}, quadratic factor {quad_factor:.3f}",
           time.perf_counter() - t0, 60.0)


def test_criterion_5_majorant_bound():
    t0 = time.perf_counter()
    violations = 0
    worst_margin = -math.inf
    for s in (1, 2):
        tp = TwistParams(alpha=0.73, s=s)
        for n in (10**2, 10**3, 10**4):
            rep = majorant_sequence(tp, n, K=n)
            margin = float((rep.values - rep.bounds).max())
            worst_margin = max(worst_margin, margin)
            if not rep.satisfied:
                violations += 1
    ok = violations == 0
    report(5, "majorant bound", ok,
           f"0 violations expected, got {violations}; "
           f"worst f_k - k/(4n) = {worst_margin:.2e}",
           time.perf_counter() - t0, 10.0)


def test_criterion_6_divergence_witness():
    t0 = time.perf_counter()
    tp = TwistParams(alpha=ALPHA7, s=1)
    n1 = 7
    fam = CoefficientFamily({(n1, 0): 0.1, (0, n1): 0.1}, 1, hermitian=True)
    rd = beta_reduce(n1, tp.alpha)
    rep = divergence_witness(fam, tp, [rd])
    row = rep.rows[0]
    width_ratio = row.width / (4 * abs(row.Hk_leading))

    zero = divergence_witness(CoefficientFamily.empty(1), tp,
                              select_resonant_n(tp.alpha, 0.3, 3, 10**4))
    max_zero_width = max(r.width for r in zero.rows)

    ok = (row.nonconstant and 0.75 < width_ratio < 1.25
          and max_zero_width < 1e-12)
    report(6, "divergence witness", ok,
           f"nonconstant {row.nonconstant}, width/prediction {width_ratio:.3f}, "
           f"a=0 widths {max_zero_width:.2e}",
           time.perf_counter() - t0, 60.0)


def test_criterion_7_involution_pair_suite():
    t0 = time.perf_counter()
    # Unimodular-root identities on a gamma grid.
    bishop_worst = 0.0
    for gamma in np.linspace(0.5001, 8.0, 200):
        lam = lambda_from_gamma(float(gamma)).lam
        bishop_worst = max(
            bishop_worst,
            abs(gamma * lam * lam - lam + gamma),
            abs(abs(lam) - 1.0),
            abs((lam + np.conj(lam)) - 1.0 / gamma),
        )
    gamma_one = lambda_from_gamma(1.0)
    exceptional_ok = gamma_one.exceptional and gamma_one.root_order == 6

    # Involution identities for the pair built from a family.
    rng = np.random.default_rng(707)
    tp4 = TwistParams(alpha=(4 * math.pi - 2.0) / 4, s=1)
    fam = CoefficientFamily({(4, 0): 0.05 + 0.02j, (2, 1): 0.03 - 0.01j}, 1)
    tau1, tau2, _ = build_involution_maps(fam, tp4)
    r = rng.uniform(0.05, 0.35, size=300)
    xi = r * np.exp(2j * np.pi * rng.uniform(size=300))
    eta = rng.uniform(0.05, 0.35, size=300) * np.exp(
        2j * np.pi * rng.uniform(size=300))
    ix, ie = tau1(*tau1(xi, eta))
    invol_defect = float((np.abs(ix - xi) + np.abs(ie - eta)).max())
    lx, le = tau2(np.conj(xi), np.conj(eta))
    rx, re = tau1(xi, eta)
    reality_defect = float((np.abs(np.conj(lx) - rx)
                            + np.abs(np.conj(le) - re)).max())

    # Quadratic-response coefficient by the two-phase probe: 4s | n, s = 1.
    probe = q_zeta_check(0.05, tp4, 4, t=1e-3)
    probe_ok = probe.rel_error < 0.05

    # Isolated real intersections: count stable across three grids.
    a = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
    abar = CoefficientFamily({(4, 0): -0.06 + 0.01j}, 1)
    counts = []
    for gs in (256, 512, 1024):
        crv = surface_curves(a, tp4, 4, 2, grid_size=gs, abar=abar)
        counts.append(len(crv.real_intersections))
    counts_ok = counts[0] == counts[1] == counts[2] and counts[0] > 0

    ok = (bishop_worst < 1e-13 and exceptional_ok
          and invol_defect < 1e-11 and reality_defect < 1e-11
          and probe_ok and counts_ok)
    report(7, "involution pair suite", ok,
           f"bishop {bishop_worst:.2e}, gamma=1 k=6 {exceptional_ok}, "
           f"tau1^2 {invol_defect:.2e}, rho-conjugacy {reality_defect:.2e}, "
           f"probe rel err {probe.rel_error:.2e}, counts {counts}",
           time.perf_counter() - t0, 180.0)
