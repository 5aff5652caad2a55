"""Lazy set-up: one tiny call into each layer before the first timed
operation.  Kept free of the benchmark's own heavier imports so that a
fresh interpreter timing it measures the program alone."""

import cmath
import math

import revtwist as rt


def warm_up() -> None:
    rt.full_normalize(rt.normal_form_map(cmath.exp(0.9j), 1, 1, 4))
    tp = rt.TwistParams(alpha=(2 * math.pi - 0.25) / 7, s=1)
    schedule = rt.select_resonant_n(tp.alpha, 0.3, 1, 50)
    rt.divergence_witness(rt.CoefficientFamily({(4, 0): 0.01}, 1, hermitian=True), tp, schedule)
    tpg = rt.TwistParams(alpha=cmath.phase(rt.lambda_from_gamma(0.8).lam), s=1)
    rt.involution_jets(rt.CoefficientFamily({(3, 0): 0.01}, 1), tpg, order=4)
    tp4 = rt.TwistParams(alpha=(4 * math.pi - 2) / 4, s=1)
    fam4 = rt.CoefficientFamily({(4, 0): 0.05}, 1)
    crv = rt.surface_curves(fam4, tp4, 4, 2, grid_size=64, intersect=False)
    rt.real_intersection(crv, samples=16)
    rt.q_zeta_check(0.05, tp4, 4)
    rt.Hn_obstruction(fam4, tp4, 4, include_remainder=True)
