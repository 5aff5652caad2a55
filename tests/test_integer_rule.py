"""Every count, order, period, index and size is checked by one rule: a
Python or numpy integer in range passes; a float (even an integral one), a
bool or an out-of-range value is refused by one ValueError that names the
argument."""

import cmath
import math
import os

import numpy as np
import pytest

from revtwist import (
    CoefficientFamily,
    Hk_estimate,
    Hn_obstruction,
    Jet,
    TwistParams,
    beta_reduce,
    compute_constants,
    full_normalize,
    involution_jets,
    is_exceptional,
    iterate,
    majorant_sequence,
    normal_form_map,
    periodic_curve,
    q_zeta_check,
    real_intersection,
    select_resonant_n,
    solve_branch,
    surface_curves,
)
from revtwist.cli import load_map

N = 7
TP = TwistParams(alpha=(2 * math.pi - 0.08) / N, s=1)
FAM = CoefficientFamily({(3, 0): 0.02}, 1)
MODEL = normal_form_map(cmath.exp(0.9j), 1, 1, 8)
TP4 = TwistParams(alpha=(4 * math.pi - 2.0) / 4, s=1)  # n = 4, even winding
FAM4 = CoefficientFamily({(4, 0): 0.05}, 1)


def curve(j=2, grid_size=16, K=4):
    return periodic_curve(FAM, TP, N, j, grid_size=grid_size, K=K)


CURVE = curve()

# (site, the argument's name as the message starts, call, a valid value,
# a value out of range)
SITES = [
    ("Jet", "truncation order", lambda v: Jet(np.zeros((13, 13)), v), 12, 65),
    # True would match the shape of an order-1 table
    ("Jet order 1", "truncation order", lambda v: Jet(np.zeros((2, 2)), v), 1, 0),
    ("Jet.zero", "truncation order", lambda v: Jet.zero(v), 12, 65),
    ("Jet.from_entries", "truncation order", lambda v: Jet.from_entries({}, v), 12, 0),
    ("Jet.truncate", "truncation order", lambda v: Jet.zero(8).truncate(v), 4, 65),
    ("full_normalize", "truncation order", lambda v: full_normalize(MODEL, order=v), 6, 0),
    ("normal_form_map", "truncation order", lambda v: normal_form_map(1j, 1, 1, v), 6, 0),
    ("involution_jets", "truncation order", lambda v: involution_jets(FAM, TP, order=v), 6, 65),
    ("load_map", "truncation order", lambda v: load_map(os.devnull, v), 6, 0),
    ("TwistParams.s", "s", lambda v: TwistParams(alpha=0.1, s=v), 2, 0),
    ("CoefficientFamily.s", "s", lambda v: CoefficientFamily({(5, 0): 0.1}, v), 2, 0),
    ("family index i", r"index of entry \(.+, 3\)",
     lambda v: CoefficientFamily({(v, 3): 0.1}, 1), 4, -1),
    ("family index j", r"index of entry \(3, .+\)",
     lambda v: CoefficientFamily({(3, v): 0.1}, 1), 4, -1),
    ("beta_reduce", "n", lambda v: beta_reduce(v, 1.0), 5, 0),
    ("iterate", "n", lambda v: iterate(lambda x, y: (x, y), v, (0.1, 0.1)), 3, 0),
    ("compute_constants", "n", lambda v: compute_constants(TP, v), 10, 0),
    ("majorant_sequence n", "n", lambda v: majorant_sequence(TP, v), 10, 0),
    ("majorant_sequence K", "K", lambda v: majorant_sequence(TP, 10, K=v), 5, 11),
    ("solve_branch j", "branch index", lambda v: solve_branch(FAM, TP, N, v, 1.0), 2, 3),
    ("periodic_curve j", "branch index", lambda v: curve(j=v), 2, 0),
    ("periodic_curve grid_size", "grid_size", lambda v: curve(grid_size=v), 16, 0),
    ("periodic_curve K", "K", lambda v: curve(K=v), 4, -1),
    ("Hk_estimate n", "n", lambda v: Hk_estimate(FAM4, TP4, v), 4, 0),
    ("surface_curves n", "n", lambda v: surface_curves(FAM4, TP4, v, 2, intersect=False), 4, 0),
    ("q_zeta_check n", "n", lambda v: q_zeta_check(0.05, TP4, v), 4, 0),
    ("Hn_obstruction n", "n",
     lambda v: Hn_obstruction(FAM4, TP4, v, include_remainder=True), 4, 0),
    ("select_resonant_n count", "count", lambda v: select_resonant_n(1.0, 0.3, v, 100), 2, 0),
    ("select_resonant_n n_max", "n_max", lambda v: select_resonant_n(1.0, 0.3, 2, v), 100, 0),
    ("is_exceptional", "max_order", lambda v: is_exceptional(-1.0 + 0j, v), 8, 0),
    ("real_intersection", "samples", lambda v: real_intersection(CURVE, samples=v), 16, 1),
]


@pytest.mark.parametrize("site, name, call, good, bad", SITES, ids=[s[0] for s in SITES])
def test_one_integer_rule(site, name, call, good, bad):
    # The valid call comes first, so that a cache keyed on the value (True
    # and 5.0 hash like 1 and 5) cannot answer the refused calls.
    call(good)
    refusals = [
        (float(good), rf"an integer, got {float(good)}"),
        (True, "an integer, got True"),
        (bad, rf"(at least |in \[)-?\d.*, got {bad}"),
    ]
    for value, requirement in refusals:
        with pytest.raises(ValueError, match=rf"^{name} must be {requirement}$") as info:
            call(value)
        assert type(info.value) is ValueError
    call(np.int64(good))
