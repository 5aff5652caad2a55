"""The benchmark under bench/ reaches into the package by name; a change
that deletes or renames one of those names would break it silently.  These
tests read bench/ and change nothing there."""

import ast
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_uninstalls():
    tracer = load_bench_module("tracer").Tracer()
    try:
        # install() looks up every name it wraps; a missing one raises here
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound
        for owner, attr, original in rebound:
            assert callable(original)
            assert getattr(owner, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, f"{attr} is still wrapped"


def bench_calls():
    """(where, name, positional count, keywords) of every program call in
    the workloads and the warm-up, made as rt.f(...) or call(rt.f, ...)."""
    for module in ("workloads", "warmup"):
        for node in ast.walk(ast.parse((BENCH / f"{module}.py").read_text())):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "call" and args:
                func, args = args[0], args[1:]
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "rt"):
                assert not any(isinstance(a, ast.Starred) for a in args)
                yield (f"{module}.py:{node.lineno}", func.attr, len(args),
                       [k.arg for k in node.keywords])


def test_curve_keeps_the_keyword_the_workloads_pass():
    # Every call still binds to the signature it reaches, so no keyword or
    # positional slot the benchmark passes has gone.
    import revtwist

    passed = set()
    for where, name, nargs, keywords in bench_calls():
        signature = inspect.signature(getattr(revtwist, name))
        try:
            signature.bind(*range(nargs), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{where}: {name}{signature} no longer binds: {exc}")
        passed.update(keywords)
    assert passed >= {"check_domain", "grid_size", "K", "order", "reality", "tau", "abar",
                      "intersect", "include_remainder", "t", "samples"}


def test_runner_clears_the_caches_it_names():
    # bench/run.py clears both caches before every operation.
    from revtwist import twist

    for cached in (twist.beta_reduce, twist.compute_constants):
        cached.cache_clear()


def traced_counts(run):
    """Span calls and summed points of `run()` under the benchmark tracer."""
    tracer = load_bench_module("tracer").Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return {name: (v["calls"], v["extra"]) for name, v in tracer.summary().items()}


# The pointwise layers the tracer wraps by name; the orbit kernel carries
# every curve orbit on its level set and calls none of them.  Its one
# traced layer is the exponent solve, one span per factor per step.
POINTWISE_SPANS = ("twist.map_eval", "twist.iterate", "families.eval", "surface.tau_eval")


def test_tracer_counts_curve_layers():
    # One period-7 curve on 32 points takes three solver steps, each one
    # h_eval; the final h evaluation, whose orbit the return test reads,
    # is the kernel's own and is not traced.  Each of the four orbits
    # makes one exponent solve per step and runs no traced pointwise layer.
    from revtwist.families import CoefficientFamily
    from revtwist.twist import TwistParams, periodic_curve

    n = 7
    tp = TwistParams(alpha=(2 * math.pi - 0.08) / n, s=1)
    fam = CoefficientFamily({(7, 0): 0.05, (3, 0): 0.02 + 0.01j, (1, 3): -0.03j}, 1)
    counts = traced_counts(lambda: periodic_curve(fam, tp, n, 2, grid_size=32, K=8))
    assert counts == {"twist.h_eval": (3, 0), "twist._exponent_fixed_point": (4 * n, 0)}


def test_tracer_counts_surface_layers():
    # The involution product runs as the kernel's map, so neither its steps
    # nor the pointwise tau evaluators show among the spans; each of its
    # six orbits (five h evaluations and the final one) solves once per
    # factor per step.
    from revtwist.families import CoefficientFamily
    from revtwist.surface import surface_curves
    from revtwist.twist import TwistParams

    n = 4
    tp = TwistParams(alpha=(4 * math.pi - 2.0) / n, s=1)
    a = CoefficientFamily({(4, 0): 0.05 + 0.02j}, 1)
    abar = CoefficientFamily({(4, 0): -0.06 + 0.01j}, 1)
    counts = traced_counts(lambda: surface_curves(a, tp, n, 2, grid_size=64, abar=abar))
    assert counts["twist.h_eval"] == (5, 0)
    assert counts["twist._exponent_fixed_point"] == (6 * n * 2, 0)
    assert counts["surface.real_intersection"] == (1, 0)
    assert not counts.keys() & set(POINTWISE_SPANS)


# (s, n, alpha, secant steps of each branch alone, secant steps of the
# default estimator at t = 1e-2)
OBSTRUCTION_INPUTS = [
    (1, 4, (4 * math.pi - 2.0) / 4, 7, 4),
    (2, 8, (4 * math.pi - 1.25) / 8, 5, 3),
]


@pytest.mark.parametrize("s, n, alpha, steps, default_steps", OBSTRUCTION_INPUTS,
                         ids=["s1-n4", "s2-n8"])
def test_tracer_counts_obstruction_branches(s, n, alpha, steps, default_steps):
    # Hn_obstruction solves branches 1..s, one of each pair (j, j + s), as
    # one batch: one secant loop whose every step is one h evaluation and
    # one n-step orbit over all of them, plus the final evaluation the
    # return test reads.  Each branch takes the steps it takes alone, so
    # the batch makes the h evaluations of one single-branch curve, and
    # each of its orbits one exponent solve per factor per step.
    from revtwist.families import CoefficientFamily
    from revtwist.surface import Hn_obstruction, surface_curves
    from revtwist.twist import TwistParams

    tp = TwistParams(alpha=alpha, s=s)
    a = CoefficientFamily({(n, 0): 0.05}, s)
    for j in range(1, 2 * s + 1):
        alone = traced_counts(lambda: surface_curves(a, tp, n, j, intersect=False))
        assert alone["twist.h_eval"] == (steps, 0)
    counts = traced_counts(lambda: Hn_obstruction(a, tp, n, include_remainder=True))
    assert counts == {"twist.h_eval": (steps, 0),
                      "twist._exponent_fixed_point": ((steps + 1) * n * 2, 0)}
    # The default estimator makes one batched solve of the four probe
    # curves (two probe phases, two probe sizes) of every branch.
    counts = traced_counts(lambda: Hn_obstruction(a, tp, n, t=1e-2))
    assert counts == {"twist.h_eval": (default_steps, 0),
                      "twist._exponent_fixed_point": ((default_steps + 1) * n * 2, 0)}


@pytest.mark.parametrize("seed", [120, 420])
def test_normal_form_workload_draws_no_refused_operation(seed, monkeypatch):
    # The s = 1 operation the normal_form workload draws at these seeds
    # (lambda = e^{2.489i} at seed 420) was refused at N = 16 by the
    # two-half elimination, with off-form residuals 3.296e-06 (seed 120)
    # and 1.618e-06 (seed 420); solved in Phi0's symmetry class it passes
    # every check of the workload.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = load_bench_module("workloads")
    op, = (op for op in workloads.normal_form_ops(seed) if op.label.startswith("normalize s=1 "))
    checks = workloads.Checks()
    op.check(op.run(lambda fn, *args: fn(*args)), checks)
    assert checks.problems == []
