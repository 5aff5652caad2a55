"""The benchmark under bench/ reaches into the package by name; a change
that deletes or renames one of those names would break it silently.  These
tests read bench/ and change nothing there."""

import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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


def test_curve_keeps_the_keyword_the_workloads_pass():
    from revtwist.twist import periodic_curve

    assert "check_domain" in inspect.signature(periodic_curve).parameters
