"""Quick self-test of the benchmark (about a minute).

    python3 bench/selftest.py

1. The tracer's counts on one N=12 full_normalize (lambda = e^{0.7i},
   eps = 1, s = 2, frame from default_rng(1) at scale 0.04) must equal
   the reference counts below exactly.
2. The first operations of every workload run and pass their checks.
3. One whole run of `witness` through run.py prints a result line of the
   required shape, counting its one failing operation.
"""

import cmath
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import revtwist as rt  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Counts of one N=12 full_normalize; they match the "current state" table
# of the ROADMAP (135 map_compose, 6.5k jet_mul).
EXPECTED = {
    "series.map_compose": 135,
    "series.jet_compose": 270,
    "series.map_inverse": 16,
    "series.jet_mul": 6506,
}


def check_tracer_counts() -> list[str]:
    order = 12
    frame = ref.swap_commuting_frame(np.random.default_rng(1), order, 0.04)
    target = ref.normal_form(cmath.exp(0.7j), 1, 2, order)
    phi = ref.map_compose(ref.map_inverse(frame), ref.map_compose(target, frame))
    phi_jet = rt.MapJet(rt.Jet(phi[0], order), rt.Jet(phi[1], order))
    tracer = Tracer()
    tracer.install()
    try:
        rt.full_normalize(phi_jet)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    got = {k: summary.get(k, {}).get("calls", 0) for k in EXPECTED}
    problems = [f"tracer: {k} counted {got[k]}, expected {v}"
                for k, v in EXPECTED.items() if got[k] != v]
    if rt.jet_mul is not rt.series.jet_mul or hasattr(rt.series.jet_mul, "__wrapped__"):
        problems.append("tracer: uninstall left a wrapper behind")
    return problems


def check_first_operations(count: int = 2) -> list[str]:
    problems = []
    for name, build in workloads.WORKLOADS.items():
        for op in build(7)[:count]:
            checks = workloads.Checks()
            try:
                op.check(op.run(lambda fn, *a, **k: fn(*a, **k)), checks)
            except Exception as exc:
                checks.problems.append(f"{type(exc).__name__}: {exc}")
            problems += [f"{name}: {op.label}: {p}" for p in checks.problems]
    return problems


def check_run_line() -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "witness", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"run.py exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"run.py: keys {sorted(result)}")
    if not result["correct"]:
        problems.append("run.py: witness run not correct")
    n_ops = len(workloads.WITNESS_PLAN) + 1
    if (result["attempted"], result["failed"]) != (n_ops, 1):
        problems.append(f"run.py: attempted/failed {result['attempted']}/{result['failed']}, "
                        f"expected {n_ops}/1")
    names = {"setup_s", "cpu_s_per_solution", "wall_s_p50", "accuracy_margin_dec", "peak_rss_mb"}
    if set(result["metrics"]) != names:
        problems.append(f"run.py: metrics {sorted(result['metrics'])}")
    return problems


def main() -> int:
    problems = check_tracer_counts() + check_first_operations() + check_run_line()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
