"""Benchmark of revtwist: one workload per run, checked outputs, one JSON line.

    python3 bench/run.py --workload normal_form --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  A run repeats whole rounds of the workload's
operations in this process until `--seconds` have passed, timing one
fresh interpreter's set-up (`setup_s`) before each round, and prints as
its last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 1` it
runs the warm-up and one round under the tracer instead and reports the
per-layer metrics.  Details of every run go to `.bench_out/`.  See
README.md in this directory for the metrics, workloads and reference
figures.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("normal_form", "witness", "surface")
SETUP_REPEATS = 5
# Nominal time of the calibration kernel: reported times are scaled to a
# machine on which `kernel()` takes this long (see `normalized`).
KERNEL_NOMINAL_S = 0.010

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import revtwist, revtwist.cli
import warmup
warmup.warm_up()
print(repr(time.perf_counter() - t0))
"""


def kernel() -> tuple[float, float]:
    """Wall and CPU time of a fixed mix of interpreter arithmetic and
    small numpy products, the two kinds of work the program does."""
    a = np.linspace(0.0, 1.0, 30) * (1 + 1j)
    w, c = time.perf_counter(), time.process_time()
    x = 0
    for i in range(20000):
        x += i * i
    for _ in range(3000):
        np.convolve(a, a)
    return time.perf_counter() - w, time.process_time() - c


def normalized(seconds: float, before: float, after: float) -> float:
    """`seconds` at nominal machine speed.

    On a shared machine the speed available to one process can swing by
    half over tens of seconds.  The kernel runs right before and right
    after each timed piece of work; scaling by KERNEL_NOMINAL_S over their
    mean removes the machine's momentary speed and keeps what the program
    costs."""
    return seconds * KERNEL_NOMINAL_S / (0.5 * (before + after))


class Stopwatch:
    """Times the program calls of one operation, each on its own.

    With calibration on, the kernel runs after every call, so each call's
    time is normalized by the kernels right before and right after it;
    short calls follow the machine's changing speed closely."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.last = kernel() if calibrate else None
        self.reset()

    def reset(self) -> None:
        self.wall = self.cpu = self.norm_wall = self.norm_cpu = 0.0

    def __call__(self, fn, *args, **kwargs):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            self.wall += wall
            self.cpu += cpu
            if self.calibrate:
                k = kernel()
                self.norm_wall += normalized(wall, self.last[0], k[0])
                self.norm_cpu += normalized(cpu, self.last[1], k[1])
                self.last = k


def fresh_setup() -> float:
    """Import + lazy set-up time of one fresh interpreter, as it reports it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    before = kernel()[0]
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return normalized(float(proc.stdout.strip().splitlines()[-1]), before, kernel()[0])


def layer_metrics(tracer, import_s: float) -> dict:
    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    compose_watch = ("series.map_inverse", "normal_form.mw_normalize",
                     "normal_form.linearize_involution", "normal_form.full_normalize")
    count = {
        "series.jet_mul.calls": get("series.jet_mul", "calls"),
        "series.jet_mul.sparse_calls": get("series.jet_mul", "extra"),
        "series.jet_compose.calls": get("series.jet_compose", "calls"),
        "series.map_compose.calls": get("series.map_compose", "calls"),
        "series.map_inverse.calls": get("series.map_inverse", "calls"),
        "series.map_inverse.passes": tracer.children("series.map_compose", "series.map_inverse"),
        "normal_form.full_normalize.direct_compose_calls": tracer.under(
            "series.map_compose", compose_watch, "normal_form.full_normalize"),
        "families.eval.calls": get("families.eval", "calls"),
        "families.eval.points": get("families.eval", "extra"),
        "twist.fixed_point.calls": get("twist._exponent_fixed_point", "calls"),
        "twist.fixed_point.iters": tracer.children("families.eval", "twist._exponent_fixed_point"),
        "twist.map_evals": get("twist.map_eval", "calls"),
        "twist.map_eval_points": get("twist.map_eval", "extra"),
        "twist.h_eval.calls": get("twist.h_eval", "calls"),
        "twist.compute_constants.calls": get("twist.compute_constants", "calls"),
        "surface.tau_evals": get("surface.tau_eval", "calls"),
    }
    seconds = {
        "series.jet_mul.self_s": get("series.jet_mul", "self_s"),
        "series.jet_compose.self_s": get("series.jet_compose", "self_s"),
        "series.map_inverse.total_s": get("series.map_inverse", "total_s"),
        "normal_form.full_normalize.total_s": get("normal_form.full_normalize", "total_s"),
        "normal_form.mw_normalize.total_s": get("normal_form.mw_normalize", "total_s"),
        "normal_form.linearize_involution.total_s": get("normal_form.linearize_involution",
                                                        "total_s"),
        "families.eval.self_s": get("families.eval", "self_s"),
        "twist.fixed_point.self_s": get("twist._exponent_fixed_point", "self_s"),
        "twist.iterate.total_s": get("twist.iterate", "total_s"),
        "twist.periodic_curve.total_s": get("twist.periodic_curve", "total_s"),
        "twist.compute_constants.total_s": get("twist.compute_constants", "total_s"),
        "obstruction.select_resonant_n.total_s": get("obstruction.select_resonant_n", "total_s"),
        "obstruction.divergence_witness.total_s": get("obstruction.divergence_witness",
                                                      "total_s"),
        "surface.surface_curves.total_s": get("surface.surface_curves", "total_s"),
        "surface.real_intersection.total_s": get("surface.real_intersection", "total_s"),
        "surface.q_zeta_check.total_s": get("surface.q_zeta_check", "total_s"),
        "surface.Hn_obstruction.total_s": get("surface.Hn_obstruction", "total_s"),
        "surface.involution_jets.total_s": get("surface.involution_jets", "total_s"),
        "cli.import_s": import_s,
    }
    out = {k: {"value": int(v), "unit": "count"} for k, v in count.items()}
    out.update({k: {"value": float(v), "unit": "s"} for k, v in seconds.items()})
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import revtwist.cli  # noqa: F401  (timed: the import a CLI user pays)
    import_s = time.perf_counter() - t0

    import revtwist
    import warmup
    import workloads
    from tracer import Tracer

    caches = (revtwist.twist.beta_reduce, revtwist.twist.compute_constants)
    ops = workloads.WORKLOADS[workload](seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    warmup.warm_up()

    n_ops = len(ops)
    wall = [[] for _ in ops]
    cpu = [[] for _ in ops]
    norm_wall = [[] for _ in ops]
    norm_cpu = [[] for _ in ops]
    errors = [None] * n_ops
    passed = [False] * n_ops
    prints = [None] * n_ops
    checks = workloads.Checks()
    rounds = failed = 0
    setups = []
    start = time.perf_counter()
    while rounds == 0 or (not trace and time.perf_counter() - start < seconds):
        if not trace:
            # Set-up samples are spread over the run, between rounds, so
            # that their median does not hang on one moment of the machine.
            setups.append(fresh_setup())
        watch = Stopwatch(calibrate=not trace)
        for i, op in enumerate(ops):
            for cache in caches:
                cache.cache_clear()
            watch.reset()
            try:
                out, err = op.run(watch), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall[i].append(watch.wall)
            cpu[i].append(watch.cpu)
            norm_wall[i].append(watch.norm_wall)
            norm_cpu[i].append(watch.norm_cpu)
            if rounds == 0:
                errors[i] = err
                if err is None:
                    if tracer:
                        tracer.uninstall()
                    before = len(checks.problems)
                    op.check(out, checks)
                    passed[i] = len(checks.problems) == before
                    if tracer:
                        tracer.install()
                    prints[i] = op.fingerprint(out)
            elif err != errors[i] or (err is None and op.fingerprint(out) != prints[i]):
                checks.holds(f"{op.label}: round {rounds} differs from round 0", False)
            failed += err is not None
        rounds += 1
    elapsed = time.perf_counter() - start
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(fresh_setup())

    solved = sum(passed)
    op_wall = [statistics.median(w) for w in norm_wall]
    op_cpu = [statistics.median(c) for c in norm_cpu]
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
        "elapsed_s": elapsed, "setup_s": setups,
        "operations": [
            {"label": op.label, "error": errors[i], "wall_s": wall[i], "cpu_s": cpu[i],
             "normalized_wall_s": norm_wall[i], "normalized_cpu_s": norm_cpu[i]}
            for i, op in enumerate(ops)
        ],
        "problems": checks.problems,
    }
    if trace:
        metrics = layer_metrics(tracer, import_s)
        tracer.uninstall()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s_per_solution": {"value": sum(op_cpu) / max(solved, 1), "unit": "s"},
            "wall_s_p50": {"value": statistics.median(op_wall), "unit": "s"},
            "accuracy_margin_dec": {"value": min(checks.margins), "unit": "dec"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    detail["round_wall_s"] = sum(min(w) for w in wall)
    detail["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    if tracer:
        tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    for p in checks.problems:
        print(f"check failed: {p}", file=sys.stderr)
    for i, op in enumerate(ops):
        if errors[i]:
            print(f"operation failed: {op.label}: {errors[i]}", file=sys.stderr)
    return {
        "correct": not checks.problems and solved > 0,
        "attempted": rounds * n_ops,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "revtwist" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
