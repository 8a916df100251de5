"""Benchmark of platelab: end-to-end timings per workload and a traced run.

One workload, as BENCHMARK.json runs it (from the repository root):

    python3 bench/run.py --workload limit_crossover --seed 1 --seconds 25 --trace 0

Every workload, with a table of wall_s, setup_s, peak_rss_mb and fail_frac
(exit code 1 if any oracle fails):

    python3 bench/run.py --all --seconds 25

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and the unattributed share.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Results go to bench/out/.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy is imported, to a value that
# is at most nproc on every machine.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from reference import REF_S, reference_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("ratio", "higher"),
}

_S, _N, _R = ("s", "lower"), ("count", "lower"), ("ratio", "lower")
PER_LAYER = {
    "minimize.self_s": _S,
    "minimize.search_calls": _N,
    "minimize.evals": _N,
    "minimize.candidates": _N,
    "minimize.offered": _N,
    "minimize.pruned": ("count", "higher"),
    "minimize.prune_frac": ("ratio", "higher"),
    "minimize.rounds": _N,
    "minimize.round_cap_hits": _N,
    "minimize.cg_calls": _N,
    "minimize.cg_iters": _N,
    "minimize.cg_s": _S,
    "minimize.cg_fails": _N,
    "minimize.cg_fail_frac": _R,
    "minimize.factor_calls": _N,
    "minimize.factor_s": _S,
    "minimize.trisolve_s": _S,
    "energy.calls": _N,
    "energy.s": _S,
    "kirchhoff_love.calls": _N,
    "kirchhoff_love.s": _S,
    "elasticity.form_evals": _N,
    "elasticity.s": _S,
    "geometry.kernel_s": _S,
    "geometry.queries": _N,
    "geometry.pair_tests": ("count-computed", "lower"),
    "geometry.hits": ("count", "higher"),
    "geometry.hit_frac": ("ratio", "higher"),
    "geometry.cubes": _N,
    "geometry.bad_cubes": _N,
    "geometry.bad_frac": _R,
    "geometry.classify_s": _S,
    "geometry.jump_s": _S,
    "geometry.self_s": _S,
    "interpolation.eval_points": _N,
    "interpolation.eval_s": _S,
    "interpolation.build_s": _S,
    "interpolation.sample_s": _S,
    "interpolation.self_s": _S,
    "lab.self_s": _S,
    "trace.spans": _N,
    "trace.untraced_wall_s": _S,
    "trace.traced_wall_s": _S,
    "trace.overhead_s": _S,
    "trace.overhead_frac": _R,
    "trace.attributed_s": ("s", "higher"),
    "trace.unattributed_s": _S,
    "trace.unattributed_frac": _R,
}


def import_platelab() -> SimpleNamespace:
    """The platelab modules of this checkout's src/, never an installed copy."""
    init = SRC / "platelab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no platelab sources at {init}")
    sys.path.insert(0, str(SRC))
    import platelab
    if Path(platelab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported platelab from {platelab.__file__}")
    from platelab import (elasticity, energy, geometry, interpolation,
                          kirchhoff_love, lab, minimize)
    return SimpleNamespace(elasticity=elasticity, energy=energy,
                           geometry=geometry, interpolation=interpolation,
                           kirchhoff_love=kirchhoff_love, lab=lab,
                           minimize=minimize)


def git_commit():
    """The checkout's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None  # not a checkout, or one that merely encloses ROOT
    return out[1]


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "seed_used": WORKLOADS[args.workload].seeded,
        "nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
    }


def _child(args, *extra) -> list:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, *extra]


def setup_seconds(args) -> tuple[list, list]:
    """Wall times of fresh interpreters that import platelab and build the
    workload's inputs, and the reference time each of them measured next."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(_child(args, "--setup-probe"), text=True,
                              stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            ref = proc.stdout.readline()
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or ready != "ready\n":
                raise RuntimeError("set-up probe failed")
        refs.append(float(ref))
    return times, refs


def measure(args, M) -> tuple[dict, Checks, dict]:
    """Run the workload for args.seconds; (metrics, checks, pass timings)."""
    w = WORKLOADS[args.workload]
    import scipy.sparse.linalg as spla

    setup, setup_refs = setup_seconds(args) if not args.trace else ([], [])
    inp = w.setup(M, args.seed, args.size)
    checks = Checks()

    def one_pass() -> float:
        t0 = time.perf_counter()
        w.run(M, inp, checks)
        return time.perf_counter() - t0

    # The run lasts args.seconds from here; the first pass warms up lazy
    # imports and first calls, and is checked but not timed.
    deadline = time.perf_counter() + args.seconds
    one_pass()
    tracer = Tracer()
    untraced, refs, traced, layers = [], [reference_s()], [], []
    while True:
        untraced.append(one_pass())
        refs.append(reference_s())
        if args.trace:
            with tracer.installed(M, spla):
                checks.tracer = tracer
                start = tracer.mark()
                try:
                    traced.append(one_pass())
                finally:
                    checks.tracer = None
            layers.append(tracer.pass_metrics(start, traced[-1]))
        if time.perf_counter() >= deadline:
            break

    wall_s = statistics.median(untraced)
    if not args.trace:
        attempted = checks.attempted
        values = {
            "wall_s": statistics.median(
                raw * REF_S / (0.5 * (refs[i] + refs[i + 1]))
                for i, raw in enumerate(untraced)),
            "setup_s": statistics.median(
                t * REF_S / ref for t, ref in zip(setup, setup_refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - checks.failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
    else:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_s = statistics.median(traced)
        values["trace.untraced_wall_s"] = wall_s
        values["trace.traced_wall_s"] = traced_s
        values["trace.overhead_s"] = traced_s - wall_s
        values["trace.overhead_frac"] = (traced_s - wall_s) / wall_s
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-spans.jsonl")
    return metrics, checks, {"untraced_s": untraced, "reference_s": refs,
                             "traced_s": traced, "setup_s": setup,
                             "setup_reference_s": setup_refs}


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    M = import_platelab()
    if args.setup_probe:
        # The reference is timed in the process that did the set-up; the
        # parent scales the set-up time with it.
        w.setup(M, args.seed, args.size)
        print("ready", flush=True)
        print(reference_s())
        return 0
    env = environment(args)
    if not w.seeded:
        print(f"note: {args.workload} has no random input; seed {args.seed} is ignored")
    metrics, checks, passes = measure(args, M)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, "result": result, "passes": passes,
                   "failures": checks.failures()}, f, indent=1)
    print("env " + json.dumps(env))
    print(f"passes: {len(passes['untraced_s'])} untraced, "
          f"{len(passes['traced_s'])} traced; raw medians: pass "
          f"{statistics.median(passes['untraced_s'])!r} s, reference "
          f"{statistics.median(passes['reference_s'])!r} s (REF_S {REF_S!r} s)")
    for name, ok, detail in checks.failures():
        print(f"FAILED {name}: {detail}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; a table per metric and workload."""
    table = PER_LAYER if args.trace else END_TO_END
    results, status = {}, 0
    for name in WORKLOADS:
        args.workload = name
        proc = subprocess.run(
            _child(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        for line in lines:
            if line.startswith("FAILED"):
                print(f"{name}: {line}")
        if proc.returncode != 0 or not results[name]["correct"]:
            status = 1
    names = list(results)
    print(f"{'metric':<28} {'unit':<15}" + "".join(f"{n:>16}" for n in names))
    rows = [(k, table[k][0], [results[n]["metrics"][k]["value"] for n in names])
            for k in table if k != "pass_frac"]
    if not args.trace:
        rows.append(("fail_frac", "ratio",
                     [results[n]["failed"] / results[n]["attempted"] for n in names]))
    for k, unit, vals in rows:
        print(f"{k:<28} {unit:<15}" + "".join(f"{v:>16.6g}" for v in vals))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
