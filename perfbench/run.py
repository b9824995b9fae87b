"""Benchmark of treeramsey: one workload per run, timed from outside.

    python3 perfbench/run.py --workload stepup-k4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  The program is imported from src/ of the
same checkout.  A run sets up (imports the package and hands it its
inputs), then visits the workload's whole input pool in rounds until
--seconds have passed, timing each operation and checking every
output independently.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  `--workload all` runs the four workloads one after
another, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, ".work")

# Set-up takes well under a second, while a shared machine's speed can
# drift by tens of percent over seconds.  So set-up is repeated and its median
# reported, and the repetitions are spread over the run: a few before
# the first round, then one after each round, the rest after the last.
# The first repetition also compiles the package's bytecode in a fresh
# checkout.
SETUP_BEFORE = 3
SETUP_REPEATS = 9
PROGRAM_MODULES = ("cli", "colorings", "families", "reporting", "search", "steiner")

from reference import Incorrect  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program() -> types.SimpleNamespace:
    """Import treeramsey afresh from this checkout, as a new process would."""
    for name in [n for n in sys.modules if n == "treeramsey" or n.startswith("treeramsey.")]:
        del sys.modules[name]
    pkg = importlib.import_module("treeramsey")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "treeramsey") + os.sep):
        raise ImportError(f"treeramsey imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"treeramsey.{name}") for name in PROGRAM_MODULES}
    )


def setup_once(workload) -> types.SimpleNamespace:
    m = import_program()
    workload.setup(m)
    return m


def spare_setup(name: str, seed: int, clock: SpeedClock) -> None:
    """One more timed set-up on a fresh instance whose result is dropped.

    The modules it imports are put back afterwards, so the operations
    keep running on the set-up they were handed before the first round.
    """
    kept = {n: mod for n, mod in sys.modules.items() if n.split(".")[0] == "treeramsey"}
    workdir = os.path.join(WORK, f"{name}-spare")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    clock.timed("setup", setup_once, WORKLOADS[name](seed, workdir))
    shutil.rmtree(workdir, ignore_errors=True)
    for n in [n for n in sys.modules if n.split(".")[0] == "treeramsey"]:
        del sys.modules[n]
    sys.modules.update(kept)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[name](seed, workdir)
    clock = SpeedClock()
    for _ in range(SETUP_BEFORE):
        m = clock.timed("setup", setup_once, workload)

    problems = []
    try:
        workload.precheck()
    except Incorrect as exc:
        problems.append(f"input: {exc}")
    tracer = Tracer() if trace else None
    attempted = failed = rounds = 0
    order = workload.order()
    start = time.perf_counter()
    with tracer.installed(m) if tracer else contextlib.nullcontext():
        while rounds == 0 or time.perf_counter() - start < seconds:
            rounds += 1
            gc.collect()
            for i in order:
                workload.before(i)
                if tracer:
                    tracer.op = attempted
                attempted += 1
                try:
                    raw = clock.timed("op", workload.op, i)
                except Exception:  # a crash is a wrong answer, reported below
                    problems.append(f"input {i}: {traceback.format_exc()}")
                    continue
                try:
                    verdict = workload.verify(i, workload.collect(i, raw))
                except Incorrect as exc:
                    problems.append(f"input {i}: {exc}")
                    continue
                failed += verdict == "failed"
            if len(clock.raw["setup"]) < SETUP_REPEATS:
                spare_setup(name, seed, clock)
    while len(clock.raw["setup"]) < SETUP_REPEATS:
        spare_setup(name, seed, clock)
    shutil.rmtree(workdir, ignore_errors=True)
    clock.sample()
    op_times = clock.corrected("op")
    setup_times = clock.corrected("setup")

    if tracer:
        metrics = tracer.metrics(clock.raw["op"])
        metrics["traced.op_s.p50"] = (statistics.median(op_times), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s.p50": (statistics.median(op_times), "s"),
            "ops_per_s": (len(op_times) / sum(op_times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "pool": len(order),
        "setup_s": setup_times,
        "op_s": op_times,
        "raw_setup_s": clock.raw["setup"],
        "raw_op_s": clock.raw["op"],
        "kernel_s": clock.samples,
        "problems": problems,
        "result": result,
    }
    if tracer:
        tracer.write(
            os.path.join(OUT, f"trace-{name}-seed{seed}.json"),
            {"workload": name, "seed": seed, "ops": attempted},
        )
    return result, detail


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, mv in r["metrics"].items():
            print(f"  {metric:32s} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treeramsey", "__init__.py")):
        sys.stderr.write(f"no treeramsey package under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for problem in detail["problems"]:
        sys.stderr.write(problem.rstrip() + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
