"""Self-test of the benchmark: its checkers reject planted wrong answers,
every workload runs one round in both modes, and a directory without
the program makes the benchmark fail without a result.

    python3 perfbench/selftest.py

Takes about a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

from run import ROOT, SRC, WORK, import_program
from reference import Incorrect
from workloads import WORKLOADS

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def verdict(workload, i, out) -> str:
    try:
        return workload.verify(i, out)
    except Incorrect as exc:
        return f"rejected: {exc}"


def one_output(name: str, i: int = 0):
    workdir = os.path.join(WORK, f"selftest-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[name](1, workdir)
    workload.setup(import_program())
    workload.precheck()
    workload.before(i)
    return workload, workload.collect(i, workload.op(i))


def slot(out, flavor: str, color: int) -> dict:
    return next(s for s in out["report"]["slots"] if (s["flavor"], s["color"]) == (flavor, color))


def planted() -> None:
    wl, out = one_output("stepup-k3")
    expect(verdict(wl, 0, out) == "ok", "stepup-k3 accepts a real run")
    bad = copy.deepcopy(out)
    slot(bad, "F", 1)["status"] = "witness"
    expect(verdict(wl, 0, bad).startswith("rejected"), "stepup-k3 rejects a non-clean slot")

    wl, out = one_output("stepup-k4")
    expect(verdict(wl, 0, out) == "ok", "stepup-k4 accepts a real run")
    for flavor, color in (("F", 1), ("revF", 2), ("F", 0)):
        for shift in (-1, 1):
            bad = copy.deepcopy(out)
            slot(bad, flavor, color)["witness"]["assignment"]["2,3,4"] += shift
            expect(
                verdict(wl, 0, bad).startswith("rejected"),
                f"stepup-k4 rejects the {flavor}{color} connector moved by {shift:+d}",
            )

    wl, out = one_output("steiner", 0)  # (n, k, m) = (3, 3, 3): pairs are the 2-sets
    expect(verdict(wl, 0, out) == "ok", "steiner accepts a real run")
    bad = copy.deepcopy(out)
    edges = bad["glued"]["edges"]
    present = {tuple(e) for e in edges}
    a, b, c = edges[0]
    z = next(z for z in range(1, bad["glued"]["v"] + 1)
             if z not in (a, b, c) and tuple(sorted((a, b, z))) not in present)
    edges[1] = sorted((a, b, z))
    expect("lies in two glued edges" in verdict(wl, 0, bad),
           "steiner rejects a glued system with one repeated pair")

    workdir = os.path.join(WORK, "selftest-ordering")
    shutil.rmtree(workdir, ignore_errors=True)
    wl = WORKLOADS["ordering"](1, workdir)
    wl.setup(import_program())
    outs = {i: wl.op(i) for i in range(wl.pool_size())}
    verdicts = {i: verdict(wl, i, outs[i]) for i in outs}
    right = [i for i, v in verdicts.items() if v == "ok"]
    wrong = [i for i, v in verdicts.items() if v == "failed"]
    expect(len(right) + len(wrong) == len(outs) and right and wrong,
           f"ordering: {len(wrong)} of {len(outs)} hosts hit the memo fault, the rest are right")
    for fl in ("F", "revF"):
        host, copies, contains = copy.deepcopy(outs[right[0]])
        contains[fl] = not contains[fl]
        expect(verdict(wl, right[0], (host, copies, contains)) == "failed",
               f"ordering rejects a flipped {fl} containment answer")
    host, copies, contains = copy.deepcopy(outs[right[0]])
    copies["G"] = None if copies["G"] else (1, 2, 3, 4, 5)
    expect(verdict(wl, right[0], (host, copies, contains)).startswith("rejected"),
           "ordering rejects a flipped G copy answer")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke() -> None:
    spec = benchmark_spec()
    command = spec["command"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            proc = subprocess.run(
                command + ["--workload", name, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            counts_ok = (
                0 < result.get("failed", -1) < result.get("attempted", 0)
                if name == "ordering"
                else result.get("failed") == 0 and result.get("attempted", 0) >= 1
            )
            expect(
                proc.returncode == 0
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and counts_ok
                and units == wanted,
                f"smoke {name} --trace {trace}: one round, correct, every metric present",
            )


def bare_directory() -> None:
    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    spec = benchmark_spec()
    for path in spec["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), os.path.join(bare, path),
            ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
        )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    sys.path.insert(0, SRC)
    planted()
    smoke()
    bare_directory()
    for name in os.listdir(WORK):
        if name.startswith("selftest-"):
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
