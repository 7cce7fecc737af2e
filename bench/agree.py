#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 bench/agree.py --runs 10                       # two sets, every workload
    python3 bench/agree.py --load .bench_work/agree.json   # judge stored runs again

Set 1 runs seeds 1 to ``runs``, set 2 seeds ``runs + 1`` to ``2 * runs``, one
run per workload of BENCHMARK.json per seed, one at a time; the runs are
stored in ``.bench_work/agree.json``. For each workload and end-to-end metric
it prints each set's median and quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median. The sets agree when every spread is within the
metric's bound in BENCHMARK.json, the two medians differ by at most the bound
(as a share of the first), every run was correct, and the share of failed
operations is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_work" / "agree.json"


def run_once(workload: str, seed: int, trace: int = 0) -> tuple[dict, list[str]]:
    """Run the benchmark once; return its result object and its other lines."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1] + proc.stderr.splitlines()


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--load", type=Path, help="judge the runs stored in this file instead")
    args = parser.parse_args(argv)

    if args.load:
        results = json.loads(args.load.read_text())
    else:
        results = {w["name"]: [[], []] for w in SPEC["workloads"]}
        for s in range(2):
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                for w in results:
                    start = time.perf_counter()
                    result, lines = run_once(w, seed)
                    result["seed"] = seed
                    result["lines"] = lines
                    result["wall_s"] = time.perf_counter() - start
                    results[w][s].append(result)
                    print(f"set {s + 1} seed {seed} {w}: {result['wall_s']:.1f} s "
                          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                          file=sys.stderr, flush=True)
        OUT.parent.mkdir(exist_ok=True)
        OUT.write_text(json.dumps(results, indent=1) + "\n")

    agree = True
    print(f"{'workload':10s} {'metric':22s} " + "  ".join(
        f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>44s}" for s in range(2))
        + "  bound  verdict")
    for w, sets in results.items():
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians, ok = [], [], True
            for runs in sets:
                q1, q2, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(q2)
                ok &= sp <= bound
                cols.append(f"{q2:>12.5g} [{q1:.5g}, {q3:.5g}] {sp:6.1%}".rjust(44))
            ok &= abs(medians[1] - medians[0]) / medians[0] <= bound
            agree &= ok
            print(f"{w:10s} {name:22s} " + "  ".join(cols) + f"  {bound:.2f}  {'ok' if ok else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        agree &= correct and shares[0] == shares[1]
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"{w:10s} failed share per set {shares}, all correct: {correct}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
    print("verdict: " + ("the sets agree" if agree else "the sets DISAGREE"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
