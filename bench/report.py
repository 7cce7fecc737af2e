#!/usr/bin/env python3
"""Run every workload once and print its metrics by name, with units.

    python3 bench/report.py --seed 1              # end-to-end metrics
    python3 bench/report.py --seed 1 --trace 1    # per-layer metrics, tracing overhead

Each workload runs in its own process through the command in BENCHMARK.json.
For each run it prints operations attempted and failed (cells monitored,
checkpoints written, restores, verifications) and whether every output check
passed. Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import sys

from agree import SPEC, run_once


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        result, lines = run_once(workload, args.seed, args.trace)
        print("\n".join(lines))
        print(f"  -> attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}\n", flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
