"""Command-line surface.

Subcommands: run, plan, checkpoint, restore, verify, sweep, gen, bench.
Exit codes: 0 success, 1 any other error (a file that cannot be read or
written, a failed restore), 2 infeasible plan or usage error, 3 verification
failure, 4 malformed trace or checkpoint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

from .errors import FormatError, Infeasible, StatecutError
from .gen import GenParams, generate_trace
from .history import HistoryGraph
from .planner import baseline_plans, plan_session, session_cost_model
from .replicator import read_checkpoint, restore, verify, write_checkpoint
from .schema import FIELD_TYPES
from .trace import load_trace, run_trace, save_trace

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_FORMAT = 4


def _channel_number(text: str, kind: str) -> float:
    """``text`` as a value of a profile field of ``kind``: the trace's and
    the checkpoint's rule for it (``schema.FIELD_TYPES``)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if FIELD_TYPES[kind](value):
        return value
    bound = "positive" if kind == "bandwidth" else "non-negative"
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite {bound} number")


def _non_negative(text: str) -> float:
    return _channel_number(text, "seconds")


def _positive(text: str) -> float:
    return _channel_number(text, "bandwidth")


def _rate(text: str) -> float:
    value = _non_negative(text)
    if value > 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rate between 0 and 1")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _bandwidths(text: str) -> list[float]:
    return [_positive(part) for part in text.split(",")]


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        message = f"{text!r} is not an integer (from --seed or $STATECUT_SEED)"
        raise argparse.ArgumentTypeError(message) from None


def _plan_kwargs(args, bandwidth: float | None) -> dict:
    return {
        "alpha": args.alpha,
        "bandwidth": bandwidth,
        "latency": args.latency,
        "objective": args.objective,
    }


def _add_plan_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of ``plan`` and ``checkpoint``: --bandwidth and the pricing flags."""
    parser.add_argument("--bandwidth", type=_positive, default=None,
                        help="storage bandwidth, bytes/s")
    _add_pricing_flags(parser)


def _add_pricing_flags(parser: argparse.ArgumentParser) -> None:
    """--alpha, --latency and --objective, which ``sweep`` shares: it sets the
    bandwidth per row."""
    parser.add_argument("--alpha", type=_non_negative, default=None,
                        help="storage-time discount (overrides --objective)")
    parser.add_argument("--latency", type=_non_negative, default=None,
                        help="storage latency, seconds")
    parser.add_argument("--objective", choices=["migrate", "restore"], default=None,
                        help="migrate: alpha=1; restore: alpha=0.05")


def cmd_run(args) -> int:
    trace = load_trace(args.trace)
    session, records = run_trace(trace)
    history = session.history
    snapshots = sum(len(v) for v in history.writes.values())
    edges = snapshots + sum(len(v) for v in history.reads.values())
    print(f"cells executed:   {history.recorded_cells}")
    print(f"live lineage:     {snapshots} snapshots, {len(history.cells)} cells, {edges} edges")
    active = history.active_snapshots()
    print(f"active variables: {', '.join(sorted(active)) or '(none)'}")
    for rec in records:
        reads = ",".join(sorted(vs.name for vs in rec.accessed)) or "-"
        writes = ",".join(sorted(rec.written | rec.created)) or "-"
        deletes = ",".join(sorted(rec.deleted)) or "-"
        status = " FAILED" if rec.failed else ""
        print(f"  t={rec.t:<4} {rec.code_ref:<12} reads={reads:<24} "
              f"writes={writes:<24} deletes={deletes}{status}")
    return EXIT_OK


def cmd_plan(args) -> int:
    trace = load_trace(args.trace)
    session, _ = run_trace(trace)
    plan = plan_session(session, **_plan_kwargs(args, args.bandwidth))
    output = plan.to_json()
    if args.baselines:
        cost = session_cost_model(session, **_plan_kwargs(args, args.bandwidth))
        output["baselines"] = {
            name: {"cost_s": p.cost_s}
            for name, p in baseline_plans(session.history, cost).items()
        }
    text = json.dumps(output, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_checkpoint(args) -> int:
    trace = load_trace(args.trace)
    session, _ = run_trace(trace)
    plan = plan_session(session, **_plan_kwargs(args, args.bandwidth))
    write_checkpoint(session, plan, args.out)
    size = Path(args.out).stat().st_size
    print(json.dumps({"checkpoint": str(args.out), "bytes": size, "plan": plan.to_json()}, indent=2))
    return EXIT_OK


def cmd_restore(args) -> int:
    checkpoint = read_checkpoint(args.checkpoint)
    trace = load_trace(args.trace)
    result = restore(checkpoint, trace.programs())
    heap = result.session.heap
    summary = {
        "variables": {
            name: {
                "objects": len(heap.reachable(name)),
                "kind": heap.objects[heap.namespace[name]].kind,
            }
            for name in sorted(heap.namespace)
        },
        "fallback_recomputed": result.fallback_recomputed,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    trace = load_trace(args.trace)
    original, _ = run_trace(trace)
    checkpoint = read_checkpoint(args.checkpoint)
    result = restore(checkpoint, trace.programs())
    report = verify(original.heap, result.session.heap)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.isomorphic else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    trace = load_trace(args.trace)
    session, _ = run_trace(trace)
    sizes = session_cost_model(session).var_sizes
    rows = []
    for bandwidth in args.bandwidths:
        plan = plan_session(session, **_plan_kwargs(args, bandwidth))
        migrated_bytes = sum(sizes[n] for n in plan.migrate)
        rows.append({
            "bandwidth_bytes_per_s": bandwidth,
            "cost_s": plan.cost_s,
            "migrate_count": len(plan.migrate),
            "migrated_bytes": migrated_bytes,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'bandwidth B/s':>14} {'plan cost s':>12} {'|migrate|':>10} {'migrated B':>12}")
        for row in rows:
            print(f"{row['bandwidth_bytes_per_s']:>14.3g} {row['cost_s']:>12.4f} "
                  f"{row['migrate_count']:>10} {row['migrated_bytes']:>12}")
    return EXIT_OK


def cmd_gen(args) -> int:
    params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams)})
    trace = generate_trace(params, args.seed)
    save_trace(trace, args.out)
    print(f"wrote {args.out} ({params.cells} cells, seed {args.seed})")
    return EXIT_OK


def _deep_bytes(value, seen: set[int]) -> int:
    if id(value) in seen:
        return 0
    seen.add(id(value))
    total = sys.getsizeof(value)
    if isinstance(value, dict):
        for k, v in value.items():
            total += _deep_bytes(k, seen) + _deep_bytes(v, seen)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            total += _deep_bytes(item, seen)
    elif hasattr(value, "__dict__"):
        total += _deep_bytes(vars(value), seen)
    return total


def history_memory_bytes(history: HistoryGraph) -> int:
    """In-memory footprint of the lineage graph, metadata only. Its own
    attributes count as a plain dict: CPython sizes an instance dict by how
    many instances of its class the process has made, and a process makes
    many cells but few lineages."""
    return sys.getsizeof(history) + _deep_bytes(dict(vars(history)), {id(history)})


def _least_ms(fn, *args):
    """``fn(*args)`` and the least wall time in ms of three calls, so that
    one call slowed by other work on the machine does not set it."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, (time.perf_counter() - start) * 1e3)
    return result, best


def run_bench(n_cells: int, seed: int = 0) -> dict:
    """Scalability probe: monitor ``n_cells`` re-executions over a small
    variable pool, then time planning, reading the session's checkpoint and
    restoring it, and measure graph memory. ``monitor_ms_per_cell`` is the
    wall time of monitoring the whole trace over its cell count (0 with no
    cells). ``plan_ms``, ``read_ms`` and ``restore_ms`` are each the least of
    three ``plan_session``, ``read_checkpoint`` and ``restore`` calls."""
    params = GenParams(
        cells=n_cells, variables=20, alias_density=0.2,
        unserializable_rate=0.05, delete_rate=0.02,
    )
    trace = generate_trace(params, seed)
    start = time.perf_counter()
    session, _ = run_trace(trace)
    monitor_ms = (time.perf_counter() - start) * 1e3
    plan, plan_ms = _least_ms(plan_session, session)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.ckpt"
        write_checkpoint(session, plan, path)
        checkpoint, read_ms = _least_ms(read_checkpoint, path)
    _, restore_ms = _least_ms(restore, checkpoint, trace.programs())
    return {
        "cells": n_cells,
        "ahg_bytes": history_memory_bytes(session.history),
        "monitor_ms_per_cell": monitor_ms / n_cells if n_cells else 0.0,
        "plan_ms": plan_ms,
        "plan_cost_s": plan.cost_s,
        "read_ms": read_ms,
        "restore_ms": restore_ms,
    }


def cmd_bench(args) -> int:
    result = run_bench(args.cells, args.seed)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(f"cells:           {result['cells']}")
        print(f"ahg bytes:       {result['ahg_bytes']}")
        print(f"monitor ms/cell: {result['monitor_ms_per_cell']:.4f}")
        print(f"plan ms:         {result['plan_ms']:.2f}")
        print(f"read ms:         {result['read_ms']:.2f}")
        print(f"restore ms:      {result['restore_ms']:.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecut",
        description="Replicate session state by balancing variable copying against recomputation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="replay a trace under monitoring and print lineage stats")
    p.add_argument("trace")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plan", help="compute a replication plan for a trace")
    p.add_argument("trace")
    _add_plan_flags(p)
    p.add_argument("--baselines", action="store_true", help="include copy-all/rerun-all costs")
    p.add_argument("-o", "--out", default=None, help="also write the plan JSON here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("checkpoint", help="plan and write a checkpoint file")
    p.add_argument("trace")
    p.add_argument("out")
    _add_plan_flags(p)
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser("restore", help="restore a session from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--trace", required=True, help="trace archive providing rerun cell programs")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("verify", help="restore and compare against the original session")
    p.add_argument("trace")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="re-plan a trace across storage bandwidths")
    p.add_argument("trace")
    p.add_argument("--bandwidths", type=_bandwidths, required=True,
                   help="comma-separated bytes/s values")
    _add_pricing_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a random session trace")
    p.add_argument("out")
    # a string default goes through _seed too, so a bad $STATECUT_SEED is a usage error
    p.add_argument("--seed", type=_seed, default=os.environ.get("STATECUT_SEED", "0"),
                   help="defaults to $STATECUT_SEED or 0")
    # one flag per GenParams field, at the field's default
    defaults = GenParams()
    p.add_argument("--cells", type=_count, default=defaults.cells)
    p.add_argument("--variables", type=_count, default=defaults.variables)
    for rate in ("alias_density", "unserializable_rate", "undeserializable_rate", "unhashable_rate",
                 "never_rerun_rate", "nondet_rate", "delete_rate"):
        p.add_argument("--" + rate.replace("_", "-"), type=_rate, default=getattr(defaults, rate))
    p.add_argument("--bandwidth", dest="bandwidth_bytes_per_s", metavar="BANDWIDTH", type=_positive,
                   default=defaults.bandwidth_bytes_per_s, help="storage bandwidth, bytes/s")
    p.add_argument("--latency", dest="latency_s", metavar="LATENCY", type=_non_negative,
                   default=defaults.latency_s, help="storage latency, seconds")
    p.add_argument("--alpha", type=_non_negative, default=defaults.alpha,
                   help="storage-time discount")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="scalability probe: lineage memory, planning, read and restore time")
    p.add_argument("--cells", type=_count, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except Infeasible as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (StatecutError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
