#!/usr/bin/env python3
"""Benchmark one workload of statecut end to end.

    python3 bench/run.py --workload long --seed 1 --seconds 25 --trace 0

Sets up the workload's traces (generate, save, load), then repeats rounds of
the user-facing pipeline until ``--seconds`` have passed: monitor every cell
(``run_cell``), plan and write a checkpoint, read it back and restore it, and
verify the restored heap. Every output of each trace's first round is then
checked against computations made apart from statecut (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` every round works on its trace twice,
once plain and once with span wrappers installed (see spans.py), and the JSON
carries the per-layer metrics and the tracing overhead. The lines before it
are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CELL_BLOCK_S = 0.02  # cells timed between two reference readings

END_TO_END_UNITS = {
    "setup_s": "s",
    "monitor_cell_ms.p50": "ms",
    "monitor_cell_ms.p99": "ms",
    "checkpoint_s": "s",
    "restore_s": "s",
    "checkpoint_bytes": "B",
    "lineage_bytes": "B",
    "peak_rss_mb": "MB",
}


def _import_engine() -> None:
    src = ROOT / "src"
    if not (src / "statecut" / "__init__.py").is_file():
        sys.exit(f"error: no statecut sources at {src}; run from a statecut checkout")
    sys.path.insert(0, str(src))


_import_engine()

import checks  # noqa: E402
from meter import Meter, median, percentile  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RESTORES, WORKLOADS, trace_seed  # noqa: E402

from statecut import gen, monitor, planner, replicator  # noqa: E402
from statecut import trace as trace_mod  # noqa: E402
from statecut.cli import history_memory_bytes  # noqa: E402
from statecut.errors import CellExecutionError, StatecutError  # noqa: E402


@dataclass
class TraceState:
    """One input trace, its monitored session, its timing samples, and what
    its checkpoints and first restore produced, kept for the checks."""

    trace: object
    programs: dict
    trace_bytes: int
    ckpt_path: Path
    session: object = None
    records: list | None = None
    lineage_bytes: int = 0
    checkpoint_bytes: int = 0
    plan: object = None  # latest
    ckpt_hashes: set = field(default_factory=set)
    checkpoint: object = None  # first read back
    restored_heap: object = None  # first restore
    # traced? -> samples: one region per cell; pairs of regions (see Meter)
    cell_s: dict = field(default_factory=lambda: {False: [], True: []})
    ckpt_s: dict = field(default_factory=lambda: {False: [], True: []})
    restore_s: dict = field(default_factory=lambda: {False: [], True: []})


@dataclass
class Ops:
    """Operations attempted and failed, by kind."""

    attempted: dict = field(default_factory=lambda: dict.fromkeys(
        ("cells", "checkpoints", "restores", "verifications"), 0))
    failed: dict = field(default_factory=lambda: dict.fromkeys(
        ("cells", "checkpoints", "restores", "verifications"), 0))

    def count(self, kind: str, ok: bool) -> None:
        self.attempted[kind] += 1
        self.failed[kind] += not ok


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One run: set up the workload's traces, then rounds over them. Round
    ``r`` works on trace ``r % traces``; a trace's first round monitors it,
    and every round plans and writes its checkpoint and reads and restores
    it a fixed number of times. With a tracer, a round makes two passes over
    its trace, one plain and one traced, each checkpointing and restoring it
    once."""

    def __init__(self, workload, seed: int, workdir: Path, tracer: Tracer | None):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.meter = Meter()
        self.ops = Ops()
        self.errors: list[str] = []
        self.states: list[TraceState] = []
        # timed regions, (raw seconds, reading index), scaled by self.meter
        self.setup_s: list[tuple] = []  # (generate, save, load) per trace
        self.layer_rounds: list[dict] = []
        self.rounds = 0

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def setup(self) -> None:
        """Generate, save and load each trace; one setup_s sample per trace."""
        self._phase("setup")
        params = gen.GenParams(**self.w.params)
        for k in range(self.w.traces):
            path = self.workdir / f"trace-{k}.json"
            self.meter.start()
            trace, r_gen = self.meter.measure(gen.generate_trace, params, trace_seed(self.seed, k))
            _, r_save = self.meter.measure(trace_mod.save_trace, trace, path)
            del trace
            loaded, r_load = self.meter.measure(trace_mod.load_trace, path)
            self.setup_s.append((r_gen, r_save, r_load))
            self.states.append(TraceState(
                trace=loaded, programs=loaded.programs(),
                trace_bytes=path.stat().st_size, ckpt_path=self.workdir / f"ckpt-{k}.bin",
            ))

    def monitor(self, st: TraceState, traced: bool) -> None:
        """Run every cell under monitoring, timing each cell. A reference
        reading follows every CELL_BLOCK_S of cells; each cell is a region
        scaled by the readings around its block."""
        self._phase("monitor")
        session = trace_mod.new_session(st.trace.profile, st.trace.variable_annotations)
        records = []
        cells = st.cell_s[traced]
        elapsed = 0.0
        clock = time.perf_counter
        self.meter.start()
        before = len(self.meter.readings) - 1
        for cell in st.trace.cells:
            start = clock()
            try:
                rec = monitor.run_cell(session, cell)
                ok = True
            except CellExecutionError as err:
                rec = err.record
                ok = False
            took = clock() - start
            self.ops.count("cells", ok)
            records.append(rec)
            cells.append((took, before))
            elapsed += took
            if elapsed >= CELL_BLOCK_S:
                before = self.meter.reading()
                elapsed = 0.0
        if elapsed:
            self.meter.reading()
        st.session = session
        st.records = records
        st.lineage_bytes = history_memory_bytes(session.history)

    def checkpoint(self, st: TraceState, traced: bool, info: dict):
        """plan_session + write_checkpoint, timed as one region."""
        self._phase("checkpoint")
        self.meter.start()
        try:
            plan, r_plan = self.meter.measure(planner.plan_session, st.session)
            ckpt, r_write = self.meter.measure(
                replicator.write_checkpoint, st.session, plan, st.ckpt_path)
        except StatecutError as err:
            self.ops.count("checkpoints", False)
            self.errors.append(f"checkpoint failed: {err}")
            return None
        self.ops.count("checkpoints", True)
        st.ckpt_s[traced].append((r_plan, r_write))
        st.plan = plan
        st.ckpt_hashes.add(_sha(st.ckpt_path))
        size = st.ckpt_path.stat().st_size
        st.checkpoint_bytes = size
        info["plan"] = plan
        info["payload_objects"] = len(ckpt.objects)
        info["payload_bytes"] = replicator.payload_bytes(st.ckpt_path)
        # file = magic (8) + version (4) + two u64 lengths + manifest + payload
        info["manifest_bytes"] = size - 28 - info["payload_bytes"]
        return plan

    def restore(self, st: TraceState, traced: bool, info: dict) -> None:
        """read_checkpoint + restore, timed as one region, then verify."""
        self._phase("restore")
        self.meter.start()
        restored = None
        try:
            checkpoint, r_read = self.meter.measure(replicator.read_checkpoint, st.ckpt_path)
            restored, r_restore = self.meter.measure(replicator.restore, checkpoint, st.programs)
        except StatecutError as err:
            self.errors.append(f"restore failed: {err}")
        self.ops.count("restores", restored is not None)
        ok = False
        if restored is not None:
            st.restore_s[traced].append((r_read, r_restore))
            info.setdefault("fallbacks", []).append(len(restored.fallback_recomputed))
            if st.checkpoint is None:
                st.checkpoint = checkpoint
                st.restored_heap = restored.session.heap
            self._phase("verify")
            report = replicator.verify(st.session.heap, restored.session.heap)
            ok = report.value_equivalent and report.isomorphic
        self.ops.count("verifications", ok)

    def one_pass(self, k: int, first: bool, traced: bool, checkpoints: int, restores: int) -> None:
        """Monitor trace ``k`` if this is its first round, then checkpoint
        and restore it; with ``traced``, under the span wrappers, keeping the
        pass's per-layer metrics."""
        st = self.states[k]
        info: dict = {"monitored": first, "checkpoints": checkpoints}
        if traced:
            self.tracer.install()
        try:
            if first:
                self.monitor(st, traced)
            info["records"] = st.records
            info["session"] = st.session
            plan = None
            for _ in range(checkpoints):
                plan = self.checkpoint(st, traced, info)
            for _ in range(restores):
                if plan is None:
                    self.ops.count("restores", False)
                    self.ops.count("verifications", False)
                else:
                    self.restore(st, traced, info)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.layer_rounds.append(self._layer_metrics(info))
            self.tracer.reset()

    def run(self, seconds: float) -> None:
        """Set up, then rounds until ``seconds`` have passed and every trace
        has had one. With a tracer, setup is traced, and each round makes a
        plain and a traced pass over its trace, in alternating order, so the
        tracing overhead compares each trace with itself."""
        traced = self.tracer is not None
        if traced:
            self.tracer.install()
        try:
            self.setup()
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.setup_layers = self.tracer.round_totals()
            self.tracer.reset()
        start = time.perf_counter()
        r = 0
        while r < self.w.traces or time.perf_counter() - start < seconds:
            k, first = r % self.w.traces, r < self.w.traces
            if not traced:
                self.one_pass(k, first, False, self.w.checkpoints, RESTORES)
            else:
                for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
                    self.one_pass(k, first, traced_pass, 1, 1)
            r += 1
        self.rounds = r
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks ---------------------------------------------------------------------

    def check(self) -> None:
        for k, st in enumerate(self.states):
            tag = f"trace {k}"
            if st.checkpoint is None:
                self.errors.append(f"{tag}: no checkpoint and restore to check")
                continue
            mini, changed = checks.replay(st.trace)
            expected = checks.miniheap_view(mini)
            found = checks.superset_errors(st.records, changed)
            found += [f"monitored heap: {e}" for e in
                      checks.isomorphism_errors(expected, checks.simheap_view(st.session.heap))]
            found += [f"restored heap: {e}" for e in
                      checks.isomorphism_errors(expected, checks.simheap_view(st.restored_heap))]
            raw = st.ckpt_path.read_bytes()
            manifest_len = int.from_bytes(raw[12:20], "little")
            manifest = json.loads(raw[20:20 + manifest_len])
            plan = SimpleNamespace(**manifest["plan"])
            cut = checks.min_cut_value(st.trace, mini, manifest["history"])
            found += checks.plan_errors(st.trace, mini, manifest["history"], plan, cut)
            found += checks.payload_errors(mini, st.checkpoint)
            again = self.workdir / f"ckpt-{k}-again.bin"
            replicator.write_checkpoint(st.session, st.plan, again)
            st.ckpt_hashes.add(_sha(again))
            if len(st.ckpt_hashes) != 1:
                found.append(f"{len(st.ckpt_hashes)} different files from rewriting one session")
            self.errors.extend(f"{tag}: {e}" for e in found)

    # -- results ----------------------------------------------------------------------

    def end_to_end(self) -> dict:
        """Setup: median over traces. Cells: percentiles over every cell of
        every trace. Checkpoint and restore: per-trace medians, averaged over
        the traces. Sizes: averaged over the traces."""
        cells = [self.meter.seconds(c) for st in self.states for c in st.cell_s[False]]
        states = self.states
        values = {
            "setup_s": median([self.meter.total(s) for s in self.setup_s]),
            "monitor_cell_ms.p50": percentile(cells, 50) * 1e3,
            "monitor_cell_ms.p99": percentile(cells, 99) * 1e3,
            "checkpoint_s": _mean(self.trace_medians("ckpt_s", False)),
            "restore_s": _mean(self.trace_medians("restore_s", False)),
            "checkpoint_bytes": _mean(st.checkpoint_bytes for st in states),
            "lineage_bytes": _mean(st.lineage_bytes for st in states),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    def trace_medians(self, kind: str, traced: bool) -> list[float]:
        """Median scaled sample of each trace that has samples of ``kind``."""
        return [
            median([self.meter.total(sample) for sample in getattr(st, kind)[traced]])
            for st in self.states if getattr(st, kind)[traced]
        ]

    def _layer_metrics(self, info: dict) -> dict:
        """Per-layer values of one traced round: seconds inside each wrapped
        function and counts of work, per monitor pass, per checkpoint and
        per restore."""
        t = self.tracer.round_totals()
        calls, secs, by_parent = t["calls"], t["seconds"], t["by_parent"]
        kept = self.tracer.results
        session, records, plan = info["session"], info["records"], info.get("plan")

        def s(name, phase, per=1):
            return secs.get(f"{phase}:{name}", 0.0) / per

        def c(name, phase, per=1):
            return calls.get(f"{phase}:{name}", 0) / per

        out = {}
        if info["monitored"]:
            modified = sum(len(rec.written) for rec in records)
            after_cell = by_parent.get(("monitor.detect_modifications", "heap.build_id_graph"), 0)
            out.update({
                "monitor.presnapshot_s": s("monitor.presnapshot", "monitor"),
                "monitor.detect_accesses_s": s("monitor.detect_accesses", "monitor"),
                "monitor.detect_modifications_s": s("monitor.detect_modifications", "monitor"),
                "heap.build_id_graph.calls": c("heap.build_id_graph", "monitor"),
                "heap.build_id_graph_s": s("heap.build_id_graph", "monitor"),
                "heap.subgraph_hash.calls": c("heap.subgraph_hash", "monitor"),
                "monitor.idgraph_useful_ratio": modified / after_cell if after_cell else 0.0,
                "heap.apply_s": s("heap.apply", "monitor"),
                "heap.collect_garbage_s": s("heap.collect_garbage", "monitor"),
                "history.record_s": s("history.record", "monitor"),
                "monitor.accessed_names": sum(len(rec.accessed) for rec in records),
                "monitor.modified_names": modified,
                "history.read_edges": sum(len(v) for v in session.history.reads.values()),
                "history.write_edges": sum(len(v) for v in session.history.writes.values()),
            })
        n = info["checkpoints"]
        if plan is not None:
            nodes, arcs = kept["planner.build_flow_graph"][-1]
            out.update({
                "cost.profile_variables_s": s("cost.profile_variables", "checkpoint", n),
                "cost.linked_pairs_s": s("cost.linked_pairs", "checkpoint", n),
                "cost.linked_pairs.count": kept["cost.linked_pairs"][-1],
                "planner.build_flow_graph_s": s("planner.build_flow_graph", "checkpoint", n),
                "planner.min_cut_plan_s": s("planner.min_cut_plan", "checkpoint", n),
                "planner.flow_nodes": nodes,
                "planner.flow_arcs": arcs,
                "history.rerun_cells_from.calls": c("history.rerun_cells_from", "checkpoint", n),
                "planner.migrate_vars": len(plan.migrate),
                "planner.rerun_cells": len(plan.rerun),
                "planner.plan_cost_s": plan.cost_s,
                "replicator.write_checkpoint_s": s("replicator.write_checkpoint", "checkpoint", n),
                "history.to_manifest_s": s("history.to_manifest", "checkpoint", n),
                "replicator.manifest_bytes": info["manifest_bytes"],
                "replicator.payload_bytes": info["payload_bytes"],
                "replicator.payload_objects": info["payload_objects"],
            })
        fallbacks = info.get("fallbacks")
        if fallbacks:
            n = len(fallbacks)
            # rerun-list cells summed over every attempt of every restore
            extras = iter(kept.get("replicator.recovery_cells", []))
            replayed = 0
            for count in fallbacks:
                rerun = set(plan.rerun)
                replayed += len(rerun)
                for _ in range(count):
                    rerun |= next(extras, set())
                    replayed += len(rerun)
            out.update({
                "replicator.read_checkpoint_s": s("replicator.read_checkpoint", "restore", n),
                "history.from_manifest_s": s("history.from_manifest", "restore", n),
                "replicator.restore_s": s("replicator.restore", "restore", n),
                "replicator.recovery_cells_s": s("replicator.recovery_cells", "restore", n),
                "replicator.fallbacks": sum(fallbacks) / n,
                "replicator.restore_attempts": 1 + sum(fallbacks) / n,
                "replicator.cells_replayed": replayed / n,
                "replicator.verify_s": s("replicator.verify", "verify", n),
            })
        return out

    def per_layer(self) -> dict:
        """Each layer metric's median over the traced passes that have it,
        the setup layers per trace, and the tracing overhead: the median over
        traces of one pipeline pass (every cell, one checkpoint, one restore)
        of a trace traced against the same trace plain."""
        values = {}
        for name in LAYER_UNITS:
            got = [r[name] for r in self.layer_rounds if name in r]
            if got:
                values[name] = median(got)
        t = self.setup_layers
        n = self.w.traces
        values["gen.generate_trace_s"] = t["seconds"].get("setup:gen.generate_trace", 0.0) / n
        values["trace.save_trace_s"] = t["seconds"].get("setup:trace.save_trace", 0.0) / n
        values["trace.load_trace_s"] = t["seconds"].get("setup:trace.load_trace", 0.0) / n
        values["trace.trace_bytes"] = _mean(st.trace_bytes for st in self.states)

        def pass_s(st, traced):
            return (self.meter.total(st.cell_s[traced])
                    + median([self.meter.total(c) for c in st.ckpt_s[traced]])
                    + median([self.meter.total(c) for c in st.restore_s[traced]]))

        values["trace.overhead_pct"] = median(
            (pass_s(st, True) / pass_s(st, False) - 1) * 100 for st in self.states)
        return {name: {"value": values[name], "unit": LAYER_UNITS[name]}
                for name in LAYER_UNITS if name in values}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else
           "ratio" if name.endswith("_ratio") else
           "%" if name.endswith("_pct") else
           "B" if name.endswith("_bytes") else "count")
    for name in (
        "monitor.presnapshot_s", "monitor.detect_accesses_s", "monitor.detect_modifications_s",
        "heap.build_id_graph.calls", "heap.build_id_graph_s", "heap.subgraph_hash.calls",
        "monitor.idgraph_useful_ratio", "heap.apply_s", "heap.collect_garbage_s",
        "history.record_s", "monitor.accessed_names", "monitor.modified_names",
        "history.read_edges", "history.write_edges", "cost.profile_variables_s",
        "cost.linked_pairs_s", "cost.linked_pairs.count", "planner.build_flow_graph_s",
        "planner.min_cut_plan_s", "planner.flow_nodes", "planner.flow_arcs",
        "history.rerun_cells_from.calls", "planner.migrate_vars", "planner.rerun_cells",
        "planner.plan_cost_s", "replicator.write_checkpoint_s", "history.to_manifest_s",
        "replicator.manifest_bytes", "replicator.payload_bytes", "replicator.payload_objects",
        "replicator.read_checkpoint_s", "history.from_manifest_s", "replicator.restore_s",
        "replicator.recovery_cells_s", "replicator.fallbacks", "replicator.restore_attempts",
        "replicator.cells_replayed", "replicator.verify_s", "gen.generate_trace_s",
        "trace.save_trace_s", "trace.load_trace_s", "trace.trace_bytes", "trace.overhead_pct",
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    bench = Bench(workload, args.seed, workdir, Tracer() if args.trace else None)
    wall = [time.perf_counter()]
    try:
        bench.run(args.seconds)
        wall.append(time.perf_counter())
        bench.check()
        wall.append(time.perf_counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    ops = bench.ops
    print(f"workload {workload.name}  seed {args.seed}  rounds {bench.rounds}  "
          f"traces {workload.traces}  trace {args.trace}  "
          f"wall: setup+rounds {wall[1] - wall[0]:.1f} s, checks {wall[2] - wall[1]:.1f} s")
    print("operations (attempted/failed): " + ", ".join(
        f"{kind} {ops.attempted[kind]}/{ops.failed[kind]}" for kind in ops.attempted))
    if not args.trace:
        for kind in ("ckpt_s", "restore_s"):
            print(f"{kind} per trace: " + " ".join(
                f"{v:.4g}" for v in bench.trace_medians(kind, False)))
    refs = bench.meter.readings
    print(f"reference loop: {len(refs)} readings, median {median(refs) * 1e3:.3f} ms, "
          f"p5 {percentile(refs, 5) * 1e3:.3f} ms, p95 {percentile(refs, 95) * 1e3:.3f} ms")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for err in bench.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print("checks: " + ("all passed" if not bench.errors else f"{len(bench.errors)} failed"))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
