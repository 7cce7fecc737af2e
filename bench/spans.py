"""Span tracing from outside the engine.

``Tracer.install`` replaces the public functions of each statecut module with
wrappers defined here, so the engine itself carries no instrumentation. Each
call becomes a span (name, benchmark phase, start, end, parent span) kept in
flat arrays; ``round_totals`` folds one round's spans into call counts and
inclusive seconds per phase and name, and ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import functools
import time
from array import array

PHASES = ("setup", "monitor", "checkpoint", "restore", "verify")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phase = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("H")
        self.span_phase = array("B")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.results: dict[str, list] = {}  # name -> values picked by keep_result

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, keep_result=None):
        """Wrap ``fn`` so each call records a span; ``keep_result(result)``
        may pick a value out of the result to keep for the round."""
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_phase.append(tracer.phase)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer._stack.pop()
            if keep_result is not None:
                tracer.results.setdefault(name, []).append(keep_result(result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, keep_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, keep_result))
        else:
            replacement = self.wrap(name, original, keep_result)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every public layer boundary the benchmark reports on."""
        from statecut import cost, gen, heap, history, monitor, planner, replicator, trace

        p = self.patch
        p(gen, "generate_trace", "gen.generate_trace")
        p(trace, "save_trace", "trace.save_trace")
        p(trace, "load_trace", "trace.load_trace")
        p(monitor.PreSnapshot, "__init__", "monitor.presnapshot")
        p(monitor, "detect_accesses", "monitor.detect_accesses")
        p(monitor, "detect_modifications", "monitor.detect_modifications")
        # build_id_graph and subgraph_hash as monitor and cost import them;
        # value_hash is one subgraph_hash over the live heap
        p(monitor, "build_id_graph", "heap.build_id_graph")
        p(cost, "build_id_graph", "heap.build_id_graph")
        p(monitor, "subgraph_hash", "heap.subgraph_hash")
        p(monitor, "value_hash", "heap.subgraph_hash")
        p(heap.SimHeap, "apply", "heap.apply")
        p(heap.SimHeap, "collect_garbage", "heap.collect_garbage")
        p(history.HistoryGraph, "record", "history.record")
        p(history.HistoryGraph, "to_manifest", "history.to_manifest")
        p(history.HistoryGraph, "from_manifest", "history.from_manifest")
        p(history.HistoryGraph, "rerun_cells_from", "history.rerun_cells_from")
        p(cost.CostModel, "profile_variables", "cost.profile_variables")
        p(cost, "linked_pairs", "cost.linked_pairs", keep_result=len)
        p(planner, "session_cost_model", "planner.session_cost_model")
        p(planner, "build_flow_graph", "planner.build_flow_graph", keep_result=_flow_size)
        p(planner, "min_cut_plan", "planner.min_cut_plan")
        p(replicator, "write_checkpoint", "replicator.write_checkpoint")
        p(replicator, "read_checkpoint", "replicator.read_checkpoint")
        p(replicator, "restore", "replicator.restore")
        p(replicator, "recovery_cells", "replicator.recovery_cells",
          keep_result=lambda moved_extra: set(moved_extra[1]))
        p(replicator, "verify", "replicator.verify")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def round_totals(self) -> dict:
        """Call counts and inclusive seconds over the spans so far, keyed
        ``"phase:name"``, plus the number of spans of each name under a
        parent of each name, keyed (parent name, name)."""
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        by_parent: dict[tuple[str, str], int] = {}
        names = self.names
        for i in range(len(self.span_start)):
            name = names[self.span_name[i]]
            phase = PHASES[self.span_phase[i]]
            dur = self.span_end[i] - self.span_start[i]
            key = f"{phase}:{name}"
            calls[key] = calls.get(key, 0) + 1
            seconds[key] = seconds.get(key, 0.0) + dur
            parent = self.span_parent[i]
            if parent >= 0:
                pair = (names[self.span_name[parent]], name)
                by_parent[pair] = by_parent.get(pair, 0) + 1
        return {"calls": calls, "seconds": seconds, "by_parent": by_parent}


def _flow_size(fg) -> tuple[int, int]:
    arcs = sum(1 for targets in fg.arcs.values() for cap in targets.values() if cap > 0)
    return len(fg.node_labels), arcs
