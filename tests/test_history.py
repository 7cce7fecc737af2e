import gc
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import statecut
from statecut.errors import FormatError, NonMonotonicTimestamp, Unreconstructable, UnknownVariable
from statecut.gen import GenParams, generate_trace, inject_false_edges
from statecut import history as history_module
from statecut import schema
from statecut.history import _CELL, CellRecord, HistoryGraph, VariableSnapshot
from statecut.schema import check_fields
from statecut.planner import plan_session
from statecut.replicator import read_checkpoint, write_checkpoint
from statecut.trace import load_trace, new_session, run_trace, save_trace

from sessions import live_closure, record_cell, with_failing_cells, worked_example_trace


def record(t, written=(), accessed=(), deleted=(), runtime=1.0, never_rerun=False):
    return CellRecord(
        t=t,
        code_ref=f"cell_{t}",
        runtime_s=runtime,
        accessed=set(accessed),
        written=set(written),
        deleted=set(deleted),
        never_rerun=never_rerun,
    )


def vs(name, t):
    return VariableSnapshot(name, t)


def ground_of(graph, names):
    """Active snapshots of the named variables."""
    active = graph.active_snapshots()
    return {active[n] for n in names if n in active}


@pytest.fixture
def worked_history():
    session, _ = run_trace(worked_example_trace())
    return session.history


class TestRecord:
    def test_write_edge_created(self):
        graph = HistoryGraph()
        graph.record(record(1, written={"x"}))
        assert vs("x", 1) in graph.writes[1]
        assert graph.latest["x"] == vs("x", 1)

    def test_empty_cell(self):
        # a cell that writes nothing is dead at once: only the totals keep it
        graph = HistoryGraph()
        cell = graph.record(record(1))
        assert graph.cells == graph.reads == graph.writes == graph.refs == {}
        assert cell.runtime_s == 1.0
        assert (graph.recorded_cells, graph.recorded_rerun_s) == (1, 1.0)

    def test_read_of_a_dropped_cell_is_rejected(self):
        graph = HistoryGraph()
        graph.record(record(1, written={"x"}))
        graph.record(record(2, written={"x"}))  # supersedes x@1: cell 1 is dropped
        with pytest.raises(UnknownVariable, match="x@1"):
            graph.record(record(3, written={"y"}, accessed={vs("x", 1)}))
        assert list(graph.cells) == [2] and graph.recorded_cells == 2
        manifest = {
            "cells": [
                {"t": t, "code_ref": f"cell_{t}", "runtime_s": 1.0, "never_rerun": False,
                 "nondeterministic": False, "reads": reads, "writes": writes}
                for t, reads, writes in ((1, [], ["x"]), (2, [], ["x"]), (3, [["x", 1]], ["y"]))
            ],
            "deleted": {}, "next_t": 4, "recorded_cells": 3, "recorded_rerun_s": 3.0,
        }
        with pytest.raises(FormatError, match="x@1, which no live cell wrote"):
            HistoryGraph.from_manifest(manifest)

    def test_non_monotonic_rejected(self):
        graph = HistoryGraph()
        graph.record(record(5, written={"x"}))
        with pytest.raises(NonMonotonicTimestamp):
            graph.record(record(5, written={"y"}))

    def test_invariants_over_random_records(self, rng):
        # reads are drawn from the active snapshots, the only ones a cell can read
        graph = HistoryGraph()
        names = [f"v{i}" for i in range(10)]
        for t in range(1, 1001):
            known = sorted(graph.active_snapshots().values())
            accessed = set(rng.sample(known, k=min(len(known), rng.randint(0, 3))))
            written = set(rng.sample(names, k=rng.randint(0, 2)))
            graph.record(record(t, written=written, accessed=accessed))
        # bipartite and acyclic under the timestamp order
        for t, reads in graph.reads.items():
            assert all(dep.t < t for dep in reads)
        for t, writes in graph.writes.items():
            assert all(w.t == t for w in writes)
        # each snapshot has exactly one producing cell
        seen = set()
        for t, writes in graph.writes.items():
            for w in writes:
                assert w not in seen
                seen.add(w)

    def test_delete_then_recreate_in_one_cell_is_create(self):
        graph = HistoryGraph()
        graph.record(record(1, written={"x"}))
        graph.record(record(2, written={"x"}, deleted={"x"}))
        assert "x" not in graph.deleted
        assert graph.active_snapshots()["x"] == vs("x", 2)


class TestActiveSnapshots:
    def test_latest_wins(self, worked_history):
        assert worked_history.active_snapshots()["x"] == vs("x", 3)

    def test_deleted_absent(self):
        graph = HistoryGraph()
        graph.record(record(1, written={"a", "b"}))
        graph.record(record(2, deleted={"a"}))
        assert set(graph.active_snapshots()) == {"b"}

    def test_matches_linear_scan(self, rng):
        graph = HistoryGraph()
        names = [f"v{i}" for i in range(6)]
        deleted: dict[str, int] = {}
        latest: dict[str, int] = {}
        for t in range(1, 200):
            written = set(rng.sample(names, k=rng.randint(0, 2)))
            removed = {n for n in rng.sample(names, k=1) if rng.random() < 0.1} - written
            graph.record(record(t, written=written, deleted=removed))
            for n in written:
                latest[n] = t
                deleted.pop(n, None)
            for n in removed:
                if n in latest:
                    deleted[n] = t
        expected = {
            n: vs(n, t) for n, t in latest.items() if n not in deleted
        }
        assert graph.active_snapshots() == expected


class TestRerunCells:
    def test_worked_example(self, worked_history):
        cells = worked_history.rerun_cells_from({vs("x", 3)}, ground_of(worked_history, {"z"}))
        assert [c.t for c in cells] == [1, 3]  # z is available; t2 skipped

    def test_ground_target_is_empty(self, worked_history):
        assert worked_history.rerun_cells_from({vs("l1", 3)}, {vs("l1", 3)}) == []

    def test_matches_closure_oracle(self, rng):
        for seed in range(25):
            trace = generate_trace(GenParams(cells=10, variables=6, delete_rate=0.1), seed)
            session, _ = run_trace(trace)
            graph = session.history
            active = graph.active_snapshots()
            names = sorted(active)
            for target in names:
                ground = set(rng.sample(names, k=rng.randint(0, len(names) - 1))) - {target}
                got = [c.t for c in graph.rerun_cells_from({active[target]}, ground_of(graph, ground))]
                assert got == sorted(_oracle_closure(graph, active[target], ground))

    def test_never_rerun_raises_when_required(self):
        graph = HistoryGraph()
        graph.record(record(1, written={"x"}, never_rerun=True))
        graph.record(record(2, written={"y"}, accessed={vs("x", 1)}))
        with pytest.raises(Unreconstructable):
            graph.rerun_cells_from({vs("y", 2)}, set(), require_rerunnable=True)
        # without the flag the list is still produced for cost accounting
        assert [c.t for c in graph.rerun_cells_from({vs("y", 2)}, set())] == [1, 2]


def blocked_branches() -> HistoryGraph:
    """Two never-rerun cells (t=1 and t=2), each writing three names, feed
    y@5 through one rerunnable cell each."""
    graph = HistoryGraph()
    graph.record(record(1, written={"p1", "p2", "p3"}, never_rerun=True))
    graph.record(record(2, written={"q3", "q1", "q2"}, never_rerun=True))
    graph.record(record(3, written={"r"}, accessed={vs(f"p{i}", 1) for i in (1, 2, 3)}))
    graph.record(record(4, written={"s"}, accessed={vs(f"q{i}", 2) for i in (1, 2, 3)}))
    graph.record(record(5, written={"y"}, accessed={vs("r", 3), vs("s", 4)}))
    return graph


class TestBlockingCell:
    def test_latest_never_rerun_cell_blocks(self):
        with pytest.raises(Unreconstructable) as exc:
            blocked_branches().rerun_cells_from({vs("y", 5)}, set(), require_rerunnable=True)
        assert (exc.value.blocked_at, exc.value.name) == (2, "q1")
        # with s as ground, only the t=1 branch is left
        with pytest.raises(Unreconstructable) as exc:
            blocked_branches().rerun_cells_from({vs("y", 5)}, {vs("s", 4)}, require_rerunnable=True)
        assert (exc.value.blocked_at, exc.value.name) == (1, "p1")

    def test_blocking_cell_is_the_same_under_every_hash_seed(self):
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from statecut.errors import Unreconstructable\n"
            "from statecut.history import VariableSnapshot\n"
            "from test_history import blocked_branches\n"
            "try:\n"
            "    blocked_branches().rerun_cells_from({VariableSnapshot('y', 5)}, set(),\n"
            "                                        require_rerunnable=True)\n"
            "except Unreconstructable as err:\n"
            "    print(err.blocked_at, err.name)\n"
        )
        for hash_seed in ("0", "2"):
            assert run_under_hash_seed(script, hash_seed).split() == ["2", "q1"], hash_seed


def run_under_hash_seed(script: str, hash_seed: str) -> str:
    """The output of ``script`` run in a fresh interpreter under ``hash_seed``,
    with this directory as its ``sys.argv[1]``."""
    src = str(Path(statecut.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=env_path)
    run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    return run.stdout


def _oracle_closure(graph, target, ground):
    """Literal recursive ancestor enumeration, pruned at active ground snapshots."""
    active = graph.active_snapshots()
    ground_vses = {active[n] for n in ground if n in active}
    needed = set()

    def walk(snapshot):
        if snapshot in ground_vses or snapshot.t in needed:
            return
        needed.add(snapshot.t)
        for dep in graph.reads.get(snapshot.t, ()):
            walk(dep)

    if target not in ground_vses:
        walk(target)
    return needed


class TestMergedRerunCells:
    def test_single_target_same_as_rerun(self, worked_history):
        ground = ground_of(worked_history, {"z"})
        single = worked_history.rerun_cells_from({vs("x", 3)}, ground)
        assert [c.t for c in single] == sorted(_oracle_closure(worked_history, vs("x", 3), {"z"}))

    def test_shared_ancestor_collapses(self, worked_history):
        merged = worked_history.rerun_cells_from(
            {vs("x", 3), vs("y", 1)}, ground_of(worked_history, {"z"})
        )
        assert [c.t for c in merged] == [1, 3]  # cell 1 appears once

    def test_matches_union_of_oracles(self, rng):
        for seed in range(15):
            trace = generate_trace(GenParams(cells=9, variables=5), seed + 100)
            session, _ = run_trace(trace)
            graph = session.history
            active = graph.active_snapshots()
            names = sorted(active)
            if len(names) < 2:
                continue
            targets = set(rng.sample(names, k=2))
            ground = set(names) - targets
            merged = [c.t for c in graph.rerun_cells_from(
                {active[n] for n in targets}, ground_of(graph, ground)
            )]
            union = set()
            for name in targets:
                union |= _oracle_closure(graph, active[name], ground)
            assert merged == sorted(union)


class TestReplayClosed:
    def test_rerun_list_is_replay_closed(self):
        # every read dependency of every listed cell is satisfied by an
        # earlier listed cell or by a ground variable's active snapshot
        for seed in range(30):
            trace = generate_trace(GenParams(cells=12, variables=6, delete_rate=0.08), seed)
            session, _ = run_trace(trace)
            graph = session.history
            active = graph.active_snapshots()
            names = sorted(active)
            rng = random.Random(seed)
            ground = set(rng.sample(names, k=len(names) // 2))
            targets = {active[n] for n in set(names) - ground}
            cells = graph.rerun_cells_from(targets, ground_of(graph, ground))
            listed = {c.t for c in cells}
            ground_vses = {active[n] for n in ground}
            for cell in cells:
                for dep in graph.reads.get(cell.t, ()):
                    assert dep.t in listed or dep in ground_vses


class TestSupersetUnderInjection:
    def test_req_grows_but_never_shrinks(self):
        for seed in range(25):
            trace = generate_trace(GenParams(cells=10, variables=6), seed + 500)
            session, _ = run_trace(trace)
            graph = session.history
            injected = inject_false_edges(graph, random.Random(seed), reads=4, writes=2)
            for name, active_vs in graph.active_snapshots().items():
                base = {c.t for c in graph.rerun_cells_from({active_vs}, set())}
                new_active = injected.active_snapshots()[name]
                grown = {c.t for c in injected.rerun_cells_from({new_active}, set())}
                assert base <= grown

    def test_injection_is_the_same_under_every_hash_seed(self):
        # on this session, drawing candidates in set order gives different
        # edges under hash seeds 0 and 2
        script = (
            "import random\n"
            "from statecut.gen import GenParams, generate_trace, inject_false_edges\n"
            "from statecut.trace import run_trace\n"
            "session, _ = run_trace(generate_trace(GenParams(cells=10, variables=6), 503))\n"
            "graph = session.history\n"
            "graph = inject_false_edges(graph, random.Random(3), reads=4, writes=2)\n"
            "for t in sorted(graph.reads):\n"
            "    print(t, sorted(graph.reads[t]), sorted(graph.writes[t]))\n"
            "print(sorted(graph.active_snapshots().values()))\n"
        )
        assert run_under_hash_seed(script, "0") == run_under_hash_seed(script, "2")


class TestLiveCells:
    def graph(self):
        # x@1 and w@1; y@2 reads x@1; x@3 overwrites x without reading it;
        # z@4 is deleted with w at t=5; t=6 only reads y
        graph = HistoryGraph()
        graph.record(record(1, written={"x", "w"}))
        graph.record(record(2, written={"y"}, accessed={vs("x", 1)}))
        graph.record(record(3, written={"x"}))
        graph.record(record(4, written={"z"}))
        graph.record(record(5, deleted={"z", "w"}))
        graph.record(record(6, accessed={vs("y", 2)}))
        return graph

    def test_dead_writes_deletions_and_reads_are_not_live(self):
        graph = self.graph()
        assert list(graph.cells) == list(graph.reads) == list(graph.writes) == [1, 2, 3]
        assert graph.recorded_cells == 6

    def test_manifest_keeps_live_cells_and_their_names_tombstones(self):
        graph = self.graph()
        manifest = graph.to_manifest()
        assert [c["t"] for c in manifest["cells"]] == [1, 2, 3]
        # w is written by a kept cell, z only by the dead t=4
        assert manifest["deleted"] == {"w": 5}
        clone = HistoryGraph.from_manifest(manifest)
        assert clone.active_snapshots() == graph.active_snapshots()
        assert clone.to_manifest() == manifest


class TestPruning:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        delete_rate=st.floats(0.0, 0.3),
        fail_rate=st.floats(0.0, 0.3),
        never_rerun_rate=st.floats(0.0, 0.2),
        nondet_rate=st.floats(0.0, 0.2),
    )
    def test_cells_are_the_live_closure_after_every_cell(
        self, seed, delete_rate, fail_rate, never_rerun_rate, nondet_rate
    ):
        rng = random.Random(seed)
        trace = with_failing_cells(generate_trace(GenParams(
            cells=40, variables=rng.randint(2, 10), alias_density=0.4, delete_rate=delete_rate,
            never_rerun_rate=never_rerun_rate, nondet_rate=nondet_rate,
        ), seed), rng, fail_rate)
        session = new_session(trace.profile, trace.variable_annotations)
        graph, records = session.history, []
        for program in trace.cells:
            records.append(record_cell(session, program))
            assert list(graph.cells) == live_closure(records)
            assert graph.reads.keys() == graph.writes.keys() == graph.refs.keys() == graph.cells.keys()
        assert graph.recorded_cells == len(records)
        # a never-rerun or nondeterministic cell cannot be rerun to its values
        total = sum(math.inf if r.never_rerun or r.nondeterministic else r.runtime_s for r in records)
        assert repr(graph.recorded_rerun_s) == repr(total)


def lineage_state(graph):
    """Everything a lineage keeps that its manifest carries: the tombstones
    of names no live cell writes are dropped with those cells."""
    written = {vs.name for writes in graph.writes.values() for vs in writes}
    return (
        graph.cells, graph.reads, graph.writes, graph.active_snapshots(),
        {name: t for name, t in graph.deleted.items() if name in written}, graph.refs,
        graph.recorded_cells, repr(graph.recorded_rerun_s), graph.next_t,
    )


class TestManifestRoundTrip:
    def test_round_trip(self, worked_history):
        data = worked_history.to_manifest()
        clone = HistoryGraph.from_manifest(data)
        assert clone.to_manifest() == data
        assert clone.active_snapshots() == worked_history.active_snapshots()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), delete_rate=st.floats(0.0, 0.3), fail_rate=st.floats(0.0, 0.3))
    def test_read_back_keeps_the_whole_lineage(self, seed, delete_rate, fail_rate):
        # a deletion after the last live cell, or a dead last cell, moves the
        # clock past every cell the manifest lists
        rng = random.Random(seed)
        trace = with_failing_cells(generate_trace(GenParams(
            cells=30, variables=rng.randint(2, 8), delete_rate=delete_rate,
            never_rerun_rate=0.05), seed), rng, fail_rate)
        graph = run_trace(trace)[0].history
        assert lineage_state(HistoryGraph.from_manifest(graph.to_manifest())) == lineage_state(graph)

    def test_read_back_lineage_refuses_a_used_timestamp(self):
        # the cell at t=3 deletes x and writes nothing, so the manifest lists
        # cells 1 (kept by w) and 2 only
        graph = HistoryGraph()
        graph.record(record(1, written={"x", "w"}))
        graph.record(record(2, written={"y"}))
        graph.record(record(3, deleted={"x"}))
        clone = HistoryGraph.from_manifest(graph.to_manifest())
        assert list(clone.cells) == [1, 2] and clone.next_t == 4
        with pytest.raises(NonMonotonicTimestamp):
            clone.record(record(3, written={"x"}))
        assert clone.deleted == {"x": 3}
        clone.record(record(4, written={"x"}))
        assert clone.active_snapshots()["x"] == vs("x", 4)

    def test_cell_timestamps_start_at_one(self):
        manifest = HistoryGraph().to_manifest()
        assert manifest["next_t"] == 1
        cell = {"t": 0, "code_ref": "c", "runtime_s": 1.0, "never_rerun": False,
                "nondeterministic": False, "reads": [], "writes": ["x"]}
        with pytest.raises(FormatError, match="timestamp 0"):
            HistoryGraph.from_manifest({**manifest, "cells": [cell], "recorded_cells": 1})

    def test_size_scales_with_cells_not_objects(self):
        # lineage metadata is independent of how many objects variables hold:
        # one entry per live cell
        trace = generate_trace(GenParams(cells=30, variables=5), 7)
        session, _ = run_trace(trace)
        manifest = session.history.to_manifest()
        assert 0 < len(session.history.cells) < 30
        assert [c["t"] for c in manifest["cells"]] == list(session.history.cells)

    def test_memory_independent_of_object_counts(self):
        from statecut.cli import history_memory_bytes
        from statecut.cost import CostProfile
        from statecut.heap import HeapOp
        from statecut.monitor import CellProgram
        from statecut.trace import TraceFile

        def trace_with(width: int) -> TraceFile:
            ops = [HeapOp(op="create", id=1, kind="container", size_bytes=8)]
            for i in range(width):
                ops.append(HeapOp(op="create", id=i + 2, kind="scalar", value=i, size_bytes=8))
                ops.append(HeapOp(op="set_slot", parent_id=1, slot=f"s{i}", child_id=i + 2))
            ops.append(HeapOp(op="bind", name="wide", id=1))
            follow = CellProgram(code_ref="touch", direct_reads={"wide"}, ops=[
                HeapOp(op="set_value", id=2, value=-1),
            ])
            return TraceFile(
                profile=CostProfile(bandwidth_bytes_per_s=1.0),
                cells=[CellProgram(code_ref="build", ops=ops), follow],
            )

        slim, _ = run_trace(trace_with(2))
        wide, _ = run_trace(trace_with(200))
        assert history_memory_bytes(wide.history) == history_memory_bytes(slim.history)

    def test_memory_independent_of_other_lineages(self):
        # CPython reports a smaller instance dict for each instance its class
        # has made; the measure depends on what the lineage holds alone
        from statecut.cli import history_memory_bytes

        trace = generate_trace(GenParams(cells=30, variables=5), 7)
        first, _ = run_trace(trace)
        first_bytes = history_memory_bytes(first.history)
        for _ in range(300):
            HistoryGraph()
        second, _ = run_trace(trace)
        assert history_memory_bytes(second.history) == first_bytes

    def test_memory_counts_everything_the_lineage_holds(self):
        # the collector's view of every object the lineage references: a
        # __slots__ class, whose fields history_memory_bytes cannot see,
        # would make the measure fall short of it
        from statecut.cli import history_memory_bytes

        session, _ = run_trace(generate_trace(GenParams(cells=300, variables=30, delete_rate=0.05), 3))
        measured = history_memory_bytes(session.history)
        seen, stack, held = set(), [session.history], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
                continue
            seen.add(id(obj))
            held += sys.getsizeof(obj)
            stack.extend(gc.get_referents(obj))
        assert abs(measured - held) <= 0.01 * held, (measured, held)


# a manifest whose cell 1 writes x and y; ``manifest_with`` puts one more
# cell after it, which may read x@1 and y@1 and write anything before t=10
WRITER = {"t": 1, "code_ref": "cell_1", "runtime_s": 1.0, "never_rerun": False,
          "nondeterministic": False, "reads": [], "writes": ["x", "y"]}
# values each wrong for most fields of a cell
WRONG_FIELD_VALUES = [None, True, False, 0, -1, 1.5, math.inf, math.nan, 10**400, "", "x",
                      [], [1], ["x"], [["x"]], [["x", 1, 1]], [["x", 1.0]], [["x", True]], [[1, 1]],
                      [("x", 1)], {}, {"x": 1}]
_KEYS = [name for name, *_ in _CELL]
CELL = {**WRITER, "t": 2, "reads": [["x", 1]]}  # a valid second cell
# for each field, the wrong values nearest to valid ones
NEAR_MISSES = {
    "t": [True, 2.0, -1.0, "2", None],
    "code_ref": ["", None, 1, ["c"]],
    "runtime_s": [math.inf, math.nan, 10**400, -1.0, -1, True, None],
    "never_rerun": [0, 1, None, "yes"],
    "nondeterministic": [0, 1, None, "yes"],
    "reads": [[["x"]], [["x", 1, 1]], [["x", 1.0]], [["x", True]], [[1, 1]], ["x1"], None, {}],
    "writes": [[1], "x", None, [None], [["x"]]],
    "failed_at": [None, -1, True, 1.0, "0"],
}


def manifest_with(entry) -> dict:
    return {"cells": [WRITER, entry], "deleted": {}, "next_t": 10, "recorded_cells": 2,
            "recorded_rerun_s": 2.0}


def rules_verdict(entry) -> str | None:
    """check_fields' message for ``entry`` as from_manifest's second cell,
    or None when the rules accept it."""
    try:
        check_fields(entry, _CELL, "history.cells[1]")
    except FormatError as err:
        return str(err)
    return None


def reader_verdict(entry) -> str | None:
    try:
        HistoryGraph.from_manifest(manifest_with(entry))
    except FormatError as err:
        return str(err)
    return None


def assert_reader_agrees(entry, verdict: str | None) -> None:
    """from_manifest names the fault the rules name; an entry the rules
    accept it reads, unless its t breaks the order of the manifest's cells."""
    found = reader_verdict(entry)
    if verdict is not None:
        assert found == verdict
    elif 2 <= entry["t"] <= 9:
        assert found is None
    else:
        assert not found.startswith("history.cells[")


@st.composite
def manifest_cells(draw):
    """Cell entries that break up to three of their fields' rules, or none:
    each field is valid for the manifest of ``manifest_with`` (failed_at
    present or not), or a broken one holds a wrong value or is missing; an
    unknown field may join them, and the entry may not be an object."""
    valid = {
        "t": st.integers(2, 9),
        "code_ref": st.text(min_size=1, max_size=3),
        "runtime_s": st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**6)),
        "never_rerun": st.booleans(),
        "nondeterministic": st.booleans(),
        "reads": st.lists(st.sampled_from([["x", 1], ["y", 1]]), max_size=3),
        "writes": st.lists(st.text(max_size=2), max_size=3),
        "failed_at": st.integers(0, 2**70),
    }
    broken = draw(st.lists(st.sampled_from(list(valid)), max_size=3, unique=True))
    entry = {}
    for name, values in valid.items():
        if name not in broken:
            if name != "failed_at" or draw(st.booleans()):
                entry[name] = draw(values)
        elif draw(st.integers(0, 4)):  # else missing
            entry[name] = draw(st.one_of(st.sampled_from(NEAR_MISSES[name]), st.sampled_from(WRONG_FIELD_VALUES)))
    if draw(st.integers(0, 9)) == 0:
        entry[draw(st.sampled_from(["comment", "t2", ""]))] = 0
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[entry], None, "cell", 3]))
    return entry


class TestManifestFields:
    # from_manifest tests each cell with _CELL.valid and walks the rules of
    # _CELL only when it says no: it accepts and rejects exactly what the
    # rules do, with the rules' message

    @settings(max_examples=400, deadline=None)
    @given(entry=manifest_cells())
    @example(entry=CELL)
    @example(entry={**CELL, "failed_at": 0})
    @example(entry={**CELL, "runtime_s": 3})
    @example(entry={**CELL, "t": True})
    @example(entry={**CELL, "failed_at": True})
    @example(entry={**CELL, "failed_at": None})
    @example(entry={**CELL, "failed_at": -1})
    @example(entry={**CELL, "code_ref": ""})
    @example(entry={**CELL, "runtime_s": math.inf})
    @example(entry={**CELL, "runtime_s": math.nan})
    @example(entry={**CELL, "runtime_s": 10**400})
    @example(entry={**CELL, "reads": [["x"]]})
    @example(entry={**CELL, "reads": [["x", 1, 1]]})
    @example(entry={**CELL, "writes": [1]})
    @example(entry={key: value for key, value in CELL.items() if key != "t"})
    @example(entry={**CELL, "comment": ""})
    @example(entry={**CELL, "failed_at": 0, "comment": ""})
    @example(entry=[CELL])
    def test_in_place_checks_accept_and_reject_as_the_rules_do(self, entry):
        verdict = rules_verdict(entry)
        # the compiled test accepts exactly what the walk accepts
        assert _CELL.valid(entry) == (verdict is None)
        assert_reader_agrees(entry, verdict)

    def test_every_wrong_value_of_every_field_is_named(self):
        rejected = 0
        for field in _KEYS:
            for value in NEAR_MISSES[field] + WRONG_FIELD_VALUES:
                entry = {**CELL, "failed_at": 0, field: value}
                verdict = rules_verdict(entry)
                assert_reader_agrees(entry, verdict)
                assert _CELL.valid(entry) == (verdict is None), (field, value)
                rejected += verdict is not None
        assert rejected > 180

    def test_a_valid_manifest_walks_the_rules_once(self, monkeypatch, tmp_path):
        # the history object's own fields only: never once per cell; and no
        # rule is walked at all for a valid trace, its lineage or its
        # checkpoint, whose tables' compiled tests accept every object
        walked, walks = [], []

        def counted(data, fields, where):
            walked.append(where)
            return check_fields(data, fields, where)

        def counted_walk(data, fields, where):
            walks.append(where)
            return walk(data, fields, where)

        walk = schema._walk
        monkeypatch.setattr(history_module, "check_fields", counted)
        monkeypatch.setattr(schema, "_walk", counted_walk)
        cells = ops = records = 0
        for seed in range(20):
            trace = with_failing_cells(generate_trace(GenParams(
                cells=60, variables=8, delete_rate=0.1, never_rerun_rate=0.05, nondet_rate=0.05), seed),
                random.Random(seed), 0.2)
            save_trace(trace, tmp_path / "trace.json")
            assert load_trace(tmp_path / "trace.json") == trace, seed
            assert walks == [], seed
            session = run_trace(trace)[0]
            graph = session.history
            for manifest in (graph.to_manifest(), json.loads(json.dumps(graph.to_manifest()))):
                walked.clear()
                assert lineage_state(HistoryGraph.from_manifest(manifest)) == lineage_state(graph), seed
                assert walked == ["history"], seed
            assert walks == [], seed
            write_checkpoint(session, plan_session(session), tmp_path / "session.ckpt")
            records += len(read_checkpoint(tmp_path / "session.ckpt").objects)
            assert walks == [], seed
            cells += len(graph.cells)
            ops += sum(len(cell.ops) for cell in trace.cells)
        assert cells > 200 and ops > 1000 and records > 100
