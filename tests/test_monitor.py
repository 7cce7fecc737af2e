import copy
import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statecut.monitor as monitor_mod
from statecut.errors import CellExecutionError
from statecut.gen import GenParams, generate_trace
from statecut.heap import HeapOp, build_id_graph, reachable_ids, value_hash
from statecut.history import VariableSnapshot
from statecut.monitor import (
    CellProgram,
    PreSnapshot,
    current_index,
    detect_accesses,
    detect_modifications,
    run_cell,
)
from statecut.trace import new_session, run_trace

from sessions import rescan, worked_example_trace


def session_with(profile_bandwidth=1e6):
    from statecut.cost import CostProfile

    return new_session(CostProfile(bandwidth_bytes_per_s=profile_bandwidth))


def shared_list_session():
    """l1 is a list whose object also sits inside big2d."""
    session = session_with()
    run_cell(session, CellProgram(
        code_ref="setup",
        ops=[
            HeapOp(op="create", id=1, kind="container", size_bytes=16),
            HeapOp(op="create", id=2, kind="scalar", value=3, size_bytes=8),
            HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
            HeapOp(op="bind", name="l1", id=1),
            HeapOp(op="create", id=3, kind="container", size_bytes=16),
            HeapOp(op="set_slot", parent_id=3, slot="0", child_id=1),
            HeapOp(op="bind", name="big2d", id=3),
        ],
    ))
    return session


class TestRunCell:
    def test_increment_shape(self):
        # read x, write x back: read edge from the old snapshot, fresh snapshot out
        session = session_with()
        run_cell(session, CellProgram(
            code_ref="c1",
            ops=[
                HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="bind", name="x", id=1),
            ],
        ))
        rec = run_cell(session, CellProgram(
            code_ref="c2",
            direct_reads={"x"},
            ops=[HeapOp(op="set_value", id=1, value=2)],
        ))
        assert rec.accessed == {VariableSnapshot("x", 1)}
        assert rec.written == {"x"}
        assert session.history.active_snapshots()["x"] == VariableSnapshot("x", 2)

    def test_empty_cell(self):
        session = session_with()
        rec = run_cell(session, CellProgram(code_ref="noop", declared_runtime_s=0.25))
        assert rec.accessed == set() and rec.written == set() and rec.created == set()
        # it writes nothing, so the lineage drops it at once and keeps its runtime
        # only in the totals
        assert session.history.cells == {}
        assert session.history.recorded_cells == 1 and session.history.recorded_rerun_s == 0.25

    def test_alias_write_through(self):
        # mutating through l1 also marks the sharing variable accessed+modified
        session = shared_list_session()
        pre_hash = value_hash(session.heap, "big2d")
        rec = run_cell(session, CellProgram(
            code_ref="mutate",
            direct_reads={"l1"},
            ops=[HeapOp(op="set_value", id=2, value=99)],
        ))
        assert {vs.name for vs in rec.accessed} == {"l1", "big2d"}
        assert rec.written == {"l1", "big2d"}
        assert value_hash(session.heap, "big2d") != pre_hash

    def test_failed_cell_records_partial_effects(self):
        session = session_with()
        with pytest.raises(CellExecutionError):
            run_cell(session, CellProgram(
                code_ref="boom",
                ops=[
                    HeapOp(op="create", id=1, kind="scalar", value=5, size_bytes=8),
                    HeapOp(op="bind", name="x", id=1),
                    HeapOp(op="bind", name="y", id=404),
                ],
            ))
        assert session.heap.namespace == {"x": 1}
        assert session.history.cells[1].failed
        assert session.history.cells[1].failed_at == 2
        assert session.history.active_snapshots()["x"] == VariableSnapshot("x", 1)

    def test_failed_cells_leave_no_reference_cycle(self):
        session = session_with()
        failing = CellProgram(code_ref="boom", ops=[HeapOp(op="bind", name="y", id=404)])
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                with pytest.raises(CellExecutionError):
                    run_cell(session, failing)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_in_place_change_reads_the_changed_names(self):
        # the cell declares no read of c or e, yet changes their shared
        # object: both new states are the old ones with the change
        session = session_with()
        run_cell(session, CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="container", size_bytes=8),
            HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
            HeapOp(op="set_slot", parent_id=1, slot="s0", child_id=2),
            HeapOp(op="bind", name="c", id=1),
            HeapOp(op="bind", name="e", id=2),
        ]))
        rec = run_cell(session, CellProgram(code_ref="c2", direct_reads={"absent"}, ops=[
            HeapOp(op="set_value", id=2, value=9),
        ]))
        assert rec.accessed == {VariableSnapshot("c", 1), VariableSnapshot("e", 1)}
        assert rec.written == {"c", "e"}

    def test_bind_then_unbind_in_one_cell_is_a_delete(self):
        session = session_with()
        run_cell(session, CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="scalar", value=0, size_bytes=8),
            HeapOp(op="bind", name="x", id=1),
        ]))
        rec = run_cell(session, CellProgram(code_ref="c2", ops=[
            HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
            HeapOp(op="bind", name="x", id=2),
            HeapOp(op="unbind", name="x"),
        ]))
        assert rec.deleted == {"x"} and "x" not in rec.created
        assert "x" not in session.history.active_snapshots()

    def test_active_set_tracks_namespace_on_random_traces(self):
        for seed in range(40):
            trace = generate_trace(
                GenParams(cells=10, variables=6, delete_rate=0.15, nondet_rate=0.1),
                seed,
            )
            session, _ = run_trace(trace)
            assert set(session.history.active_snapshots()) == set(session.heap.namespace)

    def test_delete_is_tombstone_only(self):
        session = session_with()
        run_cell(session, CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="scalar", value=0, size_bytes=8),
            HeapOp(op="bind", name="x", id=1),
        ]))
        rec = run_cell(session, CellProgram(code_ref="c2", ops=[
            HeapOp(op="unbind", name="x"),
        ]))
        assert rec.deleted == {"x"}
        assert rec.written == set()
        assert "x" not in session.history.active_snapshots()


class TestDetectAccesses:
    def test_shared_object_pulls_in_partner(self):
        session = shared_list_session()
        pre = PreSnapshot(session.heap)
        assert detect_accesses(pre, {"l1"}) == {"l1", "big2d"}

    def test_empty_reads(self):
        session = shared_list_session()
        assert detect_accesses(PreSnapshot(session.heap), set()) == set()

    def test_matches_pairwise_overlap_oracle(self, rng):
        from statecut.heap import id_graphs_overlap

        for seed in range(10):
            trace = generate_trace(GenParams(cells=8, variables=6, alias_density=0.6), seed)
            session, _ = run_trace(trace)
            heap = session.heap
            if not heap.namespace:
                continue
            pre = PreSnapshot(heap)
            direct = set(rng.sample(sorted(heap.namespace), k=min(2, len(heap.namespace))))
            expected = set(direct)
            for name in heap.namespace:
                for d in direct:
                    if id_graphs_overlap(build_id_graph(heap, name), build_id_graph(heap, d)):
                        expected.add(name)
            assert detect_accesses(pre, direct) == expected

    def test_ablated_mode_keeps_direct_only(self):
        session = shared_list_session()
        pre = PreSnapshot(session.heap)
        assert detect_accesses(pre, {"l1"}, use_id_graphs=False) == {"l1"}


class TestDetectModifications:
    def test_structural_swap_with_equal_values(self):
        # big2d's nested slot switches to a fresh, value-equal list: the value
        # hash can't see it, the reference structure can
        session = shared_list_session()
        pre = PreSnapshot(session.heap)
        session.heap.apply([
            HeapOp(op="create", id=10, kind="container", size_bytes=16),
            HeapOp(op="create", id=11, kind="scalar", value=3, size_bytes=8),
            HeapOp(op="set_slot", parent_id=10, slot="0", child_id=11),
            HeapOp(op="set_slot", parent_id=3, slot="0", child_id=10),
        ])
        changes = detect_modifications(pre, session.heap, accessed={"big2d"})
        assert "big2d" in changes["modified"]
        assert "l1" not in changes["modified"]

    def test_untouched_variable_absent(self):
        session = shared_list_session()
        pre = PreSnapshot(session.heap)
        session.heap.apply([
            HeapOp(op="create", id=20, kind="scalar", value=1, size_bytes=8),
            HeapOp(op="bind", name="fresh", id=20),
        ])
        changes = detect_modifications(pre, session.heap, accessed=set())
        assert changes["created"] == {"fresh"}
        assert changes["modified"] == set()
        assert changes["deleted"] == set()

    def test_unhashable_accessed_counts_as_modified(self):
        session = session_with()
        run_cell(session, CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="opaque", size_bytes=64, hashable=False),
            HeapOp(op="bind", name="conn", id=1),
        ]))
        pre = PreSnapshot(session.heap)
        changes = detect_modifications(pre, session.heap, accessed={"conn"})
        assert "conn" in changes["modified"]

    def test_no_idgraph_mode_misses_pure_swap(self):
        session = shared_list_session()
        pre = PreSnapshot(session.heap)
        session.heap.apply([
            HeapOp(op="create", id=10, kind="container", size_bytes=16),
            HeapOp(op="create", id=11, kind="scalar", value=3, size_bytes=8),
            HeapOp(op="set_slot", parent_id=10, slot="0", child_id=11),
            HeapOp(op="set_slot", parent_id=3, slot="0", child_id=10),
        ])
        changes = detect_modifications(
            pre, session.heap, accessed={"big2d"},
            touched={3}, use_id_graphs=False,
        )
        assert "big2d" not in changes["modified"]


class TestCompleteness:
    def test_every_value_change_is_reported(self):
        # oracle: hash every variable before and after each cell; anything
        # whose hash differs must appear in the cell's written set
        for seed in range(20):
            trace = generate_trace(
                GenParams(cells=10, variables=6, alias_density=0.5, unhashable_rate=0.0),
                seed + 900,
            )
            session = new_session(trace.profile)
            for program in trace.cells:
                before = {n: value_hash(session.heap, n) for n in session.heap.namespace}
                rec = run_cell(session, program)
                after = {n: value_hash(session.heap, n) for n in session.heap.namespace}
                for name in set(before) & set(after):
                    if before[name] != after[name]:
                        assert name in rec.written, (seed, rec.t, name)
                accessed_names = {vs.name for vs in rec.accessed}
                for name in program.direct_reads & set(before):
                    assert name in accessed_names, (seed, rec.t, name)

    def test_direct_reads_always_accessed(self):
        session = shared_list_session()
        rec = run_cell(session, CellProgram(
            code_ref="reader", direct_reads={"l1"}, ops=[],
        ))
        assert "l1" in {vs.name for vs in rec.accessed}


def count_work(monkeypatch) -> dict[str, list]:
    """Record what run_cell walks and canonicalises: the roots of its
    closure walks (``reachable_ids``), and each value it passes to
    ``_canon``."""
    work: dict[str, list] = {"walks": [], "canon": []}
    real_reachable, real_canon = monitor_mod.reachable_ids, monitor_mod._canon

    def reachable(objects, root):
        work["walks"].append(root)
        return real_reachable(objects, root)

    def canon(value):
        work["canon"].append(value)
        return real_canon(value)

    monkeypatch.setattr(monitor_mod, "reachable_ids", reachable)
    monkeypatch.setattr(monitor_mod, "_canon", canon)
    return work


class TestLazyHashing:
    def test_untouched_huge_variable_never_hashed(self, monkeypatch):
        session = session_with()
        run_cell(session, CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="scalar", value="big" * 1000, size_bytes=10**9),
            HeapOp(op="bind", name="huge", id=1),
        ]))
        run_cell(session, CellProgram(code_ref="c2", ops=[
            HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
            HeapOp(op="bind", name="tiny", id=2),
        ]))

        work = count_work(monkeypatch)
        run_cell(session, CellProgram(
            code_ref="c3", direct_reads={"tiny"},
            ops=[HeapOp(op="set_value", id=2, value=5)],
        ))
        # tiny's closure before the cell is the index's, and its shape did not
        # change; the untouched huge variable was never canonicalised
        assert work["walks"] == []
        assert sorted(work["canon"]) == [1, 5]


class TestWorkedExampleLineage:
    def test_edges_match_expected(self):
        session, _ = run_trace(worked_example_trace())
        graph = session.history
        reads = {t: sorted((vs.name, vs.t) for vs in deps) for t, deps in graph.reads.items()}
        assert reads[2] == [("y", 1)]
        assert reads[3] == [("x", 1), ("z", 2)]
        assert reads[4] == [("l1", 3)]
        assert reads[5] == [("l1", 3)]
        writes = {t: sorted(vs.name for vs in w) for t, w in graph.writes.items()}
        assert writes[1] == ["x", "y"]
        assert writes[3] == ["l1", "x"]
        assert writes[5] == ["big2d"]
        active = graph.active_snapshots()
        assert active["x"].t == 3 and active["l1"].t == 3 and active["big2d"].t == 5


def rescan_cell(session, program) -> tuple:
    """The full rescan of one cell, on a copy of the session's heap: the
    record run_cell must make for it, and the objects left after a full sweep."""
    heap = copy.deepcopy(session.heap)
    return rescan(heap, session.history, session.history.next_t, program), set(heap.objects)


def monitored(session, program) -> tuple:
    try:
        rec = run_cell(session, program)
    except CellExecutionError as err:
        rec = err.record
    return rec, set(session.heap.objects)


def with_bad_op(program, rng: random.Random) -> CellProgram:
    """``program`` with a bad op mid-batch: the ops before it keep their
    effects, it and the ops after it take none."""
    ops = list(program.ops)
    ops.insert(rng.randint(0, len(ops)), HeapOp(op="bind", name="v0", id=10**9))
    return dataclasses.replace(program, ops=ops)


def live_index(heap) -> tuple[dict, dict]:
    """Each bound name's closure over the live heap, and the names that
    reach each object."""
    closures = {name: reachable_ids(heap.objects, root) for name, root in heap.namespace.items()}
    names: dict = {}
    for name, closure in closures.items():
        for oid in closure:
            names.setdefault(oid, set()).add(name)
    return closures, names


def outside_mutation(heap, rng: random.Random) -> list[HeapOp]:
    """A few valid ops that change the heap between cells, possibly leaving
    objects no name reaches."""
    ops = []
    live = sorted(heap.objects)
    if not live:
        return ops
    for _ in range(rng.randint(1, 3)):
        oid = rng.choice(live)
        obj = heap.objects[oid]
        roll = rng.random()
        if roll < 0.3 and obj.kind != "container":
            ops.append(HeapOp(op="set_value", id=oid, value=rng.randint(0, 9)))
        elif roll < 0.5 and obj.kind == "container":
            ops.append(HeapOp(op="set_slot", parent_id=oid, slot="x", child_id=rng.choice(live)))
        elif roll < 0.7 and heap.namespace:
            ops.append(HeapOp(op="unbind", name=rng.choice(sorted(heap.namespace))))
            break  # a later op might name the unbound variable
        else:
            ops.append(HeapOp(op="bind", name=f"v{rng.randint(0, 12)}", id=oid))
    return ops


class TestIncrementalMatchesRescan:
    """run_cell reports exactly what the full rescan reports, cell by cell,
    and leaves exactly the objects a full sweep leaves."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alias_density=st.floats(0.3, 0.95),
        unhashable_rate=st.floats(0.0, 0.5),
        delete_rate=st.floats(0.0, 0.3),
        fail_rate=st.floats(0.0, 0.3),
        outside_rate=st.floats(0.0, 0.4),
    )
    def test_cell_by_cell(self, seed, alias_density, unhashable_rate, delete_rate,
                          fail_rate, outside_rate):
        rng = random.Random(seed)
        trace = generate_trace(GenParams(
            cells=14, variables=rng.randint(3, 10), alias_density=alias_density,
            unhashable_rate=unhashable_rate, delete_rate=delete_rate, nondet_rate=0.1,
        ), seed)
        session = new_session(trace.profile)
        for program in trace.cells:
            if rng.random() < fail_rate and program.ops:
                program = with_bad_op(program, rng)
            if rng.random() < outside_rate:
                session.heap.apply(outside_mutation(session.heap, rng))
                if rng.random() < 0.5:
                    # a reader's rebuild, which the session keeps, must not
                    # hide from run_cell the objects no name reaches now
                    current_index(session)
            expected = rescan_cell(session, program)
            assert monitored(session, program) == expected, program.code_ref
            # the index holds each bound name's closure, and its inverse
            assert (session.index.closures, session.index.names) == live_index(session.heap)

    def test_worked_example(self):
        trace = worked_example_trace()
        session = new_session(trace.profile)
        for program in trace.cells:
            expected = rescan_cell(session, program)
            assert monitored(session, program) == expected, program.code_ref


# values equal under == whose canonical forms differ, and NaN, unequal to
# itself under == with one canonical form
CORNER_VALUES = (1, 1.0, True, 0, 0.0, -0.0, float("nan"), "1", None)
CORNER_NAMES = ("v0", "v1", "v2", "v3")


def corner_cell(data, heap, ids) -> CellProgram:
    """A cell over ``heap`` mixing the op shapes where reading the undo log
    could part from fingerprinting: values equal under == or canonically, a
    slot cleared and set back, a slot swapped to a value-equal fresh object,
    cycles, unhashable objects, slots set on a container the cell made, a
    name unbound and rebound to its old root, and a failing op."""
    scratch = copy.deepcopy(heap)
    ops: list[HeapOp] = []

    def emit(*batch):
        scratch.apply(batch)
        ops.extend(batch)

    def pick(oids):
        return data.draw(st.sampled_from(sorted(oids))) if oids else None

    for _ in range(data.draw(st.integers(1, 5))):
        objects, names = scratch.objects, scratch.namespace
        containers = [oid for oid, obj in objects.items() if obj.kind == "container"]
        others = [oid for oid, obj in objects.items() if obj.kind != "container"]
        shape = data.draw(st.sampled_from((
            "new", "value", "reslot", "swap", "link", "fresh_container",
            "unhashable", "rebind", "alias", "unbind",
        )))
        if shape == "new":
            oid = next(ids)
            kind = data.draw(st.sampled_from(("scalar", "container")))
            value = data.draw(st.sampled_from(CORNER_VALUES)) if kind == "scalar" else None
            emit(HeapOp(op="create", id=oid, kind=kind, value=value, size_bytes=8),
                 HeapOp(op="bind", name=data.draw(st.sampled_from(CORNER_NAMES)), id=oid))
        elif shape == "value" and others:
            oid = pick(others)
            value = data.draw(st.sampled_from(CORNER_VALUES + (objects[oid].value,)))
            emit(HeapOp(op="set_value", id=oid, value=value))
        elif shape == "reslot" and any(objects[oid].slots for oid in containers):
            # the first slot of a container with two or more moves to the end
            parent = pick([oid for oid in containers if len(objects[oid].slots) > 1]
                          or [oid for oid in containers if objects[oid].slots])
            slot, child = next(iter(objects[parent].slots.items()))
            emit(HeapOp(op="clear_slot", parent_id=parent, slot=slot),
                 HeapOp(op="set_slot", parent_id=parent, slot=slot, child_id=child))
        elif shape == "swap" and any(objects[oid].slots for oid in containers):
            parent = pick([oid for oid in containers if objects[oid].slots])
            slot = data.draw(st.sampled_from(sorted(objects[parent].slots)))
            old = objects[objects[parent].slots[slot]]
            twin = next(ids)
            emit(HeapOp(op="create", id=twin, kind=old.kind, value=old.value, size_bytes=old.size_bytes,
                        hashable=old.hashable),
                 HeapOp(op="set_slot", parent_id=parent, slot=slot, child_id=twin))
        elif shape == "link" and containers:
            # any child, the parent itself and its ancestors included
            emit(HeapOp(op="set_slot", parent_id=pick(containers),
                        slot=data.draw(st.sampled_from("abc")), child_id=pick(objects)))
        elif shape == "fresh_container":
            box, leaf = next(ids), next(ids)
            emit(HeapOp(op="create", id=box, kind="container", size_bytes=8),
                 HeapOp(op="create", id=leaf, kind="scalar", size_bytes=8,
                        value=data.draw(st.sampled_from(CORNER_VALUES))),
                 HeapOp(op="set_slot", parent_id=box, slot="a", child_id=leaf))
            emit(HeapOp(op="set_slot", parent_id=box, slot="b", child_id=pick(objects)))
            if containers and data.draw(st.booleans()):
                emit(HeapOp(op="set_slot", parent_id=pick(containers), slot="b", child_id=box))
            else:
                emit(HeapOp(op="bind", name=data.draw(st.sampled_from(CORNER_NAMES)), id=box))
        elif shape == "unhashable":
            blob = next(ids)
            emit(HeapOp(op="create", id=blob, kind="opaque", size_bytes=8, hashable=False))
            if containers and data.draw(st.booleans()):
                emit(HeapOp(op="set_slot", parent_id=pick(containers), slot="c", child_id=blob))
            else:
                emit(HeapOp(op="bind", name=data.draw(st.sampled_from(CORNER_NAMES)), id=blob))
        elif shape == "rebind" and names:
            name = pick(names)
            emit(HeapOp(op="unbind", name=name), HeapOp(op="bind", name=name, id=names[name]))
        elif shape == "alias" and objects:
            emit(HeapOp(op="bind", name=data.draw(st.sampled_from(CORNER_NAMES)), id=pick(objects)))
        elif shape == "unbind" and names:
            emit(HeapOp(op="unbind", name=pick(names)))
    if ops and data.draw(st.booleans()):
        # a bad op mid-batch: the ops before it keep their effects
        ops.insert(data.draw(st.integers(0, len(ops))), HeapOp(op="bind", name="v0", id=10**9))
    reads = data.draw(st.sets(st.sampled_from(CORNER_NAMES + ("absent",)), max_size=2))
    return CellProgram(code_ref="corner", direct_reads=reads, ops=ops)


class TestUndoLogRules:
    """The undo-log rules equal the fingerprints on the cells where they
    could part: each record, and the objects left, equal a full rescan's."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corner_cells_match_rescan(self, data):
        session = session_with()
        ids = iter(range(1, 10**6))
        for _ in range(data.draw(st.integers(1, 6))):
            program = corner_cell(data, session.heap, ids)
            expected = rescan_cell(session, program)
            assert monitored(session, program) == expected, program


class TestWorkCount:
    def test_one_value_set_walks_and_compares_one_name(self, monkeypatch):
        # 300 names; n0..n9 share one scalar, so reading n0 accesses all ten
        session = session_with()
        ops = [HeapOp(op="create", id=1, kind="scalar", value=0, size_bytes=8)]
        for i in range(300):
            box, own = 10 + 2 * i, 11 + 2 * i
            ops += [
                HeapOp(op="create", id=box, kind="container", size_bytes=16),
                HeapOp(op="create", id=own, kind="scalar", value=i, size_bytes=8),
                HeapOp(op="set_slot", parent_id=box, slot="own", child_id=own),
                HeapOp(op="bind", name=f"n{i}", id=box),
            ]
            if i < 10:
                ops.append(HeapOp(op="set_slot", parent_id=box, slot="shared", child_id=1))
        run_cell(session, CellProgram(code_ref="setup", ops=ops))

        work = count_work(monkeypatch)
        rec = run_cell(session, CellProgram(
            code_ref="bump", direct_reads={"n0"},
            ops=[HeapOp(op="set_value", id=11, value=-1)],
        ))
        assert {vs.name for vs in rec.accessed} == {f"n{i}" for i in range(10)}
        assert rec.written == {"n0"}
        # every closure before the cell is the index's, and no shape changed,
        # so nothing is walked, not even for the unhashable-access rule
        assert work["walks"] == []
        assert sorted(work["canon"]) == [-1, 0]

    def test_walks_only_names_created_or_rewritten(self, monkeypatch):
        # a cell walks a closure only for a name it created or whose ID graph
        # it changed, and the record lists every such name
        work = count_work(monkeypatch)
        for seed in range(300):
            rng = random.Random(seed)
            trace = generate_trace(GenParams(
                cells=12, variables=6, alias_density=0.7, unhashable_rate=0.3,
                delete_rate=0.2, nondet_rate=0.2,
            ), seed)
            session = new_session(trace.profile)
            for program in trace.cells:
                if rng.random() < 0.2 and program.ops:
                    program = with_bad_op(program, rng)
                work["walks"].clear()
                rec, _ = monitored(session, program)
                assert len(work["walks"]) <= len(rec.created | rec.written), (seed, rec.t)
