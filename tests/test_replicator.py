import json
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import statecut
from statecut import replicator
from statecut.cli import main
from statecut.cost import CostProfile
from statecut.errors import FormatError, SerializationError, Unreconstructable
from statecut.gen import GenParams, generate_trace, inject_false_edges
from statecut.heap import HeapObject, HeapOp, SimHeap
from statecut.monitor import CellProgram
from statecut.planner import ReplicationPlan, plan_session
from statecut.replicator import (
    _KIND_CODES,
    payload_bytes,
    read_checkpoint,
    recovery_cells,
    restore,
    verify,
    write_checkpoint,
)
from statecut.trace import TraceFile, run_trace, save_trace

from documents import WRONG_VALUES, leaf_paths, with_leaf
from sessions import worked_example_trace


def read_manifest(path) -> dict:
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20:20 + manifest_len])


def write_manifest(path, manifest) -> None:
    """Swap a checkpoint's manifest section, keeping a correct header."""
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", raw, 12)
    edited = json.dumps(manifest).encode()
    path.write_bytes(raw[:12] + struct.pack("<Q", len(edited)) + edited
                     + raw[20 + manifest_len:])


def payload_records(path) -> list[bytes]:
    """A checkpoint's payload, one encoded object per entry, in file order."""
    objects = read_checkpoint(path).objects
    return [replicator._encode_object(objects[oid]) for oid in sorted(objects)]


def write_payload(path, records: list[bytes]) -> None:
    """Swap a checkpoint's payload section, keeping a correct header."""
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", raw, 12)
    payload = b"".join(records)
    path.write_bytes(raw[:20 + manifest_len] + struct.pack("<Q", len(payload)) + payload)


def without_code_ref(manifest: dict) -> dict:
    del manifest["history"]["cells"][0]["code_ref"]
    return manifest


def with_unwritten_read(manifest: dict) -> dict:
    manifest["history"]["cells"][-1]["reads"].append(["ghost", 1])
    return manifest


def checkpoint_roundtrip(tmp_path, trace, plan=None, **plan_kwargs):
    session, _ = run_trace(trace)
    if plan is None:
        plan = plan_session(session, **plan_kwargs)
    path = tmp_path / "session.ckpt"
    write_checkpoint(session, plan, path)
    return session, plan, path


class TestCheckpointFormat:
    def test_round_trip_preserves_everything(self, tmp_path):
        session, plan, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        loaded = read_checkpoint(path)
        assert loaded.plan.migrate == plan.migrate
        assert loaded.plan.rerun == plan.rerun
        assert loaded.variables.keys() == plan.migrate
        assert loaded.history.active_snapshots() == session.history.active_snapshots()
        assert loaded.cost.cell_runtimes == session.cost.cell_runtimes
        for oid, rec in loaded.objects.items():
            original = session.heap.objects[oid]
            assert (rec.kind, rec.value, rec.slots, rec.size_bytes) == (
                original.kind, original.value, original.slots, original.size_bytes
            )

    def test_writes_are_bit_identical(self, tmp_path):
        _, _, path1 = checkpoint_roundtrip(tmp_path, worked_example_trace())
        session, plan, _ = checkpoint_roundtrip(tmp_path, worked_example_trace())
        path2 = tmp_path / "again.ckpt"
        write_checkpoint(session, plan, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAFILE" + b"\0" * 32)
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        _, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_payload_bytes_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAFILE" + b"\0" * 32)
        with pytest.raises(FormatError):
            payload_bytes(path)

    def test_payload_bytes_rejects_truncated_file(self, tmp_path):
        _, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        raw = path.read_bytes()
        for cut in (10, 24, len(raw) - 4):  # in the header, the manifest, the payload
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                payload_bytes(path)

    def test_invalid_stored_profile_rejected(self, tmp_path):
        _, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        manifest = read_manifest(path)
        manifest["cost_model"]["profile"]["bandwidth_bytes_per_s"] = "fast"
        write_manifest(path, manifest)
        with pytest.raises(FormatError):
            read_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda m: {},
        lambda m: [],
        without_code_ref,
        lambda m: {**m, "variables": {"x": "abc"}},
        with_unwritten_read,
    ], ids=["empty", "list", "no-code-ref", "non-integer-root", "unwritten-read"])
    def test_malformed_manifest_is_a_format_error(self, tmp_path, edit):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        write_manifest(path, edit(read_manifest(path)))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(path) in str(exc.value)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    def test_every_wrong_leaf_is_a_format_error_or_restores(self, tmp_path):
        # each manifest leaf of the worked example replaced by each wrong value:
        # either a FormatError (exit code 4) or a restore that verifies
        trace = worked_example_trace()
        session, _, path = checkpoint_roundtrip(tmp_path, trace)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        manifest = read_manifest(path)
        outcomes = Counter()
        for leaf in leaf_paths(manifest):
            for value in WRONG_VALUES:
                write_manifest(path, with_leaf(manifest, leaf, value))
                try:
                    result = restore(read_checkpoint(path), trace.programs())
                except FormatError:
                    outcomes["rejected"] += 1
                    assert main(["restore", str(path), "--trace", str(trace_path)]) == 4, (leaf, value)
                    continue
                assert verify(session.heap, result.session.heap).isomorphic, (leaf, value)
                outcomes["restored"] += 1
        assert outcomes["rejected"] > 100 and outcomes["restored"] > 100

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "plan": {**m["plan"], "rerun": m["plan"]["rerun"] + [99]}},
        lambda m: {**m, "plan": {**m["plan"], "migrate": m["plan"]["migrate"][1:]}},
        lambda m: {**m, "variables": {**m["variables"], "l1": 10**6}},
        lambda m: {**m, "variables": {**m["variables"], "l1": 1.0}},
        lambda m: with_leaf(m, ("history", "cells", 4, "writes"), []),
        lambda m: with_leaf(m, ("history", "cells", 0, "code_ref"), ["cell_1"]),
    ], ids=["rerun-unknown-cell", "migrate-not-variables", "root-not-in-payload",
            "float-root", "stored-without-active-snapshot", "code-ref-not-string"])
    def test_self_inconsistent_manifest_is_a_format_error(self, tmp_path, edit):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        write_manifest(path, edit(read_manifest(path)))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(path) in str(exc.value)

    # the worked example's payload holds objects 4 (container, slots 0 -> 5
    # and 1 -> 6), 5, 6, 7 and 8 (container, slot 0 -> 4), in that order;
    # a record starts with id (u64), kind (u8) and flags (u8)
    @pytest.mark.parametrize("edit", [
        lambda rs: [rs[0][:9] + bytes([0b010]) + rs[0][10:], *rs[1:]],
        lambda rs: [rs[0][:8] + bytes([_KIND_CODES["scalar"]]) + rs[0][9:], *rs[1:]],
        lambda rs: [*rs[:-1], rs[-1][:-8] + struct.pack("<Q", 99)],
        lambda rs: [*rs, replicator._encode_object(HeapObject(id=5, kind="scalar", value=30))],
    ], ids=["deserializable-not-serializable", "container-as-scalar", "dangling-slot",
            "duplicate-id"])
    def test_malformed_payload_is_a_format_error(self, tmp_path, edit):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        records = payload_records(path)
        write_payload(path, records)
        assert read_checkpoint(path).objects.keys() == {4, 5, 6, 7, 8}
        write_payload(path, edit(records))
        with pytest.raises(FormatError):
            read_checkpoint(path)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    def test_empty_migrate_set_has_empty_payload(self, tmp_path):
        session, _ = run_trace(worked_example_trace())
        plan = ReplicationPlan(migrate=set(), rerun=[1, 2, 3, 4, 5], cost_s=0.0)
        path = tmp_path / "rerun_all.ckpt"
        write_checkpoint(session, plan, path)
        assert payload_bytes(path) == 0
        assert read_checkpoint(path).objects == {}

    def test_shared_object_stored_once(self, tmp_path):
        session, plan, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        loaded = read_checkpoint(path)
        # l1's list object appears once even though big2d also reaches it
        expected = set()
        for name in plan.migrate:
            expected |= session.heap.reachable(name)
        assert set(loaded.objects) == expected

    def test_payload_count_matches_union_oracle(self, tmp_path):
        for seed in range(10):
            trace = generate_trace(GenParams(cells=8, variables=6, alias_density=0.5), seed)
            session, _ = run_trace(trace)
            plan = plan_session(session)
            path = tmp_path / f"s{seed}.ckpt"
            write_checkpoint(session, plan, path)
            union = set()
            for name in plan.migrate:
                union |= session.heap.reachable(name)
            assert set(read_checkpoint(path).objects) == union

    def test_unserializable_in_closure_fails_loudly(self, tmp_path):
        trace = TraceFile(
            profile=CostProfile(bandwidth_bytes_per_s=1.0),
            cells=[CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="opaque", size_bytes=8,
                       serializable=False, deserializable=False),
                HeapOp(op="bind", name="sock", id=1),
            ])],
        )
        session, _ = run_trace(trace)
        bogus = ReplicationPlan(migrate={"sock"}, rerun=[], cost_s=0.0)
        with pytest.raises(SerializationError):
            write_checkpoint(session, bogus, tmp_path / "bad.ckpt")


class TestRestore:
    def test_worked_example_round_trip(self, tmp_path):
        trace = worked_example_trace()
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        assert plan.migrate == {"l1", "big2d", "gen"}
        result = restore(read_checkpoint(path), trace.programs())
        restored = result.session.heap
        assert set(restored.namespace) == {"x", "y", "z", "l1", "gen", "big2d"}
        # y, z, x were rebuilt by rerunning t1..t3
        assert restored.objects[restored.namespace["x"]].value == 2
        assert restored.objects[restored.namespace["z"]].value == 11
        # the nested alias survived: big2d still wraps l1's actual object
        assert restored.objects[restored.namespace["big2d"]].slots["0"] == restored.namespace["l1"]
        report = verify(session.heap, restored)
        assert report.value_equivalent and report.isomorphic

    def test_migrate_everything_restores_identical_values(self, tmp_path):
        trace = worked_example_trace()
        session, _ = run_trace(trace)
        plan = plan_session(session, bandwidth=1e12)
        assert plan.migrate == set(session.history.active_snapshots())
        path = tmp_path / "all.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        assert result.session.heap.namespace.keys() == session.heap.namespace.keys()
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent and report.isomorphic

    def test_stored_copy_overwrites_rerun_output(self, tmp_path):
        # t3 recreates l1 during the rerun, but the checkpointed copy must win
        # so that big2d (declared from the payload) still aliases it
        trace = worked_example_trace()
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        assert session.history.active_snapshots()["l1"].t in plan.rerun
        result = restore(read_checkpoint(path), trace.programs())
        heap = result.session.heap
        l1_root = heap.namespace["l1"]
        assert heap.objects[heap.namespace["big2d"]].slots["0"] == l1_root
        # so the rerun-produced l1 object was dropped in favor of the payload copy
        assert result.id_map[4] == l1_root

    def test_rerun_observations_refresh_cost_model(self, tmp_path):
        trace = worked_example_trace()
        _, plan, path = checkpoint_roundtrip(tmp_path, trace)
        result = restore(read_checkpoint(path), trace.programs())
        for t in plan.rerun:
            assert result.session.cost.cell_runtimes[t] == trace.cells[t - 1].declared_runtime_s

    def test_missing_cell_program_reported(self, tmp_path):
        from statecut.errors import MissingCellProgram

        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        programs = trace.programs()
        del programs["cell_1"]
        with pytest.raises(MissingCellProgram):
            restore(read_checkpoint(path), programs)


class TestNondeterminism:
    def trace_with_nondet(self, annotate: bool) -> TraceFile:
        make = lambda value: [
            HeapOp(op="create", id=1, kind="scalar", value=value, size_bytes=8),
            HeapOp(op="bind", name="seeded", id=1),
        ]
        cells = [
            CellProgram(code_ref="roll", ops=make(41), alt_ops=make(977),
                        nondeterministic=True, declared_runtime_s=0.1),
            CellProgram(
                code_ref="derive", direct_reads={"seeded"},
                ops=[
                    HeapOp(op="create", id=2, kind="scalar", value=42, size_bytes=8),
                    HeapOp(op="bind", name="out", id=2),
                ],
                declared_runtime_s=5.0,
            ),
        ]
        annotations = {"seeded": "always_copy"} if annotate else {}
        return TraceFile(
            profile=CostProfile(bandwidth_bytes_per_s=1e9),
            cells=cells, variable_annotations=annotations,
        )

    def test_unannotated_nondet_rerun_diverges(self, tmp_path):
        trace = self.trace_with_nondet(annotate=False)
        session, _ = run_trace(trace)
        plan = ReplicationPlan(migrate=set(), rerun=[1, 2], cost_s=0.0)
        path = tmp_path / "nd.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert not report.value_equivalent  # the alternate roll leaked in

    def test_always_copy_defeats_the_hazard(self, tmp_path):
        trace = self.trace_with_nondet(annotate=True)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        assert "seeded" in plan.migrate
        path = tmp_path / "nd.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent and report.isomorphic
        assert result.session.heap.objects[result.session.heap.namespace["seeded"]].value == 41


def undeserializable_trace(chain_rerunnable: bool = True) -> TraceFile:
    """base feeds a plotting handle that serializes but cannot load back."""
    cells = [
        CellProgram(
            code_ref="base",
            ops=[
                HeapOp(op="create", id=1, kind="scalar", value=7, size_bytes=1000),
                HeapOp(op="bind", name="base", id=1),
            ],
            declared_runtime_s=0.5,
        ),
        CellProgram(
            code_ref="plot",
            direct_reads={"base"},
            ops=[
                HeapOp(op="create", id=2, kind="opaque", size_bytes=50,
                       serializable=True, deserializable=False),
                HeapOp(op="bind", name="figure", id=2),
            ],
            declared_runtime_s=0.5,
            never_rerun=not chain_rerunnable,
        ),
    ]
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e5), cells=cells)


class TestFallbackRecomputation:
    def test_undeserializable_variable_recovered_by_rerun(self, tmp_path):
        trace = undeserializable_trace()
        session, _ = run_trace(trace)
        # load looks finite at plan time, so the planner happily stores it
        plan = plan_session(session, bandwidth=1e9)
        assert "figure" in plan.migrate
        path = tmp_path / "f.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        assert result.fallback_recomputed == ["figure"]
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent and report.isomorphic

    def test_blocked_fallback_names_the_variable(self, tmp_path):
        trace = undeserializable_trace(chain_rerunnable=False)
        session, _ = run_trace(trace)
        plan = plan_session(session, bandwidth=1e9)
        assert plan.migrate == {"base", "figure"}
        path = tmp_path / "f.ckpt"
        write_checkpoint(session, plan, path)
        with pytest.raises(Unreconstructable) as exc:
            restore(read_checkpoint(path), trace.programs())
        assert exc.value.name == "figure"

    def test_recovery_moves_whole_linked_group(self, tmp_path):
        # inner object shared by two stored variables; one fails to load, so
        # both must come back through recomputation or the alias would split
        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=10),
                HeapOp(op="create", id=2, kind="scalar", value=5, size_bytes=10),
                HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
                HeapOp(op="bind", name="inner", id=1),
            ]),
            CellProgram(code_ref="c2", direct_reads={"inner"}, ops=[
                HeapOp(op="create", id=3, kind="container", size_bytes=10),
                HeapOp(op="set_slot", parent_id=3, slot="0", child_id=1),
                HeapOp(op="create", id=4, kind="opaque", size_bytes=10,
                       serializable=True, deserializable=False),
                HeapOp(op="set_slot", parent_id=3, slot="1", child_id=4),
                HeapOp(op="bind", name="outer", id=3),
            ]),
        ]
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e9), cells=cells)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        assert plan.migrate == {"inner", "outer"}
        path = tmp_path / "g.ckpt"
        write_checkpoint(session, plan, path)
        checkpoint = read_checkpoint(path)
        moved, extra = recovery_cells(checkpoint, {"outer"})
        assert moved == {"inner", "outer"}
        assert extra == [1, 2]
        result = restore(checkpoint, trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent and report.isomorphic

    def test_random_fault_injection_still_isomorphic(self, tmp_path):
        restored_with_fallback = 0
        for seed in range(40):
            trace = generate_trace(GenParams(
                cells=8, variables=5, alias_density=0.4, unserializable_rate=0.1,
            ), seed + 7000)
            session, _ = run_trace(trace)
            plan = plan_session(session)
            path = tmp_path / f"fi{seed}.ckpt"
            write_checkpoint(session, plan, path)
            rng = random.Random(seed)
            fault = lambda name: rng.random() < 0.1
            result = restore(read_checkpoint(path), trace.programs(),
                             deserialization_fault=fault)
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent and report.isomorphic, seed
            restored_with_fallback += bool(result.fallback_recomputed)
        assert restored_with_fallback >= 3


    def test_single_walk_fallbacks_on_random_sessions(self, tmp_path, monkeypatch):
        # oracle from the original heap: declaration order is (active-snapshot
        # t, name); a stored name fails when its closure holds an
        # undeserializable object or the fault fires, and takes every stored
        # name sharing objects with it (transitively) to recomputation
        heaps_built = []

        class CountingHeap(SimHeap):
            def __init__(self):
                super().__init__()
                heaps_built.append(self)

        monkeypatch.setattr(replicator, "SimHeap", CountingHeap)
        with_fallbacks = 0
        for seed in range(40):
            trace = generate_trace(GenParams(
                cells=30, variables=8, alias_density=0.6, unserializable_rate=0.1,
                undeserializable_rate=0.3, delete_rate=0.05,
            ), seed + 9000)
            session, _ = run_trace(trace)
            plan = plan_session(session)
            path = tmp_path / f"sw{seed}.ckpt"
            write_checkpoint(session, plan, path)

            heap = session.heap
            closures = {n: heap.reachable(n) for n in plan.migrate}
            groups = {n: {n} for n in closures}
            for a in sorted(closures):
                for b in sorted(closures):
                    if closures[a] & closures[b] and groups[a] is not groups[b]:
                        merged = groups[a] | groups[b]
                        for n in merged:
                            groups[n] = merged
            faulty = {n for n in closures if sum(map(ord, n)) % 3 == 0}
            active = session.history.active_snapshots()
            expected, moved = [], set()
            for name in sorted(closures, key=lambda n: (active[n].t, n)):
                broken = any(not heap.objects[o].deserializable for o in closures[name])
                if name not in moved and (broken or name in faulty):
                    expected.append(name)
                    moved |= groups[name]

            calls = Counter()

            def fault(name):
                calls[name] += 1
                return name in faulty

            heaps_built.clear()
            result = restore(read_checkpoint(path), trace.programs(),
                             deserialization_fault=fault)
            assert result.fallback_recomputed == expected, seed
            assert set(calls) <= plan.migrate and max(calls.values(), default=0) <= 1, seed
            assert len(heaps_built) == 1, seed
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent and report.isomorphic, seed
            with_fallbacks += len(expected) > 1
        assert with_fallbacks >= 10


class TestVerify:
    def test_identity_passes(self):
        session, _ = run_trace(worked_example_trace())
        report = verify(session.heap, session.heap)
        assert report.value_equivalent and report.isomorphic

    def test_per_variable_files_break_isomorphism(self, tmp_path):
        # restoring each variable from its own payload duplicates the shared
        # list: values still match, references do not
        trace = worked_example_trace()
        session, _ = run_trace(trace)
        plan = plan_session(session)
        path = tmp_path / "w.ckpt"
        write_checkpoint(session, plan, path)
        checkpoint = read_checkpoint(path)

        from statecut.replicator import _declare_variable, _replay_ops

        isolated = SimHeap()
        replay_map: dict[int, int] = {}
        for cell in trace.cells[:3]:  # rebuild x, y, z by replaying t1..t3
            _replay_ops(isolated, cell.ops, replay_map)
        for name in sorted(checkpoint.variables):
            private: dict[int, int] = {}
            _declare_variable(isolated, checkpoint, name, private, {})
        report = verify(session.heap, isolated)
        assert report.value_equivalent
        assert not report.isomorphic
        assert report.reference_violations

    def test_namespace_mismatch_listed(self):
        a, b = SimHeap(), SimHeap()
        a.apply([HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                 HeapOp(op="bind", name="x", id=1)])
        report = verify(a, b)
        assert not report.value_equivalent
        assert report.namespace_mismatch["only_original"] == ["x"]

    def test_value_difference_reported_with_path(self):
        a, b = SimHeap(), SimHeap()
        for heap, value in ((a, 1), (b, 2)):
            heap.apply([
                HeapOp(op="create", id=1, kind="container", size_bytes=8),
                HeapOp(op="create", id=2, kind="scalar", value=value, size_bytes=8),
                HeapOp(op="set_slot", parent_id=1, slot="k", child_id=2),
                HeapOp(op="bind", name="cfg", id=1),
            ])
        report = verify(a, b)
        assert not report.value_equivalent
        assert "cfg.k" in report.value_diffs


class TestAblations:
    def test_no_linked_splits_aliased_pair(self, tmp_path):
        # price the pair so the unconstrained optimum migrates big2d but
        # recomputes l1, splitting the alias across payload and rerun
        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=5),
                HeapOp(op="create", id=2, kind="scalar", value=3, size_bytes=5),
                HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
                HeapOp(op="bind", name="l1", id=1),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c2", direct_reads={"l1"}, ops=[
                HeapOp(op="create", id=3, kind="container", size_bytes=1),
                HeapOp(op="set_slot", parent_id=3, slot="0", child_id=1),
                HeapOp(op="bind", name="big2d", id=3),
            ], declared_runtime_s=50.0),
        ]
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells)
        session, _ = run_trace(trace)

        honest = plan_session(session)
        assert honest.migrate in ({"l1", "big2d"}, set())

        ablated = plan_session(session, ablate=("no-linked",))
        assert ablated.migrate == {"big2d"}  # constraint violated on purpose

        path = tmp_path / "ablate.ckpt"
        write_checkpoint(session, ablated, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent
        assert not report.isomorphic  # l1 and big2d[0] went separate ways

        # the honest plan keeps the alias
        path2 = tmp_path / "honest.ckpt"
        write_checkpoint(session, honest, path2)
        good = restore(read_checkpoint(path2), trace.programs())
        assert verify(session.heap, good.session.heap).isomorphic

    def test_no_idgraph_restores_value_incorrectly(self, tmp_path):
        # t2 swaps big2d's nested slot to a fresh value-equal list; hash-only
        # monitoring misses it, so the stale lineage replays t3's mutation
        # into the object big2d should no longer contain
        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="bind", name="list1", id=1),
                HeapOp(op="create", id=2, kind="container", size_bytes=8),
                HeapOp(op="set_slot", parent_id=2, slot="0", child_id=1),
                HeapOp(op="bind", name="big2d", id=2),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c2", direct_reads={"big2d"}, ops=[
                HeapOp(op="create", id=3, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="set_slot", parent_id=2, slot="0", child_id=3),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c3", direct_reads={"list1"}, ops=[
                HeapOp(op="set_value", id=1, value=9),
            ], declared_runtime_s=0.1),
        ]
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e-3), cells=cells)

        session, _ = run_trace(trace, ablate=("no-idgraph",))
        plan = plan_session(session)  # expensive storage: rerun everything
        assert plan.migrate == set()
        assert 2 not in plan.rerun  # the missed swap drops t2 from the lineage
        path = tmp_path / "noid.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert not report.value_equivalent  # big2d came back holding 9, not 1

        # full monitoring keeps t2 and restores correctly
        full_session, _ = run_trace(trace)
        full_plan = plan_session(full_session)
        path2 = tmp_path / "full.ckpt"
        write_checkpoint(full_session, full_plan, path2)
        good = restore(read_checkpoint(path2), trace.programs())
        good_report = verify(full_session.heap, good.session.heap)
        assert good_report.value_equivalent and good_report.isomorphic


class TestEndToEnd:
    def test_random_sessions_restore_isomorphic(self, tmp_path):
        from statecut.errors import Infeasible

        verified = 0
        for seed in range(60):
            trace = generate_trace(GenParams(
                cells=10, variables=6, alias_density=0.5,
                unserializable_rate=0.2, undeserializable_rate=0.1,
                never_rerun_rate=0.05, nondet_rate=0.1, delete_rate=0.08,
            ), seed + 3000)
            session, _ = run_trace(trace)
            try:
                plan = plan_session(session)
            except Infeasible:
                continue
            path = tmp_path / f"e2e{seed}.ckpt"
            write_checkpoint(session, plan, path)
            try:
                result = restore(read_checkpoint(path), trace.programs())
            except Unreconstructable:
                continue  # undeserializable variable behind a never-rerun cell
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent and report.isomorphic, seed
            verified += 1
        assert verified >= 40

    def test_false_positive_injection_never_breaks_restore(self, tmp_path):
        from statecut.cost import linked_pairs as lp
        from statecut.planner import build_flow_graph, min_cut_plan, session_cost_model

        for seed in range(30):
            trace = generate_trace(GenParams(
                cells=9, variables=5, alias_density=0.4,
            ), seed + 4000)
            session, _ = run_trace(trace)
            inject_false_edges(session.history, random.Random(seed), reads=4, writes=2)
            cost = session_cost_model(session)
            linked = lp(session.heap, session.history.active_snapshots())
            plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
            path = tmp_path / f"fp{seed}.ckpt"
            write_checkpoint(session, plan, path)
            result = restore(read_checkpoint(path), trace.programs())
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent and report.isomorphic, seed


class TestPayloadSize:
    def test_never_larger_than_copy_all(self, tmp_path):
        for seed in range(15):
            # copy-all must be writable, so keep everything serializable here
            trace = generate_trace(GenParams(
                cells=8, variables=6, alias_density=0.4, unserializable_rate=0.0,
            ), seed)
            session, _ = run_trace(trace)
            plan = plan_session(session)
            everything = ReplicationPlan(
                migrate=set(session.history.active_snapshots()), rerun=[], cost_s=0.0,
            )
            best, full = tmp_path / f"b{seed}.ckpt", tmp_path / f"f{seed}.ckpt"
            write_checkpoint(session, plan, best)
            write_checkpoint(session, everything, full)
            assert payload_bytes(best) <= payload_bytes(full)

    def test_derived_splits_halve_the_checkpoint(self, tmp_path):
        # a stored input with two big recomputable derivations: the planned
        # checkpoint holds the input only, less than half the copy-all bytes
        cells = [
            CellProgram(code_ref="load", ops=[
                HeapOp(op="create", id=1, kind="opaque", size_bytes=10**8),
                HeapOp(op="bind", name="frame", id=1),
            ], declared_runtime_s=500.0, never_rerun=False),
        ]
        split_ops = []
        next_id = 2
        for name in ("x_train", "x_test"):
            split_ops.append(HeapOp(op="create", id=next_id, kind="container", size_bytes=64))
            root = next_id
            next_id += 1
            for j in range(40):
                split_ops.append(HeapOp(
                    op="create", id=next_id, kind="scalar",
                    value="row-%03d" % j, size_bytes=3 * 10**7,
                ))
                split_ops.append(HeapOp(op="set_slot", parent_id=root, slot=f"r{j}",
                                        child_id=next_id))
                next_id += 1
            split_ops.append(HeapOp(op="bind", name=name, id=root))
        cells.append(CellProgram(
            code_ref="split", direct_reads={"frame"}, ops=split_ops,
            declared_runtime_s=2.0,
        ))
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e6), cells=cells)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        assert plan.migrate == {"frame"}
        planned, full = tmp_path / "planned.ckpt", tmp_path / "full.ckpt"
        write_checkpoint(session, plan, planned)
        write_checkpoint(session, ReplicationPlan(
            migrate=set(session.history.active_snapshots()), rerun=[], cost_s=0.0,
        ), full)
        assert payload_bytes(planned) <= 0.5 * payload_bytes(full)


class TestCyclicGraphs:
    def test_cycle_survives_checkpoint_and_restore(self, tmp_path):
        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=16),
                HeapOp(op="create", id=2, kind="container", size_bytes=16),
                HeapOp(op="create", id=3, kind="scalar", value=5, size_bytes=8),
                HeapOp(op="set_slot", parent_id=1, slot="next", child_id=2),
                HeapOp(op="set_slot", parent_id=2, slot="prev", child_id=1),
                HeapOp(op="set_slot", parent_id=2, slot="payload", child_id=3),
                HeapOp(op="bind", name="ring", id=1),
            ], declared_runtime_s=100.0),
        ]
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e9), cells=cells)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        assert plan.migrate == {"ring"}
        path = tmp_path / "ring.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        heap = result.session.heap
        root = heap.namespace["ring"]
        other = heap.objects[root].slots["next"]
        assert heap.objects[other].slots["prev"] == root  # cycle intact
        report = verify(session.heap, heap)
        assert report.value_equivalent and report.isomorphic


class TestRecheckpoint:
    def test_manifest_identical_modulo_id_remap(self, tmp_path):
        trace = worked_example_trace()
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        checkpoint = read_checkpoint(path)
        result = restore(checkpoint, trace.programs())

        again = tmp_path / "again.ckpt"
        write_checkpoint(result.session, plan, again)
        second = read_checkpoint(again)

        assert second.plan.to_json() == checkpoint.plan.to_json()
        assert second.history.to_manifest() == checkpoint.history.to_manifest()
        assert second.variables.keys() == checkpoint.variables.keys()
        for name, old_root in checkpoint.variables.items():
            assert second.variables[name] == result.id_map[old_root]
        # payload records agree object-for-object once ids are remapped
        assert len(second.objects) == len(checkpoint.objects)
        for old_id, rec in checkpoint.objects.items():
            new_rec = second.objects[result.id_map[old_id]]
            assert new_rec.kind == rec.kind
            assert new_rec.value == rec.value
            assert new_rec.size_bytes == rec.size_bytes
            assert list(new_rec.slots) == list(rec.slots)
            for label, child in rec.slots.items():
                assert new_rec.slots[label] == result.id_map[child]

    def test_bit_identical_across_hash_seeds(self, tmp_path):
        script = (
            "import hashlib, sys\n"
            "from statecut import GenParams, generate_trace, plan_session, run_trace, write_checkpoint\n"
            "params = GenParams(cells=120, variables=20, alias_density=0.8,\n"
            "                   unserializable_rate=0.05, delete_rate=0.02, bandwidth_bytes_per_s=1e4)\n"
            "for seed in (6, 7, 14):\n"
            "    session, _ = run_trace(generate_trace(params, seed))\n"
            "    path = f'{sys.argv[1]}/{seed}.ckpt'\n"
            "    write_checkpoint(session, plan_session(session), path)\n"
            "    print(seed, hashlib.sha256(open(path, 'rb').read()).hexdigest())\n"
        )
        src = str(Path(statecut.__file__).resolve().parents[1])
        digests = []
        for hash_seed in ("0", "2"):
            out = tmp_path / hash_seed
            out.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                                 capture_output=True, text=True, timeout=300, check=True)
            digests.append(run.stdout.split("\n"))
        assert digests[0] == digests[1]

    def test_identical_heaps_give_bit_exact_payloads(self, tmp_path):
        trace = worked_example_trace()
        p1 = checkpoint_roundtrip(tmp_path, trace)[2]
        session, plan, _ = checkpoint_roundtrip(tmp_path, trace)
        p2 = tmp_path / "twin.ckpt"
        write_checkpoint(session, plan, p2)
        raw1, raw2 = p1.read_bytes(), p2.read_bytes()
        assert raw1 == raw2
