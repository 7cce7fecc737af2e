import gc
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import statecut
from statecut import cost, replicator
from statecut import heap as heap_module
from statecut.cli import main
from statecut.cost import CostProfile, linked_pairs
from statecut.errors import (
    FormatError, Infeasible, MissingCellProgram, SerializationError, StatecutError, Unreconstructable,
)
from statecut.gen import GenParams, generate_trace, inject_false_edges
from statecut.heap import HeapObject, HeapOp, NameIndex, SimHeap, reachable_ids
from statecut.monitor import CellProgram, current_index, run_cell
from statecut.planner import ReplicationPlan, plan_session
from statecut.replicator import (
    payload_bytes,
    read_checkpoint,
    recovery_cells,
    restore,
    verify,
    write_checkpoint,
)
from statecut.trace import (
    TraceFile, load_trace, new_session, run_trace, save_trace, trace_from_json, trace_to_json,
)

from documents import WRONG_VALUES, leaf_paths, read_manifest, seal, with_leaf, write_manifest
from sessions import (
    aliased_pair_trace,
    hash_only_session,
    link_blind_plan,
    record_cell,
    reference_swap_trace,
    with_failing_cells,
    worked_example_trace,
    write_split_by_hand,
)


CHECKPOINT_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "checkpoint.schema.json").read_text())
# the message of a field that breaks its type rule: its path, then "invalid"
TYPE_RULE_ERROR = re.compile(r"\(FormatError: ([\w.\[\]]+): invalid ")


def field_path(leaf: tuple) -> str:
    """A leaf's path as the reader names it, e.g. history.cells[3].runtime_s."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in leaf).lstrip(".")


def payload_records(path) -> list:
    """A checkpoint's payload records, in file order."""
    raw = path.read_bytes()
    manifest_end = 20 + int.from_bytes(raw[12:20], "little")
    return json.loads(b"[" + raw[manifest_end + 8:-replicator.DIGEST_BYTES] + b"]")


def write_payload(path, records) -> None:
    """Swap a checkpoint's payload section for ``records`` (a list of records,
    or the section's raw bytes), keeping a correct header and digest."""
    if not isinstance(records, bytes):
        records = json.dumps(records, separators=(",", ":")).encode()[1:-1]
    raw = path.read_bytes()
    manifest_end = 20 + int.from_bytes(raw[12:20], "little")
    seal(path, raw[:manifest_end] + len(records).to_bytes(8, "little") + records)


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
        assert loaded.profile == session.profile
        assert [c.runtime_s for c in loaded.history.cells.values()] == [
            c.runtime_s for c in session.history.cells.values()
        ]
        for oid, rec in loaded.objects.items():
            original = session.heap.objects[oid]
            assert (rec.kind, rec.value, rec.slots, rec.size_bytes) == (
                original.kind, original.value, original.slots, original.size_bytes
            )

    def test_store_bandwidth_survives_the_trace_and_the_checkpoint(self, tmp_path):
        trace = worked_example_trace()
        trace = replace(trace, profile=replace(trace.profile, store_bandwidth_bytes_per_s=0.5))
        save_trace(trace, tmp_path / "trace.json")
        loaded = load_trace(tmp_path / "trace.json")
        assert loaded.profile == trace.profile
        session, plan, path = checkpoint_roundtrip(tmp_path, loaded)
        assert plan == plan_session(run_trace(trace)[0])
        # the slower store prices the stored variables higher
        assert plan.cost_s > plan_session(run_trace(worked_example_trace())[0]).cost_s
        checkpoint = read_checkpoint(path)
        assert checkpoint.profile == session.profile == trace.profile
        assert checkpoint.plan == plan

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
        for cut in (10, 24, len(raw) - 4):  # in the header, the manifest, the digest
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                payload_bytes(path)

    def test_invalid_stored_profile_rejected(self, tmp_path):
        _, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        manifest = read_manifest(path)
        manifest["profile"]["bandwidth_bytes_per_s"] = "fast"
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
        # the reader type- and range-checks each cell's t, runtime and flags,
        # the plan's and the profile's numbers and the next timestamp, so most
        # damaged leaves are rejected; an in-range number (a runtime or the
        # plan's cost of 1.5) or a flag's True still restores (38 of 480), but
        # not a True that marks a cell the restore reruns as not rerunnable
        assert outcomes["rejected"] > 300 and outcomes["restored"] > 35

    @pytest.mark.parametrize("make, bandwidth", [
        (worked_example_trace, None),
        # four live cells: a tombstone (v2) and two failed cells that the plan reruns
        (lambda: with_failing_cells(generate_trace(GenParams(cells=8, variables=5, delete_rate=0.3), 108),
                                    random.Random(108), 0.3), 100.0),
    ], ids=["worked-example", "tombstone-and-failed-cells"])
    def test_wrong_typed_manifest_leaf_is_a_type_error_iff_schema_invalid(self, tmp_path, make, bandwidth):
        # each manifest leaf replaced by each wrong value: a FormatError that
        # names the leaf's field as breaking its type rule exactly when the
        # published schema rejects the manifest; otherwise a restore that
        # verifies, or a FormatError of a rule that relates fields
        validator = jsonschema.Draft7Validator(CHECKPOINT_SCHEMA)
        record_validator = jsonschema.Draft7Validator(
            {**CHECKPOINT_SCHEMA["definitions"]["record"], "definitions": CHECKPOINT_SCHEMA["definitions"]})
        trace = make()
        session, _, path = checkpoint_roundtrip(tmp_path, trace, bandwidth=bandwidth)
        manifest = read_manifest(path)
        assert validator.is_valid(manifest)
        assert all(map(record_validator.is_valid, payload_records(path)))
        history = manifest["history"]
        assert bandwidth is None or history["deleted"] and any("failed_at" in c for c in history["cells"])
        outcomes = Counter()
        for leaf in leaf_paths(manifest):
            field = field_path(leaf)
            for value in WRONG_VALUES:
                doc = with_leaf(manifest, leaf, value)
                write_manifest(path, doc)
                try:
                    result = restore(read_checkpoint(path), trace.programs())
                except FormatError as err:
                    match = TYPE_RULE_ERROR.search(str(err))
                    named = match is not None and re.match(re.escape(match[1]) + r"($|[.\[])", field)
                    assert bool(named) == (not validator.is_valid(doc)), (field, value, str(err))
                    outcomes["type" if named else "semantic"] += 1
                    continue
                assert validator.is_valid(doc), (field, value)
                assert verify(session.heap, result.session.heap).isomorphic, (field, value)
                outcomes["restored"] += 1
        assert outcomes["type"] and outcomes["semantic"] and outcomes["restored"], outcomes

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "plan": {**m["plan"], "rerun": m["plan"]["rerun"] + [99]}},
        lambda m: {**m, "plan": {**m["plan"], "migrate": m["plan"]["migrate"][1:]}},
        lambda m: {**m, "variables": {**m["variables"], "l1": 10**6}},
        lambda m: {**m, "variables": {**m["variables"], "l1": 1.0}},
        lambda m: with_leaf(m, ("history", "cells", 4, "writes"), []),
        lambda m: with_leaf(m, ("history", "cells", 0, "code_ref"), ["cell_1"]),
        lambda m: with_leaf(m, ("history", "cells", 0, "failed_at"), -1),
        lambda m: with_leaf(m, ("history", "cells", 0, "failed_at"), "x"),
        lambda m: with_leaf(m, ("history", "cells", 0, "t"), 1.0),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), "x"),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), -1),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), math.inf),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), math.nan),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), True),
        lambda m: with_leaf(m, ("history", "cells", 0, "never_rerun"), 0),
        lambda m: with_leaf(m, ("history", "cells", 0, "nondeterministic"), "yes"),
        lambda m: with_leaf(m, ("history", "next_t"), "6"),
        lambda m: with_leaf(m, ("history", "next_t"), True),
        lambda m: with_leaf(m, ("history", "next_t"), 5),
        lambda m: with_leaf(m, ("history", "deleted"), {"x": 6}),
        lambda m: with_leaf(m, ("history", "deleted"), {**m["history"]["deleted"], "x": 1}),
        lambda m: with_leaf(m, ("history", "cells", 0, "writes"),
                            m["history"]["cells"][0]["writes"] + [7]),
        lambda m: with_leaf(m, ("history", "cells", 2, "reads", 0, 1), 1.0),
        lambda m: {**m, "annotations": {"l1": "bogus"}},
        lambda m: {**m, "annotations": {"v0": 5}},
        lambda m: {**m, "plan": {k: v for k, v in m["plan"].items() if k != "alpha"}},
        lambda m: {**m, "plan": {k: v for k, v in m["plan"].items() if k != "bandwidth"}},
        lambda m: {**m, "profile": {**m["profile"], "alpha": math.inf}},  # JSON Infinity
        lambda m: with_leaf(m, ("plan", "cost_s"), "x"),
        lambda m: with_leaf(m, ("plan", "cost_s"), math.nan),
        lambda m: with_leaf(m, ("plan", "cost_s"), -1),
        lambda m: with_leaf(m, ("plan", "alpha"), "x"),
        lambda m: with_leaf(m, ("plan", "bandwidth"), [1]),
        lambda m: with_leaf(m, ("plan", "bandwidth"), 0),
        lambda m: with_leaf(m, ("plan", "migrate"), dict.fromkeys(m["plan"]["migrate"], 1)),
        lambda m: with_leaf(m, ("plan", "rerun"), m["plan"]["rerun"][::-1]),
        lambda m: with_leaf(m, ("plan", "rerun"), m["plan"]["rerun"][:1] + m["plan"]["rerun"]),
        lambda m: with_leaf(m, ("history", "cells", 0, "comment"), "x"),
        lambda m: {**m, "variables": [[name, oid] for name, oid in m["variables"].items()]},
        lambda m: with_leaf(m, ("history", "deleted"), [["y", 5]]),
        lambda m: with_leaf(m, ("history", "cells", 0, "runtime_s"), 10**400),
        lambda m: with_leaf(m, ("history", "recorded_cells"), len(m["history"]["cells"]) - 1),
    ], ids=["rerun-unknown-cell", "migrate-not-variables", "root-not-in-payload",
            "float-root", "stored-without-active-snapshot", "code-ref-not-string",
            "failed-at-negative", "failing-op-not-an-int", "float-t", "runtime-string",
            "runtime-negative", "runtime-infinite", "runtime-nan", "runtime-bool",
            "never-rerun-int", "nondeterministic-string", "next-t-string", "next-t-bool",
            "next-t-not-after-last-cell", "next-t-not-after-tombstone", "stale-tombstone",
            "write-not-a-string", "read-t-not-an-int", "annotation-unknown",
            "annotation-not-a-string", "plan-without-alpha", "plan-without-bandwidth",
            "profile-alpha-infinite", "plan-cost-string", "plan-cost-nan", "plan-cost-negative",
            "plan-alpha-string", "plan-bandwidth-list", "plan-bandwidth-zero",
            "plan-migrate-object", "plan-rerun-unsorted", "plan-rerun-duplicate",
            "cell-unknown-key", "variables-list-of-pairs", "deleted-list-of-pairs",
            "runtime-past-float", "fewer-recorded-than-listed"])
    def test_self_inconsistent_manifest_is_a_format_error(self, tmp_path, edit):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        write_manifest(path, edit(read_manifest(path)))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(path) in str(exc.value)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    # the worked example's payload holds objects 4 (container, slots "0" -> 5
    # and "1" -> 6), 5, 6, 7 and 8 (container, slot "0" -> 4), in that order;
    # a record is [id, kind, flags, size_bytes, value, label1, child1, ...]
    @pytest.mark.parametrize("edit", [
        lambda rs: [[4, "container", 0b010, *rs[0][3:]], *rs[1:]],
        lambda rs: [[4, "scalar", *rs[0][2:]], *rs[1:]],
        lambda rs: [*rs[:-1], [*rs[-1][:-1], 99]],
        lambda rs: [*rs, [5, "scalar", 7, 0, 30]],
        lambda rs: b"[4,",
        lambda rs: b"[5," + b"[" * 100_000 + b"]" * 100_000 + b"]",
        lambda rs: [rs[0], {"id": 5}, *rs[2:]],
        lambda rs: [rs[0], [*rs[1], "extra"], *rs[2:]],
        lambda rs: [rs[0], [5, "scalar", 7], *rs[2:]],
        lambda rs: [rs[0], [True, *rs[1][1:]], *rs[2:]],
        lambda rs: [rs[0], [2**64, *rs[1][1:]], *rs[2:]],
        lambda rs: [rs[0], [5, "bogus", *rs[1][2:]], *rs[2:]],
        lambda rs: [rs[0], [5, "scalar", 7, -1, 3], *rs[2:]],
        lambda rs: [[*rs[0][:5], 0, 5, "1", 6], *rs[1:]],
        lambda rs: [[*rs[0][:5], "0", 5, "0", 6], *rs[1:]],
        lambda rs: [[*rs[0][:5], "0", 5.0, "1", 6], *rs[1:]],
        lambda rs: [rs[0], [5, "scalar", 8, 0, 3], *rs[2:]],
        lambda rs: [rs[0], [5, "scalar", -1, 0, 3], *rs[2:]],
        lambda rs: [rs[0], [5, "scalar", True, 0, 3], *rs[2:]],
    ], ids=["deserializable-not-serializable", "container-as-scalar", "dangling-slot",
            "duplicate-id", "not-json", "nested-too-deep", "record-not-a-list",
            "even-length-record", "short-record", "bool-id", "id-past-u64", "unknown-kind",
            "negative-size", "label-not-a-string", "label-twice", "float-child",
            "flags-past-7", "flags-negative", "flags-bool"])
    def test_malformed_payload_is_a_format_error(self, tmp_path, edit):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        records = payload_records(path)
        write_payload(path, records)
        assert read_checkpoint(path).objects.keys() == {4, 5, 6, 7, 8}
        write_payload(path, edit(records))
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert str(path) in str(exc.value)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    @staticmethod
    def check_old_version_is_a_format_error(tmp_path, version):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", version) + raw[12:])
        with pytest.raises(FormatError, match=f"version {version}"):
            read_checkpoint(path)
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    def test_version_1_file_is_a_format_error(self, tmp_path):
        self.check_old_version_is_a_format_error(tmp_path, 1)

    def test_version_2_file_is_a_format_error(self, tmp_path):
        # version 2 stored the whole lineage and no next timestamp
        self.check_old_version_is_a_format_error(tmp_path, 2)

    def test_version_4_file_is_a_format_error(self, tmp_path):
        # version 4 stored binary payload records
        self.check_old_version_is_a_format_error(tmp_path, 4)

    def test_version_5_file_is_a_format_error(self, tmp_path):
        # version 5 kept the next timestamp outside the lineage and refused
        # an infinite plan cost
        self.check_old_version_is_a_format_error(tmp_path, 5)

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        session, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        rerun_all = ReplicationPlan(migrate=set(), rerun=[1, 2, 3, 4, 5], cost_s=0.0)
        with pytest.raises(OSError, match="replace refused"):
            write_checkpoint(session, rerun_all, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_any_bit_flip_or_truncation_is_a_format_error(self, tmp_path_factory, seed, data):
        trace = generate_trace(GenParams(cells=10, variables=5, alias_density=0.4), seed)
        session, _ = run_trace(trace)
        directory = tmp_path_factory.mktemp("damaged")
        path, trace_path = directory / "c.ckpt", directory / "trace.json"
        write_checkpoint(session, plan_session(session), path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            raw[bit // 8] ^= 1 << (bit % 8)
        else:
            del raw[data.draw(st.integers(0, len(raw) - 1), label="length"):]
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_checkpoint(path)
        save_trace(trace, trace_path)
        assert main(["restore", str(path), "--trace", str(trace_path)]) == 4

    def test_payload_round_trips_every_json_value_kind(self, tmp_path):
        values = ["h\u00e9llo \u2713 \u65e5\u672c", {"b": 1, "a": [1, {"z": None, "y": True}]},
                  [[1, [2, [3]]], []], -0.0, 1e308, 2**64 + 5, -(2**70), None, True, False, math.nan]
        ops = [HeapOp(op="create", id=len(values) + 1, kind="container", size_bytes=8)]
        for i, value in enumerate(values, 1):
            ops += [HeapOp(op="create", id=i, kind="scalar", value=value, size_bytes=8),
                    HeapOp(op="bind", name=f"v{i}", id=i),
                    HeapOp(op="set_slot", parent_id=len(values) + 1, slot=f"\u043a\u043b\u044e\u0447{i}", child_id=i)]
        ops.append(HeapOp(op="bind", name="all", id=len(values) + 1))
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0),
                          cells=[CellProgram(code_ref="c1", ops=ops)])
        session, _ = run_trace(trace)
        store_all = ReplicationPlan(migrate=set(session.heap.namespace), rerun=[], cost_s=0.0)
        path, again = tmp_path / "values.ckpt", tmp_path / "again.ckpt"
        write_checkpoint(session, store_all, path)
        write_checkpoint(session, store_all, again)
        assert path.read_bytes() == again.read_bytes()
        checkpoint = read_checkpoint(path)
        assert {checkpoint.objects[i].value == values[i - 1] for i in range(1, 11)} == {True}
        assert math.isnan(checkpoint.objects[11].value)
        assert math.copysign(1, checkpoint.objects[4].value) == -1
        result = restore(checkpoint, trace.programs())
        assert verify(session.heap, result.session.heap).isomorphic

    def test_empty_migrate_set_has_empty_payload(self, tmp_path):
        session, _ = run_trace(worked_example_trace())
        plan = ReplicationPlan(migrate=set(), rerun=[1, 2, 3, 4, 5], cost_s=0.0)
        path = tmp_path / "rerun_all.ckpt"
        write_checkpoint(session, plan, path)
        assert payload_bytes(path) == 0
        assert read_checkpoint(path).objects == {}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_read_and_restore_leave_the_collector_as_found(self, tmp_path, enabled):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        damaged = tmp_path / "damaged.ckpt"
        damaged.write_bytes(path.read_bytes()[:-1])
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            restore(read_checkpoint(path), trace.programs())
            assert gc.isenabled() is enabled
            with pytest.raises(FormatError):
                read_checkpoint(damaged)
            assert gc.isenabled() is enabled
            with pytest.raises(MissingCellProgram):
                restore(read_checkpoint(path), {})
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_payload_range_edges_are_accepted(self, tmp_path):
        # ids and sizes at 0 and 2**64 - 1 and flags at 0 and 7 are in range
        top = 2**64 - 1
        trace = worked_example_trace()
        session, _, path = checkpoint_roundtrip(tmp_path, trace)
        records = payload_records(path)
        edges = [[0, "scalar", 0, 0, 1], [top, "opaque", 7, top, None],
                 [9, "container", 7, top, None, "a", 0, "b", top]]
        write_payload(path, records + edges)
        objects = read_checkpoint(path).objects
        assert objects[0] == HeapObject(0, "scalar", 1, {}, 0, False, False, False)
        assert objects[top] == HeapObject(top, "opaque", None, {}, top, True, True, True)
        assert objects[9].slots == {"a": 0, "b": top} and objects[9].size_bytes == top
        result = restore(read_checkpoint(path), trace.programs())
        assert verify(session.heap, result.session.heap).isomorphic

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

    def test_plan_that_reruns_a_dropped_cell_is_refused_before_writing(self, tmp_path):
        # the plan reruns cell 4, which only gen's snapshot kept live; a cell
        # run after planning unbinds gen, so the lineage drops cell 4 and the
        # reader would refuse the file
        session, _ = run_trace(worked_example_trace())
        plan = plan_session(session, bandwidth=1e-3)
        assert 4 in plan.rerun
        record_cell(session, CellProgram(code_ref="drop_gen", ops=[HeapOp(op="unbind", name="gen")]))
        assert 4 not in session.history.cells
        path = tmp_path / "stale.ckpt"
        with pytest.raises(FormatError, match="does not record"):
            write_checkpoint(session, plan, path)
        assert list(tmp_path.iterdir()) == []


def fresh_cell(session) -> CellProgram:
    """A cell that binds ``fresh`` to a new scalar in ``session``'s heap."""
    oid = 1 + max(session.heap.objects, default=0)
    return CellProgram(code_ref="fresh", ops=[
        HeapOp(op="create", id=oid, kind="scalar", value=1, size_bytes=8),
        HeapOp(op="bind", name="fresh", id=oid),
    ])


def live_view(history) -> dict:
    """What a lineage's manifest keeps of it: its live cells with their
    edges, references and totals, the last live write of each name and the
    tombstones of the names live cells write."""
    latest = {vs.name: vs for t in sorted(history.writes) for vs in history.writes[t]}
    return {
        **{key: getattr(history, key) for key in ("cells", "reads", "writes", "refs", "next_t",
                                                  "recorded_cells", "recorded_rerun_s")},
        "latest": latest,
        "deleted": {name: t for name, t in history.deleted.items() if name in latest},
    }


class TestReaderEquivalence:
    def test_read_back_lineage_and_objects_equal_the_written(self, tmp_path):
        # random sessions with failed cells, tombstones and cyclic payloads
        seen = Counter()
        for seed in range(80):
            trace = with_failing_cells(generate_trace(GenParams(
                cells=25, variables=6, alias_density=0.6, unserializable_rate=0.1, delete_rate=0.2,
            ), seed), random.Random(seed), 0.2)
            session, _ = run_trace(trace)
            heap = session.heap
            containers = sorted(oid for oid in heap.namespace.values() if heap.objects[oid].kind == "container")
            if containers:  # the generator seldom closes a cycle: close one
                run_cell(session, CellProgram(code_ref="cycle", ops=[
                    HeapOp(op="set_slot", parent_id=containers[0], slot="back", child_id=containers[0])]))
            try:
                plan = plan_session(session)
            except Infeasible:
                continue
            path = tmp_path / f"eq{seed}.ckpt"
            written = write_checkpoint(session, plan, path)
            checkpoint = read_checkpoint(path)
            history = checkpoint.history
            assert live_view(history) == live_view(session.history), seed
            # the reader's own lineage is already what a manifest keeps
            assert vars(history) == live_view(history), seed
            assert history.active_snapshots() == session.history.active_snapshots(), seed
            assert checkpoint.objects == written.objects, seed
            assert written.objects == {oid: session.heap.objects[oid] for oid in set().union(
                *(session.heap.reachable(name) for name in plan.migrate))}, seed
            objects = checkpoint.objects
            seen["failed"] += any(cell.failed for cell in history.cells.values())
            seen["tombstone"] += bool(history.deleted)
            seen["cycle"] += any(oid in reachable_ids(objects, child)
                                 for oid, obj in objects.items() for child in obj.slots.values())
        assert min(seen["failed"], seen["tombstone"], seen["cycle"]) >= 5, seen


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
        # so the rerun-produced l1 object was dropped in favor of the payload
        # copy, which keeps its recorded id
        assert l1_root == 4

    def test_restored_lineage_keeps_rerun_runtimes(self, tmp_path):
        trace = worked_example_trace()
        _, plan, path = checkpoint_roundtrip(tmp_path, trace)
        result = restore(read_checkpoint(path), trace.programs())
        for t in plan.rerun:
            assert result.session.history.cells[t].runtime_s == trace.cells[t - 1].declared_runtime_s

    def test_linking_an_undeclared_name_s_object_reads_that_name(self, tmp_path):
        # c3 declares only v0 but puts v2's object in a slot: it read v2, so
        # rebuilding v0 must rerun c2's change to that object
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e-3), cells=[
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="bind", name="v2", id=1),
                HeapOp(op="create", id=2, kind="scalar", value=0, size_bytes=8),
                HeapOp(op="bind", name="v0", id=2),
            ]),
            CellProgram(code_ref="c2", direct_reads={"v2"}, ops=[
                HeapOp(op="set_value", id=1, value=2),
            ]),
            CellProgram(code_ref="c3", direct_reads={"v0"}, ops=[
                HeapOp(op="unbind", name="v2"),
                HeapOp(op="create", id=3, kind="container", size_bytes=8),
                HeapOp(op="set_slot", parent_id=3, slot="s0", child_id=1),
                HeapOp(op="bind", name="v0", id=3),
            ]),
        ])
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        assert plan.rerun == [1, 2, 3]
        result = restore(read_checkpoint(path), trace.programs())
        assert verify(session.heap, result.session.heap).isomorphic

    def test_two_restores_of_one_checkpoint_record_apart(self, tmp_path):
        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        checkpoint = read_checkpoint(path)
        first, second = (restore(checkpoint, trace.programs()).session for _ in range(2))
        before = second.history.next_t, second.history.active_snapshots()
        record_cell(first, fresh_cell(first))
        assert "fresh" in first.history.active_snapshots()
        assert (second.history.next_t, second.history.active_snapshots()) == before

    def test_restoring_the_written_checkpoint_leaves_the_session_s_lineage(self, tmp_path):
        trace = worked_example_trace()
        session, _ = run_trace(trace)
        checkpoint = write_checkpoint(session, plan_session(session), tmp_path / "c.ckpt")
        before = session.history.to_manifest()
        restored = restore(checkpoint, trace.programs()).session
        record_cell(restored, fresh_cell(restored))
        assert session.history.to_manifest() == before

    def test_missing_cell_program_reported(self, tmp_path):
        from statecut.errors import MissingCellProgram

        trace = worked_example_trace()
        _, _, path = checkpoint_roundtrip(tmp_path, trace)
        programs = trace.programs()
        del programs["cell_1"]
        with pytest.raises(MissingCellProgram):
            restore(read_checkpoint(path), programs)


class TestNondeterminism:
    def trace_with_nondet(self, annotate: bool, bandwidth: float = 1e9) -> TraceFile:
        cells = [
            CellProgram(
                code_ref="roll", nondeterministic=True, declared_runtime_s=0.1,
                ops=[
                    HeapOp(op="create", id=1, kind="scalar", value=41, size_bytes=8),
                    HeapOp(op="bind", name="seeded", id=1),
                ],
            ),
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
            profile=CostProfile(bandwidth_bytes_per_s=bandwidth),
            cells=cells, variable_annotations=annotations,
        )

    def test_unannotated_nondet_output_migrates(self, tmp_path):
        # storing the roll's 8 bytes takes 16 s at 1 B/s, rerunning it 0.1 s,
        # but a rerun would roll again: its output is stored
        trace = self.trace_with_nondet(annotate=False, bandwidth=1.0)
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        assert (plan.migrate, plan.rerun) == ({"seeded"}, [2])
        result = restore(read_checkpoint(path), trace.programs())
        assert verify(session.heap, result.session.heap).isomorphic

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

    def test_no_plan_reruns_a_cell_a_rerun_cannot_reproduce(self, tmp_path):
        params = GenParams(cells=20, variables=5, alias_density=0.3, nondet_rate=0.2,
                           bandwidth_bytes_per_s=1e2)
        path = tmp_path / "c.ckpt"
        restored = unreproducible_live = 0
        for seed in range(200):
            trace = generate_trace(params, seed)
            trace.variable_annotations.clear()  # no always_copy to fall back on
            session, _ = run_trace(trace)
            try:
                plan = plan_session(session)
            except Infeasible:
                continue
            cells = session.history.cells
            unreproducible_live += any(c.never_rerun or c.nondeterministic for c in cells.values())
            assert not [t for t in plan.rerun if cells[t].never_rerun or cells[t].nondeterministic], seed
            write_checkpoint(session, plan, path)
            result = restore(read_checkpoint(path), trace.programs())
            assert verify(session.heap, result.session.heap).isomorphic, seed
            restored += 1
        assert restored > 190 and unreproducible_live > 100, (restored, unreproducible_live)


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
        groups = replicator._groups(checkpoint.variables, NameIndex(checkpoint.objects, checkpoint.variables))
        moved, extra = recovery_cells(checkpoint, {"outer"}, groups)
        assert moved == {"inner", "outer"}
        assert extra == [1, 2]
        result = restore(checkpoint, trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent and report.isomorphic

    def test_random_fault_injection_still_isomorphic(self, tmp_path):
        # a fallback through a nondeterministic cell cannot reproduce the
        # stored value, so with such cells a restore may end Unreconstructable
        nondet = GenParams(
            cells=30, variables=6, alias_density=0.4, unserializable_rate=0.1,
            undeserializable_rate=0.2, never_rerun_rate=0.1, nondet_rate=0.1, delete_rate=0.15,
        )
        cases = [(GenParams(cells=8, variables=5, alias_density=0.4, unserializable_rate=0.1),
                  seed + 7000, None) for seed in range(40)]
        cases += [(nondet, seed + 7100, None) for seed in range(20)]
        # v0's fallback runs through the nondeterministic cell at t=19
        cases.append((nondet, 0, {"v0"}))
        restored_with_fallback = blocked = 0
        for i, (params, seed, faulty) in enumerate(cases):
            trace = generate_trace(params, seed)
            session, _ = run_trace(trace)
            try:
                plan = plan_session(session)
            except Infeasible:
                continue  # an unserializable value behind a never-rerun cell
            path = tmp_path / f"fi{i}.ckpt"
            write_checkpoint(session, plan, path)
            rng = random.Random(i)
            fault = (lambda name: rng.random() < 0.1) if faulty is None else faulty.__contains__
            try:
                result = restore(read_checkpoint(path), trace.programs(),
                                 deserialization_fault=fault)
            except Unreconstructable:
                assert params.nondet_rate or params.never_rerun_rate, (params, seed)
                blocked += 1
                continue
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent and report.isomorphic, (params, seed)
            restored_with_fallback += bool(result.fallback_recomputed)
        assert restored_with_fallback >= 3 and blocked >= 1


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


class TestRestoreWork:
    # restore walks each stored closure once, through the payload's name
    # index, and ties linked groups with one union-find over that index

    def test_restore_walks_each_stored_closure_once(self, tmp_path, monkeypatch):
        walks = Counter()
        sweeping = []
        walk, sweep = heap_module.reachable_ids, SimHeap.collect_garbage

        def counted_walk(objects, root):
            walks["sweep" if sweeping else "other"] += 1
            return walk(objects, root)

        def counted_sweep(heap):
            sweeping.append(True)
            try:
                return sweep(heap)
            finally:
                sweeping.pop()

        # every module that could walk a closure, whether it calls the walker
        # through ``heap`` or imports it
        for module in (heap_module, replicator):
            monkeypatch.setattr(module, "reachable_ids", counted_walk, raising=False)
        monkeypatch.setattr(SimHeap, "collect_garbage", counted_sweep)
        restores = 0
        for seed in range(40):
            trace = generate_trace(GenParams(
                cells=30, variables=8, alias_density=0.6, unserializable_rate=0.1,
                undeserializable_rate=0.3, delete_rate=0.05,
            ), seed + 700)
            session, _ = run_trace(trace)
            path = tmp_path / f"w{seed}.ckpt"
            write_checkpoint(session, plan_session(session), path)
            walks.clear()
            checkpoint = read_checkpoint(path)
            assert walks["other"] == 0, seed
            for fault in (None, lambda name: True):
                checkpoint = read_checkpoint(path)
                walks.clear()
                try:
                    result = restore(checkpoint, trace.programs(), deserialization_fault=fault)
                except Unreconstructable:
                    continue
                restores += 1
                # nothing the restore derived stays on the checkpoint
                assert vars(checkpoint).keys() == {f.name for f in fields(checkpoint)}, seed
                assert walks["other"] <= len(checkpoint.variables), seed
                assert walks["sweep"] <= len(result.session.heap.namespace), seed
        assert restores >= 40

    def test_restore_applies_once_per_declaration_point(self, tmp_path, monkeypatch):
        # the rerun cells between two declarations replay through one
        # SimHeap.apply call: at most one per declaration point, plus one
        applied = []
        apply = SimHeap.apply

        def counted_apply(heap, ops, ids=None):
            applied.append(heap)
            return apply(heap, ops, ids)

        monkeypatch.setattr(SimHeap, "apply", counted_apply)
        restores = replayed = calls = with_fallbacks = with_failed = 0
        for seed in range(40):
            trace = with_failing_cells(generate_trace(GenParams(
                cells=40, variables=8, alias_density=0.6, unserializable_rate=0.1,
                undeserializable_rate=0.3, delete_rate=0.1,
            ), seed + 1300), random.Random(seed), 0.2)
            session, _ = run_trace(trace)
            path = tmp_path / f"a{seed}.ckpt"
            write_checkpoint(session, plan_session(session, bandwidth=1e3), path)
            checkpoint = read_checkpoint(path)
            for fault in (None, lambda name: sum(map(ord, name)) % 3 == 0):
                applied.clear()
                try:
                    result = restore(checkpoint, trace.programs(), deserialization_fault=fault)
                except Unreconstructable:
                    continue
                groups = replicator._groups(checkpoint.variables, NameIndex(checkpoint.objects, checkpoint.variables))
                moved, cells = recovery_cells(checkpoint, set(result.fallback_recomputed), groups)
                active = checkpoint.history.active_snapshots()
                points = {active[name].t for name in checkpoint.variables.keys() - moved}
                assert len(applied) <= len(points) + 1, seed
                assert verify(session.heap, result.session.heap).isomorphic, seed
                restores += 1
                replayed += len(cells)
                calls += len(applied)
                with_fallbacks += bool(result.fallback_recomputed)
                with_failed += any(checkpoint.history.cells[t].failed for t in cells)
        assert restores >= 60 and with_fallbacks >= 10 and with_failed >= 10
        assert replayed >= 4 * calls

    def test_a_replay_fault_names_its_cell(self, tmp_path):
        # a program that no longer matches its recorded cell fails on replay
        # in the middle of a stretch of rerun cells: the fault names that cell
        trace = generate_trace(GenParams(cells=40, variables=6, unserializable_rate=0.0), 5)
        session, _ = run_trace(trace)
        path = tmp_path / "fault.ckpt"
        plan = plan_session(session, bandwidth=1e-3)
        assert not plan.migrate  # nothing declared: one stretch of reruns
        write_checkpoint(session, plan, path)
        checkpoint = read_checkpoint(path)
        _, cells = recovery_cells(checkpoint, set(), {})
        assert len(cells) >= 5
        cell = checkpoint.history.cells[cells[len(cells) // 2]]
        programs = trace.programs()
        programs[cell.code_ref] = CellProgram(code_ref=cell.code_ref, ops=[
            HeapOp(op="set_value", id=10**9, value=0)])
        with pytest.raises(FormatError, match=re.escape(f"cell {cell.t} ({cell.code_ref!r}) fails on replay")):
            restore(checkpoint, programs)

    def test_payload_groups_make_one_union_per_shared_index_entry(self, tmp_path, monkeypatch):
        unions = Counter()
        union = cost._union

        def counted_union(parent, a, b):
            unions["calls"] += 1
            return union(parent, a, b)

        monkeypatch.setattr(cost, "_union", counted_union)
        linked = 0
        for seed in range(30):
            trace = generate_trace(GenParams(cells=40, variables=10, alias_density=0.7, unserializable_rate=0.0), seed)
            session, _ = run_trace(trace)
            heap = session.heap
            storable = {n: heap.root(n) for n in heap.namespace
                        if all(heap.objects[o].serializable for o in heap.reachable(n))}
            path = tmp_path / f"u{seed}.ckpt"
            write_checkpoint(session, ReplicationPlan(migrate=set(storable), rerun=[], cost_s=0.0), path)
            checkpoint = read_checkpoint(path)
            index = NameIndex(checkpoint.objects, checkpoint.variables)
            unions.clear()
            groups = replicator._groups(checkpoint.variables, index)
            entries = sum(len(names) for names in index.names.values() if len(names) > 1)
            assert unions["calls"] <= entries, seed
            assert groups.keys() == storable.keys()
            linked += any(len(group) > 1 for group in groups.values())
        assert linked >= 10


class TestSplitCheck:
    # the writer refuses a plan that stores one name of a linked pair and
    # leaves the other to a rerun, before writing a byte

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_planned_checkpoints_pass_and_a_split_pair_is_refused(self, tmp_path_factory, seed, data):
        trace = generate_trace(GenParams(
            cells=12, variables=5, alias_density=0.7, unserializable_rate=0.0, delete_rate=0.05,
            bandwidth_bytes_per_s=1e9,
        ), seed)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        directory = tmp_path_factory.mktemp("split")
        write_checkpoint(session, plan, directory / "planned.ckpt")
        pairs = sorted(linked_pairs(current_index(session), session.history.active_snapshots()))
        assert all((a in plan.migrate) == (b in plan.migrate) for a, b in pairs)
        stored = [pair for pair in pairs if pair[0] in plan.migrate]
        assume(stored)
        dropped = data.draw(st.sampled_from(sorted({name for pair in stored for name in pair})))
        path = directory / "split.ckpt"
        with pytest.raises(FormatError, match="splits linked names"):
            write_checkpoint(session, replace(plan, migrate=plan.migrate - {dropped}), path)
        assert sorted(directory.iterdir()) == [directory / "planned.ckpt"]


    def test_a_heap_changed_outside_run_cell_is_checked_as_it_now_is(self, tmp_path):
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e9), cells=[
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=8),
                HeapOp(op="create", id=2, kind="scalar", value=3, size_bytes=8),
                HeapOp(op="bind", name="a", id=1),
                HeapOp(op="bind", name="b", id=2),
            ]),
        ])
        session, _ = run_trace(trace)
        only_a = ReplicationPlan(migrate={"a"}, rerun=[], cost_s=0.0)
        assert write_checkpoint(session, only_a, tmp_path / "before.ckpt").objects.keys() == {1}
        # linked outside run_cell: the index the monitor kept is stale
        session.heap.apply([HeapOp(op="set_slot", parent_id=1, slot="x", child_id=2)])
        with pytest.raises(FormatError, match=r"splits linked names: \['b'\]"):
            write_checkpoint(session, only_a, tmp_path / "after.ckpt")
        assert not (tmp_path / "after.ckpt").exists()
        both = replace(only_a, migrate={"a", "b"})
        assert write_checkpoint(session, both, tmp_path / "both.ckpt").objects.keys() == {1, 2}


class TestRerunList:
    # a restore reruns what the lineage needs, given what loaded; the stored
    # plan is the planner's record, which it does not read

    @pytest.mark.parametrize("rerun", [[1, 2], [1], [], [2, 3]])
    def test_cut_stored_rerun_list_still_restores(self, tmp_path, rerun):
        trace = worked_example_trace()
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        assert plan.rerun == [1, 2, 3]
        manifest = read_manifest(path)
        manifest["plan"]["rerun"] = rerun
        write_manifest(path, manifest)
        checkpoint = read_checkpoint(path)
        assert checkpoint.plan.rerun == rerun
        result = restore(checkpoint, trace.programs())
        assert verify(session.heap, result.session.heap).isomorphic

    @pytest.mark.parametrize("faulty", [set(), {"gen"}, {"l1", "big2d", "gen"}])
    def test_restore_reads_no_field_of_the_stored_plan(self, tmp_path, faulty):
        trace = worked_example_trace()
        session, _, path = checkpoint_roundtrip(tmp_path, trace)
        checkpoint = replace(read_checkpoint(path), plan=None)
        result = restore(checkpoint, trace.programs(), deserialization_fault=faulty.__contains__)
        assert set(result.fallback_recomputed) <= faulty
        assert verify(session.heap, result.session.heap).isomorphic

    def test_stale_plan_is_refused_at_write_or_restores(self, tmp_path):
        # planned after cell 8 and checkpointed after cell 12: a plan that
        # stores a variable since deleted, reruns a cell the lineage has
        # since dropped, or splits a pair that became linked after planning
        # is refused before a byte is written; any other restores isomorphic
        params = GenParams(cells=12, variables=4, alias_density=0.3, unserializable_rate=0.0,
                           delete_rate=0.1)
        outcomes = Counter()
        for seed in range(300):
            trace = generate_trace(params, seed)
            session = new_session(trace.profile, trace.variable_annotations)
            for program in trace.cells[:8]:
                record_cell(session, program)
            plan = plan_session(session)
            for program in trace.cells[8:]:
                record_cell(session, program)
            pairs = linked_pairs(current_index(session), session.history.active_snapshots())
            splits = any((a in plan.migrate) != (b in plan.migrate) for a, b in pairs)
            path = tmp_path / f"stale{seed}.ckpt"
            try:
                write_checkpoint(session, plan, path)
            except StatecutError as err:
                assert not path.exists(), seed
                if "splits linked names" in str(err):
                    assert splits, seed
                    outcomes["split refused"] += 1
                else:
                    outcomes[type(err).__name__] += 1
                continue
            assert not splits, seed
            result = restore(read_checkpoint(path), trace.programs())
            report = verify(session.heap, result.session.heap)
            assert report.value_equivalent, seed
            outcomes["isomorphic" if report.isomorphic else "split"] += 1
        assert outcomes["FormatError"] >= 20 and outcomes["split refused"] >= 10, outcomes
        assert outcomes["split"] == 0 and outcomes["isomorphic"] >= 150, outcomes


def failing_cell_trace(bad: HeapOp, *later: CellProgram) -> TraceFile:
    """Cell 1 binds scalar 1 to ``a`` and a container to ``c``; cell 2 sets
    the scalar to 5, runs ``bad``, then sets it to 99. Storage is so slow
    that every plan reruns every cell."""
    cells = [
        CellProgram(code_ref="c1", ops=[
            HeapOp(op="create", id=1, kind="scalar", value=0, size_bytes=8),
            HeapOp(op="bind", name="a", id=1),
            HeapOp(op="create", id=2, kind="container", size_bytes=8),
            HeapOp(op="bind", name="c", id=2),
        ]),
        CellProgram(code_ref="c2", direct_reads={"a", "c"}, ops=[
            HeapOp(op="set_value", id=1, value=5),
            bad,
            HeapOp(op="set_value", id=1, value=99),
        ]),
        *later,
    ]
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells)


BAD_OPS = ("bind-absent", "set_slot-on-scalar", "set_value-on-container", "clear-missing-slot")


def heap_at(trace: TraceFile, index: int, position: int) -> SimHeap:
    """The recorded run's heap just before op ``position`` of cell ``index``
    (every earlier cell runs without error)."""
    heap = SimHeap()
    for cell in trace.cells[:index]:
        heap.apply(cell.ops)
        heap.collect_garbage()
    heap.apply(trace.cells[index].ops[:position])
    return heap


class TestFailedCells:
    # the recorded run stops at a cell's failing op; a restore that reruns
    # the cell must stop there too

    @pytest.mark.parametrize("trace", [
        failing_cell_trace(HeapOp(op="set_slot", parent_id=1, slot="s", child_id=2)),
        failing_cell_trace(HeapOp(op="set_value", id=2, value=7)),
        # a create of a live id, loaded without the trace loader's check
        failing_cell_trace(
            HeapOp(op="create", id=1, kind="scalar", value=3, size_bytes=8),
            CellProgram(code_ref="c3", direct_reads={"a"},
                        ops=[HeapOp(op="set_value", id=1, value=6)]),
        ),
        # cell 3 creates object 3, links it nowhere and fails, so the
        # recorded run sweeps it, and cell 4 fails when it links it
        failing_cell_trace(
            HeapOp(op="set_value", id=2, value=7),
            CellProgram(code_ref="c3", direct_reads={"a", "c"}, ops=[
                HeapOp(op="create", id=3, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="set_value", id=1, value=8),
                HeapOp(op="set_value", id=2, value=7),
            ]),
            CellProgram(code_ref="c4", direct_reads={"a", "c"}, ops=[
                HeapOp(op="set_value", id=1, value=42),
                HeapOp(op="set_slot", parent_id=2, slot="s", child_id=3),
                HeapOp(op="bind", name="b", id=1),
            ]),
        ),
    ], ids=["set_slot-on-scalar", "set_value-on-container", "create-live-id", "swept-object"])
    def test_restore_stops_where_the_cell_failed(self, tmp_path, trace):
        session, records = run_trace(trace)
        assert records[1].failed
        plan, path = plan_session(session), tmp_path / "f.ckpt"
        assert plan.rerun == list(session.history.cells) and not plan.migrate
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.isomorphic, report.to_json()

    def test_in_place_change_reruns_the_changed_names_producers(self, tmp_path):
        # after a failed cell, a later cell may change an object of a name it
        # does not declare (here: cell 3 sets object 2, c's element, reading
        # only the never-bound d); rerunning it needs c as cell 2 left it
        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=8),
                HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="set_slot", parent_id=1, slot="s0", child_id=2),
                HeapOp(op="bind", name="c", id=1),
                HeapOp(op="create", id=4, kind="scalar", value=4, size_bytes=8),
                HeapOp(op="bind", name="g", id=4),
            ]),
            CellProgram(code_ref="c2", direct_reads={"c"}, ops=[
                HeapOp(op="create", id=3, kind="scalar", value=3, size_bytes=8),
                HeapOp(op="set_slot", parent_id=1, slot="s1", child_id=3),
            ]),
            CellProgram(code_ref="c3", direct_reads={"d"}, ops=[
                HeapOp(op="set_value", id=2, value=9),
            ]),
        ]
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells)
        session, _, path = checkpoint_roundtrip(tmp_path, trace)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.isomorphic, report.to_json()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_restore_after_a_failed_cell_is_isomorphic_or_an_error(self, tmp_path_factory, seed, data):
        trace = generate_trace(GenParams(
            cells=8, variables=5, alias_density=0.4, unserializable_rate=0.1,
        ), seed)
        index = data.draw(st.sampled_from([i for i, c in enumerate(trace.cells) if len(c.ops) > 1]))
        cell = trace.cells[index]
        position = data.draw(st.integers(1, len(cell.ops) - 1))
        heap = heap_at(trace, index, position)
        live = sorted(heap.objects)
        kinds = {kind: [oid for oid in live if heap.objects[oid].kind == kind]
                 for kind in ("scalar", "container")}
        bad = data.draw(st.sampled_from(BAD_OPS))
        if bad == "bind-absent":
            op = HeapOp(op="bind", name="v0", id=10**9)
        elif bad == "set_slot-on-scalar":
            assume(kinds["scalar"])
            op = HeapOp(op="set_slot", parent_id=data.draw(st.sampled_from(kinds["scalar"])),
                        slot="s0", child_id=data.draw(st.sampled_from(live)))
        elif bad == "set_value-on-container":
            assume(kinds["container"])
            op = HeapOp(op="set_value", id=data.draw(st.sampled_from(kinds["container"])), value=1)
        else:
            assume(kinds["container"])
            op = HeapOp(op="clear_slot", parent_id=data.draw(st.sampled_from(kinds["container"])),
                        slot="missing")
        cells = list(trace.cells)
        cells[index] = replace(cell, ops=[*cell.ops[:position], op, *cell.ops[position:]])
        trace = trace_from_json(trace_to_json(replace(trace, cells=cells)))
        session, records = run_trace(trace)
        assert records[index].failed
        path = tmp_path_factory.mktemp("failed") / "f.ckpt"
        for bandwidth in (1.0, data.draw(st.floats(1e2, 1e9))):
            try:
                write_checkpoint(session, plan_session(session, bandwidth=bandwidth), path)
                result = restore(read_checkpoint(path), trace.programs())
            except StatecutError:
                continue
            report = verify(session.heap, result.session.heap)
            assert report.isomorphic, (bandwidth, report.to_json())


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

        def declare_privately(heap, name):
            # the variable's own copy of its stored closure, under fresh ids
            closure = sorted(reachable_ids(checkpoint.objects, checkpoint.variables[name]))
            fresh = {oid: heap.allocate_id() for oid in closure}
            for oid in closure:
                rec = checkpoint.objects[oid]
                heap.add_object(replace(rec, id=fresh[oid], slots={
                    label: fresh[child] for label, child in rec.slots.items()}))
            heap.bind(name, fresh[checkpoint.variables[name]])

        isolated = SimHeap()
        replay_map: dict[int, int] = {}
        for cell in trace.cells[:3]:  # rebuild x, y, z by replaying t1..t3
            isolated.apply(cell.ops, replay_map)
        for name in sorted(checkpoint.variables):
            declare_privately(isolated, name)
        report = verify(session.heap, isolated)
        assert report.value_equivalent
        assert not report.isomorphic
        assert report.reference_violations

    def test_deep_chain_verifies(self, tmp_path):
        # 3000 containers in a row: deeper than Python's recursion limit
        depth = 3000
        ops = [HeapOp(op="create", id=i, kind="container", size_bytes=8) for i in range(1, depth)]
        ops.append(HeapOp(op="create", id=depth, kind="scalar", value=7, size_bytes=8))
        ops += [HeapOp(op="set_slot", parent_id=i, slot="next", child_id=i + 1) for i in range(1, depth)]
        ops.append(HeapOp(op="bind", name="chain", id=1))
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0),
                          cells=[CellProgram(code_ref="c1", ops=ops)])
        trace_path = tmp_path / "trace.json"
        save_trace(trace, trace_path)
        for bandwidth in (1.0, 1e9):  # rerun the cell, then store the chain
            session, plan, path = checkpoint_roundtrip(tmp_path, trace, bandwidth=bandwidth)
            assert bool(plan.migrate) == (bandwidth > 1)
            result = restore(read_checkpoint(path), trace.programs())
            assert verify(session.heap, result.session.heap).isomorphic
            assert main(["verify", str(trace_path), str(path)]) == 0

    @pytest.mark.parametrize("bandwidth", ["1e9", "1e-3"])  # store the NaN, then rerun its cell
    def test_nan_value_verifies(self, tmp_path, bandwidth, capsys):
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=[
            CellProgram(code_ref="c1", declared_runtime_s=1.0, ops=[
                HeapOp(op="create", id=1, kind="scalar", value=math.nan, size_bytes=8),
                HeapOp(op="bind", name="x", id=1),
            ]),
        ])
        trace_path, path = tmp_path / "trace.json", tmp_path / "nan.ckpt"
        save_trace(trace, trace_path)
        assert main(["checkpoint", str(trace_path), str(path), "--bandwidth", bandwidth]) == 0
        assert read_checkpoint(path).plan.migrate == ({"x"} if bandwidth == "1e9" else set())
        capsys.readouterr()
        assert main(["verify", str(trace_path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["value_diffs"] == {}

    def test_namespace_mismatch_listed(self):
        a, b = SimHeap(), SimHeap()
        a.apply([HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                 HeapOp(op="bind", name="x", id=1)])
        report = verify(a, b)
        assert not report.value_equivalent
        assert report.namespace_mismatch["only_original"] == ["x"]

    def test_opaque_values_are_compared(self):
        # as the value hash does: a size check alone passes a wrong value
        a, b = SimHeap(), SimHeap()
        for heap, value in ((a, 41), (b, 977)):
            heap.apply([HeapOp(op="create", id=1, kind="opaque", value=value, size_bytes=8),
                        HeapOp(op="bind", name="model", id=1)])
        report = verify(a, b)
        assert not report.value_equivalent
        assert report.value_diffs == {"model": "value 41 != 977"}

    @pytest.mark.parametrize("original, restored, diff", [
        ([HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8)],
         [HeapOp(op="create", id=1, kind="opaque", value=1, size_bytes=8)], "kind scalar != opaque"),
        ([HeapOp(op="create", id=1, kind="opaque", value=1, size_bytes=8)],
         [HeapOp(op="create", id=1, kind="opaque", value=1, size_bytes=9)], "opaque size 8 != 9"),
        ([HeapOp(op="create", id=1, kind="container", size_bytes=8),
          HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
          HeapOp(op="set_slot", parent_id=1, slot="a", child_id=2),
          HeapOp(op="set_slot", parent_id=1, slot="b", child_id=2)],
         [HeapOp(op="create", id=1, kind="container", size_bytes=8),
          HeapOp(op="create", id=2, kind="scalar", value=1, size_bytes=8),
          HeapOp(op="set_slot", parent_id=1, slot="a", child_id=2)], "slots ['a', 'b'] != ['a']"),
    ], ids=["kind", "opaque-size", "slot-list"])
    def test_shape_differences_are_reported(self, original, restored, diff):
        a, b = SimHeap(), SimHeap()
        for heap, ops in ((a, original), (b, restored)):
            heap.apply([*ops, HeapOp(op="bind", name="v", id=1)])
        report = verify(a, b)
        assert not report.value_equivalent and not report.isomorphic
        assert report.value_diffs == {"v": diff}

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
        trace = aliased_pair_trace()
        session, _ = run_trace(trace)

        honest = plan_session(session)
        assert honest.migrate in ({"l1", "big2d"}, set())

        ablated = link_blind_plan(session)
        assert ablated.migrate == {"big2d"}  # constraint violated on purpose

        # the writer refuses the split, and leaves no file
        path = tmp_path / "ablate.ckpt"
        with pytest.raises(FormatError, match=r"splits linked names: \['l1'\]"):
            write_checkpoint(session, ablated, path)
        assert not path.exists()

        # the same split written past the writer restores two objects
        write_split_by_hand(session, ablated, path)
        result = restore(read_checkpoint(path), trace.programs())
        report = verify(session.heap, result.session.heap)
        assert report.value_equivalent
        assert not report.isomorphic  # l1 and big2d[0] went separate ways

        # the honest plan keeps the alias
        path2 = tmp_path / "honest.ckpt"
        write_checkpoint(session, honest, path2)
        good = restore(read_checkpoint(path2), trace.programs())
        assert verify(session.heap, good.session.heap).isomorphic

    def test_rerun_copy_left_live_is_not_checkpointed(self, tmp_path):
        # the split restore keeps l1's rerun copy live beside big2d's stored
        # one; the copy's id was made by no recording, so no checkpoint may
        # name it
        trace = aliased_pair_trace()
        session, _ = run_trace(trace)
        path = tmp_path / "ablate.ckpt"
        write_split_by_hand(session, link_blind_plan(session), path)
        restored = restore(read_checkpoint(path), trace.programs()).session
        assert restored.heap.namespace == {"l1": -1, "big2d": 3}
        copy_all = ReplicationPlan(migrate={"l1", "big2d"}, rerun=[], cost_s=0.0)
        with pytest.raises(SerializationError, match=r"object -\d+ .* no recording made"):
            write_checkpoint(restored, copy_all, tmp_path / "again.ckpt")
        assert not (tmp_path / "again.ckpt").exists()

    def test_no_idgraph_restores_value_incorrectly(self, tmp_path):
        # hash-only monitoring misses c2's swap, so the stale lineage replays
        # c3's mutation into the object big2d should no longer contain
        trace = reference_swap_trace()
        session = hash_only_session(trace)
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
            session.history = inject_false_edges(session.history, random.Random(seed), reads=4, writes=2)
            cost = session_cost_model(session)
            linked = lp(current_index(session), session.history.active_snapshots())
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
    def test_restore_then_recheckpoint_is_byte_identical(self, tmp_path):
        # stored objects keep their ids through a restore, so checkpoint,
        # restore, re-plan and re-checkpoint is a fixed point
        trace = worked_example_trace()
        session, plan, path = checkpoint_roundtrip(tmp_path, trace)
        result = restore(read_checkpoint(path), trace.programs())
        assert not result.fallback_recomputed
        assert verify(session.heap, result.session.heap).isomorphic
        again = tmp_path / "again.ckpt"
        write_checkpoint(result.session, plan_session(result.session), again)
        assert again.read_bytes() == path.read_bytes()

    def test_recheckpoint_is_byte_identical_on_random_sessions(self, tmp_path):
        checked = 0
        for seed in range(40):
            trace = generate_trace(GenParams(
                cells=30, variables=8, alias_density=0.5, unserializable_rate=0.1,
                undeserializable_rate=0.1, never_rerun_rate=0.1, nondet_rate=0.1,
                delete_rate=0.1, bandwidth_bytes_per_s=(1e3, 1e5, 1e7)[seed % 3],
            ), seed)
            try:
                session, plan, path = checkpoint_roundtrip(tmp_path, trace)
                result = restore(read_checkpoint(path), trace.programs())
            except (Infeasible, Unreconstructable):
                continue
            if result.fallback_recomputed or not verify(session.heap, result.session.heap).isomorphic:
                continue
            again = tmp_path / "again.ckpt"
            write_checkpoint(result.session, plan_session(result.session), again)
            assert again.read_bytes() == path.read_bytes(), seed
            checked += 1
        assert checked >= 30

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


def restore_outcome(checkpoint, programs, faulty: set[str], original: SimHeap):
    """What a restore gives: the error it raises, or its namespace, object
    ids, fallbacks and verify report against ``original``."""
    try:
        result = restore(checkpoint, programs, deserialization_fault=faulty.__contains__)
    except StatecutError as err:
        return f"{type(err).__name__}: {err}", None
    heap = result.session.heap
    return (sorted(heap.namespace.items()), sorted(heap.objects),
            result.fallback_recomputed, verify(original, heap).to_json()), result


class TestLiveLineage:
    # a checkpoint holds only the cells in the backward closure of the active
    # snapshots; restoring it must behave as restoring the whole lineage

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_pruned_checkpoint_restores_and_plans_as_the_whole_lineage(self, tmp_path_factory, seed, data):
        nondet = data.draw(st.booleans(), label="nondet")
        trace = generate_trace(GenParams(
            cells=30, variables=6, alias_density=0.4, unserializable_rate=0.1,
            undeserializable_rate=0.2, never_rerun_rate=0.1, nondet_rate=0.1 * nondet,
            delete_rate=0.15,
        ), seed)
        session, _ = run_trace(trace)
        try:
            plan = plan_session(session)
        except Infeasible:
            assume(False)
        path = tmp_path_factory.mktemp("live") / "c.ckpt"
        write_checkpoint(session, plan, path)
        manifest = read_manifest(path)
        history = session.history
        closure = history.rerun_cells_from(set(history.active_snapshots().values()), set())
        assert [c["t"] for c in manifest["history"]["cells"]] == [c.t for c in closure]

        pruned = read_checkpoint(path)
        whole = replace(pruned, history=history)
        faulty = set(data.draw(st.lists(st.sampled_from(sorted(plan.migrate)), unique=True))
                     if plan.migrate else [])
        programs = trace.programs()
        outcome, result = restore_outcome(pruned, programs, faulty, session.heap)
        assert outcome == restore_outcome(whole, programs, faulty, session.heap)[0]
        if result is None:
            return
        # no plan reruns a nondeterministic cell; a fallback through one
        # raises Unreconstructable
        assert verify(session.heap, result.session.heap).isomorphic
        assert result.session.heap.objects.keys() == session.heap.objects.keys()
        assert result.session.history.next_t == session.history.next_t
        again = plan_session(result.session)
        assert (again.migrate, again.rerun, repr(again.cost_s)) == (
            plan.migrate, plan.rerun, repr(plan.cost_s))

        # pruning is idempotent: with or without a fallback, the restored
        # session writes the same file
        second = path.with_name("again.ckpt")
        write_checkpoint(result.session, plan, second)
        assert second.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), split=st.floats(0.1, 0.9), fail_rate=st.floats(0.0, 0.3))
    def test_restored_session_continues_as_the_original(self, tmp_path_factory, seed, split, fail_rate):
        # checkpoint mid-trace, restore, run the remaining cells on both
        # sessions: the restored lineage is the original's, so both record
        # the same cells and write the same manifest
        rng = random.Random(seed)
        trace = with_failing_cells(generate_trace(GenParams(
            cells=30, variables=6, alias_density=0.4, unserializable_rate=0.1,
            never_rerun_rate=0.1, nondet_rate=0.1, delete_rate=0.15,
        ), seed), rng, fail_rate)
        cut = int(split * len(trace.cells))
        original = new_session(trace.profile, trace.variable_annotations)
        for program in trace.cells[:cut]:
            record_cell(original, program)
        try:
            plan = plan_session(original)
        except Infeasible:
            assume(False)
        path = tmp_path_factory.mktemp("continue") / "c.ckpt"
        write_checkpoint(original, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        assert verify(original.heap, result.session.heap).isomorphic
        restored = result.session
        assert restored.history.to_manifest() == original.history.to_manifest()

        # the restored heap holds the original's ids, so the remaining cells
        # run unchanged
        for program in trace.cells[cut:]:
            assert record_cell(restored, program) == record_cell(original, program)
        assert restored.history.to_manifest() == original.history.to_manifest()


class TestMultiHop:
    # a restored session keeps running the trace's own programs and
    # migrates again: at every hop the restore is accepted, holds the
    # session's object ids and re-checkpoints to the same bytes, and the
    # chain ends as the unmigrated run

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), bandwidth=st.sampled_from([1e2, 1e4, 1e8]),
           fault_rate=st.sampled_from([0.0, 0.2]))
    def test_migration_chain_ends_as_the_unmigrated_run(self, tmp_path_factory, seed, bandwidth, fault_rate):
        rng = random.Random(seed)
        trace = with_failing_cells(generate_trace(GenParams(
            cells=40, variables=6, alias_density=0.4, unserializable_rate=0.1,
            undeserializable_rate=0.2, never_rerun_rate=0.05, nondet_rate=0.1, delete_rate=0.15,
        ), seed), rng, 0.1)
        programs = trace.programs()
        original = new_session(trace.profile, trace.variable_annotations)
        records = [record_cell(original, program) for program in trace.cells]
        session = new_session(trace.profile, trace.variable_annotations)
        path = tmp_path_factory.mktemp("hops") / "c.ckpt"
        start = 0
        for hop in (10, 20, 30):
            for index in range(start, hop):
                assert record_cell(session, trace.cells[index]) == records[index]
            start = hop
            try:
                plan = plan_session(session, bandwidth=bandwidth)
                write_checkpoint(session, plan, path)
                faulty = {name for name in sorted(plan.migrate) if rng.random() < fault_rate}
                result = restore(read_checkpoint(path), programs, deserialization_fault=faulty.__contains__)
            except (Infeasible, Unreconstructable):
                return
            restored = result.session
            assert verify(session.heap, restored.heap).isomorphic, (hop, result.fallback_recomputed)
            assert restored.heap.objects.keys() == session.heap.objects.keys()
            again = path.with_name("again.ckpt")
            write_checkpoint(restored, plan, again)
            assert again.read_bytes() == path.read_bytes()
            session = restored
        for index in range(start, len(trace.cells)):
            assert record_cell(session, trace.cells[index]) == records[index]
        assert verify(original.heap, session.heap).isomorphic
        assert session.history.to_manifest() == original.history.to_manifest()
