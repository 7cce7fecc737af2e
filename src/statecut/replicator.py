"""Checkpoint writer, session restorer, and replication verifier.

A checkpoint is one self-contained file: magic and version, a JSON manifest
(lineage graph, plan, cost model, variable table, annotations), and a binary
payload holding every object reachable from a migrated variable exactly once.
Restoration walks the original timestamps, interleaving cell reruns with
variable re-declaration, so every rerun cell reads the inputs it originally
saw; a migrated variable also produced by a rerun cell is overwritten with
its stored copy to keep aliases pointing at the payload objects. Stored
variables that fail to deserialize are found before the walk and recovered
by moving their whole linked group back to recomputation, so the walk runs
once, on the amended plan.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from .cost import CostModel, CostProfile, linked_groups
from .errors import (
    FormatError,
    InvalidHeapOp,
    MissingCellProgram,
    SerializationError,
    StatecutError,
    UnknownObject,
    Unreconstructable,
)
from .heap import HeapObject, HeapOp, NameIndex, SimHeap, reachable_ids
from .history import HistoryGraph
from .monitor import CellProgram, Session
from .planner import ReplicationPlan

MAGIC = b"SCCKPT01"
FORMAT_VERSION = 1

_KIND_CODES = {"scalar": 0, "container": 1, "opaque": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class Checkpoint:
    """Parsed checkpoint container."""

    history: HistoryGraph
    plan: ReplicationPlan
    cost: CostModel
    variables: dict[str, int]  # migrated name -> root object id (original ids)
    annotations: dict[str, str]
    objects: dict[int, HeapObject]  # payload records keyed by original id

    def payload_closure(self, name: str) -> set[int]:
        """Original ids of every payload object reachable from ``name``."""
        return reachable_ids(self.objects, self.variables[name])

    @cached_property
    def payload_groups(self) -> dict[str, set[str]]:
        """Each stored name's group: the stored names linked to it by shared
        payload objects, directly or through other members."""
        pairs = NameIndex(self.objects, self.variables).shared_pairs()
        return {n: group for group in linked_groups(self.variables, pairs) for n in group}


@dataclass
class RestoreResult:
    """Restored session plus the identity bookkeeping verification needs."""

    session: Session
    id_map: dict[int, int]  # original object id -> restored object id
    fallback_recomputed: list[str] = field(default_factory=list)


# -- binary codec -------------------------------------------------------------


def _encode_object(obj: HeapObject) -> bytes:
    value = json.dumps(obj.value, sort_keys=True, separators=(",", ":")).encode()
    flags = (obj.serializable << 0) | (obj.deserializable << 1) | (obj.hashable << 2)
    parts = [
        struct.pack("<QBBQ", obj.id, _KIND_CODES[obj.kind], flags, obj.size_bytes),
        struct.pack("<I", len(value)),
        value,
        struct.pack("<I", len(obj.slots)),
    ]
    for label, child in obj.slots.items():
        encoded = label.encode()
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<Q", child))
    return b"".join(parts)


def _decode_objects(payload: bytes) -> dict[int, HeapObject]:
    objects: dict[int, HeapObject] = {}
    offset = 0
    try:
        while offset < len(payload):
            oid, kind_code, flags, size = struct.unpack_from("<QBBQ", payload, offset)
            offset += 18
            (value_len,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            value = json.loads(payload[offset : offset + value_len])
            offset += value_len
            (nslots,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            slots: dict[str, int] = {}
            for _ in range(nslots):
                (label_len,) = struct.unpack_from("<H", payload, offset)
                offset += 2
                label = payload[offset : offset + label_len].decode()
                offset += label_len
                (child,) = struct.unpack_from("<Q", payload, offset)
                offset += 8
                slots[label] = child
            if oid in objects:
                raise FormatError(f"corrupt checkpoint payload: object {oid} stored twice")
            objects[oid] = HeapObject(
                id=oid,
                kind=_KIND_NAMES[kind_code],
                value=value,
                slots=slots,
                size_bytes=size,
                serializable=bool(flags & 1),
                deserializable=bool(flags & 2),
                hashable=bool(flags & 4),
            )
    except (struct.error, KeyError, json.JSONDecodeError, UnicodeDecodeError, InvalidHeapOp) as err:
        raise FormatError(f"corrupt checkpoint payload: {err}") from err
    dangling = {child for obj in objects.values() for child in obj.slots.values()} - objects.keys()
    if dangling:
        raise FormatError(f"corrupt checkpoint payload: slots name absent objects {sorted(dangling)}")
    return objects


def _cost_to_manifest(cost: CostModel) -> dict:
    return {
        "profile": cost.profile.to_json(),
        "cell_runtimes": {str(t): s for t, s in sorted(cost.cell_runtimes.items())},
        "var_sizes": dict(sorted(cost.var_sizes.items())),
        "var_serializable": dict(sorted(cost.var_serializable.items())),
    }


def _cost_from_manifest(data: dict) -> CostModel:
    return CostModel(
        profile=CostProfile.from_json(data["profile"]),
        cell_runtimes={int(t): s for t, s in data["cell_runtimes"].items()},
        var_sizes=dict(data["var_sizes"]),
        var_serializable=dict(data["var_serializable"]),
    )


# -- writing ------------------------------------------------------------------


def write_checkpoint(session: Session, plan: ReplicationPlan, path: str | Path) -> Checkpoint:
    """Write the session's checkpoint file for the given plan.

    The payload holds the union of the migrated variables' reachable sets,
    each object exactly once, sorted by id; aliases among migrated variables
    therefore survive a round trip. Raises SerializationError if an
    unserializable object slipped into the migrate closure.
    """
    heap = session.heap
    closure: set[int] = set()
    variables: dict[str, int] = {}
    for name in sorted(plan.migrate):
        variables[name] = heap.root(name)
        closure |= heap.reachable(name)
    for oid in closure:
        if not heap.objects[oid].serializable:
            raise SerializationError(
                f"object {oid} in the migrate closure is not serializable"
            )

    checkpoint = Checkpoint(
        history=session.history,
        plan=plan,
        cost=session.cost,
        variables=variables,
        annotations=dict(session.annotations),
        objects={oid: heap.objects[oid] for oid in closure},
    )
    manifest = {
        "history": session.history.to_manifest(),
        "plan": plan.to_json(),
        "cost_model": _cost_to_manifest(session.cost),
        "variables": dict(sorted(variables.items())),
        "annotations": dict(sorted(session.annotations.items())),
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(_encode_object(heap.objects[oid]) for oid in sorted(closure))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
    return checkpoint


def _sections(path: str | Path) -> tuple[bytes, bytes]:
    """The manifest and payload sections of a checkpoint file, after
    checking its magic, version and section lengths."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    try:
        (version,) = struct.unpack_from("<I", raw, 8)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        (manifest_len,) = struct.unpack_from("<Q", raw, 12)
        manifest_end = 20 + manifest_len
        (payload_len,) = struct.unpack_from("<Q", raw, manifest_end)
    except struct.error as err:
        raise FormatError(f"{path}: corrupt checkpoint ({err})") from err
    payload = raw[manifest_end + 8 : manifest_end + 8 + payload_len]
    if len(payload) != payload_len:
        raise FormatError(f"{path}: truncated payload")
    return raw[20:manifest_end], payload


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a checkpoint file; raises FormatError when it is malformed, naming
    the path when the header or the manifest is at fault."""
    manifest_bytes, payload = _sections(path)
    objects = _decode_objects(payload)
    try:
        manifest = json.loads(manifest_bytes)
        checkpoint = Checkpoint(
            history=HistoryGraph.from_manifest(manifest["history"]),
            plan=ReplicationPlan.from_json(manifest["plan"]),
            cost=_cost_from_manifest(manifest["cost_model"]),
            variables=dict(manifest["variables"]),
            annotations=dict(manifest["annotations"]),
            objects=objects,
        )
        _check_consistent(checkpoint)
    except (StatecutError, LookupError, TypeError, ValueError, AttributeError) as err:
        raise FormatError(f"{path}: invalid manifest ({type(err).__name__}: {err})") from err
    return checkpoint


def _check_consistent(checkpoint: Checkpoint) -> None:
    """Raise FormatError unless the plan, the variable table, the lineage and
    the payload agree: the plan reruns only recorded cells and stores exactly
    the table's variables, each of them active, with its root in the payload."""
    plan, variables = checkpoint.plan, checkpoint.variables
    if {type(t) for t in plan.rerun} - {int} or set(plan.rerun) - {c.t for c in checkpoint.history.cells}:
        raise FormatError(f"plan reruns cells the lineage does not record: {plan.rerun}")
    if plan.migrate != variables.keys():
        raise FormatError("plan.migrate differs from the stored variables")
    if {type(oid) for oid in variables.values()} - {int} or set(variables.values()) - checkpoint.objects.keys():
        raise FormatError("a stored variable's root is not in the payload")
    inactive = variables.keys() - checkpoint.history.active_snapshots().keys()
    if inactive:
        raise FormatError(f"stored variables without an active snapshot: {sorted(inactive)}")


def payload_bytes(path: str | Path) -> int:
    """Size in bytes of a checkpoint file's payload section."""
    return len(_sections(path)[1])


# -- restoring ----------------------------------------------------------------


def recovery_cells(checkpoint: Checkpoint, failed: set[str]) -> tuple[set[str], list[int]]:
    """Plan amendment after deserialization failures: the failed variables'
    whole linked groups move to recomputation, and the lineage graph yields
    the extra cells to rerun given the remaining stored variables as ground.
    """
    moved: set[str] = set()
    for name in failed:
        moved |= checkpoint.payload_groups[name]
    active = checkpoint.history.active_snapshots()
    targets = {active[n] for n in moved if n in active}
    ground = {active[n] for n in set(checkpoint.variables) - moved if n in active}
    try:
        extra = checkpoint.history.rerun_cells_from(targets, ground, require_rerunnable=True)
    except Unreconstructable as err:
        raise Unreconstructable(sorted(failed)[0], blocked_at=err.blocked_at) from err
    return moved, [c.t for c in extra]


def _remap(current: dict[int, int], oid: int) -> int:
    if oid not in current:
        raise UnknownObject(f"replay references object {oid} that was never produced")
    return current[oid]


def _replay_ops(heap: SimHeap, ops: list[HeapOp], current: dict[int, int]) -> None:
    """Re-execute recorded ops against the fresh heap, allocating fresh ids
    for creates and routing every other reference through the id map."""
    for op in ops:
        if op.op == "create":
            fresh = heap.allocate_id()
            heap.add_object(
                HeapObject(
                    id=fresh,
                    kind=op.kind,
                    value=op.value,
                    size_bytes=op.size_bytes,
                    serializable=op.serializable,
                    deserializable=op.deserializable,
                    hashable=op.hashable,
                )
            )
            current[op.id] = fresh
        elif op.op == "bind":
            heap.bind(op.name, _remap(current, op.id))
        elif op.op == "unbind":
            # deletions carry no lineage edges, so the name may never have
            # been rebuilt here; an already-absent name satisfies the effect
            if op.name in heap.namespace:
                heap.unbind(op.name)
        elif op.op == "set_slot":
            parent = heap.get(_remap(current, op.parent_id))
            heap.get(_remap(current, op.child_id))
            parent.slots[op.slot] = current[op.child_id]
        elif op.op == "clear_slot":
            parent = heap.get(_remap(current, op.parent_id))
            if op.slot not in parent.slots:
                raise InvalidHeapOp(f"object {op.parent_id} has no slot {op.slot!r}")
            del parent.slots[op.slot]
        elif op.op == "set_value":
            heap.get(_remap(current, op.id)).value = op.value


def _declare_variable(
    heap: SimHeap,
    checkpoint: Checkpoint,
    name: str,
    payload_map: dict[int, int],
    current: dict[int, int],
) -> None:
    """Materialize a stored variable's subgraph (once per object) and bind it."""
    closure = checkpoint.payload_closure(name)
    fresh = sorted(oid for oid in closure if oid not in payload_map)
    for oid in fresh:
        rec = checkpoint.objects[oid]
        payload_map[oid] = heap.add_object(
            HeapObject(
                id=heap.allocate_id(),
                kind=rec.kind,
                value=rec.value,
                size_bytes=rec.size_bytes,
                serializable=rec.serializable,
                deserializable=rec.deserializable,
                hashable=rec.hashable,
            )
        ).id
    for oid in fresh:
        rec = checkpoint.objects[oid]
        heap.objects[payload_map[oid]].slots = {
            label: payload_map[child] for label, child in rec.slots.items()
        }
    heap.bind(name, payload_map[checkpoint.variables[name]])
    for oid in closure:
        current[oid] = payload_map[oid]


def restore(
    checkpoint: Checkpoint,
    programs: dict[str, CellProgram],
    *,
    deserialization_fault: Callable[[str], bool] | None = None,
) -> RestoreResult:
    """Rebuild the checkpointed session state on a fresh heap.

    First loads each stored variable in declaration order (the timestamp of
    its active snapshot, then name): a variable fails to load when its
    payload holds an undeserializable object or the injected fault fires for
    it, and each failure moves its whole linked group to the rerun side
    unless an earlier failure already moved it. Then walks the original
    timestamps once: cells on the amended rerun list replay their recorded
    ops (nondeterministic cells replay their alternate ops), and each
    variable still stored is declared right after the timestamp of its
    active snapshot.
    """
    history = checkpoint.history
    active = history.active_snapshots()
    fallbacks: list[str] = []
    moved: set[str] = set()
    for name in sorted(checkpoint.variables, key=lambda n: (active[n].t, n)):
        if name in moved:
            continue
        closure = checkpoint.payload_closure(name)
        if any(not checkpoint.objects[oid].deserializable for oid in closure) or (
            deserialization_fault is not None and deserialization_fault(name)
        ):
            fallbacks.append(name)
            moved |= checkpoint.payload_groups[name]
    rerun = set(checkpoint.plan.rerun)
    if fallbacks:
        try:
            moved, extra = recovery_cells(checkpoint, set(fallbacks))
        except Unreconstructable:
            # name the first failure, in declaration order, whose group is blocked
            for name in fallbacks:
                recovery_cells(checkpoint, {name})
            raise
        rerun.update(extra)

    declare_at: dict[int, list[str]] = {}
    for name in sorted(set(checkpoint.variables) - moved):
        declare_at.setdefault(active[name].t, []).append(name)
    heap = SimHeap()
    payload_map: dict[int, int] = {}
    current: dict[int, int] = {}
    for cell in history.cells:
        if cell.t in rerun:
            if cell.code_ref not in programs:
                raise MissingCellProgram(
                    f"trace archive lacks cell {cell.code_ref!r} needed for rerun"
                )
            program = programs[cell.code_ref]
            ops = program.alt_ops if (program.nondeterministic and program.alt_ops is not None) else program.ops
            try:
                _replay_ops(heap, ops, current)
            except StatecutError:
                if not cell.failed:
                    raise
                # the original run failed mid-cell too; partial effects stand
        for name in declare_at.get(cell.t, ()):
            _declare_variable(heap, checkpoint, name, payload_map, current)

    for name in set(heap.namespace) - set(active):
        heap.unbind(name)
    heap.collect_garbage()

    cost = checkpoint.cost.with_profile()
    for t in sorted(rerun):
        program = programs[history.cell(t).code_ref]
        cost.record_runtime(t, program.declared_runtime_s)
    session = Session(
        heap=heap,
        history=history,
        cost=cost,
        programs=dict(programs),
        annotations=dict(checkpoint.annotations),
        next_t=(history.cells[-1].t + 1) if history.cells else 1,
    )
    live = set(heap.objects)
    id_map = {old: new for old, new in current.items() if new in live}
    return RestoreResult(session=session, id_map=id_map, fallback_recomputed=fallbacks)


# -- verification --------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of comparing an original session state against a restored one."""

    value_equivalent: bool
    isomorphic: bool
    value_diffs: dict[str, str] = field(default_factory=dict)
    reference_violations: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    namespace_mismatch: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value_equivalent": self.value_equivalent,
            "isomorphic": self.isomorphic,
            "value_diffs": dict(sorted(self.value_diffs.items())),
            "reference_violations": [
                [old, list(news)] for old, news in self.reference_violations
            ],
            "namespace_mismatch": self.namespace_mismatch,
        }


def _compare_values(
    original: SimHeap,
    restored: SimHeap,
    old_id: int,
    new_id: int,
    path: str,
    seen: set[tuple[int, int]],
    relation: dict[int, set[int]],
    diffs: dict[str, str],
) -> None:
    relation.setdefault(old_id, set()).add(new_id)
    if (old_id, new_id) in seen:
        return
    seen.add((old_id, new_id))
    old = original.objects[old_id]
    new = restored.objects[new_id]
    if old.kind != new.kind:
        diffs[path] = f"kind {old.kind} != {new.kind}"
        return
    if old.kind == "opaque":
        if old.size_bytes != new.size_bytes:
            diffs[path] = f"opaque size {old.size_bytes} != {new.size_bytes}"
        return
    if old.kind == "scalar":
        if old.value != new.value:
            diffs[path] = f"value {old.value!r} != {new.value!r}"
        return
    old_labels = list(old.slots)
    new_labels = list(new.slots)
    if old_labels != new_labels:
        diffs[path] = f"slots {old_labels} != {new_labels}"
    for label in old.slots:
        if label in new.slots:
            _compare_values(
                original, restored,
                old.slots[label], new.slots[label],
                f"{path}.{label}", seen, relation, diffs,
            )


def verify(original: SimHeap, restored: SimHeap) -> VerificationReport:
    """Check value equivalence and reference isomorphism of a replication.

    Value equivalence compares each variable's reachable values and shape,
    blind to object identity. Isomorphism additionally demands that the
    collected old-to-new identity relation is a one-to-one function: two
    references sharing an object before replication must share one after,
    and distinct objects must stay distinct.
    """
    report = VerificationReport(value_equivalent=True, isomorphic=True)
    only_original = sorted(set(original.namespace) - set(restored.namespace))
    only_restored = sorted(set(restored.namespace) - set(original.namespace))
    if only_original or only_restored:
        report.namespace_mismatch = {
            "only_original": only_original,
            "only_restored": only_restored,
        }
        report.value_equivalent = False

    relation: dict[int, set[int]] = {}
    seen: set[tuple[int, int]] = set()
    for name in sorted(set(original.namespace) & set(restored.namespace)):
        _compare_values(
            original, restored,
            original.namespace[name], restored.namespace[name],
            name, seen, relation, report.value_diffs,
        )
    if report.value_diffs:
        report.value_equivalent = False

    used_new: dict[int, int] = {}
    for old_id in sorted(relation):
        news = relation[old_id]
        if len(news) > 1:
            report.reference_violations.append((old_id, tuple(sorted(news))))
            continue
        new_id = next(iter(news))
        if new_id in used_new and used_new[new_id] != old_id:
            report.reference_violations.append((old_id, (new_id,)))
        used_new[new_id] = old_id

    report.isomorphic = report.value_equivalent and not report.reference_violations
    return report
