"""Checkpoint writer, session restorer, and replication verifier.

A checkpoint is one self-contained file: magic and version, a JSON manifest
(the live lineage with the session's next timestamp, plan, storage profile,
variable table and annotations), a JSON payload holding one record for
every object reachable from a migrated variable, and a SHA-256 digest of
every byte before it. The file is written to a temporary name and renamed
into place; reading it checks every field against the rules of ``schema``
(published as docs/checkpoint.schema.json), each object and payload record
by its table's compiled ``valid`` and, only for one that fails it, by a
walk of the table that names the fault, then the rules that relate
fields, which the writer checks before it writes, and ends any fault in one
FormatError naming the file, as does a restore whose lineage and trace disagree.
The writer also refuses a plan that splits linked names, which the session's
name index shows in one lookup of the stored closure.
Restoration loads the stored objects under their own ids, then walks the
original timestamps, interleaving cell reruns with variable re-declaration,
so every rerun cell reads the inputs it originally saw; the rerun cells
between two declarations replay through one ``SimHeap.apply`` call. Every
object keeps its recorded id, except a rerun copy of a stored object, which
takes one below zero; declaring a variable points the walk's ops at its
stored objects, so a migrated variable also produced by a rerun cell is
overwritten with its stored copy and aliases keep pointing at the payload
objects. A restore that ``verify`` accepts checkpoints, under the same plan,
to the file it was restored from. Stored variables that fail to deserialize
are found before the walk and move, with their linked group, to
recomputation; the walk then reruns what the lineage needs, given what
loaded, and never reads the stored plan, which is the planner's record. One
name index over the payload gives each stored closure, walked once, and the
linked groups. Reading and restoring pause the cyclic collector, as loading
a trace does: what they build holds no reference cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .cost import CostProfile, linked_groups
from .errors import (
    FormatError,
    MissingCellProgram,
    SerializationError,
    StatecutError,
    Unreconstructable,
)
from .heap import HeapObject, NameIndex, SimHeap, _canon, same_canon
from .history import CellExecution, HistoryGraph
from .monitor import CellProgram, Session, current_index
from .planner import ReplicationPlan
from .schema import _U64, check_fields, collector_paused, rules

MAGIC = b"SCCKPT01"
FORMAT_VERSION = 6
DIGEST_BYTES = 32  # SHA-256


_MANIFEST = rules({"history": "object", "plan": "object", "profile": "object", "variables": "id_map",
                   "annotations": "annotations"})


@dataclass
class Checkpoint:
    """Parsed checkpoint container."""

    history: HistoryGraph
    plan: ReplicationPlan
    profile: CostProfile
    variables: dict[str, int]  # migrated name -> root object id (original ids)
    annotations: dict[str, str]
    objects: dict[int, HeapObject]  # payload records keyed by original id


def _groups(names, index: NameIndex) -> dict[str, set[str]]:
    """Each of ``names``' linked group, by one union-find over the names
    that reach each object of ``index``."""
    return {n: group for group in linked_groups(names, index.names.values()) for n in group}


@dataclass
class RestoreResult:
    """The restored session, which runs the trace's programs as recorded,
    and the stored variables recomputed after failing to load."""

    session: Session
    fallback_recomputed: list[str] = field(default_factory=list)


# -- payload codec ------------------------------------------------------------
# One JSON record per object: [id, kind, flags, size_bytes, value, label1,
# child1, label2, child2, ...], where flags holds serializable (1),
# deserializable (2) and hashable (4). The section is the records' array
# without its outer brackets, so an empty payload is 0 bytes.

_RECORD = rules({"id": "object_id", "kind": "kind", "flags": "flags", "size_bytes": "size", "value": "any"},
                positional=True)
# (serializable, deserializable, hashable) for each value of flags
_FLAGS = tuple((bool(flags & 1), bool(flags & 2), bool(flags & 4)) for flags in range(8))


def _record(obj: HeapObject) -> list:
    flags = obj.serializable | obj.deserializable << 1 | obj.hashable << 2
    record = [obj.id, obj.kind, flags, obj.size_bytes, obj.value]
    for slot in obj.slots.items():
        record += slot
    return record


def _decode_objects(payload: bytes) -> dict[int, HeapObject]:
    """The payload's objects by id; raises FormatError (or the InvalidHeapOp
    of an impossible object) unless every record is well formed, no id
    appears twice and every slot names a stored object."""
    objects: dict[int, HeapObject] = {}
    for i, record in enumerate(json.loads(b"[" + payload + b"]")):
        if type(record) is not list or len(record) < 5 or not len(record) % 2:
            raise FormatError(f"payload[{i}]: not a list [id, kind, flags, size_bytes, value, label1, child1, ...]")
        if not _RECORD.valid(record):
            check_fields(record, _RECORD, f"payload[{i}]")
        oid, kind, flags, size, value = record[:5]
        slots = {}
        if len(record) > 5:
            labels, children = record[5::2], record[6::2]
            # the types of the labels and of the children, each set built in C
            if (set(map(type, labels)) != {str} or set(map(type, children)) != {int}
                    or min(children) < 0 or max(children) >= _U64):
                raise FormatError(f"payload[{i}]: a slot label is not a string or a child not an object id")
            slots = dict(zip(labels, children))
        if oid in objects or 2 * len(slots) < len(record) - 5:
            raise FormatError(f"payload stores object {oid!r} or one of its slot labels twice")
        # positional, with the flags looked up: a keyword call costs twice as much
        objects[oid] = HeapObject(oid, kind, value, slots, size, *_FLAGS[flags])
    dangling = {child for obj in objects.values() for child in obj.slots.values()} - objects.keys()
    if dangling:
        raise FormatError(f"payload slots name absent objects {sorted(dangling)}")
    return objects


# -- writing ------------------------------------------------------------------


def write_checkpoint(session: Session, plan: ReplicationPlan, path: str | Path) -> Checkpoint:
    """Write the session's checkpoint file for the given plan.

    The payload holds the union of the migrated variables' reachable sets,
    each object exactly once, sorted by id, so aliases among them survive a
    round trip; the sets are the session's name index's (``current_index``).
    Raises the reader's FormatError for a plan it would refuse, and for one
    that splits linked names: an active name it does not store reaches an
    object it stores, which a restore would leave as two objects. Raises
    SerializationError if an unserializable object, or one under a negative
    id no recording made, slipped into the migrate closure. Nothing is
    written when it raises.
    """
    heap = session.heap
    index = current_index(session)
    closure: set[int] = set()
    variables: dict[str, int] = {}
    for name in sorted(plan.migrate):
        variables[name] = heap.root(name)
        closure |= index.closures[name]
    for oid in closure:
        if not heap.objects[oid].serializable:
            raise SerializationError(f"object {oid} in the migrate closure is not serializable")
        if oid < 0:  # a rerun copy, left live by a restore that verify rejects
            raise SerializationError(f"object {oid} in the migrate closure has an id no recording made")

    checkpoint = Checkpoint(
        history=session.history,
        plan=plan,
        profile=session.profile,
        variables=variables,
        annotations=dict(session.annotations),
        objects={oid: heap.objects[oid] for oid in closure},
    )
    _check_consistent(checkpoint)
    split = (index.reaching(closure) - plan.migrate) & session.history.active_snapshots().keys()
    if split:
        raise FormatError(f"the plan splits linked names: {sorted(split)} reach stored objects but are not stored")
    manifest = {
        "history": session.history.to_manifest(),
        "plan": plan.to_json(),
        "profile": session.profile.to_json(),
        "variables": dict(sorted(variables.items())),
        "annotations": dict(sorted(session.annotations.items())),
    }
    manifest_bytes = _canon(manifest)
    records = [_record(heap.objects[oid]) for oid in sorted(closure)]
    payload = _canon(records)[1:-1]
    body = b"".join((
        MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(manifest_bytes)), manifest_bytes,
        struct.pack("<Q", len(payload)), payload,
    ))
    _replace_file(Path(path), body + hashlib.sha256(body).digest())
    return checkpoint


def _replace_file(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step: write a temporary file in
    the same directory, flush it to disk, then rename it over ``path``, so a
    reader finds the old file or the new one, never a part of either. On any
    error the temporary file is removed, ``path`` is left as it was, and
    an OSError that names a file names ``path``."""
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        f = open(tmp, "xb")  # before the inner try: a name taken is not ours to remove
        try:
            with f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as err:
        if err.filename is None:
            raise
        raise OSError(err.errno, err.strerror, str(path)) from err


def _sections(path: str | Path) -> tuple[bytes, bytes]:
    """The manifest and payload sections of a checkpoint file, after
    checking its magic and version, that the section lengths account for
    every byte, and that the digest matches."""
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
    except (struct.error, OverflowError) as err:  # OverflowError: a length past 2**63
        raise FormatError(f"{path}: corrupt checkpoint ({err})") from err
    payload_end = manifest_end + 8 + payload_len
    if len(raw) != payload_end + DIGEST_BYTES:
        raise FormatError(f"{path}: {len(raw)} bytes, not the {payload_end + DIGEST_BYTES} its header gives")
    if hashlib.sha256(memoryview(raw)[:payload_end]).digest() != raw[payload_end:]:
        raise FormatError(f"{path}: digest mismatch")
    return raw[20:manifest_end], raw[manifest_end + 8 : payload_end]


@collector_paused()
def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a checkpoint file; raises FormatError, naming the path, when it
    is malformed."""
    manifest_bytes, payload = _sections(path)
    try:
        manifest = json.loads(manifest_bytes)
        check_fields(manifest, _MANIFEST, "")
        checkpoint = Checkpoint(
            history=HistoryGraph.from_manifest(manifest["history"]),
            plan=ReplicationPlan.from_json(manifest["plan"]),
            profile=CostProfile.from_json(manifest["profile"]),
            variables=manifest["variables"],
            annotations=manifest["annotations"],
            objects=_decode_objects(payload),
        )
        _check_consistent(checkpoint)
    except (StatecutError, LookupError, TypeError, ValueError, AttributeError, RecursionError) as err:
        raise FormatError(f"{path}: invalid checkpoint ({type(err).__name__}: {err})") from err
    return checkpoint


def _check_consistent(checkpoint: Checkpoint) -> None:
    """Raise FormatError unless the plan, the variable table, the lineage and
    the payload agree: the plan reruns only recorded cells and stores exactly
    the table's variables, each of them active, with its root in the payload."""
    plan, variables, history = checkpoint.plan, checkpoint.variables, checkpoint.history
    if set(plan.rerun) - history.cells.keys():
        raise FormatError(f"plan reruns cells the lineage does not record: {plan.rerun}")
    if plan.migrate != variables.keys():
        raise FormatError("plan.migrate differs from the stored variables")
    if set(variables.values()) - checkpoint.objects.keys():
        raise FormatError("a stored variable's root is not in the payload")
    inactive = variables.keys() - history.active_snapshots().keys()
    if inactive:
        raise FormatError(f"stored variables without an active snapshot: {sorted(inactive)}")


def payload_bytes(path: str | Path) -> int:
    """Size in bytes of a checkpoint file's payload section."""
    return len(_sections(path)[1])


# -- restoring ----------------------------------------------------------------


def recovery_cells(checkpoint: Checkpoint, failed: set[str],
                   groups: dict[str, set[str]]) -> tuple[set[str], list[int]]:
    """A restore's moved names and rerun list: the failed variables' linked
    groups (``groups``, each stored name's group as ``_groups`` gives it
    over the payload's name index) move to recomputation, and the lineage
    yields the cells that rebuild every active variable not loaded from the
    loaded ones. A blocked walk is Unreconstructable, or a FormatError of
    the stored plan if none failed.
    """
    moved: set[str] = set()
    for name in failed:
        moved |= groups[name]
    active = checkpoint.history.active_snapshots()
    loaded = {active[n] for n in checkpoint.variables.keys() - moved}
    try:
        cells = checkpoint.history.rerun_cells_from(set(active.values()), loaded, require_rerunnable=True)
    except Unreconstructable as err:
        if not failed:
            raise FormatError(f"the stored plan needs a cell a rerun cannot reproduce: {err}") from err
        raise Unreconstructable(sorted(failed)[0], blocked_at=err.blocked_at) from err
    return moved, [c.t for c in cells]


def _replay(heap: SimHeap, cells: list[CellExecution], programs: dict[str, CellProgram],
            current: dict[int, int]) -> None:
    """Replay the recorded ops of ``cells``, in order, through one
    ``SimHeap.apply`` call, under their recorded ids (``current``); a fault
    names the cell whose op raised it.

    A cell that failed replays the ops that ran before its failing op.
    Deletions carry no lineage edges, so an unbound name may never have been
    rebuilt here, and its absence satisfies the unbind: each unbind is
    tested when ``apply`` reaches it, after every op before it ran."""
    if not cells:
        return
    namespace = heap.namespace
    at = [cells[0]]  # the cell whose op ``apply`` runs

    def ops():
        for cell in cells:
            at[0] = cell
            for op in programs[cell.code_ref].ops[: cell.failed_at]:
                if op.op != "unbind" or op.name in namespace:
                    yield op

    try:
        heap.apply(ops(), current)
    except StatecutError as err:
        # the ops ran before: the lineage and the trace disagree
        raise FormatError(f"cell {at[0].t} ({at[0].code_ref!r}) fails on replay: {err}") from err


@collector_paused()
def restore(
    checkpoint: Checkpoint,
    programs: dict[str, CellProgram],
    *,
    deserialization_fault: Callable[[str], bool] | None = None,
) -> RestoreResult:
    """Rebuild the checkpointed session state on a fresh heap.

    First tries each stored variable in declaration order (the timestamp of
    its active snapshot, then name): a variable fails to load when its
    payload holds an undeserializable object or the injected fault fires for
    it, and each failure moves its whole linked group to the rerun side
    unless an earlier failure already moved it. Then loads the objects the
    variables still stored reach, under their own ids, and walks the
    original timestamps once: cells on the rerun list of ``recovery_cells``,
    never the stored plan's, replay their recorded ops under their recorded
    ids, and each variable still stored is declared right after the
    timestamp of its active snapshot. The rerun cells between two
    declarations replay through one ``SimHeap.apply`` call (``_replay``),
    so a restore makes at most one call per declaration point, plus one; a
    replay fault names its cell. A rerun cell without its program in
    ``programs`` is a MissingCellProgram before anything replays. The
    restored session records on its own copy of the checkpoint's lineage,
    whose clock gives its next cell the timestamp the original's would get.
    Each stored closure is walked once, by one name index over the payload,
    which also gives the linked groups when a variable fails to load. The
    restore keeps neither: a checkpoint may be held after its restore.
    """
    history = checkpoint.history
    active = history.active_snapshots()
    objects = checkpoint.objects
    index = NameIndex(objects, checkpoint.variables)
    closures = index.closures
    undeserializable = {oid for oid, obj in objects.items() if not obj.deserializable}
    groups: dict[str, set[str]] = {}
    fallbacks: list[str] = []
    moved: set[str] = set()
    for name in sorted(checkpoint.variables, key=lambda n: (active[n].t, n)):
        if name in moved:
            continue
        if not undeserializable.isdisjoint(closures[name]) or (
            deserialization_fault is not None and deserialization_fault(name)
        ):
            fallbacks.append(name)
            groups = groups or _groups(checkpoint.variables, index)
            moved |= groups[name]
    try:
        moved, cells = recovery_cells(checkpoint, set(fallbacks), groups)
    except Unreconstructable:
        # name the first failure, in declaration order, whose group is blocked
        for name in fallbacks:
            recovery_cells(checkpoint, {name}, groups)
        raise
    rerun = set(cells)
    missing = [history.cells[t].code_ref for t in cells if history.cells[t].code_ref not in programs]
    if missing:
        raise MissingCellProgram(f"trace archive lacks cell {missing[0]!r} needed for rerun")

    declare_at: dict[int, list[str]] = {}
    stored: set[int] = set()
    for name in sorted(checkpoint.variables.keys() - moved):
        declare_at.setdefault(active[name].t, []).append(name)
        stored |= closures[name]
    # every object a stored variable reaches, under its own id; ops reach
    # one only once its variable's declaration enters it in ``current``.
    # Each is a copy, as one checkpoint may be restored twice, built with
    # positional arguments, which cost half what keywords do.
    heap = SimHeap()
    for oid, obj in objects.items():
        if oid in stored:
            heap.add_object(HeapObject(oid, obj.kind, obj.value, dict(obj.slots), obj.size_bytes,
                                       obj.serializable, obj.deserializable, obj.hashable))
    current: dict[int, int] = {}  # recorded id -> the object ops reach by it
    stretch: list[CellExecution] = []  # rerun cells since the last declaration
    for cell in history.cells.values():
        if cell.t in rerun:
            stretch.append(cell)
        names = declare_at.get(cell.t)
        if names:
            _replay(heap, stretch, programs, current)
            stretch = []
            for name in names:
                heap.bind(name, checkpoint.variables[name])
                closure = closures[name]
                current.update(zip(closure, closure))
    _replay(heap, stretch, programs, current)

    for name in set(heap.namespace) - set(active):
        heap.unbind(name)
    unbuilt = active.keys() - heap.namespace.keys()
    if unbuilt:
        raise FormatError(f"no stored copy or replayed cell binds the live variables {sorted(unbuilt)}")
    heap.collect_garbage()

    session = Session(
        heap=heap,
        history=history.copy(),
        profile=checkpoint.profile,
        annotations=dict(checkpoint.annotations),
    )
    return RestoreResult(session=session, fallback_recomputed=fallbacks)


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
    relation: dict[int, set[int]],
    diffs: dict[str, str],
) -> None:
    """Walk two object graphs in step, depth first and slots in order, from
    one pair of roots, adding each pair to ``relation``. The stack keeps deep
    graphs off the call stack; each pair is compared once, under the first
    path that reaches it."""
    stack = [(old_id, new_id, path)]
    while stack:
        old_id, new_id, path = stack.pop()
        news = relation.setdefault(old_id, set())
        if new_id in news:
            continue
        news.add(new_id)
        old = original.objects[old_id]
        new = restored.objects[new_id]
        if old.kind != new.kind:
            diffs[path] = f"kind {old.kind} != {new.kind}"
            continue
        if old.kind == "opaque" and old.size_bytes != new.size_bytes:
            diffs[path] = f"opaque size {old.size_bytes} != {new.size_bytes}"
            continue
        if old.kind != "container":
            # equal exactly when the value hash says so: NaN equals NaN, 1 is not 1.0
            if not same_canon(old.value, new.value):
                diffs[path] = f"value {old.value!r} != {new.value!r}"
            continue
        old_labels = list(old.slots)
        new_labels = list(new.slots)
        if old_labels != new_labels:
            diffs[path] = f"slots {old_labels} != {new_labels}"
        # pushed in reverse, so the first slot's subgraph is walked first
        for label in reversed(old_labels):
            if label in new.slots:
                stack.append((old.slots[label], new.slots[label], f"{path}.{label}"))


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
    for name in sorted(set(original.namespace) & set(restored.namespace)):
        _compare_values(
            original, restored,
            original.namespace[name], restored.namespace[name],
            name, relation, report.value_diffs,
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
