"""Simulated kernel state.

A ``SimHeap`` stands in for an interpreter namespace: named variables bind to
objects, objects reference each other through labelled slots, and per-object
metadata (size, serializability, hashability) drives everything downstream.
ID graphs fingerprint the reference structure reachable from a variable so
aliases and reference swaps can be detected independently of values; value
hashes fingerprint values independently of object identity.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, KeysView, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidHeapOp, RootMismatch, UnknownObject, UnknownVariable

ObjectId = int

KINDS = ("scalar", "container", "opaque")


@dataclass
class HeapObject:
    """One live object: a scalar value, a container of slots, or an opaque blob."""

    id: ObjectId
    kind: str
    value: object = None
    slots: dict[str, ObjectId] = field(default_factory=dict)  # insertion-ordered
    size_bytes: int = 0
    serializable: bool = True
    deserializable: bool = True
    hashable: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidHeapOp(f"unknown object kind {self.kind!r}")
        if self.size_bytes < 0:
            raise InvalidHeapOp("size_bytes must be non-negative")
        if self.deserializable and not self.serializable:
            # An undeserializable object serializes but fails on load; a
            # non-serializable object never gets that far.
            raise InvalidHeapOp("deserializable object must be serializable")
        if self.kind != "container" and self.slots:
            raise InvalidHeapOp("only containers hold slots")


class HeapOp(NamedTuple):
    """One trace-level mutation of the heap.

    ``op`` is one of: create, bind, unbind, set_slot, clear_slot, set_value.
    Unused fields stay at their defaults. A tuple, like the snapshots: a
    trace holds tens of thousands of ops, and a tuple is built in under a
    third of the time of a frozen dataclass.
    """

    op: str
    id: ObjectId | None = None
    name: str | None = None
    kind: str | None = None
    value: object = None
    size_bytes: int = 0
    serializable: bool = True
    deserializable: bool = True
    hashable: bool = True
    parent_id: ObjectId | None = None
    slot: str | None = None
    child_id: ObjectId | None = None


class MutationRecord:
    """Names and objects touched by one batch of heap ops, plus the undo log:
    the value and slots (the only fields an op changes in place) each object
    had before its first change in the batch, and each (un)bound name's root
    before the batch (None if it was unbound). ``run_cell`` compares the
    logged value and slots with the live ones to tell what the batch
    changed. A plain class with slots: every ``apply`` makes one, and a
    dataclass with default factories costs about a third more to build."""

    __slots__ = ("unbound", "created", "linked", "undo", "old_roots")

    def __init__(self) -> None:
        self.unbound: set[str] = set()
        self.created: set[ObjectId] = set()
        self.linked: set[ObjectId] = set()  # bound to a name or put in a slot
        self.undo: dict[ObjectId, tuple[object, dict[str, ObjectId]]] = {}
        self.old_roots: dict[str, ObjectId | None] = {}

    @property
    def touched(self) -> KeysView[ObjectId]:
        """The objects the batch changed in place."""
        return self.undo.keys()


def reachable_ids(objects: Mapping[ObjectId, HeapObject], root: ObjectId) -> set[ObjectId]:
    """Transitive closure over slots from ``root``, root included."""
    seen = {root}
    frontier = [root]
    while frontier:
        for child in objects[frontier.pop()].slots.values():
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


class NameIndex:
    """Each name's closure over ``objects``, given each name's root, and
    its inverse: which names reach each object.

    ``closures`` holds every bound name's closure as of its last ``move``;
    ``names`` has no entry for an object no name reaches. ``unhashable``
    holds the objects of ``names`` whose ``hashable`` flag is false: an
    object enters it when it first enters ``names`` and leaves it with its
    last name, and no op changes the flag of a live object. ``version`` is
    left to the index's keeper: ``run_cell`` keeps the session's index
    current and records there the heap version it agrees with, and
    ``monitor.current_index`` rebuilds it in its place when the heap moved
    since.
    """

    def __init__(self, objects: Mapping[ObjectId, HeapObject], roots: Mapping[str, ObjectId]):
        self._objects = objects
        self.names: dict[ObjectId, set[str]] = {}
        self.closures: dict[str, set[ObjectId]] = {}
        self.unhashable: set[ObjectId] = set()
        for name, root in roots.items():
            closure = self.closures[name] = reachable_ids(objects, root)
            self._enter(name, closure)
        self.version: int | None = None

    def reaching(self, oids) -> set[str]:
        """Every name that reaches one of ``oids``."""
        found: set[str] = set()
        for oid in oids:
            names = self.names.get(oid)
            if names:
                found |= names
        return found

    def move(self, name: str, after: set[ObjectId]) -> set[ObjectId]:
        """Record that ``name`` now reaches ``after``, which the index keeps
        (empty: the name is unbound); returns the objects it no longer
        reaches."""
        before = self.closures.pop(name, set())
        if after:
            self.closures[name] = after
        index, unhashable = self.names, self.unhashable
        left = before - after
        for oid in left:
            names = index[oid]
            names.discard(name)
            if not names:
                del index[oid]
                unhashable.discard(oid)
        self._enter(name, after - before)
        return left

    def _enter(self, name: str, oids: set[ObjectId]) -> None:
        """Record that ``name`` reaches ``oids``, which it did not before."""
        index, objects = self.names, self._objects
        for oid in oids:
            names = index.get(oid)
            if names is None:
                index[oid] = {name}
                if not objects[oid].hashable:
                    self.unhashable.add(oid)
            else:
                names.add(name)


def _mapped(ids: dict[ObjectId, ObjectId], oid: ObjectId) -> ObjectId:
    """The heap's id for the recorded ``oid``: its entry in ``ids``."""
    try:
        return ids[oid]
    except KeyError:
        raise UnknownObject(f"op names object {oid}, which no earlier op created") from None


class SimHeap:
    """Object heap plus variable namespace for one simulated session."""

    def __init__(self) -> None:
        self.objects: dict[ObjectId, HeapObject] = {}
        self.namespace: dict[str, ObjectId] = {}
        self._next_id: ObjectId = -1
        # bumped by every method that changes the heap, so a reader that
        # keeps derived state can tell whether the heap moved under it
        self.version = 0

    def allocate_id(self) -> ObjectId:
        """Return an id no recording made: the next one below zero, as no
        trace or checkpoint id is negative. A restore gives one to a rerun
        copy of an object whose stored copy holds its recorded id."""
        oid = self._next_id
        self._next_id = oid - 1
        return oid

    def get(self, oid: ObjectId) -> HeapObject:
        try:
            return self.objects[oid]
        except KeyError:
            raise UnknownObject(f"no object with id {oid}") from None

    def root(self, name: str) -> ObjectId:
        try:
            return self.namespace[name]
        except KeyError:
            raise UnknownVariable(f"variable {name!r} is not bound") from None

    def add_object(self, obj: HeapObject) -> HeapObject:
        if obj.id in self.objects:
            raise InvalidHeapOp(f"object id {obj.id} already live")
        self.objects[obj.id] = obj
        self.version += 1
        return obj

    def bind(self, name: str, oid: ObjectId) -> None:
        self.get(oid)
        self.namespace[name] = oid
        self.version += 1

    def unbind(self, name: str) -> None:
        if name not in self.namespace:
            raise UnknownVariable(f"variable {name!r} is not bound")
        del self.namespace[name]
        self.version += 1

    def reachable(self, name: str) -> set[ObjectId]:
        """Transitive closure over slots from the variable's root, root included."""
        return reachable_ids(self.objects, self.root(name))

    def apply(self, ops: Iterable[HeapOp], ids: dict[ObjectId, ObjectId] | None = None) -> MutationRecord:
        """Apply ops in order; on error, the raised exception carries the
        partial MutationRecord as ``.partial`` and the failing op's position
        as ``.op_index`` (the ops before it took effect, it did not).

        With ``ids``, the ops name objects by the ids of the run that
        recorded them: each create keeps its recorded id unless a live object
        holds it, and then takes ``allocate_id()``; it records the id it took
        in ``ids``, and every other object id is looked up there
        (UnknownObject if absent). The record holds this heap's ids.

        The monitor, restore and ``gen`` all run their ops here, so the loop
        is written out flat: each op costs no method call, and each of its
        fields is read once (a tuple field costs a descriptor call)."""
        record = MutationRecord()
        self.version += 1
        objects, namespace, undo, old_roots = self.objects, self.namespace, record.undo, record.old_roots
        link, index = record.linked.add, 0
        try:
            for index, op in enumerate(ops):
                action = op.op
                if action == "create":
                    recorded = oid = op.id
                    if ids is not None:
                        if oid in objects:  # a trace creates each id once: the stored copy holds it
                            oid = self.allocate_id()
                        ids[recorded] = oid
                    # positional, in HeapObject's field order: called with
                    # keywords, a class gets them as a dict, which doubles the cost
                    obj = HeapObject(oid, op.kind, op.value, {},
                                     op.size_bytes, op.serializable, op.deserializable, op.hashable)
                    if oid in objects:
                        raise InvalidHeapOp(f"object id {oid} already live")
                    objects[oid] = obj
                    record.created.add(oid)
                elif action == "bind":
                    name, oid = op.name, op.id
                    root = oid if ids is None else _mapped(ids, oid)
                    if root not in objects:
                        raise UnknownObject(f"no object with id {root}")
                    old_roots.setdefault(name, namespace.get(name))
                    namespace[name] = root
                    link(root)
                elif action == "unbind":
                    name = op.name
                    if name not in namespace:
                        raise UnknownVariable(f"variable {name!r} is not bound")
                    old_roots.setdefault(name, namespace.pop(name))
                    record.unbound.add(name)
                elif action == "set_slot":
                    parent_id, child_id = op.parent_id, op.child_id
                    key = parent_id if ids is None else _mapped(ids, parent_id)
                    parent = objects.get(key)
                    if parent is None:
                        raise UnknownObject(f"no object with id {key}")
                    if parent.kind != "container":
                        raise InvalidHeapOp(f"object {parent_id} is not a container")
                    child = child_id if ids is None else _mapped(ids, child_id)
                    if child not in objects:
                        raise UnknownObject(f"no object with id {child}")
                    if key not in undo:
                        undo[key] = (parent.value, dict(parent.slots))
                    link(child)
                    parent.slots[op.slot] = child
                elif action == "clear_slot":
                    parent_id, slot = op.parent_id, op.slot
                    key = parent_id if ids is None else _mapped(ids, parent_id)
                    parent = objects.get(key)
                    if parent is None:
                        raise UnknownObject(f"no object with id {key}")
                    slots = parent.slots
                    if slot not in slots:
                        raise InvalidHeapOp(f"object {parent_id} has no slot {slot!r}")
                    if key not in undo:
                        undo[key] = (parent.value, dict(slots))
                    del slots[slot]
                elif action == "set_value":
                    oid = op.id
                    key = oid if ids is None else _mapped(ids, oid)
                    obj = objects.get(key)
                    if obj is None:
                        raise UnknownObject(f"no object with id {key}")
                    if obj.kind == "container":
                        raise InvalidHeapOp("containers carry values through slots")
                    if key not in undo:
                        undo[key] = (obj.value, dict(obj.slots))
                    obj.value = op.value
                else:
                    raise InvalidHeapOp(f"unknown op {action!r}")
        except (UnknownVariable, UnknownObject, InvalidHeapOp) as err:
            err.partial = record
            err.op_index = index
            raise
        return record

    def collect_garbage(self) -> set[ObjectId]:
        """Mark-and-sweep from the namespace; returns the ids swept away."""
        live: set[ObjectId] = set()
        for oid in self.namespace.values():
            if oid not in live:
                live |= reachable_ids(self.objects, oid)
        dead = set(self.objects) - live
        for oid in dead:
            del self.objects[oid]
        self.version += 1
        return dead


@dataclass(frozen=True)
class IdGraph:
    """Reference-structure fingerprint of one variable.

    Nodes are the object ids reachable from the root; edges are the labelled
    slot references among them. Equality of two snapshots over the same heap
    means the variable's reference structure did not change.
    """

    root_name: str
    root_id: ObjectId
    nodes: frozenset[ObjectId]
    edges: frozenset[tuple[ObjectId, str, ObjectId]]


def build_id_graph(heap: SimHeap, name: str) -> IdGraph:
    """Snapshot the reference structure reachable from ``name``."""
    root = heap.root(name)
    nodes = reachable_ids(heap.objects, root)
    edges = set()
    for oid in nodes:
        for label, child in heap.objects[oid].slots.items():
            edges.add((oid, label, child))
    return IdGraph(name, root, frozenset(nodes), frozenset(edges))


def id_graphs_overlap(g1: IdGraph, g2: IdGraph) -> bool:
    """True iff the two variables share at least one object."""
    small, large = (g1.nodes, g2.nodes) if len(g1.nodes) <= len(g2.nodes) else (g2.nodes, g1.nodes)
    return any(n in large for n in small)


def id_graph_changed(old: IdGraph, new: IdGraph) -> bool:
    """True iff a reference swap occurred between the two snapshots.

    Compares node and edge sets only; value mutations leave both unchanged.
    """
    if old.root_name != new.root_name:
        raise RootMismatch(f"{old.root_name!r} vs {new.root_name!r}")
    return old.root_id != new.root_id or old.nodes != new.nodes or old.edges != new.edges


# ``json.dumps`` given any non-default argument builds an encoder per call,
# which costs as much again as the encoding of a small value
_CANON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canon(value: object) -> bytes:
    """``value`` as compact JSON with sorted keys: the bytes of
    ``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
    return _CANON_ENCODER.encode(value).encode()


def same_canon(a: object, b: object) -> bool:
    """Whether ``a`` and ``b`` have the same canonical form, the bytes of
    ``_canon``: the one test of "same value" that the value hash makes.
    Two exact ints, or two exact strs, have the same form exactly when they
    are equal, so they skip the encoding; any other pair compares its bytes,
    so NaN equals NaN, -0.0 is not 0.0, and 1, 1.0 and True all differ."""
    kind = type(a)
    if kind is type(b) and (kind is int or kind is str):
        return a == b
    return _canon(a) == _canon(b)


def _digest(parts: list[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return h.digest()


def subgraph_hash(objects: Mapping[ObjectId, HeapObject], root: ObjectId) -> int | None:
    """Stable 64-bit hash over the values and shape reachable from ``root``.

    ``objects`` may be the live heap's or an earlier copy of it
    (``PreSnapshot``'s). Identity-blind: relabeling every
    object id leaves the hash unchanged. Children fold in sorted slot-label
    order; cycles are cut by hashing a back-edge marker carrying the DFS
    discovery index of the target. Returns None if any reachable object is
    unhashable.
    """
    order: dict[ObjectId, int] = {}
    memo: dict[ObjectId, bytes] = {}
    stack: list[tuple[ObjectId, bool]] = [(root, False)]
    while stack:
        oid, finalize = stack.pop()
        obj = objects[oid]
        if not obj.hashable:
            return None
        slots = obj.slots
        labels = sorted(slots)
        if not finalize:
            if oid in order:
                continue
            order[oid] = len(order)
            stack.append((oid, True))
            for label in reversed(labels):
                child = slots[label]
                if child not in order:
                    stack.append((child, False))
            continue
        parts = [obj.kind.encode(), _canon(obj.value)]
        if obj.kind == "opaque":
            parts.append(str(obj.size_bytes).encode())
        for label in labels:
            child = slots[label]
            parts.append(label.encode())
            if child in memo:
                parts.append(memo[child])
            else:
                # back edge to an ancestor still on the DFS stack
                parts.append(b"^" + str(order[child]).encode())
        memo[oid] = _digest(parts)
    return int.from_bytes(memo[root], "little")


def value_hash(heap: SimHeap, name: str) -> int | None:
    """Hash the heap's subgraph reachable from ``name``."""
    return subgraph_hash(heap.objects, heap.root(name))
