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
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import combinations

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


@dataclass(frozen=True)
class HeapOp:
    """One trace-level mutation of the heap.

    ``op`` is one of: create, bind, unbind, set_slot, clear_slot, set_value.
    Unused fields stay at their defaults.
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


@dataclass
class MutationRecord:
    """Names and objects touched by one batch of heap ops, plus the undo log:
    the value and slots (the only fields an op changes in place) each object
    had before its first change in the batch, and each (un)bound name's root
    before the batch (None if it was unbound). The log over the untouched
    live heap is the heap as it stood before the batch (``HeapBefore``)."""

    bound: set[str] = field(default_factory=set)
    unbound: set[str] = field(default_factory=set)
    created: set[ObjectId] = field(default_factory=set)
    touched: set[ObjectId] = field(default_factory=set)
    undo: dict[ObjectId, tuple[object, dict[str, ObjectId]]] = field(default_factory=dict)
    old_roots: dict[str, ObjectId | None] = field(default_factory=dict)

    def log(self, obj: HeapObject) -> None:
        """Keep ``obj``'s value and slots, unless the batch already changed it."""
        self.touched.add(obj.id)
        if obj.id not in self.undo:
            self.undo[obj.id] = (obj.value, dict(obj.slots))


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
    """Which names reach each object of ``objects``, given each name's root.

    Objects no name reaches have no entry. ``version`` is left to the
    index's keeper: ``run_cell`` keeps the session's index current and
    records there the heap version it agrees with.
    """

    def __init__(self, objects: Mapping[ObjectId, HeapObject], roots: Mapping[str, ObjectId]):
        self.names: dict[ObjectId, set[str]] = {}
        for name, root in roots.items():
            self.move(name, set(), reachable_ids(objects, root))
        self.version: int | None = None

    def reaching(self, oids) -> set[str]:
        """Every name that reaches one of ``oids``."""
        found: set[str] = set()
        for oid in oids:
            names = self.names.get(oid)
            if names:
                found |= names
        return found

    def shared_pairs(self) -> set[tuple[str, str]]:
        """Sorted pairs of names that reach a common object."""
        pairs: set[tuple[str, str]] = set()
        for names in self.names.values():
            if len(names) > 1:
                pairs.update(combinations(sorted(names), 2))
        return pairs

    def move(self, name: str, before: set[ObjectId], after: set[ObjectId]) -> set[ObjectId]:
        """Record that ``name`` now reaches ``after`` instead of ``before``;
        returns the objects it no longer reaches."""
        index = self.names
        left = before - after
        for oid in left:
            names = index[oid]
            names.discard(name)
            if not names:
                del index[oid]
        for oid in after - before:
            names = index.get(oid)
            if names is None:
                index[oid] = {name}
            else:
                names.add(name)
        return left


class SimHeap:
    """Object heap plus variable namespace for one simulated session."""

    def __init__(self) -> None:
        self.objects: dict[ObjectId, HeapObject] = {}
        self.namespace: dict[str, ObjectId] = {}
        self._next_id: ObjectId = 1
        # bumped by every method that changes the heap, so a reader that
        # keeps derived state can tell whether the heap moved under it
        self.version = 0

    def allocate_id(self) -> ObjectId:
        """Return a fresh object id (never reused within this heap)."""
        oid = self._next_id
        self._next_id += 1
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
        self._next_id = max(self._next_id, obj.id + 1)
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
        return self.reachable_from(self.root(name))

    def reachable_from(self, oid: ObjectId) -> set[ObjectId]:
        self.get(oid)
        return reachable_ids(self.objects, oid)

    def apply(self, ops: list[HeapOp]) -> MutationRecord:
        """Apply ops in order; on error, the raised exception carries the
        partial MutationRecord as ``.partial``."""
        record = MutationRecord()
        self.version += 1
        for op in ops:
            try:
                self._apply_one(op, record)
            except (UnknownVariable, UnknownObject, InvalidHeapOp) as err:
                err.partial = record
                raise
        return record

    def _apply_one(self, op: HeapOp, record: MutationRecord) -> None:
        if op.op == "create":
            obj = HeapObject(
                id=op.id,
                kind=op.kind,
                value=op.value,
                size_bytes=op.size_bytes,
                serializable=op.serializable,
                deserializable=op.deserializable,
                hashable=op.hashable,
            )
            self.add_object(obj)
            record.created.add(op.id)
        elif op.op == "bind":
            old = self.namespace.get(op.name)
            self.bind(op.name, op.id)
            record.bound.add(op.name)
            record.old_roots.setdefault(op.name, old)
        elif op.op == "unbind":
            old = self.namespace.get(op.name)
            self.unbind(op.name)
            record.unbound.add(op.name)
            record.old_roots.setdefault(op.name, old)
        elif op.op == "set_slot":
            parent = self.get(op.parent_id)
            if parent.kind != "container":
                raise InvalidHeapOp(f"object {op.parent_id} is not a container")
            self.get(op.child_id)
            record.log(parent)
            parent.slots[op.slot] = op.child_id
        elif op.op == "clear_slot":
            parent = self.get(op.parent_id)
            if op.slot not in parent.slots:
                raise InvalidHeapOp(f"object {op.parent_id} has no slot {op.slot!r}")
            record.log(parent)
            del parent.slots[op.slot]
        elif op.op == "set_value":
            obj = self.get(op.id)
            if obj.kind == "container":
                raise InvalidHeapOp("containers carry values through slots")
            record.log(obj)
            obj.value = op.value
        else:
            raise InvalidHeapOp(f"unknown op {op.op!r}")

    def collect_garbage(self) -> set[ObjectId]:
        """Mark-and-sweep from the namespace; returns the ids swept away."""
        live: set[ObjectId] = set()
        for oid in self.namespace.values():
            if oid not in live:
                live |= self.reachable_from(oid)
        dead = set(self.objects) - live
        for oid in dead:
            del self.objects[oid]
        self.version += 1
        return dead


class HeapBefore:
    """Read-only view of a heap as it stood before one batch of ops: the
    batch's undo log laid over the live heap. It offers what the ID-graph
    and hashing functions read, ``root`` and ``objects``."""

    def __init__(self, heap: SimHeap, record: MutationRecord):
        self.objects: Mapping[ObjectId, HeapObject] = heap.objects
        if record.undo:
            earlier = {
                oid: replace(heap.objects[oid], value=value, slots=slots)
                for oid, (value, slots) in record.undo.items()
            }
            self.objects = ChainMap(earlier, heap.objects)
        self._namespace = heap.namespace
        self._old_roots = record.old_roots

    def root_or_none(self, name: str) -> ObjectId | None:
        if name in self._old_roots:
            return self._old_roots[name]
        return self._namespace.get(name)

    def root(self, name: str) -> ObjectId:
        oid = self.root_or_none(name)
        if oid is None:
            raise UnknownVariable(f"variable {name!r} was not bound")
        return oid


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


def build_id_graph(heap: SimHeap | HeapBefore, name: str) -> IdGraph:
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


def _canon(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _digest(parts: list[bytes]) -> bytes:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return h.digest()


FrozenObject = tuple  # (kind, value, slot items tuple, size_bytes, hashable)


def freeze_object(obj: HeapObject) -> FrozenObject:
    """Immutable view of an object's hash-relevant state at this instant."""
    return (obj.kind, obj.value, tuple(obj.slots.items()), obj.size_bytes, obj.hashable)


def subgraph_hash(root: ObjectId, get) -> int | None:
    """Stable 64-bit hash over the values and shape reachable from ``root``.

    ``get(oid)`` supplies a FrozenObject, so the hash can run against either
    the live heap or a pre-execution snapshot. Identity-blind: relabeling
    every object id leaves the hash unchanged. Children fold in sorted
    slot-label order; cycles are cut by hashing a back-edge marker carrying
    the DFS discovery index of the target. Returns None if any reachable
    object is unhashable.
    """
    order: dict[ObjectId, int] = {}
    memo: dict[ObjectId, bytes] = {}
    stack: list[tuple[ObjectId, bool]] = [(root, False)]
    while stack:
        oid, finalize = stack.pop()
        kind, value, slots, size_bytes, hashable = get(oid)
        if not hashable:
            return None
        labels = sorted(label for label, _ in slots)
        children = dict(slots)
        if not finalize:
            if oid in order:
                continue
            order[oid] = len(order)
            stack.append((oid, True))
            for label in reversed(labels):
                child = children[label]
                if child not in order:
                    stack.append((child, False))
            continue
        parts = [kind.encode(), _canon(value)]
        if kind == "opaque":
            parts.append(str(size_bytes).encode())
        for label in labels:
            child = children[label]
            parts.append(label.encode())
            if child in memo:
                parts.append(memo[child])
            else:
                # back edge to an ancestor still on the DFS stack
                parts.append(b"^" + str(order[child]).encode())
        memo[oid] = _digest(parts)
    return int.from_bytes(memo[root], "little")


def value_hash(heap: SimHeap | HeapBefore, name: str) -> int | None:
    """Hash the heap's subgraph reachable from ``name``."""
    root = heap.root(name)
    return subgraph_hash(root, lambda oid: freeze_object(heap.objects[oid]))
