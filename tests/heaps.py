"""Heap builders shared across test modules."""

import random

from statecut.heap import HeapOp, SimHeap


def make_object(heap: SimHeap, oid: int, kind: str = "scalar", value=0, size=8,
                serializable=True, deserializable=None, hashable=True) -> int:
    if deserializable is None:
        deserializable = serializable
    heap.apply([HeapOp(
        op="create", id=oid, kind=kind, value=value if kind == "scalar" else None,
        size_bytes=size, serializable=serializable,
        deserializable=deserializable, hashable=hashable,
    )])
    return oid


def random_heap(rng: random.Random, n_objects: int = 50, n_names: int = 8,
                edge_prob: float = 0.15, allow_cycles: bool = False) -> SimHeap:
    """Random object graph with named roots; a DAG unless cycles are allowed."""
    heap = SimHeap()
    for oid in range(1, n_objects + 1):
        kind = rng.choice(["scalar", "container", "container"])
        make_object(heap, oid, kind=kind, value=rng.randint(0, 99), size=rng.randint(1, 100))
    for oid in range(1, n_objects + 1):
        if heap.objects[oid].kind != "container":
            continue
        for target in range(1, n_objects + 1):
            legal = target > oid or allow_cycles
            if legal and target != oid and rng.random() < edge_prob:
                heap.apply([HeapOp(op="set_slot", parent_id=oid, slot=f"s{target}",
                                   child_id=target)])
    for i in range(n_names):
        heap.apply([HeapOp(op="bind", name=f"n{i}", id=rng.randint(1, n_objects))])
    heap.collect_garbage()
    return heap
