"""Random session generator.

Produces deterministic, replayable traces with tunable alias density,
serialization hazards, never-rerun and nondeterministic cells, and cell
runtimes; they carry no annotations. Generated cells are
disciplined: every object an op touches is reachable from the cell's declared
reads or was created by the cell itself, so replaying the trace reproduces
the session exactly. Also hosts the false-dependency injector used to stress
the reconstruction superset guarantee; it adds its edges to a lineage's
manifest and reads the lineage back, as a checkpoint reader would.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import count

from .cost import CostProfile
from .heap import HeapOp, SimHeap
from .history import HistoryGraph
from .monitor import CellProgram
from .schema import collector_paused
from .trace import TraceFile

# a created root's shape, drawn at weights 3, 4 and 3: ``choices`` given the
# running sums draws the same and does not sum the weights per draw
_SHAPES = ("scalar", "container", "opaque")
_SHAPE_CUM_WEIGHTS = (3, 7, 10)


@dataclass
class GenParams:
    """Knobs for random session generation."""

    cells: int = 8
    variables: int = 6
    alias_density: float = 0.3
    unserializable_rate: float = 0.1
    undeserializable_rate: float = 0.0
    unhashable_rate: float = 0.05
    never_rerun_rate: float = 0.0
    nondet_rate: float = 0.0
    delete_rate: float = 0.05
    bandwidth_bytes_per_s: float = 1e6
    latency_s: float = 1e-4
    alpha: float = 1.0


def _remove_sorted(names: list[str], name: str) -> None:
    """Take ``name`` out of the sorted list ``names``, if it is there."""
    i = bisect_left(names, name)
    if i < len(names) and names[i] == name:
        del names[i]


class _TraceBuilder:
    def __init__(self, params: GenParams, rng: random.Random):
        self.params = params
        self.rng = rng
        # scratch replica kept in lockstep with the ops; never swept, since
        # every choice reads bound names and the closures they reach
        self.heap = SimHeap()
        self.ids = count(1)
        # nondeterministic outputs: later cells read them, but no cell
        # rebinds, unbinds or directly mutates the name
        self.frozen: set[str] = set()
        # the lists the draws pick from, each in the order its draw was
        # defined over: the pool's names less the frozen ones, in pool
        # order; the bound names, sorted; and those of them not frozen.
        # ``_apply`` and ``_nondet_cell`` keep them current, so a draw
        # rebuilds none of them
        self.pool = [f"v{i}" for i in range(params.variables)]
        self.bound: list[str] = []
        self.mutable: list[str] = []

    def _apply(self, ops: list[HeapOp]) -> None:
        """Run ``ops`` on the scratch replica, and enter each name they bound
        or take out each name they unbound."""
        namespace = self.heap.namespace
        for name, old in self.heap.apply(ops).old_roots.items():
            if old is None and name in namespace:
                insort(self.bound, name)
                if name not in self.frozen:
                    insort(self.mutable, name)
            elif old is not None and name not in namespace:
                _remove_sorted(self.bound, name)
                _remove_sorted(self.mutable, name)

    def _create_scalar(self, ops: list[HeapOp], value=None) -> int:
        oid = next(self.ids)
        ops.append(HeapOp(
            op="create", id=oid, kind="scalar",
            value=self.rng.randint(0, 10**9) if value is None else value,
            size_bytes=self.rng.randint(8, 64),
        ))
        return oid

    def _create_opaque(self, ops: list[HeapOp]) -> int:
        rng = self.rng
        oid = next(self.ids)
        serializable = rng.random() >= self.params.unserializable_rate
        deserializable = serializable and rng.random() >= self.params.undeserializable_rate
        ops.append(HeapOp(
            op="create", id=oid, kind="opaque",
            size_bytes=rng.randint(10_000, 10_000_000),
            serializable=serializable,
            deserializable=deserializable,
            hashable=rng.random() >= self.params.unhashable_rate,
        ))
        return oid

    def _act_create(self, ops: list[HeapOp], reads: set[str]) -> None:
        rng = self.rng
        if not self.pool:
            return
        name = rng.choice(self.pool)
        shape = rng.choices(_SHAPES, cum_weights=_SHAPE_CUM_WEIGHTS)[0]
        if shape == "scalar":
            root = self._create_scalar(ops)
        elif shape == "opaque":
            root = self._create_opaque(ops)
        else:
            root = next(self.ids)
            ops.append(HeapOp(
                op="create", id=root, kind="container",
                size_bytes=rng.randint(32, 256),
            ))
            owners = self.bound  # the fragment binds its name after its slots
            for j in range(rng.randint(1, 3)):
                if owners and rng.random() < self.params.alias_density:
                    owner = rng.choice(owners)
                    reads.add(owner)
                    child = rng.choice(sorted(self.heap.reachable(owner)))
                else:
                    child = self._create_scalar(ops)
                ops.append(HeapOp(op="set_slot", parent_id=root, slot=f"s{j}", child_id=child))
        ops.append(HeapOp(op="bind", name=name, id=root))

    def _act_mutate(self, ops: list[HeapOp], reads: set[str]) -> None:
        rng = self.rng
        if not self.mutable:
            return
        name = rng.choice(self.mutable)
        reads.add(name)
        closure = sorted(self.heap.reachable(name))
        scalars = [o for o in closure if self.heap.objects[o].kind == "scalar"]
        containers = [o for o in closure if self.heap.objects[o].kind == "container"]
        if scalars and (not containers or rng.random() < 0.6):
            ops.append(HeapOp(op="set_value", id=rng.choice(scalars), value=rng.randint(0, 10**9)))
        elif containers:
            parent = rng.choice(containers)
            slots = list(self.heap.objects[parent].slots)
            roll = rng.random()
            if slots and roll < 0.4:
                # reference swap: replace a child with a value-equal fresh object
                slot = rng.choice(slots)
                old_child = self.heap.objects[parent].slots[slot]
                old = self.heap.objects[old_child]
                if old.kind == "scalar":
                    fresh = self._create_scalar(ops, value=old.value)
                    ops.append(HeapOp(op="set_slot", parent_id=parent, slot=slot, child_id=fresh))
            elif slots and roll < 0.6:
                ops.append(HeapOp(op="clear_slot", parent_id=parent, slot=rng.choice(slots)))
            elif roll < 0.7:
                # back reference, possibly closing a cycle
                child = rng.choice(closure)
                ops.append(HeapOp(op="set_slot", parent_id=parent, slot=f"s{len(slots)}", child_id=child))
            else:
                child = self._create_scalar(ops)
                ops.append(HeapOp(op="set_slot", parent_id=parent, slot=f"s{len(slots)}", child_id=child))

    def _act_delete(self, ops: list[HeapOp]) -> None:
        # a nondeterministic output stays bound to the end of the session
        if self.mutable:
            ops.append(HeapOp(op="unbind", name=self.rng.choice(self.mutable)))

    def _nondet_cell(self, index: int) -> CellProgram | None:
        rng = self.rng
        if not self.pool:
            return None
        name = rng.choice(self.pool)
        oid = next(self.ids)
        size = rng.randint(8, 64)
        # the one scan of the pool: a name is frozen once
        self.pool.remove(name)
        self.frozen.add(name)
        _remove_sorted(self.mutable, name)
        return CellProgram(
            code_ref=f"cell_{index}",
            ops=[
                HeapOp(op="create", id=oid, kind="scalar", value=rng.randint(0, 10**9), size_bytes=size),
                HeapOp(op="bind", name=name, id=oid),
            ],
            declared_runtime_s=round(rng.uniform(0.1, 10.0), 3),
            nondeterministic=True,
        )

    def build_cell(self, index: int) -> CellProgram:
        rng = self.rng
        program = None
        if rng.random() < self.params.nondet_rate:
            program = self._nondet_cell(index)
        if program is not None:
            self._apply(program.ops)
        else:
            ops: list[HeapOp] = []
            reads: set[str] = set()
            for _ in range(rng.randint(1, 3)):
                fragment: list[HeapOp] = []
                roll = rng.random()
                if roll < self.params.delete_rate:
                    self._act_delete(fragment)
                elif roll < 0.55 or not self.mutable:
                    self._act_create(fragment, reads)
                else:
                    self._act_mutate(fragment, reads)
                # keep the scratch heap current so later actions in this
                # cell build against the state their ops will replay in
                self._apply(fragment)
                ops.extend(fragment)
            program = CellProgram(
                code_ref=f"cell_{index}",
                direct_reads=reads,
                ops=ops,
                declared_runtime_s=round(rng.uniform(0.1, 10.0), 3),
                never_rerun=rng.random() < self.params.never_rerun_rate,
            )
        return program


def generate_trace(params: GenParams, seed: int) -> TraceFile:
    """Deterministically generate a replayable random session trace. The
    cyclic collector is paused while it builds (``schema.collector_paused``):
    the ops, cells and scratch objects it builds hold no reference cycles."""
    builder = _TraceBuilder(params, random.Random(seed))
    with collector_paused():
        cells = [builder.build_cell(i) for i in range(1, params.cells + 1)]
    return TraceFile(
        profile=CostProfile(
            bandwidth_bytes_per_s=params.bandwidth_bytes_per_s,
            latency_s=params.latency_s,
            alpha=params.alpha,
        ),
        cells=cells,
    )


def inject_false_edges(
    history: HistoryGraph,
    rng: random.Random,
    reads: int = 3,
    writes: int = 2,
) -> HistoryGraph:
    """A copy of a lineage graph with false-positive dependencies added.

    Injected read edges claim a cell consumed a snapshot it never touched:
    the last kept version of a name before the cell, as a monitor that
    over-reports would. Injected writes add a spurious snapshot paired with
    a read of the prior version, the way an over-cautious modified-on-access
    call would. The edges go into the graph's manifest, which is read back,
    so the lineage's own recording step counts their references; ``history``
    is left as it was. Reconstruction must stay correct, only potentially
    costlier.
    """
    manifest = history.to_manifest()
    cells, deleted = manifest["cells"], manifest["deleted"]
    if not cells:
        return HistoryGraph.from_manifest(manifest)
    all_vs = _all_versions(cells)
    for _ in range(reads):
        cell = rng.choice(cells)
        last = {name: [name, t] for name, t in all_vs if t < cell["t"]}
        if last:
            cell["reads"].append(rng.choice(list(last.values())))
    for _ in range(writes):
        cell = rng.choice(cells)
        t = cell["t"]
        versions: dict[str, list[int]] = {}
        for name, written_at in _all_versions(cells):
            versions.setdefault(name, []).append(written_at)
        names = [
            name
            for name, written in versions.items()
            if written[0] < t and t not in written and (name not in deleted or t < deleted[name])
        ]
        if not names:
            continue
        name = rng.choice(names)
        cell["writes"].append(name)
        cell["reads"].append([name, max(w for w in versions[name] if w < t)])
    return HistoryGraph.from_manifest(manifest)


def _all_versions(cells: list[dict]) -> list[tuple[str, int]]:
    """Every (name, t) the manifest cells write, injected ones included,
    sorted by name, then t. The injector draws from this order rather than
    from set order, so its choices do not depend on the hash seed."""
    return sorted((name, cell["t"]) for cell in cells for name in cell["writes"])
