"""Cell execution interceptor.

Runs cell programs against the simulated heap and works out which variables
each cell accessed, created, modified, or deleted. Direct reads come declared
with the cell (the stand-in for source analysis); indirect reads are inferred
from ID-graph overlap; modifications from value-hash changes, reference-
structure changes, and the modified-on-access rule for unhashable variables.
Detection may over-identify but never misses, which is what downstream
reconstruction relies on.

``run_cell`` works incrementally: the session keeps an index from each live
object to the names that reach it, and the heap's undo log gives the state
before the cell, so only the names whose closure the cell touched, or whose
binding it changed, get ID graphs and hashes. ``PreSnapshot``,
``detect_accesses`` and ``detect_modifications`` are the full rescan that
``run_cell`` agrees with exactly; they are kept as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel
from .errors import CellExecutionError, StatecutError
from .heap import (
    HeapBefore,
    HeapOp,
    IdGraph,
    NameIndex,
    ObjectId,
    SimHeap,
    build_id_graph,
    freeze_object,
    id_graph_changed,
    id_graphs_overlap,
    reachable_ids,
    subgraph_hash,
    value_hash,
)
from .history import CellRecord, HistoryGraph, VariableSnapshot


@dataclass
class CellProgram:
    """One replayable cell: declared reads, heap ops, and annotations.

    ``alt_ops`` models nondeterminism: replays of a nondeterministic cell use
    the alternate op list, producing different values than the original run.
    """

    code_ref: str
    direct_reads: set[str] = field(default_factory=set)
    ops: list[HeapOp] = field(default_factory=list)
    declared_runtime_s: float = 1.0
    never_rerun: bool = False
    nondeterministic: bool = False
    alt_ops: list[HeapOp] | None = None


@dataclass
class MonitorOptions:
    """Detection switches; ``use_id_graphs=False`` is the hash-only ablation."""

    use_id_graphs: bool = True


@dataclass
class Session:
    """One live simulated session: heap, lineage, costs, and the cell archive."""

    heap: SimHeap
    history: HistoryGraph
    cost: CostModel
    programs: dict[str, CellProgram] = field(default_factory=dict)
    annotations: dict[str, str] = field(default_factory=dict)  # name -> always_copy|always_recompute
    options: MonitorOptions = field(default_factory=MonitorOptions)
    next_t: int = 1
    index: NameIndex | None = field(default=None, repr=False, compare=False)


class PreSnapshot:
    """Namespace state captured before a cell runs.

    ID graphs are built for every name; a metadata-level frozen view of each
    object (kind, value reference, slot table) is captured alongside so value
    hashes can be computed lazily, after the cell has already mutated the
    heap, without paying to hash values nobody asks about.
    """

    def __init__(self, heap: SimHeap):
        self.names = set(heap.namespace)
        self.id_graphs: dict[str, IdGraph] = {
            name: build_id_graph(heap, name) for name in heap.namespace
        }
        self._frozen = {oid: freeze_object(obj) for oid, obj in heap.objects.items()}
        self._hashes: dict[str, int | None] = {}

    def hash_of(self, name: str) -> int | None:
        if name not in self._hashes:
            root = self.id_graphs[name].root_id
            self._hashes[name] = subgraph_hash(root, self._frozen.__getitem__)
        return self._hashes[name]


def detect_accesses(pre: PreSnapshot, direct_reads: set[str], *, use_id_graphs: bool = True) -> set[str]:
    """Declared reads plus every variable whose ID graph overlaps one of them."""
    accessed = set(direct_reads)
    if not use_id_graphs:
        return accessed
    for name, graph in pre.id_graphs.items():
        if name in accessed:
            continue
        for read in direct_reads:
            read_graph = pre.id_graphs.get(read)
            if read_graph is not None and id_graphs_overlap(graph, read_graph):
                accessed.add(name)
                break
    return accessed


def detect_modifications(
    pre: PreSnapshot,
    heap_after: SimHeap,
    accessed: set[str],
    *,
    touched: set[int] = frozenset(),
    use_id_graphs: bool = True,
) -> dict[str, set[str]]:
    """Classify every namespace change made by the cell.

    created: newly bound names; deleted: unbound names; modified: surviving
    names whose value hash changed, whose reference structure changed, or that
    are unhashable and were accessed.
    """
    after_names = set(heap_after.namespace)
    created = after_names - pre.names
    deleted = pre.names - after_names
    survivors = pre.names & after_names

    candidates = set()
    for name in survivors:
        if name in accessed:
            candidates.add(name)
        elif touched and not pre.id_graphs[name].nodes.isdisjoint(touched):
            candidates.add(name)

    modified = set()
    for name in survivors:
        post_graph = build_id_graph(heap_after, name)
        if use_id_graphs and id_graph_changed(pre.id_graphs[name], post_graph):
            modified.add(name)
            continue
        if not use_id_graphs and pre.id_graphs[name].root_id != post_graph.root_id:
            # even without ID graphs, a rebind of the name itself is visible
            modified.add(name)
            continue
        if name not in candidates:
            continue
        pre_hash = pre.hash_of(name)
        if pre_hash is None:
            if name in accessed:
                modified.add(name)
            continue
        if value_hash(heap_after, name) != pre_hash:
            modified.add(name)
    return {"modified": modified, "created": created, "deleted": deleted}


def run_cell(session: Session, program: CellProgram, *, replay_ops: list[HeapOp] | None = None) -> CellRecord:
    """Execute one cell under monitoring and fold the outcome into the session.

    Applies the ops, detects accesses and modifications, appends to the
    history graph, records the runtime and sweeps what no name reaches any
    more. The results equal the full rescan's (``PreSnapshot``,
    ``detect_accesses``, ``detect_modifications``, then ``collect_garbage``),
    but only names the cell affected, those the index lists on an object it
    changed in place and those it (un)bound, get ID graphs and value hashes:
    any other name's closure, shape and values are as they were. A failing
    cell still has its partial effects recorded before the error propagates
    as CellExecutionError.
    """
    heap = session.heap
    t = session.next_t
    session.next_t += 1
    session.programs[program.code_ref] = program
    use_id_graphs = session.options.use_id_graphs

    index = session.index
    orphans: set[ObjectId] = set()
    if index is None or index.version != heap.version:
        index = session.index = NameIndex(heap.objects, heap.namespace)
        # a change made outside run_cell may have left objects no name
        # reaches; the full sweep at the end of this cell would delete them
        orphans = set(heap.objects).difference(index.names)

    ops = replay_ops if replay_ops is not None else program.ops
    failure: Exception | None = None
    try:
        mutation = heap.apply(ops)
    except StatecutError as err:
        mutation = err.partial
        failure = err
    before = HeapBefore(heap, mutation)

    # declared reads bound before the cell, plus every name sharing an object
    # with one of them
    accessed = {name for name in program.direct_reads if before.root_or_none(name) is not None}
    if use_id_graphs:
        for name in list(accessed):
            accessed |= index.reaching(reachable_ids(before.objects, before.root(name)))

    touched = mutation.touched
    affected = index.reaching(touched)
    affected.update(mutation.old_roots)
    created: set[str] = set()
    deleted: set[str] = set()
    modified: set[str] = set()
    maybe_dead = orphans | mutation.created
    for name in affected:
        pre_root = before.root_or_none(name)
        post_root = heap.namespace.get(name)
        if pre_root is None:
            if post_root is not None:
                created.add(name)
                index.move(name, set(), reachable_ids(heap.objects, post_root))
            continue
        if post_root is None:
            deleted.add(name)
            maybe_dead |= index.move(name, reachable_ids(before.objects, pre_root), set())
            continue
        pre_graph = build_id_graph(before, name)
        post_graph = build_id_graph(heap, name)
        maybe_dead |= index.move(name, pre_graph.nodes, post_graph.nodes)
        if use_id_graphs:
            changed = id_graph_changed(pre_graph, post_graph)
        else:
            # even without ID graphs, a rebind of the name itself is visible
            changed = pre_root != post_root
        if changed:
            modified.add(name)
            continue
        if name not in accessed and pre_graph.nodes.isdisjoint(touched):
            continue
        pre_hash = subgraph_hash(pre_root, lambda oid: freeze_object(before.objects[oid]))
        if pre_hash is None:
            if name in accessed:
                modified.add(name)
        elif value_hash(heap, name) != pre_hash:
            modified.add(name)
    # an accessed name the cell did not affect kept its closure and values, so
    # only the unhashable-access rule can mark it
    for name in accessed - affected:
        closure = reachable_ids(heap.objects, heap.namespace[name])
        if any(not heap.objects[oid].hashable for oid in closure):
            modified.add(name)

    # a name unbound then rebound within the same cell counts as created;
    # bound-then-unbound churn that ends unbound is just a deletion
    created |= {name for name in mutation.bound & mutation.unbound if name in heap.namespace}
    modified -= created

    accessed_vses: set[VariableSnapshot] = set()
    for name in accessed:
        vs = session.history.latest_snapshot(name, before=t)
        if vs is not None:
            accessed_vses.add(vs)

    record = CellRecord(
        t=t,
        code_ref=program.code_ref,
        runtime_s=program.declared_runtime_s,
        accessed=accessed_vses,
        written=modified,
        created=created,
        deleted=deleted,
        never_rerun=program.never_rerun,
        nondeterministic=program.nondeterministic,
        failed=failure is not None,
    )
    session.history.record(record)
    session.cost.record_runtime(t, program.declared_runtime_s)
    for oid in maybe_dead.difference(index.names):
        del heap.objects[oid]
    index.version = heap.version

    if failure is not None:
        raise CellExecutionError(program.code_ref, failure, record)
    return record
