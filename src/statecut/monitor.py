"""Cell execution interceptor.

Runs cell programs against the simulated heap and works out which variables
each cell accessed, created, modified, or deleted. Direct reads come declared
with the cell (the stand-in for source analysis); indirect reads are inferred
from ID-graph overlap, from objects changed in place and from existing
objects bound to a name or put in a slot; modifications from
value-hash changes, reference-structure changes, and the modified-on-access
rule for unhashable variables.
Detection may over-identify but never misses, which is what downstream
reconstruction relies on.

``run_cell`` works incrementally: the session keeps an index of each bound
name's closure and of the names that reach each live object, and only the
names whose closure the cell touched, or whose binding it changed, are
looked at, with no ID graph or value hash. The index holds their closures
as they stood before the cell, so no earlier state is walked. By the heap's
undo log, a name's ID graph changed iff its root did or an object of its old
closure holds other slots than logged; if not, its value hash changed iff
one of them holds a value of another canonical form than logged (barring a
64-bit collision, which only the rule sees), which ``same_canon`` tells
without encoding two ints or two strs. A closure is walked only for a
name the cell created or whose ID graph it changed. The unhashable-access
rule is read off the index's set of live unhashable objects, so no
object's flag is read for it.
``PreSnapshot``, ``detect_accesses`` and ``detect_modifications`` are the
full rescan that ``run_cell`` agrees with exactly; they are kept as its test
oracle, and with ``use_id_graphs=False`` as the hash-only ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cost import CostProfile
from .errors import CellExecutionError, StatecutError
from .heap import (
    HeapOp,
    IdGraph,
    NameIndex,
    ObjectId,
    SimHeap,
    build_id_graph,
    id_graph_changed,
    id_graphs_overlap,
    reachable_ids,
    same_canon,
    subgraph_hash,
    value_hash,
)
from .history import CellRecord, HistoryGraph


@dataclass
class CellProgram:
    """One replayable cell: declared reads, heap ops, and annotations.

    A ``nondeterministic`` cell would compute other values if run again, so,
    like a ``never_rerun`` one, no plan or restore fallback reruns it.
    """

    code_ref: str
    direct_reads: set[str] = field(default_factory=set)
    ops: list[HeapOp] = field(default_factory=list)
    declared_runtime_s: float = 1.0
    never_rerun: bool = False
    nondeterministic: bool = False


@dataclass
class Session:
    """One live simulated session: heap, lineage (which keeps the session's
    clock), storage profile and annotations."""

    heap: SimHeap
    history: HistoryGraph
    profile: CostProfile
    annotations: dict[str, str] = field(default_factory=dict)  # name -> always_copy|always_recompute
    index: NameIndex | None = field(default=None, repr=False, compare=False)


class PreSnapshot:
    """Namespace state captured before a cell runs.

    ID graphs are built for every name; a copy of each object, with its own
    slots dict, is kept alongside so value hashes can be computed lazily,
    after the cell has already mutated the heap, without paying to hash
    values nobody asks about.
    """

    def __init__(self, heap: SimHeap):
        self.names = set(heap.namespace)
        self.id_graphs: dict[str, IdGraph] = {
            name: build_id_graph(heap, name) for name in heap.namespace
        }
        self.objects = {oid: replace(obj, slots=dict(obj.slots)) for oid, obj in heap.objects.items()}
        self._hashes: dict[str, int | None] = {}

    def root(self, name: str) -> ObjectId:
        return self.id_graphs[name].root_id

    def hash_of(self, name: str) -> int | None:
        if name not in self._hashes:
            self._hashes[name] = subgraph_hash(self.objects, self.root(name))
        return self._hashes[name]


def detect_accesses(
    pre: PreSnapshot,
    direct_reads: set[str],
    *,
    touched: set[int] = frozenset(),
    use_id_graphs: bool = True,
) -> set[str]:
    """Declared reads plus every variable whose ID graph overlaps one of them
    or holds an object in ``touched``: one the cell changed in place, bound
    to a name or put in a slot."""
    accessed = set(direct_reads)
    if not use_id_graphs:
        return accessed
    for name, graph in pre.id_graphs.items():
        if name in accessed:
            continue
        if not graph.nodes.isdisjoint(touched):
            accessed.add(name)
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


def current_index(session: Session) -> NameIndex:
    """The session's name index as of its heap: the one it keeps, rebuilt
    over every bound name and kept in its place when the heap's version
    moved since (a change made outside ``run_cell``)."""
    index, heap = session.index, session.heap
    if index is None or index.version != heap.version:
        index = session.index = NameIndex(heap.objects, heap.namespace)
        index.version = heap.version
    return index


def run_cell(session: Session, program: CellProgram) -> CellRecord:
    """Execute one cell under monitoring and fold the outcome into the session.

    Applies the ops, detects accesses and modifications, appends to the
    history graph at its next timestamp (runtime included) and sweeps what no name reaches any
    more. The results equal the full rescan's (``PreSnapshot``,
    ``detect_accesses``, ``detect_modifications``, then ``collect_garbage``),
    but only names the cell affected, those the index lists on an object it
    changed in place and those it (un)bound, are checked against the undo
    log, each over its closure before the cell as the index holds it: any
    other name's closure, shape and values are as they were. A name's new
    closure is walked only when the cell created the name or changed its ID
    graph. The unhashable-access rule tests each accessed name's closure
    before the cell against the index's live unhashable objects. A failing
    cell still has its partial effects recorded before the error propagates
    as CellExecutionError.
    """
    heap = session.heap
    t = session.history.next_t

    index = current_index(session)
    orphans: set[ObjectId] = set()
    # every object is a key of index.names after run_cell, and a rebuilt
    # index lacks the objects that a change made outside run_cell left no
    # name reaching; the full sweep at the end of this cell would delete them
    if len(heap.objects) != len(index.names):
        orphans = set(heap.objects).difference(index.names)

    failure: Exception | None = None
    failed_at: int | None = None
    try:
        mutation = heap.apply(program.ops)
    except StatecutError as err:
        mutation, failed_at = err.partial, err.op_index
        failure = err

    # the index moves a name only once it is checked below, so until then it
    # holds every name's closure as it stood before the cell
    closures = index.closures

    # declared reads bound before the cell, plus every name sharing an object
    # with one of them, plus every name the cell changed in place (its new
    # state is its old one with the change) or that reached an object the
    # cell bound or put in a slot (the cell got hold of it through a name)
    touched = mutation.touched
    affected = index.reaching(touched)
    accessed = {name for name in program.direct_reads if name in closures}
    for name in list(accessed):
        accessed |= index.reaching(closures[name])
    accessed |= affected | index.reaching(mutation.linked)

    # what the cell changed in place, read off its undo log: the objects whose
    # slots now differ from their logged ones, and those whose value does
    objects, undo = heap.objects, mutation.undo
    reshaped = {oid for oid, (_, slots) in undo.items() if objects[oid].slots != slots}
    revalued = {oid for oid, (value, _) in undo.items()
                if objects[oid].value is not value and not same_canon(value, objects[oid].value)}

    # the unhashable-access rule, read off the live unhashable objects: a
    # name not yet moved reaches each object of its closure before the cell,
    # so those objects are still in the set, and what the cell brought into
    # it lies in no such closure
    old_roots, namespace, unhashable = mutation.old_roots, heap.namespace, index.unhashable
    affected.update(old_roots)
    created: set[str] = set()
    deleted: set[str] = set()
    modified: set[str] = set()
    maybe_dead = orphans | mutation.created
    for name in affected:
        old = closures.get(name)
        post_root = namespace.get(name)
        if old is None:
            if post_root is not None:
                created.add(name)
                index.move(name, reachable_ids(objects, post_root))
            continue
        if post_root is None:
            deleted.add(name)
            maybe_dead |= index.move(name, set())
            continue
        # the module's two rules; a name whose ID graph is unchanged kept its
        # closure, and it is accessed, so the unhashable-access rule applies
        if old_roots.get(name, post_root) != post_root or not reshaped.isdisjoint(old):
            maybe_dead |= index.move(name, reachable_ids(objects, post_root))
            modified.add(name)
        elif not revalued.isdisjoint(old) or not unhashable.isdisjoint(old):
            modified.add(name)
    # an accessed name the cell did not affect kept its closure and values, so
    # only the unhashable-access rule can mark it
    for name in accessed - affected:
        if not unhashable.isdisjoint(closures[name]):
            modified.add(name)

    # a name the cell unbound that is bound at its end was rebound after the
    # unbind, and counts as created; churn that ends unbound is a deletion
    created |= {name for name in mutation.unbound if name in namespace}
    modified -= created

    # every recorded write precedes t, so a name's active snapshot is what the
    # cell read; a name bound outside run_cell after its deletion has none
    latest, tombstones = session.history.latest, session.history.deleted
    accessed_vses = {latest[name] for name in accessed if name in latest and name not in tombstones}

    # positional, in CellRecord's field order: a keyword call to a dataclass
    # costs twice as much
    record = CellRecord(t, program.code_ref, program.declared_runtime_s, program.never_rerun,
                        program.nondeterministic, failed_at, accessed_vses, modified, created, deleted)
    session.history.record(record)
    for oid in maybe_dead.difference(index.names):
        del heap.objects[oid]
    index.version = heap.version

    if failure is not None:
        # the error's traceback holds this frame, so the frame must not hold it
        try:
            raise CellExecutionError(program.code_ref, failure, record)
        finally:
            failure = None
    return record
