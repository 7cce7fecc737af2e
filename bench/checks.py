"""Output checks that do not trust the engine.

Each check recomputes what the engine claims from the trace alone, with code
written here rather than imported from statecut:

* ``MiniHeap`` is a second interpreter of the trace's heap ops. It gives the
  session's true final state and, cell by cell, the names whose reachable
  structure or values really changed.
* ``isomorphism_errors`` compares two heaps object by object through a
  bijection grown from the namespace.
* ``plan_errors`` builds its own flow network from the serialized lineage
  (one arc per lineage edge rather than one per variable closure), solves it
  with networkx, and checks the plan's cost and feasibility against it.
* ``payload_errors`` checks the checkpoint payload against the union of the
  migrated variables' reachable sets.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INF = math.inf
MAX_ERRORS = 10


# -- the second interpreter ----------------------------------------------------


@dataclass
class MiniObject:
    kind: str
    value: object
    size: int
    flags: tuple[bool, bool, bool]  # serializable, deserializable, hashable
    slots: dict = field(default_factory=dict)


class MiniHeap:
    """Plain interpreter of trace heap ops, with a parent index so the names
    a mutation can reach are found by walking backwards from it."""

    def __init__(self) -> None:
        self.objects: dict[int, MiniObject] = {}
        self.namespace: dict[str, int] = {}
        self.parents: dict[int, dict[int, int]] = {}  # child -> parent -> slot count

    def _link(self, parent: int, child: int, delta: int) -> None:
        refs = self.parents.setdefault(child, {})
        refs[parent] = refs.get(parent, 0) + delta
        if refs[parent] == 0:
            del refs[parent]

    def apply(self, op) -> None:
        kind = op.op
        if kind == "create":
            if op.id in self.objects:
                raise KeyError(op.id)
            self.objects[op.id] = MiniObject(
                op.kind, op.value, op.size_bytes,
                (op.serializable, op.deserializable, op.hashable),
            )
        elif kind == "bind":
            if op.id not in self.objects:
                raise KeyError(op.id)
            self.namespace[op.name] = op.id
        elif kind == "unbind":
            del self.namespace[op.name]
        elif kind == "set_slot":
            parent = self.objects[op.parent_id]
            if parent.kind != "container" or op.child_id not in self.objects:
                raise KeyError(op.parent_id)
            old = parent.slots.get(op.slot)
            if old is not None:
                self._link(op.parent_id, old, -1)
            parent.slots[op.slot] = op.child_id
            self._link(op.parent_id, op.child_id, 1)
        elif kind == "clear_slot":
            old = self.objects[op.parent_id].slots.pop(op.slot)
            self._link(op.parent_id, old, -1)
        elif kind == "set_value":
            obj = self.objects[op.id]
            if obj.kind == "container":
                raise KeyError(op.id)
            obj.value = op.value
        else:
            raise KeyError(kind)

    def reachable(self, root: int) -> set[int]:
        seen = {root}
        stack = [root]
        while stack:
            for child in self.objects[stack.pop()].slots.values():
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def signature(self, name: str) -> tuple:
        """Identity-aware state of everything reachable from ``name``."""
        root = self.namespace[name]
        return root, tuple(
            (oid, o.kind, repr(o.value), o.size, o.flags, tuple(o.slots.items()))
            for oid in sorted(self.reachable(root))
            for o in (self.objects[oid],)
        )

    def names_reaching(self, targets: set[int]) -> set[str]:
        """Names whose root reaches any of ``targets`` (walks parents)."""
        seen = set(targets)
        stack = list(targets)
        while stack:
            for parent in self.parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return {name for name, oid in self.namespace.items() if oid in seen}

    def run_cell(self, ops) -> set[str]:
        """Apply one cell's ops and return the names it truly changed:
        created, deleted, or with different reachable structure or values."""
        touched = set()
        rebound = set()
        for op in ops:
            if op.op in ("set_slot", "clear_slot"):
                touched.add(op.parent_id)
            elif op.op == "set_value":
                touched.add(op.id)
            elif op.op in ("bind", "unbind"):
                rebound.add(op.name)
        touched &= self.objects.keys()
        candidates = (self.names_reaching(touched) | rebound) & self.namespace.keys()
        before_names = set(self.namespace)
        before = {name: self.signature(name) for name in candidates}
        for op in ops:
            try:
                self.apply(op)
            except KeyError:
                break  # a failing cell keeps its partial effects
        after_names = set(self.namespace)
        changed = before_names ^ after_names
        for name, sig in before.items():
            if name in after_names and self.signature(name) != sig:
                changed.add(name)
        return changed


def replay(trace) -> tuple[MiniHeap, list[set[str]]]:
    """Interpret the whole trace; return the final heap and, per cell, the
    names that cell truly changed."""
    heap = MiniHeap()
    changed = [heap.run_cell(cell.ops) for cell in trace.cells]
    return heap, changed


# -- heap isomorphism -----------------------------------------------------------


def simheap_view(heap):
    """(namespace, get) view of a statecut SimHeap."""

    def get(oid):
        o = heap.objects[oid]
        return (o.kind, o.value, o.size_bytes,
                (o.serializable, o.deserializable, o.hashable), o.slots)

    return heap.namespace, get


def miniheap_view(heap: MiniHeap):
    def get(oid):
        o = heap.objects[oid]
        return (o.kind, o.value, o.size, o.flags, o.slots)

    return heap.namespace, get


def isomorphism_errors(expected, actual) -> list[str]:
    """Check that a bijection between the objects reachable from the two
    namespaces maps every name to its counterpart and preserves kinds,
    values, sizes, flags and slot labels."""
    exp_ns, exp_get = expected
    act_ns, act_get = actual
    errors: list[str] = []
    if set(exp_ns) != set(act_ns):
        missing = sorted(set(exp_ns) - set(act_ns))[:5]
        extra = sorted(set(act_ns) - set(exp_ns))[:5]
        return [f"namespace differs: missing {missing}, extra {extra}"]
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    stack = [(exp_ns[name], act_ns[name], name) for name in sorted(exp_ns, reverse=True)]
    while stack and len(errors) < MAX_ERRORS:
        x, y, path = stack.pop()
        if x in forward or y in backward:
            if forward.get(x) != y or backward.get(y) != x:
                errors.append(f"{path}: sharing differs (object {x} vs {y})")
            continue
        forward[x] = y
        backward[y] = x
        ek, ev, es, ef, eslots = exp_get(x)
        ak, av, as_, af, aslots = act_get(y)
        if (ek, es, ef) != (ak, as_, af) or (ek != "container" and ev != av):
            errors.append(f"{path}: {(ek, ev, es, ef)} != {(ak, av, as_, af)}")
            continue
        if list(eslots) != list(aslots):
            errors.append(f"{path}: slots {list(eslots)} != {list(aslots)}")
            continue
        for label in reversed(eslots):
            stack.append((eslots[label], aslots[label], f"{path}.{label}"))
    return errors


# -- monitor superset -------------------------------------------------------------


def superset_errors(records, truly_changed: list[set[str]]) -> list[str]:
    """The monitor may over-identify, never under-identify: every name a cell
    truly changed must be among its written, created or deleted names."""
    errors = []
    if len(records) != len(truly_changed):
        return [f"{len(records)} monitor records for {len(truly_changed)} cells"]
    for rec, changed in zip(records, truly_changed):
        missed = changed - (rec.written | rec.created | rec.deleted)
        if missed:
            errors.append(f"cell t={rec.t} {rec.code_ref}: change to {sorted(missed)} not detected")
            if len(errors) >= MAX_ERRORS:
                break
    return errors


# -- plan optimality and feasibility ------------------------------------------------


def lineage_from_manifest(manifest: dict) -> tuple[dict[str, int], dict[int, list[tuple[str, int]]]]:
    """Active snapshot time of every live name, and each cell's read edges,
    from the serialized lineage."""
    last: dict[str, int] = {}
    reads: dict[int, list[tuple[str, int]]] = {}
    for cell in manifest["cells"]:
        reads[cell["t"]] = [(name, t) for name, t in cell["reads"]]
        for name in cell["writes"]:
            last[name] = cell["t"]
    active = {n: t for n, t in last.items() if n not in manifest["deleted"]}
    return active, reads


def linked_names(heap: MiniHeap, names) -> set[tuple[str, str]]:
    """Pairs of names whose reachable objects intersect."""
    owners: dict[int, list[str]] = {}
    for name in sorted(names):
        for oid in heap.reachable(heap.namespace[name]):
            owners.setdefault(oid, []).append(name)
    pairs = set()
    for group in owners.values():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                pairs.add((a, b))
    return pairs


def migration_seconds(heap: MiniHeap, name: str, profile) -> float:
    closure = heap.reachable(heap.namespace[name])
    if not all(heap.objects[o].flags[0] for o in closure):
        return INF
    size = sum(heap.objects[o].size for o in closure)
    store_bw = profile.store_bandwidth_bytes_per_s or profile.bandwidth_bytes_per_s
    store = profile.latency_s + size / store_bw
    load = profile.latency_s + size / profile.bandwidth_bytes_per_s
    return profile.alpha * store + load


def rerun_closure(active, reads, names, ground: set[tuple[str, int]]) -> set[int]:
    """Cells that must rerun to rebuild ``names`` when ``ground`` snapshots
    are available as stored values."""
    need: set[int] = set()
    stack = [active[n] for n in names]
    while stack:
        t = stack.pop()
        if t in need:
            continue
        need.add(t)
        for dep in reads.get(t, ()):
            if dep not in ground and dep[1] not in need:
                stack.append(dep[1])
    return need


def min_cut_value(trace, heap: MiniHeap, manifest: dict) -> float:
    """Optimal plan cost from networkx on a network built from the lineage.

    Each active snapshot hangs off the source at its migration cost and
    points at the cell that produced it; each cell points at the producers
    of the non-active snapshots it read and feeds the sink at its rerun cost.
    Reads of active snapshots need no arc: that variable is available either
    as stored or as rebuilt by its own arc. Linked names are tied both ways.
    """
    import networkx as nx

    active, reads = lineage_from_manifest(manifest)
    runtimes = {i + 1: cell for i, cell in enumerate(trace.cells)}
    annotations = trace.variable_annotations
    graph = nx.DiGraph()
    src, sink = "src", "sink"
    graph.add_node(src)
    graph.add_node(sink)
    for name, t in active.items():
        node = ("v", name)
        cost = migration_seconds(heap, name, trace.profile)
        if cost < INF and annotations.get(name) != "always_recompute":
            graph.add_edge(src, node, capacity=cost)
        else:
            graph.add_edge(src, node)  # no capacity attribute: infinite
        if annotations.get(name) == "always_copy":
            graph.add_edge(node, sink)
        graph.add_edge(node, ("c", t))
    active_vs = set(active.items())
    for t, deps in reads.items():
        cell = runtimes[t]
        if cell.never_rerun:
            graph.add_edge(("c", t), sink)
        else:
            graph.add_edge(("c", t), sink, capacity=cell.declared_runtime_s)
        for dep in deps:
            if dep not in active_vs:
                graph.add_edge(("c", t), ("c", dep[1]))
    for a, b in linked_names(heap, active):
        graph.add_edge(("v", a), ("v", b))
        graph.add_edge(("v", b), ("v", a))
    return nx.minimum_cut_value(graph, src, sink)


def plan_errors(trace, heap: MiniHeap, manifest: dict, plan, cut_value: float) -> list[str]:
    """The plan's cost equals the min cut, its rerun list covers the closure
    of every recomputed variable, its cost is what its own choices cost, and
    linked names and annotations sit on the required side."""
    errors = []
    active, reads = lineage_from_manifest(manifest)
    migrate = set(plan.migrate)
    rerun = set(plan.rerun)
    if migrate - set(active):
        errors.append(f"migrates inactive names {sorted(migrate - set(active))[:5]}")
        return errors
    ground = {(n, active[n]) for n in migrate}
    recomputed = set(active) - migrate
    missing = rerun_closure(active, reads, recomputed, ground) - rerun
    if missing:
        errors.append(f"rerun list lacks cells {sorted(missing)[:10]}")
    own_cost = sum(migration_seconds(heap, n, trace.profile) for n in sorted(migrate))
    own_cost += sum(trace.cells[t - 1].declared_runtime_s for t in sorted(rerun))
    if not math.isclose(own_cost, plan.cost_s, rel_tol=1e-9):
        errors.append(f"plan claims cost {plan.cost_s!r} but its choices cost {own_cost!r}")
    if not math.isclose(cut_value, plan.cost_s, rel_tol=1e-9):
        errors.append(f"plan cost {plan.cost_s!r} != networkx min cut {cut_value!r}")
    for a, b in sorted(linked_names(heap, active)):
        if (a in migrate) != (b in migrate):
            errors.append(f"linked names {a}, {b} split by the plan")
            break
    for name, note in trace.variable_annotations.items():
        if name in active and (note == "always_copy") != (name in migrate):
            errors.append(f"{name} annotated {note} but plan disagrees")
    return errors


# -- checkpoint payload ---------------------------------------------------------------


def payload_errors(heap: MiniHeap, checkpoint) -> list[str]:
    """Payload objects are exactly the union of the migrated variables'
    reachable sets, and each stored root is the variable's live root."""
    errors = []
    expected: set[int] = set()
    for name in checkpoint.plan.migrate:
        root = heap.namespace.get(name)
        if root is None:
            return [f"migrated name {name} is not bound at the end of the trace"]
        if checkpoint.variables.get(name) != root:
            errors.append(f"{name}: stored root {checkpoint.variables.get(name)} != live root {root}")
        expected |= heap.reachable(root)
    stored = set(checkpoint.objects)
    if stored != expected:
        errors.append(
            f"payload holds {len(stored)} objects, migrate closure has {len(expected)} "
            f"(extra {sorted(stored - expected)[:5]}, missing {sorted(expected - stored)[:5]})"
        )
    return errors
