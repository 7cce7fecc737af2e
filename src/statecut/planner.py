"""Replication planner.

Reduces the migrate-vs-recompute decision to a src-sink min cut over the
session lineage. Each active variable snapshot hangs off the source at its
migration cost and points at the cell that produced it; each cell the
lineage keeps (the backward closure of the active snapshots, the only cells
a plan can rerun) feeds the sink at its rerun cost and points at the
producers of the non-active snapshots it read (an active one is available
either as stored or as rebuilt by its own arc). These arcs are infinite, so a
recomputed variable drags every cell of its rebuild to the source side, and
there are at most as many as lineage read edges plus one per active
variable. Each linked group of k variables is tied by the k-1 pairs of its
sorted members, each pair by infinite arcs both ways, so the group lands on
one side of the cut: at most 2·(active - groups) tie arcs. The min cut's
sink side is the migrate set; its source-side cells form the rerun list. A
variable none of whose options is finite lies on an all-infinite
source-sink path.

The cut is solved by Dinic's algorithm with a warm start, in O(V^2 E).
Every blocking flow is pushed by one depth-first search along the arcs that
climb in a rank. The first ranks the lineage (source, snapshots, cells from
the latest to the earliest, sink), whose one-way arcs from source towards
sink form a DAG, so it needs no levels and each push costs O(1) however deep
the lineage; each later phase ranks by breadth-first levels from the source.
A rewrite chain, which takes Dinic alone one phase per cell, needs the
lineage search and then only the final breadth-first search. The plan is
read from the source side that the final breadth-first search, the one that
no longer reaches the sink, finds. That side is the same for every maximum
flow, so the plan does not depend on the order of the arcs, nor on what the
first search pushed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from . import cost as cost_module
from .cost import CostModel
from .errors import FormatError, Infeasible, TooLarge, UnknownVariable
from .history import HistoryGraph
from .monitor import current_index
from .schema import check_fields, rules

INF = math.inf

SRC = 0
SINK = 1
# brute_force_plan enumerates the subsets of at most this many active variables
BRUTE_FORCE_MAX_VARS = 16


@dataclass
class FlowGraph:
    """Planning flow network plus the metadata to read a plan back out."""

    node_labels: list[object]  # index -> "src" | "sink" | VariableSnapshot | cell t
    arcs: dict[int, dict[int, float]]  # u -> v -> capacity
    vs_nodes: dict[str, int]  # active variable name -> node index
    ce_nodes: dict[int, int]  # cell timestamp -> node index
    cost: CostModel

    def add_arc(self, u: int, v: int, capacity: float) -> None:
        self.arcs.setdefault(u, {})
        self.arcs.setdefault(v, {})
        self.arcs[u][v] = self.arcs[u].get(v, 0.0) + capacity
        self.arcs[v].setdefault(u, 0.0)


# cost_s is a sum of finite costs, which may overflow to infinity
_PLAN = rules({"migrate": "str_list", "rerun": "int_list", "cost_s": "seconds_or_inf", "alpha": "seconds",
               "bandwidth": "bandwidth"})


@dataclass
class ReplicationPlan:
    """Output partition: variables to migrate, cells to rerun, and its cost."""

    migrate: set[str]
    rerun: list[int]  # cell timestamps, ascending
    cost_s: float
    # the channel the plan was priced for; a hand-made plan's defaults obey
    # the rules of _PLAN, as a checkpoint's stored plan must
    alpha: float = 1.0
    bandwidth_bytes_per_s: float = 1.0

    def to_json(self) -> dict:
        return {
            "migrate": sorted(self.migrate),
            "rerun": list(self.rerun),
            "cost_s": self.cost_s,
            "alpha": self.alpha,
            "bandwidth": self.bandwidth_bytes_per_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> ReplicationPlan:
        """Parse a stored plan; raises FormatError when a field breaks its
        rule or the plan does not rerun a strictly increasing list of cells."""
        check_fields(data, _PLAN, "plan")
        if data["rerun"] != sorted(set(data["rerun"])):
            raise FormatError(f"the plan reruns {data['rerun']!r:.60}, which is not strictly increasing")
        return cls(
            migrate=set(data["migrate"]),
            rerun=list(data["rerun"]),
            cost_s=data["cost_s"],
            alpha=data["alpha"],
            bandwidth_bytes_per_s=data["bandwidth"],
        )


def _priced(cost: CostModel, migrate: set[str], rerun: list[int], cost_s: float) -> ReplicationPlan:
    """A plan stamped with the channel ``cost`` prices for."""
    return ReplicationPlan(migrate, rerun, cost_s, cost.profile.alpha, cost.profile.bandwidth_bytes_per_s)


def build_flow_graph(
    history: HistoryGraph,
    cost: CostModel,
    linked: Iterable[tuple[str, str]] | None = None,
    forced_migrate: set[str] | None = None,
    forced_recompute: set[str] | None = None,
) -> FlowGraph:
    """Construct the planning network from the lineage graph and cost model.

    Forced recomputation pins a snapshot to the source with an infinite
    source arc; forced migration pins it to the sink with an infinite arc.
    """
    forced_migrate = set(forced_migrate or ())
    forced_recompute = set(forced_recompute or ())
    active = history.active_snapshots()

    labels: list[object] = ["src", "sink"]
    fg = FlowGraph(
        node_labels=labels, arcs={SRC: {}, SINK: {}}, vs_nodes={}, ce_nodes={}, cost=cost
    )
    for name in sorted(active):
        fg.vs_nodes[name] = len(labels)
        labels.append(active[name])
    for t in history.cells:
        fg.ce_nodes[t] = len(labels)
        labels.append(t)

    for name, u in fg.vs_nodes.items():
        capacity = INF if name in forced_recompute else cost.migration_seconds(name)
        fg.add_arc(SRC, u, capacity)
        if name in forced_migrate:
            fg.add_arc(u, SINK, INF)
        fg.add_arc(u, fg.ce_nodes[active[name].t], INF)
    # a cell needs the producers of the non-active snapshots it read, which
    # the lineage keeps too
    active_vses = set(active.values())
    for cell in reversed(history.cells.values()):
        u = fg.ce_nodes[cell.t]
        for t in sorted({dep.t for dep in history.reads[cell.t] if dep not in active_vses}):
            fg.add_arc(u, fg.ce_nodes[t], INF)
        fg.add_arc(u, SINK, cell.rerun_s)
    for a, b in linked or ():
        if a in fg.vs_nodes and b in fg.vs_nodes:
            fg.add_arc(fg.vs_nodes[a], fg.vs_nodes[b], INF)
            fg.add_arc(fg.vs_nodes[b], fg.vs_nodes[a], INF)
    return fg


def _arc_arrays(
    arcs: dict[int, dict[int, float]], n: int
) -> tuple[list[list[int]], list[int], list[float]]:
    """The network as paired arc arrays: arc ``e`` runs to ``to[e]`` with
    capacity ``cap[e]``, its reverse is arc ``e ^ 1``, and ``out[u]`` lists
    the arcs leaving node ``u``. ``arcs`` holds both directions of every arc,
    as ``FlowGraph.add_arc`` keeps it, so ``u -> v`` and ``v -> u`` become
    one pair."""
    out: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[float] = []
    for u, targets in arcs.items():
        out_u = out[u]
        for v, c in targets.items():
            if u < v:
                out_u.append(len(to))
                out[v].append(len(to) + 1)
                to.append(v)
                to.append(u)
                cap.append(c)
                cap.append(arcs[v][u])
    return out, to, cap


def _levels(
    out: list[list[int]], to: list[int], cap: list[float], src: int, sink: int = -1
) -> list[int]:
    """Breadth-first distance from ``src`` along arcs of positive capacity,
    -1 where unreached. The search stops as soon as it reaches ``sink``: by
    then every node nearer than the sink has its level, and the other nodes
    as far as the sink, which lead no nearer to it, are left unreached."""
    level = [-1] * len(out)
    level[src] = 0
    queue = [src]
    for u in queue:
        d = level[u] + 1
        for e in out[u]:
            v = to[e]
            if level[v] < 0 and cap[e] > 0:
                level[v] = d
                if v == sink:
                    for w in reversed(queue):
                        if level[w] < d:
                            break
                        level[w] = -1
                    return level
                queue.append(v)
    return level


def _infeasible_variables(fg: FlowGraph) -> list[str]:
    """Active names on an all-infinite source-sink path: their linked group can
    neither migrate (infinite source arc) nor be recomputed (infinite path on
    to the sink, through a cell that is not rerunnable or a forced migration)."""
    out, to, cap = _arc_arrays(fg.arcs, len(fg.node_labels))
    infinite = [c if c == INF else 0.0 for c in cap]
    ahead = _levels(out, to, infinite, SRC)
    # the reversed network: arc e is open where its partner e ^ 1 is infinite
    behind = _levels(out, to, [infinite[e ^ 1] for e in range(len(cap))], SINK)
    return [name for name, u in fg.vs_nodes.items() if ahead[u] >= 0 and behind[u] >= 0]


def _blocking_flow(
    fg: FlowGraph, out: list[list[int]], to: list[int], cap: list[float], rank: list[int]
) -> float:
    """Push a blocking flow from source to sink along the arcs of positive
    capacity that climb in ``rank``, in place on ``cap``, and return its value.

    One depth-first search with current-arc pointers; a dead end drops to
    rank -1, where no arc climbs into it again. A push updates the path's
    finite arcs at once and backs up to the tail of the first one it
    saturates. An infinite arc keeps what was pushed while it was on the path
    and hands it to its reverse arc when the search leaves it: a reverse arc
    never climbs, so the search cannot need it sooner. A push then costs one
    step per finite arc of the path, however long the path.
    """
    current = [0] * len(out)  # next arc to try at each node
    path: list[int] = []  # arcs from the source to u
    finite: list[int] = []  # the finite arcs of path, in path order
    carried: list[float] = []  # flow through each infinite arc of path, not yet on its reverse
    flow = 0.0
    u = SRC
    while True:
        if u == SINK:
            pushed, saturated = INF, -1
            for e in finite:
                if cap[e] < pushed:
                    pushed, saturated = cap[e], e
            if pushed == INF:
                raise Infeasible(_infeasible_variables(fg))
            for e in finite:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            if carried:
                carried[-1] += pushed
            flow += pushed
        else:
            arcs = out[u]
            end = len(arcs)
            i = current[u]
            r = rank[u]
            while i < end:
                e = arcs[i]
                if cap[e] > 0 and rank[to[e]] > r:
                    break
                i += 1
            current[u] = i
            if i < end:
                path.append(e)
                if cap[e] == INF:
                    carried.append(0.0)
                else:
                    finite.append(e)
                u = to[e]
                continue
            if u == SRC:
                return flow
            rank[u] = -1  # a dead end
            saturated = path[-1]
        # back up to the tail of the saturated arc, or of the dead end's arc
        while True:
            e = path.pop()
            if cap[e] == INF:
                moved = carried.pop()
                cap[e ^ 1] += moved
                if carried:
                    carried[-1] += moved
            else:
                finite.pop()
            if e == saturated:
                break
        u = to[e ^ 1]


def min_cut_plan(fg: FlowGraph) -> ReplicationPlan:
    """Solve the network and read the plan off the source side of the final
    residual network.

    Dinic's algorithm with a warm start. Every blocking flow is pushed by
    ``_blocking_flow`` along the arcs that climb in a rank. The first ranks
    the lineage: source 0, snapshots 1, cells from the latest to the
    earliest, then the sink, so every arc ``build_flow_graph`` lays from
    source towards sink climbs, while tie arcs and reverse arcs do not. Each
    later phase ranks by the level of a breadth-first search from the source
    that stops at the sink's level; an arc of the residual network then
    climbs exactly when it leads one level further from the source. The
    distance to the sink grows every phase, so there are at most V phases
    and O(V^2 E) work. The last search finds no path and so reaches exactly
    the source side of the minimum cut. A rewrite chain, which would take
    Dinic alone one phase per cell, needs that last search alone after the
    lineage phase.

    Raises Infeasible when the cut value is infinite, naming the variables
    whose every option is infinite.
    """
    out, to, cap = _arc_arrays(fg.arcs, len(fg.node_labels))
    rank = [0] * len(out)
    for u in fg.vs_nodes.values():
        rank[u] = 1
    for r, t in enumerate(sorted(fg.ce_nodes, reverse=True), 2):
        rank[fg.ce_nodes[t]] = r
    rank[SINK] = len(fg.ce_nodes) + 2
    flow = _blocking_flow(fg, out, to, cap, rank)
    while True:
        level = _levels(out, to, cap, SRC, SINK)
        if level[SINK] < 0:
            break
        flow += _blocking_flow(fg, out, to, cap, level)

    migrate = {name for name, u in fg.vs_nodes.items() if level[u] < 0}
    rerun = sorted(t for t, u in fg.ce_nodes.items() if level[u] >= 0)
    # the cut's arcs summed in a fixed order: the flow's own sum follows the
    # order of the pushes, and so the order of the arcs
    cut = sum((fg.arcs[SRC][fg.vs_nodes[n]] for n in sorted(migrate)), 0.0) + sum(
        (fg.arcs[fg.ce_nodes[t]][SINK] for t in rerun), 0.0
    )
    if not math.isclose(cut, flow, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"max-flow {flow} != cut value {cut}")
    return _priced(fg.cost, migrate, rerun, cut)


def brute_force_plan(
    history: HistoryGraph,
    cost: CostModel,
    linked: Iterable[tuple[str, str]] | None = None,
    forced_migrate: set[str] | None = None,
    forced_recompute: set[str] | None = None,
) -> ReplicationPlan:
    """Exhaustive oracle: evaluate the cost equations over every admissible
    subset of active variables and return a minimizer; raises TooLarge past
    ``BRUTE_FORCE_MAX_VARS`` of them.

    Ties break toward the smaller migrate set, then lexicographic order.
    """
    linked = set(linked or ())
    forced_migrate = set(forced_migrate or ())
    forced_recompute = set(forced_recompute or ())
    active = history.active_snapshots()
    names = sorted(active)
    if len(names) > BRUTE_FORCE_MAX_VARS:
        raise TooLarge(f"{len(names)} active variables exceeds bound {BRUTE_FORCE_MAX_VARS}")

    best: tuple[float, int, tuple[str, ...]] | None = None
    best_set: frozenset[str] | None = None
    for mask in range(1 << len(names)):
        subset = frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
        if any((a in subset) != (b in subset) for a, b in linked):
            continue
        if forced_migrate - subset or forced_recompute & subset:
            continue
        total = cost.migration_cost(subset) + cost.recompute_cost(
            history, set(names) - subset, ground=subset
        )
        key = (total, len(subset), tuple(sorted(subset)))
        if best is None or key < best:
            best = key
            best_set = subset
    if best is None:
        raise Infeasible(names)
    if best[0] == INF:
        fg = build_flow_graph(history, cost, linked, forced_migrate, forced_recompute)
        raise Infeasible(_infeasible_variables(fg))

    migrate = set(best_set)
    targets = {active[n] for n in set(names) - migrate}
    rerun = [c.t for c in history.rerun_cells_from(targets, {active[n] for n in migrate})]
    return _priced(cost, migrate, rerun, best[0])


def baseline_plans(history: HistoryGraph, cost: CostModel) -> dict[str, ReplicationPlan]:
    """The two naive strategies every plan is measured against.

    copy_all migrates every active variable (infinite if any is
    unserializable); rerun_all replays every recorded cell from scratch. Its
    rerun list holds the cells the lineage keeps, which rebuild the same
    state; its cost is that of every cell the session recorded.
    """
    active = history.active_snapshots()
    return {
        "copy_all": _priced(cost, set(active), [], cost.migration_cost(active)),
        "rerun_all": _priced(cost, set(), list(history.cells), history.recorded_rerun_s),
    }


def session_cost_model(
    session,
    *,
    alpha: float | None = None,
    bandwidth: float | None = None,
    latency: float | None = None,
    objective: str | None = None,
) -> CostModel:
    """A fresh cost model of the session: its storage profile adjusted to the
    requested channel and objective, with the active variables' sizes and
    serializability profiled over their closures in the session's name index
    (``current_index``). Raises UnknownVariable for an active variable the
    heap no longer binds.

    ``objective="migrate"`` prices store time fully (alpha=1);
    ``objective="restore"`` discounts it (alpha=0.05). An explicit ``alpha``
    wins over the objective.
    """
    if objective is not None:
        if objective not in ("migrate", "restore"):
            raise ValueError(f"unknown objective {objective!r}")
        if alpha is None:
            alpha = 1.0 if objective == "migrate" else 0.05
    overrides = {"alpha": alpha, "bandwidth_bytes_per_s": bandwidth, "latency_s": latency}
    cost = CostModel(replace(
        session.profile, **{k: v for k, v in overrides.items() if v is not None}
    ))
    index = current_index(session)
    try:
        closures = {name: index.closures[name] for name in session.history.active_snapshots()}
    except KeyError as missing:  # the heap unbound it outside run_cell
        raise UnknownVariable(f"variable {missing.args[0]!r} is not bound") from None
    cost.profile_variables(session.heap.objects, closures)
    return cost


def plan_session(
    session,
    *,
    alpha: float | None = None,
    bandwidth: float | None = None,
    latency: float | None = None,
    objective: str | None = None,
) -> ReplicationPlan:
    """Profile the session and compute a plan under the requested objective,
    with the linked groups of the session's name index."""
    cost = session_cost_model(session, alpha=alpha, bandwidth=bandwidth, latency=latency, objective=objective)
    active = session.history.active_snapshots()

    # looked up on the module at each plan, where bench/spans.py wraps it
    linked = cost_module.linked_pairs(current_index(session), active)
    forced_migrate = {n for n, a in session.annotations.items() if a == "always_copy" and n in active}
    forced_recompute = {n for n, a in session.annotations.items() if a == "always_recompute" and n in active}

    fg = build_flow_graph(session.history, cost, linked, forced_migrate, forced_recompute)
    return min_cut_plan(fg)
