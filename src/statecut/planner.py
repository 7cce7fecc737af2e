"""Replication planner.

Reduces the migrate-vs-recompute decision to a src-sink min cut over the
session lineage. Each active variable snapshot hangs off the source at its
migration cost and points at the cell that produced it; each cell feeds the
sink at its rerun cost and points at the producers of the non-active
snapshots it read (an active one is available either as stored or as rebuilt
by its own arc). Linked variables are tied both ways, so aliased pairs land
on the same side of the cut. These ties are infinite, so a recomputed
variable drags every cell of its rebuild to the source side, and there are
at most as many as lineage read edges plus one per active variable. The min
cut's sink side is the migrate set; its source-side cells form the rerun
list. A variable none of whose options is finite lies on an all-infinite
source-sink path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .cost import CostModel
from .errors import Infeasible, TooLarge
from .history import HistoryGraph

INF = math.inf

SRC = 0
SINK = 1


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


@dataclass
class ReplicationPlan:
    """Output partition: variables to migrate, cells to rerun, and its cost."""

    migrate: set[str]
    rerun: list[int]  # cell timestamps, ascending
    cost_s: float
    alpha: float = 1.0
    bandwidth_bytes_per_s: float = 0.0

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
        return cls(
            migrate=set(data["migrate"]),
            rerun=list(data["rerun"]),
            cost_s=data["cost_s"],
            alpha=data.get("alpha", 1.0),
            bandwidth_bytes_per_s=data.get("bandwidth", 0.0),
        )


def build_flow_graph(
    history: HistoryGraph,
    cost: CostModel,
    linked: set[tuple[str, str]] | None = None,
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
    for cell in history.cells:
        fg.ce_nodes[cell.t] = len(labels)
        labels.append(cell.t)

    for name, u in fg.vs_nodes.items():
        capacity = INF if name in forced_recompute else cost.migration_seconds(name)
        fg.add_arc(SRC, u, capacity)
        if name in forced_migrate:
            fg.add_arc(u, SINK, INF)
        fg.add_arc(u, fg.ce_nodes[active[name].t], INF)
    # one backward pass: a cell that some active snapshot's rebuild reaches
    # needs the producers of the non-active snapshots it read
    active_vses = set(active.values())
    reached = {vs.t for vs in active_vses}
    for cell in reversed(history.cells):
        u = fg.ce_nodes[cell.t]
        if cell.t in reached:
            producers = {dep.t for dep in history.reads[cell.t] if dep not in active_vses}
            reached |= producers
            for t in sorted(producers):
                fg.add_arc(u, fg.ce_nodes[t], INF)
        fg.add_arc(u, SINK, cost.rerun_seconds(cell))
    for a, b in linked or ():
        if a in fg.vs_nodes and b in fg.vs_nodes:
            fg.add_arc(fg.vs_nodes[a], fg.vs_nodes[b], INF)
            fg.add_arc(fg.vs_nodes[b], fg.vs_nodes[a], INF)
    return fg


def _residual_bfs(
    residual: dict[int, dict[int, float]], src: int, sink: int | None = None
) -> dict[int, int]:
    """Parent map of the nodes reachable from ``src`` along positive arcs,
    in breadth-first order; the search stops as soon as it reaches ``sink``."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, cap in residual[u].items():
            if cap > 0 and v not in parent:
                parent[v] = u
                if v == sink:
                    return parent
                queue.append(v)
    return parent


def _infeasible_variables(fg: FlowGraph) -> list[str]:
    """Active names on an all-infinite source-sink path: their linked group can
    neither migrate (infinite source arc) nor be recomputed (infinite path on
    to the sink, through a never-rerun cell or a forced migration)."""
    arcs = fg.arcs
    ahead = _residual_bfs(
        {u: {v: c for v, c in out.items() if c == INF} for u, out in arcs.items()}, SRC
    )
    behind = _residual_bfs(
        {v: {u: INF for u in out if arcs[u][v] == INF} for v, out in arcs.items()}, SINK
    )
    return [name for name, u in fg.vs_nodes.items() if u in ahead and u in behind]


def min_cut_plan(fg: FlowGraph) -> ReplicationPlan:
    """Solve the network with BFS-selected augmenting paths and read the plan
    off the residual src-side/sink-side partition.

    Raises Infeasible when the cut value is infinite, naming the variables
    whose every option is infinite.
    """
    residual = {u: dict(vs) for u, vs in fg.arcs.items()}
    flow = 0.0
    while True:
        parent = _residual_bfs(residual, SRC, SINK)
        if SINK not in parent:
            break
        path = []
        v = SINK
        while v != SRC:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        if bottleneck == INF:
            raise Infeasible(_infeasible_variables(fg))
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck

    # the last search found no path, so it reached the whole source side
    src_side = parent
    migrate = {name for name, u in fg.vs_nodes.items() if u not in src_side}
    rerun = sorted(t for t, u in fg.ce_nodes.items() if u in src_side)
    # the cut's arcs summed in a fixed order: the flow's own sum follows the
    # augmentation order, which follows set iteration and so the hash seed
    cut = sum(fg.arcs[SRC][fg.vs_nodes[n]] for n in sorted(migrate)) + sum(
        fg.arcs[fg.ce_nodes[t]][SINK] for t in rerun
    )
    if not math.isclose(cut, flow, rel_tol=1e-9, abs_tol=1e-9):
        raise AssertionError(f"max-flow {flow} != cut value {cut}")
    return ReplicationPlan(
        migrate=migrate,
        rerun=rerun,
        cost_s=cut,
        alpha=fg.cost.profile.alpha,
        bandwidth_bytes_per_s=fg.cost.profile.bandwidth_bytes_per_s,
    )


def brute_force_plan(
    history: HistoryGraph,
    cost: CostModel,
    linked: set[tuple[str, str]] | None = None,
    forced_migrate: set[str] | None = None,
    forced_recompute: set[str] | None = None,
    max_vars: int = 16,
) -> ReplicationPlan:
    """Exhaustive oracle: evaluate the cost equations over every admissible
    subset of active variables and return a minimizer.

    Ties break toward the smaller migrate set, then lexicographic order.
    """
    linked = set(linked or ())
    forced_migrate = set(forced_migrate or ())
    forced_recompute = set(forced_recompute or ())
    active = history.active_snapshots()
    names = sorted(active)
    if len(names) > max_vars:
        raise TooLarge(f"{len(names)} active variables exceeds bound {max_vars}")

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
    return ReplicationPlan(
        migrate=migrate,
        rerun=rerun,
        cost_s=best[0],
        alpha=cost.profile.alpha,
        bandwidth_bytes_per_s=cost.profile.bandwidth_bytes_per_s,
    )


def baseline_plans(history: HistoryGraph, cost: CostModel) -> dict[str, ReplicationPlan]:
    """The two naive strategies every plan is measured against.

    copy_all migrates every active variable (infinite if any is
    unserializable); rerun_all replays every recorded cell from scratch.
    """
    active = history.active_snapshots()
    copy_all = ReplicationPlan(
        migrate=set(active),
        rerun=[],
        cost_s=cost.migration_cost(active),
        alpha=cost.profile.alpha,
        bandwidth_bytes_per_s=cost.profile.bandwidth_bytes_per_s,
    )
    rerun_all = ReplicationPlan(
        migrate=set(),
        rerun=[c.t for c in history.cells],
        cost_s=sum(cost.rerun_seconds(c) for c in history.cells),
        alpha=cost.profile.alpha,
        bandwidth_bytes_per_s=cost.profile.bandwidth_bytes_per_s,
    )
    return {"copy_all": copy_all, "rerun_all": rerun_all}


def session_cost_model(
    session,
    *,
    alpha: float | None = None,
    bandwidth: float | None = None,
    latency: float | None = None,
    objective: str | None = None,
) -> CostModel:
    """Complete the session's cost model (sizes, serializability) and return
    a copy adjusted to the requested storage profile and objective.

    ``objective="migrate"`` prices store time fully (alpha=1);
    ``objective="restore"`` discounts it (alpha=0.05). An explicit ``alpha``
    wins over the objective.
    """
    if objective is not None:
        if objective not in ("migrate", "restore"):
            raise ValueError(f"unknown objective {objective!r}")
        if alpha is None:
            alpha = 1.0 if objective == "migrate" else 0.05
    session.cost.profile_variables(session.heap, session.history.active_snapshots())
    return session.cost.with_profile(
        alpha=alpha, bandwidth_bytes_per_s=bandwidth, latency_s=latency
    )


def plan_session(
    session,
    *,
    alpha: float | None = None,
    bandwidth: float | None = None,
    latency: float | None = None,
    objective: str | None = None,
    ablate: tuple[str, ...] = (),
) -> ReplicationPlan:
    """Profile the session and compute a plan under the requested objective."""
    from .cost import linked_pairs

    cost = session_cost_model(
        session, alpha=alpha, bandwidth=bandwidth, latency=latency, objective=objective
    )
    active = session.history.active_snapshots()

    linked = set() if "no-linked" in ablate else linked_pairs(session.heap, active)
    forced_migrate = {n for n, a in session.annotations.items() if a == "always_copy" and n in active}
    forced_recompute = {n for n, a in session.annotations.items() if a == "always_recompute" and n in active}

    fg = build_flow_graph(session.history, cost, linked, forced_migrate, forced_recompute)
    return min_cut_plan(fg)
