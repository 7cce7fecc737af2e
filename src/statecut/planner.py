"""Replication planner.

Reduces the migrate-vs-recompute decision to a src-sink min cut. Each active
variable snapshot hangs off the source with capacity equal to its migration
cost; each cell execution feeds the sink with capacity equal to its rerun
cost; infinite edges tie every snapshot to the cells that would have to rerun
if it were recomputed, and tie linked variables to each other so aliased
pairs land on the same side of the cut. The min cut's sink side is the
migrate set; its source-side cells form the rerun list.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .cost import CostModel, linked_groups
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
    history: HistoryGraph
    cost: CostModel
    linked: set[tuple[str, str]] = field(default_factory=set)
    forced_migrate: set[str] = field(default_factory=set)
    forced_recompute: set[str] = field(default_factory=set)

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
    linked = set(linked or ())
    forced_migrate = set(forced_migrate or ())
    forced_recompute = set(forced_recompute or ())
    active = history.active_snapshots()

    labels: list[object] = ["src", "sink"]
    fg = FlowGraph(
        node_labels=labels,
        arcs={SRC: {}, SINK: {}},
        vs_nodes={},
        ce_nodes={},
        history=history,
        cost=cost,
        linked=linked,
        forced_migrate=forced_migrate,
        forced_recompute=forced_recompute,
    )
    for name in sorted(active):
        fg.vs_nodes[name] = len(labels)
        labels.append(active[name])
    for cell in history.cells:
        fg.ce_nodes[cell.t] = len(labels)
        labels.append(cell.t)

    active_vses = set(active.values())
    for name, vs in active.items():
        u = fg.vs_nodes[name]
        capacity = INF if name in forced_recompute else cost.migration_seconds(name)
        fg.add_arc(SRC, u, capacity)
        if name in forced_migrate:
            fg.add_arc(u, SINK, INF)
        for cell in history.rerun_cells_from({vs}, active_vses - {vs}):
            fg.add_arc(u, fg.ce_nodes[cell.t], INF)
    for cell in history.cells:
        fg.add_arc(fg.ce_nodes[cell.t], SINK, cost.rerun_seconds(cell))
    for a, b in linked:
        if a in fg.vs_nodes and b in fg.vs_nodes:
            fg.add_arc(fg.vs_nodes[a], fg.vs_nodes[b], INF)
            fg.add_arc(fg.vs_nodes[b], fg.vs_nodes[a], INF)
    return fg


def _bfs_path(residual: dict[int, dict[int, float]], src: int, sink: int) -> list[int] | None:
    parent = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, cap in residual[u].items():
            if cap > 0 and v not in parent:
                parent[v] = u
                if v == sink:
                    path = [v]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


def _residual_reachable(residual: dict[int, dict[int, float]], src: int) -> set[int]:
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, cap in residual[u].items():
            if cap > 0 and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _infeasible_variables(fg: FlowGraph) -> list[str]:
    """Names for which both migrating and recomputing are infinite, grouped by
    linked component (the whole component must move together)."""
    active = fg.history.active_snapshots()
    bad: list[str] = []
    for comp in linked_groups(active, fg.linked):
        can_migrate = all(
            fg.cost.migration_seconds(n) < INF and n not in fg.forced_recompute
            for n in comp
        )
        targets = {active[n] for n in comp}
        cells = fg.history.rerun_cells_from(targets, set(active.values()) - targets)
        can_recompute = (
            all(fg.cost.rerun_seconds(c) < INF for c in cells)
            and not (comp & fg.forced_migrate)
        )
        if not can_migrate and not can_recompute:
            bad.extend(comp)
    return bad


def min_cut_plan(fg: FlowGraph) -> ReplicationPlan:
    """Solve the network with BFS-selected augmenting paths and read the plan
    off the residual src-side/sink-side partition.

    Raises Infeasible when the cut value is infinite, naming the variables
    whose every option is infinite.
    """
    residual = {u: dict(vs) for u, vs in fg.arcs.items()}
    flow = 0.0
    while True:
        path = _bfs_path(residual, SRC, SINK)
        if path is None:
            break
        bottleneck = min(residual[u][v] for u, v in zip(path, path[1:]))
        if bottleneck == INF:
            raise Infeasible(_infeasible_variables(fg))
        for u, v in zip(path, path[1:]):
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck

    src_side = _residual_reachable(residual, SRC)
    migrate = {name for name, u in fg.vs_nodes.items() if u not in src_side}
    rerun = sorted(t for t, u in fg.ce_nodes.items() if u in src_side)
    # the cut's arcs summed in a fixed order: the flow's own sum follows the
    # augmentation order, which follows set iteration and so the hash seed
    cut = fg.cost.migration_cost(sorted(migrate)) + sum(
        fg.cost.rerun_seconds(fg.history.cell(t)) for t in rerun
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


def _satisfies_links(subset: frozenset[str], linked: set[tuple[str, str]]) -> bool:
    return all((a in subset) == (b in subset) for a, b in linked)


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
        if not _satisfies_links(subset, linked):
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
