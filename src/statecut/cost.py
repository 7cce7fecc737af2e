"""Cost model for replication planning.

Store/load time estimates come from profiled variable sizes and the storage
channel (bandwidth, latency); recompute estimates from observed cell
runtimes. The alpha coefficient discounts checkpoint-write time relative to
restore time: alpha=1 prices end-to-end migration, small alpha prices the
user-perceived restart after a suspension. Unserializable variables price at
infinity so plans route around them; never-rerun cells likewise price rerun
at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import FormatError, UnknownVariable
# build_id_graph is unused here but stays importable: bench/spans.py patches cost.build_id_graph
from .heap import NameIndex, SimHeap, build_id_graph
from .history import CellExecution, HistoryGraph

INF = math.inf


@dataclass(frozen=True)
class CostProfile:
    """Storage-channel parameters supplied by config or CLI flags.

    ``store_bandwidth_bytes_per_s`` covers channels where writing runs at a
    different rate than reading back; by default both directions share
    ``bandwidth_bytes_per_s``.
    """

    bandwidth_bytes_per_s: float
    latency_s: float = 0.0
    alpha: float = 1.0
    store_bandwidth_bytes_per_s: float | None = None

    def __post_init__(self) -> None:
        # "not x > 0" rather than "x <= 0", so that NaN fails too
        store = self.store_bandwidth_bytes_per_s
        if not self.bandwidth_bytes_per_s > 0 or (store is not None and not store > 0):
            raise ValueError("bandwidths must be positive")
        if not (self.latency_s >= 0 and self.alpha >= 0):
            raise ValueError("latency and alpha must be non-negative")

    @property
    def store_bandwidth(self) -> float:
        return self.store_bandwidth_bytes_per_s or self.bandwidth_bytes_per_s

    def to_json(self) -> dict:
        data = {
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "latency_s": self.latency_s,
            "alpha": self.alpha,
        }
        if self.store_bandwidth_bytes_per_s is not None:
            data["store_bandwidth_bytes_per_s"] = self.store_bandwidth_bytes_per_s
        return data

    @classmethod
    def from_json(cls, data) -> CostProfile:
        """Parse a stored profile; raises FormatError when it is malformed."""
        if not isinstance(data, dict) or "bandwidth_bytes_per_s" not in data:
            raise FormatError("profile must define bandwidth_bytes_per_s")
        for key in ("bandwidth_bytes_per_s", "latency_s", "alpha", "store_bandwidth_bytes_per_s"):
            if key in data and type(data[key]) not in (int, float):
                raise FormatError(f"invalid profile: {key} must be a number")
        store = data.get("store_bandwidth_bytes_per_s")
        try:
            return cls(
                bandwidth_bytes_per_s=float(data["bandwidth_bytes_per_s"]),
                latency_s=float(data.get("latency_s", 0.0)),
                alpha=float(data.get("alpha", 1.0)),
                store_bandwidth_bytes_per_s=None if store is None else float(store),
            )
        except (TypeError, ValueError) as err:
            raise FormatError(f"invalid profile: {err}") from err


@dataclass
class CostModel:
    """Profiled metrics plus the cost equations the planner optimizes."""

    profile: CostProfile
    cell_runtimes: dict[int, float] = field(default_factory=dict)
    var_sizes: dict[str, int] = field(default_factory=dict)
    var_serializable: dict[str, bool] = field(default_factory=dict)

    def record_runtime(self, t: int, seconds: float) -> None:
        self.cell_runtimes[t] = seconds

    def with_profile(self, **overrides) -> CostModel:
        """Copy of this model under an adjusted storage profile."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        return CostModel(
            profile=replace(self.profile, **clean),
            cell_runtimes=dict(self.cell_runtimes),
            var_sizes=dict(self.var_sizes),
            var_serializable=dict(self.var_serializable),
        )

    # -- profiling ----------------------------------------------------------

    def profile_variables(self, heap: SimHeap, names=None) -> None:
        """Measure per-variable sizes and serializability over reachable sets.

        Sizes sum every object in the variable's closure; an object shared by
        two variables is charged to each variable's own closure.
        """
        names = heap.namespace.keys() if names is None else names
        for name in names:
            closure = heap.reachable(name)
            self.var_sizes[name] = sum(heap.objects[o].size_bytes for o in closure)
            self.var_serializable[name] = all(
                heap.objects[o].serializable for o in closure
            )

    # -- per-variable estimates ----------------------------------------------

    def store_seconds(self, name: str) -> float:
        """Time to serialize and write one variable; infinite if unserializable."""
        if name not in self.var_sizes:
            raise UnknownVariable(f"variable {name!r} was not profiled")
        if not self.var_serializable.get(name, True):
            return INF
        return self.profile.latency_s + self.var_sizes[name] / self.profile.store_bandwidth

    def load_seconds(self, name: str) -> float:
        """Time to read and re-declare one variable; infinite if it could not
        have been stored at all. Undeserializable variables price finite here;
        their failure only surfaces at restore time."""
        if name not in self.var_sizes:
            raise UnknownVariable(f"variable {name!r} was not profiled")
        if not self.var_serializable.get(name, True):
            return INF
        return self.profile.latency_s + self.var_sizes[name] / self.profile.bandwidth_bytes_per_s

    def migration_seconds(self, name: str) -> float:
        return self.profile.alpha * self.store_seconds(name) + self.load_seconds(name)

    def rerun_seconds(self, cell: CellExecution) -> float:
        if cell.never_rerun:
            return INF
        return self.cell_runtimes.get(cell.t, cell.runtime_s)

    # -- plan-level costs -----------------------------------------------------

    def migration_cost(self, names) -> float:
        """Total migrate time for a set of variables (alpha-weighted store + load)."""
        return sum(self.migration_seconds(n) for n in names)

    def recompute_cost(self, history: HistoryGraph, names, ground) -> float:
        """Total rerun time of the merged cell list rebuilding ``names``."""
        active = history.active_snapshots()
        targets = {active[n] for n in names if n in active}
        if not targets:
            return 0.0
        cells = history.rerun_cells_from(targets, {active[n] for n in ground if n in active})
        return sum(self.rerun_seconds(c) for c in cells)

    def total_cost(self, history: HistoryGraph, migrate) -> float:
        """Plan cost: migrate the given set, recompute every other active variable."""
        migrate = set(migrate)
        active = set(history.active_snapshots())
        return self.migration_cost(migrate) + self.recompute_cost(
            history, active - migrate, ground=migrate
        )


def linked_pairs(heap: SimHeap, names) -> set[tuple[str, str]]:
    """Unordered pairs of variables whose reachable objects intersect.

    Such pairs must be migrated together or recomputed together, otherwise
    the shared reference would be split into two objects on restore.
    """
    return NameIndex(heap.objects, {name: heap.root(name) for name in names}).shared_pairs()


def linked_groups(names, pairs) -> list[set[str]]:
    """Partition ``names`` into the connected components of ``pairs``.

    Pairs naming anything outside ``names`` are ignored. Groups come out in
    the order of their first member in sorted ``names``.
    """
    parent = {n: n for n in names}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in pairs:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for n in sorted(parent):
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())
