"""Cost model for replication planning.

Store/load time estimates come from profiled variable sizes and the storage
channel (bandwidth, latency); recompute estimates sum the rerun price of
each cell the lineage records, ``CellExecution.rerun_s``: its runtime, or
infinity for a cell that is not ``rerunnable`` (never-rerun or
nondeterministic, so a rerun would not reproduce its values). The alpha
coefficient discounts checkpoint-write time relative to restore time:
alpha=1 prices end-to-end migration, small alpha prices the user-perceived
restart after a suspension. Unserializable variables price at infinity so
plans route around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UnknownVariable
# build_id_graph is unused here but stays importable: bench/spans.py patches cost.build_id_graph
from .heap import NameIndex, build_id_graph
from .history import HistoryGraph
from .schema import FIELD_TYPES, check_fields, rules

INF = math.inf

_PROFILE = rules({"bandwidth_bytes_per_s": "bandwidth"},
                 {"store_bandwidth_bytes_per_s": "bandwidth", "latency_s": "seconds", "alpha": "seconds"})
_is_bandwidth, _is_seconds = FIELD_TYPES["bandwidth"], FIELD_TYPES["seconds"]


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
        # the ranges the readers check (schema.FIELD_TYPES); NaN fails them
        store = self.store_bandwidth_bytes_per_s
        if not _is_bandwidth(self.bandwidth_bytes_per_s) or (store is not None and not _is_bandwidth(store)):
            raise ValueError("bandwidths must be positive and finite")
        if not (_is_seconds(self.latency_s) and _is_seconds(self.alpha)):
            raise ValueError("latency and alpha must be finite and non-negative")

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
        check_fields(data, _PROFILE, "profile")
        return cls(**{name: float(value) for name, value in data.items()})


@dataclass
class CostModel:
    """Profiled metrics plus the cost equations the planner optimizes."""

    profile: CostProfile
    var_sizes: dict[str, int] = field(default_factory=dict)
    var_serializable: dict[str, bool] = field(default_factory=dict)

    # -- profiling ----------------------------------------------------------

    def profile_variables(self, objects, closures) -> None:
        """Measure per-variable sizes and serializability over ``closures``
        (name -> the ids of the objects in ``objects`` it reaches).

        Sizes sum every object in the variable's closure; an object shared by
        two variables is charged to each variable's own closure.
        """
        for name, closure in closures.items():
            self.var_sizes[name] = sum(objects[o].size_bytes for o in closure)
            self.var_serializable[name] = all(objects[o].serializable for o in closure)

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

    # -- plan-level costs -----------------------------------------------------

    def migration_cost(self, names) -> float:
        """Total migrate time for a set of variables (alpha-weighted store + load)."""
        return sum((self.migration_seconds(n) for n in names), 0.0)

    def recompute_cost(self, history: HistoryGraph, names, ground) -> float:
        """Total rerun time of the merged cell list rebuilding ``names``."""
        active = history.active_snapshots()
        targets = {active[n] for n in names if n in active}
        cells = history.rerun_cells_from(targets, {active[n] for n in ground if n in active})
        return sum((c.rerun_s for c in cells), 0.0)

    def total_cost(self, history: HistoryGraph, migrate) -> float:
        """Plan cost: migrate the given set, recompute every other active variable."""
        migrate = set(migrate)
        active = set(history.active_snapshots())
        return self.migration_cost(migrate) + self.recompute_cost(
            history, active - migrate, ground=migrate
        )


def linked_pairs(index: NameIndex, names) -> list[tuple[str, str]]:
    """The pairs that tie each linked group of ``names``, whose closures in
    ``index`` intersect directly or through other members: a group is
    migrated or recomputed as a whole, or a restore would split a shared
    reference in two. A group of k gives the k-1 pairs of its sorted members.
    """
    pairs: list[tuple[str, str]] = []
    for group in linked_groups(names, index.names.values()):
        members = sorted(group)
        pairs += zip(members, members[1:])
    return pairs


def _find(parent: dict[str, str], n: str) -> str:
    while parent[n] != n:
        parent[n] = parent[parent[n]]
        n = parent[n]
    return n


def _union(parent: dict[str, str], a: str, b: str) -> None:
    parent[_find(parent, a)] = _find(parent, b)


def linked_groups(names, links) -> list[set[str]]:
    """Partition ``names`` into the connected components of ``links``: each
    link is a collection of names tied together, such as a linked pair or
    the names that reach one object, and costs one union per name after
    its first.

    Names outside ``names`` are ignored. Groups come out in the order of
    their first member in sorted ``names``.
    """
    parent = {n: n for n in names}
    for link in links:
        first = None
        for n in link:
            if n in parent:
                if first is None:
                    first = n
                else:
                    _union(parent, n, first)
    groups: dict[str, set[str]] = {}
    for n in sorted(parent):
        groups.setdefault(_find(parent, n), set()).add(n)
    return list(groups.values())
