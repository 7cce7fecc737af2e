"""Session lineage graph.

A bipartite DAG of variable snapshots and cell executions. Write edges run
from the cell that finished at timestamp ``t`` to the ``(name, t)`` snapshots
it produced; read edges run from the snapshots a cell consumed to the cell.
From it we derive the active snapshot of every live variable and the ordered
cell list needed to rebuild any snapshot from a set of available variables.
Its manifest form keeps only the live cells, the ones such a list can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import FormatError, NonMonotonicTimestamp, Unreconstructable


class VariableSnapshot(NamedTuple):
    """The version of ``name`` created or modified at timestamp ``t``."""

    name: str
    t: int


@dataclass
class CellExecution:
    """One totally-ordered execution of a cell, finishing at timestamp ``t``."""

    t: int
    code_ref: str
    runtime_s: float
    never_rerun: bool = False
    nondeterministic: bool = False
    failed_at: int | None = None  # position of the op that failed, if one did

    @property
    def failed(self) -> bool:
        return self.failed_at is not None


@dataclass
class CellRecord(CellExecution):
    """What the monitor observed for one cell execution."""

    accessed: set[VariableSnapshot] = field(default_factory=set)
    written: set[str] = field(default_factory=set)
    created: set[str] = field(default_factory=set)
    deleted: set[str] = field(default_factory=set)


class HistoryGraph:
    """Incrementally built lineage of one session."""

    def __init__(self) -> None:
        self.cells: list[CellExecution] = []
        self._cell_by_t: dict[int, CellExecution] = {}
        self.reads: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots read
        self.writes: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots written
        self.latest: dict[str, VariableSnapshot] = {}  # name -> last write; older ones only in writes
        self.deleted: dict[str, int] = {}  # name -> tombstone t

    # -- construction -------------------------------------------------------

    def record(self, rec: CellRecord) -> CellExecution:
        """Append one cell execution and its read/write dependencies."""
        if self.cells and rec.t <= self.cells[-1].t:
            raise NonMonotonicTimestamp(
                f"timestamp {rec.t} not after {self.cells[-1].t}"
            )
        cell = CellExecution(
            t=rec.t,
            code_ref=rec.code_ref,
            runtime_s=rec.runtime_s,
            never_rerun=rec.never_rerun,
            nondeterministic=rec.nondeterministic,
            failed_at=rec.failed_at,
        )
        self.cells.append(cell)
        self._cell_by_t[rec.t] = cell
        self.reads[rec.t] = {vs for vs in rec.accessed if vs.t < rec.t}
        written = set()
        for name in rec.written | rec.created:
            vs = VariableSnapshot(name, rec.t)
            self.latest[name] = vs
            self.deleted.pop(name, None)
            written.add(vs)
        self.writes[rec.t] = written
        for name in rec.deleted:
            if name not in rec.written and name not in rec.created:
                self.deleted[name] = rec.t
        return cell

    def cell(self, t: int) -> CellExecution:
        return self._cell_by_t[t]

    # -- queries ------------------------------------------------------------

    def active_snapshots(self) -> dict[str, VariableSnapshot]:
        """Latest snapshot of every non-deleted variable."""
        return {name: vs for name, vs in self.latest.items() if name not in self.deleted}

    def rerun_cells_from(
        self,
        targets: set[VariableSnapshot],
        ground_vses: set[VariableSnapshot],
        *,
        require_rerunnable: bool = False,
    ) -> list[CellExecution]:
        """Backward closure from ``targets``, stopping each path at a snapshot
        in ``ground_vses`` (available as-is); returns the producing cells that
        rebuild every target, each once, sorted by completion time.

        With ``require_rerunnable``, a never-rerun or nondeterministic cell
        in the closure raises Unreconstructable for the latest such cell,
        naming the least snapshot name of it the walk reached: a rerun could
        not reproduce the recorded values. Every other cell on a path from a
        target to it is later, so none of them blocks: it blocks first."""
        need: set[int] = set()
        # set algebra reuses the hashes the sets store; the closure does not
        # depend on the order the walk takes
        seen = targets - ground_vses
        stack = list(seen)
        while stack:
            t = stack.pop().t
            if t in need:
                continue
            need.add(t)
            fresh = self.reads.get(t, set()) - seen - ground_vses
            seen |= fresh
            stack.extend(fresh)
        if require_rerunnable:
            cells = self._cell_by_t
            blocked = [t for t in need if cells[t].never_rerun or cells[t].nondeterministic]
            if blocked:
                t = max(blocked)
                raise Unreconstructable(min(vs.name for vs in seen if vs.t == t), blocked_at=t)
        return [self._cell_by_t[t] for t in sorted(need)]

    def live_cells(self) -> list[CellExecution]:
        """The cells in the backward closure of the active snapshots, sorted
        by completion time: the only cells any plan or restore fallback can
        rerun. Later cells read only active snapshots, so a dead cell stays
        dead."""
        return self.rerun_cells_from(set(self.active_snapshots().values()), set())

    # -- serialization ------------------------------------------------------

    def to_manifest(self) -> dict:
        """The live cells with their edges, and the tombstones of the names
        they write: enough to rebuild every active snapshot, and the same
        active set as the whole lineage."""
        cells = []
        written: set[str] = set()
        for c in self.live_cells():
            written.update(vs.name for vs in self.writes[c.t])
            entry = {
                "t": c.t,
                "code_ref": c.code_ref,
                "runtime_s": c.runtime_s,
                "never_rerun": c.never_rerun,
                "nondeterministic": c.nondeterministic,
                "reads": sorted([vs.name, vs.t] for vs in self.reads.get(c.t, ())),
                "writes": sorted(vs.name for vs in self.writes.get(c.t, ())),
            }
            if c.failed:
                entry["failed_at"] = c.failed_at
            cells.append(entry)
        deleted = {name: t for name, t in self.deleted.items() if name in written}
        return {"cells": cells, "deleted": dict(sorted(deleted.items()))}

    @classmethod
    def from_manifest(cls, data: dict) -> HistoryGraph:
        """Rebuild a lineage from ``to_manifest`` output; raises FormatError
        when a cell's t is not an int, its code_ref is not a string, its
        runtime is not a finite non-negative number, a flag is not a bool,
        its writes are not a list of names, a read is not a [name, t] pair,
        it reads a snapshot that no earlier cell wrote, or the position of
        its failing op, when given, is not a non-negative int; or when a
        tombstone's t is not an int after the last write of its name."""
        graph = cls()
        written: set[VariableSnapshot] = set()
        for entry in data["cells"]:
            if type(entry["t"]) is not int:
                raise FormatError(f"cell t={entry['t']!r} is not an int")
            if type(entry["code_ref"]) is not str:
                raise FormatError(f"cell {entry['t']} has a code_ref that is not a string")
            runtime = entry["runtime_s"]
            if not (type(runtime) in (int, float) and 0 <= runtime < math.inf):
                raise FormatError(f"cell {entry['t']} has runtime_s={runtime!r}")
            for flag in ("never_rerun", "nondeterministic"):
                if type(entry[flag]) is not bool:
                    raise FormatError(f"cell {entry['t']} has {flag}={entry[flag]!r}")
            failed_at = entry.get("failed_at")
            if "failed_at" in entry and not (type(failed_at) is int and failed_at >= 0):
                raise FormatError(f"cell {entry['t']} has failed_at={failed_at!r}")
            reads, writes = entry["reads"], entry["writes"]
            if type(writes) is not list or any(type(name) is not str for name in writes):
                raise FormatError(f"cell {entry['t']} has writes={writes!r}")
            accessed = set()
            for r in reads:  # a plain loop: no allocation per read
                if type(r) is not list or len(r) != 2 or type(r[0]) is not str or type(r[1]) is not int:
                    raise FormatError(f"cell {entry['t']} reads {r!r}, which is not a [name, t] pair")
                accessed.add(VariableSnapshot(*r))
            unwritten = accessed - written
            if unwritten:
                names = ", ".join(sorted(f"{vs.name}@{vs.t}" for vs in unwritten))
                raise FormatError(f"cell {entry['t']} reads {names}, which no earlier cell wrote")
            cell = graph.record(
                CellRecord(
                    t=entry["t"],
                    code_ref=entry["code_ref"],
                    runtime_s=entry["runtime_s"],
                    accessed=accessed,
                    written=set(writes),
                    never_rerun=entry["never_rerun"],
                    nondeterministic=entry["nondeterministic"],
                    failed_at=failed_at,
                )
            )
            written |= graph.writes[cell.t]
        deleted = dict(data["deleted"])
        for name, t in deleted.items():
            last = graph.latest.get(name)
            if last is None or type(t) is not int or t <= last.t:
                raise FormatError(f"tombstone {name!r} at t={t!r} does not follow a write of the name")
        graph.deleted = deleted
        return graph
