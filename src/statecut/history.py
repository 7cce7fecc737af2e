"""Session lineage graph.

A bipartite DAG of variable snapshots and cell executions. Write edges run
from the cell that finished at timestamp ``t`` to the ``(name, t)`` snapshots
it produced; read edges run from the snapshots a cell consumed to the cell.
From it we derive the active snapshot of every live variable and the ordered
cell list needed to rebuild any snapshot from a set of available variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, NonMonotonicTimestamp, Unreconstructable


@dataclass(frozen=True, order=True)
class VariableSnapshot:
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
    failed: bool = False


@dataclass
class CellRecord:
    """What the monitor observed for one cell execution."""

    t: int
    code_ref: str
    runtime_s: float
    accessed: set[VariableSnapshot] = field(default_factory=set)
    written: set[str] = field(default_factory=set)
    created: set[str] = field(default_factory=set)
    deleted: set[str] = field(default_factory=set)
    never_rerun: bool = False
    nondeterministic: bool = False
    failed: bool = False


class HistoryGraph:
    """Incrementally built lineage of one session."""

    def __init__(self) -> None:
        self.cells: list[CellExecution] = []
        self._cell_by_t: dict[int, CellExecution] = {}
        self.snapshots: dict[str, list[VariableSnapshot]] = {}  # per name, t-ascending
        self.reads: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots read
        self.writes: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots written
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
            failed=rec.failed,
        )
        self.cells.append(cell)
        self._cell_by_t[rec.t] = cell
        self.reads[rec.t] = {vs for vs in rec.accessed if vs.t < rec.t}
        written = set()
        for name in rec.written | rec.created:
            vs = VariableSnapshot(name, rec.t)
            self.snapshots.setdefault(name, []).append(vs)
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

    def latest_snapshot(self, name: str, before: int | None = None) -> VariableSnapshot | None:
        """Most recent snapshot of ``name``, optionally strictly before ``before``."""
        versions = self.snapshots.get(name)
        if not versions:
            return None
        if before is None:
            return versions[-1]
        for vs in reversed(versions):
            if vs.t < before:
                return vs
        return None

    def active_snapshots(self) -> dict[str, VariableSnapshot]:
        """Latest snapshot of every non-deleted variable."""
        return {
            name: versions[-1]
            for name, versions in self.snapshots.items()
            if versions and name not in self.deleted
        }

    def rerun_cells_from(
        self,
        targets: set[VariableSnapshot],
        ground_vses: set[VariableSnapshot],
        *,
        require_rerunnable: bool = False,
    ) -> list[CellExecution]:
        """Backward closure from ``targets``, stopping each path at a snapshot
        in ``ground_vses`` (available as-is); returns the producing cells that
        rebuild every target, each once, sorted by completion time."""
        need: set[int] = set()
        stack = [vs for vs in targets if vs not in ground_vses]
        seen = set(stack)
        while stack:
            vs = stack.pop()
            t = vs.t
            if t in need:
                continue
            need.add(t)
            if require_rerunnable and self._cell_by_t[t].never_rerun:
                raise Unreconstructable(vs.name, blocked_at=t)
            for dep in self.reads.get(t, ()):
                if dep not in seen and dep not in ground_vses:
                    seen.add(dep)
                    stack.append(dep)
        return [self._cell_by_t[t] for t in sorted(need)]

    # -- serialization ------------------------------------------------------

    def to_manifest(self) -> dict:
        return {
            "cells": [
                {
                    "t": c.t,
                    "code_ref": c.code_ref,
                    "runtime_s": c.runtime_s,
                    "never_rerun": c.never_rerun,
                    "nondeterministic": c.nondeterministic,
                    "failed": c.failed,
                    "reads": sorted([vs.name, vs.t] for vs in self.reads.get(c.t, ())),
                    "writes": sorted(vs.name for vs in self.writes.get(c.t, ())),
                }
                for c in self.cells
            ],
            "deleted": dict(sorted(self.deleted.items())),
        }

    @classmethod
    def from_manifest(cls, data: dict) -> HistoryGraph:
        """Rebuild a lineage from ``to_manifest`` output; raises FormatError
        when a cell reads a snapshot that no earlier cell wrote."""
        graph = cls()
        written: set[VariableSnapshot] = set()
        for entry in data["cells"]:
            accessed = {VariableSnapshot(n, t) for n, t in entry["reads"]}
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
                    written=set(entry["writes"]),
                    never_rerun=entry["never_rerun"],
                    nondeterministic=entry["nondeterministic"],
                    failed=entry.get("failed", False),
                )
            )
            written |= graph.writes[cell.t]
        graph.deleted = dict(data["deleted"])
        return graph
