"""Session lineage graph.

A bipartite DAG of variable snapshots and cell executions. Write edges run
from the cell that finished at timestamp ``t`` to the ``(name, t)`` snapshots
it produced; read edges run from the snapshots a cell consumed to the cell.
From it we derive the active snapshot of every live variable and the ordered
cell list needed to rebuild any snapshot from a set of available variables.
It keeps only the live cells, the ones such a list can hold: recording a
cell drops every cell that no active snapshot needs any more, so its
manifest form is the graph as it is. The graph also keeps the session's
clock, the timestamp its next cell gets, and is the only writer of its own
state: a lineage built any other way, such as one with injected edges, is
written as a manifest and read back. Reading that form tests each cell by
its field table's compiled ``valid`` and walks the table's rules in
``schema`` only for a cell it does not accept, to name the fault, so a
valid manifest walks no rule. It then replays the cells through the same
recording step, which keeps the rules that relate cells to each other:
there is no second loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import FormatError, NonMonotonicTimestamp, Unreconstructable, UnknownVariable
from .schema import check_fields, rules


class VariableSnapshot(NamedTuple):
    """The version of ``name`` created or modified at timestamp ``t``."""

    name: str
    t: int


# builds a VariableSnapshot from a (name, t) pair in C, without the
# Python-level __new__ that NamedTuple generates; both give the same tuple
_new_snapshot = partial(tuple.__new__, VariableSnapshot)

_HISTORY = rules({"cells": "cells", "deleted": "t_map", "next_t": "int", "recorded_cells": "count",
                  "recorded_rerun_s": "seconds_or_inf"})
_CELL = rules({"t": "int", "code_ref": "ref", "runtime_s": "seconds", "never_rerun": "bool",
               "nondeterministic": "bool", "reads": "reads", "writes": "str_list"},
              {"failed_at": "count"})


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

    @property
    def rerunnable(self) -> bool:
        """Whether a rerun reproduces the recorded values: not for a cell
        annotated never-rerun, nor for a nondeterministic one."""
        return not (self.never_rerun or self.nondeterministic)

    @property
    def rerun_s(self) -> float:
        """The price of rerunning the cell: its recorded runtime, or infinity
        when it is not ``rerunnable``."""
        return self.runtime_s if self.rerunnable else math.inf


@dataclass
class CellRecord(CellExecution):
    """What the monitor observed for one cell execution."""

    accessed: set[VariableSnapshot] = field(default_factory=set)
    written: set[str] = field(default_factory=set)
    created: set[str] = field(default_factory=set)
    deleted: set[str] = field(default_factory=set)


class HistoryGraph:
    """Incrementally built lineage of one session, pruned as it grows.

    A cell is live while it has a reference: one for each of its written
    snapshots that is active, one for each read of its snapshots by a live
    cell. Later cells read only active snapshots, so a cell that loses its
    last reference stays dead, and dropping it releases the producers of
    what it read. The live cells are then exactly the backward closure of
    the active snapshots. Running totals over every recorded cell keep the
    cost of rerunning the whole session, and ``next_t``, the session's
    clock, the timestamp its next cell gets."""

    def __init__(self) -> None:
        self.cells: dict[int, CellExecution] = {}  # t -> live cell, in t order
        self.reads: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots read
        self.writes: dict[int, set[VariableSnapshot]] = {}  # cell t -> snapshots written
        self.latest: dict[str, VariableSnapshot] = {}  # name -> last write; older ones only in writes
        self.deleted: dict[str, int] = {}  # name -> tombstone t
        self.refs: dict[int, int] = {}  # cell t -> references that keep it live
        self.next_t = 1  # the timestamp the next cell gets: after every recorded one
        self.recorded_cells = 0  # every cell ever recorded
        self.recorded_rerun_s = 0.0  # the sum of their rerun_s

    # -- construction -------------------------------------------------------

    def record(self, rec: CellRecord) -> CellExecution:
        """Append one cell execution and its read/write dependencies, and
        drop the cells it leaves dead (itself, when it writes nothing);
        raises UnknownVariable when it reads a snapshot no live cell wrote."""
        # positional: a keyword call to a dataclass costs twice as much
        cell = CellExecution(rec.t, rec.code_ref, rec.runtime_s, rec.never_rerun, rec.nondeterministic,
                             rec.failed_at)
        self._add(cell, set(rec.accessed), rec.written | rec.created, rec.deleted)
        return cell

    def _add(self, cell: CellExecution, reads: set[VariableSnapshot],
             written: set[str], deleted: set[str]) -> None:
        """The one recording step of ``record`` and ``from_manifest``; takes
        ownership of ``reads``."""
        t = cell.t
        if t < self.next_t:
            raise NonMonotonicTimestamp(f"timestamp {t} is before the next timestamp {self.next_t}")
        refs, latest, tombstones, writes_of = self.refs, self.latest, self.deleted, self.writes
        # a snapshot's t as vs[1]: a subscript costs no descriptor call
        try:
            for vs in reads:  # a dropped cell has no entry in writes_of
                if vs not in writes_of[vs[1]]:
                    raise KeyError(vs)
        except KeyError:
            unwritten = sorted(f"{vs.name}@{vs.t}" for vs in reads if vs not in writes_of.get(vs.t, ()))
            raise UnknownVariable(f"cell {t} reads {', '.join(unwritten)}, which no live cell wrote") from None
        self.next_t = t + 1
        self.recorded_cells += 1
        self.recorded_rerun_s += cell.rerun_s
        self.cells[t] = cell
        self.reads[t] = reads
        for vs in reads:
            refs[vs[1]] += 1
        # one reference more than the cell's writes, released below with the
        # producers of the snapshots it supersedes, or kept off the count
        # when there are none and the cell writes something
        release = [t]
        writes = set()
        for name in written:
            vs = _new_snapshot((name, t))
            writes.add(vs)
            old = latest.get(name)
            if tombstones.pop(name, None) is None and old is not None:
                release.append(old[1])
            latest[name] = vs
        writes_of[t] = writes
        for name in deleted:
            if name not in written:
                if name not in tombstones and name in latest:
                    release.append(latest[name][1])
                tombstones[name] = t
        if len(release) > 1 or not writes:
            refs[t] = len(writes) + 1
            self._release(release)
        else:
            refs[t] = len(writes)

    def _release(self, stack: list[int]) -> None:
        """Drop one reference to each cell in ``stack``. A cell left without
        any is dropped with its edges, and releases the producers of the
        snapshots it read."""
        refs = self.refs
        while stack:
            t = stack.pop()
            refs[t] -= 1
            if not refs[t]:
                del refs[t], self.cells[t], self.writes[t]
                stack.extend(vs[1] for vs in self.reads.pop(t))

    def copy(self) -> HistoryGraph:
        """A lineage that records apart from this one. It shares the cells
        and their edge sets, which recording never changes once stored."""
        graph = HistoryGraph()
        graph.cells, graph.reads, graph.writes = dict(self.cells), dict(self.reads), dict(self.writes)
        graph.latest, graph.deleted, graph.refs = dict(self.latest), dict(self.deleted), dict(self.refs)
        graph.next_t, graph.recorded_cells = self.next_t, self.recorded_cells
        graph.recorded_rerun_s = self.recorded_rerun_s
        return graph

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

        With ``require_rerunnable``, a cell in the closure that is not
        ``rerunnable`` raises Unreconstructable for the latest such cell,
        naming the least snapshot name of it the walk reached: a rerun could
        not reproduce the recorded values. Every other cell on a path from a
        target to it is later, so none of them blocks: it blocks first."""
        need: set[int] = set()
        # each read is walked once, by membership tests: no temporary set per
        # cell; the closure does not depend on the order the walk takes
        seen = targets - ground_vses
        stack = list(seen)
        reads = self.reads
        while stack:
            t = stack.pop()[1]
            if t in need:
                continue
            need.add(t)
            for vs in reads.get(t, ()):
                if vs not in seen and vs not in ground_vses:
                    seen.add(vs)
                    stack.append(vs)
        cells = self.cells
        if require_rerunnable:
            blocked = [t for t in need if not cells[t].rerunnable]
            if blocked:
                t = max(blocked)
                raise Unreconstructable(min(vs.name for vs in seen if vs.t == t), blocked_at=t)
        return [cells[t] for t in sorted(need)]

    # -- serialization ------------------------------------------------------

    def to_manifest(self) -> dict:
        """The cells with their edges, the tombstones of the names they
        write, the next timestamp and the totals over every recorded cell.
        A cell's reads are its snapshot tuples, sorted, which JSON writes as
        [name, t] lists and ``from_manifest`` also reads as they are."""
        cells = []
        written: set[str] = set()
        for c in self.cells.values():
            names = sorted([vs[0] for vs in self.writes[c.t]])
            written.update(names)
            entry = {
                "t": c.t,
                "code_ref": c.code_ref,
                "runtime_s": c.runtime_s,
                "never_rerun": c.never_rerun,
                "nondeterministic": c.nondeterministic,
                "reads": sorted(self.reads[c.t]),
                "writes": names,
            }
            if c.failed:
                entry["failed_at"] = c.failed_at
            cells.append(entry)
        deleted = {name: t for name, t in self.deleted.items() if name in written}
        return {
            "cells": cells,
            "deleted": dict(sorted(deleted.items())),
            "next_t": self.next_t,
            "recorded_cells": self.recorded_cells,
            "recorded_rerun_s": self.recorded_rerun_s,
        }

    @classmethod
    def from_manifest(cls, data: dict) -> HistoryGraph:
        """Rebuild a lineage from ``to_manifest`` output; raises FormatError
        when a field breaks its rule, a cell's t is not positive and after the
        previous cell's or it reads a snapshot no live earlier cell wrote, a
        tombstone does not follow its name's last write, the next timestamp is
        not after every cell and tombstone, or fewer cells are recorded than listed.

        Each cell is tested by its table's compiled ``_CELL.valid``; only a
        cell it does not accept has its path built and its rules walked by
        ``check_fields``, which names the fault or accepts the cell. Each
        cell is then recorded by ``_add``, as ``record`` records one."""
        check_fields(data, _HISTORY, "history")
        graph = cls()
        for i, entry in enumerate(data["cells"]):
            if not _CELL.valid(entry):
                check_fields(entry, _CELL, f"history.cells[{i}]")
            cell = CellExecution(entry["t"], entry["code_ref"], entry["runtime_s"], entry["never_rerun"],
                                 entry["nondeterministic"], entry.get("failed_at"))
            try:
                graph._add(cell, set(map(_new_snapshot, entry["reads"])), set(entry["writes"]), ())
            except (NonMonotonicTimestamp, UnknownVariable) as err:
                raise FormatError(str(err)) from err
        release = []
        for name, t in data["deleted"].items():
            last = graph.latest.get(name)
            if last is None or t <= last.t:
                raise FormatError(f"tombstone {name!r} at t={t!r} does not follow a write of the name")
            release.append(last.t)
        next_t = data["next_t"]
        if next_t < graph.next_t or any(t >= next_t for t in data["deleted"].values()):
            raise FormatError(f"next_t={next_t!r} is not after every recorded timestamp")
        graph.deleted, graph.next_t = data["deleted"], next_t
        graph._release(release)
        if data["recorded_cells"] < graph.recorded_cells:
            raise FormatError(f"recorded_cells={data['recorded_cells']} is less than the {graph.recorded_cells} cells listed")
        graph.recorded_cells, graph.recorded_rerun_s = data["recorded_cells"], data["recorded_rerun_s"]
        return graph
