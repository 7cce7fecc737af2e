"""Trace files: the recorded session workload an engine run replays.

A trace is a JSON document carrying the storage profile, per-variable
annotations, and an ordered list of cell programs whose heap ops replay
deterministically against an empty heap. The schema is published at
docs/trace.schema.json. ``save_trace`` writes compact JSON with sorted keys
on one line, as the checkpoint writer does; ``load_trace`` reads any JSON
layout, so an indented trace loads too.

Both pause Python's cyclic garbage collector while they build
(``schema.collector_paused``): a decoded JSON tree, the ops built from it
and the document built to encode hold no reference cycles, so a collection
during the build frees nothing and only rescans the objects being built.
When an 8000-cell trace was loaded in a process holding two more, that
rescanning was about a third of the load.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path

from .cost import CostProfile
from .errors import CellExecutionError, FormatError
from .heap import HeapOp, SimHeap, _canon
from .history import HistoryGraph
from .monitor import CellProgram, Session, run_cell
from .schema import check_fields, collector_paused, rules

TRACE_VERSION = 1

_TRACE = rules({"version": "int", "profile": "object", "cells": "cells"},
               {"variable_annotations": "annotations"})
_OPS = {
    "create": rules({"op": "str", "id": "object_id", "kind": "kind"},
                    {"value": "any", "size_bytes": "size", "serializable": "bool",
                     "deserializable": "bool", "hashable": "bool"}),
    "bind": rules({"op": "str", "name": "str", "id": "object_id"}),
    "unbind": rules({"op": "str", "name": "str"}),
    "set_slot": rules({"op": "str", "parent_id": "object_id", "slot": "str", "child_id": "object_id"}),
    "clear_slot": rules({"op": "str", "parent_id": "object_id", "slot": "str"}),
    "set_value": rules({"op": "str", "id": "object_id"}, {"value": "any"}),
}
# each kind's field names and one getter of their values, for the writer
_OP_GETTERS = {op: ([f[0] for f in fields], attrgetter(*(f[0] for f in fields))) for op, fields in _OPS.items()}
# every field of an op at its default, and one getter of all their values
_OP_DEFAULTS = {name: HeapOp._field_defaults.get(name) for name in HeapOp._fields}
_op_values = itemgetter(*HeapOp._fields)
_CELL = rules({"code_ref": "ref", "ops": "ops"},
              {"direct_reads": "str_list", "declared_runtime_s": "seconds", "never_rerun": "bool",
               "nondeterministic": "bool"})


@dataclass
class TraceFile:
    """Parsed trace: profile, annotated cell programs, variable annotations."""

    profile: CostProfile
    cells: list[CellProgram]
    variable_annotations: dict[str, str] = field(default_factory=dict)
    version: int = TRACE_VERSION

    def programs(self) -> dict[str, CellProgram]:
        return {cell.code_ref: cell for cell in self.cells}


def _op_to_json(op: HeapOp) -> dict:
    names, get = _OP_GETTERS[op.op]
    return dict(zip(names, get(op)))


def _op_from_json(data: dict, where: str) -> HeapOp:
    if type(data) is not dict or type(data.get("op")) is not str or data["op"] not in _OPS:
        raise FormatError(f"{where}: not an object with a known op ({data!r:.60})")
    check_fields(data, _OPS[data["op"]], where)
    # positional from the checked fields over the defaults: a keyword call
    # into HeapOp costs more
    values = {**_OP_DEFAULTS, **data}
    if "name" in data:
        # one string per variable name, as in a generated trace
        values["name"] = sys.intern(data["name"])
    return HeapOp._make(_op_values(values))


def _each_from_json(read, items: list, where: str) -> list:
    """``read`` of each entry of the list at ``where``. An entry's own path
    is built only for a malformed entry: it is read again with the path, to
    raise."""
    out = []
    for data in items:
        try:
            out.append(read(data, ""))
        except FormatError:
            read(data, f"{where}[{len(out)}]")
            raise
    return out


def _cell_to_json(cell: CellProgram) -> dict:
    return {
        "code_ref": cell.code_ref,
        "direct_reads": sorted(cell.direct_reads),
        "declared_runtime_s": cell.declared_runtime_s,
        "never_rerun": cell.never_rerun,
        "nondeterministic": cell.nondeterministic,
        "ops": [_op_to_json(op) for op in cell.ops],
    }


def _cell_from_json(data: dict, where: str) -> CellProgram:
    check_fields(data, _CELL, where)
    return CellProgram(
        code_ref=data["code_ref"],
        direct_reads=set(map(sys.intern, data.get("direct_reads", ()))),
        ops=_each_from_json(_op_from_json, data["ops"], f"{where}.ops"),
        declared_runtime_s=float(data.get("declared_runtime_s", 1.0)),
        never_rerun=data.get("never_rerun", False),
        nondeterministic=data.get("nondeterministic", False),
    )


def _check_creates(cells: list[CellProgram]) -> None:
    """Raise FormatError unless each object id names one object across the
    trace: no two creates of the cells' ``ops`` share an id. A restore maps
    each recorded id to the object its replay made; an id created again
    would redirect later cells' ops."""
    created: set[int] = set()
    for i, cell in enumerate(cells):
        for op in cell.ops:
            if op.op == "create":
                if op.id in created:
                    raise FormatError(f"cells[{i}]: object id {op.id} is created twice")
                created.add(op.id)


def trace_to_json(trace: TraceFile) -> dict:
    return {
        "version": trace.version,
        "profile": trace.profile.to_json(),
        "variable_annotations": dict(sorted(trace.variable_annotations.items())),
        "cells": [_cell_to_json(cell) for cell in trace.cells],
    }


def trace_from_json(data: dict) -> TraceFile:
    check_fields(data, _TRACE, "")
    if data["version"] != TRACE_VERSION:
        raise FormatError(f"unsupported trace version {data['version']!r}")
    profile = CostProfile.from_json(data["profile"])
    cells = _each_from_json(_cell_from_json, data["cells"], "cells")
    refs = [c.code_ref for c in cells]
    if len(set(refs)) != len(refs):
        raise FormatError("cell code_refs must be unique")
    _check_creates(cells)
    return TraceFile(profile=profile, cells=cells, variable_annotations=dict(data.get("variable_annotations", {})))


def load_trace(path: str | Path) -> TraceFile:
    """Read and check a trace file; raises FormatError, naming the path, when
    it is not JSON or nests too deep for the decoder."""
    raw = Path(path).read_bytes()
    with collector_paused():
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise FormatError(f"{path}: not valid JSON ({err})") from err
        return trace_from_json(data)


def save_trace(trace: TraceFile, path: str | Path) -> None:
    with collector_paused():
        data = _canon(trace_to_json(trace)) + b"\n"
    Path(path).write_bytes(data)


def new_session(profile: CostProfile, annotations: dict[str, str] | None = None) -> Session:
    return Session(
        heap=SimHeap(),
        history=HistoryGraph(),
        profile=profile,
        annotations=dict(annotations or {}),
    )


def run_trace(trace: TraceFile) -> tuple[Session, list]:
    """Replay every cell of the trace under monitoring.

    Failed cells keep their partial effects and the run continues, mirroring
    a notebook session with runtime errors. Returns the session and the
    per-cell records.
    """
    session = new_session(trace.profile, trace.variable_annotations)
    records = []
    for cell in trace.cells:
        try:
            records.append(run_cell(session, cell))
        except CellExecutionError as err:
            records.append(err.record)
    return session, records
