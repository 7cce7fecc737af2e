"""Trace files: the recorded session workload an engine run replays.

A trace is a JSON document carrying the storage profile, per-variable
annotations, and an ordered list of cell programs whose heap ops replay
deterministically against an empty heap. The schema is published at
docs/trace.schema.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .cost import CostModel, CostProfile
from .errors import CellExecutionError, FormatError
from .heap import KINDS, HeapOp, SimHeap
from .history import HistoryGraph
from .monitor import CellProgram, MonitorOptions, Session, run_cell

TRACE_VERSION = 1

_OP_FIELDS = {
    "create": {"id", "kind", "value", "size_bytes", "serializable", "deserializable", "hashable"},
    "bind": {"name", "id"},
    "unbind": {"name"},
    "set_slot": {"parent_id", "slot", "child_id"},
    "clear_slot": {"parent_id", "slot"},
    "set_value": {"id", "value"},
}

ANNOTATIONS = ("always_copy", "always_recompute")


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
    data: dict = {"op": op.op}
    for name in _OP_FIELDS[op.op]:
        data[name] = getattr(op, name)
    return data


def _op_from_json(data: dict, where: str) -> HeapOp:
    if not isinstance(data, dict) or "op" not in data:
        raise FormatError(f"{where}: op entry must be an object with an 'op' field")
    kind = data["op"]
    if kind not in _OP_FIELDS:
        raise FormatError(f"{where}: unknown op {kind!r}")
    missing = _OP_FIELDS[kind] - set(data)
    required = missing - {"value", "size_bytes", "serializable", "deserializable", "hashable"}
    if required:
        raise FormatError(f"{where}: op {kind!r} missing fields {sorted(required)}")
    if kind == "create" and data.get("kind") not in KINDS:
        raise FormatError(f"{where}: create has invalid kind {data.get('kind')!r}")
    fields = {name: data[name] for name in _OP_FIELDS[kind] if name in data}
    return HeapOp(op=kind, **fields)


def _cell_to_json(cell: CellProgram) -> dict:
    data = {
        "code_ref": cell.code_ref,
        "direct_reads": sorted(cell.direct_reads),
        "declared_runtime_s": cell.declared_runtime_s,
        "never_rerun": cell.never_rerun,
        "nondeterministic": cell.nondeterministic,
        "ops": [_op_to_json(op) for op in cell.ops],
    }
    if cell.alt_ops is not None:
        data["alt_ops"] = [_op_to_json(op) for op in cell.alt_ops]
    return data


def _cell_from_json(data: dict, index: int) -> CellProgram:
    where = f"cells[{index}]"
    if not isinstance(data, dict):
        raise FormatError(f"{where}: must be an object")
    for key in ("code_ref", "ops"):
        if key not in data:
            raise FormatError(f"{where}: missing {key!r}")
    runtime = data.get("declared_runtime_s", 1.0)
    if not isinstance(runtime, (int, float)) or runtime < 0:
        raise FormatError(f"{where}: declared_runtime_s must be non-negative")
    alt = data.get("alt_ops")
    return CellProgram(
        code_ref=str(data["code_ref"]),
        direct_reads=set(data.get("direct_reads", ())),
        ops=[_op_from_json(op, where) for op in data["ops"]],
        declared_runtime_s=float(runtime),
        never_rerun=bool(data.get("never_rerun", False)),
        nondeterministic=bool(data.get("nondeterministic", False)),
        alt_ops=None if alt is None else [_op_from_json(op, where) for op in alt],
    )


def trace_to_json(trace: TraceFile) -> dict:
    return {
        "version": trace.version,
        "profile": trace.profile.to_json(),
        "variable_annotations": dict(sorted(trace.variable_annotations.items())),
        "cells": [_cell_to_json(cell) for cell in trace.cells],
    }


def trace_from_json(data: dict) -> TraceFile:
    if not isinstance(data, dict):
        raise FormatError("trace must be a JSON object")
    if data.get("version") != TRACE_VERSION:
        raise FormatError(f"unsupported trace version {data.get('version')!r}")
    profile = CostProfile.from_json(data.get("profile"))
    annotations = data.get("variable_annotations", {})
    for name, value in annotations.items():
        if value not in ANNOTATIONS:
            raise FormatError(f"variable_annotations[{name!r}]: unknown annotation {value!r}")
    cells_data = data.get("cells")
    if not isinstance(cells_data, list):
        raise FormatError("cells must be a list")
    cells = [_cell_from_json(cell, i) for i, cell in enumerate(cells_data)]
    refs = [c.code_ref for c in cells]
    if len(set(refs)) != len(refs):
        raise FormatError("cell code_refs must be unique")
    return TraceFile(profile=profile, cells=cells, variable_annotations=dict(annotations))


def load_trace(path: str | Path) -> TraceFile:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from err
    return trace_from_json(data)


def save_trace(trace: TraceFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n")


def new_session(profile: CostProfile, annotations: dict[str, str] | None = None,
                options: MonitorOptions | None = None) -> Session:
    return Session(
        heap=SimHeap(),
        history=HistoryGraph(),
        cost=CostModel(profile=profile),
        annotations=dict(annotations or {}),
        options=options or MonitorOptions(),
    )


def run_trace(trace: TraceFile, *, ablate: tuple[str, ...] = ()) -> tuple[Session, list]:
    """Replay every cell of the trace under monitoring.

    Failed cells keep their partial effects and the run continues, mirroring
    a notebook session with runtime errors. Returns the session and the
    per-cell records.
    """
    options = MonitorOptions(use_id_graphs="no-idgraph" not in ablate)
    session = new_session(trace.profile, trace.variable_annotations, options)
    records = []
    for cell in trace.cells:
        try:
            records.append(run_cell(session, cell))
        except CellExecutionError as err:
            records.append(err.record)
    return session, records
