"""Trace files: the recorded session workload an engine run replays.

A trace is a JSON document carrying the storage profile, per-variable
annotations, and an ordered list of cell programs whose heap ops replay
deterministically against an empty heap. The schema is published at
docs/trace.schema.json.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cost import CostProfile
from .errors import CellExecutionError, FormatError
from .heap import KINDS, HeapOp, SimHeap
from .history import HistoryGraph
from .monitor import CellProgram, Session, run_cell

TRACE_VERSION = 1

_U64 = 2**64


def _is_uint64(v) -> bool:
    return type(v) is int and 0 <= v < _U64


def _is_str_list(v) -> bool:
    return type(v) is list and all(type(item) is str for item in v)


def _is_seconds(v) -> bool:
    return type(v) in (int, float) and 0 <= v < math.inf


# Field types of trace entries; docs/trace.schema.json states the same types
# (tests/test_trace_cli.py checks that the two agree).
_FIELD_TYPES = {
    "object_id": _is_uint64,
    "size": _is_uint64,
    "kind": lambda v: type(v) is str and v in KINDS,
    "str": lambda v: type(v) is str,
    "ref": lambda v: type(v) is str and v != "",
    "bool": lambda v: type(v) is bool,
    "any": lambda v: True,
    "str_list": _is_str_list,
    "seconds": _is_seconds,
    "ops": lambda v: type(v) is list,
}

_OP_FIELDS = {
    "create": {"id": "object_id", "kind": "kind", "value": "any", "size_bytes": "size",
               "serializable": "bool", "deserializable": "bool", "hashable": "bool"},
    "bind": {"name": "str", "id": "object_id"},
    "unbind": {"name": "str"},
    "set_slot": {"parent_id": "object_id", "slot": "str", "child_id": "object_id"},
    "clear_slot": {"parent_id": "object_id", "slot": "str"},
    "set_value": {"id": "object_id", "value": "any"},
}
_OP_OPTIONAL = {"value", "size_bytes", "serializable", "deserializable", "hashable"}
_OP_CHECKS = {
    op: [(name, _FIELD_TYPES[kind], name not in _OP_OPTIONAL) for name, kind in fields.items()]
    for op, fields in _OP_FIELDS.items()
}

_CELL_FIELDS = {
    "code_ref": "ref", "direct_reads": "str_list", "declared_runtime_s": "seconds",
    "never_rerun": "bool", "nondeterministic": "bool", "ops": "ops", "alt_ops": "ops",
}
_CELL_REQUIRED = {"code_ref", "ops"}

ANNOTATIONS = ("always_copy", "always_recompute")


def check_annotations(annotations, where: str) -> dict[str, str]:
    """A copy of ``annotations``; raises FormatError unless it maps names
    to values in ``ANNOTATIONS``. Traces and checkpoints share this rule."""
    if not isinstance(annotations, dict):
        raise FormatError(f"{where} must be an object")
    for name, value in annotations.items():
        if type(name) is not str or value not in ANNOTATIONS:
            raise FormatError(f"{where}[{name!r}]: unknown annotation {value!r}")
    return dict(annotations)


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
    checks = _OP_CHECKS.get(kind) if type(kind) is str else None
    if checks is None:
        raise FormatError(f"{where}: unknown op {kind!r}")
    fields = {}
    for name, valid, required in checks:
        if name in data:
            value = data[name]
            if not valid(value):
                raise FormatError(f"{where}: op {kind!r} has invalid {name} {value!r}")
            fields[name] = value
        elif required:
            missing = sorted(n for n, _, req in checks if req and n not in data)
            raise FormatError(f"{where}: op {kind!r} missing fields {missing}")
    if "name" in fields:
        # one string per variable name, as in a generated trace
        fields["name"] = sys.intern(fields["name"])
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
    for key in sorted(_CELL_REQUIRED):
        if key not in data:
            raise FormatError(f"{where}: missing {key!r}")
    for key, kind in _CELL_FIELDS.items():
        if key in data and not _FIELD_TYPES[kind](data[key]):
            raise FormatError(f"{where}: invalid {key} {data[key]!r}")
    alt = data.get("alt_ops")
    return CellProgram(
        code_ref=data["code_ref"],
        direct_reads=set(map(sys.intern, data.get("direct_reads", ()))),
        ops=[_op_from_json(op, where) for op in data["ops"]],
        declared_runtime_s=float(data.get("declared_runtime_s", 1.0)),
        never_rerun=data.get("never_rerun", False),
        nondeterministic=data.get("nondeterministic", False),
        alt_ops=None if alt is None else [_op_from_json(op, where) for op in alt],
    )


def _check_creates(cells: list[CellProgram]) -> None:
    """Raise FormatError unless each object id names one object across the
    trace: no two creates of the cells' ``ops`` share an id, and a cell's
    ``alt_ops`` create each id once, and only ids that its own ``ops`` or
    no ``ops`` create. A restore maps each recorded id to the object its
    replay made; an id created again would redirect later cells' ops."""
    created: set[int] = set()
    for i, cell in enumerate(cells):
        for op in cell.ops:
            if op.op == "create":
                if op.id in created:
                    raise FormatError(f"cells[{i}]: object id {op.id} is created twice")
                created.add(op.id)
    for i, cell in enumerate(cells):
        if cell.alt_ops is not None:
            own = {op.id for op in cell.ops if op.op == "create"}
            alt = [op.id for op in cell.alt_ops if op.op == "create"]
            if len(set(alt)) < len(alt) or created.intersection(alt) - own:
                raise FormatError(f"cells[{i}]: alt_ops create an id twice or another cell's id")


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
    if type(data.get("version")) is not int or data["version"] != TRACE_VERSION:
        raise FormatError(f"unsupported trace version {data.get('version')!r}")
    profile = CostProfile.from_json(data.get("profile"))
    annotations = check_annotations(data.get("variable_annotations", {}), "variable_annotations")
    cells_data = data.get("cells")
    if not isinstance(cells_data, list):
        raise FormatError("cells must be a list")
    cells = [_cell_from_json(cell, i) for i, cell in enumerate(cells_data)]
    refs = [c.code_ref for c in cells]
    if len(set(refs)) != len(refs):
        raise FormatError("cell code_refs must be unique")
    _check_creates(cells)
    return TraceFile(profile=profile, cells=cells, variable_annotations=annotations)


def load_trace(path: str | Path) -> TraceFile:
    try:
        data = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FormatError(f"{path}: not valid JSON ({err})") from err
    return trace_from_json(data)


def save_trace(trace: TraceFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n")


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
