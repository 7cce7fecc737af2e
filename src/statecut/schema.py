"""Field rules of every JSON document statecut reads.

``FIELD_TYPES`` gives the rule of each kind of field. Each reader lists the
fields of an object with their kinds (``rules``) and checks the object with
``check_fields``; the payload decoder and the lineage reader test their
fields in place first, as the table's rules state them, and walk the rules
only to name a fault. docs/trace.schema.json and docs/checkpoint.schema.json
state the same rules (tests/test_trace_cli.py checks that they agree).
Rules that relate fields to each other stay with the readers, which also
share ``collector_paused`` with the trace writer and the generator.
"""

from __future__ import annotations

import gc
import math
import sys
from contextlib import contextmanager

from .errors import FormatError
from .heap import KINDS

_U64 = 2**64
# below the largest float, so that every number converts: JSON admits
# integers of any length, and Python's float() of one past it overflows
_FLOAT_MAX = sys.float_info.max


# the kinds whose rule is a range of numbers of some exact types, as
# (types, low, high) for low <= value < high: ``rules`` keeps the triple,
# which ``check_fields`` tests in place rather than by a call
_RANGES = {
    "object_id": ((int,), 0, _U64),
    "size": ((int,), 0, _U64),
    "flags": ((int,), 0, 8),
    "count": ((int,), 0, math.inf),
    "seconds": ((float, int), 0, _FLOAT_MAX),
}


def _in_range(types: tuple, low, high):
    return lambda v: type(v) in types and low <= v < high


_is_seconds = _in_range(*_RANGES["seconds"])


def _is_reads(v) -> bool:
    """[name, t] pairs: lists, as JSON gives them, or the snapshot tuples of
    a lineage's manifest built in memory, which JSON writes as lists."""
    if type(v) is not list:
        return False
    for r in v:  # a plain loop: no call per read
        if ((type(r) is not list and not isinstance(r, tuple)) or len(r) != 2 or type(r[0]) is not str
                or type(r[1]) is not int):
            return False
    return True


def _is_str_list(v) -> bool:
    if type(v) is not list:
        return False
    for item in v:  # a plain loop: no call per item
        if type(item) is not str:
            return False
    return True


def _is_map(valid):
    """The rule of an object mapping names to values that pass ``valid``."""
    return lambda v: type(v) is dict and all(map(valid, v.values()))


def _is(exact: type):
    return lambda v: type(v) is exact


# the kinds whose rule is one exact type: ``rules`` keeps the type itself
# for these, which ``check_fields`` tests in place rather than by a call
_EXACT = {
    "int": int,
    "str": str,
    "bool": bool,
    # the entries of these are checked by their own readers
    "object": dict,
    "cells": list,
    "ops": list,
}

FIELD_TYPES = {
    "kind": lambda v: type(v) is str and v in KINDS,
    "ref": lambda v: type(v) is str and v != "",
    "any": lambda v: True,
    "str_list": _is_str_list,
    "int_list": lambda v: type(v) is list and all(type(item) is int for item in v),
    # a total over cells, infinite when one of them is not rerunnable
    "seconds_or_inf": lambda v: v == math.inf or _is_seconds(v),
    "bandwidth": lambda v: (type(v) is float or type(v) is int) and 0 < v < _FLOAT_MAX,
    "reads": _is_reads,
    "id_map": _is_map(_in_range(*_RANGES["object_id"])),
    "t_map": _is_map(lambda t: type(t) is int),
    "annotations": _is_map(("always_copy", "always_recompute").__contains__),
    **{kind: _in_range(*bounds) for kind, bounds in _RANGES.items()},
    **{kind: _is(exact) for kind, exact in _EXACT.items()},
}


def rules(required: dict[str, str], optional: dict[str, str] | None = None) -> tuple:
    """The fields of one kind of object as the flat tuple ``check_fields``
    walks: (name, kind, rule, required) for each, required ones first. A
    rule is the type itself for an exact-type kind, the (types, low, high)
    triple for a range kind, else its test."""
    fields = [(name, kind, True) for name, kind in required.items()]
    fields += [(name, kind, False) for name, kind in (optional or {}).items()]
    return tuple((name, kind, _EXACT.get(kind) or _RANGES.get(kind) or FIELD_TYPES[kind], req)
                 for name, kind, req in fields)


def check_fields(data, fields: tuple, where: str) -> None:
    """Raise FormatError unless ``data`` is an object with every required
    field of ``fields``, no other, and in each a value its kind admits. The
    message begins with the path of the field at fault below ``where`` (""
    for a document), e.g. ``history.cells[3].runtime_s: invalid seconds -1``."""
    if type(data) is not dict:
        raise FormatError(f"{where or 'document'}: not an object ({data!r:.60})")
    found = 0
    for name, kind, rule, required in fields:
        if name in data:
            value = data[name]
            if type(value) is not rule:
                if type(rule) is tuple:
                    types, low, high = rule
                    valid = type(value) in types and low <= value < high
                else:
                    valid = type(rule) is not type and rule(value)
                if not valid:
                    raise FormatError(f"{_path(where, name)}: invalid {kind} {value!r:.60}")
            found += 1
        elif required:
            raise FormatError(f"{_path(where, name)}: missing")
    if found != len(data):
        unknown = sorted(data.keys() - {field[0] for field in fields})
        raise FormatError(f"{_path(where, unknown[0])}: unknown field")


def _path(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


@contextmanager
def collector_paused():
    """Pause Python's cyclic collector in the block, and leave it on or off
    as it was found, however the block exits. The trace and checkpoint
    readers, the trace writer, ``restore`` and the trace generator build
    many small objects that hold no reference cycles, so a collection during
    a build frees nothing and only rescans what is being built; a function
    may also be decorated with ``@collector_paused()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
