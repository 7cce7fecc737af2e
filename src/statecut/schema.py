"""Field rules of every JSON document statecut reads.

``_RULES`` states the rule of each kind of field once, as an expression
over the value ``v``, and ``FIELD_TYPES`` is each compiled to a test. Each
reader lists the fields of an object with their kinds (``rules``) and
checks the object with ``check_fields``. At import ``rules`` also compiles
the table into one function, ``valid``, that tests every field in line, as
``dataclasses`` compiles an ``__init__``; its source is built only from the
constant tables in this package. ``valid`` only accepts fast: when it says
no, ``check_fields`` walks the table's tests, which decide and name the
fault, so readers that check many objects (the lineage's cells, the payload
records) call ``valid`` first and build an object's path only for a walk.
docs/trace.schema.json and docs/checkpoint.schema.json state the same rules
(tests/test_trace_cli.py checks that they agree). Rules that relate fields
to each other stay with the readers, which also share ``collector_paused``
with the trace writer and the generator.
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
_SECONDS = "(type(v) is float or type(v) is int) and 0 <= v < _FLOAT_MAX"

# each kind's rule: an expression over the value v, or, for a list or an
# object that maps names to values, its type and the rule of each item x (a
# list's) or value x (an object's); the entries of "object", "cells" and
# "ops" are checked by their own readers, and the readers of "reads" also
# take the snapshot tuples of a lineage's manifest built in memory, which
# JSON writes as lists
_RULES = {
    "int": "type(v) is int",
    "str": "type(v) is str",
    "bool": "type(v) is bool",
    "object": "type(v) is dict",
    "cells": "type(v) is list",
    "ops": "type(v) is list",
    "any": "True",
    "kind": "type(v) is str and v in _KINDS",
    "ref": "type(v) is str and v != ''",
    "object_id": "type(v) is int and 0 <= v < _U64",
    "size": "type(v) is int and 0 <= v < _U64",
    "flags": "type(v) is int and 0 <= v < 8",
    "count": "type(v) is int and v >= 0",
    "seconds": _SECONDS,
    # a total over cells, infinite when one of them is not rerunnable
    "seconds_or_inf": f"v == _INF or {_SECONDS}",
    "bandwidth": "(type(v) is float or type(v) is int) and 0 < v < _FLOAT_MAX",
    "str_list": ("list", "type(x) is str"),
    "int_list": ("list", "type(x) is int"),
    "reads": ("list", "(type(x) is list or isinstance(x, tuple)) and len(x) == 2 and type(x[0]) is str"
                      " and type(x[1]) is int"),
    "id_map": ("dict", "type(x) is int and 0 <= x < _U64"),
    "t_map": ("dict", "type(x) is int"),
    "annotations": ("dict", "x == 'always_copy' or x == 'always_recompute'"),
}
_NAMES = {"_U64": _U64, "_FLOAT_MAX": _FLOAT_MAX, "_INF": math.inf, "_KINDS": KINDS}


def _test(kind: str, indent: str = "") -> list[str]:
    """The lines of code that return False unless ``v`` passes ``kind``'s rule."""
    rule = _RULES[kind]
    if type(rule) is str:
        return [f"{indent}if not ({rule}): return False"]
    container, each = rule
    return [f"{indent}if type(v) is not {container}: return False",
            f"{indent}for x in v{'.values()' if container == 'dict' else ''}:",
            f"{indent}    if not ({each}): return False"]


def _compile(name: str, arg: str, lines: list[str]):
    """The function ``name`` of ``arg`` with the body ``lines``, built from
    this module's constant rules only."""
    namespace = dict(_NAMES)
    exec(f"def {name}({arg}):\n" + "".join(f"    {line}\n" for line in lines), namespace)
    return namespace[name]


FIELD_TYPES = {kind: _compile(f"is_{kind}", "v", _test(kind) + ["return True"]) for kind in _RULES}


class Rules(tuple):
    """The fields of one kind of object, (name, kind, test, required) for
    each, required ones first, with ``valid``: the table compiled into one
    test of a whole object. A positional table lists the leading items of a
    list, each required."""

    positional: bool
    valid: object


def rules(required: dict[str, str], optional: dict[str, str] | None = None, *,
          positional: bool = False) -> Rules:
    """The table of an object's fields, as ``check_fields`` walks it, and its
    ``valid``."""
    optional = optional or {}
    assert not (positional and optional), "a positional table lists required items"
    fields = Rules([(name, kind, FIELD_TYPES[kind], True) for name, kind in required.items()]
                   + [(name, kind, FIELD_TYPES[kind], False) for name, kind in optional.items()])
    fields.positional = positional
    # a positional table's items are there once the list is long enough
    lines = [f"if type(d) is not list or len(d) < {len(required)}: return False" if positional
             else "if type(d) is not dict: return False", "try:"]
    for i, (name, kind) in enumerate(required.items()):
        lines += [f"    v = d[{i if positional else repr(name)}]", *_test(kind, "    ")]
    lines += ["except KeyError: return False", f"n = {len(required)}"]
    for name, kind in optional.items():
        lines += [f"if {name!r} in d:", f"    v = d[{name!r}]", *_test(kind, "    "), "    n += 1"]
    lines.append("return True" if positional else "return len(d) == n")
    fields.valid = _compile("valid", "d", lines)
    return fields


def check_fields(data, fields: Rules, where: str) -> None:
    """Raise FormatError unless ``data`` is an object with every required
    field of ``fields``, no other, and in each a value its kind admits, or,
    for a positional table, a list whose leading items are such values. The
    message begins with the path of the field at fault below ``where`` (""
    for a document), e.g. ``history.cells[3].runtime_s: invalid seconds -1``.
    ``fields.valid`` accepts at once; the walk of the tests decides the rest."""
    if not fields.valid(data):
        _walk(data, fields, where)


def _walk(data, fields: Rules, where: str) -> None:
    if fields.positional:
        if type(data) is not list or len(data) < len(fields):
            raise FormatError(f"{where or 'document'}: not a list of {len(fields)} or more items ({data!r:.60})")
        data = dict(zip([field[0] for field in fields], data))
    elif type(data) is not dict:
        raise FormatError(f"{where or 'document'}: not an object ({data!r:.60})")
    found = 0
    for name, kind, test, required in fields:
        if name in data:
            if not test(data[name]):
                raise FormatError(f"{_path(where, name)}: invalid {kind} {data[name]!r:.60}")
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
