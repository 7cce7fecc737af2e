"""Each field table's compiled ``valid`` against the walk of its rules: the
walk decides every verdict, and ``valid`` accepts exactly what it accepts."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecut import cost, history, planner, replicator, schema, trace
from statecut.errors import FormatError
from statecut.heap import KINDS
from statecut.replicator import read_checkpoint

from sessions import worked_example_trace
from test_pinned_verdicts import CASES, PINNED, summary
from test_replicator import checkpoint_roundtrip, payload_records, write_payload

TABLES = {
    "trace": trace._TRACE,
    "trace cell": trace._CELL,
    **{f"op {op}": fields for op, fields in trace._OPS.items()},
    "profile": cost._PROFILE,
    "manifest": replicator._MANIFEST,
    "record": replicator._RECORD,
    "history": history._HISTORY,
    "history cell": history._CELL,
    "plan": planner._PLAN,
}

_SECONDS = st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**6))
_JSON = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3)),
                     lambda inner: st.one_of(st.lists(inner, max_size=2),
                                             st.dictionaries(st.text(max_size=2), inner, max_size=2)),
                     max_leaves=4)
# a value each kind admits
VALID = {
    "int": st.integers(-(2**70), 2**70),
    "str": st.text(max_size=3),
    "bool": st.booleans(),
    "object": st.dictionaries(st.text(max_size=2), _JSON, max_size=2),
    "cells": st.lists(_JSON, max_size=2),
    "ops": st.lists(_JSON, max_size=2),
    "any": _JSON,
    "kind": st.sampled_from(KINDS),
    "ref": st.text(min_size=1, max_size=3),
    "object_id": st.integers(0, 2**64 - 1),
    "size": st.integers(0, 2**64 - 1),
    "flags": st.integers(0, 7),
    "count": st.integers(0, 2**70),
    "seconds": _SECONDS,
    "seconds_or_inf": st.one_of(_SECONDS, st.just(math.inf)),
    "bandwidth": st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**6)),
    "str_list": st.lists(st.text(max_size=2), max_size=3),
    "int_list": st.lists(st.integers(), max_size=3),
    "reads": st.lists(st.tuples(st.text(max_size=2), st.integers()).map(list), max_size=3),
    "id_map": st.dictionaries(st.text(max_size=2), st.integers(0, 2**64 - 1), max_size=3),
    "t_map": st.dictionaries(st.text(max_size=2), st.integers(), max_size=3),
    "annotations": st.dictionaries(st.text(max_size=2), st.sampled_from(["always_copy", "always_recompute"]),
                                   max_size=3),
}
# values near a valid one that a rule may admit or not
WRONG = [True, False, math.nan, math.inf, -math.inf, 10**400, 2**64, 2**64 - 1, -1, 0, 1.5, "", "x", None,
         (1, 2), ("x", 1), [], {}, ["x", 1], [1], ["x"], {"a": 1}, {"a": "always_copy"}, "always_copy"]


def walk_accepts(data, fields) -> bool:
    try:
        schema._walk(data, fields, "")
    except FormatError:
        return False
    return True


@st.composite
def documents(draw, fields):
    """A document of ``fields``, valid or with one field changed: a wrong
    value for it, a wrong item in its list or object, the field missing, an
    unknown field, or the whole document not an object (not a list, for a
    positional table)."""
    present = [(name, kind) for name, kind, _, required in fields if required or draw(st.booleans())]
    values = {name: draw(VALID[kind]) for name, kind in present}
    change = draw(st.sampled_from(["none", "value", "item", "missing", "unknown", "shape"]))
    if change == "value" and values:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(WRONG))
    elif change == "item" and values:
        name = draw(st.sampled_from(sorted(values)))
        wrong = draw(st.sampled_from(WRONG))
        if type(values[name]) is list:
            values[name] = [*values[name], wrong]
        elif type(values[name]) is dict:
            values[name] = {**values[name], "wrong": wrong}
    elif change == "missing" and values:
        del values[draw(st.sampled_from(sorted(values)))]
    if fields.positional:
        document = list(values.values())
        if change == "unknown":
            document += draw(st.lists(_JSON, min_size=1, max_size=3))
    else:
        document = values
        if change == "unknown":
            document[draw(st.sampled_from(["unknown", "", "t2"]))] = draw(_JSON)
    if change == "shape":
        document = draw(st.sampled_from([None, "x", 3, tuple(document), [document], list(values.items()),
                                         dict(enumerate(values.values()))]))
    return document


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_valid_accepts_exactly_what_the_walk_accepts(name, data):
    fields = TABLES[name]
    document = data.draw(documents(fields))
    assert fields.valid(document) == walk_accepts(document, fields), document


def test_every_kind_is_drawn():
    assert VALID.keys() == schema.FIELD_TYPES.keys()
    assert {kind for fields in TABLES.values() for _, kind, _, _ in fields} <= VALID.keys()


def test_the_walk_decides_every_verdict(monkeypatch):
    # with every table's valid saying no, each document of the pinned corpus
    # is walked, and gets the same verdict and message
    for fields in TABLES.values():
        monkeypatch.setattr(fields, "valid", lambda data: False)
    pinned = json.loads(PINNED.read_text())
    for want, (name, params, seed) in zip(pinned, CASES, strict=True):
        assert summary(params, seed) == want["verdicts"], name


@pytest.mark.parametrize("walk_only", [False, True])
def test_a_malformed_payload_record_names_its_field(tmp_path, monkeypatch, walk_only):
    if walk_only:
        monkeypatch.setattr(replicator._RECORD, "valid", lambda data: False)
    _, _, path = checkpoint_roundtrip(tmp_path, worked_example_trace())
    records = payload_records(path)
    for i, (name, kind, _, _) in enumerate(replicator._RECORD[:4]):
        for wrong in (True, -1, 2**64, "", None):
            edited = [records[0], [*records[1][:i], wrong, *records[1][i + 1:]], *records[2:]]
            write_payload(path, edited)
            with pytest.raises(FormatError, match=rf"\(FormatError: payload\[1\]\.{name}: invalid {kind} "):
                read_checkpoint(path)
