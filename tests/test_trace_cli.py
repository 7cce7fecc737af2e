import gc
import json
import math
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from statecut import cost, gen, history, planner, replicator
from statecut.cli import build_parser, main
from statecut.errors import FormatError, StatecutError
from statecut.gen import GenParams, generate_trace
from statecut.heap import HeapOp
from statecut.planner import plan_session
from statecut.replicator import read_checkpoint, restore, write_checkpoint
from statecut.schema import FIELD_TYPES
from statecut.trace import (
    _CELL,
    _OPS,
    _TRACE,
    _op_to_json,
    load_trace,
    run_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)

from documents import WRONG_VALUES, leaf_paths, with_leaf
from sessions import aliased_pair_trace, link_blind_plan, worked_example_trace, write_split_by_hand
from test_pinned_traces import BENCH_SHAPES

DOCS = Path(__file__).parent.parent / "docs"
SCHEMA = json.loads((DOCS / "trace.schema.json").read_text())
CHECKPOINT_SCHEMA = json.loads((DOCS / "checkpoint.schema.json").read_text())

# how the published schemas state each field type of the readers' table
SCHEMA_OF_TYPE = {
    "object_id": {"$ref": "#/definitions/object_id"},
    "size": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    "kind": {"enum": ["scalar", "container", "opaque"]},
    "flags": {"type": "integer", "minimum": 0, "maximum": 7},
    "int": {"type": "integer"},
    "count": {"type": "integer", "minimum": 0},
    "str": {"type": "string"},
    "ref": {"type": "string", "minLength": 1},
    "bool": {"type": "boolean"},
    "any": {},
    "str_list": {"type": "array", "items": {"type": "string"}},
    "int_list": {"type": "array", "items": {"type": "integer"}},
    "seconds": {"type": "number", "minimum": 0},
    "seconds_or_inf": {"type": "number", "minimum": 0},
    "bandwidth": {"type": "number", "exclusiveMinimum": 0},
    "reads": {"type": "array", "items": {"type": "array", "items": [{"type": "string"}, {"type": "integer"}],
                                         "minItems": 2, "additionalItems": False}},
    "id_map": {"type": "object", "additionalProperties": {"$ref": "#/definitions/object_id"}},
    "t_map": {"type": "object", "additionalProperties": {"type": "integer"}},
    "annotations": {"type": "object", "additionalProperties": {"enum": ["always_copy", "always_recompute"]}},
    # a "$ref" to a definition of an object, which its own table states
    "object": {"type": "object"},
    "cells": {"type": "array", "items": {"$ref": "#/definitions/cell"}},
    "ops": {"type": "array", "items": {"$ref": "#/definitions/op"}},
}


def assert_table_states(schema, definition, fields, ignore=()):
    """The definition states exactly the fields of the rule tuple ``fields``,
    apart from those in ``ignore``: the same required ones, no others, and
    each with its kind's schema."""
    assert set(definition["required"]) == {name for name, _, _, required in fields if required}
    assert definition["additionalProperties"] is False
    properties = {k: v for k, v in definition["properties"].items() if k not in ignore}
    assert properties.keys() == {name for name, *_ in fields} - set(ignore)
    for name, kind, _, _ in fields:
        if name in ignore:
            continue
        if kind == "object":
            target = properties[name]["$ref"].removeprefix("#/definitions/")
            assert schema["definitions"][target]["type"] == "object", name
        else:
            assert properties[name] == SCHEMA_OF_TYPE[kind], name


class TestTraceFormat:
    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(GenParams(cells=6, nondet_rate=0.3), 5)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert trace_to_json(loaded) == trace_to_json(trace)

    def test_generated_traces_conform_to_published_schema(self):
        for seed in range(5):
            trace = generate_trace(GenParams(
                cells=8, nondet_rate=0.2, undeserializable_rate=0.2,
            ), seed)
            jsonschema.validate(trace_to_json(trace), SCHEMA)

    def test_worked_example_conforms_to_schema(self):
        jsonschema.validate(trace_to_json(worked_example_trace()), SCHEMA)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(version=99),
        lambda d: d.pop("profile"),
        lambda d: d["profile"].update(bandwidth_bytes_per_s=-1),
        lambda d: d["cells"][0].pop("code_ref"),
        lambda d: d["cells"][0]["ops"].append({"op": "explode"}),
        lambda d: d["cells"][0]["ops"].append({"op": "bind", "name": "x"}),
        lambda d: d["cells"].append(dict(d["cells"][0])),
        lambda d: d.update(variable_annotations={"x": "sometimes_copy"}),
        lambda d: d["profile"].update(store_bandwidth_bytes_per_s=-5),
        lambda d: d["profile"].update(store_bandwidth_bytes_per_s=0),
        lambda d: d["profile"].update(bandwidth_bytes_per_s=math.nan),
        lambda d: d["profile"].update(store_bandwidth_bytes_per_s=math.nan),
        lambda d: d["profile"].update(latency_s=math.nan),
        lambda d: d["profile"].update(alpha=math.nan),
        lambda d: d["profile"].update(bandwidth_bytes_per_s=math.inf),
        lambda d: d["profile"].update(store_bandwidth_bytes_per_s=math.inf),
        lambda d: d["profile"].update(latency_s=math.inf),
        lambda d: d["profile"].update(alpha=math.inf),
        # a checkpoint of the session would hold the runtime, which must be finite
        lambda d: d["cells"][0].update(declared_runtime_s=math.inf),
        # an id created again by a later cell (the original run fails with
        # "already live")
        lambda d: d["cells"][2]["ops"].insert(0, dict(d["cells"][0]["ops"][0])),
        # alt_ops, the ops older traces gave a nondeterministic cell's rerun,
        # is now an unknown field: no plan reruns such a cell
        lambda d: d["cells"][2].update(alt_ops=[dict(d["cells"][0]["ops"][0])]),
        # unknown keys, as the schema's additionalProperties: false says; a
        # misspelt optional field would otherwise take its default silently
        lambda d: d["cells"][0].update(declared_runtime=d["cells"][0].pop("declared_runtime_s")),
        lambda d: d["profile"].update(latency=0.5),
        lambda d: next(op for op in d["cells"][0]["ops"] if op["op"] == "create").update(sizebytes=8),
        lambda d: d.update(comment="x"),
        # an object's values as a list, which no reader takes for the object
        lambda d: d.update(profile=list(d["profile"].values())),
        lambda d: d["cells"].__setitem__(0, list(d["cells"][0].values())),
        # a JSON integer past the largest float: float() of it overflows
        lambda d: d["cells"][0].update(declared_runtime_s=10**400),
        lambda d: d["profile"].update(latency_s=10**400),
    ])
    def test_malformed_documents_rejected(self, mutate):
        data = trace_to_json(generate_trace(GenParams(cells=3), 1))
        mutate(data)
        with pytest.raises(FormatError):
            trace_from_json(data)

    def test_field_table_agrees_with_schema(self):
        assert SCHEMA_OF_TYPE.keys() == FIELD_TYPES.keys()
        for schema in (SCHEMA, CHECKPOINT_SCHEMA):
            jsonschema.Draft7Validator.check_schema(schema)
        ops = {entry["properties"]["op"]["const"]: entry
               for entry in SCHEMA["definitions"]["op"]["oneOf"]}
        assert ops.keys() == _OPS.keys()
        for op, fields in _OPS.items():
            assert_table_states(SCHEMA, ops[op], fields, ignore={"op"})
        definitions = SCHEMA["definitions"]
        # the version's value is the loader's rule: it supports version 1 only
        assert_table_states(SCHEMA, SCHEMA, _TRACE, ignore={"version"})
        assert_table_states(SCHEMA, definitions["cell"], _CELL)
        assert_table_states(SCHEMA, definitions["profile"], cost._PROFILE)
        definitions = CHECKPOINT_SCHEMA["definitions"]
        assert_table_states(CHECKPOINT_SCHEMA, CHECKPOINT_SCHEMA, replicator._MANIFEST)
        assert_table_states(CHECKPOINT_SCHEMA, definitions["history"], history._HISTORY)
        assert_table_states(CHECKPOINT_SCHEMA, definitions["cell"], history._CELL)
        assert_table_states(CHECKPOINT_SCHEMA, definitions["plan"], planner._PLAN)
        assert_table_states(CHECKPOINT_SCHEMA, definitions["profile"], cost._PROFILE)
        record = definitions["record"]
        assert record["items"] == [SCHEMA_OF_TYPE[kind] for _, kind, _, _ in replicator._RECORD]
        assert record["minItems"] == len(replicator._RECORD)

    def test_type_checks_accept_what_the_schema_types_accept(self):
        # "cells" and "ops" are left out: their readers check the items one
        # by one. JSON Schema's "integer" also admits 1.0, which is not a
        # probe here: the readers take only ints for ids, sizes and
        # timestamps, as the writers produce.
        probes = ["x", "", -1, 0, 7, 8, 2**64 - 1, 2**64, None, [], {}, 1.5, True, False,
                  "scalar", ["a"], [1], [["a", 1]], [["a", 1], ["b", -2]], [["a"]], [["a", 1, 2]],
                  [[1, "a"]], [["a", 1.5]], [["a", True]], {"a": 1}, {"a": -1}, {"a": 2**64},
                  {"a": 1.5}, {"a": "always_copy"}, {"a": "always_recompute", "b": "bogus"}]
        for kind, check in FIELD_TYPES.items():
            if kind in ("cells", "ops"):
                continue
            for schema in (SCHEMA, CHECKPOINT_SCHEMA):
                validator = jsonschema.Draft7Validator(
                    {**SCHEMA_OF_TYPE[kind], "definitions": schema["definitions"]})
                for value in probes:
                    assert check(value) == validator.is_valid(value), (kind, value)

    def test_wrong_typed_leaf_loads_iff_schema_valid(self, tmp_path):
        # a trace with one damaged leaf either fails to load with FormatError,
        # exactly when the schema rejects it, or runs through monitoring,
        # planning, checkpoint and restore raising nothing but StatecutError
        validator = jsonschema.Draft7Validator(SCHEMA)
        base = trace_to_json(generate_trace(GenParams(cells=6, nondet_rate=0.3), 3))
        leaves = list(leaf_paths(base))
        rng = random.Random(7)
        path = tmp_path / "c.ckpt"
        for _ in range(300):
            doc = with_leaf(base, rng.choice(leaves), rng.choice(WRONG_VALUES))
            try:
                trace = trace_from_json(doc)
            except FormatError:
                assert not validator.is_valid(doc), doc
                continue
            assert validator.is_valid(doc), doc
            session, _ = run_trace(trace)
            try:
                write_checkpoint(session, plan_session(session), path)
                restore(read_checkpoint(path), trace.programs())
            except StatecutError:
                pass

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_trace(path)

    def test_too_deep_a_value_is_a_format_error(self, tmp_path):
        # the decoder gives up on it with a RecursionError
        data = trace_to_json(generate_trace(GenParams(cells=2), 1))
        op = next(op for op in data["cells"][0]["ops"] if op["op"] == "create")
        depth = 100_000
        text = json.dumps({**data, "cells": [{**data["cells"][0], "ops": [{**op, "value": "deep"}]}]})
        path = tmp_path / "deep.json"
        path.write_text(text.replace('"deep"', "[" * depth + "]" * depth))
        with pytest.raises(FormatError, match=str(path)):
            load_trace(path)
        assert main(["run", str(path)]) == 4

    def test_alternate_ops_exit_4_naming_the_field(self, tmp_path, capsys):
        data = trace_to_json(generate_trace(GenParams(cells=3), 1))
        data["cells"][2]["alt_ops"] = data["cells"][2]["ops"]
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 4
        assert "cells[2].alt_ops: unknown field" in capsys.readouterr().err

    def test_saved_as_one_compact_sorted_line(self, tmp_path):
        trace = generate_trace(GenParams(cells=6, nondet_rate=0.3), 5)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(trace_to_json(trace), sort_keys=True, separators=(",", ":")) + "\n"

    def test_saves_are_byte_identical(self, tmp_path):
        trace = generate_trace(GenParams(cells=6, nondet_rate=0.3), 5)
        save_trace(trace, tmp_path / "a.json")
        save_trace(load_trace(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_indented_trace_loads(self, tmp_path):
        trace = generate_trace(GenParams(cells=6, nondet_rate=0.3), 5)
        save_trace(trace, tmp_path / "compact.json")
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n")
        assert load_trace(indented) == load_trace(tmp_path / "compact.json") == trace

    def test_ops_are_immutable_and_hash_by_value(self):
        op = HeapOp(op="set_slot", parent_id=1, slot="s0", child_id=2)
        with pytest.raises(AttributeError):
            op.slot = "s1"
        twin = HeapOp(op="set_slot", parent_id=1, slot="s0", child_id=2)
        assert op == twin and hash(op) == hash(twin)
        assert op != op._replace(slot="s1")


def every_op_kind_document() -> dict:
    """A generated trace with every op kind, as JSON, and one more cell
    holding an op of each kind with every optional field omitted."""
    trace = generate_trace(GenParams(cells=12, alias_density=0.5, delete_rate=0.3), 7)
    assert {op.op for cell in trace.cells for op in cell.ops} == _OPS.keys()
    data = trace_to_json(trace)
    oid = 10**6
    data["cells"].append({"code_ref": "bare", "ops": [
        {"op": "create", "id": oid, "kind": "container"},
        {"op": "bind", "name": "bare", "id": oid},
        {"op": "set_slot", "parent_id": oid, "slot": "s0", "child_id": oid},
        {"op": "clear_slot", "parent_id": oid, "slot": "s0"},
        {"op": "set_value", "id": oid},
        {"op": "unbind", "name": "bare"},
    ]})
    return data


@pytest.fixture
def collector():
    """Put the cyclic collector back as it was after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCodecFastPaths:
    """The trace codec's fast paths against their slow oracles (a keyword
    call into ``HeapOp``, a ``getattr`` per field), and the collector left
    on or off as the codec found it."""

    def test_loaded_ops_equal_keyword_built_ops(self, tmp_path):
        data = every_op_kind_document()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        loaded = load_trace(path)
        assert len(loaded.cells) == len(data["cells"])
        for cell, cell_data in zip(loaded.cells, data["cells"]):
            oracle = [HeapOp(**op) for op in cell_data["ops"]]
            # repr tells True from 1 and 0 from False, which == does not
            assert cell.ops == oracle and repr(cell.ops) == repr(oracle)

    def test_written_ops_equal_getattr_per_field(self, tmp_path):
        data = every_op_kind_document()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        ops = [op for cell in load_trace(path).cells for op in cell.ops]
        ops += [op for cell in generate_trace(GenParams(cells=12, nondet_rate=0.3), 4).cells for op in cell.ops]
        for op in ops:
            assert _op_to_json(op) == {name: getattr(op, name) for name, *_ in _OPS[op.op]}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("damage", [
        None,
        lambda text: text[:-10],
        lambda text: text.replace('"op":"unbind"', '"op":"explode"'),
        lambda text: text.replace('"op":"unbind"', '"op":"unbind","extra":1'),
        lambda text: text.replace('"value":null', '"value":' + "[" * 100_000 + "]" * 100_000, 1),
    ], ids=["ok", "bad-json", "unknown-op", "unknown-field", "too-deep"])
    def test_load_leaves_the_collector_as_found(self, tmp_path, collector, enabled, damage):
        path = tmp_path / "t.json"
        save_trace(trace_from_json(every_op_kind_document()), path)
        if damage is not None:
            text = path.read_text()
            assert damage(text) != text
            path.write_text(damage(text))
        gc.enable() if enabled else gc.disable()
        if damage is None:
            load_trace(path)
        else:
            with pytest.raises(FormatError):
                load_trace(path)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("value", [None, {1, 2}], ids=["ok", "not-json"])
    def test_save_leaves_the_collector_as_found(self, tmp_path, collector, enabled, value):
        trace = trace_from_json(every_op_kind_document())
        trace.cells[-1].ops[4] = trace.cells[-1].ops[4]._replace(value=value)
        gc.enable() if enabled else gc.disable()
        if value is None:
            save_trace(trace, tmp_path / "t.json")
        else:
            with pytest.raises(TypeError):
                save_trace(trace, tmp_path / "t.json")
        assert gc.isenabled() is enabled


class TestGenerator:
    def test_same_seed_same_trace(self):
        params = GenParams(cells=12, variables=8, nondet_rate=0.2)
        assert trace_to_json(generate_trace(params, 9)) == trace_to_json(generate_trace(params, 9))

    def test_different_seed_differs(self):
        params = GenParams(cells=12, variables=8)
        assert trace_to_json(generate_trace(params, 1)) != trace_to_json(generate_trace(params, 2))

    def test_traces_replay_cleanly(self):
        for seed in range(20):
            trace = generate_trace(GenParams(
                cells=12, variables=6, alias_density=0.5, delete_rate=0.1,
                unserializable_rate=0.2, nondet_rate=0.15,
            ), seed)
            session, records = run_trace(trace)
            assert not any(r.failed for r in records)

    def test_rates_have_bite(self):
        # over many seeds the knobs must actually produce hazards
        aliased = unserializable = 0
        for seed in range(30):
            trace = generate_trace(GenParams(
                cells=10, variables=6, alias_density=0.6, unserializable_rate=0.4,
            ), seed)
            session, _ = run_trace(trace)
            from statecut.cost import linked_pairs
            from statecut.monitor import current_index
            from statecut.planner import session_cost_model

            cost = session_cost_model(session)
            aliased += bool(linked_pairs(current_index(session), session.heap.namespace))
            unserializable += (not all(cost.var_serializable.values()))
        assert aliased >= 15
        assert unserializable >= 15


class TestGeneratorWork:
    """Count, don't time: the generator keeps the lists it draws from, so it
    sorts the bound names or scans the pool at most once per bind, unbind
    or freeze, not once per draw; and it leaves the collector as found."""

    def test_wide_generation_keeps_its_candidate_lists(self, monkeypatch):
        work = Counter()

        def counting_sorted(items, *args, **kwargs):
            out = sorted(items, *args, **kwargs)
            if out and isinstance(out[0], str):
                work["name sorts"] += 1
            return out

        class Pool(list):
            def __iter__(self):
                work["pool scans"] += 1
                return super().__iter__()

        init = gen._TraceBuilder.__init__

        def counting_init(builder, params, rng):
            init(builder, params, rng)
            builder.pool = Pool(builder.pool)

        monkeypatch.setattr(gen, "sorted", counting_sorted, raising=False)
        monkeypatch.setattr(gen._TraceBuilder, "__init__", counting_init)
        trace = generate_trace(GenParams(**BENCH_SHAPES["wide"]), 100)
        ops = Counter(op.op for cell in trace.cells for op in cell.ops)
        changes = ops["bind"] + ops["unbind"] + sum(cell.nondeterministic for cell in trace.cells)
        assert ops["bind"] > 300
        assert work["name sorts"] + work["pool scans"] <= changes

    def test_generation_builds_no_reference_cycles(self, collector):
        gc.disable()
        gc.collect()
        trace = generate_trace(GenParams(**BENCH_SHAPES["wide"], nondet_rate=0.1), 100)
        assert gc.collect() == 0
        assert trace.cells

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("delete_rate", [0.1, None], ids=["ok", "raises"])
    def test_generation_leaves_the_collector_as_found(self, collector, enabled, delete_rate):
        params = GenParams(cells=20, nondet_rate=0.2, delete_rate=delete_rate)
        gc.enable() if enabled else gc.disable()
        if delete_rate is None:
            with pytest.raises(TypeError):  # the first draw compares a roll with None
                generate_trace(params, 5)
        else:
            generate_trace(params, 5)
        assert gc.isenabled() is enabled


class TestCliExitCodes:
    def seeded_trace(self, tmp_path, **kwargs) -> Path:
        path = tmp_path / "trace.json"
        save_trace(generate_trace(GenParams(cells=6, **kwargs), 3), path)
        return path

    def test_run_ok(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        assert main(["run", str(path)]) == 0
        assert "active variables" in capsys.readouterr().out

    def test_run_reports_every_executed_cell(self, tmp_path, capsys):
        # the lineage drops dead cells; the count and the per-cell lines do not
        path = tmp_path / "trace.json"
        save_trace(generate_trace(GenParams(cells=30, delete_rate=0.1), 3), path)
        assert main(["run", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["cells", "executed:", "30"]
        assert [line.split()[0] for line in lines[3:]] == [f"t={t}" for t in range(1, 31)]
        assert int(lines[1].split()[4]) < 30  # live cells

    def test_plan_writes_json(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        out = tmp_path / "plan.json"
        assert main(["plan", str(path), "--baselines", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"migrate", "rerun", "cost_s", "alpha", "bandwidth"}

    def test_verify_round_trip_ok(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        ckpt = tmp_path / "s.ckpt"
        assert main(["checkpoint", str(path), str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), str(ckpt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value_equivalent"] and report["isomorphic"]

    def test_infeasible_exits_2(self, tmp_path):
        from statecut.cost import CostProfile
        from statecut.heap import HeapOp
        from statecut.monitor import CellProgram
        from statecut.trace import TraceFile

        trace = TraceFile(
            profile=CostProfile(bandwidth_bytes_per_s=1.0),
            cells=[CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="opaque", size_bytes=8,
                       serializable=False, deserializable=False),
                HeapOp(op="bind", name="sock", id=1),
            ], never_rerun=True)],
        )
        path = tmp_path / "stuck.json"
        save_trace(trace, path)
        assert main(["plan", str(path)]) == 2

    def test_verification_failure_exits_3(self, tmp_path):
        # a deliberately link-blind checkpoint of an aliased pair, which the
        # writer refuses, written past it
        trace = aliased_pair_trace()
        trace_path = tmp_path / "aliased.json"
        save_trace(trace, trace_path)
        session, _ = run_trace(trace)
        ckpt = tmp_path / "broken.ckpt"
        write_split_by_hand(session, link_blind_plan(session), ckpt)
        assert main(["verify", str(trace_path), str(ckpt)]) == 3

    def test_format_error_exits_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        assert main(["run", str(bad)]) == 4
        assert main(["plan", str(bad)]) == 4
        bad.write_bytes(b'\xff{"version": 1}')  # not UTF-8
        assert main(["run", str(bad)]) == 4

    def test_infinite_profile_exits_4(self, tmp_path):
        # an infinite channel used to reach the planner: a NaN cut value, or
        # "alpha": Infinity in the printed plan
        data = trace_to_json(worked_example_trace())
        path = tmp_path / "inf.json"
        for profile in ({"bandwidth_bytes_per_s": 1e400, "alpha": 1e400},
                        {"bandwidth_bytes_per_s": 1.0, "alpha": 1e400}):
            path.write_text(json.dumps({**data, "profile": profile}))
            assert main(["plan", str(path)]) == 4

    def test_checkpoint_of_an_infinite_plan_cost_verifies(self, tmp_path, capsys):
        # both cells must be rerun, and their runtimes sum past the largest float
        from statecut.cost import CostProfile
        from statecut.monitor import CellProgram
        from statecut.trace import TraceFile

        trace = TraceFile(
            profile=CostProfile(bandwidth_bytes_per_s=1000.0),
            cells=[CellProgram(code_ref=name, declared_runtime_s=1e308, ops=[
                HeapOp(op="create", id=oid, kind="opaque", size_bytes=8,
                       serializable=False, deserializable=False),
                HeapOp(op="bind", name=name, id=oid),
            ]) for oid, name in ((1, "a"), (2, "b"))],
        )
        path, ckpt = tmp_path / "huge.json", tmp_path / "huge.ckpt"
        save_trace(trace, path)
        assert main(["checkpoint", str(path), str(ckpt)]) == 0
        assert json.loads(capsys.readouterr().out)["plan"]["cost_s"] == math.inf
        assert main(["verify", str(path), str(ckpt)]) == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"]

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_integer_env_seed_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STATECUT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["gen", str(tmp_path / "a.json")])
        assert exc.value.code == 2

    def test_gen_respects_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STATECUT_SEED", "77")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", str(out1), "--cells", "5"]) == 0
        assert main(["gen", str(out2), "--cells", "5"]) == 0
        assert out1.read_text() == out2.read_text()
        assert "seed 77" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", ["default", "wide"])
    def test_gen_writes_what_save_trace_writes(self, tmp_path, capsys, shape):
        # every GenParams field has a flag: the CLI writes any bench trace
        fields = {} if shape == "default" else BENCH_SHAPES[shape]
        flags = {"bandwidth_bytes_per_s": "--bandwidth", "latency_s": "--latency"}
        argv = ["gen", str(tmp_path / "cli.json"), "--seed", "100"]
        for name, value in fields.items():
            argv += [flags.get(name, "--" + name.replace("_", "-")), repr(value)]
        assert main(argv) == 0
        save_trace(generate_trace(GenParams(**fields), 100), tmp_path / "api.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "api.json").read_bytes()

    def test_restore_prints_summary(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        ckpt = tmp_path / "s.ckpt"
        main(["checkpoint", str(path), str(ckpt)])
        capsys.readouterr()
        assert main(["restore", str(ckpt), "--trace", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "variables" in summary

    @pytest.mark.parametrize("flags", [
        ["plan", "--alpha", "nan"],
        ["plan", "--alpha", "-1"],
        ["plan", "--latency", "inf"],
        ["plan", "--latency", "-0.5"],
        ["plan", "--bandwidth", "-1"],
        ["plan", "--bandwidth", "0"],
        ["plan", "--bandwidth", "nan"],
        ["checkpoint", "--bandwidth", "inf"],
        ["plan", "--bandwidth", "1.7976931348623157e308"],  # the largest float: not below it
        ["sweep", "--bandwidths", "0,1e6"],
        ["sweep", "--bandwidths", "1e6,-1e3"],
        ["sweep", "--bandwidths", "1e6", "--alpha", "nan"],
        ["sweep", "--bandwidths", "1e6", "--latency", "-1"],
    ])
    def test_bad_channel_flag_is_a_usage_error(self, tmp_path, capsys, flags):
        command, *rest = flags
        args = [command, str(self.seeded_trace(tmp_path))]
        if command == "checkpoint":
            args.append(str(tmp_path / "c.ckpt"))
        with pytest.raises(SystemExit) as exc:
            main(args + rest)
        assert exc.value.code == 2
        assert f"error: argument {rest[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["gen", "--cells", "-1"],
        ["gen", "--cells", "2.5"],
        ["gen", "--variables", "-4"],
        ["gen", "--alias-density", "nan"],
        ["gen", "--unserializable-rate", "2"],
        ["gen", "--undeserializable-rate", "-0.1"],
        ["gen", "--never-rerun-rate", "inf"],
        ["gen", "--nondet-rate", "1.5"],
        ["gen", "--unhashable-rate", "-1"],
        ["gen", "--delete-rate", "1.01"],
        ["gen", "--bandwidth", "0"],
        ["gen", "--latency", "nan"],
        ["gen", "--alpha", "-0.5"],
        ["bench", "--cells", "-3"],
    ])
    def test_bad_count_or_rate_is_a_usage_error(self, tmp_path, capsys, flags):
        command, *rest = flags
        args = [command, str(tmp_path / "g.json")] if command == "gen" else [command]
        with pytest.raises(SystemExit) as exc:
            main(args + rest)
        assert exc.value.code == 2
        assert f"error: argument {rest[-2]}" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    def test_unwritable_checkpoint_path_is_named(self, tmp_path, capsys):
        # the error names the path given, not the temporary file beside it
        target = tmp_path / "no" / "such" / "x.ckpt"
        assert main(["checkpoint", str(self.seeded_trace(tmp_path)), str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.rstrip().endswith(repr(str(target)))

    def test_bench_reports_metrics(self, capsys):
        assert main(["bench", "--cells", "60", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"] == 60
        assert data["ahg_bytes"] > 0
        assert data["monitor_ms_per_cell"] > 0
        assert data.keys() == {"cells", "ahg_bytes", "monitor_ms_per_cell", "plan_ms", "plan_cost_s",
                               "read_ms", "restore_ms"}
        assert data["plan_ms"] >= 0 and data["read_ms"] > 0 and data["restore_ms"] > 0

    def test_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        run = subprocess.run([sys.executable, "-m", "statecut", "--help"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: statecut ")


class TestReadme:
    def test_command_line_block_parses(self):
        # every command the README documents is one the parser accepts
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [line for line in block.splitlines() if line.startswith("statecut ")]
        assert len(commands) >= 8
        for line in commands:
            build_parser().parse_args(shlex.split(line)[1:])


class TestSweep:
    def test_cost_never_improves_as_bandwidth_falls(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_trace(generate_trace(GenParams(cells=10, variables=6), 21), path)
        assert main([
            "sweep", str(path), "--bandwidths", "1e9,1e6,1e3,1e0", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        costs = [row["cost_s"] for row in rows]
        assert costs == sorted(costs)

    def test_rows_match_a_fresh_session_per_bandwidth(self, tmp_path, capsys):
        from statecut.planner import plan_session, session_cost_model

        path = tmp_path / "t.json"
        save_trace(generate_trace(GenParams(cells=20, variables=8, alias_density=0.4), 5), path)
        bandwidths = [1e9, 1e6, 1e3, 1e0]
        assert main([
            "sweep", str(path), "--bandwidths", ",".join(map(str, bandwidths)), "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        expected = []
        for bandwidth in bandwidths:
            session, _ = run_trace(load_trace(path))
            plan = plan_session(session, bandwidth=bandwidth)
            sizes = session_cost_model(session).var_sizes
            expected.append({
                "bandwidth_bytes_per_s": bandwidth,
                "cost_s": plan.cost_s,
                "migrate_count": len(plan.migrate),
                "migrated_bytes": sum(sizes[n] for n in plan.migrate),
            })
        assert rows == expected

    def test_sweep_matches_brute_force(self, tmp_path):
        from statecut.cost import linked_pairs
        from statecut.monitor import current_index
        from statecut.planner import brute_force_plan, plan_session, session_cost_model

        trace = generate_trace(GenParams(cells=10, variables=5), 4)
        for bandwidth in (1e8, 1e5, 1e2):
            session, _ = run_trace(trace)
            plan = plan_session(session, bandwidth=bandwidth)
            cost = session_cost_model(session, bandwidth=bandwidth)
            linked = linked_pairs(current_index(session), session.history.active_snapshots())
            oracle = brute_force_plan(session.history, cost, linked)
            assert plan.cost_s == pytest.approx(oracle.cost_s, abs=1e-9)
