import json
import math
import random
from pathlib import Path

import jsonschema
import pytest

from statecut.cli import main
from statecut.errors import FormatError, StatecutError
from statecut.gen import GenParams, generate_trace
from statecut.planner import plan_session
from statecut.replicator import read_checkpoint, restore, write_checkpoint
from statecut.trace import (
    _CELL_FIELDS,
    _CELL_REQUIRED,
    _FIELD_TYPES,
    _OP_FIELDS,
    _OP_OPTIONAL,
    load_trace,
    run_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)

from documents import WRONG_VALUES, leaf_paths, with_leaf
from sessions import worked_example_trace

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "trace.schema.json").read_text())

# how the published schema states each field type of the loader's table
SCHEMA_OF_TYPE = {
    "object_id": {"$ref": "#/definitions/object_id"},
    "size": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    "kind": {"enum": ["scalar", "container", "opaque"]},
    "str": {"type": "string"},
    "ref": {"type": "string", "minLength": 1},
    "bool": {"type": "boolean"},
    "any": {},
    "str_list": {"type": "array", "items": {"type": "string"}},
    "seconds": {"type": "number", "minimum": 0},
    "ops": {"type": "array", "items": {"$ref": "#/definitions/op"}},
}


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
    ])
    def test_malformed_documents_rejected(self, mutate):
        data = trace_to_json(generate_trace(GenParams(cells=3), 1))
        mutate(data)
        with pytest.raises(FormatError):
            trace_from_json(data)

    def test_field_table_agrees_with_schema(self):
        assert SCHEMA_OF_TYPE.keys() == _FIELD_TYPES.keys()
        ops = {entry["properties"]["op"]["const"]: entry
               for entry in SCHEMA["definitions"]["op"]["oneOf"]}
        assert ops.keys() == _OP_FIELDS.keys()
        for op, fields in _OP_FIELDS.items():
            assert set(ops[op]["required"]) == {"op"} | (fields.keys() - _OP_OPTIONAL), op
            properties = {k: v for k, v in ops[op]["properties"].items() if k != "op"}
            assert properties == {name: SCHEMA_OF_TYPE[kind] for name, kind in fields.items()}, op
        cell = SCHEMA["definitions"]["cell"]
        assert set(cell["required"]) == _CELL_REQUIRED
        assert cell["properties"] == {name: SCHEMA_OF_TYPE[kind] for name, kind in _CELL_FIELDS.items()}

    def test_type_checks_accept_what_the_schema_types_accept(self):
        # "ops" is left out: the op parser checks its items one by one. JSON
        # Schema's "integer" also admits 1.0, which is not a probe here: the
        # loader takes only ints for ids and sizes, as the writer produces.
        probes = ["x", "", -1, 0, 7, 2**64 - 1, 2**64, None, [], {}, 1.5, True, False,
                  "scalar", ["a"], [1]]
        for kind, check in _FIELD_TYPES.items():
            if kind == "ops":
                continue
            validator = jsonschema.Draft7Validator(
                {**SCHEMA_OF_TYPE[kind], "definitions": SCHEMA["definitions"]})
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
            from statecut.planner import session_cost_model

            cost = session_cost_model(session)
            aliased += bool(linked_pairs(session.heap, session.heap.namespace))
            unserializable += (not all(cost.var_serializable.values()))
        assert aliased >= 15
        assert unserializable >= 15


class TestCliExitCodes:
    def seeded_trace(self, tmp_path, **kwargs) -> Path:
        path = tmp_path / "trace.json"
        save_trace(generate_trace(GenParams(cells=6, **kwargs), 3), path)
        return path

    def test_run_ok(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        assert main(["run", str(path)]) == 0
        assert "active variables" in capsys.readouterr().out

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
        # a deliberately link-blind checkpoint of an aliased pair
        from statecut.cost import CostProfile
        from statecut.heap import HeapOp
        from statecut.monitor import CellProgram
        from statecut.trace import TraceFile

        cells = [
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="container", size_bytes=5),
                HeapOp(op="create", id=2, kind="scalar", value=3, size_bytes=5),
                HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
                HeapOp(op="bind", name="l1", id=1),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c2", direct_reads={"l1"}, ops=[
                HeapOp(op="create", id=3, kind="container", size_bytes=1),
                HeapOp(op="set_slot", parent_id=3, slot="0", child_id=1),
                HeapOp(op="bind", name="big2d", id=3),
            ], declared_runtime_s=50.0),
        ]
        trace_path = tmp_path / "aliased.json"
        save_trace(TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells), trace_path)
        ckpt = tmp_path / "broken.ckpt"
        assert main(["checkpoint", str(trace_path), str(ckpt), "--ablate", "no-linked"]) == 0
        assert main(["verify", str(trace_path), str(ckpt)]) == 3

    def test_format_error_exits_4(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        assert main(["run", str(bad)]) == 4
        assert main(["plan", str(bad)]) == 4

    def test_unknown_ablation_exits_4(self, tmp_path):
        path = self.seeded_trace(tmp_path)
        assert main(["run", str(path), "--ablate", "no-gravity"]) == 4

    def test_gen_respects_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STATECUT_SEED", "77")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", str(out1), "--cells", "5"]) == 0
        assert main(["gen", str(out2), "--cells", "5"]) == 0
        assert out1.read_text() == out2.read_text()
        assert "seed 77" in capsys.readouterr().out

    def test_restore_prints_summary(self, tmp_path, capsys):
        path = self.seeded_trace(tmp_path)
        ckpt = tmp_path / "s.ckpt"
        main(["checkpoint", str(path), str(ckpt)])
        capsys.readouterr()
        assert main(["restore", str(ckpt), "--trace", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "variables" in summary

    def test_bench_reports_metrics(self, capsys):
        assert main(["bench", "--cells", "60", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"] == 60
        assert data["ahg_bytes"] > 0
        assert data["plan_ms"] >= 0


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
        from statecut.planner import plan_session

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
            expected.append({
                "bandwidth_bytes_per_s": bandwidth,
                "cost_s": plan.cost_s,
                "migrate_count": len(plan.migrate),
                "migrated_bytes": sum(session.cost.var_sizes[n] for n in plan.migrate),
            })
        assert rows == expected

    def test_sweep_matches_brute_force(self, tmp_path):
        from statecut.cost import linked_pairs
        from statecut.planner import brute_force_plan, plan_session, session_cost_model

        trace = generate_trace(GenParams(cells=10, variables=5), 4)
        for bandwidth in (1e8, 1e5, 1e2):
            session, _ = run_trace(trace)
            plan = plan_session(session, bandwidth=bandwidth)
            cost = session_cost_model(session, bandwidth=bandwidth)
            linked = linked_pairs(session.heap, session.history.active_snapshots())
            oracle = brute_force_plan(session.history, cost, linked)
            assert plan.cost_s == pytest.approx(oracle.cost_s, abs=1e-9)
