"""The benchmark's span tracer (bench/spans.py) patches statecut's functions
by module attribute. A patch point renamed or deleted in the engine would
break only the traced benchmark run, so this runs a small session through the
installed tracer, the way bench/run.py does, and checks that uninstalling it
puts every original back."""

import importlib.util
from pathlib import Path

from statecut import cost, gen, heap, history, monitor, planner, replicator
from statecut import trace as trace_mod
from statecut.errors import CellExecutionError
from statecut.gen import GenParams

MODULES = (cost, gen, heap, history, monitor, planner, replicator, trace_mod)


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes() -> dict:
    """Every attribute of the statecut modules and of the classes they define."""
    found = {}
    for module in MODULES:
        found[module.__name__] = dict(vars(module))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = dict(vars(value))
    return found


def test_tracer_patches_every_hook_and_restores_them(tmp_path):
    tracer = load_spans().Tracer()
    before = attributes()
    unpatched = (planner.build_flow_graph, monitor.build_id_graph, monitor.subgraph_hash)
    tracer.install()
    try:
        patched = (planner.build_flow_graph, monitor.build_id_graph, monitor.subgraph_hash)
        assert all(new is not old for new, old in zip(patched, unpatched))
        tracer.set_phase("setup")
        trace = gen.generate_trace(GenParams(cells=12, variables=5, alias_density=0.5), 3)
        trace_mod.save_trace(trace, tmp_path / "trace.json")
        loaded = trace_mod.load_trace(tmp_path / "trace.json")
        tracer.set_phase("monitor")
        session = trace_mod.new_session(loaded.profile, loaded.variable_annotations)
        for cell in loaded.cells:
            try:
                monitor.run_cell(session, cell)
            except CellExecutionError:
                pass
        tracer.set_phase("checkpoint")
        plan = planner.plan_session(session)
        replicator.write_checkpoint(session, plan, tmp_path / "c.ckpt")
        tracer.set_phase("restore")
        checkpoint = replicator.read_checkpoint(tmp_path / "c.ckpt")
        # every stored variable fails to load, so restore takes the fallback
        restored = replicator.restore(checkpoint, loaded.programs(), deserialization_fault=lambda name: True)
        tracer.set_phase("verify")
        report = replicator.verify(session.heap, restored.session.heap)
    finally:
        tracer.uninstall()

    assert plan.migrate and restored.fallback_recomputed
    assert report.isomorphic
    calls = tracer.round_totals()["calls"]
    for key in (
        "setup:gen.generate_trace", "setup:trace.save_trace", "setup:trace.load_trace",
        "monitor:heap.apply", "monitor:history.record",
        "checkpoint:planner.session_cost_model", "checkpoint:cost.profile_variables",
        "checkpoint:cost.linked_pairs", "checkpoint:planner.build_flow_graph",
        "checkpoint:planner.min_cut_plan", "checkpoint:replicator.write_checkpoint",
        "checkpoint:history.to_manifest",
        "restore:replicator.read_checkpoint", "restore:history.from_manifest",
        "restore:replicator.restore", "restore:replicator.recovery_cells",
        "restore:history.rerun_cells_from", "verify:replicator.verify",
    ):
        assert calls.get(key, 0) >= 1, key
    # run_cell reads the undo log; only the full-rescan oracle fingerprints
    for key in ("monitor:heap.build_id_graph", "monitor:heap.subgraph_hash"):
        assert calls.get(key, 0) == 0, key
    assert attributes() == before
