"""The benchmark's checkers accept the engine's honest output and reject
deliberately broken versions of it.

    python3 -m pytest bench/tests -q
"""

import copy
import json

import pytest

import checks
from statecut import GenParams, HeapOp, SimHeap, generate_trace, plan_session, run_trace
from statecut import read_checkpoint, restore, write_checkpoint

SHAPES = [
    GenParams(cells=60, variables=8, alias_density=0.5, unserializable_rate=0.05,
              undeserializable_rate=0.1, delete_rate=0.05),
    GenParams(cells=80, variables=12, alias_density=0.8, unserializable_rate=0.05,
              delete_rate=0.02, bandwidth_bytes_per_s=1e4, alpha=0.05),
]


def pipeline(params, seed, tmp_path):
    trace = generate_trace(params, seed)
    session, records = run_trace(trace)
    plan = plan_session(session)
    path = tmp_path / f"s{seed}.ckpt"
    write_checkpoint(session, plan, path)
    checkpoint = read_checkpoint(path)
    restored = restore(checkpoint, trace.programs())
    raw = path.read_bytes()
    manifest = json.loads(raw[20:20 + int.from_bytes(raw[12:20], "little")])
    return trace, session, records, plan, checkpoint, restored, manifest


@pytest.mark.parametrize("shape", range(len(SHAPES)))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_honest_pipeline_passes_every_check(shape, seed, tmp_path):
    trace, session, records, plan, checkpoint, restored, manifest = pipeline(
        SHAPES[shape], seed, tmp_path)
    mini, changed = checks.replay(trace)
    expected = checks.miniheap_view(mini)
    assert checks.superset_errors(records, changed) == []
    assert checks.isomorphism_errors(expected, checks.simheap_view(session.heap)) == []
    assert checks.isomorphism_errors(expected, checks.simheap_view(restored.session.heap)) == []
    cut = checks.min_cut_value(trace, mini, manifest["history"])
    assert checks.plan_errors(trace, mini, manifest["history"], plan, cut) == []
    assert checks.payload_errors(mini, checkpoint) == []


def _heap(ops):
    heap = SimHeap()
    heap.apply([HeapOp(**op) for op in ops])
    return heap


SHARED = [
    dict(op="create", id=1, kind="scalar", value=7, size_bytes=8),
    dict(op="create", id=2, kind="container", size_bytes=32),
    dict(op="set_slot", parent_id=2, slot="a", child_id=1),
    dict(op="bind", name="x", id=2),
    dict(op="bind", name="y", id=1),
]


def test_isomorphism_rejects_a_swapped_alias():
    original = _heap(SHARED)
    # y holds an equal-valued copy instead of the object x.a points at
    swapped = _heap(SHARED[:4] + [
        dict(op="create", id=3, kind="scalar", value=7, size_bytes=8),
        dict(op="bind", name="y", id=3),
    ])
    assert checks.isomorphism_errors(checks.simheap_view(original), checks.simheap_view(original)) == []
    errors = checks.isomorphism_errors(checks.simheap_view(original), checks.simheap_view(swapped))
    assert errors and "sharing" in errors[0]


def test_isomorphism_rejects_changed_value_flag_and_label():
    original = checks.simheap_view(_heap(SHARED))
    for broken in (
        [dict(SHARED[0], value=8)] + SHARED[1:],
        [dict(SHARED[0], hashable=False)] + SHARED[1:],
        SHARED[:2] + [dict(SHARED[2], slot="b")] + SHARED[3:],
    ):
        assert checks.isomorphism_errors(original, checks.simheap_view(_heap(broken)))


def test_superset_rejects_a_dropped_write():
    trace = generate_trace(SHAPES[0], 4)
    _, records = run_trace(trace)
    _, changed = checks.replay(trace)
    t = next(i for i, names in enumerate(changed) if names - records[i].created - records[i].deleted)
    name = sorted(changed[t] - records[t].created - records[t].deleted)[0]
    broken = copy.deepcopy(records)
    broken[t].written.discard(name)
    assert checks.superset_errors(records, changed) == []
    errors = checks.superset_errors(broken, changed)
    assert errors and name in errors[0]


def test_plan_check_rejects_a_plan_made_from_a_lineage_missing_a_read():
    for seed in range(1, 40):
        trace = generate_trace(SHAPES[1], seed)
        session, _ = run_trace(trace)
        manifest = session.history.to_manifest()
        mini, _ = checks.replay(trace)
        cut = checks.min_cut_value(trace, mini, manifest)
        assert checks.plan_errors(trace, mini, manifest, plan_session(session), cut) == []
        for t, deps in sorted(session.history.reads.items()):
            for dep in sorted(deps):
                pruned = copy.deepcopy(session)
                pruned.history.reads[t].discard(dep)
                plan = plan_session(pruned)
                if checks.plan_errors(trace, mini, manifest, plan, cut):
                    return
    pytest.fail("no dropped read edge changed the plan")


def test_plan_check_rejects_a_non_optimal_migrate_set():
    trace = generate_trace(SHAPES[1], 5)
    session, _ = run_trace(trace)
    manifest = session.history.to_manifest()
    mini, _ = checks.replay(trace)
    cut = checks.min_cut_value(trace, mini, manifest)
    plan = plan_session(session)
    active, reads = checks.lineage_from_manifest(manifest)
    linked = {n for pair in checks.linked_names(mini, active) for n in pair}
    for name in sorted(set(active) - linked):
        migrate = set(plan.migrate) ^ {name}
        if any(checks.migration_seconds(mini, n, trace.profile) == float("inf") for n in migrate):
            continue
        ground = {(n, active[n]) for n in migrate}
        rerun = checks.rerun_closure(active, reads, set(active) - migrate, ground)
        cost = sum(checks.migration_seconds(mini, n, trace.profile) for n in migrate)
        cost += sum(trace.cells[t - 1].declared_runtime_s for t in rerun)
        if cost <= cut * (1 + 1e-9):
            continue
        other = copy.copy(plan)
        other.migrate, other.rerun, other.cost_s = migrate, sorted(rerun), cost
        errors = checks.plan_errors(trace, mini, manifest, other, cut)
        assert errors == [f"plan cost {cost!r} != networkx min cut {cut!r}"]
        return
    pytest.fail("no single flip gave a feasible, costlier plan")


def test_payload_check_rejects_a_missing_object(tmp_path):
    trace, _, _, _, checkpoint, _, _ = pipeline(SHAPES[0], 1, tmp_path)
    mini, _ = checks.replay(trace)
    assert checks.payload_errors(mini, checkpoint) == []
    dropped = max(checkpoint.objects)
    del checkpoint.objects[dropped]
    errors = checks.payload_errors(mini, checkpoint)
    assert errors and str(dropped) in errors[0]
