"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

import random
import time
from copy import deepcopy

import pytest

from statecut.cli import run_bench
from statecut.cost import linked_pairs
from statecut.errors import FormatError, Infeasible, Unreconstructable
from statecut.gen import GenParams, generate_trace, inject_false_edges
from statecut.monitor import current_index
from statecut.planner import (
    ReplicationPlan,
    baseline_plans,
    brute_force_plan,
    build_flow_graph,
    min_cut_plan,
    plan_session,
    session_cost_model,
)
from statecut.replicator import payload_bytes, read_checkpoint, restore, verify, write_checkpoint
from statecut.trace import run_trace

from sessions import (
    alpha_flip_trace,
    aliased_pair_trace,
    fast_migrate_trace,
    hash_only_session,
    link_blind_plan,
    reference_swap_trace,
    worked_example_trace,
    write_split_by_hand,
)


def report(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d} PASS: {message}")


def planner_inputs(trace, **kwargs):
    session, _ = run_trace(trace)
    cost = session_cost_model(session, **kwargs)
    linked = linked_pairs(current_index(session), session.history.active_snapshots())
    return session, cost, linked


def test_criterion_1_min_cut_matches_brute_force():
    """Min-cut cost equals exhaustive enumeration on 500 hazard-rich instances."""
    rng = random.Random(101)
    start = time.perf_counter()
    checked = infeasible = 0
    for instance in range(500):
        params = GenParams(
            cells=rng.randint(3, 10),
            variables=rng.randint(3, 12),
            alias_density=rng.uniform(0.1, 0.6),
            unserializable_rate=rng.uniform(0.0, 0.3),
            never_rerun_rate=rng.uniform(0.0, 0.15),
            delete_rate=0.08,
        )
        session, cost, linked = planner_inputs(generate_trace(params, instance))
        assert len(session.history.active_snapshots()) <= 12
        fg = build_flow_graph(session.history, cost, linked)
        try:
            fast = min_cut_plan(fg)
        except Infeasible:
            with pytest.raises(Infeasible):
                brute_force_plan(session.history, cost, linked)
            infeasible += 1
            continue
        slow = brute_force_plan(session.history, cost, linked)
        assert abs(fast.cost_s - slow.cost_s) <= 1e-9, instance
        for a, b in linked:
            assert (a in fast.migrate) == (b in fast.migrate), instance
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked + infeasible == 500
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"{checked} optimal plans matched the oracle, {infeasible} infeasible "
              f"agreed, in {elapsed:.1f}s")


def test_criterion_2_end_to_end_correctness(tmp_path):
    """500 hazard-rich sessions: every feasible one restores isomorphic."""
    rng = random.Random(202)
    feasible = fallbacks = blocked = 0
    for instance in range(500):
        params = GenParams(
            cells=rng.randint(4, 12),
            variables=rng.randint(3, 8),
            alias_density=rng.uniform(0.1, 0.5),
            unserializable_rate=rng.uniform(0.0, 0.3),
            undeserializable_rate=rng.uniform(0.0, 0.1),
            never_rerun_rate=0.05,
            nondet_rate=0.1,
            delete_rate=0.08,
        )
        trace = generate_trace(params, 10_000 + instance)
        session, _ = run_trace(trace)
        try:
            plan = plan_session(session)
        except Infeasible:
            continue
        path = tmp_path / "check.ckpt"
        write_checkpoint(session, plan, path)
        try:
            result = restore(read_checkpoint(path), trace.programs())
        except Unreconstructable:
            blocked += 1  # undeserializable variable behind a never-rerun cell
            continue
        outcome = verify(session.heap, result.session.heap)
        assert outcome.value_equivalent and outcome.isomorphic, instance
        feasible += 1
        fallbacks += bool(result.fallback_recomputed)
    assert feasible >= 350
    assert fallbacks >= 5, "fallback recomputation path barely exercised"
    report(2, f"{feasible} sessions restored isomorphic ({fallbacks} via fallback "
              f"recomputation, {blocked} blocked by never-rerun annotations)")


def test_criterion_3_ablations_reproduce_failures(tmp_path):
    """Dropping the linked constraint breaks isomorphism; dropping ID graphs
    breaks value correctness on a structural swap. The full path restores
    both sessions isomorphic."""

    def restored(session, plan, trace, name, write=write_checkpoint):
        path = tmp_path / name
        write(session, plan, path)
        return verify(session.heap, restore(read_checkpoint(path), trace.programs()).session.heap)

    aliased = aliased_pair_trace()
    session, _ = run_trace(aliased)
    blind = link_blind_plan(session)
    assert blind.migrate == {"big2d"}  # the pair was split
    # the writer refuses a split; written past it, the split restores two objects
    with pytest.raises(FormatError, match="splits linked names"):
        write_checkpoint(session, blind, tmp_path / "refused.ckpt")
    broken = restored(session, blind, aliased, "nolinked.ckpt", write=write_split_by_hand)
    assert broken.value_equivalent and not broken.isomorphic
    assert restored(session, plan_session(session), aliased, "linked.ckpt").isomorphic

    swap = reference_swap_trace()
    blind_session = hash_only_session(swap)
    wrong = restored(blind_session, plan_session(blind_session), swap, "noidgraph.ckpt")
    assert not wrong.value_equivalent
    full_session, _ = run_trace(swap)
    assert restored(full_session, plan_session(full_session), swap, "idgraph.ckpt").isomorphic
    report(3, "no-linked split an alias (isomorphism violation); no-idgraph "
              "missed a reference swap (value-incorrect restore)")


def test_criterion_4_alpha_flip_with_reported_quantities():
    """store 6.19 s, load 1.17 s, rerun 5.5 s: recompute at alpha=1, migrate at 0.05."""
    session, _ = run_trace(alpha_flip_trace())
    cost = session_cost_model(session)
    assert cost.store_seconds("df") == pytest.approx(6.19, abs=1e-9)
    assert cost.load_seconds("df") == pytest.approx(1.17, abs=1e-9)

    migration_centric = plan_session(session, alpha=1.0)
    assert migration_centric.migrate == set()
    assert migration_centric.rerun == [1]
    assert migration_centric.cost_s == pytest.approx(5.5, abs=1e-9)

    restoration_centric = plan_session(session, alpha=0.05)
    assert restoration_centric.migrate == {"df"}
    assert restoration_centric.rerun == []
    assert restoration_centric.cost_s == pytest.approx(0.05 * 6.19 + 1.17, abs=1e-9)
    report(4, "plan flipped from recompute (7.36 > 5.5) to store (1.4795 < 5.5)")


def test_criterion_5_worked_example_partition():
    """The documented six-variable instance splits exactly as described."""
    session, cost, linked = planner_inputs(worked_example_trace())
    assert linked == [("big2d", "l1")]
    plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
    oracle = brute_force_plan(session.history, cost, linked)
    assert plan.migrate == {"l1", "big2d", "gen"}
    assert plan.rerun == [1, 2, 3]
    assert abs(plan.cost_s - oracle.cost_s) <= 1e-9
    assert oracle.migrate == plan.migrate
    report(5, "migrate {l1, big2d, gen}, rerun [t1, t2, t3], cost 8.0 "
              "(brute-force confirmed optimal)")


def test_criterion_6_dominance_over_baselines():
    """Optimal cost never exceeds copy-all or rerun-all; strictly beats both
    on the load/split/fit/evaluate scenario."""
    rng = random.Random(606)
    for instance in range(120):
        params = GenParams(
            cells=rng.randint(3, 10),
            variables=rng.randint(3, 8),
            alias_density=rng.uniform(0.0, 0.5),
            unserializable_rate=rng.uniform(0.0, 0.3),
        )
        session, cost, linked = planner_inputs(generate_trace(params, 60_000 + instance))
        try:
            plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        except Infeasible:
            continue
        plans = baseline_plans(session.history, cost)
        assert plan.cost_s <= plans["copy_all"].cost_s + 1e-9
        assert plan.cost_s <= plans["rerun_all"].cost_s + 1e-9

    session, cost, linked = planner_inputs(fast_migrate_trace())
    plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
    plans = baseline_plans(session.history, cost)
    assert plans["rerun_all"].cost_s == pytest.approx(33.0)
    assert plans["copy_all"].cost_s == pytest.approx(20.6)
    assert plan.cost_s == pytest.approx(3.6)
    assert plan.cost_s < min(plans["copy_all"].cost_s, plans["rerun_all"].cost_s)
    report(6, "optimal plan dominated both baselines on 120 instances; "
              "3.6 < min(20.6, 33.0) on the mixed scenario")


def test_criterion_7_scalability():
    """2000 re-executions: planning under 1 s, lineage under 1 MiB (it keeps
    only the live cells), and both metrics grow at most ~linearly from 1000
    to 2000 cells."""
    half = run_bench(1000, seed=1)
    full = run_bench(2000, seed=1)
    assert full["plan_ms"] < 1000.0
    assert full["ahg_bytes"] < 2**20
    assert full["ahg_bytes"] <= 3.0 * half["ahg_bytes"]
    assert full["plan_ms"] <= max(3.0 * half["plan_ms"], 50.0)
    report(7, f"2000 cells: plan {full['plan_ms']:.0f} ms, lineage "
              f"{full['ahg_bytes'] / 2**20:.2f} MiB; 1000-to-2000 growth "
              f"{full['ahg_bytes'] / half['ahg_bytes']:.2f}x memory, "
              f"{full['plan_ms'] / max(half['plan_ms'], 1e-9):.2f}x time")


def test_criterion_8_false_positive_robustness(tmp_path):
    """Injected false dependencies never break restoration and only ever
    grow the reconstruction lists."""
    correct = 0
    for instance in range(200):
        trace = generate_trace(GenParams(
            cells=10, variables=6, alias_density=0.4, delete_rate=0.05,
        ), 80_000 + instance)
        session, _ = run_trace(trace)
        pristine = deepcopy(session.history)
        session.history = inject_false_edges(session.history, random.Random(instance), reads=4, writes=2)

        for name, active_vs in pristine.active_snapshots().items():
            base = {c.t for c in pristine.rerun_cells_from({active_vs}, set())}
            shifted = session.history.active_snapshots()[name]
            grown = {c.t for c in session.history.rerun_cells_from({shifted}, set())}
            assert base <= grown, (instance, name)

        cost = session_cost_model(session)
        linked = linked_pairs(current_index(session), session.history.active_snapshots())
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        path = tmp_path / "fp.ckpt"
        write_checkpoint(session, plan, path)
        result = restore(read_checkpoint(path), trace.programs())
        outcome = verify(session.heap, result.session.heap)
        assert outcome.value_equivalent and outcome.isomorphic, instance
        correct += 1
    assert correct == 200
    report(8, "200 sessions with injected false dependencies all restored "
              "isomorphic; reconstruction lists only grew")


def test_criterion_9_checkpoint_size(tmp_path):
    """Planned payload never exceeds copy-all; the stored-input scenario
    cuts the file by more than half."""
    from statecut.cost import CostProfile
    from statecut.heap import HeapOp
    from statecut.monitor import CellProgram
    from statecut.trace import TraceFile

    rng = random.Random(909)
    for instance in range(60):
        trace = generate_trace(GenParams(
            cells=rng.randint(4, 10), variables=6,
            alias_density=0.4, unserializable_rate=0.0,
        ), 90_000 + instance)
        session, _ = run_trace(trace)
        plan = plan_session(session)
        copy_all = ReplicationPlan(
            migrate=set(session.history.active_snapshots()), rerun=[], cost_s=0.0,
        )
        planned, full = tmp_path / "p.ckpt", tmp_path / "f.ckpt"
        write_checkpoint(session, plan, planned)
        write_checkpoint(session, copy_all, full)
        assert payload_bytes(planned) <= payload_bytes(full), instance

    cells = [CellProgram(code_ref="load", ops=[
        HeapOp(op="create", id=1, kind="opaque", size_bytes=10**8),
        HeapOp(op="bind", name="frame", id=1),
    ], declared_runtime_s=500.0)]
    split_ops, next_id = [], 2
    for name in ("x_train", "x_test"):
        root, next_id = next_id, next_id + 1
        split_ops.append(HeapOp(op="create", id=root, kind="container", size_bytes=64))
        for j in range(40):
            split_ops.append(HeapOp(op="create", id=next_id, kind="scalar",
                                    value="row-%03d" % j, size_bytes=3 * 10**7))
            split_ops.append(HeapOp(op="set_slot", parent_id=root, slot=f"r{j}",
                                    child_id=next_id))
            next_id += 1
        split_ops.append(HeapOp(op="bind", name=name, id=root))
    cells.append(CellProgram(code_ref="split", direct_reads={"frame"},
                             ops=split_ops, declared_runtime_s=2.0))
    trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e6), cells=cells)
    session, _ = run_trace(trace)
    plan = plan_session(session)
    assert plan.migrate == {"frame"}
    planned, full = tmp_path / "tts_p.ckpt", tmp_path / "tts_f.ckpt"
    write_checkpoint(session, plan, planned)
    write_checkpoint(session, ReplicationPlan(
        migrate=set(session.history.active_snapshots()), rerun=[], cost_s=0.0,
    ), full)
    ratio = payload_bytes(planned) / payload_bytes(full)
    assert ratio <= 0.5
    report(9, f"payload never exceeded copy-all on 60 instances; stored-input "
              f"scenario wrote {ratio:.0%} of the copy-all bytes")


def test_criterion_10_format_round_trip(tmp_path):
    """checkpoint -> restore -> re-checkpoint gives the same bytes, and
    identical heaps produce bit-identical files."""
    trace = worked_example_trace()
    session, _ = run_trace(trace)
    plan = plan_session(session)
    first = tmp_path / "first.ckpt"
    write_checkpoint(session, plan, first)
    checkpoint = read_checkpoint(first)
    result = restore(checkpoint, trace.programs())

    second = tmp_path / "second.ckpt"
    write_checkpoint(result.session, plan, second)
    assert second.read_bytes() == first.read_bytes()

    # two identical sessions give byte-identical checkpoints
    twin_session, _ = run_trace(trace)
    twin_plan = plan_session(twin_session)
    twin_path = tmp_path / "twin.ckpt"
    write_checkpoint(twin_session, twin_plan, twin_path)
    assert twin_path.read_bytes() == first.read_bytes()
    report(10, "the re-checkpoint was byte-identical; "
               "identical heaps produced bit-identical files")
