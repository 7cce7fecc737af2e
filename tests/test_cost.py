import math

import pytest

from statecut.cost import CostModel, CostProfile, linked_pairs
from statecut.errors import UnknownVariable
from statecut.gen import GenParams, generate_trace
from statecut.heap import HeapOp, SimHeap, reachable_ids
from statecut.monitor import CellProgram
from statecut.planner import ReplicationPlan, brute_force_plan, session_cost_model
from statecut.replicator import read_checkpoint, write_checkpoint
from statecut.trace import TraceFile, run_trace

from heaps import make_object
from sessions import worked_example_trace

INF = math.inf


def cycle_shared_by_three() -> TraceFile:
    """One cell binding a: 1 <-> 2 -> 3, b: 4 -> 3, c: 3 itself, d: 5 alone."""
    ops = [HeapOp(op="create", id=oid, kind="container") for oid in (1, 2, 4)]
    ops += [HeapOp(op="create", id=3, kind="scalar", value=7),
            HeapOp(op="create", id=5, kind="scalar", value=8)]
    ops += [HeapOp(op="set_slot", parent_id=p, slot=slot, child_id=c)
            for p, slot, c in ((1, "next", 2), (2, "next", 1), (2, "x", 3), (4, "x", 3))]
    ops += [HeapOp(op="bind", name=n, id=oid) for n, oid in (("a", 1), ("b", 4), ("c", 3), ("d", 5))]
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e6),
                     cells=[CellProgram(code_ref="c1", ops=ops)])


def pairwise_oracle(objects, roots) -> set[tuple[str, str]]:
    """Sorted name pairs whose closures intersect, compared pair by pair."""
    closures = {name: reachable_ids(objects, root) for name, root in roots.items()}
    names = sorted(closures)
    return {(a, b) for i, a in enumerate(names) for b in names[i + 1:] if closures[a] & closures[b]}


def components(names, pairs) -> dict[str, set[str]]:
    """Each name's connected component under ``pairs``, by merging sets."""
    group = {n: {n} for n in names}
    for a, b in pairs:
        if group[a] is not group[b]:
            merged = group[a] | group[b]
            for n in merged:
                group[n] = merged
    return group


def model(bandwidth=1.0, latency=0.0, alpha=1.0, store_bandwidth=None) -> CostModel:
    return CostModel(CostProfile(
        bandwidth_bytes_per_s=bandwidth, latency_s=latency, alpha=alpha,
        store_bandwidth_bytes_per_s=store_bandwidth,
    ))


class TestEstimates:
    def test_zero_size_zero_latency(self):
        m = model()
        m.var_sizes["x"] = 0
        m.var_serializable["x"] = True
        assert m.store_seconds("x") == 0.0
        assert m.load_seconds("x") == 0.0

    def test_nfs_like_channel(self):
        # 274 MB/s with 175 microseconds latency moving a 274 MB variable
        m = model(bandwidth=274e6, latency=175e-6)
        m.var_sizes["df"] = 274_000_000
        m.var_serializable["df"] = True
        assert m.store_seconds("df") == pytest.approx(1.000175, abs=1e-9)
        assert m.load_seconds("df") == pytest.approx(1.000175, abs=1e-9)

    def test_unserializable_is_infinite(self):
        m = model()
        m.var_sizes["sock"] = 10
        m.var_serializable["sock"] = False
        assert m.store_seconds("sock") == INF
        assert m.load_seconds("sock") == INF

    def test_unprofiled_raises(self):
        with pytest.raises(UnknownVariable):
            model().store_seconds("ghost")

    def test_profiling_counts_shared_objects_per_variable(self):
        heap = SimHeap()
        make_object(heap, 1, "container", size=10)
        make_object(heap, 2, "scalar", value=1, size=5)
        heap.apply([
            HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
            HeapOp(op="bind", name="a", id=1),
            HeapOp(op="bind", name="b", id=2),
        ])
        m = model()
        m.profile_variables(heap)
        assert m.var_sizes == {"a": 15, "b": 5}


class TestMigrationCost:
    def test_empty_set(self):
        assert model().migration_cost(set()) == 0.0

    def test_store_and_load_weighted_by_alpha(self):
        m = model(bandwidth=100.0, store_bandwidth=100.0 / 6.19 * 1.17, alpha=1.0)
        m.var_sizes["df"] = 117
        m.var_serializable["df"] = True
        assert m.store_seconds("df") == pytest.approx(6.19)
        assert m.load_seconds("df") == pytest.approx(1.17)
        assert m.migration_cost({"df"}) == pytest.approx(7.36)

    def test_low_alpha_discounts_store(self):
        m = model(bandwidth=100.0, store_bandwidth=100.0 / 6.19 * 1.17, alpha=0.05)
        m.var_sizes["df"] = 117
        m.var_serializable["df"] = True
        assert m.migration_cost({"df"}) == pytest.approx(0.05 * 6.19 + 1.17)
        assert m.migration_cost({"df"}) == pytest.approx(1.4795)


class TestRecomputeCost:
    def test_empty_set(self):
        session, _ = run_trace(worked_example_trace())
        assert session.cost.recompute_cost(session.history, set(), ground=set()) == 0.0

    def test_shared_ancestor_charged_once(self):
        # x and y both come from cell 1 (2 s); recomputing the pair costs the
        # ancestor once, plus x's own cell
        session, _ = run_trace(worked_example_trace())
        cost = session.cost
        only_x = cost.recompute_cost(session.history, {"x"}, ground={"z"})
        both = cost.recompute_cost(session.history, {"x", "y"}, ground={"z"})
        assert only_x == pytest.approx(2.0 + 2.0)  # cells 1 and 3
        assert both == only_x  # y rides along on cell 1

    def test_never_rerun_blocks_with_infinity(self):
        from statecut.history import CellRecord, HistoryGraph, VariableSnapshot

        graph = HistoryGraph()
        graph.record(CellRecord(t=1, code_ref="c1", runtime_s=1.0, written={"x"},
                                never_rerun=True))
        graph.record(CellRecord(t=2, code_ref="c2", runtime_s=1.0, written={"y"},
                                accessed={VariableSnapshot("x", 1)}))
        m = model()
        m.record_runtime(1, 1.0)
        m.record_runtime(2, 1.0)
        assert m.recompute_cost(graph, {"y"}, ground=set()) == INF
        assert m.recompute_cost(graph, {"y"}, ground={"x"}) == 1.0  # ground cuts the path


class TestTotalCost:
    def test_migrate_everything_is_pure_copy(self):
        session, _ = run_trace(worked_example_trace())
        cost = session_cost_model(session)
        active = set(session.history.active_snapshots())
        assert cost.total_cost(session.history, active) == pytest.approx(
            cost.migration_cost(active)
        )

    def test_migrate_nothing_is_pure_rerun(self):
        session, _ = run_trace(worked_example_trace())
        cost = session_cost_model(session)
        active = set(session.history.active_snapshots())
        expected = cost.recompute_cost(session.history, active, ground=set())
        assert cost.total_cost(session.history, set()) == pytest.approx(expected)

    def test_random_plans_match_independent_evaluation(self, rng):
        # replaying the plan through the timing model reproduces the cost
        for seed in range(10):
            trace = generate_trace(GenParams(cells=8, variables=5), seed)
            session, _ = run_trace(trace)
            cost = session_cost_model(session)
            history = session.history
            active = sorted(history.active_snapshots())
            if not active:
                continue
            migrate = set(rng.sample(active, k=rng.randint(0, len(active))))
            total = cost.total_cost(history, migrate)
            # independent evaluation: walk the plan pieces separately
            per_var = sum(
                cost.profile.alpha * cost.store_seconds(n) + cost.load_seconds(n)
                for n in migrate
            )
            targets = {history.active_snapshots()[n] for n in set(active) - migrate}
            rerun_cells = history.rerun_cells_from(
                targets, {history.active_snapshots()[n] for n in migrate}
            )
            per_cell = sum(cost.rerun_seconds(c) for c in rerun_cells)
            if math.isinf(total):
                assert math.isinf(per_var + per_cell)
            else:
                assert total == pytest.approx(per_var + per_cell, abs=1e-9)


class TestLinkedPairs:
    def test_worked_example_pair(self):
        session, _ = run_trace(worked_example_trace())
        active = session.history.active_snapshots()
        assert linked_pairs(session.heap, active) == {("big2d", "l1")}

    def test_disjoint_heap(self):
        heap = SimHeap()
        make_object(heap, 1)
        make_object(heap, 2)
        heap.bind("a", 1)
        heap.bind("b", 2)
        assert linked_pairs(heap, {"a", "b"}) == set()

    def test_transitive_chain_lists_each_overlap(self):
        heap = SimHeap()
        make_object(heap, 1, "container")
        make_object(heap, 2, "container")
        make_object(heap, 3, "container")
        make_object(heap, 4, "scalar", value=1)
        make_object(heap, 5, "scalar", value=2)
        heap.apply([
            HeapOp(op="set_slot", parent_id=1, slot="0", child_id=4),
            HeapOp(op="set_slot", parent_id=2, slot="0", child_id=4),
            HeapOp(op="set_slot", parent_id=2, slot="1", child_id=5),
            HeapOp(op="set_slot", parent_id=3, slot="0", child_id=5),
            HeapOp(op="bind", name="a", id=1),
            HeapOp(op="bind", name="b", id=2),
            HeapOp(op="bind", name="c", id=3),
        ])
        assert linked_pairs(heap, {"a", "b", "c"}) == {("a", "b"), ("b", "c")}

    def test_matches_pairwise_oracle(self, rng, tmp_path):
        sessions = [
            run_trace(generate_trace(GenParams(cells=8, variables=6, alias_density=0.5), seed))[0]
            for seed in range(10)
        ] + [
            # wide-shaped: dozens of live names out of a pool of 200
            run_trace(generate_trace(GenParams(cells=120, variables=200, alias_density=0.5), seed))[0]
            for seed in range(3)
        ] + [run_trace(cycle_shared_by_three())[0]]
        for session in sessions:
            heap = session.heap
            names = sorted(heap.namespace)
            expected = pairwise_oracle(heap.objects, heap.namespace)
            assert linked_pairs(heap, names) == expected
            # the checkpoint's groups: components of the same oracle over its payload
            storable = {n for n in names if all(heap.objects[o].serializable for o in heap.reachable(n))}
            path = tmp_path / "oracle.ckpt"
            write_checkpoint(session, ReplicationPlan(migrate=storable, rerun=[], cost_s=0.0), path)
            checkpoint = read_checkpoint(path)
            assert checkpoint.payload_groups == components(
                storable, pairwise_oracle(checkpoint.objects, checkpoint.variables))
        # the hand-built session came last; the wide-shaped ones link many names
        assert expected == {("a", "b"), ("a", "c"), ("b", "c")}
        assert sum(len(linked_pairs(s.heap, s.heap.namespace)) for s in sessions[10:13]) > 50


class TestCostProperties:
    def test_optimal_cost_non_increasing_as_alpha_falls(self):
        session, _ = run_trace(worked_example_trace())
        previous = INF
        for alpha in (1.0, 0.5, 0.1, 0.05, 0.0):
            cost = session_cost_model(session, alpha=alpha)
            best = min(
                cost.total_cost(session.history, set(subset))
                for subset in _all_subsets(sorted(session.history.active_snapshots()))
            )
            assert best <= previous + 1e-12
            previous = best

    def test_cost_is_homogeneous_under_joint_scaling(self):
        # scaling sizes, runtimes, and latency by the same factor scales every
        # plan's cost by that factor, so the argmin set is unchanged
        base_trace = worked_example_trace()
        session, _ = run_trace(base_trace)
        cost = session_cost_model(session, latency=0.5)
        names = sorted(session.history.active_snapshots())
        k = 3.0
        scaled = CostModel(CostProfile(
            bandwidth_bytes_per_s=cost.profile.bandwidth_bytes_per_s,
            latency_s=cost.profile.latency_s * k,
            alpha=cost.profile.alpha,
        ))
        scaled.var_sizes = {n: s * k for n, s in cost.var_sizes.items()}
        scaled.var_serializable = dict(cost.var_serializable)
        scaled.cell_runtimes = {t: r * k for t, r in cost.cell_runtimes.items()}
        for subset in _all_subsets(names):
            base = cost.total_cost(session.history, set(subset))
            assert scaled.total_cost(session.history, set(subset)) == pytest.approx(k * base)
        base_plan = brute_force_plan(session.history, cost)
        scaled_plan = brute_force_plan(session.history, scaled)
        assert base_plan.migrate == scaled_plan.migrate


def _all_subsets(names):
    from itertools import chain, combinations

    return chain.from_iterable(combinations(names, r) for r in range(len(names) + 1))
