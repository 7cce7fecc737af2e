import math
import random
import sys
from dataclasses import replace

import networkx as nx
import pytest

from statecut import planner
from statecut.cost import CostProfile, linked_groups, linked_pairs
from statecut.errors import Infeasible, TooLarge
from statecut.gen import GenParams, generate_trace
from statecut.heap import HeapOp
from statecut.history import CellRecord, HistoryGraph
from statecut.monitor import CellProgram, current_index
from statecut.planner import (
    SINK,
    SRC,
    baseline_plans,
    brute_force_plan,
    build_flow_graph,
    min_cut_plan,
    plan_session,
    session_cost_model,
)
from statecut.replicator import read_checkpoint, write_checkpoint
from statecut.trace import TraceFile, run_trace

from sessions import alpha_flip_trace, fast_migrate_trace, live_closure, rewrite_chain_trace, worked_example_trace

INF = math.inf


def rerun_price(cell):
    """A cell's rerun price by the rule stated apart from the code."""
    return INF if cell.never_rerun or cell.nondeterministic else cell.runtime_s


def planner_inputs(trace, **kwargs):
    session, _ = run_trace(trace)
    cost = session_cost_model(session, **kwargs)
    active = session.history.active_snapshots()
    linked = linked_pairs(current_index(session), active)
    return session, cost, linked


class TestFlowGraphConstruction:
    def test_worked_example_structure(self):
        session, cost, linked = planner_inputs(worked_example_trace())
        fg = build_flow_graph(session.history, cost, linked)
        active = session.history.active_snapshots()
        assert set(fg.vs_nodes) == {"x", "y", "z", "l1", "gen", "big2d"}
        assert set(fg.ce_nodes) == {1, 2, 3, 4, 5}
        # one source arc per active snapshot, capacity = its migration cost
        for name, node in fg.vs_nodes.items():
            assert fg.arcs[SRC][node] == pytest.approx(cost.migration_seconds(name))
        # one sink arc per cell, capacity = its rerun cost
        for t, node in fg.ce_nodes.items():
            assert fg.arcs[node][SINK] == pytest.approx(
                rerun_price(session.history.cells[t])
            )
        # linked pair joined both ways with infinite capacity
        a, b = fg.vs_nodes["l1"], fg.vs_nodes["big2d"]
        assert fg.arcs[a][b] == INF and fg.arcs[b][a] == INF

    def test_snapshot_to_cell_arcs_match_rerun_lists(self):
        # the cells an active variable's node reaches along infinite
        # snapshot->cell and cell->cell arcs are exactly its rebuild
        traces = [worked_example_trace()] + [
            generate_trace(GenParams(cells=30, variables=8, alias_density=0.4), seed)
            for seed in range(50)
        ]
        for trace in traces:
            session, cost, linked = planner_inputs(trace)
            fg = build_flow_graph(session.history, cost, linked)
            active = session.history.active_snapshots()
            cell_nodes = set(fg.ce_nodes.values())
            for name, vs in active.items():
                expected = {
                    c.t
                    for c in session.history.rerun_cells_from({vs}, set(active.values()) - {vs})
                }
                stack = [fg.vs_nodes[name]]
                seen: set[int] = set()
                while stack:
                    u = stack.pop()
                    for v, cap in fg.arcs[u].items():
                        if cap == INF and v in cell_nodes and v not in seen:
                            seen.add(v)
                            stack.append(v)
                assert {t for t, node in fg.ce_nodes.items() if node in seen} == expected

    def test_nodes_only_for_live_cells(self):
        # a cell outside the backward closure of the active snapshots can
        # never be rerun; the lineage drops it, so it gets no node and no
        # sink arc
        for seed in range(10):
            trace = generate_trace(GenParams(cells=40, variables=4, delete_rate=0.1), seed)
            session, cost, linked = planner_inputs(trace)
            fg = build_flow_graph(session.history, cost, linked)
            _, records = run_trace(trace)
            live = live_closure(records)
            assert len(live) < len(records)
            assert list(fg.ce_nodes) == live
            assert len(fg.node_labels) == 2 + len(fg.vs_nodes) + len(live)

    def test_empty_session(self):
        graph = HistoryGraph()
        from statecut.cost import CostModel, CostProfile

        fg = build_flow_graph(graph, CostModel(CostProfile(bandwidth_bytes_per_s=1.0)))
        plan = min_cut_plan(fg)
        assert plan.migrate == set() and plan.rerun == [] and plan.cost_s.hex() == (0.0).hex()

    def test_random_instances_audit(self, rng):
        for seed in range(10):
            trace = generate_trace(GenParams(cells=8, variables=5, alias_density=0.4), seed)
            session, cost, linked = planner_inputs(trace)
            fg = build_flow_graph(session.history, cost, linked)
            active = session.history.active_snapshots()
            src_arcs = {n for n, c in fg.arcs[SRC].items() if c > 0 or n in fg.vs_nodes.values()}
            assert src_arcs >= set(fg.vs_nodes.values())
            for t, node in fg.ce_nodes.items():
                assert SINK in fg.arcs[node]


class TestMinCutOptimality:
    def test_matches_brute_force_on_random_instances(self):
        checked = 0
        for seed in range(100):
            trace = generate_trace(GenParams(
                cells=8, variables=6, alias_density=0.4,
                unserializable_rate=0.15, never_rerun_rate=0.05,
            ), seed)
            session, cost, linked = planner_inputs(trace)
            fg = build_flow_graph(session.history, cost, linked)
            try:
                fast = min_cut_plan(fg)
            except Infeasible:
                with pytest.raises(Infeasible):
                    brute_force_plan(session.history, cost, linked)
                continue
            slow = brute_force_plan(session.history, cost, linked)
            assert fast.cost_s == pytest.approx(slow.cost_s, abs=1e-9)
            for a, b in linked:
                assert (a in fast.migrate) == (b in fast.migrate)
            checked += 1
        assert checked >= 50

    def test_zero_storage_cost_migrates_everything_serializable(self):
        session, cost, linked = planner_inputs(
            worked_example_trace(), bandwidth=1e18,
        )
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        assert plan.migrate == set(session.history.active_snapshots())
        assert plan.cost_s == pytest.approx(0.0, abs=1e-9)

    def test_flow_equals_cut_self_check_runs(self):
        session, cost, linked = planner_inputs(worked_example_trace())
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        assert plan.cost_s == pytest.approx(8.0)


class TestWorkedExamplePartition:
    def test_golden_partition(self):
        # derived weights make the documented split optimal: store the linked
        # list pair and the opaque, rerun the first three cells
        session, cost, linked = planner_inputs(worked_example_trace())
        assert linked == [("big2d", "l1")]
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        assert plan.migrate == {"l1", "big2d", "gen"}
        assert plan.rerun == [1, 2, 3]
        assert plan.cost_s == pytest.approx(8.0)
        # rerunning t3 also rebuilds l1; the stored copy must win
        assert session.history.active_snapshots()["l1"].t in plan.rerun
        oracle = brute_force_plan(session.history, cost, linked)
        assert oracle.cost_s == pytest.approx(plan.cost_s)
        assert oracle.migrate == plan.migrate


class TestBruteForce:
    def test_single_variable_migrate_when_cheaper(self):
        graph = HistoryGraph()
        graph.record(CellRecord(t=1, code_ref="c1", runtime_s=10.0, written={"x"}))
        from statecut.cost import CostModel, CostProfile

        cost = CostModel(CostProfile(bandwidth_bytes_per_s=1.0))
        cost.var_sizes["x"] = 2
        cost.var_serializable["x"] = True
        plan = brute_force_plan(graph, cost)
        assert plan.migrate == {"x"} and plan.cost_s == pytest.approx(4.0)

    def test_single_variable_recompute_when_cheaper(self):
        graph = HistoryGraph()
        graph.record(CellRecord(t=1, code_ref="c1", runtime_s=1.0, written={"x"}))
        from statecut.cost import CostModel, CostProfile

        cost = CostModel(CostProfile(bandwidth_bytes_per_s=1.0))
        cost.var_sizes["x"] = 100
        cost.var_serializable["x"] = True
        plan = brute_force_plan(graph, cost)
        assert plan.migrate == set() and plan.rerun == [1]

    def test_alpha_flip_on_dataframe_scenario(self):
        # store 6.19 s, load 1.17 s, rerun 5.5 s
        session, _ = run_trace(alpha_flip_trace())
        for objective, expected in (("migrate", set()), ("restore", {"df"})):
            # migrate: 7.36 > 5.5, reread it; restore: 1.4795 < 5.5, store it
            assert plan_session(session, objective=objective).migrate == expected
            cost = session_cost_model(session, objective=objective)
            linked = linked_pairs(current_index(session), session.history.active_snapshots())
            oracle = brute_force_plan(session.history, cost, linked)
            assert oracle.migrate == expected, objective

    def test_too_large_guard(self):
        trace = generate_trace(GenParams(cells=40, variables=20, delete_rate=0.0), 1)
        session, cost, linked = planner_inputs(trace)
        if len(session.history.active_snapshots()) <= 16:
            pytest.skip("generator left too few live variables")
        with pytest.raises(TooLarge):
            brute_force_plan(session.history, cost, linked)


def closure_network(history, cost, linked, forced_migrate, forced_recompute):
    """The per-variable closure network: every active snapshot is tied by an
    infinite arc to each cell of its own rebuild. Arcs without a capacity
    are infinite to networkx."""
    active = history.active_snapshots()
    graph = nx.DiGraph()
    graph.add_nodes_from(["src", "sink"])
    for name, vs in active.items():
        migrate = cost.migration_seconds(name)
        if migrate < INF and name not in forced_recompute:
            graph.add_edge("src", ("v", name), capacity=migrate)
        else:
            graph.add_edge("src", ("v", name))
        if name in forced_migrate:
            graph.add_edge(("v", name), "sink")
        for cell in history.rerun_cells_from({vs}, set(active.values()) - {vs}):
            graph.add_edge(("v", name), ("c", cell.t))
    for cell in history.cells.values():
        rerun = rerun_price(cell)
        if rerun < INF:
            graph.add_edge(("c", cell.t), "sink", capacity=rerun)
        else:
            graph.add_edge(("c", cell.t), "sink")
    for a, b in linked:
        graph.add_edge(("v", a), ("v", b))
        graph.add_edge(("v", b), ("v", a))
    return graph


def infeasible_groups(history, cost, linked, forced_migrate, forced_recompute):
    """Group-wise rule: a linked group is infeasible when no member can
    migrate and the group as a whole cannot be recomputed."""
    active = history.active_snapshots()
    bad = []
    for group in linked_groups(active, linked):
        can_migrate = all(
            cost.migration_seconds(n) < INF and n not in forced_recompute for n in group
        )
        targets = {active[n] for n in group}
        cells = history.rerun_cells_from(targets, set(active.values()) - targets)
        can_recompute = (
            all(rerun_price(c) < INF for c in cells) and not group & forced_migrate
        )
        if not can_migrate and not can_recompute:
            bad.extend(group)
    return sorted(bad)


class TestAboveBruteForceBound:
    def test_matches_closure_network_min_cut(self):
        feasible = infeasible = 0
        for seed in range(60):
            trace = generate_trace(GenParams(
                cells=60, variables=40, alias_density=0.3, unserializable_rate=0.1,
                never_rerun_rate=0.08 if seed % 2 else 0.0, delete_rate=0.02,
            ), seed)
            session, cost, linked = planner_inputs(trace)
            names = sorted(session.history.active_snapshots())
            assert 20 <= len(names) <= 60
            rng = random.Random(seed)
            forced_migrate = set(rng.sample(names, 2)) if seed % 3 == 0 else set()
            forced_recompute = set(rng.sample(names, 2)) if seed % 5 == 0 else set()
            forced_recompute -= forced_migrate
            args = (session.history, cost, linked, forced_migrate, forced_recompute)
            oracle = closure_network(*args)
            try:
                plan = min_cut_plan(build_flow_graph(*args))
            except Infeasible as err:
                with pytest.raises(nx.NetworkXUnbounded):
                    nx.minimum_cut_value(oracle, "src", "sink")
                assert err.variables == infeasible_groups(*args)
                infeasible += 1
                continue
            assert infeasible_groups(*args) == []
            assert plan.cost_s == pytest.approx(
                nx.minimum_cut_value(oracle, "src", "sink"), rel=1e-9, abs=1e-9
            )
            feasible += 1
        assert feasible >= 40 and infeasible >= 5

    def test_matches_closure_network_on_rerun_heavy_shape(self):
        # the recompute benchmark's shape, shortened: a slow channel and a
        # restore-centric alpha make a rerun-heavy plan: the lineage pass
        # carries over 95% of its flow, and Dinic ends in one or two phases
        for seed in range(3):
            trace = generate_trace(GenParams(
                cells=120, variables=60, alias_density=0.8, unserializable_rate=0.05,
                delete_rate=0.02, bandwidth_bytes_per_s=1e4, alpha=0.05,
            ), seed)
            session, cost, linked = planner_inputs(trace)
            args = (session.history, cost, linked, set(), set())
            plan = min_cut_plan(build_flow_graph(*args))
            assert len(plan.rerun) > len(plan.migrate)
            assert plan.cost_s == pytest.approx(
                nx.minimum_cut_value(closure_network(*args), "src", "sink"), rel=1e-9, abs=1e-9
            )


class TestDeepNetwork:
    def test_chain_deeper_than_recursion_limit(self):
        # 3000 cells each rebinding x from the one before: every cell is
        # live and the network is a 3000-arc path from x to the first cell
        depth = 3000
        session, _ = run_trace(rewrite_chain_trace(depth))
        assert depth > sys.getrecursionlimit()
        assert len(session.history.cells) == depth
        rerun_all = 0.5 * depth
        for bandwidth, migrates in ((1.0, False), (1e9, True)):
            plan = plan_session(session, bandwidth=bandwidth)
            migrate_s = session_cost_model(session, bandwidth=bandwidth).migration_seconds("x")
            assert (migrate_s < rerun_all) == migrates
            assert plan.cost_s == min(migrate_s, rerun_all)
            assert plan.migrate == ({"x"} if migrates else set())
            assert plan.rerun == ([] if migrates else list(range(1, depth + 1)))

    @pytest.mark.parametrize("side_bytes", [None, 0, 10])
    def test_rewrite_chains_plan_in_one_pass(self, side_bytes, monkeypatch):
        # Dinic alone levels the network once per cell of a rewrite chain;
        # after the pass along the lineage, at most one phase and the final
        # search are left. The 1500-step side-reader chains are checked
        # against the closure network at 200 steps, where it still fits:
        # each y<i> there has an arc to every cell before it.
        levels = []
        count = planner._levels
        monkeypatch.setattr(planner, "_levels", lambda *args: levels.append(1) or count(*args))
        depth = 3000 if side_bytes is None else 1500
        for steps in (depth, 200):
            session, _ = run_trace(rewrite_chain_trace(steps, side_bytes))
            linked = linked_pairs(current_index(session), session.history.active_snapshots())
            for bandwidth in (1.0, 1e9):
                cost = session_cost_model(session, bandwidth=bandwidth)
                args = (session.history, cost, linked, set(), set())
                levels.clear()
                plan = min_cut_plan(build_flow_graph(*args))
                assert len(levels) <= 2, (steps, side_bytes, bandwidth)
                if steps == depth and side_bytes is not None:
                    continue
                assert plan.cost_s == pytest.approx(
                    nx.minimum_cut_value(closure_network(*args), "src", "sink"), rel=1e-9, abs=1e-12
                ), (steps, side_bytes, bandwidth)

    @pytest.mark.parametrize("side_bytes", [None, 0, 10])
    def test_rewrite_chains_push_in_linear_work(self, side_bytes, monkeypatch):
        # a push that wrote every arc of its path would make about 4.5
        # million capacity writes on the 3000-cell chain
        writes = []

        class CountedCapacities(list):
            def __setitem__(self, e, c):
                writes.append(e)
                super().__setitem__(e, c)

        arrays = planner._arc_arrays

        def counted_arrays(arcs, n):
            out, to, cap = arrays(arcs, n)
            return out, to, CountedCapacities(cap)

        monkeypatch.setattr(planner, "_arc_arrays", counted_arrays)
        session, _ = run_trace(rewrite_chain_trace(3000 if side_bytes is None else 1500, side_bytes))
        linked = linked_pairs(current_index(session), session.history.active_snapshots())
        for bandwidth in (1.0, 1e9):
            fg = build_flow_graph(session.history, session_cost_model(session, bandwidth=bandwidth), linked)
            size = len(fg.node_labels) + sum(map(len, fg.arcs.values())) // 2
            writes.clear()
            min_cut_plan(fg)
            assert len(writes) <= 4 * size, (side_bytes, bandwidth, len(writes), size)


class TestBaselines:
    def test_unserializable_breaks_copy_all_not_min_cut(self):
        trace = generate_trace(GenParams(
            cells=10, variables=6, unserializable_rate=0.9, never_rerun_rate=0.0,
        ), 11)
        session, cost, linked = planner_inputs(trace)
        if all(cost.var_serializable.values()):
            pytest.skip("no unserializable variable generated")
        plans = baseline_plans(session.history, cost)
        assert plans["copy_all"].cost_s == INF
        mixed = min_cut_plan(build_flow_graph(session.history, cost, linked))
        assert mixed.cost_s < INF

    def test_min_cut_never_beaten_by_baselines(self):
        for seed in range(30):
            trace = generate_trace(GenParams(cells=8, variables=5, alias_density=0.3), seed)
            session, cost, linked = planner_inputs(trace)
            plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
            plans = baseline_plans(session.history, cost)
            assert plan.cost_s <= plans["copy_all"].cost_s + 1e-9
            assert plan.cost_s <= plans["rerun_all"].cost_s + 1e-9

    def test_fast_migrate_scenario_beats_both_baselines_strictly(self):
        session, cost, linked = planner_inputs(fast_migrate_trace())
        plans = baseline_plans(session.history, cost)
        assert plans["rerun_all"].cost_s == pytest.approx(33.0)
        assert plans["copy_all"].cost_s == pytest.approx(20.6)
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        assert plan.migrate == {"model", "plot"}
        assert plan.cost_s == pytest.approx(3.6)
        assert plan.cost_s < min(plans["copy_all"].cost_s, plans["rerun_all"].cost_s)

    def test_empty_session_costs_are_floats(self, tmp_path):
        # a cost sums from 0.0, so a session without cells still prices in
        # floats, which float.hex and the JSON documents keep as such
        session, _ = run_trace(TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=[]))
        plans = baseline_plans(session.history, session_cost_model(session))
        assert [plans[name].cost_s.hex() for name in ("copy_all", "rerun_all")] == [(0.0).hex()] * 2
        path = tmp_path / "empty.ckpt"
        write_checkpoint(session, plan_session(session), path)
        assert read_checkpoint(path).history.recorded_rerun_s.hex() == (0.0).hex()


class TestForcedSides:
    def test_forced_migrate_overrides_economics(self):
        session, cost, linked = planner_inputs(alpha_flip_trace())
        fg = build_flow_graph(session.history, cost, linked, forced_migrate={"df"})
        plan = min_cut_plan(fg)
        assert "df" in plan.migrate
        oracle = brute_force_plan(session.history, cost, linked, forced_migrate={"df"})
        assert oracle.cost_s == pytest.approx(plan.cost_s)

    def test_forced_recompute_overrides_economics(self):
        session, cost, linked = planner_inputs(
            alpha_flip_trace(), objective="restore",
        )
        fg = build_flow_graph(session.history, cost, linked, forced_recompute={"df"})
        plan = min_cut_plan(fg)
        assert "df" not in plan.migrate
        assert plan.rerun == [1]

    def test_annotations_flow_through_plan_session(self):
        trace = alpha_flip_trace()
        trace.variable_annotations["df"] = "always_copy"
        session, _ = run_trace(trace)
        plan = plan_session(session, objective="migrate")
        assert plan.migrate == {"df"}


class TestUnreproducibleCells:
    def test_nondeterministic_output_migrates_however_large(self):
        # 2000 s to store and load the 10^9 bytes against a 60 s rerun, but a
        # rerun would not reproduce the value
        trace = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e6), cells=[
            CellProgram(code_ref="sample", declared_runtime_s=60.0, nondeterministic=True, ops=[
                HeapOp(op="create", id=1, kind="scalar", value=7, size_bytes=10**9),
                HeapOp(op="bind", name="draw", id=1),
            ]),
        ])
        session, _ = run_trace(trace)
        plan = plan_session(session)
        assert (plan.migrate, plan.rerun, plan.cost_s) == ({"draw"}, [], 2000.0)


class TestInfeasibility:
    def test_unserializable_with_never_rerun_producer(self):
        cells = [
            CellProgram(
                code_ref="c1",
                ops=[
                    HeapOp(op="create", id=1, kind="opaque", size_bytes=100,
                           serializable=False, deserializable=False),
                    HeapOp(op="bind", name="sock", id=1),
                ],
                never_rerun=True,
            ),
        ]
        from statecut.cost import CostProfile
        from statecut.trace import TraceFile

        session, _ = run_trace(TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells))
        with pytest.raises(Infeasible) as exc:
            plan_session(session)
        assert exc.value.variables == ["sock"]

    def test_all_infinite_paths_are_found_by_the_lineage_pass(self, monkeypatch):
        # an always_recompute variable whose rebuild reaches a never-rerun
        # cell through a snapshot no longer active, and a variable both
        # forced to migrate and unserializable: each path climbs from source
        # to sink, so the pass raises before Dinic levels the network, and
        # only the naming rule's two searches run
        def scalar(name, i, **flags):
            return [HeapOp(op="create", id=i, kind="scalar", value=i, size_bytes=10, **flags),
                    HeapOp(op="bind", name=name, id=i)]

        blocked_rebuild = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=[
            CellProgram(code_ref="load", ops=scalar("a", 1), never_rerun=True),
            CellProgram(code_ref="derive", direct_reads={"a"}, ops=scalar("z", 2)),
            CellProgram(code_ref="reload", ops=scalar("a", 3)),
        ], variable_annotations={"z": "always_recompute"})
        pinned_socket = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=[
            CellProgram(code_ref="open", ops=scalar("s", 1, serializable=False, deserializable=False)),
            CellProgram(code_ref="other", ops=scalar("b", 2)),
        ], variable_annotations={"s": "always_copy"})
        levels = []
        count = planner._levels
        monkeypatch.setattr(planner, "_levels", lambda *args: levels.append(1) or count(*args))
        for trace, stuck in ((blocked_rebuild, ["z"]), (pinned_socket, ["s"])):
            session, cost, linked = planner_inputs(trace)
            annotations = trace.variable_annotations
            forced_migrate = {n for n, a in annotations.items() if a == "always_copy"}
            forced_recompute = {n for n, a in annotations.items() if a == "always_recompute"}
            args = (session.history, cost, linked, forced_migrate, forced_recompute)
            assert infeasible_groups(*args) == stuck
            levels.clear()
            with pytest.raises(Infeasible) as exc:
                min_cut_plan(build_flow_graph(*args))
            assert exc.value.variables == stuck
            assert len(levels) == 2
            with pytest.raises(Infeasible) as exc:
                plan_session(session)
            assert exc.value.variables == stuck

    def test_feasible_when_ground_cuts_the_blocked_path(self):
        # the never-rerun loader's output is serializable, so storing it
        # unblocks everything downstream
        cells = [
            CellProgram(
                code_ref="load",
                ops=[
                    HeapOp(op="create", id=1, kind="opaque", size_bytes=100),
                    HeapOp(op="bind", name="data", id=1),
                ],
                never_rerun=True,
            ),
            CellProgram(
                code_ref="derive",
                direct_reads={"data"},
                ops=[
                    HeapOp(op="create", id=2, kind="opaque", size_bytes=50,
                           serializable=False, deserializable=False),
                    HeapOp(op="bind", name="handle", id=2),
                ],
            ),
        ]
        from statecut.cost import CostProfile
        from statecut.trace import TraceFile

        session, _ = run_trace(TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells))
        plan = plan_session(session)
        assert plan.migrate == {"data"}
        assert plan.rerun == [2]


class TestBandwidthResponse:
    def test_cost_non_decreasing_as_bandwidth_falls(self):
        bandwidths = [1e9, 1e6, 1e3, 1.0, 0.01]
        previous = -1.0
        for bw in bandwidths:
            session, cost, linked = planner_inputs(worked_example_trace(), bandwidth=bw)
            plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
            oracle = brute_force_plan(session.history, cost, linked)
            assert plan.cost_s == pytest.approx(oracle.cost_s, abs=1e-9)
            assert plan.cost_s >= previous - 1e-12
            previous = plan.cost_s

    def test_migrate_set_shrinks_with_bandwidth(self):
        sizes = []
        for bw in (1e3, 2.0, 0.01):
            session, cost, linked = planner_inputs(worked_example_trace(), bandwidth=bw)
            plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
            sizes.append(len(plan.migrate))
        assert sizes == [6, 3, 0]


class TestDeterminism:
    def test_same_plan_across_runs(self):
        plans = []
        for _ in range(5):
            session, cost, linked = planner_inputs(worked_example_trace())
            plans.append(min_cut_plan(build_flow_graph(session.history, cost, linked)))
        assert all(p.migrate == plans[0].migrate for p in plans)
        assert all(p.rerun == plans[0].rerun for p in plans)

    def test_arc_order_does_not_change_plan(self):
        # the plan is the final residual search's source side, which every
        # maximum flow shares, so the order the solver meets the arcs in
        # moves neither the partition nor the fixed-order cut sum
        shapes = [
            dict(cells=200, variables=300, alias_density=0.3, unserializable_rate=0.05,
                 undeserializable_rate=0.25, delete_rate=0.02, bandwidth_bytes_per_s=1e8),
            dict(cells=150, variables=60, alias_density=0.8, unserializable_rate=0.05,
                 delete_rate=0.02, bandwidth_bytes_per_s=1e4, alpha=0.05),
        ]
        mixed = 0
        for shape in shapes:
            for seed in range(4):
                session, cost, linked = planner_inputs(generate_trace(GenParams(**shape), seed))
                fg = build_flow_graph(session.history, cost, linked)
                plan = min_cut_plan(fg)
                mixed += bool(plan.migrate and plan.rerun)
                rng = random.Random(seed)
                for _ in range(3):
                    order = list(fg.arcs)
                    rng.shuffle(order)
                    arcs = {}
                    for u in order:
                        targets = list(fg.arcs[u].items())
                        rng.shuffle(targets)
                        arcs[u] = dict(targets)
                    shuffled = min_cut_plan(replace(fg, arcs=arcs))
                    assert shuffled.migrate == plan.migrate
                    assert shuffled.rerun == plan.rerun
                    assert shuffled.cost_s.hex() == plan.cost_s.hex()
        assert mixed >= 6

    def test_plan_json_round_trip(self):
        from statecut.planner import ReplicationPlan

        session, cost, linked = planner_inputs(worked_example_trace())
        plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
        clone = ReplicationPlan.from_json(plan.to_json())
        assert clone.migrate == plan.migrate
        assert clone.rerun == plan.rerun
        assert clone.cost_s == plan.cost_s
