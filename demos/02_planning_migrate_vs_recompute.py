"""Price copying against recomputation and solve for the cheapest plan.

A load / split / fit / evaluate session: the raw data and its splits are big
but cheap to rebuild, while the fitted model and the plot are small but took
a long 28-second cell to produce. Rerunning everything costs 33 s, copying
everything 20.6 s; the solver finds the 3.6 s mixed plan (store the two small
results, rerun the two cheap cells). A brute-force sweep over every
constraint-respecting subset confirms optimality, and dropping alpha shows
the plan flipping for a restore-centric objective.
"""

from statecut import (
    CellProgram,
    CostProfile,
    HeapOp,
    TraceFile,
    baseline_plans,
    brute_force_plan,
    build_flow_graph,
    linked_pairs,
    min_cut_plan,
    run_trace,
)
from statecut.monitor import current_index
from statecut.planner import session_cost_model

MB = 10**6

trace = TraceFile(
    profile=CostProfile(bandwidth_bytes_per_s=20 * MB, alpha=1.0),
    cells=[
        CellProgram(code_ref="load", ops=[
            HeapOp(op="create", id=1, kind="opaque", size_bytes=80 * MB),
            HeapOp(op="bind", name="data", id=1),
        ], declared_runtime_s=2.0),
        CellProgram(code_ref="split", direct_reads={"data"}, ops=[
            HeapOp(op="create", id=2, kind="opaque", size_bytes=60 * MB),
            HeapOp(op="bind", name="train", id=2),
            HeapOp(op="create", id=3, kind="opaque", size_bytes=60 * MB),
            HeapOp(op="bind", name="test", id=3),
        ], declared_runtime_s=1.0),
        CellProgram(code_ref="fit", direct_reads={"train"}, ops=[
            HeapOp(op="create", id=4, kind="opaque", size_bytes=3 * MB),
            HeapOp(op="bind", name="model", id=4),
        ], declared_runtime_s=28.0),
        CellProgram(code_ref="evaluate", direct_reads={"model", "test"}, ops=[
            HeapOp(op="create", id=5, kind="opaque", size_bytes=3 * MB),
            HeapOp(op="bind", name="plot", id=5),
        ], declared_runtime_s=2.0),
    ],
)

session, _ = run_trace(trace)
cost = session_cost_model(session)
active = session.history.active_snapshots()
linked = linked_pairs(current_index(session), active)

print("per-variable economics (seconds):")
for name in sorted(active):
    cells = session.history.rerun_cells_from({active[name]}, set(active.values()) - {active[name]})
    rerun = sum(c.rerun_s for c in cells)
    print(f"   {name:<6} migrate={cost.migration_seconds(name):7.2f}"
          f"   rerun-chain={rerun:7.2f}  ({', '.join(c.code_ref for c in cells)})")

plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
bases = baseline_plans(session.history, cost)
print(f"\nrerun-all : {bases['rerun_all'].cost_s:6.1f} s")
print(f"copy-all  : {bases['copy_all'].cost_s:6.1f} s")
print(f"mixed plan: {plan.cost_s:6.1f} s  -> migrate {sorted(plan.migrate)}, "
      f"rerun cells {plan.rerun}")

oracle = brute_force_plan(session.history, cost, linked)
print(f"brute force over {2 ** len(active)} subsets agrees: "
      f"{abs(oracle.cost_s - plan.cost_s) <= 1e-9} (cost {oracle.cost_s:.1f} s)")

# --- the objective knob ------------------------------------------------------
# a dataframe that takes 6.19 s to serialize out, 1.17 s to read back, and
# 5.5 s to re-read from its CSV; when alpha discounts the write time (the
# user is away while a session suspends), the decision flips
df_bytes = 1_170_000_000
flip = TraceFile(
    profile=CostProfile(
        bandwidth_bytes_per_s=df_bytes / 1.17,
        store_bandwidth_bytes_per_s=df_bytes / 6.19,
    ),
    cells=[CellProgram(code_ref="read_csv", ops=[
        HeapOp(op="create", id=1, kind="opaque", size_bytes=df_bytes),
        HeapOp(op="bind", name="df", id=1),
    ], declared_runtime_s=5.5)],
)
print("\nthe objective knob, on a single slow-to-serialize dataframe:")
for alpha in (1.0, 0.05):
    flip_session, _ = run_trace(flip)
    cost = session_cost_model(flip_session, alpha=alpha)
    plan = min_cut_plan(build_flow_graph(flip_session.history, cost, set()))
    choice = "store df" if plan.migrate else "re-read df"
    print(f"   alpha={alpha:<5} -> {choice:<11} (plan cost {plan.cost_s:.4f} s)")
print("migration-centric pricing reruns the read (6.19 + 1.17 > 5.5); the")
print("restore-centric objective stores it instead (0.31 + 1.17 < 5.5)")
