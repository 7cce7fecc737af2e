"""Re-plan one session across storage bandwidths, then probe scalability.

As the channel narrows, migrating bytes gets pricier relative to burning CPU,
so the plan sheds stored variables one by one until it reruns everything.
The second half measures how lineage memory and planning time grow with the
number of cell executions: both should stay small and roughly linear, also
on a rewrite chain (``x = f(x)`` run 3000 times), whose every cell stays live
and where a slow channel makes rerunning the whole chain the cheapest plan.
"""

import time

from statecut import (
    CellProgram,
    CostProfile,
    GenParams,
    HeapOp,
    TraceFile,
    generate_trace,
    linked_pairs,
    plan_session,
    run_trace,
)
from statecut.cli import history_memory_bytes, run_bench
from statecut.monitor import current_index
from statecut.planner import build_flow_graph, min_cut_plan, session_cost_model

trace = generate_trace(
    GenParams(cells=10, variables=6, alias_density=0.3, unserializable_rate=0.0),
    seed=42,
)

print(f"{'bandwidth B/s':>14} {'plan cost s':>12} {'migrate':>8} {'stored bytes':>13}")
for bandwidth in (1e9, 1e7, 1e5, 1e3, 1e1):
    session, _ = run_trace(trace)
    cost = session_cost_model(session, bandwidth=bandwidth)
    linked = linked_pairs(current_index(session), session.history.active_snapshots())
    plan = min_cut_plan(build_flow_graph(session.history, cost, linked))
    stored = sum(cost.var_sizes[name] for name in plan.migrate)
    print(f"{bandwidth:>14.0e} {plan.cost_s:>12.3f} {len(plan.migrate):>8} {stored:>13}")

print("\nscaling with session length:")
print(f"{'cells':>6} {'lineage KiB':>12} {'plan ms':>8}")
for n in (250, 500, 1000, 2000):
    result = run_bench(n, seed=7)
    print(f"{n:>6} {result['ahg_bytes'] / 1024:>12.0f} {result['plan_ms']:>8.1f}")
chain = TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=[
    CellProgram(code_ref=f"c{i}", direct_reads={"x"} if i else set(), declared_runtime_s=0.5, ops=[
        HeapOp(op="create", id=i + 1, kind="scalar", value=i, size_bytes=1000),
        HeapOp(op="bind", name="x", id=i + 1),
    ])
    for i in range(3000)
])
session, _ = run_trace(chain)
start = time.perf_counter()
plan = plan_session(session)
plan_ms = (time.perf_counter() - start) * 1e3
print(f"{len(chain.cells):>6} {history_memory_bytes(session.history) / 1024:>12.0f} {plan_ms:>8.1f}"
      f"   rewrite chain at 1 B/s: reruns {len(plan.rerun)} cells")
print("\nlineage is metadata only: it scales with cells and names, never with")
print("the bytes those variables hold")
