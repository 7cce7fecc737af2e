"""Write a checkpoint, restore it onto a fresh heap, and verify the result.

The session holds an aliased pair (a list and a table nesting that same list
object) plus a figure that serializes fine but fails to load back. The
checkpoint stores each shared object once, so the alias survives the round
trip; the undeserializable figure is recovered mid-restore by rerunning just
its producing cell. Verification checks both value equivalence and reference
isomorphism against the original heap.

Every object keeps its recorded id across the restore, the recomputed figure
included, so the restored session runs one more cell that names the figure
by that id and migrates a second time; the second restore verifies against
the original session continued with the same cell.
"""

import tempfile
from pathlib import Path

from statecut import (
    CellProgram,
    CostProfile,
    HeapOp,
    TraceFile,
    plan_session,
    read_checkpoint,
    restore,
    run_cell,
    run_trace,
    verify,
    write_checkpoint,
)

trace = TraceFile(
    profile=CostProfile(bandwidth_bytes_per_s=1e5),
    cells=[
        CellProgram(code_ref="make_rows", ops=[
            HeapOp(op="create", id=1, kind="container", size_bytes=48),
            HeapOp(op="create", id=2, kind="scalar", value=3, size_bytes=8),
            HeapOp(op="create", id=3, kind="scalar", value=4, size_bytes=8),
            HeapOp(op="set_slot", parent_id=1, slot="0", child_id=2),
            HeapOp(op="set_slot", parent_id=1, slot="1", child_id=3),
            HeapOp(op="bind", name="rows", id=1),
        ], declared_runtime_s=6.0),
        CellProgram(code_ref="nest", direct_reads={"rows"}, ops=[
            HeapOp(op="create", id=4, kind="container", size_bytes=48),
            HeapOp(op="set_slot", parent_id=4, slot="0", child_id=1),
            HeapOp(op="bind", name="table", id=4),
        ], declared_runtime_s=5.0),
        CellProgram(code_ref="plot", direct_reads={"rows"}, ops=[
            HeapOp(op="create", id=5, kind="opaque", size_bytes=200,
                   serializable=True, deserializable=False),
            HeapOp(op="bind", name="figure", id=5),
        ], declared_runtime_s=0.5),
    ],
)

session, _ = run_trace(trace)
plan = plan_session(session)
print(f"plan: migrate {sorted(plan.migrate)}, rerun cells {plan.rerun}, "
      f"estimated {plan.cost_s:.2f} s")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "session.ckpt"
    write_checkpoint(session, plan, path)
    print(f"checkpoint written: {path.stat().st_size} bytes")

    checkpoint = read_checkpoint(path)
    result = restore(checkpoint, trace.programs())

restored = result.session.heap
print("\nrestored namespace:", sorted(restored.namespace))
if result.fallback_recomputed:
    print("fallback recomputation kicked in for:", result.fallback_recomputed)
    print("   (the figure refused to deserialize, so its producing cell reran)")

rows_root = restored.namespace["rows"]
table_slot = restored.objects[restored.namespace["table"]].slots["0"]
print(f"\nalias preserved: table[0] is rows -> {table_slot == rows_root}")
print(f"recomputed figure kept its recorded id 5 -> {restored.namespace['figure'] == 5}")

report = verify(session.heap, restored)
print(f"value-equivalent: {report.value_equivalent}")
print(f"isomorphic:       {report.isomorphic}")

# the second hop: a cell files the figure (object 5) and the rows (object 1)
# in a report, naming them by the ids the trace recorded; both sessions run
# it, then the restored one migrates again
caption = CellProgram(code_ref="caption", direct_reads={"figure", "rows"}, ops=[
    HeapOp(op="create", id=6, kind="container", size_bytes=48),
    HeapOp(op="set_slot", parent_id=6, slot="figure", child_id=5),
    HeapOp(op="set_slot", parent_id=6, slot="rows", child_id=1),
    HeapOp(op="bind", name="report", id=6),
], declared_runtime_s=0.2)
run_cell(session, caption)
run_cell(result.session, caption)
plan = plan_session(result.session)
print(f"\nsecond hop: migrate {sorted(plan.migrate)}, rerun cells {plan.rerun}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "again.ckpt"
    write_checkpoint(result.session, plan, path)
    second = restore(read_checkpoint(path), {**trace.programs(), "caption": caption})

if second.fallback_recomputed:
    print("fallback recomputation kicked in for:", second.fallback_recomputed)
report = verify(session.heap, second.session.heap)
print(f"value-equivalent: {report.value_equivalent}")
print(f"isomorphic:       {report.isomorphic}")
