"""Watch a simulated session build its lineage graph.

A small interactive-computing session is replayed cell by cell against the
simulated heap. After each cell, the monitor reports which variables were
accessed (declared reads plus alias-inferred ones), created, modified, or
deleted, and the lineage graph grows accordingly. The final part shows the
two detection mechanisms that plain value comparison misses: indirect access
through a shared object, and a reference swap between value-equal objects.
"""

from statecut import CellProgram, CostProfile, HeapOp, new_session, run_cell

session = new_session(CostProfile(bandwidth_bytes_per_s=1e6))

cells = [
    # counter = 1; base = 10
    CellProgram(code_ref="init", ops=[
        HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
        HeapOp(op="bind", name="counter", id=1),
        HeapOp(op="create", id=2, kind="scalar", value=10, size_bytes=8),
        HeapOp(op="bind", name="base", id=2),
    ], declared_runtime_s=0.1),
    # offset = base + 1
    CellProgram(code_ref="derive", direct_reads={"base"}, ops=[
        HeapOp(op="create", id=3, kind="scalar", value=11, size_bytes=8),
        HeapOp(op="bind", name="offset", id=3),
    ], declared_runtime_s=0.4),
    # counter += 1; rows = [3, 4]
    CellProgram(code_ref="bump", direct_reads={"counter"}, ops=[
        HeapOp(op="set_value", id=1, value=2),
        HeapOp(op="create", id=4, kind="container", size_bytes=64),
        HeapOp(op="create", id=5, kind="scalar", value=3, size_bytes=8),
        HeapOp(op="create", id=6, kind="scalar", value=4, size_bytes=8),
        HeapOp(op="set_slot", parent_id=4, slot="0", child_id=5),
        HeapOp(op="set_slot", parent_id=4, slot="1", child_id=6),
        HeapOp(op="bind", name="rows", id=4),
    ], declared_runtime_s=1.2),
    # table = [rows]  -- the rows list object is now shared
    CellProgram(code_ref="nest", direct_reads={"rows"}, ops=[
        HeapOp(op="create", id=7, kind="container", size_bytes=64),
        HeapOp(op="set_slot", parent_id=7, slot="0", child_id=4),
        HeapOp(op="bind", name="table", id=7),
    ], declared_runtime_s=0.3),
]

for cell in cells:
    record = run_cell(session, cell)
    print(f"t={record.t} {cell.code_ref!r}")
    print(f"   accessed: {sorted(vs.name for vs in record.accessed) or '-'}")
    print(f"   created:  {sorted(record.created) or '-'}")
    print(f"   modified: {sorted(record.written) or '-'}")

print("\nactive snapshots:", {
    name: f"t{vs.t}" for name, vs in sorted(session.history.active_snapshots().items())
})

# --- indirect access -------------------------------------------------------
# writing through `rows` must implicate `table`, which shares the list object
record = run_cell(session, CellProgram(
    code_ref="mutate_shared", direct_reads={"rows"},
    ops=[HeapOp(op="set_value", id=5, value=30)],
    declared_runtime_s=0.2,
))
print("\nmutating rows[0] through `rows` alone:")
print("   accessed:", sorted(vs.name for vs in record.accessed))
print("   modified:", sorted(record.written), "(table changed too: alias detected)")

# --- reference swap ---------------------------------------------------------
# replace table[0] with a fresh list holding identical values: every value
# hash stays the same, yet the reference structure changed
record = run_cell(session, CellProgram(
    code_ref="swap", direct_reads={"table"},
    ops=[
        HeapOp(op="create", id=8, kind="container", size_bytes=64),
        HeapOp(op="create", id=9, kind="scalar", value=30, size_bytes=8),
        HeapOp(op="create", id=10, kind="scalar", value=4, size_bytes=8),
        HeapOp(op="set_slot", parent_id=8, slot="0", child_id=9),
        HeapOp(op="set_slot", parent_id=8, slot="1", child_id=10),
        HeapOp(op="set_slot", parent_id=7, slot="0", child_id=8),
    ],
    declared_runtime_s=0.2,
))
print("\nswapping table[0] for a value-equal copy:")
print("   modified:", sorted(record.written), "(values identical, structure not)")
history = session.history
print("\nlineage after", history.recorded_cells, "cells: keeps", len(history.cells), "live cells,",
      sum(len(v) for v in history.writes.values()), "snapshots,",
      sum(len(v) for v in history.reads.values()), "read edges")
