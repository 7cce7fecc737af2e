"""Hand-built traces shared across test modules, the two ablations (a
hash-only monitor and a link-blind planner, built on the oracles), and the
reference for the lineage's pruning."""

from dataclasses import replace

from statecut.cost import CostProfile
from statecut.errors import CellExecutionError, StatecutError
from statecut.heap import HeapOp, SimHeap
from statecut.history import CellRecord, HistoryGraph
from statecut.monitor import (
    CellProgram,
    PreSnapshot,
    Session,
    detect_accesses,
    detect_modifications,
    run_cell,
)
from statecut.planner import (
    ReplicationPlan,
    build_flow_graph,
    min_cut_plan,
    session_cost_model,
)
from statecut.replicator import write_checkpoint
from statecut.trace import TraceFile, new_session

from documents import read_manifest, write_manifest


def worked_example_trace() -> TraceFile:
    """Six variables over five cells, with one aliased pair.

    t1 creates x and y; t2 derives z from y; t3 bumps x and builds the list
    l1; t4 derives the opaque gen from l1; t5 nests l1's list inside big2d.
    Sizes and runtimes are tuned so the cheapest plan stores {l1, big2d, gen}
    and reruns t1..t3 (the store-everything and rerun-everything plans both
    lose). Bandwidth 2 B/s with alpha=1 makes each variable's migration cost
    equal its closure size in bytes.
    """
    cells = [
        CellProgram(
            code_ref="cell_1",
            ops=[
                HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=5),
                HeapOp(op="bind", name="x", id=1),
                HeapOp(op="create", id=2, kind="scalar", value=10, size_bytes=4),
                HeapOp(op="bind", name="y", id=2),
            ],
            declared_runtime_s=2.0,
        ),
        CellProgram(
            code_ref="cell_2",
            direct_reads={"y"},
            ops=[
                HeapOp(op="create", id=3, kind="scalar", value=11, size_bytes=4),
                HeapOp(op="bind", name="z", id=3),
            ],
            declared_runtime_s=1.0,
        ),
        CellProgram(
            code_ref="cell_3",
            direct_reads={"x", "z"},
            ops=[
                HeapOp(op="set_value", id=1, value=2),
                HeapOp(op="create", id=4, kind="container", size_bytes=1),
                HeapOp(op="create", id=5, kind="scalar", value=3, size_bytes=0),
                HeapOp(op="create", id=6, kind="scalar", value=4, size_bytes=0),
                HeapOp(op="set_slot", parent_id=4, slot="0", child_id=5),
                HeapOp(op="set_slot", parent_id=4, slot="1", child_id=6),
                HeapOp(op="bind", name="l1", id=4),
            ],
            declared_runtime_s=2.0,
        ),
        CellProgram(
            code_ref="cell_4",
            direct_reads={"l1"},
            ops=[
                HeapOp(op="create", id=7, kind="opaque", size_bytes=1),
                HeapOp(op="bind", name="gen", id=7),
            ],
            declared_runtime_s=9.0,
        ),
        CellProgram(
            code_ref="cell_5",
            direct_reads={"l1"},
            ops=[
                HeapOp(op="create", id=8, kind="container", size_bytes=0),
                HeapOp(op="set_slot", parent_id=8, slot="0", child_id=4),
                HeapOp(op="bind", name="big2d", id=8),
            ],
            declared_runtime_s=8.0,
        ),
    ]
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=2.0), cells=cells)


def fast_migrate_trace() -> TraceFile:
    """Load / split / fit / evaluate shaped session.

    Rerunning everything costs 33; copying everything costs 20.6; copying just
    the two small results while rerunning the cheap data cells costs 3.6.
    """
    big = 10_000_000
    cells = [
        CellProgram(
            code_ref="load",
            ops=[
                HeapOp(op="create", id=1, kind="opaque", size_bytes=8 * big),
                HeapOp(op="bind", name="data", id=1),
            ],
            declared_runtime_s=2.0,
        ),
        CellProgram(
            code_ref="split",
            direct_reads={"data"},
            ops=[
                HeapOp(op="create", id=2, kind="opaque", size_bytes=6 * big),
                HeapOp(op="bind", name="train", id=2),
                HeapOp(op="create", id=3, kind="opaque", size_bytes=6 * big),
                HeapOp(op="bind", name="test", id=3),
            ],
            declared_runtime_s=1.0,
        ),
        CellProgram(
            code_ref="fit",
            direct_reads={"train"},
            ops=[
                HeapOp(op="create", id=4, kind="opaque", size_bytes=3 * big // 10),
                HeapOp(op="bind", name="model", id=4),
            ],
            declared_runtime_s=28.0,
        ),
        CellProgram(
            code_ref="evaluate",
            direct_reads={"model", "test"},
            ops=[
                HeapOp(op="create", id=5, kind="opaque", size_bytes=3 * big // 10),
                HeapOp(op="bind", name="plot", id=5),
            ],
            declared_runtime_s=2.0,
        ),
    ]
    # alpha=1, zero latency: migrating a variable costs size/1e7 per direction
    return TraceFile(
        profile=CostProfile(bandwidth_bytes_per_s=2e7, alpha=1.0),
        cells=cells,
    )


def alpha_flip_trace() -> TraceFile:
    """One dataframe-shaped variable: store 6.19 s, load 1.17 s, rerun 5.5 s.

    With alpha=1 the plan should reread it (6.19 + 1.17 > 5.5); with
    alpha=0.05 it should store it (0.31 + 1.17 < 5.5).
    """
    size = 1_170_000_000
    return TraceFile(
        profile=CostProfile(
            bandwidth_bytes_per_s=size / 1.17,
            store_bandwidth_bytes_per_s=size / 6.19,
            alpha=1.0,
        ),
        cells=[
            CellProgram(
                code_ref="read_csv",
                ops=[
                    HeapOp(op="create", id=1, kind="opaque", size_bytes=size),
                    HeapOp(op="bind", name="df", id=1),
                ],
                declared_runtime_s=5.5,
            )
        ],
    )


def aliased_pair_trace() -> TraceFile:
    """l1's list nested in big2d, priced so that a plan blind to the link
    migrates big2d and recomputes l1, splitting the alias."""
    return TraceFile(
        profile=CostProfile(bandwidth_bytes_per_s=1.0),
        cells=[
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
        ],
    )


def fan_out_trace(k: int, m: int, *, unhashable: bool = False, stuck: bool = False) -> TraceFile:
    """k views of one m-object structure, so that all k+1 names form one
    linked group: cell "df" binds df to a container with m-1 scalar slots,
    then each cell "view<i>" binds v<i> to a fresh container whose slot
    holds df's root. With ``unhashable``, one scalar of the structure is
    unhashable, so every view cell also modifies every name it reaches; with
    ``stuck``, one is unserializable and the df cell is never rerun, so no
    plan exists. Each object weighs 8 B and each cell takes 1 s."""
    ops = [HeapOp(op="create", id=0, kind="container", size_bytes=8)]
    for i in range(1, m):
        odd = i == 1
        ops += [
            HeapOp(op="create", id=i, kind="scalar", value=i, size_bytes=8, hashable=not (unhashable and odd),
                   serializable=not (stuck and odd), deserializable=not (stuck and odd)),
            HeapOp(op="set_slot", parent_id=0, slot=str(i), child_id=i),
        ]
    ops.append(HeapOp(op="bind", name="df", id=0))
    cells = [CellProgram(code_ref="df", ops=ops, never_rerun=stuck)]
    for i in range(k):
        view = m + i
        cells.append(CellProgram(code_ref=f"view{i}", direct_reads={"df"}, ops=[
            HeapOp(op="create", id=view, kind="container", size_bytes=8),
            HeapOp(op="set_slot", parent_id=view, slot="base", child_id=0),
            HeapOp(op="bind", name=f"v{i}", id=view),
        ]))
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1e6), cells=cells)


def rewrite_chain_trace(depth: int, side_bytes: int | None = None) -> TraceFile:
    """A notebook that rewrites one variable ``depth`` times (``x = f(x)``):
    cell "c0" binds x to a 1000-byte scalar and each cell "c<i>" reads x and
    rebinds it to a fresh one, so every cell stays live and the planning
    network is a ``depth``-cell path. With ``side_bytes``, a cell "r<i>"
    after each "c<i>" reads x and binds y<i> to a scalar of that many bytes.
    Every cell takes 0.5 s, and the channel carries 1 B/s."""
    cells = []
    for i in range(depth):
        cells.append(CellProgram(code_ref=f"c{i}", direct_reads={"x"} if i else set(), declared_runtime_s=0.5, ops=[
            HeapOp(op="create", id=2 * i + 1, kind="scalar", value=i, size_bytes=1000),
            HeapOp(op="bind", name="x", id=2 * i + 1),
        ]))
        if side_bytes is not None:
            cells.append(CellProgram(code_ref=f"r{i}", direct_reads={"x"}, declared_runtime_s=0.5, ops=[
                HeapOp(op="create", id=2 * i + 2, kind="scalar", value=i, size_bytes=side_bytes),
                HeapOp(op="bind", name=f"y{i}", id=2 * i + 2),
            ]))
    return TraceFile(profile=CostProfile(bandwidth_bytes_per_s=1.0), cells=cells)


def reference_swap_trace() -> TraceFile:
    """c2 swaps big2d's nested slot to a fresh, value-equal scalar and c3
    then changes list1, big2d's old element. Storage is slow, so every plan
    reruns: a lineage that misses the swap replays c3's change into big2d."""
    return TraceFile(
        profile=CostProfile(bandwidth_bytes_per_s=1e-3),
        cells=[
            CellProgram(code_ref="c1", ops=[
                HeapOp(op="create", id=1, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="bind", name="list1", id=1),
                HeapOp(op="create", id=2, kind="container", size_bytes=8),
                HeapOp(op="set_slot", parent_id=2, slot="0", child_id=1),
                HeapOp(op="bind", name="big2d", id=2),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c2", direct_reads={"big2d"}, ops=[
                HeapOp(op="create", id=3, kind="scalar", value=1, size_bytes=8),
                HeapOp(op="set_slot", parent_id=2, slot="0", child_id=3),
            ], declared_runtime_s=0.1),
            CellProgram(code_ref="c3", direct_reads={"list1"}, ops=[
                HeapOp(op="set_value", id=1, value=9),
            ], declared_runtime_s=0.1),
        ],
    )


def rescan(heap: SimHeap, history: HistoryGraph, t: int, program: CellProgram,
           *, use_id_graphs: bool = True) -> CellRecord:
    """Monitor one cell by full rescan: apply its ops to ``heap``, detect
    accesses and modifications with the oracles, then sweep. Returns the
    cell's record at timestamp ``t``, its reads resolved in ``history``
    (with ID graphs, the record ``run_cell`` makes); the caller decides
    whether to record it."""
    pre = PreSnapshot(heap)
    failed_at = None
    try:
        mutation = heap.apply(program.ops)
    except StatecutError as err:
        mutation, failed_at = err.partial, err.op_index
    accessed = detect_accesses(pre, program.direct_reads, touched=mutation.touched | mutation.linked,
                               use_id_graphs=use_id_graphs) & pre.names
    changes = detect_modifications(
        pre, heap, accessed, touched=mutation.touched, use_id_graphs=use_id_graphs,
    )
    created = changes["created"] | (mutation.unbound & pre.names & set(heap.namespace))
    heap.collect_garbage()
    return CellRecord(
        t=t,
        code_ref=program.code_ref,
        runtime_s=program.declared_runtime_s,
        accessed={history.latest[name] for name in accessed
                  if name in history.latest and name not in history.deleted},
        written=changes["modified"] - created,
        created=created,
        deleted=changes["deleted"],
        never_rerun=program.never_rerun,
        nondeterministic=program.nondeterministic,
        failed_at=failed_at,
    )


def with_failing_cells(trace: TraceFile, rng, rate: float) -> TraceFile:
    """``trace`` with a bind of an absent object inserted at a random
    position in about ``rate`` of its cells: each such cell fails there, and
    the ops before it keep their effects."""
    cells = []
    for program in trace.cells:
        if rng.random() < rate:
            ops = list(program.ops)
            ops.insert(rng.randint(0, len(ops)), HeapOp(op="bind", name="v0", id=10**9))
            program = replace(program, ops=ops)
        cells.append(program)
    return replace(trace, cells=cells)


def record_cell(session: Session, program: CellProgram) -> CellRecord:
    """``run_cell``'s record, also for a cell that fails."""
    try:
        return run_cell(session, program)
    except CellExecutionError as err:
        return err.record


def live_closure(records) -> list[int]:
    """Reference for the lineage's pruning: the timestamps of the cells in
    the backward closure of the active snapshots over the whole, unpruned
    lineage that ``run_cell``'s records describe, in order."""
    reads, latest, deleted = {}, {}, {}
    for rec in records:
        reads[rec.t] = rec.accessed
        for name in rec.written | rec.created:
            latest[name] = rec.t
            deleted.pop(name, None)
        for name in rec.deleted - rec.written - rec.created:
            deleted[name] = rec.t
    need: set[int] = set()
    stack = [t for name, t in latest.items() if name not in deleted]
    while stack:
        t = stack.pop()
        if t not in need:
            need.add(t)
            stack.extend(vs.t for vs in reads[t])
    return sorted(need)


def hash_only_session(trace: TraceFile) -> Session:
    """The trace monitored without ID graphs: only declared reads count as
    accesses, and only value-hash changes and rebinds as modifications.
    Failed cells keep their partial effects, as in ``run_trace``."""
    session = new_session(trace.profile, trace.variable_annotations)
    for program in trace.cells:
        session.history.record(rescan(
            session.heap, session.history, session.history.next_t, program, use_id_graphs=False,
        ))
    return session


def link_blind_plan(session: Session) -> ReplicationPlan:
    """The min-cut plan with no ties between linked variables (and no
    annotations): free to split an aliased pair."""
    return min_cut_plan(build_flow_graph(session.history, session_cost_model(session)))


def write_split_by_hand(session, plan, path) -> None:
    """A checkpoint of ``plan``, which may split linked names and which the
    writer would then refuse: the file of a plan that stores every active
    name, with the manifest's plan and variable table cut down to ``plan``."""
    active = session.history.active_snapshots()
    write_checkpoint(session, ReplicationPlan(migrate=set(active), rerun=[], cost_s=0.0), path)
    manifest = read_manifest(path)
    manifest["plan"] = plan.to_json()
    manifest["variables"] = {n: manifest["variables"][n] for n in sorted(plan.migrate)}
    write_manifest(path, manifest)
