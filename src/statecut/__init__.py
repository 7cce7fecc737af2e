"""statecut: session-state replication by balancing copying and recomputation.

The engine monitors simulated cell executions, builds a lineage graph of
variable snapshots and cell executions, prices migrating each variable
against rerunning the cells that rebuild it, solves the resulting min-cut
problem under the linked-variable constraint, and writes/restores checkpoints
that preserve both values and shared references.
"""

from .cost import CostModel, CostProfile, linked_pairs
from .errors import (
    CellExecutionError,
    FormatError,
    Infeasible,
    InvalidHeapOp,
    MissingCellProgram,
    NonMonotonicTimestamp,
    RootMismatch,
    SerializationError,
    StatecutError,
    TooLarge,
    UnknownObject,
    UnknownVariable,
    Unreconstructable,
)
from .gen import GenParams, generate_trace, inject_false_edges
from .heap import HeapObject, HeapOp, SimHeap
from .history import CellExecution, CellRecord, HistoryGraph, VariableSnapshot
from .monitor import CellProgram, Session, run_cell
from .planner import (
    FlowGraph,
    ReplicationPlan,
    baseline_plans,
    brute_force_plan,
    build_flow_graph,
    min_cut_plan,
    plan_session,
)
from .replicator import (
    Checkpoint,
    RestoreResult,
    VerificationReport,
    payload_bytes,
    read_checkpoint,
    recovery_cells,
    restore,
    verify,
    write_checkpoint,
)
from .trace import TraceFile, load_trace, new_session, run_trace, save_trace

__version__ = "0.1.0"
