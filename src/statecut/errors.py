"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class StatecutError(Exception):
    """Base class for all engine errors."""


class UnknownVariable(StatecutError):
    """A variable name is not bound in the heap namespace, or a cell reads a
    snapshot of it that no live cell of the lineage wrote."""


class UnknownObject(StatecutError):
    """An operation referenced an object id that is not live in the heap."""


class InvalidHeapOp(StatecutError):
    """A heap operation is malformed (bad kind, slot on a leaf, duplicate id)."""


class RootMismatch(StatecutError):
    """Two ID graphs rooted at different variable names were compared."""


class NonMonotonicTimestamp(StatecutError):
    """A cell record's timestamp does not exceed all existing timestamps."""


class Unreconstructable(StatecutError):
    """A variable cannot be recomputed: a cell that is not rerunnable blocks every path."""

    def __init__(self, name: str, blocked_at: int | None = None):
        self.name = name
        self.blocked_at = blocked_at
        where = f" (blocked by cell t={blocked_at})" if blocked_at is not None else ""
        super().__init__(f"cannot reconstruct {name!r}: rerun path blocked{where}")


class TooLarge(StatecutError):
    """Instance exceeds the brute-force enumeration bound."""


class Infeasible(StatecutError):
    """No finite-cost replication plan exists."""

    def __init__(self, variables: list[str]):
        self.variables = sorted(variables)
        super().__init__(
            "no finite replication plan; every option is infinite for: "
            + ", ".join(self.variables)
        )


class SerializationError(StatecutError):
    """A non-serializable object reached the checkpoint writer."""


class CellExecutionError(StatecutError):
    """A cell failed mid-execution; partial effects were recorded."""

    def __init__(self, code_ref: str, cause: Exception, record=None):
        self.code_ref = code_ref
        self.cause = cause
        self.record = record
        super().__init__(f"cell {code_ref!r} failed: {cause}")


class FormatError(StatecutError):
    """A trace or checkpoint file is malformed."""


class MissingCellProgram(FormatError):
    """The trace archive lacks a cell program needed for a rerun: the
    checkpoint and the trace do not belong together."""
