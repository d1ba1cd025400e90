"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class GraphError(ToolkitError, ValueError):
    """Invalid graph construction or vertex arguments."""


class ParseError(GraphError):
    """Malformed input in one of the interchange formats.

    ``offset`` is a byte offset for graph6 inputs and a 1-based line
    number for line-oriented formats.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class ParseWarning(UserWarning):
    """Non-fatal input oddity (duplicate edges, count mismatches)."""


class BudgetExceededError(ToolkitError):
    """The input is larger than the operation's enumeration budget.

    Distinguished from any legitimate empty result: callers can rely on
    a normal return being exact.
    """


class NoFragmentsError(ToolkitError):
    """The graph has no fragments at all (complete, one vertex or empty)."""


class TheoremViolationError(ToolkitError):
    """A guaranteed structural property failed to materialize.

    This is the counterexample channel: it must never fire on valid
    inputs.  It carries only its message; the reporter that called the
    checker already holds the graph and reports the message against it.
    """


class CertificateError(ToolkitError):
    """A certificate failed validation against its graph."""
