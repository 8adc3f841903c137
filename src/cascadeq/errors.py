"""Exception types shared across the package, and the memory budget of the
dense engines.

Every exception carries a stable kebab-case ``code`` so callers (and the
CLI exit-code mapping) can react to the failure class without parsing
messages.
"""
from __future__ import annotations

DENSE_BYTE_BUDGET = 1 << 30
"""Most bytes the exact step matrix fold or a statevector path may peak at
(1 GiB)."""


class CascadeqError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ValidationError(CascadeqError, ValueError):
    """Input violates a documented invariant or precondition."""

    code = "validation-error"


class ParseError(CascadeqError, ValueError):
    """Malformed model file, gate listing, or trace file."""

    code = "parse-error"


class ResourceLimitError(CascadeqError, RuntimeError):
    """Requested work exceeds the dense byte budget (a statevector run from 25
    qubits, a sweep's outcomes, the exact fold, a gate list), a shot count a
    draw or trace holds, or the 63 nodes of a Monte Carlo configuration."""

    code = "resource-limit"


def check_dense_bytes(nbytes: int, what: str) -> None:
    """Raise ResourceLimitError before allocating more than DENSE_BYTE_BUDGET."""
    if nbytes > DENSE_BYTE_BUDGET:
        # a count of more digits than Python writes as a string is not written
        needs = nbytes if nbytes < 1 << 64 else "over 2^64"
        raise ResourceLimitError(f"{what} needs {needs} bytes, over the budget of "
                                 f"{DENSE_BYTE_BUDGET}")


class FitDivergedError(CascadeqError, RuntimeError):
    """No fit start produced a finite loss."""

    code = "fit-diverged"


class DegenerateSubspaceError(CascadeqError, ValueError):
    """Marked probability is 0 or 1; the rotation subspace collapses."""

    code = "degenerate-subspace"


class MissingSeriesError(CascadeqError, ValueError):
    """A report does not contain the series needed for plot extraction."""

    code = "missing-series"
