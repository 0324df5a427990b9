"""Exception taxonomy and the subset-search budget guard."""

from __future__ import annotations

import os
import re

DEFAULT_BUDGET = 20
_BUDGET_ENV = "PLANEFORGE_BUDGET"
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class PlaneError(Exception):
    """Base class for all planeforge errors."""


class InvalidPlaneError(PlaneError):
    """A structural invariant of the point-line incidence data is violated."""


class ParseError(PlaneError):
    """Malformed plane file."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class PreconditionError(PlaneError):
    """An operation was called on arguments that do not satisfy its contract."""


class NotStrong(PreconditionError):
    """A subset required to be strong (no delta drop above it) is not."""


class NotPrimitive(PreconditionError):
    """A strong extension required to be primitive admits an intermediate."""


class NotWedgeSubgeometry(PreconditionError):
    """The shared part fails the wedge-compatibility conditions."""


class ExchangeViolation(PlaneError):
    """The free amalgam would force two distinct lines through a common pair.

    Raised when some line based in the shared part gains a third point on
    both sides; gluing the copies would put two distinct lines through the
    same two points.
    """


class BudgetExceeded(PlaneError):
    """An exhaustive subset search would exceed the configured point budget."""


def subset_budget() -> int:
    """Maximum ground-set size for exhaustive subset enumeration.

    Controlled by the PLANEFORGE_BUDGET environment variable (default 20).
    Only the genuinely exponential searches honor this; the flow-based
    operations are exact at any size and never consult it.
    """
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        problem = "must be an integer"
        # a well-formed integer int() refuses is past Python's int-string limit
        if _INTEGER.fullmatch(raw):
            problem = "must be nonnegative" if "-" in raw else "is too large"
        raise PlaneError(f"{_BUDGET_ENV} {problem}, got {_clipped(raw)}") from None
    if value < 0:
        shown = value if len(raw) <= 40 else _clipped(raw)
        raise PlaneError(f"{_BUDGET_ENV} must be nonnegative, got {shown}")
    return value


def _clipped(raw: str) -> str:
    """repr of an environment value, cut to its first 20 characters if long."""
    return repr(raw) if len(raw) <= 40 else f"{raw[:20]!r}... ({len(raw)} characters)"


def guard_subsets(n_free: int, operation: str) -> None:
    """Refuse a 2**n_free enumeration when n_free exceeds the budget."""
    limit = subset_budget()
    if n_free > limit:
        raise BudgetExceeded(
            f"{operation}: would enumerate subsets of {n_free} points "
            f"(budget {limit}; raise {_BUDGET_ENV} to override)"
        )
