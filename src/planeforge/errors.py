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
    """An exhaustive search would exceed the work budget or a fixed cap."""


def subset_budget() -> int:
    """Exponent of the work budget: an exhaustive search of more than
    2**budget steps is refused (see guard_work).

    Controlled by the PLANEFORGE_BUDGET environment variable (default 20).
    Only the genuinely exponential searches honor this; the min-cut
    operations (d, icl, strength, K0) are exact at any size and never
    consult it.
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


def guard_work(operation: str, work: int, unit: str, hint: bool = False) -> None:
    """Refuse an exhaustive search of ``work`` units past 2**budget; ``hint``
    names the budget and the variable that raises it in the message."""
    budget = subset_budget()
    # work > 2**budget, without building 2**budget for a huge budget
    if budget < work.bit_length() and work > 2**budget:
        tail = f" (budget {budget}; raise {_BUDGET_ENV} to override)" if hint else ""
        raise BudgetExceeded(f"{operation}: {work} {unit} exceed the subset budget{tail}")
