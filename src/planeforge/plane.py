"""Core incidence structure: points, lines, closure, rank, restriction.

A plane is a finite simple rank-<=3 combinatorial geometry given by its
point set and its nontrivial lines (the lines with at least three points).
Two-point lines are implicit: any pair of points not covered by a stored
line spans a trivial line of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Collection, Iterable

from .errors import InvalidPlaneError, PreconditionError


@dataclass(frozen=True)
class Plane:
    """Points and stored lines.  The one incidence index, lines_through, is
    built on first use, freed with the plane, and ignored by equality and
    hashing."""

    points: frozenset[str]
    lines: frozenset[frozenset[str]]

    @property
    def n_points(self) -> int:
        return len(self.points)

    @cached_property
    def lines_through(self) -> dict[str, frozenset[frozenset[str]]]:
        """point -> set of stored lines through it."""
        index: dict[str, set[frozenset[str]]] = {p: set() for p in self.points}
        for line in self.lines:
            for p in line:
                index[p].add(line)
        return {p: frozenset(ls) for p, ls in index.items()}

    @cached_property
    def _valid(self) -> bool:
        """True once the structural checks have passed.  A failure raises
        and caches nothing, so an invalid plane raises on every call."""
        _check_structure(self)
        return True

    def __repr__(self) -> str:  # keep test failure output readable
        pts = ",".join(sorted(self.points))
        lns = ";".join(",".join(sorted(l)) for l in sorted(self.lines, key=sorted))
        return f"Plane({pts} | {lns})"


def make_plane(points: Iterable[str], lines: Iterable[Iterable[str]] = ()) -> Plane:
    """Build a plane from loose iterables, without validating it."""
    return Plane(frozenset(points), frozenset(frozenset(l) for l in lines))


def validate(plane: Plane) -> None:
    """Raise InvalidPlaneError unless the incidence data is structurally sound.

    Checks: point names are nonempty, printable, whitespace-free and not
    comment-like; every line is a subset of the point set with at least 3
    points; two distinct lines meet in at most one point.  The last check
    runs point by point: the k lines through p meet only in p exactly when
    their union has sum(|l|) - k + 1 points.  Each check reports its least
    offender, never the first one met, so the message does not depend on
    set order: the bad name whose repr sorts first, the short or stray line
    first in sorted order, the clashing pair first in sorted line order.
    The offenders are gathered by the passes the checks make anyway, so a
    valid plane pays for no sort.

    A plane that passes remembers it, so validating it again is free; a
    plane that fails remembers nothing and raises again on every call.
    """
    plane._valid  # runs _check_structure until it first passes


def _record_valid(plane: Plane) -> None:
    """Mark a plane as valid without checking it.  Only for a caller that
    has proved the plane valid, as canonical_amalgam does for its output."""
    plane.__dict__["_valid"] = True


def _names_ok(points: Collection[str]) -> bool:
    """Whether every name is a non-empty printable str with no space and no
    "#", in one pass over the joined names.  Every whitespace character but
    the ASCII space is unprintable, so such a name holds no whitespace at
    all; an empty name leaves no trace in the join, so it is looked for
    apart."""
    try:
        joined = "".join(points)
    except TypeError:  # a name that is not a str
        return False
    return joined.isprintable() and " " not in joined and "#" not in joined and "" not in points


def _check_structure(plane: Plane) -> None:
    """The full structural check behind validate, run on every call."""
    if not _names_ok(plane.points):
        bad = [p for p in plane.points if not _names_ok((p,))]
        raise InvalidPlaneError(f"bad point name: {min(bad, key=repr)!r}")
    through: dict[str, list[frozenset[str]]] = {}
    broken = []
    for line in plane.lines:
        if len(line) < 3 or not line <= plane.points:
            broken.append(sorted(line))
            continue
        for p in line:
            through.setdefault(p, []).append(line)
    if broken:
        line = min(broken)
        if len(line) < 3:
            raise InvalidPlaneError(
                f"line {line} has {len(line)} points; lines need at least 3"
            )
        stray = sorted(frozenset(line) - plane.points)
        raise InvalidPlaneError(f"line {line} uses unknown points {stray}")
    clashes = []
    for ls in through.values():
        if len(ls) > 1 and len(set().union(*ls)) != sum(map(len, ls)) - len(ls) + 1:
            for l1, l2 in combinations(ls, 2):
                if len(l1 & l2) > 1:
                    clashes.append(sorted((sorted(l1), sorted(l2))))
    if clashes:
        l1, l2 = min(clashes)
        common = sorted(frozenset(l1) & frozenset(l2))
        raise InvalidPlaneError(f"lines {l1} and {l2} share {common}")


def line_through(plane: Plane, p: str, q: str) -> frozenset[str] | None:
    """The stored line through two distinct points, or None (also when the
    points are equal or either is not in the plane)."""
    if p != q:
        for line in plane.lines_through.get(p, ()):
            if q in line:
                return line
    return None


def _as_subset(plane: Plane, subset: Iterable[str] | None, what: str) -> frozenset[str]:
    """The subset as a frozenset, the whole plane for None.  A point outside
    the plane breaks the caller's contract, not the plane's structure."""
    if subset is None:
        return plane.points
    x = frozenset(subset)
    if not x <= plane.points:
        raise PreconditionError(f"{what}: {sorted(x - plane.points)} outside plane")
    return x


def closure(plane: Plane, subset: Iterable[str]) -> frozenset[str]:
    """Smallest flat of the plane containing the subset."""
    x = _as_subset(plane, subset, "closure")
    if len(x) <= 1:
        return x
    for line in plane.lines:
        if x <= line:
            return line
    if len(x) == 2:
        return x
    return plane.points


def rank(plane: Plane, subset: Iterable[str] | None = None) -> int:
    """Matroid rank of a subset (whole plane by default)."""
    x = _as_subset(plane, subset, "rank")
    if len(x) <= 2:
        return len(x)
    if any(x <= line for line in plane.lines):
        return 2
    return 3


def restrict(plane: Plane, subset: Iterable[str]) -> Plane:
    """Induced subplane on a subset: keep line traces with >= 3 points."""
    x = _as_subset(plane, subset, "restrict")
    traces = frozenset(line & x for line in plane.lines if len(line & x) >= 3)
    return Plane(x, traces)
