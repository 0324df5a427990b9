"""One step of the generic builder, as data, with the checks on it.

The builder (generic._Builder) keeps its stage as mutable sets: its points,
and each line under an int id.  _glued is canonical_amalgam's glue of a
renamed copy onto that stage over the copy's base C: a copy line with the
C-trace (of at least 2 points) of a stage line adds its new points to that
line, and every other copy line is a new line.  It reads only the stage
lines meeting C twice, and makes canonical_amalgam's checks.  _strong_over
decides from the step's own lines whether the old stage is strong in the
new one.
"""

from __future__ import annotations

from typing import AbstractSet

from .amalgam import _based_among, _nullity
from .census import EXTENSION_CAP, _losses, _slack
from .errors import NotWedgeSubgeometry, PlaneError, PreconditionError
from .plane import Plane, validate
from .predim import is_strong


def _glued(old: set, lines: list, meeting: set, copy: Plane, c: frozenset):
    """The canonical amalgam of the stage (points ``old``, lines by id) and
    ``copy`` over ``c`` as step data: the new points, the new lines, and
    (id, gain) per stage line whose C-trace a copy line has, gain its new
    points, when some or the stage line is longer.  Only the stage lines
    ``meeting`` C twice are read.  The checks are canonical_amalgam's, in
    its order, with its messages; additivity is from counts."""
    validate(copy)
    if old & copy.points != c:
        raise PreconditionError("canonical_amalgam: shared part must equal the point intersection")
    based = {c & lines[i]: i for i in meeting}
    based_b, wedge_b = _based_among(copy.lines, c)
    if {t for t in based if len(t) >= 3} != {t for t in based_b if len(t) >= 3}:
        raise PreconditionError("canonical_amalgam: the two planes disagree on the shared part")
    for name, wedge in (("first", _wedge(based, lines)), ("second", wedge_b)):
        if not wedge:
            raise NotWedgeSubgeometry(
                f"canonical_amalgam: shared part is not wedge-compatible "
                f"in the {name} plane"
            )
    new_lines = list(copy.lines.difference(based_b.values()))
    extended = []
    for trace, line in based_b.items():
        i = based.get(trace)
        if i is None:
            new_lines.append(line)
        elif (gain := line - c) or len(lines[i]) > len(line):
            extended.append((i, gain))
    added = copy.points - c
    growth = len(added) - _nullity(new_lines) - sum(len(gain) for _, gain in extended)
    gained = len(copy.points) - _nullity(copy.lines) - (len(c) - _nullity(based_b))
    if growth != gained:
        stage = len(old) - _nullity(lines)
        raise PlaneError(
            f"canonical amalgam broke predimension additivity: "
            f"{stage + growth} != {stage + gained}"
        )
    return added, tuple(new_lines), tuple(extended)


def _wedge(based: dict, lines: list) -> bool:
    """Wedge condition (b) on the stage lines meeting C twice, ``based`` by
    C-trace: no point outside C is on two.  Lines whose traces share a point
    meet only there, so only pairs with disjoint traces are walked, each
    the shorter line's length (set.isdisjoint)."""
    pending = list(based.items())
    while pending:
        s, i = pending.pop()
        for t, j in pending:
            if s.isdisjoint(t) and not lines[i].isdisjoint(lines[j]):
                return False
    return True


def _strong_over(old: AbstractSet[str], new: frozenset, added, extended=()) -> bool:
    """Whether the points ``old`` of a stage are strong in its successor by
    a step with the new points ``new``, the added lines ``added`` and the
    old lines that gained new points, as (line, gain) pairs ``extended``,
    decided on those lines (see generic._Builder.fire).  Every set above old is
    old | Y, Y new, so this is the census's slack test with b a line's
    points not new (see census._strong_line_sets), checked per line so no
    packed field borrows.  A step of more than EXTENSION_CAP points (a big
    seed) takes a min-cut on the plane G of its new points and lines: a set
    of G above old & G gains what its union with old gains."""
    if len(new) > EXTENSION_CAP:
        added = (*added, *(frozenset(line | gain) for line, gain in extended))
        glue = Plane(new.union(*added), frozenset(added))
        return is_strong(glue, glue.points & old)
    m, bit = len(new), {p: 1 << i for i, p in enumerate(new)}
    slack, guard = _slack(m)
    counts = [(new & l, len(l)) for l in added]
    counts += [(new & gain, len(line) + len(gain)) for line, gain in extended]
    for on, size in counts:
        slack -= _losses(sum(map(bit.__getitem__, on)), min(size - len(on), 2), m)
        if slack & guard != guard:
            return False
    return True
