"""The builder's strength test on one step's own lines.

The builder (generic._Builder) keeps its stage as mutable sets and glues
each renamed copy onto it with the canonical glue (amalgam._glued).
_strong_over decides from the step's own lines whether the old stage is
strong in the new one.
"""

from __future__ import annotations

from typing import AbstractSet

from .census import EXTENSION_CAP, _losses, _slack
from .plane import Plane
from .predim import is_strong


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
