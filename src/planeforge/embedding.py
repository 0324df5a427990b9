"""Induced-copy search: embed one plane into another.

An embedding here is always *induced*: the image carries exactly the lines
of the source, no more.  Two lines share at most one point, so a set of
three or more points lies on one line exactly when every triple of it is
collinear; an injective map is therefore induced exactly when each triple
is collinear in the source if and only if its image is in the target.
"""

from __future__ import annotations

from typing import Iterator

from .errors import PreconditionError
from .plane import Plane, line_through


def _placement_order(sub: Plane, fixed: frozenset[str]) -> list[str]:
    """Free points ordered so each one touches placed structure early: most
    placed points sharing a stored line with it first.  The lines through
    an unplaced p meet only in p, so each such placed point counts once."""
    deg = {p: len(sub.lines_through[p]) for p in sub.points}
    placed = set(fixed)
    order: list[str] = []
    remaining = set(sub.points) - placed
    while remaining:
        best = max(
            remaining,
            key=lambda p: (
                sum(len(line & placed) for line in sub.lines_through[p]),
                deg[p],
                p,
            ),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _consistent(sub: Plane, sup: Plane, mapping: dict[str, str], p: str) -> bool:
    """Check the newly placed p against the other placed points.

    A triple with p must be collinear in sub exactly when its image is in sup
    (complete, see above); a pair with p on a stored line of sub must go to
    a pair on one of sup (implied at the leaves, kept to prune early).
    """
    q = mapping[p]
    placed = [(p2, q2) for p2, q2 in mapping.items() if p2 != p]
    for i, (p2, q2) in enumerate(placed):
        sub_line = line_through(sub, p, p2) or frozenset()
        sup_line = line_through(sup, q, q2) or frozenset()
        if sub_line and not sup_line:
            return False
        if any((p3 in sub_line) != (q3 in sup_line) for p3, q3 in placed[i + 1 :]):
            return False
    return True


def embeddings(
    sub: Plane, sup: Plane, fixed: dict[str, str] | None = None
) -> Iterator[dict[str, str]]:
    """All induced embeddings of sub into sup extending `fixed`."""
    fixed = dict(fixed or {})
    if not set(fixed) <= sub.points:
        raise PreconditionError("embeddings: fixed keys must be source points")
    if not set(fixed.values()) <= sup.points:
        raise PreconditionError("embeddings: fixed values must be target points")
    if len(set(fixed.values())) != len(fixed):
        return
    if sub.n_points > sup.n_points:
        return

    order = _placement_order(sub, frozenset(fixed))
    start = dict(fixed)
    for p in fixed:
        if not _consistent(sub, sup, start, p):
            return
    yield from _extend(sub, sup, order, 0, start, set(fixed.values()))


def _extend(sub: Plane, sup: Plane, order: list, i: int, mapping: dict, used: set):
    """The embeddings that extend ``mapping`` by placing order[i:], in
    order.  A point goes only to a target point on at least as many lines.
    A module function, not a closure, so a search leaves no reference cycle."""
    if i == len(order):
        yield dict(mapping)
        return
    p = order[i]
    lines = len(sub.lines_through[p])
    for q in sorted(sup.points - used):
        if lines > len(sup.lines_through[q]):
            continue
        mapping[p] = q
        if _consistent(sub, sup, mapping, p):
            used.add(q)
            yield from _extend(sub, sup, order, i + 1, mapping, used)
            used.remove(q)
        del mapping[p]


def find_embedding(
    sub: Plane, sup: Plane, fixed: dict[str, str] | None = None
) -> dict[str, str] | None:
    """First induced embedding, or None."""
    return next(embeddings(sub, sup, fixed), None)


def are_isomorphic(a: Plane, b: Plane) -> bool:
    if a.n_points != b.n_points or len(a.lines) != len(b.lines):
        return False
    if sorted(len(l) for l in a.lines) != sorted(len(l) for l in b.lines):
        return False
    return find_embedding(a, b) is not None
