"""Amalgamation over a shared part, primitive steps, decompositions.

The shared part C must look the same from both sides.  Lines whose trace
on C has >= 3 points are lines *of* C, so the two sides hold the same line
object and their extensions union automatically — in the free and the
canonical amalgam alike.  Lines meeting C in at most two points are
private to their side: the free amalgam keeps them apart (and fails when
two of them collide on a shared pair), the canonical amalgam glues them
by their shared trace.

One pass per side picks out the lines meeting C twice, by C-trace
(_based_among), and the shared part is checked on those alone
(_shared_traces): C must be the point intersection, and the traces of >= 3
points, which are the lines of the plane C induces, must match.  Both
amalgams and sharp_step check C this way, and both amalgams build their
lines in one place (_glue), which merges the lines of each trace and
returns the amalgam as a step from the first plane: the points and lines
it adds and the lines it drops.

canonical_amalgam requires valid input planes and validates them first;
validate remembers success on a plane, so a plane that is already known to
be valid (a previous amalgam, say) costs nothing.  Its own output is then
valid by proof rather than by a whole-plane check: the wedge check reads
the same pass, and additivity is checked by an exact identity over the
lines out gained from or took from the first plane, read off the step,
never by a whole-plane delta.  free_amalgam has no wedge precondition, so
it validates its union whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Collection, Iterable

from .embedding import embeddings
from .errors import (
    ExchangeViolation,
    InvalidPlaneError,
    NotPrimitive,
    NotStrong,
    NotWedgeSubgeometry,
    PlaneError,
    PreconditionError,
)
from .plane import Plane, _record_valid, restrict, validate
from .predim import d_rel, delta, icl, in_K0, is_strong


@dataclass(frozen=True)
class AmalgamResult:
    plane: Plane
    kind: str  # "free" | "canonical"
    identified_lines: frozenset[tuple[frozenset[str], frozenset[str]]]


@dataclass(frozen=True)
class FreeAmalgam:
    """Sharp-step outcome: the free amalgam went through."""

    plane: Plane


@dataclass(frozen=True, eq=False)
class StrongEmbedding:
    """Sharp-step outcome: the first plane embeds strongly into the second."""

    mapping: dict[str, str]


@dataclass(frozen=True)
class PrimitiveCase:
    """Dichotomy for a primitive step: growth 1 with its single new point,
    or growth 0 (any number of new points)."""

    growth: int
    point: str | None = None


@dataclass(frozen=True)
class Decomposition:
    chain: tuple[frozenset[str], ...]

    @property
    def length(self) -> int:
        return len(self.chain) - 1


_Traces = dict[frozenset[str], frozenset[str]]  # C-trace -> the line carrying it


def _based_among(
    lines: Iterable[frozenset[str]], c: frozenset[str]
) -> tuple[_Traces, bool]:
    """The lines meeting C at least twice, by C-trace, and whether no point
    outside C lies on two of them (wedge condition (b)).

    ``lines`` must hold every line of the plane that meets C at least twice;
    any other line in it is skipped.  In a valid plane at most one line
    carries a given trace (two would share two points), so each trace names
    one line.
    """
    based: _Traces = {}
    seen: set[str] = set()
    wedge = True
    for line in lines:
        trace = line & c
        if len(trace) >= 2:
            based[trace] = line
            outside = line - c
            if wedge and not seen.isdisjoint(outside):
                wedge = False
            seen |= outside
    return based, wedge


def _shared_traces(
    points: AbstractSet[str],
    lines: Iterable[frozenset[str]],
    b: Plane,
    shared: Iterable[str],
    op: str,
) -> tuple[frozenset[str], tuple[_Traces, bool], tuple[_Traces, bool]]:
    """C, with _based_among over C of a, given as its ``points`` and
    ``lines``, and of b, once C is checked to be the point intersection
    and to carry the same induced plane on both sides.

    ``lines`` must hold every line of a meeting C at least twice.  The
    induced plane on C has as its lines the C-traces of at least 3 points,
    and those are exactly the keys of that size of each side's traces, so
    the two sides agree on C when those keys do.
    """
    c = frozenset(shared)
    if points & b.points != c:
        raise PreconditionError(f"{op}: shared part must equal the point intersection")
    side_a, side_b = _based_among(lines, c), _based_among(b.lines, c)
    if {t for t in side_a[0] if len(t) >= 3} != {t for t in side_b[0] if len(t) >= 3}:
        raise PreconditionError(f"{op}: the two planes disagree on the shared part")
    return c, side_a, side_b


def free_amalgam(a: Plane, b: Plane, shared: Iterable[str]) -> AmalgamResult:
    """Union of the two planes over their shared part, no gluing beyond it.

    A broken input is reported by validate, not as a collision of the
    union.  When a shared pair carries a line on both sides, the two lines
    would collide; the least such pair, by its sorted points, is reported.
    Otherwise the union's lines are the canonical glue's (see _glue), but
    the union has no wedge precondition, so it is validated whole.
    """
    validate(a)
    validate(b)
    c, (based_a, _), (based_b, _) = _shared_traces(
        a.points, a.lines, b, shared, "free_amalgam"
    )
    pairs = [sorted(t) for t in based_a.keys() & based_b.keys() if len(t) == 2]
    if pairs:
        trace = frozenset(min(pairs))
        raise ExchangeViolation(
            f"lines {sorted(based_a[trace])} and {sorted(based_b[trace])} both "
            f"extend the shared pair {sorted(trace)}"
        )
    step = _glue(a.lines, b, c, based_a, based_b)
    out = _applied(a, step)
    try:
        validate(out)
    except InvalidPlaneError as exc:  # cross-class collision outside C
        raise ExchangeViolation(str(exc)) from exc
    return AmalgamResult(out, "free", step.identified)


def _nullity(lines: Collection[AbstractSet[str]]) -> int:
    return sum(map(len, lines)) - 2 * len(lines)


def canonical_amalgam(a: Plane, b: Plane, shared: Iterable[str]) -> AmalgamResult:
    """Glue the two planes over C, identifying lines with a common C-trace.

    Both inputs are validated (free for a plane validated before); the
    output is then valid without a check of its own.  Proof: the shared
    part is induced alike in both valid inputs, so a line meeting C in at
    most one point can meet any other output line at most once, and only
    two merged lines la u lb can meet twice.  Two merged lines meet in at
    most one point of a and one of b, and a common point of C would lie in
    both parts, so a second meeting needs an a-point outside C on two
    a-lines that each meet C twice (or the same on the b side) — exactly
    what the wedge condition (b) rules out.  Wedge condition (a), distinct
    rank-2 flats of C spanning distinct flats of each side, and C being a
    subgeometry of each side hold for any induced C, so one pass per side
    over the lines meeting C twice decides the shared-part agreement
    (_shared_traces), the wedge check and the line classes (_glue).

    Additivity delta(out) = delta(a) + delta(b) - delta(C) is checked in the
    exact form delta(out) - delta(a) = delta(b) - delta(C), whose left side
    is the point growth minus the nullity of the lines out gained from a
    plus that of the lines it took from a; both line sets are read off the
    step, never off a comparison of whole line sets.

    The glue returns the step from a to the output as data (see _Step),
    and the output is a with that step applied; free_amalgam builds its
    lines with the same _glue.
    """
    validate(a)
    validate(b)
    c, (based_a, wedge_a), (based_b, wedge_b) = _shared_traces(
        a.points, a.lines, b, shared, "canonical_amalgam"
    )
    for name, wedge in (("first", wedge_a), ("second", wedge_b)):
        if not wedge:
            raise NotWedgeSubgeometry(
                f"canonical_amalgam: shared part is not wedge-compatible "
                f"in the {name} plane"
            )
    step = _glue(a.lines, b, c, based_a, based_b)
    growth = (
        len(step.added) - _nullity(step.added_lines) + _nullity(step.dropped_lines)
    )
    # delta(C) is |C| less the nullity of the traces of >= 3 points; a
    # pair trace has nullity 0, so all of b's traces can be summed
    if growth != delta(b) - (len(c) - _nullity(based_b)):
        gained = delta(a) + delta(b) - delta(a, c)
        raise PlaneError(
            f"canonical amalgam broke predimension additivity: "
            f"{delta(_successor(a, step))} != {gained}"
        )
    return AmalgamResult(_successor(a, step), "canonical", step.identified)


@dataclass(frozen=True)
class _Step:
    """An amalgam as a change to its first plane: the points and lines it
    adds, the lines it drops and the line pairs it identifies."""

    added: frozenset[str]
    added_lines: tuple[frozenset[str], ...]
    dropped_lines: tuple[frozenset[str], ...]
    identified: frozenset[tuple[frozenset[str], frozenset[str]]]


def _applied(plane: Plane, step: _Step) -> Plane:
    """``plane`` with ``step`` applied."""
    return Plane(
        plane.points | step.added,
        plane.lines.symmetric_difference([*step.added_lines, *step.dropped_lines]),
    )


def _successor(plane: Plane, step: _Step) -> Plane:
    """``plane`` with ``step`` applied, marked valid: the output of the
    canonical glue that returned ``step``, valid by proof (see
    canonical_amalgam)."""
    out = _applied(plane, step)
    _record_valid(out)
    return out


def _union(la: frozenset[str], lb: frozenset[str]) -> frozenset[str]:
    """la | lb, as the very operand that already holds the other, if one
    does: a line the glue leaves unchanged stays one object, which the
    output shares with its input and which compares by identity."""
    if lb <= la:
        return la
    if la <= lb:
        return lb
    return la | lb


def _glue(
    lines: AbstractSet[frozenset[str]],
    b: Plane,
    c: frozenset[str],
    based_a: _Traces,
    based_b: _Traces,
) -> _Step:
    """The amalgam of a, with ``lines``, and b over C, as the step from a.

    ``based_a`` and ``based_b`` are the two sides' lines meeting C twice,
    by C-trace (see _based_among).  The lines of one trace merge into one
    line, and a pair they differ on is identified; every other line stays
    as it is.
    """
    merged: set[frozenset[str]] = set()
    identified: set[tuple[frozenset[str], frozenset[str]]] = set()
    for trace in based_a.keys() | based_b.keys():
        la, lb = based_a.get(trace), based_b.get(trace)
        merged.add(_union(la or trace, lb or trace))
        if la and lb and la != lb:
            identified.add((la, lb))
    glued = merged | b.lines.difference(based_b.values())
    # out keeps every line of a that meets C at most once, so it adds the
    # glued lines a lacks and drops the lines of a meeting C twice that no
    # glued line equals: out's lines are a's with those two sets toggled
    return _Step(
        added=b.points - c,
        added_lines=tuple(line for line in glued if line not in lines),
        dropped_lines=tuple(line for line in based_a.values() if line not in glued),
        identified=frozenset(identified),
    )


def _smallest_step(plane: Plane, lo: frozenset[str], up: frozenset[str]) -> frozenset[str]:
    """The smallest proper strong intermediate X, lo <= X <= up (by size,
    then by sorted(X - lo)), or up itself when there is none.

    Since lo <= up, X lies between them exactly when X is strong in up.
    Strong sets are closed under intersection, so such an X holds
    X_p = icl(lo | {p}, within up) for each p in X - lo, and one of least
    size equals each such X_p: two of least size meet only in lo, and the
    least p with |X_p| least gives the first in order.  No X is smaller
    than |lo| + 1, and with one point to add there is no proper one.
    """
    free = sorted(up - lo)
    if len(free) < 2:
        return up
    best = up
    for p in free:
        x = icl(plane, lo | {p}, up)
        if len(x) < len(best):
            best = x
            if len(x) == len(lo) + 1:
                break
    return best


def is_primitive(plane: Plane, lower: Iterable[str], upper: Iterable[str]) -> bool:
    """No proper intermediate X with lower <= X <= upper (both strong),
    found with at most one icl per new point (see _smallest_step)."""
    lo, up = frozenset(lower), frozenset(upper)
    if not lo <= up <= plane.points:
        raise PreconditionError("is_primitive: need lower ⊆ upper ⊆ plane")
    if not is_strong(plane, lo, up):
        raise NotStrong("is_primitive: lower part is not strong in the upper")
    return _smallest_step(plane, lo, up) == up


def classify_primitive(
    plane: Plane, lower: Iterable[str], upper: Iterable[str]
) -> PrimitiveCase:
    """Primitive steps either grow delta by 1 (then one new point) or by 0."""
    lo, up = frozenset(lower), frozenset(upper)
    if not is_primitive(plane, lo, up):
        raise NotPrimitive("classify_primitive: the step is not primitive")
    growth = delta(plane, up) - delta(plane, lo)
    if growth not in (0, 1):
        raise PlaneError(f"primitive step grew delta by {growth}")
    if growth == 1:
        new = up - lo
        if len(new) != 1:
            raise PlaneError("delta-1 primitive step with several new points")
        return PrimitiveCase(1, next(iter(new)))
    return PrimitiveCase(0)


def decompose(plane: Plane, lower: Iterable[str], upper: Iterable[str]) -> Decomposition:
    """Chain of primitive strong steps from lower to upper.

    Deterministic: each step takes the smallest proper strong intermediate
    (by size, then lexicographically), or the upper set when there is none,
    so each step is primitive and the chain is as long as possible.  A step
    takes at most one icl per point it could add (see _smallest_step).
    """
    lo, up = frozenset(lower), frozenset(upper)
    if not lo <= up <= plane.points:
        raise PreconditionError("decompose: need lower ⊆ upper ⊆ plane")
    if not is_strong(plane, lo, up):
        raise NotStrong("decompose: lower part is not strong in the upper")
    chain = [lo]
    while chain[-1] != up:
        chain.append(_smallest_step(plane, chain[-1], up))
    return Decomposition(tuple(chain))


def sharp_step(
    a: Plane, b: Plane, shared: Iterable[str]
) -> FreeAmalgam | StrongEmbedding:
    """Amalgamate a primitive extension with a base it is strong in, sharply.

    The shared part must be strong in both planes, and the first plane
    primitive over it.  Returns the free amalgam whenever it is valid and
    hereditarily nonnegative; otherwise a strong embedding of the first
    plane into the second over the shared part.  One of the two always
    exists.
    """
    c = _shared_traces(a.points, a.lines, b, shared, "sharp_step")[0]
    if not is_strong(a, c):
        raise NotStrong("sharp_step: shared part must be strong in the first plane")
    if not is_primitive(a, c, a.points):
        raise NotPrimitive("sharp_step: first plane must be primitive over the shared part")
    if not is_strong(b, c):
        raise NotStrong("sharp_step: shared part must be strong in the second plane")
    if a.points == c:
        return StrongEmbedding({p: p for p in sorted(c)})
    try:
        free = free_amalgam(a, b, c)
    except ExchangeViolation:
        free = None
    if free is not None and in_K0(free.plane):
        return FreeAmalgam(free.plane)
    identity = {p: p for p in sorted(c)}
    for emb in embeddings(a, b, identity):
        if is_strong(b, frozenset(emb.values())):
            return StrongEmbedding(emb)
    raise PlaneError("sharp_step: neither a free amalgam nor a strong embedding")


def d_independent(
    plane: Plane,
    a: Iterable[str],
    b: Iterable[str],
    shared: Iterable[str],
) -> bool:
    """Whether growing the base from C to B leaves the d-value of A alone.

    The numeric test d(A/C) = d(A/B) is asserted against the structural
    one: the induced plane on A u B is the canonical amalgam of the two
    restrictions, and A u B is strong in the ambient plane.
    """
    aa, bb, cc = frozenset(a), frozenset(b), frozenset(shared)
    if aa & bb != cc:
        raise PreconditionError("d_independent: shared part must be the intersection")
    for side, name in ((aa, "A"), (bb, "B")):
        if not is_strong(plane, side):
            raise NotStrong(f"d_independent: {name} is not strong in the plane")
        if not is_strong(plane, cc, side):
            raise NotStrong(f"d_independent: shared part is not strong in {name}")
    numeric = d_rel(plane, aa, cc) == d_rel(plane, aa, bb)
    merged = canonical_amalgam(restrict(plane, aa), restrict(plane, bb), cc)
    structural = (
        restrict(plane, aa | bb) == merged.plane and is_strong(plane, aa | bb)
    )
    if numeric != structural:
        raise PlaneError("numeric and structural independence tests disagree")
    return numeric
