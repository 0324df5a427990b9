"""Amalgamation over a shared part, primitive steps, decompositions.

The shared part C must look the same from both sides.  Lines whose trace
on C has >= 3 points are lines *of* C, so the two sides hold the same line
object and their extensions union automatically — in the free and the
canonical amalgam alike.  Lines meeting C in at most two points are
private to their side: the free amalgam keeps them apart (and fails when
two of them collide on a shared pair), the canonical amalgam glues them
by their shared trace.

The lines meeting C twice are picked out by C-trace (_based_among), and
the shared part is checked on those traces alone (_shared_traces): C must
be the point intersection, and the traces of >= 3 points, which are the
lines of the plane C induces, must match.

There is one glue, _glued, the only code that merges lines by shared
C-trace, run by both amalgams, sharp_step and the builder's step
(generic._Builder.fire).  Each checks its sides once before it glues: the
amalgams through _sides (both inputs validated, the first side's lines
meeting C twice read in one pass, C checked), the builder on the traces it
keeps per base instance, its copy valid by proof.  The glue checks only
additivity and returns the amalgam as step data: the new points, the new
lines, and the first side's lines that take new points or are identified
with a longer line (_step turns that into the lines added, dropped and
identified).  Errors come in one order: invalid input, shared part,
free_amalgam's pair collision, canonical_amalgam's wedge check,
additivity, and last free_amalgam's clash off C.  Wedge condition (b)
follows from C being strong on both sides, which the builder's invariants
give at every step (the proof is in _glued), so only canonical_amalgam,
which glues planes it knows nothing about, checks it.

validate remembers success on a plane, so a plane that is already known to
be valid (a previous amalgam, say) costs nothing.  canonical_amalgam's
output is valid by proof rather than by a whole-plane check: the wedge
check reads the traces the shared-part check computed, and additivity is
checked by an exact identity over the step's lines, never by a
whole-plane delta.  free_amalgam has no wedge precondition, so it
validates its union whole.
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


_Traces = dict[frozenset[str], AbstractSet[str]]  # C-trace -> the line carrying it


def _based_among(lines: Iterable[frozenset[str]], c: frozenset[str]) -> _Traces:
    """The lines meeting C at least twice, by C-trace.

    ``lines`` must hold every line of the plane that meets C at least twice;
    any other line in it is skipped.  In a valid plane at most one line
    carries a given trace (two would share two points), so each trace names
    one line.
    """
    return {trace: line for line in lines if len(trace := line & c) >= 2}


def _shared_traces(
    points: AbstractSet[str],
    traces: Iterable[frozenset[str]],
    b: Plane,
    c: frozenset[str],
    op: str,
) -> _Traces:
    """_based_among over C of b, once C is checked to be the point
    intersection of b and a first side with ``points`` and to carry the
    same induced plane on both sides.

    ``traces`` are the C-traces of the first side's lines meeting C at
    least twice.  The induced plane on C has as its lines the C-traces of
    at least 3 points, so the two sides agree on C when those traces do.
    """
    if points & b.points != c:
        raise PreconditionError(f"{op}: shared part must equal the point intersection")
    based_b = _based_among(b.lines, c)
    if {t for t in traces if len(t) >= 3} != {t for t in based_b if len(t) >= 3}:
        raise PreconditionError(f"{op}: the two planes disagree on the shared part")
    return based_b


def _wedge(based: _Traces) -> bool:
    """Wedge condition (b) on a plane's lines meeting C twice, ``based`` by
    C-trace: no point outside C is on two.  Lines whose traces share a point
    meet only there, so only pairs with disjoint traces are walked, each
    the shorter line's length (set.isdisjoint)."""
    pending = list(based.items())
    while pending:
        s, line = pending.pop()
        for t, other in pending:
            if s.isdisjoint(t) and not line.isdisjoint(other):
                return False
    return True


def _nullity(lines: Collection[AbstractSet[str]]) -> int:
    return sum(map(len, lines)) - 2 * len(lines)


def _sides(a: Plane, b: Plane, c: frozenset, op: str):
    """The amalgams' one entry check: a and b validated, then C checked
    (messages naming ``op``).  Returns a's lines by id, its lines meeting C
    twice by C-trace -> id, and b's by C-trace -> line, as _glued takes
    them."""
    validate(a)
    validate(b)
    lines, based = list(a.lines), {}
    for i, line in enumerate(lines):
        if len(trace := line & c) >= 2:
            based[trace] = i
    return lines, based, _shared_traces(a.points, based, b, c, op)


def _glued(
    old: AbstractSet[str], lines: list, based: dict, b: Plane, based_b: _Traces, c: frozenset
):
    """The canonical amalgam of a first side (points ``old``, lines by id,
    those meeting C twice ``based`` by C-trace -> id) and ``b`` (its lines
    meeting C twice ``based_b`` by C-trace) over ``c`` as step data: the new
    points, the new lines, and (id, gain) per first-side line whose C-trace
    a line of b has, gain its new points, when some or the first-side line
    is longer.  Both sides come valid and C checked (see _sides), so only
    additivity is checked, from counts (see canonical_amalgam).

    Wedge condition (b) on each side is not checked here; it holds wherever
    C is strong.  canonical_amalgam checks it on its inputs before it glues.
    The builder's step (generic._Builder.fire) needs no check, by these
    invariants:

    1. If C is strong in a plane, wedge (b) holds in it: for a point p off
       C, delta(C u {p}) - delta(C) = 1 - (the number of lines through p
       that meet C twice), so no two such lines meet off C.
    2. A registered copy B, glued over its instance C onto a stage A, is
       strong in the successor M.  Each X with B <= X <= M is B u Y with Y
       inside A - C, and every line of M through Y is a stage line.  Its
       trace on B exceeds its trace on C only by points of the copy, and
       only when its C-trace has two points or more, where a further point
       costs one either way.  So delta(B u Y) - delta(B) = delta(C u Y) -
       delta(C), which is >= 0 when C is strong in A.
    3. Every later stage is a strong extension of the one before (fire
       checks it with _strong_over), and strength is transitive, so B stays
       strong in every later stage.  The first instance, the empty set, is
       strong because every stage is in K0.  So every base instance is
       strong in its stage, and 1 gives the stage side.
    4. Census templates are strong over their base by construction, and 1
       gives the copy side.  Seeds glue over the empty set, which no line
       meets twice.
    """
    new_lines = list(b.lines.difference(based_b.values()))
    extended = []
    for trace, line in based_b.items():
        i = based.get(trace)
        if i is None:
            new_lines.append(line)
        elif (gain := line - c) or len(lines[i]) > len(line):
            extended.append((i, gain))
    added = b.points - c
    growth = len(added) - _nullity(new_lines) - sum(len(gain) for _, gain in extended)
    # delta(C) is |C| less the nullity of the traces of >= 3 points; a
    # pair trace has nullity 0, so all of b's traces can be summed
    gained = len(b.points) - _nullity(b.lines) - (len(c) - _nullity(based_b))
    if growth != gained:
        stage = len(old) - _nullity(lines)
        raise PlaneError(
            f"canonical amalgam broke predimension additivity: "
            f"{stage + growth} != {stage + gained}"
        )
    return added, tuple(new_lines), tuple(extended)


@dataclass(frozen=True)
class _Step:
    """An amalgam as a change to its first plane: the points and lines it
    adds, the lines it drops and the line pairs it identifies."""

    added: frozenset[str]
    added_lines: tuple[frozenset[str], ...]
    dropped_lines: tuple[frozenset[str], ...]
    identified: frozenset[tuple[frozenset[str], frozenset[str]]]


def _step(lines: list, base: frozenset, added, new_lines, extended) -> _Step:
    """The step data of a glue over ``base`` (see _glued) as a change to the
    first side, whose lines by id are ``lines``, grown in place.  An
    extended line is identified with b's line, its base trace with the
    gain, and grows by the gain; the new lines take the next ids."""
    grown, dropped, identified = [*new_lines], [], set()
    for i, gain in extended:
        line = lines[i]
        identified.add((line, (line & base) | gain))
        if gain:
            lines[i] = line | gain
            grown.append(lines[i])
            dropped.append(line)
    lines += new_lines
    return _Step(added, tuple(grown), tuple(dropped), frozenset(identified))


def _successor(plane: Plane, step: _Step) -> Plane:
    """``plane`` with ``step`` applied."""
    return Plane(
        plane.points | step.added,
        plane.lines.symmetric_difference([*step.added_lines, *step.dropped_lines]),
    )


def _free(
    a: Plane, b: Plane, c: frozenset, lines: list, based: dict, based_b: _Traces
) -> AmalgamResult:
    """free_amalgam on checked sides (see _sides)."""
    pairs = [sorted(t) for t in based_b if len(t) == 2 and t in based]
    if pairs:
        trace = frozenset(min(pairs))
        raise ExchangeViolation(
            f"lines {sorted(lines[based[trace]])} and {sorted(based_b[trace])} both "
            f"extend the shared pair {sorted(trace)}"
        )
    step = _step(lines, c, *_glued(a.points, lines, based, b, based_b, c))
    out = _successor(a, step)
    try:
        validate(out)
    except InvalidPlaneError as exc:  # cross-class collision outside C
        raise ExchangeViolation(str(exc)) from exc
    return AmalgamResult(out, "free", step.identified)


def free_amalgam(a: Plane, b: Plane, shared: Iterable[str]) -> AmalgamResult:
    """Union of the two planes over their shared part, no gluing beyond it.

    The sides are checked once (_sides), so a broken input is reported by
    validate, not as a collision of the union.  When a shared pair carries
    a line on both sides, the two lines would collide; the least such pair,
    by its sorted points, is reported.  Otherwise the traces both sides
    share are the lines of C, and the glue (_glued) merges each pair of
    lines carrying one into their union.  The union has no wedge
    precondition, so it is validated whole, last: a clash off C is an
    ExchangeViolation.
    """
    c = frozenset(shared)
    return _free(a, b, c, *_sides(a, b, c, "free_amalgam"))


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
    subgeometry of each side hold for any induced C, so the traces of each
    side's lines meeting C twice decide the shared-part agreement
    (_shared_traces), the wedge check (_wedge) and the glue.

    Additivity delta(out) = delta(a) + delta(b) - delta(C) is checked in the
    exact form delta(out) - delta(a) = delta(b) - delta(C), whose left side
    is the point growth less the nullity of the new lines and the points
    the extended lines gain; both sides are counts over the step's lines
    and b's, never a whole-plane delta.

    Each check runs once, in this order: a and b are validated and C is
    checked (_sides), then wedge (b) on the first side and on the second,
    then the glue (_glued) checks additivity; its step data is applied to
    a (see _step).
    """
    c = frozenset(shared)
    lines, based, based_b = _sides(a, b, c, "canonical_amalgam")
    first = {trace: lines[i] for trace, i in based.items()}
    for name, side in {"first": first, "second": based_b}.items():
        if not _wedge(side):
            raise NotWedgeSubgeometry(
                f"canonical_amalgam: shared part is not wedge-compatible "
                f"in the {name} plane"
            )
    step = _step(lines, c, *_glued(a.points, lines, based, b, based_b, c))
    out = _successor(a, step)
    _record_valid(out)
    return AmalgamResult(out, "canonical", step.identified)


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
    exists.  The sides are checked first, once (_sides), and the free
    amalgam is tried on them.
    """
    c = frozenset(shared)
    sides = _sides(a, b, c, "sharp_step")
    if not is_strong(a, c):
        raise NotStrong("sharp_step: shared part must be strong in the first plane")
    if _smallest_step(a, c, a.points) != a.points:  # is_primitive, minus the check above
        raise NotPrimitive("sharp_step: first plane must be primitive over the shared part")
    if not is_strong(b, c):
        raise NotStrong("sharp_step: shared part must be strong in the second plane")
    if a.points == c:
        return StrongEmbedding({p: p for p in sorted(c)})
    try:
        free = _free(a, b, c, *sides)
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
