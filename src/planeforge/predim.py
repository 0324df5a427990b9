"""Predimension calculus: delta, Mason's alpha, d-values, strong sets, icl.

delta(X) = |X| - sum over lines of max(|l cap X| - 2, 0) is submodular, so
min { delta(X) : A subseteq X subseteq U } is computable exactly by a
min-cut reduction (select a line, earn its trace nullity, pay one per
covered point outside A), solved as a line-to-point b-matching.  All the
d / strong / icl / K0 operations run through that engine, the only min-cut
solver in the library; nothing here enumerates subsets except is_k_strong,
whose contract is genuinely about bounded-size increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import PreconditionError, guard_work
from .plane import Plane, _as_subset, rank


def delta(plane: Plane, subset: Iterable[str] | None = None) -> int:
    """Predimension: point count minus total line nullity of the trace."""
    x = _as_subset(plane, subset, "delta")
    penalty = 0
    for line in plane.lines:
        k = len(line & x)
        if k >= 3:
            penalty += k - 2
    return len(x) - penalty


def delta_rel(plane: Plane, subset: Iterable[str], base: Iterable[str]) -> int:
    """Relative predimension delta(X / B) = delta(X u B) - delta(B)."""
    x = _as_subset(plane, subset, "delta_rel")
    b = _as_subset(plane, base, "delta_rel")
    return delta(plane, x | b) - delta(plane, b)


def alpha(plane: Plane, subset: Iterable[str] | None = None) -> int:
    """Mason's alpha, in closed form.

    Mason's recursion is alpha(X) = |X| - rk(X) - sum of alpha(F) over the
    flats F properly inside X.  That sum collapses to

        alpha(X) = |X| - rk(X) - sum of (|l| - 2) over stored lines l < X

    because the empty flat, the points and the trivial two-point lines have
    alpha 0; a stored line's proper subflats are the empty flat and its
    points, so its alpha is its nullity |l| - 2; and the only other flat,
    the ground set, never lies properly inside a subset of the plane.
    """
    x = _as_subset(plane, subset, "alpha")
    return len(x) - rank(plane, x) - sum(len(l) - 2 for l in plane.lines if l < x)


# --- the min-delta engine ---------------------------------------------------


def _min_delta(
    plane: Plane, seed: frozenset[str], universe: frozenset[str]
) -> tuple[int, frozenset[str], int]:
    """Minimum of delta over seed <= X <= universe, the smallest argmin, and
    delta(seed).

    Selecting a line earns (trace size - 2) and costs one per trace point
    outside the seed.  The best total is a minimum cut of the selection
    network (Picard 1976): source -> line with capacity (trace size - 2),
    line -> point unbounded, point -> sink with capacity 1.  The network
    is bipartite, so its maximum flow is a maximum b-matching (see
    _select), and the best gain is the credited gain plus the units the
    lines are left short.  The source side of the minimal minimum cut is
    the inclusion-minimal optimal selection, and the smallest minimizer
    keeps exactly the points covered by two or more of its lines.
    A line whose trace lies inside the seed costs nothing, so its gain is
    credited directly and it takes no units: it covers no point outside the
    seed, so neither the value nor the smallest minimizer changes.  The same
    line pass sums the seed's own nullity: a credited line's trace is its
    trace on the seed, and only a costed line needs its points inside the
    seed counted.
    """
    credited = 0
    seed_nullity = 0
    reach: list[tuple[str, ...]] = []  # points outside the seed, per costed line
    demand: list[int] = []  # units each costed line may take
    for line in plane.lines:
        t = line & universe
        if len(t) < 3:
            continue
        outside = t - seed
        if outside:
            reach.append(tuple(outside))
            demand.append(len(t) - 2)
            inside = len(t) - len(outside)
            if inside >= 3:
                seed_nullity += inside - 2
        else:
            credited += len(t) - 2
            seed_nullity += len(t) - 2

    short, side = _select(reach, demand)
    degree: dict[str, int] = {}
    for i in side:
        for p in reach[i]:
            degree[p] = degree.get(p, 0) + 1
    minimizer = seed | {p for p, d in degree.items() if d >= 2}
    best_gain = credited + sum(short)
    return len(seed) - best_gain, minimizer, len(seed) - seed_nullity


def _select(
    reach: list[tuple[str, ...]], demand: list[int]
) -> tuple[list[int], list[int]]:
    """Solve a selection network as a maximum b-matching.

    Line i may take up to demand[i] of its points reach[i], and each point
    serves one line.  Every unit is placed along a shortest alternating
    path.  A line that fails to place a unit keeps its shortfall: no later
    augmentation gives it a path (Kuhn 1955), so the matching ends maximum.
    Returns the units each line is left short and the lines of the minimal
    minimum cut's source side: those that alternating paths reach from the
    short ones, the same for every maximum matching.  Every point such a
    line reaches serves some line, or there would be an augmenting path.
    """
    short = list(demand)
    owner: dict[str, int] = {}  # point -> the line it serves
    for i, points in enumerate(reach):
        for p in points:  # free points first: each is a one-step path
            if short[i] and p not in owner:
                owner[p] = i
                short[i] -= 1
        while short[i] and _augment(i, reach, owner):
            short[i] -= 1
    side = [i for i, units in enumerate(short) if units]
    seen = set(side)
    for i in side:
        for p in reach[i]:
            holder = owner[p]
            if holder not in seen:
                seen.add(holder)
                side.append(holder)
    return short, side


def _augment(start: int, reach: list[tuple[str, ...]], owner: dict[str, int]) -> bool:
    """Place one more unit for line `start` along a shortest alternating
    path: each line on it hands the point it was reached by to the line
    before, and the last one takes a free point.  False if there is none."""
    came_from: dict[int, tuple[int, str] | None] = {start: None}
    queue = [start]
    for i in queue:
        for p in reach[i]:
            holder = owner.get(p)
            if holder is None:
                step: tuple[int, str] | None = (i, p)
                while step is not None:
                    i, p = step
                    owner[p] = i
                    step = came_from[i]
                return True
            if holder not in came_from:
                came_from[holder] = (i, p)
                queue.append(holder)
    return False


def _seed_and_universe(
    plane: Plane,
    subset: Iterable[str],
    within: Iterable[str] | None,
    what: str,
) -> tuple[frozenset[str], frozenset[str]]:
    universe = _as_subset(plane, within, what)
    seed = frozenset(subset)
    if not seed <= universe:
        raise PreconditionError(f"{what}: subset must lie inside the ambient set")
    return seed, universe


def d_value(
    plane: Plane, subset: Iterable[str], within: Iterable[str] | None = None
) -> int:
    """d(A) = min delta over supersets of A (inside `within` if given)."""
    seed, universe = _seed_and_universe(plane, subset, within, "d_value")
    return _min_delta(plane, seed, universe)[0]


def d_rel(plane: Plane, subset: Iterable[str], base: Iterable[str]) -> int:
    """d(A / B) = d(A u B) - d(B)."""
    a = _as_subset(plane, subset, "d_rel")
    b = _as_subset(plane, base, "d_rel")
    return d_value(plane, a | b) - d_value(plane, b)


def icl(
    plane: Plane, subset: Iterable[str], within: Iterable[str] | None = None
) -> frozenset[str]:
    """Intrinsic closure: the smallest strong superset of `subset`.

    Equals the inclusion-minimal delta-minimizer over supersets; minimizers
    form a lattice, so the smallest one is unique.
    """
    seed, universe = _seed_and_universe(plane, subset, within, "icl")
    return _min_delta(plane, seed, universe)[1]


def is_strong(
    plane: Plane, subset: Iterable[str], within: Iterable[str] | None = None
) -> bool:
    """A <= B: no superset of A inside B has smaller delta."""
    seed, universe = _seed_and_universe(plane, subset, within, "is_strong")
    value, _, seed_delta = _min_delta(plane, seed, universe)
    return value == seed_delta


def is_k_strong(
    plane: Plane,
    subset: Iterable[str],
    k: int,
    within: Iterable[str] | None = None,
) -> bool:
    """delta never drops when at most k points of the ambient are added."""
    if k < 0:
        raise PreconditionError("is_k_strong: k must be nonnegative")
    seed, universe = _seed_and_universe(plane, subset, within, "is_k_strong")
    free = sorted(universe - seed)
    if k >= len(free):
        return is_strong(plane, seed, universe)
    work = sum(comb(len(free), i) for i in range(1, k + 1))
    guard_work("is_k_strong", work, "increments")
    base = delta(plane, seed)
    for size in range(1, k + 1):
        for extra in combinations(free, size):
            if delta(plane, seed | frozenset(extra)) < base:
                return False
    return True


def in_K0(plane: Plane) -> bool:
    """Hereditary nonnegativity: every subset has delta >= 0."""
    return _min_delta(plane, frozenset(), plane.points)[0] == 0


@dataclass(frozen=True)
class PredimReport:
    delta: int
    alpha: int
    in_k0: bool
    violating_subset: frozenset[str] | None

    def text(self) -> str:
        viol = (
            " ".join(sorted(self.violating_subset))
            if self.violating_subset
            else "-"
        )
        return (
            f"delta: {self.delta}\n"
            f"alpha: {self.alpha}\n"
            f"in_K0: {'true' if self.in_k0 else 'false'}\n"
            f"violating_subset: {viol}\n"
        )


def predim_report(plane: Plane) -> PredimReport:
    value, witness, _ = _min_delta(plane, frozenset(), plane.points)
    ok = value == 0
    return PredimReport(
        delta=delta(plane),
        alpha=alpha(plane),
        in_k0=ok,
        violating_subset=None if ok else witness,
    )
