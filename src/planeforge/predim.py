"""Predimension calculus: delta, Mason's alpha, d-values, strong sets, icl.

delta(X) = |X| - sum over lines of max(|l cap X| - 2, 0) is submodular, so
min { delta(X) : A subseteq X subseteq U } is computable exactly by a
min-cut reduction (select a line, earn its trace nullity, pay one per
covered point outside A).  All the d / strong / icl / K0 operations run
through that engine, which is the only code that builds a flow network;
nothing here enumerates subsets except is_k_strong, whose contract is
genuinely about bounded-size increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf
from typing import Iterable

from .errors import BudgetExceeded, PreconditionError, subset_budget
from .flow import FlowNetwork
from .plane import Plane, rank


def _as_subset(plane: Plane, subset: Iterable[str] | None, what: str) -> frozenset[str]:
    if subset is None:
        return plane.points
    x = frozenset(subset)
    if not x <= plane.points:
        raise PreconditionError(f"{what}: {sorted(x - plane.points)} outside plane")
    return x


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
    outside the seed; a max-flow on the selection network yields the best
    total.  The source side of the residual graph is the inclusion-minimal
    optimal selection, and the smallest minimizer keeps exactly the points
    covered by two or more selected lines.  A line whose trace lies inside
    the seed costs nothing, so its gain is credited directly and it gets no
    node: it covers no point outside the seed, so neither the value nor the
    smallest minimizer changes, and a large seed leaves a network made only
    of the lines that reach past it.  The same line pass sums the seed's
    own nullity: a credited line's trace is its trace on the seed, and only
    a costed line needs its points inside the seed counted.
    """
    profit_total = 0
    seed_nullity = 0
    traces = []  # (trace, its points outside the seed), one per costed line
    for line in plane.lines:
        t = line & universe
        if len(t) < 3:
            continue
        outside = t - seed
        if outside:
            traces.append((t, outside))
            inside = len(t) - len(outside)
            if inside >= 3:
                seed_nullity += inside - 2
        else:
            profit_total += len(t) - 2
            seed_nullity += len(t) - 2
    costed = sorted(set().union(*(o for _, o in traces)))
    pt_node = {p: 2 + len(traces) + i for i, p in enumerate(costed)}

    net = FlowNetwork(2 + len(traces) + len(costed))
    source, sink = 0, 1
    for i, (t, outside) in enumerate(traces):
        node = 2 + i
        profit_total += len(t) - 2
        net.add_edge(source, node, len(t) - 2)
        for p in outside:
            net.add_edge(node, pt_node[p], inf)
    for p in costed:
        net.add_edge(pt_node[p], sink, 1)

    best_gain = profit_total - int(net.max_flow(source, sink))
    side = net.source_side(source)

    degree: dict[str, int] = {}
    for i, (_, outside) in enumerate(traces):
        if 2 + i in side:
            for p in outside:
                degree[p] = degree.get(p, 0) + 1
    minimizer = seed | {p for p, d in degree.items() if d >= 2}
    return len(seed) - best_gain, minimizer, len(seed) - seed_nullity


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
    a = frozenset(subset)
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
    budget = subset_budget()
    # work > 2**budget, without building 2**budget for a huge budget
    if budget < work.bit_length() and work > 2**budget:
        raise BudgetExceeded(
            f"is_k_strong: {work} increments exceed the subset budget"
        )
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
