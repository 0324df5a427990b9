"""Independent icl check through networkx's max-flow.

The selection network is built here from the definition, sharing no code
with planeforge's flow engine: the source pays each line with at least three
points in the universe its nullity |l| - 2, every such line feeds its points
outside the seed with unbounded capacity, and each fed point costs 1 to the
sink.  min delta over seed <= X <= U is then |seed| - (nullity sum - max flow).
"""

from __future__ import annotations

import networkx as nx


def min_delta(plane, seed: frozenset, universe: frozenset) -> int:
    traces = [line & universe for line in plane.lines]
    traces = [t for t in traces if len(t) >= 3]
    g = nx.DiGraph()
    g.add_node("s")
    g.add_node("t")
    profit = 0
    for i, t in enumerate(traces):
        profit += len(t) - 2
        g.add_edge("s", ("l", i), capacity=len(t) - 2)
        for p in t - seed:
            g.add_edge(("l", i), ("p", p))  # no capacity attribute: unbounded
            g.add_edge(("p", p), "t", capacity=1)
    return len(seed) - (profit - nx.maximum_flow_value(g, "s", "t"))


def delta(plane, subset: frozenset) -> int:
    return len(subset) - sum(max(len(l & subset) - 2, 0) for l in plane.lines)


def check_icl(plane, seed: frozenset, closure: frozenset) -> str | None:
    """None if ``closure`` is the smallest delta-minimizer above ``seed``.

    It must contain the seed and reach the minimum; and since minimizers
    are closed under intersection, it is the smallest one exactly when
    dropping any of its non-seed points from the universe raises the minimum.
    """
    if not seed <= closure <= plane.points:
        return "closure does not contain the seed"
    best = min_delta(plane, seed, plane.points)
    if delta(plane, closure) != best:
        return f"delta {delta(plane, closure)} is not the minimum {best}"
    for p in sorted(closure - seed):
        if min_delta(plane, seed, plane.points - {p}) == best:
            return f"a minimizer avoids {p}, so the closure is not the smallest"
    return None
