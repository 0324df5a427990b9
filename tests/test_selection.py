"""The min-delta engine's matching against brute-force minimum cuts.

The selection network of a (plane, seed, universe) has a source, a sink, one
node per line whose trace in the universe has three or more points and
reaches past the seed, and one node per point those lines reach: source ->
line with capacity (trace size - 2), line -> point unbounded, point -> sink
with capacity 1.  Its minimum cut, found by enumeration, must be the number
of units the matching places, and the cut's minimal source side must be
the lines the engine reaches plus their points.
"""

import random
from math import inf

from planeforge import make_plane
from planeforge.predim import _select

from .conftest import random_lines
from .oracles import oracle_min_cut


def _selection_network(plane, seed, universe):
    lines = []
    for line in sorted(plane.lines, key=sorted):
        trace = line & universe
        if len(trace) >= 3 and trace - seed:
            lines.append((len(trace) - 2, sorted(trace - seed)))
    points = sorted({p for _, outside in lines for p in outside})
    node = {p: 2 + len(lines) + j for j, p in enumerate(points)}
    arcs = [(0, 2 + i, cap) for i, (cap, _) in enumerate(lines)]
    arcs += [(2 + i, node[p], inf) for i, (_, out) in enumerate(lines) for p in out]
    arcs += [(node[p], 1, 1) for p in points]
    return lines, node, 2 + len(lines) + len(points), arcs


def _cases(rng, count, max_nodes):
    made = 0
    while made < count:
        n = rng.randint(3, 9)
        points = [f"p{i}" for i in range(n)]
        plane = make_plane(points, random_lines(rng, points, rng.randint(0, 3 * n)))
        universe = frozenset(p for p in points if rng.random() < 0.9)
        odds = rng.choice([0, 0.3, 0.5, 0.7])
        seed = frozenset(p for p in points if p in universe and rng.random() < odds)
        lines, node, n_nodes, arcs = _selection_network(plane, seed, universe)
        if n_nodes <= max_nodes:
            made += 1
            yield lines, node, n_nodes, arcs


def test_matching_meets_the_minimum_cut():
    rng = random.Random(12)
    nonempty = 0
    for lines, node, n, arcs in _cases(rng, 400, 14):
        # each line's points in a random order, so matchings vary
        reach = [tuple(rng.sample(out, len(out))) for _, out in lines]
        demand = [cap for cap, _ in lines]
        short, side = _select(reach, demand)
        value, source_side = oracle_min_cut(n, arcs, 0, 1)
        assert sum(demand) - sum(short) == value
        assert len(side) == len(set(side))
        reached = {0} | {2 + i for i in side}
        reached |= {node[p] for i in side for p in reach[i]}
        assert reached == source_side
        nonempty += bool(side)
    assert nonempty >= 40  # enough cases cut inside the network


def test_hand_solved_selections():
    # Two 4-point lines through one point, seed empty: each takes two of
    # its own points, so no line is short and the side is empty.
    short, side = _select([("s", "a1", "a2", "a3"), ("s", "b1", "b2", "b3")], [2, 2])
    assert short == [0, 0] and side == []
    # Three lines each ask one unit of the same two points: the last stays
    # short, and its alternating paths reach the other two.
    short, side = _select([("p", "q"), ("q", "p"), ("p", "q")], [1, 1, 1])
    assert short == [0, 0, 1] and sorted(side) == [0, 1, 2]
