import random
from math import inf

from planeforge.flow import FlowNetwork

from .oracles import oracle_min_cut


def test_single_edge():
    net = FlowNetwork(2)
    net.add_edge(0, 1, 5)
    assert net.max_flow(0, 1) == 5
    assert net.source_side(0) == {0}


def test_series_takes_bottleneck():
    net = FlowNetwork(3)
    net.add_edge(0, 1, 5)
    net.add_edge(1, 2, 3)
    assert net.max_flow(0, 2) == 3
    # cut sits on the 1->2 edge, so node 1 stays on the source side
    assert net.source_side(0) == {0, 1}


def test_parallel_paths_add_up():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 2)
    net.add_edge(1, 3, 2)
    net.add_edge(0, 2, 3)
    net.add_edge(2, 3, 1)
    assert net.max_flow(0, 3) == 3


def test_classic_augmenting_path_crossover():
    # the textbook diamond with a cross edge; greedy path choices must not
    # strand capacity
    net = FlowNetwork(4)
    net.add_edge(0, 1, 1)
    net.add_edge(0, 2, 1)
    net.add_edge(1, 2, 1)
    net.add_edge(1, 3, 1)
    net.add_edge(2, 3, 1)
    assert net.max_flow(0, 3) == 2


def test_infinite_capacity_edges():
    net = FlowNetwork(4)
    net.add_edge(0, 1, 4)
    net.add_edge(1, 2, inf)
    net.add_edge(2, 3, 2)
    assert net.max_flow(0, 3) == 2
    side = net.source_side(0)
    assert 0 in side and 3 not in side
    assert 1 in side and 2 in side  # infinite edge never separates them


def test_disconnected_sink():
    net = FlowNetwork(3)
    net.add_edge(0, 1, 7)
    assert net.max_flow(0, 2) == 0
    assert net.source_side(0) == {0, 1}


def test_random_networks_match_min_cut():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 7)
        edges = []
        net = FlowNetwork(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    c = rng.randint(0, 6)
                    edges.append((u, v, c))
                    net.add_edge(u, v, c)
        s, t = 0, n - 1
        assert net.max_flow(s, t) == oracle_min_cut(n, edges, s, t)[0]


def test_source_side_is_a_min_cut():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = []
        net = FlowNetwork(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    c = rng.randint(0, 6)
                    edges.append((u, v, c))
                    net.add_edge(u, v, c)
        s, t = 0, n - 1
        value = net.max_flow(s, t)
        side = net.source_side(s)
        assert s in side and (t not in side or value == 0)
        if t not in side:
            crossing = sum(c for u, v, c in edges if u in side and v not in side)
            assert crossing == value


def _random_arcs(rng, net, count, s, t):
    """Add `count` random arcs with integer or infinite capacities.

    Arcs out of s and into t stay finite, so every minimum cut is finite.
    """
    arcs = []
    for _ in range(count):
        u, v = rng.sample(range(net.n), 2)
        c = rng.choice([0, 1, 1, 2, 3, 5, inf])
        if c == inf and (u == s or v == t):
            c = rng.randint(1, 4)
        arcs.append((u, v, c))
        net.add_edge(u, v, c)
    return arcs


def test_solved_networks_match_oracle_min_cut():
    # max_flow is the minimum cut capacity and source_side is the
    # inclusion-minimal minimum cut, which every maximum flow leaves.
    rng = random.Random(91)
    for _ in range(300):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        net = FlowNetwork(n)
        arcs = _random_arcs(rng, net, rng.randint(0, 3 * n), s, t)
        value, side = oracle_min_cut(n, arcs, s, t)
        assert net.max_flow(s, t) == value
        assert net.source_side(s) == side
