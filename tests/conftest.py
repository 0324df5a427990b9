import os
import random
from itertools import combinations
from pathlib import Path

import pytest

import planeforge
from planeforge import Plane, make_plane

DATA = Path(__file__).parent / "data"


def library_env() -> dict:
    """Environment for a child interpreter that imports this planeforge."""
    src = os.path.dirname(os.path.dirname(planeforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def nd10() -> Plane:
    from planeforge import non_desarguesian_plane

    return non_desarguesian_plane()


@pytest.fixture
def fig2() -> Plane:
    return make_plane("abcdef", ["adf", "cde", "bef"])


@pytest.fixture
def fano() -> Plane:
    return make_plane(
        "1234567", ["123", "145", "167", "246", "257", "347", "356"]
    )


def random_plane(rng: random.Random, max_points: int = 10) -> Plane:
    """A valid plane with up to max_points points and a few random lines."""
    n = rng.randint(0, max_points)
    pts = [f"p{i}" for i in range(n)]
    lines = []
    taken_pairs = set()
    if n >= 3:
        for _ in range(rng.randint(0, n)):
            size = rng.choice([3, 3, 3, 4, 4, 5])
            if size > n:
                continue
            cand = tuple(sorted(rng.sample(pts, size)))
            pairs = set(combinations(cand, 2))
            if pairs & taken_pairs:
                continue
            taken_pairs |= pairs
            lines.append(cand)
    return make_plane(pts, lines)


def random_lines(rng: random.Random, pts, tries: int) -> list:
    """Random 3- and 4-point lines over pts, any two sharing at most one point."""
    lines, taken = [], set()
    for _ in range(tries):
        if len(pts) < 3:
            break
        cand = frozenset(rng.sample(pts, rng.randint(3, min(4, len(pts)))))
        pairs = {frozenset(pq) for pq in combinations(cand, 2)}
        if not pairs & taken:
            taken |= pairs
            lines.append(cand)
    return lines
