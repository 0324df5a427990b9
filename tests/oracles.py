"""Naive reference implementations used to cross-check the library.

Everything here works by full enumeration over all supersets, straight from
the definitions, sharing no code with the flow-based engine.  Exponential on
purpose — only run these on small planes.
"""

from itertools import combinations, permutations


def oracle_delta(plane, subset=None) -> int:
    pts = plane.points if subset is None else frozenset(subset)
    total = len(pts)
    for line in plane.lines:
        hit = len(line & pts)
        if hit > 2:
            total -= hit - 2
    return total


def _supersets(plane, seed, within):
    universe = sorted((within if within is not None else plane.points) - seed)
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            yield seed | frozenset(combo)


def oracle_d_value(plane, subset, within=None) -> int:
    seed = frozenset(subset)
    return min(oracle_delta(plane, sup) for sup in _supersets(plane, seed, within))


def oracle_icl(plane, subset, within=None) -> frozenset:
    """Inclusion-minimal superset achieving the minimum delta.

    Collects every minimizer and picks the ones nothing else sits below;
    the theory says there is exactly one, and that is asserted here rather
    than relied on.
    """
    seed = frozenset(subset)
    best = oracle_d_value(plane, subset, within)
    argmins = [s for s in _supersets(plane, seed, within) if oracle_delta(plane, s) == best]
    minimal = [s for s in argmins if not any(t < s for t in argmins)]
    assert len(minimal) == 1, f"minimizer lattice has {len(minimal)} minimal elements"
    return minimal[0]


def oracle_is_strong(plane, subset, within=None) -> bool:
    seed = frozenset(subset)
    return oracle_d_value(plane, seed, within) == oracle_delta(plane, seed)


def oracle_in_K0(plane) -> bool:
    return oracle_d_value(plane, frozenset()) == 0


def oracle_rank(plane, subset=None) -> int:
    pts = plane.points if subset is None else frozenset(subset)
    if len(pts) <= 2:
        return len(pts)
    if any(pts <= line for line in plane.lines):
        return 2
    return 3


def oracle_flats(plane) -> list:
    """Every flat, smallest first: subsets that adding any point would raise in rank."""
    pts = sorted(plane.points)
    out = []
    for size in range(len(pts) + 1):
        for combo in combinations(pts, size):
            flat = frozenset(combo)
            r = oracle_rank(plane, flat)
            if all(oracle_rank(plane, flat | {p}) > r for p in plane.points - flat):
                out.append(flat)
    return out


def oracle_alpha(plane, subset=None) -> int:
    """Mason's recursion: alpha(X) = |X| - rk(X) - sum of alpha over flats F < X."""
    x = plane.points if subset is None else frozenset(subset)
    flats = oracle_flats(plane)
    memo = {}

    def value(s):
        return len(s) - oracle_rank(plane, s) - sum(memo[f] for f in flats if f < s)

    for flat in flats:  # smallest first, so every proper subflat is ready
        memo[flat] = value(flat)
    return value(x)


def oracle_embeddings(sub, sup, fixed=None) -> list:
    """Every induced embedding of sub into sup extending `fixed`.

    Tries each injective map and keeps it when the traces of sup's lines on
    the image with three or more points are exactly the images of sub's lines.
    """
    fixed = dict(fixed or {})
    src = sorted(sub.points)
    out = []
    for target in permutations(sorted(sup.points), len(src)):
        mapping = dict(zip(src, target))
        if any(mapping[p] != q for p, q in fixed.items()):
            continue
        image = frozenset(target)
        traces = {line & image for line in sup.lines if len(line & image) >= 3}
        if traces == {frozenset(mapping[p] for p in line) for line in sub.lines}:
            out.append(mapping)
    return out
