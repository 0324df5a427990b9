"""Naive reference implementations used to cross-check the library.

Everything here works by full enumeration over all supersets, straight from
the definitions, sharing no code with the min-cut engine.  Exponential on
purpose — only run these on small planes.
"""

import re
from itertools import combinations, permutations, product
from math import inf

from planeforge import InvalidPlaneError


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


def oracle_decompose(plane, lower, upper) -> tuple:
    """decompose's chain by walking subsets: each step takes the first
    proper X between the last set and upper, by size and then in name
    order, with the last set strong in X and X strong in upper, or upper
    itself when there is none.  Assumes lower is strong in upper."""
    up = frozenset(upper)
    chain = [frozenset(lower)]
    while chain[-1] != up:
        lo = chain[-1]
        free = sorted(up - lo)
        mids = (
            lo | frozenset(mid)
            for size in range(1, len(free))
            for mid in combinations(free, size)
        )
        chain.append(next(
            (x for x in mids
             if oracle_is_strong(plane, lo, x) and oracle_is_strong(plane, x, up)),
            up,
        ))
    return tuple(chain)


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


def oracle_validate(plane) -> None:
    """The structural checks with the line axiom tested pair by pair.

    Every two stored lines, in sorted line order, must meet in at most one
    point; the first pair that does not is reported.
    """
    for p in plane.points:
        if not (isinstance(p, str) and re.match(r"^[^\s#]+$", p) and p.isprintable()):
            raise InvalidPlaneError(f"bad point name: {p!r}")
    for line in plane.lines:
        if len(line) < 3:
            raise InvalidPlaneError(
                f"line {sorted(line)} has {len(line)} points; lines need at least 3"
            )
        stray = line - plane.points
        if stray:
            raise InvalidPlaneError(
                f"line {sorted(line)} uses unknown points {sorted(stray)}"
            )
    lines = sorted(plane.lines, key=sorted)
    for i, l1 in enumerate(lines):
        for l2 in lines[i + 1 :]:
            common = l1 & l2
            if len(common) > 1:
                raise InvalidPlaneError(
                    f"lines {sorted(l1)} and {sorted(l2)} share {sorted(common)}"
                )


def oracle_min_cut(n, arcs, s, t):
    """(capacity, side) of the inclusion-minimal minimum s-t cut.

    Enumerates every node set holding s but not t, prices the arcs leaving
    it, and keeps the cheapest ones; minimum cuts are closed under
    intersection, so exactly one of them lies inside all the others, and
    that is asserted here rather than relied on.
    """
    others = [v for v in range(n) if v not in (s, t)]
    cuts = {}
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            side = frozenset((s, *combo))
            cuts[side] = sum(c for u, v, c in arcs if u in side and v not in side)
    best = min(cuts.values())
    argmins = [side for side, c in cuts.items() if c == best]
    minimal = [x for x in argmins if not any(y < x for y in argmins)]
    assert best < inf and len(minimal) == 1, (best, minimal)
    return best, minimal[0]


def oracle_canonical_amalgam(a, b, shared):
    """canonical_amalgam with every check run on whole planes.

    Checks the shared part by restricting both sides, the wedge condition
    by is_wedge_subgeometry, the amalgam by a pairwise validate, and
    additivity by three whole-plane deltas.  Returns (plane,
    identified_lines) or raises what canonical_amalgam raises.
    """
    from planeforge import (
        NotWedgeSubgeometry,
        Plane,
        PlaneError,
        PreconditionError,
        is_wedge_subgeometry,
        restrict,
    )

    c = frozenset(shared)
    if a.points & b.points != c:
        raise PreconditionError(
            "canonical_amalgam: shared part must equal the point intersection"
        )
    core = restrict(a, c)
    if core != restrict(b, c):
        raise PreconditionError(
            "canonical_amalgam: the two planes disagree on the shared part"
        )
    for name, side in (("first", a), ("second", b)):
        if not is_wedge_subgeometry(core, side):
            raise NotWedgeSubgeometry(
                f"canonical_amalgam: shared part is not wedge-compatible "
                f"in the {name} plane"
            )
    classes, lines = {}, set()
    for side, plane in enumerate((a, b)):
        for line in plane.lines:
            trace = line & c
            if len(trace) >= 2:
                classes.setdefault(trace, [None, None])[side] = line
            else:
                lines.add(line)
    identified = set()
    for trace, (la, lb) in classes.items():
        lines.add((la or trace) | (lb or trace))
        if la and lb and la != lb:
            identified.add((la, lb))
    out = Plane(a.points | b.points, frozenset(lines))
    oracle_validate(out)
    gained = oracle_delta(a) + oracle_delta(b) - oracle_delta(a, c)
    if oracle_delta(out) != gained:
        raise PlaneError(
            f"canonical amalgam broke predimension additivity: "
            f"{oracle_delta(out)} != {gained}"
        )
    return out, frozenset(identified)


def oracle_canonical_labeling(plane):
    """canonical_labeling by trying every permutation of every searched class.

    Shares only the color refinement with the library.  Classes are
    permuted in nested order, the first class outermost and each in
    itertools.permutations order, and the first labelling with the least
    line encoding is kept.  Returns (key, label) like canonical_labeling.
    """
    from planeforge.census import _color_classes

    through = plane.lines_through
    fixed, searched, offset = {}, [], 0
    for cls in _color_classes(plane):
        if len(cls) == 1 or not through[cls[0]]:
            fixed.update((p, offset + i) for i, p in enumerate(cls))
        else:
            searched.append((cls, offset))
        offset += len(cls)
    best_key = best_label = None
    for perms in product(*(permutations(cls) for cls, _ in searched)):
        label = dict(fixed)
        for perm, (_, off) in zip(perms, searched):
            label.update((p, off + i) for i, p in enumerate(perm))
        key = tuple(sorted(tuple(sorted(label[p] for p in l)) for l in plane.lines))
        if best_key is None or key < best_key:
            best_key, best_label = key, label
    return (len(plane.points), best_key), best_label


def oracle_least_encoding(lines, choices):
    """_least_encoding by trying every permutation of every searched class.

    ``choices`` has the shape its callers give it: a label with one choice
    is fixed, and a searched class of k points is the same list of them for
    k labels in a row.  Classes are permuted in nested order, the first
    outermost and each in itertools.permutations order, and the first order
    with the least line encoding is kept.  Returns (encoding, order).
    """
    classes, d = [], 0
    while d < len(choices):
        classes.append(choices[d])
        d += len(choices[d])
    best = None
    for perms in product(*(permutations(cls) for cls in classes)):
        order = [p for perm in perms for p in perm]
        label = {p: i for i, p in enumerate(order)}
        encoding = tuple(sorted(tuple(sorted(label[p] for p in l)) for l in lines))
        if best is None or encoding < best[0]:
            best = encoding, order
    return best


def oracle_strong_extensions(base, k):
    """enumerate_strong_extensions by generating every induced line set and
    keeping those the base is strong in, by the library's min-cut
    is_strong, one solve per over-base key.

    Shares no code with the library's pruned generator: the line sets, the
    fresh names and the over-base key are built here.  Returns the same
    list, in the same order, or raises what enumerate_strong_extensions
    raises.
    """
    from planeforge import (
        BudgetExceeded,
        PreconditionError,
        in_K0,
        is_strong,
        make_plane,
        validate,
    )
    from planeforge.census import EXTENSION_CAP

    if k > EXTENSION_CAP:
        raise BudgetExceeded(
            f"extension search capped at {EXTENSION_CAP} new points, requested {k}"
        )
    if k < 0:
        raise PreconditionError("extension bound must be nonnegative")
    validate(base)
    if not in_K0(base):
        raise PreconditionError("base plane is not hereditarily nonnegative")

    found, seen = {}, set()
    for m in range(1, k + 1):
        new, i = [], 1
        while len(new) < m:
            if f"n{i}" not in base.points:
                new.append(f"n{i}")
            i += 1
        allpts = list(base.points) + new
        for lines in _oracle_extension_line_sets(base, new):
            key = _oracle_over_base_key(new, lines)
            if key in seen:
                continue
            seen.add(key)
            plane = make_plane(allpts, lines)
            if is_strong(plane, base.points):
                found[key] = plane
    return [p for _, p in sorted(found.items(), key=lambda kv: kv[0])]


def _oracle_extension_line_sets(base, new):
    """Every valid line set extending ``base`` by ``new`` that keeps the base
    induced, depth first: base lines absorb subsets of the new points, in
    turn, then further lines of at most two base points and some new points
    are added in ascending order; two lines share at most one point."""
    allpts = sorted(base.points) + list(new)
    pair_index = {
        tuple(sorted(pair)): i for i, pair in enumerate(combinations(allpts, 2))
    }

    def mask(pts):
        m = 0
        for pair in combinations(sorted(pts), 2):
            m |= 1 << pair_index[pair]
        return m

    base_lines = sorted(tuple(sorted(l)) for l in base.lines)
    new_subsets = []
    for size in range(1, len(new) + 1):
        new_subsets.extend(combinations(new, size))
    options = []
    for bl in base_lines:
        opts = [(bl, 0)]
        for sub in new_subsets:
            ext = tuple(sorted(bl + sub))
            opts.append((ext, mask(ext) & ~mask(bl)))
        options.append(opts)
    extra = []
    for bsize in range(0, 3):
        for bpart in combinations(sorted(base.points), bsize):
            for sub in new_subsets:
                if bsize + len(sub) >= 3:
                    line = tuple(sorted(bpart + sub))
                    extra.append((line, mask(line)))
    extra.sort()

    def pick_base(i, lines, used):
        if i == len(options):
            yield from pick_extra(0, lines, used)
            return
        for line, extra_mask in options[i]:
            if not extra_mask & used:
                lines.append(line)
                yield from pick_base(i + 1, lines, used | extra_mask)
                lines.pop()

    def pick_extra(start, lines, used):
        yield tuple(lines)
        for j in range(start, len(extra)):
            line, line_mask = extra[j]
            if not line_mask & used:
                lines.append(line)
                yield from pick_extra(j + 1, lines, used | line_mask)
                lines.pop()

    used = 0
    for bl in base_lines:
        used |= mask(bl)
    yield from pick_base(0, [], used)


def _oracle_over_base_key(new, lines):
    """Least encoding of a line set over every order of the new points."""
    best = None
    for perm in permutations(range(len(new))):
        rename = {p: (1, perm[i]) for i, p in enumerate(new)}
        encoded = tuple(
            sorted(tuple(sorted(rename.get(p, (0, p)) for p in l)) for l in lines)
        )
        if best is None or encoded < best:
            best = encoded
    return (len(new), best)
