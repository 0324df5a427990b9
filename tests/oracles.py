"""Naive reference implementations used to cross-check the library.

Everything here works by full enumeration over all supersets, straight from
the definitions, sharing no code with the min-cut engine.  Exponential on
purpose — only run these on small planes.  The wedge helpers
(lines_based_in, is_subgeometry, rank2_flats, is_wedge_subgeometry) state
the wedge condition on whole planes; the library decides it locally.  The
networkx helpers (networkx_min_delta, networkx_is_strong) are one
exception to enumeration: a max-flow from networkx, for planes too big to
enumerate, still sharing no code with the library's engine.  The others
key the library's own line sets another way than the library does:
oracle_extensions_by_search by the labelling search, where the library
reads a line table, and oracle_planes_by_labelling by labelling every
census line set in full, where the library buckets them and searches for
the keys it has.
"""

import re
from itertools import combinations, permutations, product
from math import inf

from planeforge import InvalidPlaneError, closure


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


def networkx_min_delta(plane, seed, universe=None) -> int:
    """min delta(X) over seed <= X <= universe, by networkx's max-flow.

    The selection network comes from the definition: the source pays each
    line with at least three points in the universe its nullity |l| - 2,
    the line feeds each of its points outside the seed with unbounded
    capacity, and each fed point costs 1 to the sink.  A minimizer can take
    every line it meets twice whole, as a point on it adds 1 and takes 1,
    so the minimum is |seed| less the most the selected lines can earn.
    """
    import networkx as nx  # here: perfbench imports this module without it

    seed = frozenset(seed)
    universe = plane.points if universe is None else frozenset(universe)
    traces = [t for t in (line & universe for line in plane.lines) if len(t) >= 3]
    g = nx.DiGraph()
    g.add_nodes_from("st")
    for i, t in enumerate(traces):
        g.add_edge("s", ("l", i), capacity=len(t) - 2)
        for p in t - seed:
            g.add_edge(("l", i), ("p", p))  # no capacity attribute: unbounded
            g.add_edge(("p", p), "t", capacity=1)
    profit = sum(len(t) - 2 for t in traces)
    return len(seed) - (profit - nx.maximum_flow_value(g, "s", "t"))


def networkx_is_strong(plane, subset, within=None) -> bool:
    seed = frozenset(subset)
    return networkx_min_delta(plane, seed, within) == oracle_delta(plane, seed)


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


def oracle_placement_order(sub, fixed) -> list:
    """The free points of sub in the embedding search's placement order,
    counted pair by pair: next comes the point with the most placed points
    on a common stored line, then the most lines, then the greatest name.
    Each pair is looked up by a scan of every line."""
    placed = set(fixed)
    order = []
    remaining = set(sub.points) - placed

    def priority(p):
        shared = sum(1 for q in placed if any({p, q} <= line for line in sub.lines))
        return shared, sum(1 for line in sub.lines if p in line), p

    while remaining:
        best = max(remaining, key=priority)
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def oracle_validate(plane) -> None:
    """The structural checks with the line axiom tested pair by pair.

    Each check walks its candidates in order and reports the first
    offender: the names by repr, the lines in sorted line order, and every
    two stored lines, in sorted line order, must meet in at most one point.
    """
    for p in sorted(plane.points, key=repr):
        if not (isinstance(p, str) and re.match(r"^[^\s#]+$", p) and p.isprintable()):
            raise InvalidPlaneError(f"bad point name: {p!r}")
    lines = sorted(plane.lines, key=sorted)
    for line in lines:
        if len(line) < 3:
            raise InvalidPlaneError(
                f"line {sorted(line)} has {len(line)} points; lines need at least 3"
            )
        stray = line - plane.points
        if stray:
            raise InvalidPlaneError(
                f"line {sorted(line)} uses unknown points {sorted(stray)}"
            )
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


# --- the wedge condition on whole planes -----------------------------------


def lines_based_in(plane, base) -> frozenset:
    """Stored lines meeting `base` in at least two points."""
    b = frozenset(base)
    return frozenset(line for line in plane.lines if len(line & b) >= 2)


def is_subgeometry(sub, sup) -> bool:
    """Points carry over and every sub-line lies inside some sup-line."""
    if not sub.points <= sup.points:
        return False
    return all(
        any(line <= sup_line for sup_line in sup.lines) for line in sub.lines
    )


def rank2_flats(plane) -> frozenset:
    """Stored lines plus the trivial pair flats not covered by any line."""
    covered = {frozenset(pq) for line in plane.lines for pq in combinations(line, 2)}
    pairs = map(frozenset, combinations(plane.points, 2))
    return plane.lines | frozenset(p for p in pairs if p not in covered)


def is_wedge_subgeometry(sub, sup) -> bool:
    """Whether `sub` sits wedge-compatibly inside `sup`.

    Requires (a) distinct rank-2 flats of sub (trivial pairs included) to
    have distinct closures in sup, and (b) no outside point of sup to lie
    on two such closures.  Induced subplanes satisfy (a) automatically;
    (b) fails exactly when an outside point sits on two sup-lines that
    each meet sub twice — the configuration that would make two merged
    lines cross twice in an amalgam.  The library decides (b) for an
    induced sub on the lines meeting it twice, pair by pair
    (amalgam._wedge); this is the whole-plane statement.
    """
    if not is_subgeometry(sub, sup):
        return False
    closures = [closure(sup, flat) for flat in rank2_flats(sub)]
    if len(set(closures)) != len(closures):
        return False
    seen = set()
    for line in lines_based_in(sup, sub.points):
        outside = line - sub.points
        if outside & seen:
            return False
        seen |= outside
    return True


def oracle_free_amalgam(a, b, shared):
    """free_amalgam with every check run on whole planes.

    Validates both inputs pairwise, checks the shared part by restricting
    both sides, names the least shared pair, in sorted order, that a line
    of each side passes through without a line of C on it, merges the two
    lines through each line of C, and validates the union pairwise.
    Returns (plane, identified_lines) or raises what free_amalgam raises.
    """
    from planeforge import ExchangeViolation, Plane, PreconditionError, restrict

    oracle_validate(a)
    oracle_validate(b)
    c = frozenset(shared)
    if a.points & b.points != c:
        raise PreconditionError(
            "free_amalgam: shared part must equal the point intersection"
        )
    core = restrict(a, c)
    if core != restrict(b, c):
        raise PreconditionError(
            "free_amalgam: the two planes disagree on the shared part"
        )
    for pair in map(frozenset, combinations(sorted(c), 2)):
        if any(pair <= line for line in core.lines):
            continue
        la = [line for line in a.lines if pair <= line]
        lb = [line for line in b.lines if pair <= line]
        if la and lb:
            raise ExchangeViolation(
                f"lines {sorted(la[0])} and {sorted(lb[0])} both "
                f"extend the shared pair {sorted(pair)}"
            )
    lines, identified = set(a.lines | b.lines), set()
    for shared_line in core.lines:
        la = next(line for line in a.lines if shared_line <= line)
        lb = next(line for line in b.lines if shared_line <= line)
        if la != lb:
            lines -= {la, lb}
            lines.add(la | lb)
            identified.add((la, lb))
    out = Plane(a.points | b.points, frozenset(lines))
    try:
        oracle_validate(out)
    except InvalidPlaneError as exc:
        raise ExchangeViolation(str(exc)) from exc
    return out, frozenset(identified)


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
    for cls in _color_classes(plane).values():
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


def oracle_planes_by_labelling(n):
    """census._planes_exactly's planes, keyed by canonical_labeling.

    Walks the library's line sets (_strong_line_sets) over the empty plane
    and labels each one in full, with no buckets and no directed search;
    the first line set of each key is kept, relabelled onto letters by the
    labelling that attains the key, and the keys are sorted.  Returns the
    planes as a list.
    """
    from planeforge import make_plane
    from planeforge.census import _fresh_names, _strong_line_sets, canonical_labeling

    empty = make_plane(())
    names = _fresh_names(empty, n)
    found = {}
    for lines in _strong_line_sets(empty, names):
        key, label = canonical_labeling(make_plane(names, lines))
        if key not in found:
            name = {p: chr(ord("a") + i) for p, i in label.items()}
            relabelled = [[name[p] for p in l] for l in lines]
            found[key] = make_plane(name.values(), relabelled)
    return [found[key] for key in sorted(found)]


def oracle_extensions_by_search(base, m):
    """census._strong_extensions_exactly keyed by the labelling search.

    Walks the library's line sets (_strong_line_sets) but keys each one by
    its own _least_encoding call, the branch and bound, with the base
    points fixed at labels 0..b-1 in name order and the new points searched
    as one class; the first line set of each key is kept, and the keys are
    sorted.  Returns the templates as a list.
    """
    from planeforge import make_plane
    from planeforge.census import _fresh_names, _least_encoding, _strong_line_sets

    new = _fresh_names(base, m)
    allpts = list(base.points) + new
    choices = [[p] for p in sorted(base.points)] + [new] * m
    found = {}
    for lines in _strong_line_sets(base, new):
        key = _least_encoding(lines, choices)[0]
        if key not in found:
            found[key] = make_plane(allpts, lines)
    return [found[key] for key in sorted(found)]
