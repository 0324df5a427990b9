"""Census of small planes and strong-extension classes, up to isomorphism.

Both come from one line-set search, _strong_line_sets, which extends a base
plane by new points.  A plane is in K0 exactly when the empty set is strong
in it, so the census of planes on n points is the strong extensions of the
empty plane by n points, collapsed by canonical key; class representatives
are relabelled onto letters through the canonical labelling that attains
the key, and the census is ordered by key.

The search decides strength over the base while it generates, not by a
min-cut afterwards: the base is strong exactly when no nonempty set Y of
new points loses more than |Y| to the lines, and a line never lowers a
loss, so a branch that breaks this is cut with everything below it.  It
also takes the new points in first-use order, which keeps the first line
set of every class over the base.  Both cuts are exact (see
_strong_line_sets).  A plane's key comes from a branch-and-bound search
for a least encoding over its refined color classes (_least_encoding).
Each class is keyed once: the census keeps a class index, its keys
bucketed by line sizes and refined colors, and a search directed at a
known key (_order_with) finds whether a line set has one of its bucket's
keys, so only a line set of a new class runs the full search.  Each size's
classes and index are kept, and _class_of keys and labels any K0 plane of
at most CENSUS_CAP points by the same lookup, as the builder does its
copies; canonical_labeling keys every other plane.  A key over the base
fixes the base points and takes the least encoding over the m! orders of
the m <= EXTENSION_CAP new points, read from one table per (base, m)
group that encodes each line once under every order (see
_strong_extensions_exactly).  The builder's step test (_strong_over) is
the same slack test read per line, so only this module knows the packed
format.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import combinations, permutations
from typing import AbstractSet

from .errors import BudgetExceeded, PlaneError, PreconditionError
from .plane import Plane, _record_valid, make_plane, validate
from .predim import in_K0, is_strong

CENSUS_CAP = 7
EXTENSION_CAP = 4

_ONE_MORE = bytes(range(1, 256)) + b"\0"  # bytes.translate table c -> c + 1

# n -> the classes on n points as (key, plane in letters, label), sorted
# by key, and their index, bucket -> (key, its _lines_at) per class
_census_cache: dict[int, tuple[list, dict]] = {}


# ---------------------------------------------------------------------------
# canonical form


def _color_classes(plane: Plane) -> dict[object, list[str]]:
    """Partition points into orbit-respecting classes by iterated refinement.

    Starts from the multiset of incident line sizes and refines each point's
    color by the colors it sees along its lines, until the partition is
    stable.  Returns each color's class, in color order.  Colors and their
    order depend only on the color data, never on point names, so
    isomorphic planes refine to the same colors with matching classes.

    A point's refined color reads each of its lines as the line's size and
    its sorted colors, the point's own included, so a round sorts each
    line's colors once.  That splits and orders the points as the colors
    of the others on each line would: within a class the own color r is
    the same, and taking one r out of two sorted tuples of one length keeps
    their order, since the first value whose count differs stays the same.
    """
    through = plane.lines_through
    color: dict[str, object] = {
        p: tuple(sorted(map(len, through[p]))) for p in plane.points
    }
    n_classes = len(set(color.values()))
    while n_classes < len(color):  # a partition into single points is stable
        rank = {c: i for i, c in enumerate(sorted(set(color.values())))}
        own = {p: rank[c] for p, c in color.items()}
        on = {l: (len(l), tuple(sorted(map(own.__getitem__, l)))) for l in plane.lines}
        refined = {
            p: (r, tuple(sorted(map(on.__getitem__, through[p]))))
            for p, r in own.items()
        }
        refined_count = len(set(refined.values()))
        if refined_count == n_classes:
            break
        color = refined
        n_classes = refined_count
    groups: dict[object, list[str]] = {}
    for p in sorted(plane.points):
        groups.setdefault(color[p], []).append(p)
    return {c: groups[c] for c in sorted(groups)}


def _choices(plane: Plane) -> tuple[tuple, list[list[str]]]:
    """A plane's refined colors with their class sizes, in color order, and
    who may take each label, as _least_encoding takes them.

    The colors are an invariant: isomorphic planes have the same.
    Labels are assigned in blocks following the classes.  Points on no line
    all land in one class and never affect the encoding, so they, and
    every class of one point, keep fixed labels; the other classes are
    searched.
    """
    through = plane.lines_through
    colors, choices = [], []  # choices[d]: who may take label d, in order
    for color, cls in _color_classes(plane).items():
        colors.append((color, len(cls)))
        if len(cls) == 1 or not through[cls[0]]:
            choices.extend([p] for p in cls)
        else:
            choices.extend([cls] * len(cls))
    return tuple(colors), choices


def canonical_labeling(plane: Plane) -> tuple[tuple, dict[str, int]]:
    """The canonical key and a relabelling points -> 0..n-1 that attains it.

    The key is (n, encoded line set) under the labelling that minimizes the
    encoding (each line as its sorted labels, the lines sorted), so two
    planes share it exactly when they are isomorphic.  The labellings tried
    follow the refined color classes (see _choices and _least_encoding),
    and the label returned is the first minimal one.
    """
    encoding, order = _least_encoding(plane.lines, _choices(plane)[1])
    return (len(order), encoding), {p: i for i, p in enumerate(order)}


def _least_encoding(lines, choices: list[list[str]]) -> tuple[tuple, list[str]]:
    """The least encoding of ``lines`` over the label orders ``choices``
    allows, and the first order that reaches it.

    ``choices[d]`` lists who may take label d, in order; a point may take
    one label only, and a label with a single choice is fixed.  A line is
    encoded as its sorted labels, a line set as its sorted lines.  It keys
    whole planes only: a plane's classes can hold up to n! orders, too
    many to list, while a key over a base has at most
    EXTENSION_CAP! orders and reads them from a table (see
    _strong_extensions_exactly).

    The search is depth first and fills labels 0, 1, 2, ... in order: a
    fixed label takes its point, a searched label tries the unused members of
    its choices in order.  Leaves therefore come in the order of trying
    every permutation of each searched class in turn, and the first leaf
    with the least encoding is the order returned.  After labels 0..d-1,
    each line's final sorted labels are, element by element, at least its
    known labels followed by d, d+1, ...; sorting the lines keeps that
    element-wise order, so the sorted tuple of these line bounds is a lower
    bound on every completion (see _lower_bound).  Until the first leaf there
    is nothing to beat, so no bound is taken; after it, a subtree whose bound
    is not below the best encoding so far is cut.  The best is replaced only
    by a strictly smaller encoding, and a cut subtree holds nothing strictly
    smaller, so the encoding and the first minimal order are exactly those
    of the full enumeration.

    _descend takes one frame per searched label (none per fixed one), so
    a search with more searched labels than the recursion limit allows
    raises BudgetExceeded, which names their number.
    """
    on: dict[str, list[int]] = {p: [] for ps in choices for p in ps}
    for i, line in enumerate(lines):
        for p in line:
            on[p].append(i)
    known: list[list[int]] = [[] for _ in lines]  # each line's labels so far
    try:
        return _descend(choices, on, [len(l) for l in lines], known, [], set(), None)
    except RecursionError:
        raise _too_deep(choices) from None


def _too_deep(choices: list[list[str]]) -> BudgetExceeded:
    """The error of a labelling search over ``choices`` that ran out of
    frames, naming its number of searched labels."""
    searched = sum(len(c) > 1 for c in choices)
    msg = f"labelling search: {searched} searched labels exceed the recursion limit"
    return BudgetExceeded(msg)


def _descend(choices, on, sizes, known, order, placed, best):
    """_least_encoding's search below the labels in ``order``: the best
    (encoding, order) after this subtree, given ``best`` before it.

    Places the fixed labels that come next, bounds the node, tries each
    unused choice for the next searched label, and unplaces what it placed.
    A module function, not a closure, so a search leaves no reference cycle.
    """
    n, start = len(choices), len(order)
    d = start
    while d < n and len(choices[d]) == 1:  # fixed labels need no branching
        _place(choices[d][0], on, known, order, placed)
        d += 1
    children = choices[d] if d < n else ()
    if best is not None or d == n:  # before the first leaf nothing can be cut
        bound = _lower_bound(known, sizes, d)
        if best is not None and bound >= best[0]:
            children = ()
        elif d == n:
            best = bound, order[:]
    for p in children:
        if p not in placed:
            _place(p, on, known, order, placed)
            best = _descend(choices, on, sizes, known, order, placed, best)
            _unplace(on, known, order, placed)
    for _ in range(start, d):
        _unplace(on, known, order, placed)
    return best


def _order_with(plane: Plane, choices: list[list[str]], lines_at: list) -> list | None:
    """The first order, in _least_encoding's leaf order over the same
    ``choices``, under which the lines of ``plane`` encode as a key's
    encoding, or None; ``lines_at`` is the key's _lines_at.

    The search is _least_encoding's, directed at the key: when a point
    takes label d, the lines through it, each as its labels below d and
    its size, must be the key's lines through d.  If so at every label,
    the lines agree with the key's, each as its labels below the next one,
    by induction from none; so a leaf reached is an order under which the
    lines encode as the key.  A point that fails the test is not tried, so
    only subtrees with no such leaf are cut, and the first leaf reached is
    the first such order.  When the key is the plane's, that is the first
    minimal order, the one _least_encoding returns; a miss means the plane
    does not have the key.  A node reached has the key's lines below its
    label, so its lower bound (see _lower_bound) is the key's there, at
    most the key: the search enters no subtree the bound would cut, and
    reaches no leaf below the key.
    """
    known = {line: [] for line in plane.lines}  # each line's labels so far
    try:
        return _seek(choices, plane.lines_through, known, [], set(), lines_at)
    except RecursionError:
        raise _too_deep(choices) from None


def _lines_at(key: tuple) -> list[list]:
    """Per label of ``key``, the key's lines through it, each as its labels
    below the label and its size, sorted: what _order_with's test reads."""
    n, encoding = key
    lines_at: list[list] = [[] for _ in range(n)]
    for line in encoding:
        for i, d in enumerate(line):
            lines_at[d].append((line[:i], len(line)))
    for at in lines_at:
        at.sort()
    return lines_at


def _seek(choices, on, known, order, placed, lines_at):
    """_order_with's search below the labels in ``order``: the order found,
    or None.  Places and unplaces as _descend does, one frame per searched
    label, a point only if its lines pass _order_with's test."""
    n, start = len(choices), len(order)
    d, found = start, None
    while d < n and len(choices[d]) == 1:  # a fixed label: its point or none
        if not _fits(choices[d][0], on, known, lines_at[d]):
            break
        _place(choices[d][0], on, known, order, placed)
        d += 1
    if d == n:
        found = order[:]
    elif len(choices[d]) > 1:
        for p in choices[d]:
            if p not in placed and _fits(p, on, known, lines_at[d]):
                _place(p, on, known, order, placed)
                found = _seek(choices, on, known, order, placed, lines_at)
                _unplace(on, known, order, placed)
                if found is not None:
                    break
    for _ in range(start, d):
        _unplace(on, known, order, placed)
    return found


def _fits(p: str, on, known, want: list) -> bool:
    """Whether the lines through ``p``, each as its labels so far and its
    size, sorted, are ``want``."""
    return sorted([(tuple(known[l]), len(l)) for l in on[p]]) == want


def _place(p: str, on, known, order: list[str], placed: set[str]) -> None:
    """Give ``p`` the next label."""
    for i in on[p]:
        known[i].append(len(order))
    order.append(p)
    placed.add(p)


def _unplace(on, known, order: list[str], placed: set[str]) -> None:
    """Take back the last label given."""
    p = order.pop()
    placed.discard(p)
    for i in on[p]:
        known[i].pop()


def _lower_bound(known: list[list[int]], sizes: list[int], d: int) -> tuple:
    """Least line encoding any completion of labels 0..d-1 can reach.

    Each line's unknown labels are filled from d upwards; at d = n this is
    the encoding itself.  Called at most once per search node.
    """
    return tuple(
        sorted((*k, *range(d, d + s - len(k))) for k, s in zip(known, sizes))
    )


def canonical_key(plane: Plane) -> tuple:
    """Hashable isomorphism invariant: (n, minimal relabelled line set)."""
    return canonical_labeling(plane)[0]


# ---------------------------------------------------------------------------
# plane census


def _planes_exactly(n: int) -> tuple[list[tuple[tuple, Plane, dict]], dict]:
    """The K0 classes on exactly ``n`` points as (key, plane in canonical
    letters, its canonical labelling), sorted by key, and their class index.

    A plane is in K0 exactly when the empty set is strong in it, so these
    are the strong extensions of the empty plane by ``n`` points: the line
    sets of _strong_line_sets over no base, whose slack test is then K0
    membership itself.  Each line set is refined once and bucketed by its
    line sizes and refined colors, an invariant, so a class lies in one
    bucket; the index maps a bucket to (key, its _lines_at) per class in
    it.  A line set that has none of its bucket's keys (see _lookup) is a
    new class and gets its key (_least_encoding).  The kept plane is the
    key itself in letters, letter i taking label i, whichever line set of
    the class came first.  That label attains the key, and it is
    canonical_labeling's: each refined class is a run of letters, so the
    identity is the first leaf of the search.
    """
    empty = make_plane(())
    names = _fresh_names(empty, n)
    index: dict[tuple, list] = {}
    for lines in _strong_line_sets(empty, names):
        bucket, choices, hit = _lookup(index, make_plane(names, lines))
        if hit is None:
            key = n, _least_encoding(lines, choices)[0]
            index.setdefault(bucket, []).append((key, _lines_at(key)))
    letters = [chr(ord("a") + i) for i in range(n)]
    label = dict(zip(letters, range(n)))
    keys = sorted(key for found in index.values() for key, _ in found)
    return [
        (key, make_plane(letters, [[letters[i] for i in l] for l in key[1]]), label)
        for key in keys
    ], index


def _lookup(index: dict, plane: Plane) -> tuple[tuple, list, tuple | None]:
    """The bucket of ``plane`` in a class index, its _choices, and the
    first key in the bucket that the plane has, with the first order
    attaining it (see _order_with), or None."""
    colors, choices = _choices(plane)
    bucket = tuple(sorted(map(len, plane.lines))), colors
    for key, lines_at in index.get(bucket, ()):
        order = _order_with(plane, choices, lines_at)
        if order is not None:
            return bucket, choices, (key, order)
    return bucket, choices, None


def _class_of(plane: Plane) -> tuple[tuple, dict[str, int]]:
    """canonical_labeling of a K0 plane of at most CENSUS_CAP points, read
    from the census's class index: the plane's key, the one its bucket
    holds, and the first order attaining it, which is the first minimal
    one (see _order_with).  More points raise BudgetExceeded before any
    census is computed; a plane with no census key is not in K0, a broken
    invariant, and raises PlaneError."""
    hit = _lookup(_census(len(plane.points))[1], plane)[2]
    if hit is None:
        raise PlaneError("census invariant broken: plane has no census key")
    key, order = hit
    return key, {p: i for i, p in enumerate(order)}


def _census(n: int) -> tuple[list[tuple[tuple, Plane, dict]], dict]:
    """_planes_exactly(n), computed once, and refused past CENSUS_CAP."""
    if n < 0:
        raise PreconditionError("census size must be nonnegative")
    if n > CENSUS_CAP:
        raise BudgetExceeded(f"census capped at {CENSUS_CAP} points, requested {n}")
    if n not in _census_cache:
        _census_cache[n] = _planes_exactly(n)
    return _census_cache[n]


def enumerate_planes(n: int) -> list[Plane]:
    """All planes with at most ``n`` points, one per isomorphism class.

    Representatives use points ``a``, ``b``, ... in a canonical labelling and
    are sorted by size then canonical key, so the output order is stable.
    Only hereditarily nonnegative planes are returned.  Guarded at 7 points,
    a fixed cap: the planes of exactly 8 points take about 0.1 s and of 9
    points about 3.2 s (Python 3.11 on a 2-vCPU x86-64 machine), nearly all
    of it refining the line sets' colors and searching for the keys their
    buckets hold (see _planes_exactly).
    """
    last = exact_census(n)  # refuses n before any census is computed
    return [plane for k in range(n) for plane in exact_census(k)] + last


def exact_census(n: int) -> list[Plane]:
    """Planes with exactly ``n`` points, one per isomorphism class, sorted
    by key; guarded as enumerate_planes is."""
    return [plane for _, plane, _ in _census(n)[0]]


# ---------------------------------------------------------------------------
# strong extension classes


def _fresh_names(base: Plane, count: int) -> list[str]:
    """The first ``count`` names n1, n2, ... not in ``base``, sorted by name
    (n10 before n9), as the first-use cut of _strong_line_sets needs."""
    names = []
    i = 1
    while len(names) < count:
        cand = f"n{i}"
        if cand not in base.points:
            names.append(cand)
        i += 1
    return sorted(names)


def _strong_line_sets(base: Plane, new: list[str]):
    """Yield valid line sets extending ``base`` by points ``new`` in which
    ``base`` is strong, in depth-first order: at least the first of each
    class over the base, in the order of the uncut search.

    Each base line may absorb a subset of the new points; additional lines
    use at most two base points and at least one new point, so the trace of
    every line on the base is exactly a base line or at most a pair — the
    extension is induced by construction.  Compatibility is tracked through
    pair bitmasks; two lines may share at most one point, which is the same
    as their pair masks being disjoint (extended base lines contribute only
    the pairs they add beyond their base line).  Over the empty base this is
    every plane on ``new`` whose empty set is strong, that is every K0 plane.

    Strength is decided here, with no min-cut.  Every set between the base and
    the extension B is base | Y for some Y among the new points, so by
    definition the base is strong in B exactly when delta(base | Y) >=
    delta(base) for every nonempty Y, and delta(base | Y) - delta(base) is
    |Y| less the loss of Y: over the lines l of B, with b base points each,
    the sum of max(b + |l & Y| - 2, 0) - max(b - 2, 0).  Every term is
    nonnegative, so adding a line never lowers a loss, and a branch is cut
    as soon as some loss exceeds |Y|: no line set below it is strong.

    Symmetry is cut too: a line may bring in only the next unused new
    points, in the order of ``new``, so new points are used in first-use
    order and the points on no line come last.  No class loses its first
    strong line set in the uncut order.  If a line of that set brought in
    other unused points, a permutation of only the unused points would fix
    every earlier choice and send this line's unused points to the next
    ones.  That makes this choice strictly earlier: a base line's options
    list the absorbed subsets as index combinations, the extra lines are
    sorted by name and ``new`` is sorted by name (see _fresh_names), and a
    line whose points are replaced by earlier ones sorts before it.  The
    image is valid, strong and of the same class over the base, and it
    comes first, which cannot be.  So the line sets yielded are a
    subsequence of the strong ones that holds the first of every class.

    The slack |Y| - loss(Y) of every Y (the empty one included, at zero)
    is kept in one integer, a byte per Y with its top bit set while the
    slack is nonnegative; a line's losses are packed alike, read off by
    |l & Y|, and subtracted at once (see _slack and _losses, which
    _strong_over shares).  A loss per line is at most |Y| <=
    CENSUS_CAP, so a field never borrows from the next before its branch is
    cut.
    """
    allpts = sorted(base.points) + list(new)
    pair_index = {
        tuple(sorted(pair)): i for i, pair in enumerate(combinations(allpts, 2))
    }
    m = len(new)
    bit = {p: 1 << i for i, p in enumerate(new)}

    base_lines = sorted(tuple(sorted(l)) for l in base.lines)
    new_subsets = []
    for size in range(1, len(new) + 1):
        new_subsets.extend(combinations(new, size))

    # options[i]: (line, added pair mask, new-point mask, losses) per choice
    # for base line i; extra holds the same for the other lines
    options = []
    for bl in base_lines:
        opts = [(bl, 0, 0, 0)]
        for sub in new_subsets:
            ext = tuple(sorted(bl + sub))
            added = _pair_mask(ext, pair_index) & ~_pair_mask(bl, pair_index)
            on_new = sum(map(bit.get, sub))
            opts.append((ext, added, on_new, _losses(on_new, len(bl), m)))
        options.append(opts)

    extra = []
    for bsize in range(0, 3):
        for bpart in combinations(sorted(base.points), bsize):
            for sub in new_subsets:
                if bsize + len(sub) < 3:
                    continue
                line = tuple(sorted(bpart + sub))
                on_new = sum(map(bit.get, sub))
                mask = _pair_mask(line, pair_index)
                extra.append((line, mask, on_new, _losses(on_new, bsize, m)))
    extra.sort()

    base_pair_mask = 0
    for bl in base_lines:
        base_pair_mask |= _pair_mask(bl, pair_index)
    slack, guard = _slack(m)
    yield from _pick_base(options, extra, guard, 0, [], base_pair_mask, slack, 0)


@cache
def _slack(m: int) -> tuple[int, int]:
    """The slack |Y| of each set Y of ``m`` new points, a byte per Y with its
    top bit set (see _strong_line_sets), and the mask of the top bits."""
    slack = bytes(0x80 + y.bit_count() for y in range(1 << m))
    return int.from_bytes(slack, "little"), int.from_bytes(b"\x80" * (1 << m), "little")


@cache
def _losses(on_new: int, b: int, m: int) -> int:
    """The loss max(b + |l & Y| - 2, 0) - max(b - 2, 0) of a line l with the
    new points ``on_new`` and ``b`` others, packed as _slack packs.  It
    depends on b only through min(b, 2), which _strong_over passes, so its
    cache grows only with the base line sizes the census passes."""
    met = b"\0"  # met[y] = |l & Y|, over the Y among the first i new points
    for i in range(m):
        met += met.translate(_ONE_MORE) if on_new >> i & 1 else met
    loss = bytes(max(b + c - 2, 0) - max(b - 2, 0) for c in range(m + 1))
    return int.from_bytes(met.translate(loss.ljust(256, b"\0")), "little")


def _strong_over(old: AbstractSet[str], new: frozenset, added, extended=()) -> bool:
    """Whether the points ``old`` of a stage are strong in its successor by
    a step with the new points ``new``, the added lines ``added`` and the
    old lines that gained new points, as (line, gain) pairs ``extended``,
    decided on those lines (see generic._Builder.fire).  Every set above
    old is old | Y, Y new, so this is _strong_line_sets' slack test with b
    a line's points not new, checked per line so no packed field borrows.
    A step of more than EXTENSION_CAP points (a big seed) takes a min-cut
    on the plane G of its new points and lines: a set of G above old & G
    gains what its union with old gains."""
    if len(new) > EXTENSION_CAP:
        added = (*added, *(frozenset(line | gain) for line, gain in extended))
        glue = Plane(new.union(*added), frozenset(added))
        return is_strong(glue, glue.points & old)
    m, bit = len(new), {p: 1 << i for i, p in enumerate(new)}
    slack, guard = _slack(m)
    counts = [(new & l, len(l)) for l in added]
    counts += [(new & gain, len(line) + len(gain)) for line, gain in extended]
    for on, size in counts:
        slack -= _losses(sum(map(bit.__getitem__, on)), min(size - len(on), 2), m)
        if slack & guard != guard:
            return False
    return True


def _pick_base(options, extra, guard, i, lines, used, slack, covered):
    """_strong_line_sets' search from base line ``i`` on, with the first
    ``covered`` new points used: each base line takes one of its options,
    then the extra lines are picked.  A module function, not a closure, so
    a search leaves no reference cycle."""
    if i == len(options):
        yield from _pick_extra(extra, guard, 0, lines, used, slack, covered)
        return
    for line, extra_mask, on_new, loss in options[i]:
        fresh = on_new >> covered
        if fresh & (fresh + 1) or extra_mask & used or (slack - loss) & guard != guard:
            continue
        lines.append(line)
        grown = covered + fresh.bit_length()
        yield from _pick_base(
            options, extra, guard, i + 1, lines, used | extra_mask, slack - loss, grown
        )
        lines.pop()


def _pick_extra(extra, guard, start, lines, used, slack, covered):
    """_strong_line_sets' search over the extra lines from ``start`` on."""
    yield tuple(lines)
    for j in range(start, len(extra)):
        line, line_mask, on_new, loss = extra[j]
        fresh = on_new >> covered
        if fresh & (fresh + 1) or line_mask & used or (slack - loss) & guard != guard:
            continue
        lines.append(line)
        grown = covered + fresh.bit_length()
        yield from _pick_extra(
            extra, guard, j + 1, lines, used | line_mask, slack - loss, grown
        )
        lines.pop()


def _pair_mask(pts, pair_index: dict) -> int:
    """Bitmask of the pairs of ``pts``, by their index in ``pair_index``."""
    m = 0
    for pair in combinations(sorted(pts), 2):
        m |= 1 << pair_index[pair]
    return m


def _strong_extensions_exactly(base: Plane, m: int) -> Iterator[Plane]:
    """Strong extension classes of ``base`` by exactly ``m`` new points.

    ``base`` must be valid and in K0, as every census plane is; nothing here
    checks it.  Strength is decided while the line sets are generated (see
    _strong_line_sets), so no min-cut is solved.  One representative per
    isomorphism over the base, the first line set met with its over-base
    key, yielded in key order.  The key is the least encoding (each line
    its sorted labels, the lines sorted) over the m! labellings that put
    the b base points at 0..b-1 in name order and the new points at
    b..b+m-1 in each order, so keys compare as encoding base point p as
    (0, p) and new point i as (1, i), least over the new points' orders,
    would.  The group builds the labellings once and one table for every
    line its line sets use: the line's frozenset and its encoding under
    each labelling, made when the line first appears.  A line set's key is
    then the least of its sorted columns of encodings, with no search, and
    every template is built from the group's point set and the table's
    frozensets, so the templates of a group share those objects.
    Strength is kept by such an isomorphism, so a key's first line
    set stands for the whole class.  No in_K0 check either: by
    submodularity, delta(X) >= delta(X | base) - delta(base) + delta(X &
    base) >= 0 for every X once base is strong in B and in K0.

    Each template is marked valid unchecked, being valid by construction:
    a base line keeps its 3 or more points and an extra line has bsize +
    len(sub) >= 3, every line lies in the points, disjoint pair masks let
    two lines share at most one point, and the names are the base's (valid
    by contract) and the fresh n1, n2, ... (see _strong_line_sets).
    """
    new = _fresh_names(base, m)
    points = base.points.union(new)
    fixed = {p: i for i, p in enumerate(sorted(base.points))}
    labels = [
        fixed | dict(zip(order, range(len(fixed), len(points))))
        for order in permutations(new)
    ]
    table: dict[tuple, tuple] = {}  # line -> (its frozenset, its encodings)
    found: dict[tuple, Plane] = {}
    for lines in _strong_line_sets(base, new):
        for line in lines:
            if line not in table:
                codes = [tuple(sorted(map(lab.__getitem__, line))) for lab in labels]
                table[line] = frozenset(line), codes
        columns = zip(*(table[line][1] for line in lines))
        key = min((tuple(sorted(column)) for column in columns), default=())
        if key not in found:
            found[key] = Plane(points, frozenset(table[line][0] for line in lines))
            _record_valid(found[key])
    for key in sorted(found):
        yield found[key]


def enumerate_strong_extensions(base: Plane, k: int) -> list[Plane]:
    """Strong extension classes of ``base`` by at most ``k`` new points.

    Returns proper extensions B (at least one new point, named n1, n2, ...)
    with base strong in B, one representative per isomorphism over the base
    (base points fixed pointwise), in a stable order: by over-base key,
    which starts with the number of new points, so the classes of each size
    come together, smaller sizes first.  Every B is hereditarily
    nonnegative, since it is strong over a base that is.  Strength over the
    base is decided during generation, with no min-cut (see _strong_line_sets).
    Guarded at 4 new points.
    """
    if k > EXTENSION_CAP:
        raise BudgetExceeded(
            f"extension search capped at {EXTENSION_CAP} new points, requested {k}"
        )
    if k < 0:
        raise PreconditionError("extension bound must be nonnegative")
    validate(base)
    if not in_K0(base):
        raise PreconditionError("base plane is not hereditarily nonnegative")
    return [ext for m in range(1, k + 1) for ext in _strong_extensions_exactly(base, m)]
