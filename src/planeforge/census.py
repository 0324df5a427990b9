"""Census of small planes and strong-extension classes, up to isomorphism.

Enumeration works on integer-labelled line sets with two symmetry prunes
(covered points form a label prefix; lines are added in strictly ascending
lexicographic order, new labels taken consecutively), then collapses the
survivors by canonical key, keeping the first line set of each key.  Class
representatives are relabelled onto letters through the canonical labelling
that attains the key, and the census is ordered by key.

Strong extensions of a base are enumerated one size of new points at a
time, as line sets that keep the base induced.  Strength over the base is
decided while they are generated, not by a min-cut afterwards: the base is
strong exactly when no nonempty set Y of new points (at most 15 of them)
loses more than |Y| to the lines, and a line never lowers a loss, so a
branch that breaks this is cut with everything below it.  The pruning is
therefore exact (see _strong_line_sets).  The survivors collapse by their
key over the base, keeping the first line set of each key.  Both keys come
from one branch-and-bound search for a least encoding (_least_encoding):
a plane's key searches its refined color classes, a key over the base
fixes the base points and searches the new points as one class.
"""

from __future__ import annotations

import string
from collections.abc import Iterator
from itertools import combinations

from .errors import BudgetExceeded, PreconditionError
from .plane import Plane, make_plane, validate
from .predim import in_K0

CENSUS_CAP = 7
EXTENSION_CAP = 4

_census_cache: dict[int, list[Plane]] = {}


# ---------------------------------------------------------------------------
# canonical form


def _color_classes(plane: Plane) -> list[list[str]]:
    """Partition points into orbit-respecting classes by iterated refinement.

    Starts from the multiset of incident line sizes and refines each point's
    color by the colors it sees along its lines, until the partition is
    stable.  The returned class order depends only on the color data, never
    on point names, so isomorphic planes refine to matching class sequences.
    """
    through = plane.lines_through
    color: dict[str, object] = {
        p: tuple(sorted(len(l) for l in through[p])) for p in plane.points
    }
    n_classes = len(set(color.values()))
    while True:
        rank = {c: i for i, c in enumerate(sorted(set(color.values())))}
        refined = {
            p: (
                rank[color[p]],
                tuple(
                    sorted(
                        (len(l), tuple(sorted(rank[color[q]] for q in l if q != p)))
                        for l in through[p]
                    )
                ),
            )
            for p in plane.points
        }
        refined_count = len(set(refined.values()))
        if refined_count == n_classes:
            break
        color = refined
        n_classes = refined_count
    groups: dict[object, list[str]] = {}
    for p in sorted(plane.points):
        groups.setdefault(color[p], []).append(p)
    return [groups[c] for c in sorted(groups)]


def canonical_labeling(plane: Plane) -> tuple[tuple, dict[str, int]]:
    """The canonical key and a relabelling points -> 0..n-1 that attains it.

    The key is (n, encoded line set) under the labelling that minimizes the
    encoding (each line as its sorted labels, the lines sorted), so two
    planes share it exactly when they are isomorphic.  Labels are assigned in
    blocks following the refined color classes.  Points on no line all land
    in one class and never affect the encoding, so they, and every class of
    one point, keep fixed labels; the other classes are searched (see
    _least_encoding), and the label returned is the first minimal one.
    """
    through = plane.lines_through
    choices: list[list[str]] = []  # choices[d]: who may take label d, in order
    for cls in _color_classes(plane):
        if len(cls) == 1 or not through[cls[0]]:
            choices.extend([p] for p in cls)
        else:
            choices.extend([cls] * len(cls))
    encoding, order = _least_encoding(plane.lines, choices)
    return (len(order), encoding), {p: i for i, p in enumerate(order)}


def _least_encoding(lines, choices: list[list[str]]) -> tuple[tuple, list[str]]:
    """The least encoding of ``lines`` over the label orders ``choices``
    allows, and the first order that reaches it.

    ``choices[d]`` lists who may take label d, in order; a point may take
    one label only, and a label with a single choice is fixed.  A line is
    encoded as its sorted labels, a line set as its sorted lines.

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
    more searched labels than the recursion limit raise RecursionError.
    """
    on: dict[str, list[int]] = {p: [] for ps in choices for p in ps}
    for i, line in enumerate(lines):
        for p in line:
            on[p].append(i)
    known: list[list[int]] = [[] for _ in lines]  # each line's labels so far
    return _descend(choices, on, [len(l) for l in lines], known, [], set(), None)


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


def _labeled_line_sets(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All line sets over points 0..n-1, one representative labelling each.

    Prunes to labellings where every line extends the covered prefix by
    consecutive new labels and the line list is strictly ascending; each
    isomorphism class keeps at least one labelling (greedy argument), and
    duplicates are removed afterwards.  Listed depth first, each line set
    when first reached (see _add_lines).
    """
    candidates = []
    for size in range(3, n + 1):
        candidates.extend(combinations(range(n), size))
    candidates.sort()
    pair_index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    masks = [_pair_mask(line, pair_index) for line in candidates]
    return list(_add_lines(candidates, masks, 0, (), 0, 0))


def _add_lines(candidates, masks, start: int, chosen: tuple, used: int, covered: int):
    """_labeled_line_sets' search below ``chosen``, whose lines use the
    pairs in ``used`` and cover labels 0..covered-1: ``chosen``, then the
    subtree of each admissible candidate from ``start`` on, in order."""
    yield chosen
    for i in range(start, len(candidates)):
        line = candidates[i]
        fresh = [p for p in line if p >= covered]
        if fresh != list(range(covered, covered + len(fresh))):
            continue
        if masks[i] & used:
            continue
        child = (*chosen, line)
        yield from _add_lines(
            candidates, masks, i + 1, child, used | masks[i], covered + len(fresh)
        )


def _pair_mask(pts, pair_index: dict) -> int:
    """Bitmask of the pairs of ``pts``, by their index in ``pair_index``."""
    m = 0
    for pair in combinations(sorted(pts), 2):
        m |= 1 << pair_index[pair]
    return m


def _planes_exactly(n: int) -> list[Plane]:
    """One K0 plane per class on exactly ``n`` points, in canonical letters.

    Keeps the first labelled line set of each canonical key, relabelled by
    the labelling that attains the key, and sorts the survivors by key.
    """
    names = [str(i) for i in range(n)]
    found: dict[tuple, Plane] = {}
    for line_set in _labeled_line_sets(n):
        plane = make_plane(names, [[str(p) for p in line] for line in line_set])
        if not in_K0(plane):
            continue
        key, label = canonical_labeling(plane)
        if key in found:
            continue
        name = {p: string.ascii_lowercase[i] for p, i in label.items()}
        found[key] = make_plane(
            name.values(), [[name[p] for p in l] for l in plane.lines]
        )
    return [found[key] for key in sorted(found)]


def enumerate_planes(n: int) -> list[Plane]:
    """All planes with at most ``n`` points, one per isomorphism class.

    Representatives use points ``a``, ``b``, ... in a canonical labelling and
    are sorted by size then canonical key, so the output order is stable.
    Only hereditarily nonnegative planes are returned.  Guarded at 7 points;
    beyond that the class count and the per-plane checks explode.
    """
    if n < 0:
        raise PreconditionError("census size must be nonnegative")
    if n > CENSUS_CAP:
        raise BudgetExceeded(f"census capped at {CENSUS_CAP} points, requested {n}")
    out: list[Plane] = []
    for k in range(n + 1):
        if k not in _census_cache:
            _census_cache[k] = _planes_exactly(k)
        out.extend(_census_cache[k])
    return out


def exact_census(n: int) -> list[Plane]:
    """Planes with exactly ``n`` points, one per isomorphism class."""
    full = enumerate_planes(n)
    return [p for p in full if len(p.points) == n]


# ---------------------------------------------------------------------------
# strong extension classes


def _fresh_names(base: Plane, count: int) -> list[str]:
    names = []
    i = 1
    while len(names) < count:
        cand = f"n{i}"
        if cand not in base.points:
            names.append(cand)
        i += 1
    return names


def _strong_line_sets(base: Plane, new: list[str]):
    """Yield every valid line set extending ``base`` by points ``new`` in
    which ``base`` is strong, in depth-first order.

    Each base line may absorb a subset of the new points; additional lines
    use at most two base points and at least one new point, so the trace of
    every line on the base is exactly a base line or at most a pair — the
    extension is induced by construction.  Compatibility is tracked through
    pair bitmasks; two lines may share at most one point, which is the same
    as their pair masks being disjoint (extended base lines contribute only
    the pairs they add beyond their base line).

    Strength is decided here, with no min-cut.  Every set between the base and
    the extension B is base | Y for some Y among the new points, so by
    definition the base is strong in B exactly when delta(base | Y) >=
    delta(base) for every nonempty Y, and delta(base | Y) - delta(base) is
    |Y| less the loss of Y: over the lines l of B, with b base points each,
    the sum of max(b + |l & Y| - 2, 0) - max(b - 2, 0).  Every term is
    nonnegative, so adding a line never lowers a loss, and a branch is cut
    as soon as some loss exceeds |Y|: no line set below it is strong.  The
    cut branches hold only line sets that are not strong, so the line sets
    yielded are exactly the strong ones, in the order of the uncut search.

    The slack |Y| - loss(Y) of every Y (the empty one included, at zero)
    is kept in one integer, a byte per Y with its top bit set while the
    slack is nonnegative; a line's losses are packed alike and subtracted
    at once.  A loss per line is at most |Y| <= EXTENSION_CAP, so a field
    never borrows from the next before its branch is cut.
    """
    allpts = sorted(base.points) + list(new)
    pair_index = {
        tuple(sorted(pair)): i for i, pair in enumerate(combinations(allpts, 2))
    }
    subsets = range(1 << len(new))
    guard = sum(0x80 << 8 * y for y in subsets)
    bit = {p: 1 << i for i, p in enumerate(new)}

    def losses(line) -> int:
        on_new = sum(bit.get(p, 0) for p in line)
        b = len(line) - on_new.bit_count()
        return sum(
            max(b + (on_new & y).bit_count() - 2, 0) - max(b - 2, 0) << 8 * y
            for y in subsets
        )

    base_lines = sorted(tuple(sorted(l)) for l in base.lines)
    new_subsets = []
    for size in range(1, len(new) + 1):
        new_subsets.extend(combinations(new, size))

    # options[i] = list of (line tuple, added pair mask, losses) for base line i
    options = []
    for bl in base_lines:
        opts = [(bl, 0, 0)]
        for sub in new_subsets:
            ext = tuple(sorted(bl + sub))
            added = _pair_mask(ext, pair_index) & ~_pair_mask(bl, pair_index)
            opts.append((ext, added, losses(ext)))
        options.append(opts)

    extra = []
    for bsize in range(0, 3):
        for bpart in combinations(sorted(base.points), bsize):
            for sub in new_subsets:
                if bsize + len(sub) < 3:
                    continue
                line = tuple(sorted(bpart + sub))
                extra.append((line, _pair_mask(line, pair_index), losses(line)))
    extra.sort()

    base_pair_mask = 0
    for bl in base_lines:
        base_pair_mask |= _pair_mask(bl, pair_index)
    slack = sum((0x80 + y.bit_count()) << 8 * y for y in subsets)
    yield from _pick_base(options, extra, guard, 0, [], base_pair_mask, slack)


def _pick_base(
    options: list, extra: list, guard: int, i: int, lines: list, used: int, slack: int
):
    """_strong_line_sets' search from base line ``i`` on: each base line
    takes one of its options, then the extra lines are picked.  A module
    function, not a closure, so a search leaves no reference cycle."""
    if i == len(options):
        yield from _pick_extra(extra, guard, 0, lines, used, slack)
        return
    for line, extra_mask, loss in options[i]:
        if extra_mask & used or (slack - loss) & guard != guard:
            continue
        lines.append(line)
        yield from _pick_base(
            options, extra, guard, i + 1, lines, used | extra_mask, slack - loss
        )
        lines.pop()


def _pick_extra(
    extra: list, guard: int, start: int, lines: list, used: int, slack: int
):
    """_strong_line_sets' search over the extra lines from ``start`` on."""
    yield tuple(lines)
    for j in range(start, len(extra)):
        line, line_mask, loss = extra[j]
        if line_mask & used or (slack - loss) & guard != guard:
            continue
        lines.append(line)
        yield from _pick_extra(
            extra, guard, j + 1, lines, used | line_mask, slack - loss
        )
        lines.pop()


def _strong_extensions_exactly(base: Plane, m: int) -> Iterator[Plane]:
    """Strong extension classes of ``base`` by exactly ``m`` new points.

    ``base`` must be valid and in K0, as every census plane is; nothing here
    checks it.  Strength is decided while the line sets are generated (see
    _strong_line_sets), so no min-cut is solved.  One representative per
    isomorphism over the base, the first line set met with its over-base
    key, yielded in key order: the least encoding (see _least_encoding) with
    the b base points fixed at labels 0..b-1 in name order and the new
    points searched as one class, so keys compare as encoding base point p
    as (0, p) and new point i as (1, i), least over the new points' orders,
    would.  Strength is kept by such an isomorphism, so a key's first line
    set stands for the whole class.  No in_K0 check either: by
    submodularity, delta(X) >= delta(X | base) - delta(base) + delta(X &
    base) >= 0 for every X once base is strong in B and in K0.
    """
    new = _fresh_names(base, m)
    allpts = list(base.points) + new
    choices = [[p] for p in sorted(base.points)] + [new] * m
    found: dict[tuple, Plane] = {}
    for lines in _strong_line_sets(base, new):
        key = _least_encoding(lines, choices)[0]
        if key not in found:
            found[key] = make_plane(allpts, lines)
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
