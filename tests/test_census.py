import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import planeforge.census as census_mod
import planeforge.generic as generic_mod
from planeforge import (
    BudgetExceeded,
    build_generic,
    PreconditionError,
    are_isomorphic,
    canonical_key,
    delta,
    embeddings,
    enumerate_planes,
    enumerate_strong_extensions,
    exact_census,
    find_embedding,
    in_K0,
    is_strong,
    make_plane,
    validate,
)
from planeforge.census import CENSUS_CAP, EXTENSION_CAP, canonical_labeling

from .conftest import random_lines, random_plane
from .oracles import (
    _oracle_over_base_key,
    oracle_canonical_labeling,
    oracle_in_K0,
    oracle_is_strong,
    oracle_least_encoding,
    oracle_strong_extensions,
)

EXACT_COUNTS = {0: 1, 1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 10}


def test_exact_class_counts_up_to_six():
    for n, want in EXACT_COUNTS.items():
        assert len(exact_census(n)) == want, f"n={n}"
    assert len(enumerate_planes(6)) == sum(EXACT_COUNTS.values()) == 23


def test_census_members_are_valid_and_nonnegative():
    for plane in enumerate_planes(6):
        validate(plane)
        assert in_K0(plane)
        assert plane.points <= frozenset("abcdefg")


def test_census_has_no_duplicate_classes():
    reps = enumerate_planes(5)
    for a, b in combinations(reps, 2):
        assert not are_isomorphic(a, b)


def test_census_order_is_stable():
    first = enumerate_planes(5)
    second = enumerate_planes(5)
    assert first == second
    sizes = [p.n_points for p in first]
    assert sizes == sorted(sizes)


def test_known_shapes_show_up():
    six = exact_census(6)
    fig2 = make_plane("abcdef", ["adf", "cde", "bef"])
    quad = make_plane("abcdef", ["abc", "ade", "bdf", "cef"])  # complete quadrilateral
    assert sum(are_isomorphic(p, fig2) for p in six) == 1
    assert sum(are_isomorphic(p, quad) for p in six) == 1


def test_exactly_seven_includes_fano(fano):
    seven = exact_census(7)
    assert len(seven) == 24
    assert sum(are_isomorphic(p, fano) for p in seven) == 1
    # fano is the unique delta-0 class; everything else stays positive
    assert sorted(delta(p) for p in seven)[0] == 0
    assert sum(delta(p) == 0 for p in seven) == 1


def test_census_guards():
    with pytest.raises(PreconditionError):
        enumerate_planes(-1)
    with pytest.raises(BudgetExceeded):
        enumerate_planes(CENSUS_CAP + 1)


def test_canonical_key_is_label_invariant(fano):
    rho = dict(zip("1234567", ["west", "north", "u", "v7", "e_e", "Q", "zz"]))
    renamed = make_plane(
        rho.values(),
        [[rho[c] for c in l] for l in ["123", "145", "167", "246", "257", "347", "356"]],
    )
    assert canonical_key(fano) == canonical_key(renamed)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_key_respects_isomorphism(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    names = sorted(plane.points)
    perm = names[:]
    rng.shuffle(perm)
    rho = dict(zip(names, perm))
    relabeled = make_plane(
        [rho[p] for p in names], [[rho[p] for p in l] for l in plane.lines]
    )
    assert canonical_key(plane) == canonical_key(relabeled)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_key_separates_classes(seed):
    rng = random.Random(seed)
    a = random_plane(rng, max_points=7)
    b = random_plane(rng, max_points=7)
    assert (canonical_key(a) == canonical_key(b)) == are_isomorphic(a, b)


def _renamed(plane, rng):
    """plane under a random bijection onto fresh names, so sorting differs."""
    names = sorted(plane.points)
    fresh = [f"q{rng.randrange(10**6)}_{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    rho = dict(zip(names, fresh))
    return make_plane(fresh, [[rho[p] for p in l] for l in plane.lines])


def test_canonical_labeling_matches_oracle_on_census():
    rng = random.Random(7)
    checked = 0
    for plane in enumerate_planes(7):
        for copy in (plane, _renamed(plane, rng), _renamed(plane, rng)):
            assert canonical_labeling(copy) == oracle_canonical_labeling(copy), copy
            checked += 1
    assert checked == 3 * 47


def test_canonical_labeling_matches_oracle_on_random_planes():
    for seed in range(200):
        plane = random_plane(random.Random(seed), max_points=8)
        assert canonical_labeling(plane) == oracle_canonical_labeling(plane), seed


def test_builder_labellings_match_oracle(monkeypatch, nd10):
    # Every plane offered to _register, labelled on demand or never, and
    # every plane the builder labels, which adds _tier_pairs' bases; the
    # chain depends on which of the minimal labels comes back.
    seen = {}  # id -> plane, held so no id is reused
    register = generic_mod._Builder._register
    labeling = generic_mod.canonical_labeling

    def offered(builder, copy):
        seen[id(copy)] = copy
        register(builder, copy)

    def labelled(plane):
        seen[id(plane)] = plane
        return labeling(plane)

    monkeypatch.setattr(generic_mod._Builder, "_register", offered)
    monkeypatch.setattr(generic_mod, "canonical_labeling", labelled)
    build_generic(500, 2, seeds=[nd10])
    assert len(seen) > 500
    for plane in seen.values():
        assert canonical_labeling(plane) == oracle_canonical_labeling(plane), plane


def test_least_encoding_matches_oracle_on_mixed_choices():
    # Fixed and searched labels in any mix, not only the shapes of plane
    # keys (refined classes) and over-base keys (fixed base, one new class).
    rng = random.Random(20261019)
    mixed = several = 0  # cases with fixed and searched labels; with 2+ classes
    for _ in range(300):
        pts = [f"p{i}" for i in range(rng.randint(0, 9))]
        lines = random_lines(rng, pts, rng.randint(0, 8))
        rng.shuffle(pts)
        choices, d, classes = [], 0, 0
        while d < len(pts):
            cls = pts[d : d + rng.randint(1, 4)]
            if len(cls) > 1 and rng.random() < 0.75:
                choices.extend([cls] * len(cls))
                classes += 1
            else:
                choices.extend([p] for p in cls)
            d += len(cls)
        mixed += 0 < classes and any(len(c) == 1 for c in choices)
        several += classes > 1
        got = census_mod._least_encoding(lines, choices)
        assert got == oracle_least_encoding(lines, choices), (lines, choices)
    assert mixed > 0 and several > 0


def test_canonical_labeling_prunes_ag23(monkeypatch):
    # One class of 9 points: the full enumeration tries all 9! = 362,880
    # labellings.  The pinned label is the full enumeration's first minimal.
    from .test_predim import AG23

    nodes = 0
    lower_bound = census_mod._lower_bound

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return lower_bound(*args)

    monkeypatch.setattr(census_mod, "_lower_bound", counted)
    key, label = canonical_labeling(AG23)
    assert key == (
        9,
        (
            (0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (1, 3, 5), (1, 4, 7),
            (1, 6, 8), (2, 3, 8), (2, 4, 6), (2, 5, 7), (3, 6, 7), (4, 5, 8),
        ),
    )
    assert label == dict(zip("123479568", range(9)))
    assert nodes <= 20_000


# --- strong extension classes -------------------------------------------------


def test_extension_counts_at_radius_two():
    empty = make_plane(())
    point = make_plane("p")
    pair = make_plane("pq")
    assert len(enumerate_strong_extensions(empty, 2)) == 2
    assert len(enumerate_strong_extensions(point, 2)) == 3
    assert len(enumerate_strong_extensions(pair, 2)) == 7


def test_extension_shapes_over_a_pair():
    pair = make_plane("pq")
    exts = enumerate_strong_extensions(pair, 2)
    line_sets = sorted(
        tuple(sorted("".join(sorted(l)) for l in e.lines)) for e in exts
    )
    assert line_sets == sorted(
        [
            (),                # one generic point
            ("n1pq",),         # point on the line through the base pair
            (),                # two generic points
            ("n1pq",),         # line point plus a generic one
            ("n1n2pq",),       # both new points on the base line
            ("n1n2p",),        # new line through p only
            ("n1n2q",),        # new line through q only
        ]
    )


def test_extensions_are_proper_strong_and_clean():
    base = make_plane("abc", ["abc"])
    exts = enumerate_strong_extensions(base, 2)
    for ext in exts:
        validate(ext)
        assert base.points < ext.points
        assert in_K0(ext)
        assert is_strong(ext, base.points)
        new = ext.points - base.points
        assert new <= {"n1", "n2"}


def test_extensions_distinct_over_base():
    pair = make_plane("pq")
    exts = enumerate_strong_extensions(pair, 2)
    fixed_pairs = 0
    for a, b in combinations(exts, 2):
        if a.n_points != b.n_points:
            continue
        ident = {p: p for p in pair.points}
        # an embedding fixing the base pointwise would merge the classes
        m = find_embedding(a, b, fixed=ident)
        if m is not None and frozenset(m.values()) == b.points:
            fixed_pairs += 1
    assert fixed_pairs == 0


def test_extension_base_points_fixed_not_permuted():
    # a line through p and a line through q are distinct classes over {p, q}
    pair = make_plane("pq")
    exts = enumerate_strong_extensions(pair, 2)
    shapes = ["".join(sorted(next(iter(e.lines)))) for e in exts if len(e.lines) == 1 and "n2" in e.points]
    assert "n1n2p" in shapes and "n1n2q" in shapes


def test_extension_guards():
    base = make_plane("ab")
    with pytest.raises(BudgetExceeded):
        enumerate_strong_extensions(base, EXTENSION_CAP + 1)
    with pytest.raises(PreconditionError):
        enumerate_strong_extensions(base, -1)
    from .test_predim import AG23

    with pytest.raises(PreconditionError):
        enumerate_strong_extensions(AG23, 1)


def test_extensions_pass_independent_oracles():
    # Templates are kept for being strong over a K0 base; the oracles check
    # that and the K0 membership it implies, without the min-cut engine.
    checked = 0
    for base in enumerate_planes(4):
        for k in (1, 2):
            for template in enumerate_strong_extensions(base, k):
                assert oracle_in_K0(template), (base, template)
                assert oracle_is_strong(template, base.points), (base, template)
                checked += 1
    assert checked > 100


def test_extensions_match_the_flow_oracle_in_order():
    # The pruned generator against the unpruned one that keeps a line set by
    # a min-cut is_strong: the same templates, line sets and order.
    cases = 0
    for base in enumerate_planes(6):
        size = len(base.points)
        ks = [1, 2] + [3] * (size <= 4) + [4] * (size <= 3)
        for k in ks:
            got = enumerate_strong_extensions(base, k)
            assert got == oracle_strong_extensions(base, k), (base, k)
            cases += 1
    assert cases == 2 * 23 + 8 + 5


def _numbered_base(rng, size):
    """A K0 plane on ``size`` points named by numbers, "9" and "10" among
    them, so that name order is not numeric order."""
    while True:
        names = rng.sample(["1", "2", "9", "10", "11", "20"], size)
        lines, taken = [], set()
        for _ in range(rng.randint(0, 2)):
            if size < 3:
                break
            cand = tuple(rng.sample(names, rng.randint(3, min(4, size))))
            pairs = {frozenset(pq) for pq in combinations(cand, 2)}
            if not pairs & taken:
                taken |= pairs
                lines.append(cand)
        base = make_plane(names, lines)
        if in_K0(base):
            return base


def test_over_base_order_matches_the_permutation_oracle():
    # The search's keys over the base must collapse and order the line sets
    # of each size exactly as the least encoding over every order of the
    # new points does: first line set of each class, in key order.
    rng = random.Random(20261019)
    cases = lonely = mixed = 0
    for m, sizes in ((1, range(0, 7)), (2, range(0, 6)), (3, range(1, 5)), (4, (2, 3))):
        for size in sizes:
            base = _numbered_base(rng, size)
            mixed += sorted(base.points) != sorted(base.points, key=int)
            new = census_mod._fresh_names(base, m)
            first = {}
            for lines in census_mod._strong_line_sets(base, new):
                first.setdefault(_oracle_over_base_key(new, lines), lines)
                lonely += bool(set(new).difference(*lines))
            allpts = list(base.points) + new
            want = [make_plane(allpts, first[key]) for key in sorted(first)]
            got = list(census_mod._strong_extensions_exactly(base, m))
            assert got == want, (base, m)
            cases += 1
    assert cases == 7 + 6 + 4 + 2
    assert mixed > 0 and lonely > 0  # some new point lies on no line


def test_extensions_do_not_pin_their_base():
    base = make_plane("abcd", ["abc"])
    assert enumerate_strong_extensions(base, 1)
    ref = weakref.ref(base)
    del base
    gc.collect()
    assert ref() is None


def test_extension_determinism():
    tri = make_plane("abc", ["abc"])
    assert enumerate_strong_extensions(tri, 1) == enumerate_strong_extensions(tri, 1)
    assert len(enumerate_strong_extensions(tri, 1)) == 2


def test_searches_leave_no_reference_cycles(fig2, fano):
    # Labelling, the census's line-set search, extension enumeration and the
    # embedding search hold no closure that calls itself, so every call
    # frees all it made without the cyclic collector.
    planes = enumerate_planes(6)
    gc.collect()
    gc.disable()
    try:
        for plane in planes:
            canonical_labeling(plane)
        for n in range(6):
            census_mod._labeled_line_sets(n)
        for base in planes:
            if len(base.points) <= 5:
                for m in (1, 2):
                    list(census_mod._strong_extensions_exactly(base, m))
        for _ in range(100):
            find_embedding(fig2, fano)
        assert len(list(embeddings(fano, fano))) == 168
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
