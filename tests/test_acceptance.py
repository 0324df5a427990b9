"""End-to-end acceptance gate.

Twelve checks, each printing a single verdict line so a plain pytest run
shows at a glance which guarantees hold.  Everything here is deterministic
and recomputes its claim from scratch through the public API — the module
tests own the fine-grained cases, this file owns the headline contracts
and their time budgets.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, product

from planeforge import (
    FreeAmalgam,
    Plane,
    StrongEmbedding,
    alpha,
    build_generic,
    canonical_amalgam,
    check_genericity,
    classify_primitive,
    d_independent,
    d_rel,
    d_value,
    delta,
    delta_rel,
    enumerate_strong_extensions,
    exact_census,
    figure2_plane,
    find_embedding,
    free_amalgam,
    icl,
    in_K0,
    is_primitive,
    is_strong,
    iterated_amalgam,
    line_through,
    make_plane,
    morley_chain,
    non_desarguesian_plane,
    rank,
    restrict,
    sharp_step,
    validate,
    witness_not_one_based,
    witness_weak_ei,
)
from planeforge.errors import PreconditionError

from .conftest import random_plane
from .oracles import oracle_d_value, oracle_icl, oracle_in_K0, oracle_is_strong


@contextmanager
def verdict(capsys, num, label, budget=None):
    """Run a criterion body, then print one PASS/FAIL line past the capture."""
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        took = time.perf_counter() - t0
        if budget is not None:
            assert took < budget, f"took {took:.1f}s, budget {budget}s"
        status = "PASS"
    finally:
        took = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {label}: {status} ({took:.1f}s)")


def census_upto(n):
    return [p for k in range(n + 1) for p in exact_census(k)]


def subsets_of(points):
    pts = sorted(points)
    return [
        frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)
    ]


def renamed(plane, rho):
    return Plane(
        frozenset(rho.get(p, p) for p in plane.points),
        frozenset(frozenset(rho.get(q, q) for q in ln) for ln in plane.lines),
    )


def test_01_fixture_values(capsys):
    """The 10-point fixture: delta 1, nine nullity-1 lines, alpha -2,
    every subset nonnegative."""
    with verdict(capsys, 1, "non-desarguesian fixture values", budget=1.0):
        nd = non_desarguesian_plane()
        assert delta(nd) == 1
        assert len(nd.lines) == 9
        assert all(len(line) - 2 == 1 for line in nd.lines)
        assert alpha(nd) == -2
        subs = subsets_of(nd.points)
        assert len(subs) == 1024
        assert all(delta(nd, s) >= 0 for s in subs)


def test_02_semimodularity(capsys):
    """delta(A/B) >= delta(A/C) whenever B is inside C and A avoids C,
    exhaustively over the 6-point census."""
    with verdict(capsys, 2, "relative delta semimodularity", budget=300):
        checked = 0
        planes = census_upto(6)
        for plane in planes:
            pts = sorted(plane.points)
            # each point is in A, in B (hence C), in C only, or in neither
            for cells in product(range(4), repeat=len(pts)):
                a = frozenset(p for p, c in zip(pts, cells) if c == 1)
                b = frozenset(p for p, c in zip(pts, cells) if c == 2)
                conly = frozenset(p for p, c in zip(pts, cells) if c == 3)
                c = b | conly
                assert delta_rel(plane, a, b) >= delta_rel(plane, a, c)
                checked += 1
        assert checked == sum(4 ** len(p.points) for p in planes)


def test_03_amalgam_additivity(capsys):
    """delta(A (+)_C B) = delta(A) + delta(B) - delta(C), and both sides
    stay strong in the result; all census bases with sides of <= 5 points."""
    with verdict(capsys, 3, "canonical amalgam delta additivity", budget=300):
        checked = 0
        for core in census_upto(4):
            k = min(4, 5 - len(core.points))
            if k == 0:
                continue
            exts = enumerate_strong_extensions(core, k)
            sides = [
                (e, renamed(e, {p: "m" + p[1:] for p in e.points - core.points}))
                for e in exts
            ]
            dc = delta(core)
            for (a, _), (_, b) in combinations_with_replacement(sides, 2):
                result = canonical_amalgam(a, b, core.points).plane
                assert delta(result) == delta(a) + delta(b) - dc
                assert is_strong(result, a.points)
                assert is_strong(result, b.points)
                checked += 1
        # the empty base pairs every census plane with every other
        for a, b0 in combinations_with_replacement(census_upto(5), 2):
            b = renamed(b0, {p: "m" + p for p in b0.points})
            result = canonical_amalgam(a, b, frozenset()).plane
            assert delta(result) == delta(a) + delta(b)
            assert is_strong(result, a.points)
            assert is_strong(result, b.points)
            checked += 1
        assert checked == 741


def test_04_strong_subset_laws(capsys):
    """The strong-subset relation on census planes: reflexive, only defined
    on nested pairs, transitive, restrictable, anchored at the empty set,
    and stable under intersecting with a substructure."""
    with verdict(capsys, 4, "strong-subset relation laws"):
        for plane in census_upto(5):
            subs = subsets_of(plane.points)
            strong = {
                (a, b): is_strong(plane, a, b)
                for a in subs
                for b in subs
                if a <= b
            }
            pts = sorted(plane.points)

            # reflexivity, and the empty set sits under everything
            assert all(strong[(s, s)] for s in subs)
            assert in_K0(plane)
            assert strong[(frozenset(), plane.points)]

            # non-nested pairs are rejected outright
            for a in subs:
                for b in subs:
                    if a <= b:
                        continue
                    try:
                        is_strong(plane, a, b)
                    except PreconditionError:
                        continue
                    raise AssertionError(f"accepted non-nested pair {a} {b}")

            # chains A <= B <= C: transitivity up, restriction down
            for cells in product(range(4), repeat=len(pts)):
                a = frozenset(p for p, c in zip(pts, cells) if c == 1)
                b = a | frozenset(p for p, c in zip(pts, cells) if c == 2)
                c = b | frozenset(p for p, c in zip(pts, cells) if c == 3)
                if strong[(a, b)] and strong[(b, c)]:
                    assert strong[(a, c)]
                if strong[(a, c)]:
                    assert strong[(a, b)]

            # A strong in B forces A&C strong in C for every C inside B
            for (a, b), ok in strong.items():
                if not ok:
                    continue
                for c in subs:
                    if c <= b:
                        assert strong[(a & c, c)]


def test_05_alpha_shift(capsys):
    """delta = alpha + 3 on every rank-3 census plane and on the fixture."""
    with verdict(capsys, 5, "delta equals alpha plus three at rank 3"):
        hits = 0
        for plane in census_upto(7):
            if rank(plane) != 3:
                continue
            assert delta(plane) == alpha(plane) + 3
            hits += 1
        assert hits > 20
        nd = non_desarguesian_plane()
        assert rank(nd) == 3
        assert delta(nd) == alpha(nd) + 3


def test_06_figure2_extension(capsys):
    """The six-point figure-2 plane: {a,b,c} grows primitively by three
    points at zero delta cost."""
    with verdict(capsys, 6, "figure-2 primitive extension"):
        bundle = figure2_plane()
        plane = bundle.plane
        lower = frozenset({"a", "b", "c"})
        assert is_primitive(plane, lower, plane.points)
        assert delta_rel(plane, plane.points, lower) == 0
        assert len(plane.points - lower) == 3
        assert bundle.ok


def test_07_primitive_dichotomy(capsys):
    """Every primitive pair in the 6-point census grows delta by 1 with a
    single new point, or by 0."""
    with verdict(capsys, 7, "primitive step dichotomy"):
        checked = 0
        for plane in census_upto(6):
            subs = subsets_of(plane.points)
            for lo in subs:
                for up in subs:
                    if not lo < up:
                        continue
                    if not is_strong(plane, lo, up):
                        continue
                    if not is_primitive(plane, lo, up):
                        continue
                    case = classify_primitive(plane, lo, up)
                    if case.growth == 1:
                        assert case.point in up - lo
                        assert len(up - lo) == 1
                    else:
                        assert case.growth == 0
                        assert case.point is None
                    checked += 1
        assert checked == 2428


def test_08_sharp_step_total(capsys):
    """Wherever its preconditions hold over the census, sharp_step yields a
    valid hereditarily nonnegative free amalgam or a strong embedding —
    never neither."""
    with verdict(capsys, 8, "sharp amalgamation never fails both ways"):
        calls = 0
        for b in census_upto(5):
            for c in subsets_of(b.points):
                if not is_strong(b, c):
                    continue
                k = min(3, 5 - len(c))
                if k == 0:
                    continue
                for a in enumerate_strong_extensions(restrict(b, c), k):
                    if not is_primitive(a, c, a.points):
                        continue
                    result = sharp_step(a, b, c)
                    if isinstance(result, FreeAmalgam):
                        validate(result.plane)
                        assert in_K0(result.plane)
                        assert result.plane.points == a.points | b.points
                        assert result.plane == free_amalgam(a, b, c).plane
                    else:
                        assert isinstance(result, StrongEmbedding)
                        emb = result.mapping
                        assert set(emb) == a.points
                        assert all(emb[p] == p for p in c)
                        image = frozenset(emb.values())
                        assert len(image) == len(a.points)
                        assert is_strong(b, image)
                        mapped = frozenset(
                            frozenset(emb[p] for p in ln) for ln in a.lines
                        )
                        assert mapped == restrict(b, image).lines
                    calls += 1
        assert calls == 551


def test_09_independence_agreement(capsys):
    """Numeric test d(A/C) = d(A/B) and structural test
    "A u B induces the canonical amalgam and is strong" agree on every
    census instance meeting the preconditions."""
    with verdict(capsys, 9, "numeric and structural independence agree"):
        checked = 0
        for plane in census_upto(6):
            subs = subsets_of(plane.points)
            strong_in = {s: is_strong(plane, s) for s in subs}
            for a in subs:
                if not strong_in[a]:
                    continue
                for b in subs:
                    if not strong_in[b]:
                        continue
                    c = a & b
                    if not is_strong(plane, c, a):
                        continue
                    if not is_strong(plane, c, b):
                        continue
                    numeric = d_rel(plane, a, c) == d_rel(plane, a, b)
                    merged = canonical_amalgam(
                        restrict(plane, a), restrict(plane, b), c
                    ).plane
                    structural = (
                        restrict(plane, a | b) == merged
                        and is_strong(plane, a | b)
                    )
                    assert numeric == structural
                    assert d_independent(plane, a, b, c) == numeric
                    checked += 1
        assert checked == 41748


def test_10_witnesses(capsys):
    """The witness constructions hit their advertised numbers exactly."""
    with verdict(capsys, 10, "witness bundle exactness", budget=10):
        # a growing base can drop d(A/-) from 1 to 0
        nob = witness_not_one_based()
        assert nob.ok
        assert nob.d_A_over_C == 1
        assert nob.d_A_over_B == 0

        # two disjoint intrinsically closed pairs spanning one shared line
        wei = witness_weak_ei()
        assert wei.ok
        amb = wei.plane
        pair1, pair2 = frozenset({"a", "b"}), frozenset({"a2", "b2"})
        shared = line_through(amb, "a", "b")
        assert shared is not None
        assert shared == line_through(amb, "a2", "b2")
        assert icl(amb, pair1) == pair1
        assert icl(amb, pair2) == pair2
        assert not pair1 & pair2

        # chain stages decompose into exactly one more step per level
        chain = morley_chain(6)
        assert chain.ok
        lengths = [int(v) for v in chain.lengths.split()]
        assert lengths == list(range(1, 8))
        assert all(lengths[m + 1] == lengths[m] + 1 for m in range(6))

        # k glued copies of one line over a shared pair: multiplicity k
        aprime = make_plane("pq", [])
        bprime = make_plane("pqr", ["pqr"])
        for k in range(1, 6):
            fold = iterated_amalgam(aprime, bprime, k)
            assert len(fold.points) == k + 2
            assert len(fold.lines) == 1
            (line,) = fold.lines
            assert len(line) == k + 2
            assert delta(fold) == 2


def test_11_generic_build(capsys):
    """A seeded 200-step build still contains the fixture and realizes
    every radius-2 extension type."""
    with verdict(capsys, 11, "seeded generic build audits clean", budget=600):
        nd = non_desarguesian_plane()
        chain = build_generic(200, 2, seeds=[nd])
        final = chain.final
        assert find_embedding(nd, final) is not None
        report = check_genericity(final, 2)
        assert report.unrealized == ()
        assert report.passed


def test_12_oracle_equivalence(capsys):
    """Flow-engine answers match naive full-enumeration oracles on 500
    randomized planes of up to 10 points."""
    with verdict(capsys, 12, "flow engine matches naive oracles"):
        rng = random.Random(73012)
        instances = 0
        for _ in range(500):
            plane = random_plane(rng, max_points=10)
            assert in_K0(plane) == oracle_in_K0(plane)
            pts = sorted(plane.points)
            for _ in range(2):
                seed = frozenset(rng.sample(pts, rng.randint(0, len(pts))))
                assert is_strong(plane, seed) == oracle_is_strong(plane, seed)
                assert d_value(plane, seed) == oracle_d_value(plane, seed)
                assert icl(plane, seed) == oracle_icl(plane, seed)
            instances += 1
        assert instances == 500
