import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from planeforge import (
    BudgetExceeded,
    PreconditionError,
    alpha,
    build_generic,
    d_rel,
    d_value,
    delta,
    delta_rel,
    enumerate_planes,
    icl,
    in_K0,
    is_k_strong,
    is_strong,
    make_plane,
    non_desarguesian_plane,
    predim_report,
    rank,
    restrict,
)

from .conftest import random_lines, random_plane
from .oracles import (
    networkx_min_delta,
    oracle_alpha,
    oracle_d_value,
    oracle_delta,
    oracle_icl,
    oracle_in_K0,
    oracle_is_strong,
)

# affine plane of order 3: 9 points, 12 lines, delta = -3
AG23 = make_plane(
    "123456789",
    ["123", "456", "789", "147", "258", "369", "159", "267", "348", "357", "168", "249"],
)


def test_delta_fixed_values(nd10, fig2, fano):
    assert delta(nd10) == 1
    assert delta(fig2) == 3
    assert delta(fano) == 0
    assert delta(AG23) == -3
    assert delta(fano, frozenset()) == 0
    assert delta(fano, frozenset("1")) == 1
    assert delta(fano, frozenset("123")) == 2  # one full line
    assert delta(make_plane("abcd", [["a", "b", "c", "d"]])) == 2


def test_delta_rel(fano):
    line = frozenset("123")
    assert delta_rel(fano, frozenset("4"), line) == 1  # 4 off that line
    assert delta_rel(fano, fano.points, line) == -2
    assert delta_rel(fano, frozenset(), line) == 0


def test_alpha_fixed_values(nd10, fig2, fano):
    assert alpha(nd10) == -2
    assert alpha(fano) == -3
    assert alpha(fig2) == 0
    assert alpha(fano, frozenset("123")) == 1  # a full line carries its nullity
    assert alpha(fano, frozenset("12")) == 0


def test_delta_is_alpha_plus_three_on_rank3(nd10, fig2, fano):
    for plane in (nd10, fig2, fano, AG23):
        assert delta(plane) == alpha(plane) + 3


def test_d_value_fixtures(nd10, fano):
    assert d_value(fano, frozenset("1")) == 0  # the whole fano absorbs it
    assert d_value(fano, frozenset()) == 0
    assert d_value(nd10, frozenset(nd10.points)) == 1
    assert d_value(AG23, frozenset()) == -3


def test_d_rel(fano):
    assert d_rel(fano, frozenset("1"), frozenset()) == 0
    assert d_rel(fano, fano.points, frozenset("1")) == 0


def test_d_rel_names_itself_and_the_stray_point(fano):
    with pytest.raises(PreconditionError, match=r"^d_rel: \['z'\] outside plane$"):
        d_rel(fano, {"z"}, {"1"})
    with pytest.raises(PreconditionError, match=r"^d_rel: \['z'\] outside plane$"):
        d_rel(fano, {"1"}, {"z"})


def test_icl_fixtures(fano, fig2):
    # any fano point drags in the whole plane
    assert icl(fano, frozenset("1")) == fano.points
    # fig2 singletons are already strong
    assert icl(fig2, frozenset("a")) == frozenset("a")
    assert icl(fig2, frozenset()) == frozenset()


def test_is_strong_fixtures(nd10, fig2, fano):
    assert is_strong(fig2, frozenset("abc"))
    assert is_strong(nd10, nd10.points)
    assert not is_strong(fano, frozenset("1"))
    assert is_strong(fano, fano.points)
    # empty set is strong exactly when the plane is hereditarily nonnegative
    assert is_strong(fano, frozenset())
    assert not is_strong(AG23, frozenset())


def test_within_restricts_the_ambient(fano):
    # inside a single line the point cannot be absorbed
    assert is_strong(fano, frozenset("1"), within=frozenset("123"))
    assert d_value(fano, frozenset("1"), within=frozenset("123")) == 1
    assert icl(fano, frozenset("1"), within=frozenset("1")) == frozenset("1")


def test_k_strong_ladder(fano):
    p = frozenset("1")
    for k in range(6):
        assert is_k_strong(fano, p, k)
    assert not is_k_strong(fano, p, 6)  # the full plane finally drops delta
    assert is_k_strong(fano, p, 9) == is_strong(fano, p)  # k past |free| collapses


def test_k_strong_guards(fano):
    with pytest.raises(PreconditionError):
        is_k_strong(fano, frozenset("1"), -1)


def test_k_strong_budget(monkeypatch):
    big = make_plane([f"p{i}" for i in range(30)])
    monkeypatch.setenv("PLANEFORGE_BUDGET", "5")
    with pytest.raises(BudgetExceeded):
        is_k_strong(big, frozenset(["p0"]), 4)


def test_in_K0(nd10, fig2, fano):
    assert in_K0(nd10)
    assert in_K0(fig2)
    assert in_K0(fano)
    assert not in_K0(AG23)


def test_predim_report(fano):
    rep = predim_report(fano)
    assert rep.delta == 0 and rep.alpha == -3 and rep.in_k0
    assert rep.violating_subset is None
    assert "in_K0: true" in rep.text()

    bad = predim_report(AG23)
    assert not bad.in_k0
    assert bad.violating_subset is not None
    assert delta(AG23, bad.violating_subset) < 0
    assert "violating_subset: " in bad.text()


def test_subset_outside_plane_raises(fano):
    with pytest.raises(PreconditionError):
        d_value(fano, frozenset("z"))
    with pytest.raises(PreconditionError):
        icl(fano, frozenset("12"), within=frozenset("2"))


# --- oracle cross-checks on random planes ------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)


def _subset_of(plane, rng):
    pts = sorted(plane.points)
    return frozenset(p for p in pts if rng.random() < 0.4)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_delta_matches_oracle(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    x = _subset_of(plane, rng)
    assert delta(plane, x) == oracle_delta(plane, x)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_d_value_matches_oracle(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    x = _subset_of(plane, rng)
    assert d_value(plane, x) == oracle_d_value(plane, x)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_icl_matches_oracle(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    x = _subset_of(plane, rng)
    assert icl(plane, x) == oracle_icl(plane, x)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_strong_and_K0_match_oracle(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=8)
    x = _subset_of(plane, rng)
    assert is_strong(plane, x) == oracle_is_strong(plane, x)
    assert in_K0(plane) == oracle_in_K0(plane)


def test_seeds_of_whole_lines_match_oracle():
    # Seeds that contain whole lines (a union of 1-3 lines plus loose
    # points, or every point) make _min_delta credit those lines instead of
    # giving them nodes; `within` also cuts some lines down to traces that
    # lie in the seed.
    rng = random.Random(71)
    weak = 0
    for _ in range(150):
        pts = [f"p{j}" for j in range(rng.randint(3, 12))]
        plane = make_plane(pts, random_lines(rng, pts, 3 * len(pts)))
        lines = sorted(sorted(l) for l in plane.lines)
        chosen = rng.sample(lines, min(len(lines), rng.randint(1, 3)))
        loose = {p for p in plane.points if rng.random() < 0.25}
        for x in (frozenset().union(*chosen, loose), plane.points):
            within = x | {p for p in plane.points if rng.random() < 0.6}
            for w in (None, within):
                assert d_value(plane, x, w) == oracle_d_value(plane, x, w)
                assert icl(plane, x, w) == oracle_icl(plane, x, w)
                strong = is_strong(plane, x, w)
                assert strong == oracle_is_strong(plane, x, w)
                weak += not strong
    assert weak >= 50


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_icl_laws(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=9)
    x = _subset_of(plane, rng)
    c = icl(plane, x)
    assert x <= c
    assert icl(plane, c) == c           # idempotent
    assert is_strong(plane, c)          # closure is strong
    assert delta(plane, c) == d_value(plane, x)  # and realizes the d-value


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_delta_submodular(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=9)
    x = _subset_of(plane, rng)
    y = _subset_of(plane, rng)
    assert delta(plane, x | y) + delta(plane, x & y) <= delta(plane, x) + delta(plane, y)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_d_monotone_and_bounded(seed):
    rng = random.Random(seed)
    plane = random_plane(rng, max_points=9)
    x = _subset_of(plane, rng)
    assert d_value(plane, x) <= delta(plane, x)
    for p in sorted(plane.points - x)[:3]:
        assert d_value(plane, x) <= d_value(plane, x | {p})


def test_alpha_shift_identity_on_rank3_planes():
    # delta = alpha + 3 whenever the plane has full rank (every line is then
    # a proper flat; a plane that *is* a single line escapes the identity)
    rng = random.Random(7)
    hits = 0
    for _ in range(40):
        plane = random_plane(rng, max_points=8)
        if rank(plane) == 3:
            hits += 1
            assert delta(plane) == alpha(plane) + 3
    assert hits > 20

    one_line = make_plane("abcd", [["a", "b", "c", "d"]])
    assert delta(one_line) == 2
    assert alpha(one_line) == 2  # whole ground set is the line, no proper flat pays


def test_alpha_matches_mason_recursion():
    rng = random.Random(17)
    planes = enumerate_planes(7) + [non_desarguesian_plane()]
    planes += [random_plane(rng, max_points=10) for _ in range(300)]
    checked = 0
    for plane in planes:
        pts = sorted(plane.points)
        subsets = [None, *plane.lines]
        subsets += [frozenset(rng.sample(pts, rng.randint(0, len(pts)))) for _ in range(4)]
        for x in subsets:
            assert alpha(plane, x) == oracle_alpha(plane, x), (plane, x)
            checked += 1
        if rank(plane) == 3:
            assert delta(plane) == alpha(plane) + 3
    assert checked > 2000


def test_k_strong_agrees_with_brute_force():
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        plane = random_plane(rng, max_points=7)
        pts = sorted(plane.points)
        cases.append((plane, frozenset(p for p in pts if rng.random() < 0.4)))
    # abc is 2-strong but not 3-strong: xyz completes three lines over it,
    # so the subset walk answers both ways
    cases.append((make_plane("abcxyzw", ["abx", "acy", "bcz", "xyz"]), frozenset("abc")))
    verdicts = set()
    for plane, x in cases:
        free = sorted(plane.points - x)
        for k in range(0, len(free) + 1):
            base = delta(plane, x)
            expect = all(
                delta(plane, x | frozenset(extra)) >= base
                for size in range(1, k + 1)
                for extra in combinations(free, size)
            )
            assert is_k_strong(plane, x, k) == expect
            if k < len(free):  # answered by the walk, not by is_strong
                verdicts.add(expect)
    assert verdicts == {True, False}


# --- K0 along a growing plane -------------------------------------------------


@pytest.mark.parametrize("steps, ext_bound, seeded", [(200, 2, True), (120, 3, False)])
def test_growing_k0_agrees_on_every_build_stage(nd10, steps, ext_bound, seeded):
    # The builder proves each stage is in K0 rather than solving it: the
    # solver agrees on every stage, and the oracle on the small ones.
    chain = build_generic(steps, ext_bound, seeds=[nd10] if seeded else [])
    for stage in chain.stages:
        assert in_K0(stage)
        if len(stage.points) <= 14:
            assert oracle_in_K0(stage)


def _pg23():
    """The projective plane of order 3: 13 points, 13 four-point lines."""
    # one vector per 1-dimensional subspace of GF(3)^3: first nonzero entry 1
    vecs = [v for v in product(range(3), repeat=3) if any(v) and next(x for x in v if x) == 1]
    name = {v: "".join(map(str, v)) for v in vecs}
    lines = [
        [name[p] for p in vecs if sum(a * b for a, b in zip(n, p)) % 3 == 0]
        for n in vecs
    ]
    return make_plane(name.values(), lines)


PG23 = _pg23()


@pytest.mark.parametrize("plane", [AG23, PG23], ids=["AG23", "PG23"])
@pytest.mark.parametrize("seed", range(4))
def test_growing_k0_follows_a_plane_point_by_point(plane, seed):
    # Start from a line and add the other points in a seeded order.  in_K0
    # agrees with the oracle at every size and, K0 being hereditary, turns
    # False once and for all; a stage in K0 that is strong in the next one
    # (a restriction, so induced) carries K0 over to it.  In PG(2,3) lines
    # first appear as three-point traces and are extended later.
    rng = random.Random(seed)
    line = sorted(rng.choice(sorted(plane.lines, key=sorted)))
    rest = sorted(plane.points - set(line))
    rng.shuffle(rest)
    order = line + rest
    stages = [restrict(plane, order[:k]) for k in range(len(line), len(order) + 1)]
    verdicts = [in_K0(stage) for stage in stages]
    assert verdicts == [oracle_in_K0(stage) for stage in stages]
    assert verdicts == sorted(verdicts, reverse=True)
    assert verdicts[0] and not verdicts[-1]
    for k, (old, new) in enumerate(zip(stages, stages[1:])):
        if verdicts[k] and is_strong(new, old.points):
            assert verdicts[k + 1]


def test_a_strong_induced_K0_subplane_puts_the_plane_in_K0():
    # delta is submodular, so delta(X) >= delta(X | S) - delta(S) + delta(X & S)
    # >= delta(X & S) >= 0 when S is strong and its induced subplane is in
    # K0.  The builder proves each stage is in K0 by this.  Hypotheses and
    # verdict are decided by the oracles, over seeded planes of at most 10
    # points, some of them outside K0, and subsets S drawn at random or as
    # closures.
    rng = random.Random(29)
    held = outside_k0 = 0
    for _ in range(120):
        kind = rng.randrange(3)
        if kind == 0:
            plane = random_plane(rng, max_points=10)
        else:
            big = AG23 if kind == 1 else PG23
            size = rng.randint(7, min(10, len(big.points)))
            plane = restrict(big, rng.sample(sorted(big.points), size))
        in_k0 = oracle_in_K0(plane)
        outside_k0 += not in_k0
        pts = sorted(plane.points)
        for _ in range(4):
            s = frozenset(p for p in pts if rng.random() < 0.5)
            if rng.random() < 0.5:
                s = icl(plane, s)
            if oracle_in_K0(restrict(plane, s)) and oracle_is_strong(plane, s):
                held += 1
                assert in_k0, (plane, s)
    assert held >= 200 and outside_k0 >= 20


def test_icl_and_d_value_match_networkx_on_built_stages(nd10):
    # Stages too big to enumerate, against networkx's max-flow.  On the
    # 58-point stage 30 of the 200/2 nd10 chain, every pair S with a
    # nontrivial closure X = icl(S): the minimum over S..U is delta(X) and
    # d_value(S), X is strong, and dropping any p of X - S from U raises
    # the minimum, so p lies in every minimizer and X is the least one.
    stages = list(build_generic(200, 2, seeds=[nd10]).replay())
    stage = stages[30]
    assert len(stage.points) == 58
    closures = 0
    for s in map(frozenset, combinations(sorted(stage.points), 2)):
        x = icl(stage, s)
        if x == s:
            continue
        closures += 1
        least = networkx_min_delta(stage, s)
        assert least == oracle_delta(stage, x) == d_value(stage, s), s
        assert networkx_min_delta(stage, x) == least, s
        for p in x - s:
            assert networkx_min_delta(stage, s, stage.points - {p}) > least, (s, p)
    assert closures == 45
    # d_value on the 349-point stage 200: each seed is two points of a
    # stored line and one more point, so some closures are nontrivial.
    stage = stages[200]
    assert len(stage.points) == 349
    rng = random.Random(200)
    pts, lines = sorted(stage.points), sorted(map(sorted, stage.lines))
    below = 0
    for _ in range(20):
        pair = rng.sample(rng.choice(lines), 2)
        s = frozenset(pair + [rng.choice([p for p in pts if p not in pair])])
        assert d_value(stage, s) == networkx_min_delta(stage, s), s
        below += d_value(stage, s) < delta(stage, s)
    assert below > 0
