import random
import subprocess
import sys
from itertools import combinations

import pytest

from planeforge import (
    ExchangeViolation,
    FreeAmalgam,
    InvalidPlaneError,
    NotPrimitive,
    NotStrong,
    NotWedgeSubgeometry,
    PlaneError,
    PreconditionError,
    StrongEmbedding,
    canonical_amalgam,
    classify_primitive,
    d_independent,
    decompose,
    delta,
    enumerate_planes,
    free_amalgam,
    icl,
    is_primitive,
    is_strong,
    make_plane,
    restrict,
    sharp_step,
    validate,
)
from planeforge import amalgam, predim
import planeforge.generic as generic_mod

from .conftest import library_env, random_lines, random_plane
from .oracles import (
    is_wedge_subgeometry,
    oracle_canonical_amalgam,
    oracle_decompose,
)


def test_free_amalgam_disjoint(fig2):
    tri = make_plane("xyz", ["xyz"])
    out = free_amalgam(fig2, tri, frozenset())
    assert out.plane.points == fig2.points | tri.points
    assert out.plane.lines == fig2.lines | tri.lines
    assert out.kind == "free"
    assert not out.identified_lines
    assert delta(out.plane) == delta(fig2) + delta(tri)


def test_free_amalgam_over_point():
    a = make_plane("pab", ["pab"])
    b = make_plane("pcd", ["pcd"])
    out = free_amalgam(a, b, frozenset("p"))
    assert out.plane.n_points == 5
    assert delta(out.plane) == delta(a) + delta(b) - 1


def test_free_amalgam_collision_on_shared_pair():
    a = make_plane("pqx", ["pqx"])
    b = make_plane("pqy", ["pqy"])
    with pytest.raises(ExchangeViolation):
        free_amalgam(a, b, frozenset("pq"))


@pytest.mark.parametrize("broken_side", [0, 1])
def test_free_amalgam_reports_a_broken_input(broken_side):
    # Two lines of one side through the shared pair: the input is reported
    # as invalid, with validate's own message, before any line could vanish
    # from the union.
    bad = make_plane("pqxy", ["pqx", "pqy"])
    good = make_plane("pqz")
    a, b = (bad, good) if broken_side == 0 else (good, bad)
    with pytest.raises(InvalidPlaneError) as info:
        free_amalgam(a, b, frozenset("pq"))
    assert str(info.value) == "lines ['p', 'q', 'x'] and ['p', 'q', 'y'] share ['p', 'q']"


def test_amalgam_precondition_checks():
    a = make_plane("abc", ["abc"])
    b = make_plane("abd")
    with pytest.raises(PreconditionError):  # declared C is not the intersection
        free_amalgam(a, b, frozenset("a"))
    with pytest.raises(PreconditionError):  # sides disagree on C
        free_amalgam(a, make_plane("abcz"), frozenset("abc"))


def test_shared_line_unions_in_both_modes():
    a = make_plane("abcx", [["a", "b", "c", "x"]])
    b = make_plane("abcy", [["a", "b", "c", "y"]])
    for op in (free_amalgam, canonical_amalgam):
        out = op(a, b, frozenset("abc"))
        assert out.plane.lines == frozenset({frozenset("abcxy")})
        assert out.identified_lines == frozenset(
            {(frozenset("abcx"), frozenset("abcy"))}
        )


def test_canonical_glues_on_shared_pair():
    a = make_plane("pqx", ["pqx"])
    b = make_plane("pqy", ["pqy"])
    out = canonical_amalgam(a, b, frozenset("pq"))
    assert out.plane.lines == frozenset({frozenset("pqxy")})
    assert delta(out.plane) == delta(a) + delta(b) - 2


def test_crossing_union_lines_are_rejected():
    # two shared 3-lines, each side hanging both its extensions on one private
    # point: the unions would meet twice, which no plane admits
    a = make_plane("123456x", [["1", "2", "3", "x"], ["4", "5", "6", "x"]])
    b = make_plane("123456y", [["1", "2", "3", "y"], ["4", "5", "6", "y"]])
    c = frozenset("123456")
    with pytest.raises(ExchangeViolation):
        free_amalgam(a, b, c)
    with pytest.raises(NotWedgeSubgeometry):
        canonical_amalgam(a, b, c)


@pytest.mark.parametrize("colliding_side", [0, 1])
def test_canonical_amalgam_rejects_lines_sharing_two_points(colliding_side):
    # The glue is fine (one shared point, no lines on it), so only the full
    # validate of the amalgam can catch the input's broken line axiom.
    bad = make_plane("abcde", ["abc", "abd"])
    good = make_plane("exy", ["exy"])
    a, b = (bad, good) if colliding_side == 0 else (good, bad)
    with pytest.raises(InvalidPlaneError) as info:
        canonical_amalgam(a, b, frozenset("e"))
    assert str(info.value) == "lines ['a', 'b', 'c'] and ['a', 'b', 'd'] share ['a', 'b']"


def test_is_primitive_small_cases(fig2, fano):
    one = make_plane("p")
    assert is_primitive(one, frozenset(), frozenset("p"))
    two = make_plane("pq")
    assert not is_primitive(two, frozenset(), frozenset("pq"))
    assert is_primitive(fig2, frozenset("abc"), fig2.points)
    assert is_primitive(fano, frozenset(), fano.points)


def test_is_primitive_guards(fano):
    with pytest.raises(PreconditionError):
        is_primitive(fano, frozenset("12"), frozenset("1"))
    with pytest.raises(NotStrong):
        is_primitive(fano, frozenset("1"), fano.points)


def test_classify_primitive(fig2, fano):
    one = classify_primitive(make_plane("p"), frozenset(), frozenset("p"))
    assert one.growth == 1 and one.point == "p"
    flat = classify_primitive(fano, frozenset(), fano.points)
    assert flat.growth == 0 and flat.point is None
    assert classify_primitive(fig2, frozenset("abc"), fig2.points).growth == 0
    with pytest.raises(NotPrimitive):
        classify_primitive(make_plane("pq"), frozenset(), frozenset("pq"))


def test_decompose_deterministic_chain():
    plane = make_plane(["p1", "p2", "q0", "r"], [["p1", "p2", "q0"]])
    dec = decompose(plane, frozenset(), plane.points)
    assert dec.chain == (
        frozenset(),
        frozenset({"p1"}),
        frozenset({"p1", "p2"}),
        frozenset({"p1", "p2", "q0"}),
        plane.points,
    )
    assert dec.length == 4


def test_decompose_primitive_jump(fano):
    dec = decompose(fano, frozenset(), fano.points)
    assert dec.chain == (frozenset(), fano.points)
    assert dec.length == 1


def test_decompose_steps_are_primitive_and_strong(fig2):
    dec = decompose(fig2, frozenset(), fig2.points)
    for lo, hi in zip(dec.chain, dec.chain[1:]):
        assert is_strong(fig2, lo, hi)
        assert is_primitive(fig2, lo, hi)
    assert dec.chain[0] == frozenset() and dec.chain[-1] == fig2.points


def test_decompose_guards(fano):
    with pytest.raises(NotStrong):
        decompose(fano, frozenset("1"), fano.points)


def test_decompose_walks_no_subsets(monkeypatch):
    # A step costs one icl per point it could add, so the subset budget,
    # which only exhaustive searches honour, refuses nothing here.
    monkeypatch.setenv("PLANEFORGE_BUDGET", "3")
    solves = 0
    min_delta = predim._min_delta

    def counted(*args):
        nonlocal solves
        solves += 1
        return min_delta(*args)

    monkeypatch.setattr(predim, "_min_delta", counted)
    big = make_plane([f"p{i}" for i in range(12)])
    dec = decompose(big, frozenset(), big.points)
    assert [sorted(hi - lo) for lo, hi in zip(dec.chain, dec.chain[1:])] == [
        [p] for p in sorted(big.points)
    ]
    # the strength check, then one icl per step: each step stops at its
    # first one-point closure, and the last has one point left to add
    assert solves == 12
    assert not is_primitive(big, frozenset(), big.points)


def test_decompose_takes_the_first_of_two_disjoint_steps():
    # two copies of figure 2's primitive extension over abc: both are least
    # strong intermediates, and the one holding the first point comes first
    plane = make_plane("abcdefghi", ["adf", "cde", "bef", "agi", "cgh", "bhi"])
    lo = frozenset("abc")
    assert decompose(plane, lo, plane.points).chain == (
        lo, frozenset("abcdef"), plane.points
    )


def _strong_pairs(plane):
    """Every (lo, up) with lo strong in up, up running over all subsets."""
    pts = sorted(plane.points)
    for m in range(len(pts) + 1):
        for up in map(frozenset, combinations(pts, m)):
            for k in range(m + 1):
                for lo in map(frozenset, combinations(sorted(up), k)):
                    if is_strong(plane, lo, up):
                        yield lo, up


def _random_strong_pairs(seed, count):
    """Seeded pairs on planes of at most 10 points, every other one dense:
    lo the closure of up to three points inside up, up the whole plane or,
    now and then, the closure of some of its points."""
    rng = random.Random(seed)
    for i in range(count):
        plane = random_plane(rng, max_points=10)
        if i % 2:
            pts = [f"p{j}" for j in range(rng.randint(4, 10))]
            plane = make_plane(pts, random_lines(rng, pts, 6 * len(pts)))
        up = plane.points
        if rng.random() < 0.2:
            up = icl(plane, rng.sample(sorted(up), rng.randint(0, len(up))))
        inner = sorted(up)
        lo = icl(plane, rng.sample(inner, rng.randint(0, min(3, len(inner)))), up)
        yield plane, lo, up


def test_decompose_matches_the_subset_walk_oracle():
    cases = [(p, lo, up) for p in enumerate_planes(5) for lo, up in _strong_pairs(p)]
    cases += _random_strong_pairs(20260, 200)
    for plane, lo, up in cases:
        chain = oracle_decompose(plane, lo, up)
        assert decompose(plane, lo, up).chain == chain, (plane, lo, up)
        assert is_primitive(plane, lo, up) == (len(chain) <= 2), (plane, lo, up)


@pytest.mark.parametrize(
    "lower, upper",
    [("abc", "a"), ("z", "abcdefz"), ("a", "az"), ("", "abcdefz")],
)
def test_decompose_names_itself_when_the_sets_do_not_nest(fig2, lower, upper):
    # Checked first, as is_primitive does, so the message names decompose
    # rather than is_strong.
    with pytest.raises(
        PreconditionError, match="^decompose: need lower ⊆ upper ⊆ plane$"
    ):
        decompose(fig2, frozenset(lower), frozenset(upper))


def test_sharp_step_free_side():
    base = make_plane("cde", ["cde"])
    ext = make_plane("cx")
    out = sharp_step(ext, base, frozenset("c"))
    assert isinstance(out, FreeAmalgam)
    assert out.plane.points == frozenset("cdex")
    assert frozenset("cde") in out.plane.lines


def test_sharp_step_embedding_side():
    ext = make_plane("pqx", ["pqx"])
    base = make_plane("pqy", ["pqy"])
    out = sharp_step(ext, base, frozenset("pq"))
    assert isinstance(out, StrongEmbedding)
    assert out.mapping == {"p": "p", "q": "q", "x": "y"}


def test_sharp_step_degenerate_identity():
    base = make_plane("ab")
    out = sharp_step(make_plane("a"), base, frozenset("a"))
    assert isinstance(out, StrongEmbedding)
    assert out.mapping == {"a": "a"}


def test_sharp_step_guards(fano):
    with pytest.raises(NotStrong):  # shared part not strong in the extension
        sharp_step(fano, make_plane("1"), frozenset("1"))
    with pytest.raises(NotPrimitive):
        sharp_step(make_plane("cxy"), make_plane("cd"), frozenset("c"))
    # a point completing two lines over C: C is not strong in the base
    base = make_plane(
        ["p", "q", "r", "s", "y"], [["p", "q", "y"], ["r", "s", "y"]]
    )
    ext = make_plane(["p", "q", "r", "s", "x"])
    with pytest.raises(NotStrong):
        sharp_step(ext, base, frozenset("pqrs"))


def test_sharp_step_needs_c_strong_in_the_base():
    # C is 1-strong in b but not strong: delta(b) = 3 < delta(C) = 4.  The
    # free amalgam collides on c2 c3, and the one embedding, b0 -> a1, is not
    # strong, so a 1-strong precondition left sharp_step with neither.
    a = make_plane(["c0", "c1", "c2", "c3", "b0"], [["b0", "c2", "c3"]])
    b = make_plane(
        ["a0", "a1", "a2", "a3", "c0", "c1", "c2", "c3"],
        [
            ["a0", "a3", "c3"],
            ["a1", "a2", "c1"],
            ["a1", "a3", "c0"],
            ["a1", "c2", "c3"],
            ["a2", "c0", "c3"],
        ],
    )
    c = frozenset(["c0", "c1", "c2", "c3"])
    with pytest.raises(
        NotStrong, match="^sharp_step: shared part must be strong in the second plane$"
    ):
        sharp_step(a, b, c)


def test_d_independent_true(fig2):
    assert d_independent(fig2, frozenset("a"), frozenset("b"), frozenset())


def test_d_independent_false():
    plane = make_plane("pqr", ["pqr"])
    assert not d_independent(plane, frozenset("r"), frozenset("pq"), frozenset())


def test_d_independent_guards(fano, fig2):
    with pytest.raises(PreconditionError):
        d_independent(fig2, frozenset("ab"), frozenset("bc"), frozenset())
    with pytest.raises(NotStrong):
        d_independent(fano, frozenset("1"), frozenset("2"), frozenset())


def test_canonical_additivity_on_restrictions(fig2):
    # the induced plane on two strong halves equals their canonical amalgam
    a, b = frozenset("adf"), frozenset("bce")
    shared = a & b
    out = canonical_amalgam(restrict(fig2, a), restrict(fig2, b), shared)
    assert delta(out.plane) == delta(fig2, a) + delta(fig2, b) - delta(fig2, shared)


# One extra unit on every whole-plane delta breaks
# delta(out) = delta(a) + delta(b) - delta(a, C) in canonical_amalgam.
BROKEN_ADDITIVITY = """
from planeforge import PlaneError, amalgam, canonical_amalgam, make_plane
real = amalgam.delta
amalgam.delta = lambda plane, subset=None: real(plane, subset) + (subset is None)
try:
    canonical_amalgam(make_plane("pqx"), make_plane("pqy"), frozenset("pq"))
except PlaneError as exc:
    print(exc)
"""


def test_broken_additivity_raises(monkeypatch):
    real = amalgam.delta
    monkeypatch.setattr(
        amalgam, "delta", lambda plane, subset=None: real(plane, subset) + (subset is None)
    )
    with pytest.raises(PlaneError, match="additivity"):
        canonical_amalgam(make_plane("pqx"), make_plane("pqy"), frozenset("pq"))


def test_broken_additivity_raises_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_ADDITIVITY],
        capture_output=True, text=True, env=library_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "broke predimension additivity" in proc.stdout


# --- canonical_amalgam against its whole-plane oracle ---------------------------


def _outcome(op, a, b, c):
    try:
        result = op(a, b, c)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(result, amalgam.AmalgamResult):
        return result.plane, result.identified_lines
    return result


def _broken(plane) -> bool:
    try:
        validate(plane)
    except InvalidPlaneError:
        return True
    return False


def _agreeing_sides(rng):
    """Two valid planes meeting in C = c0, c1, ... that induce one plane on C.

    The first side is random.  The second keeps the first's lines on C,
    grows some of them by its own points, and adds random lines meeting C
    at most twice, so wedge failures turn up on either side.
    """
    c = [f"c{i}" for i in range(rng.randint(0, 6))]
    pa = c + [f"a{i}" for i in range(rng.randint(0, 4))]
    pb = c + [f"b{i}" for i in range(rng.randint(0, 4))]
    a = make_plane(pa, random_lines(rng, pa, 3 * len(pa)))
    own = pb[len(c):]
    lines = [set(t) for t in restrict(a, c).lines]
    taken = {frozenset((p, q)) for t in lines for p in t for q in t if p != q}
    for line in lines:
        for x in rng.sample(own, min(len(own), rng.randint(0, 2))):
            pairs = {frozenset((x, p)) for p in line}
            if not pairs & taken:
                taken |= pairs
                line.add(x)
    for extra in random_lines(rng, pb, 3 * len(pb)):
        pairs = {frozenset((p, q)) for p in extra for q in extra if p != q}
        if len(extra & set(c)) <= 2 and not pairs & taken:
            taken |= pairs
            lines.append(extra)
    b = make_plane(pb, lines)
    return (a, b, frozenset(c)) if rng.random() < 0.5 else (b, a, frozenset(c))


def _clash_away_from_glue(rng, plane, c):
    """plane plus a line on three points outside C that shares two points
    with one line meeting C at most once and at most one with every line
    meeting C twice, or None when plane has no room for one."""
    loose = [l for l in plane.lines if len(l & c) <= 1 and len(l - c) >= 2]
    based = [l for l in plane.lines if len(l & c) >= 2]
    for _ in range(20):
        if not loose:
            return None
        line = rng.choice(loose)
        pair = rng.sample(sorted(line - c), 2)
        rest = sorted(plane.points - c - line)
        if not rest:
            return None
        clash = frozenset(pair + [rng.choice(rest)])
        if all(len(clash & l) <= 1 for l in based):
            return make_plane(plane.points, [*plane.lines, clash])
    return None


def _wedge_broken(plane, c):
    """plane plus a point w on two new lines through disjoint uncovered
    pairs of C, or None when C has no two such pairs."""
    free = [
        frozenset(pq)
        for pq in combinations(sorted(c), 2)
        if frozenset(pq) not in plane.line_of_pair
    ]
    for p1, p2 in combinations(free, 2):
        if not p1 & p2:
            return make_plane(plane.points | {"w"}, [*plane.lines, p1 | {"w"}, p2 | {"w"}])
    return None


def _glue_cases(rng, n):
    """(kind, a, b, C): agreeing sides, a wrong C, disagreeing sides, a
    wedge failure planted on one side, and gluable sides given a clash away
    from the glue."""
    cases = []
    while len(cases) < n:
        a, b, c = _agreeing_sides(rng)
        kind = rng.choice(["agree", "shared", "disagree", "wedge", "collide", "collide"])
        if kind == "shared":
            odd = rng.choice(sorted(a.points ^ c or {"zz"}))
            c = c ^ {odd}
        elif kind == "disagree":
            pts = sorted(b.points)
            b = make_plane(pts, random_lines(rng, pts, 2 * len(pts)))
        elif kind == "wedge":
            if rng.random() < 0.5:
                a = _wedge_broken(a, c)
            else:
                b = _wedge_broken(b, c)
            if a is None or b is None:
                continue
        elif kind == "collide":
            # only the clash is wrong; a clash next to another fault is
            # reported as the clash (see the test after the next one)
            if isinstance(_outcome(oracle_canonical_amalgam, a, b, c)[0], type):
                continue
            if rng.random() < 0.5:
                a = _clash_away_from_glue(rng, a, c)
            else:
                b = _clash_away_from_glue(rng, b, c)
            if a is None or b is None:
                continue
        cases.append((kind, a, b, c))
    return cases


def test_canonical_amalgam_matches_whole_plane_oracle():
    rng = random.Random(20261018)
    outcomes = {}
    for kind, a, b, c in _glue_cases(rng, 400):
        want = _outcome(oracle_canonical_amalgam, a, b, c)
        assert _outcome(canonical_amalgam, a, b, c) == want, (kind, a, b, c)
        key = want[0].__name__ if isinstance(want[0], type) else "ok"
        if key in ("PreconditionError", "NotWedgeSubgeometry"):
            key += " " + want[1].split()[-2]
        outcomes[key] = outcomes.get(key, 0) + 1
        for side in (a, b):  # the local wedge verdict on every valid side
            if c <= side.points and not _broken(side):
                local = amalgam._based_among(side.lines, c)[1]
                assert local == is_wedge_subgeometry(restrict(side, c), side)
    # every way through the checks is taken
    assert set(outcomes) == {
        "ok",
        "PreconditionError point",
        "PreconditionError shared",
        "NotWedgeSubgeometry first",
        "NotWedgeSubgeometry second",
        "InvalidPlaneError",
    }
    assert min(outcomes.values()) >= 10, outcomes


def _with_clash_anywhere(rng, plane):
    line = rng.choice(sorted(plane.lines, key=sorted))
    rest = sorted(plane.points - line)
    return make_plane(
        plane.points, [*plane.lines, frozenset(rng.sample(sorted(line), 2) + rest[:1])]
    )


def test_canonical_amalgam_reports_an_invalid_input_first():
    # A broken input is reported as such, whatever else is wrong with the
    # glue: first side first, with validate's own message.
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        a, b, c = _agreeing_sides(rng)
        if not a.lines or len(a.points) < 4:
            continue
        a = _with_clash_anywhere(rng, a)
        with pytest.raises(InvalidPlaneError) as got:
            canonical_amalgam(a, b, c)
        with pytest.raises(InvalidPlaneError) as want:
            validate(a)
        assert str(got.value) == str(want.value)
        with pytest.raises(InvalidPlaneError) as got:
            canonical_amalgam(b, a, c)  # b is valid, so a is reported
        assert str(got.value) == str(want.value)
        checked += 1
    assert checked >= 50


@pytest.mark.parametrize(
    "steps, ext_bound, census_seeds",
    [
        pytest.param(200, 2, 0, id="200-2"),
        pytest.param(120, 3, 0, id="120-3"),
        pytest.param(500, 2, 3, id="500-2-census"),
    ],
)
def test_builder_steps_match_whole_plane_oracle(nd10, steps, ext_bound, census_seeds):
    # Each replayed stage is its predecessor glued to the copy the step
    # added, over the step's base, with the step's identifications, and the
    # lines each step added and dropped are the two stages' differences.
    # The census seeds, planes of 3-5 points, go before the fixture.
    rng = random.Random(census_seeds)
    pool = [p for p in enumerate_planes(5) if len(p.points) >= 3]
    seeds = [rng.choice(pool) for _ in range(census_seeds)] + [nd10]
    chain = generic_mod.build_generic(steps, ext_bound, seeds=seeds)
    stages = list(chain.replay())
    assert len(stages) == steps + 1
    for stage, successor, rec, step in zip(stages, stages[1:], chain.steps, chain.changes()):
        copy = restrict(successor, rec.base | rec.added)
        want = oracle_canonical_amalgam(stage, copy, rec.base)
        assert (successor, step.identified) == want, rec.index
        assert sorted(step.added_lines, key=sorted) == sorted(
            successor.lines - stage.lines, key=sorted
        ), rec.index
        assert sorted(step.dropped_lines, key=sorted) == sorted(
            stage.lines - successor.lines, key=sorted
        ), rec.index
    assert stages[-1] == chain.final
