import gc
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from itertools import combinations

import pytest

from planeforge import (
    InvalidPlaneError,
    PreconditionError,
    build_generic,
    canonical_key,
    closure,
    line_through,
    make_plane,
    rank,
    restrict,
    validate,
)

from .conftest import library_env, random_lines, random_plane
from .oracles import (
    is_subgeometry,
    is_wedge_subgeometry,
    lines_based_in,
    oracle_validate,
    rank2_flats,
)


def test_make_plane_basics():
    p = make_plane("abc", ["abc"])
    assert p.points == frozenset("abc")
    assert p.lines == frozenset({frozenset("abc")})
    assert p.n_points == 3


def test_validate_rejects_short_line():
    p = make_plane("abc", [])
    validate(p)  # fine
    bad = make_plane("abc", [["a", "b"]])
    with pytest.raises(InvalidPlaneError):
        validate(bad)


def test_validate_rejects_line_outside_points():
    bad = make_plane("ab", [["a", "b", "z"]])
    with pytest.raises(InvalidPlaneError):
        validate(bad)


def test_validate_rejects_two_lines_sharing_two_points():
    bad = make_plane("abcd", [["a", "b", "c"], ["a", "b", "d"]])
    with pytest.raises(InvalidPlaneError):
        validate(bad)


def _outcome(check, plane):
    try:
        check(plane)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return None


def test_validate_matches_pairwise_oracle():
    # Valid random planes with 0-3 planted lines that each share two points
    # with a line already there; now and then a short or stray line too, so
    # the earlier checks keep their order against the line axiom.
    rng = random.Random(61)
    raised = 0
    for _ in range(400):
        pts = [f"p{j}" for j in range(rng.randint(3, 12))]
        lines = random_lines(rng, pts, rng.randint(0, 2 * len(pts)))
        for _ in range(rng.randint(0, 3)):
            base = sorted(rng.choice(lines)) if lines else rng.sample(pts, 3)
            pair = rng.sample(base, 2)
            rest = [p for p in pts if p not in base]
            extra = rng.sample(rest, min(len(rest), rng.randint(1, 2)))
            lines.append(frozenset(pair + extra))
        if rng.random() < 0.05:
            lines.append(frozenset(rng.sample(pts, 2)))
        if rng.random() < 0.05:
            lines.append(frozenset(rng.sample(pts, 2) + ["zz"]))
        plane = make_plane(pts, lines)
        want = _outcome(oracle_validate, plane)
        assert _outcome(validate, plane) == want, plane
        raised += want is not None
    assert 100 <= raised <= 350


# Names the one-pass check must reject exactly as the per-name rule does.
HOSTILE_NAMES = ["", " a", "a b", "a\t", "a\n", "a\xa0", "a\u2028", "a#", "a\x01", 1, b"a"]


@pytest.mark.parametrize("name", HOSTILE_NAMES, ids=repr)
def test_hostile_name_matches_oracle(name):
    plane = make_plane(["p", "q", "r", name], ["pqr"])
    want = _outcome(oracle_validate, plane)
    assert want == (InvalidPlaneError, f"bad point name: {name!r}")
    assert _outcome(validate, plane) == want


def test_several_hostile_names_name_the_least_by_repr():
    rng = random.Random(23)
    for _ in range(200):
        names = rng.sample(HOSTILE_NAMES, rng.randint(2, 5))
        plane = make_plane(["p", "q", "r", *names], ["pqr"])
        want = _outcome(oracle_validate, plane)
        assert want == (InvalidPlaneError, f"bad point name: {min(names, key=repr)!r}")
        assert _outcome(validate, plane) == want


def test_every_whitespace_character_breaks_a_name():
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert len(spaces) > 20
    for c in spaces:
        plane = make_plane(["a", f"b{c}c"])
        assert _outcome(validate, plane) == _outcome(oracle_validate, plane) is not None
    plane = make_plane(["\xe9", "\u0436", "\u221e", "\U0001d53d", "a-b_c.d"])
    assert _outcome(validate, plane) is None
    assert _outcome(oracle_validate, plane) is None


def test_validate_remembers_only_success(monkeypatch):
    import planeforge.plane as plane_mod

    runs = []
    check = plane_mod._check_structure

    def counted(plane):
        runs.append(plane)
        check(plane)

    monkeypatch.setattr(plane_mod, "_check_structure", counted)
    good = make_plane("abcd", [["a", "b", "c"]])
    validate(good)
    validate(good)
    assert len(runs) == 1
    bad = make_plane("abcd", [["a", "b", "c"], ["a", "b", "d"]])
    for attempt in (2, 3):
        with pytest.raises(InvalidPlaneError, match="share"):
            validate(bad)
        assert len(runs) == attempt
    assert "_valid" not in bad.__dict__
    twin = make_plane("abcd", ["abc"])  # the mark is not data
    assert good == twin and hash(good) == hash(twin)


VALIDATE_TWICE = """
from planeforge import InvalidPlaneError, make_plane, validate
bad = make_plane("abcd", [["a", "b", "c"], ["a", "b", "d"]])
for _ in range(2):
    try:
        validate(bad)
    except InvalidPlaneError as exc:
        print(exc)
"""


def test_validate_raises_every_call_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", VALIDATE_TWICE],
        capture_output=True, text=True, env=library_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    message = "lines ['a', 'b', 'c'] and ['a', 'b', 'd'] share ['a', 'b']\n"
    assert proc.stdout == 2 * message


VALIDATE_MANY_OFFENDERS = """
from planeforge import InvalidPlaneError, make_plane, validate
for plane in (
    make_plane("abcdefgh", ["gh", "cd", "efz", "ab"]),
    make_plane("abcdefgh", ["ghy", "cdx", "efz", "abw"]),
    make_plane(["a\\x01", "b\\x02", "c\\x03", "d\\x04", "e"]),
):
    try:
        validate(plane)
    except InvalidPlaneError as exc:
        print(exc)
"""


def test_validate_names_the_least_offender_under_any_hash_seed():
    # The offenders sit in sets, whose order changes with PYTHONHASHSEED;
    # each check names its least one.
    want = (
        "line ['a', 'b'] has 2 points; lines need at least 3\n"
        "line ['a', 'b', 'w'] uses unknown points ['w']\n"
        "bad point name: 'a\\x01'\n"
    )
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", VALIDATE_MANY_OFFENDERS],
            capture_output=True, text=True, timeout=60,
            env={**library_env(), "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want, hash_seed


def test_validate_rejects_bad_names():
    with pytest.raises(InvalidPlaneError):
        validate(make_plane(["a", "b c"]))
    with pytest.raises(InvalidPlaneError):
        validate(make_plane(["a", "#b"]))
    with pytest.raises(InvalidPlaneError):
        validate(make_plane(["a", "b", "c\x00"]))


def test_closure_cases(fano):
    assert closure(fano, frozenset()) == frozenset()
    assert closure(fano, frozenset("1")) == frozenset("1")
    # pair on a stored line closes to the line
    assert closure(fano, frozenset("12")) == frozenset("123")
    # triple spanning closes to everything
    assert closure(fano, frozenset("124")) == fano.points


def test_closure_uncovered_pair():
    p = make_plane("abcd", [["a", "b", "c"]])
    assert closure(p, frozenset("ad")) == frozenset("ad")


@pytest.mark.parametrize("op", [closure, rank, restrict])
def test_subset_outside_the_plane_is_a_precondition_error(fano, op):
    # the plane itself is sound, so this is not an InvalidPlaneError
    with pytest.raises(PreconditionError, match=rf"^{op.__name__}: \['z'\] outside plane$"):
        op(fano, {"1", "z"})


def test_rank(fano, fig2):
    assert rank(fano, frozenset()) == 0
    assert rank(fano, frozenset("1")) == 1
    assert rank(fano, frozenset("13")) == 2
    assert rank(fano, frozenset("123")) == 2
    assert rank(fano) == 3
    assert rank(fig2, frozenset("adf")) == 2
    assert rank(fig2, frozenset("abc")) == 3


def test_rank2_flats_counts(fano):
    # every pair of fano is covered, so rank-2 flats are exactly the 7 lines
    assert rank2_flats(fano) == fano.lines
    free = make_plane("abc")
    assert rank2_flats(free) == {frozenset("ab"), frozenset("ac"), frozenset("bc")}


def _scanned_line(plane, p, q):
    """The stored line holding p and q, by a scan of every line."""
    if p == q:
        return None
    return next((line for line in plane.lines if {p, q} <= line), None)


def test_line_through(fig2):
    for p, q in ("ad", "da", "fa"):  # a covered pair, in both orders
        assert line_through(fig2, p, q) == frozenset("adf")
    assert line_through(fig2, "a", "b") is None  # an uncovered pair
    assert line_through(fig2, "a", "a") is None  # a is on a line
    assert line_through(make_plane("a"), "a", "a") is None
    for p, q in (("a", "z"), ("z", "a"), ("y", "z")):  # z and y are not in the plane
        assert line_through(fig2, p, q) is None
    rng = random.Random(30)
    planes = [random_plane(rng) for _ in range(60)] + [build_generic(40, 2).final]
    for plane in planes:
        names = sorted(plane.points) + ["zz"]
        for p in names:
            for q in names:
                assert line_through(plane, p, q) == _scanned_line(plane, p, q), (p, q)


def test_line_through_on_a_long_line_builds_no_pair_index():
    # Nothing a plane keeps may grow with the square of a line's length:
    # one 2,000-point line has about two million pairs.
    line = [f"p{i}" for i in range(2000)]
    plane = make_plane([*line, "x", "y"], [line])
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert line_through(plane, "p0", "p1999") == frozenset(line)
        assert line_through(plane, "x", "y") is None
        elapsed = time.perf_counter() - started
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 4 * 2**20
    assert elapsed < 1.0


def test_incidence_indices_die_with_their_plane():
    plane = make_plane("abcdef", ["abc", "cde"])
    assert line_through(plane, "a", "b") == frozenset("abc")
    canonical_key(plane)
    ref = weakref.ref(plane)
    del plane
    gc.collect()
    assert ref() is None


def test_lines_based_in(fig2):
    assert lines_based_in(fig2, frozenset("ad")) == {frozenset("adf")}
    assert lines_based_in(fig2, frozenset("ab")) == set()
    assert lines_based_in(fig2, fig2.points) == fig2.lines


def test_restrict_traces():
    p = make_plane("abcdx", [["a", "b", "c", "x"], ["c", "d", "x"]])
    sub = restrict(p, frozenset("abcd"))
    assert sub.points == frozenset("abcd")
    # the 4-line leaves a 3-point trace, the 3-line drops to a pair
    assert sub.lines == frozenset({frozenset("abc")})


def test_subgeometry_weaker_than_induced():
    # a 3-line sits inside the 4-line as a subgeometry but not induced
    sup = make_plane("abcx", [["a", "b", "c", "x"]])
    sub = make_plane("abcx", ["abc"])
    assert is_subgeometry(sub, sup)
    assert restrict(sup, sub.points) != sub


def test_wedge_needs_distinct_closures():
    # two disjoint pairs of the sub lying on one sup line share a closure
    sup = make_plane("abcd", [["a", "b", "c", "d"]])
    sub = restrict(sup, frozenset("abcd"))
    assert is_wedge_subgeometry(sub, sup)
    flat_pairs = make_plane("abcd")  # same points, no line: pairs collapse in sup
    assert not is_wedge_subgeometry(flat_pairs, sup)


def test_wedge_rejects_point_on_two_based_lines():
    # p sits on two lines each spanned by a pair of the (line-free) sub
    sup = make_plane("xyzwp", [["x", "y", "p"], ["z", "w", "p"]])
    sub = make_plane("xyzw")
    assert is_subgeometry(sub, sup)
    assert not is_wedge_subgeometry(sub, sup)


def test_wedge_accepts_strong_style_subs():
    sup = make_plane("abcq", [["a", "b", "c"]])
    sub = make_plane("abc", ["abc"])
    assert is_wedge_subgeometry(sub, sup)


def _direct_wedge(sub, sup) -> bool:
    """is_wedge_subgeometry stated straight from its definition."""
    if not sub.points <= sup.points:
        return False
    if not all(any(l <= m for m in sup.lines) for l in sub.lines):
        return False

    def sub_flat(pair):  # the rank-2 flat of sub through a pair
        return next((l for l in sub.lines if pair <= l), pair)

    def sup_closure(flat):  # the smallest flat of sup containing it
        return next((m for m in sup.lines if flat <= m), flat)

    flats2 = {sub_flat(frozenset(pair)) for pair in combinations(sub.points, 2)}
    closures = [sup_closure(f) for f in flats2]
    # (a) distinct rank-2 flats have distinct closures
    if len(set(closures)) != len(closures):
        return False
    # (b) no outside point lies on two of those closures
    return all(
        sum(1 for c in closures if p in c) < 2 for p in sup.points - sub.points
    )


def test_wedge_matches_direct_definition():
    # Dense sups and large subs, so that (a), (b) and the subgeometry
    # condition each fail on some of the 300 pairs.
    rng = random.Random(40713)
    verdicts = []
    for i in range(300):
        pts = [f"p{j}" for j in range(rng.randint(0, 9))]
        sup = make_plane(pts, random_lines(rng, pts, 3 * len(pts)))
        chosen = frozenset(rng.sample(pts, rng.randint(len(pts) // 2, len(pts))))
        if i % 3 == 0:  # induced subplane
            sub = restrict(sup, chosen)
        elif i % 3 == 1:  # subgeometry: some line traces, possibly shrunk
            traces = [sorted(l & chosen) for l in sup.lines if len(l & chosen) >= 3]
            sub = make_plane(
                chosen,
                [t[: rng.randint(3, len(t))] for t in traces if rng.random() < 0.6],
            )
        else:  # lines of its own, often not inside any sup line
            sub = make_plane(chosen, random_lines(rng, sorted(chosen), len(chosen)))
        got = is_wedge_subgeometry(sub, sup)
        assert got == _direct_wedge(sub, sup), (sub, sup)
        verdicts.append(got)
    assert 30 <= sum(verdicts) <= 270
