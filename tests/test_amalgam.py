import subprocess
import sys

import pytest

from planeforge import (
    BudgetExceeded,
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
    free_amalgam,
    is_primitive,
    is_strong,
    make_plane,
    restrict,
    sharp_step,
)
from planeforge import amalgam

from .conftest import library_env


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


def test_decompose_guards(fano, monkeypatch):
    with pytest.raises(NotStrong):
        decompose(fano, frozenset("1"), fano.points)
    monkeypatch.setenv("PLANEFORGE_BUDGET", "3")
    big = make_plane([f"p{i}" for i in range(12)])
    with pytest.raises(BudgetExceeded):
        decompose(big, frozenset(), big.points)


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
    # a point completing two lines over C breaks 1-strength of the base
    base = make_plane(
        ["p", "q", "r", "s", "y"], [["p", "q", "y"], ["r", "s", "y"]]
    )
    ext = make_plane(["p", "q", "r", "s", "x"])
    with pytest.raises(NotStrong):
        sharp_step(ext, base, frozenset("pqrs"))


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
