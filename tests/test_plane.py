import gc
import weakref

import pytest

from planeforge import (
    InvalidPlaneError,
    canonical_key,
    closure,
    flats,
    is_induced_subplane,
    is_subgeometry,
    is_wedge_subgeometry,
    line_through,
    lines_based_in,
    make_plane,
    rank,
    rank2_flats,
    restrict,
    validate,
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


def test_validate_rejects_bad_names():
    with pytest.raises(InvalidPlaneError):
        validate(make_plane(["a", "b c"]))
    with pytest.raises(InvalidPlaneError):
        validate(make_plane(["a", "#b"]))


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


def test_rank(fano, fig2):
    assert rank(fano, frozenset()) == 0
    assert rank(fano, frozenset("1")) == 1
    assert rank(fano, frozenset("13")) == 2
    assert rank(fano, frozenset("123")) == 2
    assert rank(fano) == 3
    assert rank(fig2, frozenset("adf")) == 2
    assert rank(fig2, frozenset("abc")) == 3


def test_flats_triangle():
    p = make_plane("abcd", [["a", "b", "c"]])
    fs = flats(p)
    assert frozenset() in fs
    assert frozenset("a") in fs
    assert frozenset("abc") in fs      # the stored line
    assert frozenset("ad") in fs       # uncovered pair
    assert frozenset("ab") not in fs   # covered pair is not a flat
    assert p.points in fs


def test_rank2_flats_counts(fano):
    # every pair of fano is covered, so rank-2 flats are exactly the 7 lines
    assert rank2_flats(fano) == fano.lines
    free = make_plane("abc")
    assert rank2_flats(free) == {frozenset("ab"), frozenset("ac"), frozenset("bc")}


def test_line_through(fig2):
    assert line_through(fig2, "a", "d") == frozenset("adf")
    assert line_through(fig2, "a", "b") is None


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


def test_is_induced_subplane():
    p = make_plane("abcdx", [["a", "b", "c", "x"]])
    assert is_induced_subplane(make_plane("abd"), p)
    assert not is_induced_subplane(make_plane("abc"), p)  # trace abc is a line
    assert is_induced_subplane(make_plane("abc", ["abc"]), p)


def test_subgeometry_weaker_than_induced():
    # a 3-line sits inside the 4-line as a subgeometry but not induced
    sup = make_plane("abcx", [["a", "b", "c", "x"]])
    sub = make_plane("abcx", ["abc"])
    assert is_subgeometry(sub, sup)
    assert not is_induced_subplane(sub, sup)
    assert is_induced_subplane(restrict(sup, frozenset("abx")), sup)


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
