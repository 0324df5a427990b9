import pytest
from hypothesis import given, strategies as st

from planeforge import ParseError, make_plane, parse_plane, read_plane, serialize_plane

from .conftest import DATA


def test_parse_fixture_files():
    name, plane = read_plane(DATA / "nd10.plane")
    assert name == "nd10"
    assert plane.n_points == 10
    assert len(plane.lines) == 9

    name, plane = read_plane(DATA / "empty.plane")
    assert name == "empty"
    assert plane.points == frozenset()


def test_parse_comments_and_split_points():
    text = """\
# leading comment
plane t

points a b   # trailing comment
points c
line a b c
"""
    name, plane = parse_plane(text)
    assert name == "t"
    assert plane == make_plane("abc", ["abc"])


@pytest.mark.parametrize(
    "text, fragment, lineno",
    [
        ("points a", "before plane header", 1),
        ("line a b c", "before plane header", 1),
        ("plane t\nplane u", "duplicate", 2),
        ("plane t\npoints a a", "declared twice", 2),
        ("plane t\npoints a b\nline a b", "at least 3", 3),
        ("plane t\nline a b c", "undeclared", 2),
        ("plane t\npoints a b c\nline a b b", "repeated", 3),
        ("plane t\nfoo a", "unknown directive", 2),
        ("plane t u", "expected: plane", 1),
        ("plane t\npoints", "empty points", 2),
        ("plane d\npoints a b c\nline a b c\nline a b c", "line a b c declared twice", 4),
        ("plane d\npoints a b c\nline a b c\nline c a b", "line c a b declared twice", 4),
    ],
)
def test_parse_errors(text, fragment, lineno):
    with pytest.raises(ParseError) as exc:
        parse_plane(text)
    assert fragment in str(exc.value)
    assert exc.value.lineno == lineno
    assert f"line {lineno}:" in str(exc.value)


def test_missing_header_has_no_lineno():
    with pytest.raises(ParseError) as exc:
        parse_plane("# nothing here\n")
    assert exc.value.lineno is None


def test_read_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        read_plane(DATA / "does_not_exist.plane")


# read_plane reads "\r\n" and a lone "\r" as "\n", as Python's universal
# newlines do; parse_plane breaks lines only at "\n".
@pytest.mark.parametrize(
    "raw",
    [
        b"plane x\rpoints a b c d\r# note\rline a b c\r",
        b"plane x\r\npoints a b c d\r\n# note\r\nline a b c\r\n",
        b"plane x\r\npoints a b c d\r\r\n# note\rline a b c\n\r",
    ],
    ids=["cr", "crlf", "mixed"],
)
def test_read_plane_line_endings(tmp_path, raw):
    path = tmp_path / "t.plane"
    path.write_bytes(raw)
    assert read_plane(path) == ("x", make_plane("abcd", ["abc"]))
    with open(path, encoding="utf-8") as fh:  # text mode, universal newlines
        assert parse_plane(fh.read()) == read_plane(path)


def test_parse_plane_does_not_break_at_lone_cr():
    with pytest.raises(ParseError, match="^line 1: expected: plane <name>$"):
        parse_plane("plane x\rpoints a b c\rline a b c\r")


def test_read_plane_error_line_after_lone_cr(tmp_path):
    path = tmp_path / "t.plane"
    path.write_bytes(b"plane x\rpoints a b\r\r\nline a b z\r")
    with pytest.raises(ParseError) as exc:
        read_plane(path)
    assert exc.value.lineno == 4
    assert str(exc.value) == "line 4: undeclared points ['z']"


def test_serialize_is_canonical(fig2):
    text = serialize_plane("fig2", fig2)
    assert text == "plane fig2\npoints a b c d e f\nline a d f\nline b e f\nline c d e\n"


names = st.text(alphabet="abcdefghij", min_size=1, max_size=2)


@st.composite
def planes(draw):
    pts = draw(st.sets(names, min_size=0, max_size=8))
    pool = sorted(pts)
    lines = []
    if len(pool) >= 3:
        n_lines = draw(st.integers(min_value=0, max_value=2))
        for _ in range(n_lines):
            lines.append(draw(st.sets(st.sampled_from(pool), min_size=3)))
    return make_plane(pts, lines)


@given(planes())
def test_round_trip(plane):
    name, back = parse_plane(serialize_plane("rt", plane))
    assert name == "rt"
    assert back == plane


@given(planes())
def test_serialize_deterministic(plane):
    assert serialize_plane("x", plane) == serialize_plane("x", plane)


@pytest.mark.parametrize("sep", ["\u2028", "\u0085", "\x1c", "\x1d", "\x1e"])
def test_line_separators_inside_comments_stay_in_the_comment(sep):
    text = f"plane x\npoints a b c\n# note{sep} more\nline a b c\n"
    assert parse_plane(text) == ("x", make_plane("abc", ["abc"]))


def test_crlf_file_parses():
    text = "plane x\r\npoints a b c  # pts\r\nline a b c\r\n"
    assert parse_plane(text) == ("x", make_plane("abc", ["abc"]))


@pytest.mark.parametrize("sep", ["\n", "\r\n"])
def test_error_line_numbers_count_newlines_only(sep):
    lines = ["plane x", "# a b\x1cc\u0085d", "points a b c", "bogus a"]
    with pytest.raises(ParseError) as exc:
        parse_plane(sep.join(lines))
    assert "unknown directive 'bogus'" in str(exc.value)
    assert exc.value.lineno == 4
