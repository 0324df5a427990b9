"""Plane text format.

::

    # comment, blank lines ignored
    plane <name>
    points p1 p2 p3 ...
    line p1 p2 p3

One plane per file.  `points` may be repeated to split long point lists;
`line` names three or more previously declared points, and no point set
twice.  Serialization is canonical: sorted points, lines sorted by their
sorted point names.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .plane import Plane


def parse_plane(text: str) -> tuple[str, Plane]:
    """Parse one plane description; returns (name, plane).

    Syntax errors raise ParseError with the offending line number.  The
    parser checks what the directives say on their own: every point is
    declared once, and every line names at least 3 declared points, none
    twice, and is not given twice.  Point names and lines that share two
    points are checked by plane.validate; run it on the result.
    """
    name: str | None = None
    points: set[str] = set()
    lines: set[frozenset[str]] = set()

    # Only "\n" ends a line; str.splitlines would also break at U+2028,
    # U+0085 and \x1c-\x1e, even inside comments.  The "\r" of a CRLF file
    # is stripped with the other trailing whitespace.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        args = raw.split()
        if not args:
            continue
        keyword = args.pop(0)
        if keyword == "plane":
            if name is not None:
                raise ParseError("duplicate plane header", lineno)
            if len(args) != 1:
                raise ParseError("expected: plane <name>", lineno)
            name = args[0]
        elif keyword == "points":
            if name is None:
                raise ParseError("points before plane header", lineno)
            if not args:
                raise ParseError("empty points directive", lineno)
            for p in args:
                if p in points:
                    raise ParseError(f"point {p} declared twice", lineno)
                points.add(p)
        elif keyword == "line":
            if name is None:
                raise ParseError("line before plane header", lineno)
            line = frozenset(args)
            if len(line) != len(args):
                raise ParseError("repeated point on a line", lineno)
            if len(args) < 3:
                raise ParseError("a line needs at least 3 points", lineno)
            if not line <= points:
                undeclared = [p for p in args if p not in points]
                raise ParseError(f"undeclared points {undeclared}", lineno)
            if line in lines:
                raise ParseError(f"line {' '.join(args)} declared twice", lineno)
            lines.add(line)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if name is None:
        raise ParseError("no plane header found")
    return name, Plane(frozenset(points), frozenset(lines))


def read_plane(path: str | os.PathLike[str]) -> tuple[str, Plane]:
    """Read and parse a UTF-8 plane file.

    A line of the file ends at "\\n", "\\r\\n" or a lone "\\r": the last two
    become "\\n" before parsing, as in Python's universal newlines.
    parse_plane itself breaks lines only at "\\n".
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_plane(text)


def serialize_plane(name: str, plane: Plane) -> str:
    out = [f"plane {name}"]
    if plane.points:
        out.append("points " + " ".join(sorted(plane.points)))
    for line in sorted(plane.lines, key=sorted):
        out.append("line " + " ".join(sorted(line)))
    return "\n".join(out) + "\n"
