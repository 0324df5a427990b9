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
from .plane import Plane, make_plane


def parse_plane(text: str) -> tuple[str, Plane]:
    """Parse one plane description; returns (name, plane).

    Syntax errors raise ParseError with the offending line number.
    Structural invariants (line sizes, exchange) are *not* checked here;
    run plane.validate on the result for that.
    """
    name: str | None = None
    points: list[str] = []
    seen_points: set[str] = set()
    lines: set[frozenset[str]] = set()

    # Only "\n" ends a line; str.splitlines would also break at U+2028,
    # U+0085 and \x1c-\x1e, even inside comments.  The "\r" of a CRLF file
    # is stripped with the other trailing whitespace.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        keyword, *args = stmt.split()
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
                if p in seen_points:
                    raise ParseError(f"point {p} declared twice", lineno)
                seen_points.add(p)
                points.append(p)
        elif keyword == "line":
            if name is None:
                raise ParseError("line before plane header", lineno)
            if len(set(args)) != len(args):
                raise ParseError("repeated point on a line", lineno)
            if len(args) < 3:
                raise ParseError("a line needs at least 3 points", lineno)
            undeclared = [p for p in args if p not in seen_points]
            if undeclared:
                raise ParseError(f"undeclared points {undeclared}", lineno)
            line = frozenset(args)
            if line in lines:
                raise ParseError(f"line {' '.join(args)} declared twice", lineno)
            lines.add(line)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if name is None:
        raise ParseError("no plane header found")
    return name, make_plane(points, lines)


def read_plane(path: str | os.PathLike[str]) -> tuple[str, Plane]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc
    return parse_plane(text)


def serialize_plane(name: str, plane: Plane) -> str:
    out = [f"plane {name}"]
    if plane.points:
        out.append("points " + " ".join(sorted(plane.points)))
    for line in sorted(plane.lines, key=sorted):
        out.append("line " + " ".join(sorted(line)))
    return "\n".join(out) + "\n"
