"""Command-line surface: every library operation over the plane file format.

Exit codes partition outcomes: 0 for success or a true verdict, 1 for a
false/failed verdict (not strong, not in K0, no embedding, unrealized
classes, invalid plane under `validate`), 2 for parse or precondition
errors.  Nothing verdict-shaped is printed on exit 2: verbs with
``--output`` write their files before printing their report.  Reports are
line-oriented ``key: value`` text so shell harnesses can grep them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .amalgam import canonical_amalgam, decompose, free_amalgam
from .census import enumerate_planes
from .embedding import find_embedding
from .errors import (
    BudgetExceeded,
    ExchangeViolation,
    InvalidPlaneError,
    ParseError,
    PlaneError,
    PreconditionError,
)
from .generic import (
    WITNESSES,
    build_generic,
    check_genericity,
    morley_chain,
    non_desarguesian_plane,
    plane_label,
)
from .planefile import read_plane, serialize_plane
from .plane import Plane, validate
from .predim import alpha, delta, icl, is_k_strong, is_strong, predim_report


def _load(path: str) -> tuple[str, Plane]:
    name, plane = read_plane(path)
    validate(plane)
    return name, plane


def _subset(plane: Plane, text: str, option: str) -> frozenset:
    names = frozenset(text.split())
    unknown = names - plane.points
    if unknown:
        raise PreconditionError(
            f"{option} names points not in the plane: {' '.join(sorted(unknown))}"
        )
    return names


def _write_plane(path: str, name: str, plane: Plane, trailer: list[str] | None = None) -> None:
    text = serialize_plane(name, plane)
    if trailer:
        text += "".join(f"# {line}\n" for line in trailer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verb handlers (return exit code 0 or 1)


def _cmd_validate(args) -> int:
    name, plane = read_plane(args.plane)
    try:
        validate(plane)
    except InvalidPlaneError as exc:
        print("valid: false")
        print(f"reason: {exc}")
        return 1
    print("valid: true")
    print(f"name: {name}")
    print(f"points: {len(plane.points)}")
    print(f"lines: {len(plane.lines)}")
    return 0


def _cmd_delta(args) -> int:
    _, plane = _load(args.plane)
    subset = _subset(plane, args.subset, "--subset") if args.subset is not None else None
    print(f"delta: {delta(plane, subset)}")
    return 0


def _cmd_alpha(args) -> int:
    _, plane = _load(args.plane)
    subset = _subset(plane, args.subset, "--subset") if args.subset is not None else None
    print(f"alpha: {alpha(plane, subset)}")
    return 0


def _cmd_icl(args) -> int:
    _, plane = _load(args.plane)
    subset = _subset(plane, args.subset, "--subset")
    within = _subset(plane, args.within, "--within") if args.within is not None else None
    closure = icl(plane, subset, within)
    print("icl: " + (" ".join(sorted(closure)) if closure else "-"))
    print(f"size: {len(closure)}")
    frontier = plane.points if within is None else within
    print(f"frontier: {'true' if closure == frontier else 'false'}")
    return 0


def _cmd_strong(args) -> int:
    _, plane = _load(args.plane)
    subset = _subset(plane, args.subset, "--subset")
    within = _subset(plane, args.within, "--within") if args.within is not None else None
    if args.k is not None:
        verdict = is_k_strong(plane, subset, args.k, within)
        print(f"k: {args.k}")
    else:
        verdict = is_strong(plane, subset, within)
    print(f"strong: {'true' if verdict else 'false'}")
    return 0 if verdict else 1


def _cmd_report(args) -> int:
    _, plane = _load(args.plane)
    report = predim_report(plane)
    print(report.text())
    return 0 if report.in_k0 else 1


def _cmd_amalgamate(args) -> int:
    name_a, plane_a = _load(args.plane_a)
    name_b, plane_b = _load(args.plane_b)
    shared = frozenset(args.over.split()) if args.over is not None else (
        plane_a.points & plane_b.points
    )
    try:
        if args.mode == "free":
            result = free_amalgam(plane_a, plane_b, shared)
        else:
            result = canonical_amalgam(plane_a, plane_b, shared)
    except ExchangeViolation as exc:
        print("amalgam: failed")
        print(f"exchange_violation: {exc}")
        return 1
    merged = result.plane
    identified = sorted(
        (tuple(sorted(la)), tuple(sorted(lb))) for la, lb in result.identified_lines
    )
    if args.output:
        trailer = [f"identified: {' '.join(la)} == {' '.join(lb)}" for la, lb in identified]
        _write_plane(args.output, f"{name_a}-{args.mode}-{name_b}", merged, trailer)
    print(f"amalgam: {args.mode}")
    print(f"points: {len(merged.points)}")
    print(f"lines: {len(merged.lines)}")
    print(f"delta: {delta(merged)}")
    if identified:
        for la, lb in identified:
            print(f"identified: {' '.join(la)} == {' '.join(lb)}")
    else:
        print("identified: -")
    return 0


def _cmd_decompose(args) -> int:
    _, plane = _load(args.plane)
    lower = _subset(plane, args.lower, "--lower")
    upper = _subset(plane, args.upper, "--upper") if args.upper is not None else plane.points
    result = decompose(plane, lower, upper)
    print(f"length: {result.length}")
    print("chain: " + " | ".join(
        " ".join(sorted(step)) if step else "-" for step in result.chain
    ))
    for i in range(result.length):
        added = result.chain[i + 1] - result.chain[i]
        print(f"step_{i}: + {' '.join(sorted(added))}")
    return 0


def _cmd_embed(args) -> int:
    _, sub = _load(args.sub)
    _, sup = _load(args.sup)
    mapping = find_embedding(sub, sup)
    if mapping is None:
        print("embedding: none")
        return 1
    print("embedding: " + (
        " ".join(f"{k}={mapping[k]}" for k in sorted(mapping)) if mapping else "-"
    ))
    return 0


def _cmd_census(args) -> int:
    planes = enumerate_planes(args.size)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for i, plane in enumerate(planes):
            _write_plane(
                os.path.join(args.output, f"census_{i:03d}.plane"),
                f"census-{i:03d}",
                plane,
            )
    print(f"count: {len(planes)}")
    for i, plane in enumerate(planes):
        print(f"plane_{i}: {plane_label(plane)}")
    return 0


def _cmd_build(args) -> int:
    seeds = [non_desarguesian_plane()] if args.seed_fixtures else []
    chain = build_generic(args.steps, args.ext_bound, seeds=seeds)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for i, stage in enumerate(chain.replay()):  # one stage at a time
            _write_plane(
                os.path.join(args.output, f"stage_{i:03d}.plane"),
                f"stage-{i:03d}",
                stage,
            )
        log_lines = []
        for rec, step in zip(chain.steps, chain.changes()):
            base = ",".join(sorted(rec.base)) if rec.base else "-"
            added = ",".join(sorted(rec.added))
            ident = (
                ";".join(
                    f"{' '.join(sorted(la))}=={' '.join(sorted(lb))}"
                    for la, lb in sorted(
                        (tuple(sorted(x)), tuple(sorted(y)))
                        for x, y in step.identified
                    )
                )
                or "-"
            )
            log_lines.append(
                f"{rec.index}\tA={base}\tB={rec.template_label}\t"
                f"added={added}\tidentified={ident}"
            )
        with open(os.path.join(args.output, "chain.log"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    final = chain.final
    print(f"steps: {len(chain.steps)}")
    print(f"points: {len(final.points)}")
    print(f"lines: {len(final.lines)}")
    print(f"delta: {delta(final)}")
    return 0


def _cmd_audit(args) -> int:
    _, plane = _load(args.plane)
    report = check_genericity(plane, args.radius, per_subset=args.per_subset)
    print(report.text())
    return 0 if report.passed else 1


def _cmd_witness(args) -> int:
    name = args.name
    if name.startswith("morley-chain:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise PreconditionError(f"bad morley-chain index in {name!r}") from None
        bundle = morley_chain(k)
    elif name in WITNESSES:
        bundle = WITNESSES[name]()
    else:
        known = ", ".join(sorted(WITNESSES) + ["morley-chain:<k>"])
        raise PreconditionError(f"unknown witness {name!r} (known: {known})")
    if args.output:
        trailer = [
            ("PASS " if passed else "FAIL ") + description
            for description, passed in bundle.assertions
        ]
        _write_plane(args.output, bundle.name, bundle.plane, trailer)
    print(bundle.text())
    return 0 if bundle.ok else 1


# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The verb parser, built on the first call and shared after it.

    argparse keeps no state between parses: each parse_args makes a fresh
    Namespace, and output streams and the help width are looked up when
    printing, so repeated main calls behave exactly like fresh processes.
    """
    parser = argparse.ArgumentParser(
        prog="planeforge",
        description="Predimension calculus on finite rank-3 planes.",
        epilog="Set PLANEFORGE_BUDGET to raise the exhaustive-search guard.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a plane file's structure")
    p.add_argument("plane")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("delta", help="predimension of the plane or a subset")
    p.add_argument("plane")
    p.add_argument("--subset")
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("alpha", help="Mason alpha of the plane or a subset")
    p.add_argument("plane")
    p.add_argument("--subset")
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("icl", help="intrinsic closure of a subset")
    p.add_argument("plane")
    p.add_argument("--subset", required=True)
    p.add_argument("--within")
    p.set_defaults(fn=_cmd_icl)

    p = sub.add_parser("strong", help="is the subset strong (or k-strong)")
    p.add_argument("plane")
    p.add_argument("--subset", required=True)
    p.add_argument("--within")
    p.add_argument("-k", "--k", type=int, default=None)
    p.set_defaults(fn=_cmd_strong)

    p = sub.add_parser("report", help="delta, alpha and K0 membership at once")
    p.add_argument("plane")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("amalgamate", help="free or canonical amalgam of two planes")
    p.add_argument("plane_a")
    p.add_argument("plane_b")
    p.add_argument("--mode", choices=("free", "canonical"), default="free")
    p.add_argument("--over", help="shared point set C (default: point intersection)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_amalgamate)

    p = sub.add_parser("decompose", help="split a strong pair into primitive steps")
    p.add_argument("plane")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("embed", help="find an induced embedding of one plane in another")
    p.add_argument("sub")
    p.add_argument("sup")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("census", help="all planes up to isomorphism with <= N points")
    p.add_argument("size", type=int)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("build", help="grow a generic approximation")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ext-bound", type=int, required=True)
    p.add_argument("--seed-fixtures", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("audit", help="genericity audit of a plane")
    p.add_argument("plane")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--per-subset", action="store_true")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("witness", help="emit a named witness bundle")
    p.add_argument("name")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_witness)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader left: report nothing, and point stdout at the null
        # device so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, BudgetExceeded) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except InvalidPlaneError as exc:
        print(f"invalid plane: {exc}", file=sys.stderr)
        return 2
    except PlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
