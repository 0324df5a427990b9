import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from planeforge import ExtensionChain, parse_plane, read_plane
from planeforge import cli
from planeforge.cli import main

from .conftest import DATA, library_env

ND10 = str(DATA / "nd10.plane")
FIG2 = str(DATA / "fig2.plane")
FANO = str(DATA / "fano.plane")
EMPTY = str(DATA / "empty.plane")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", ND10)
    assert code == 0
    assert "valid: true" in out
    assert "name: nd10" in out
    assert "points: 10" in out
    assert "lines: 9" in out


def test_validate_empty_plane_is_fine(capsys):
    code, out, _ = run(capsys, "validate", EMPTY)
    assert code == 0
    assert "points: 0" in out


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.plane"
    bad.write_text("plane bad\npoints a b c d\nline a b c\nline a b d\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "valid: false" in out
    assert "reason: " in out


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.plane"
    bad.write_text("plane bad\npoints a a\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 2:")
    assert err.count("line 2") == 1


def test_duplicate_line_exit_two(tmp_path, capsys):
    bad = tmp_path / "dup.plane"
    bad.write_text("plane d\npoints a b c\nline a b c\nline a b c\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line 4:")


def test_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bytes.plane"
    bad.write_bytes(b"plane b\npoints a\xff\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: cannot read")


def test_directory_path_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"parse error: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_pipe_exits_quietly(unbuffered):
    # stdout buffered or not: the failed write surfaces in main either way
    env = library_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    script = "import sys; from planeforge.cli import main; sys.exit(main())"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, "census", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 2


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.plane")
    assert code == 2
    assert "parse error" in err


def test_delta_whole_plane(capsys):
    code, out, _ = run(capsys, "delta", ND10)
    assert code == 0
    assert out == "delta: 1\n"


def test_delta_subset(capsys):
    code, out, _ = run(capsys, "delta", FANO, "--subset", "1 2 3")
    assert code == 0
    assert out == "delta: 2\n"


def test_delta_unknown_point(capsys):
    code, _, err = run(capsys, "delta", FANO, "--subset", "1 zz")
    assert code == 2
    assert "precondition error" in err
    assert "zz" in err


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", ND10)
    assert code == 0
    assert out == "alpha: -2\n"


# An empty or blank subset option names the empty set, never "omitted".
BLANKS = pytest.mark.parametrize("blank", ["", " "], ids=["empty", "blank"])


@BLANKS
def test_delta_empty_subset(capsys, blank):
    assert run(capsys, "delta", FIG2, "--subset", blank) == (0, "delta: 0\n", "")


@BLANKS
def test_alpha_empty_subset(capsys, blank):
    assert run(capsys, "alpha", FANO, "--subset", blank) == (0, "alpha: 0\n", "")


@BLANKS
def test_icl_empty_within(capsys, blank):
    code, out, _ = run(capsys, "icl", FANO, "--subset", blank, "--within", blank)
    assert (code, out) == (0, "icl: -\nsize: 0\nfrontier: true\n")


@BLANKS
def test_strong_empty_within(tmp_path, capsys, blank):
    # the empty set is not strong in AG(2,3) (delta -3), but it is in itself
    ag23 = write_ag23(tmp_path)
    code, out, _ = run(capsys, "strong", ag23, "--subset", blank, "--within", blank)
    assert (code, out) == (0, "strong: true\n")


@BLANKS
def test_decompose_empty_upper(capsys, blank):
    code, out, _ = run(capsys, "decompose", FIG2, "--lower", blank, "--upper", blank)
    assert (code, out) == (0, "length: 0\nchain: -\n")


def test_icl_frontier(capsys):
    code, out, _ = run(capsys, "icl", FANO, "--subset", "1")
    assert code == 0
    assert "icl: 1 2 3 4 5 6 7" in out
    assert "size: 7" in out
    assert "frontier: true" in out


def test_icl_self_closed(capsys):
    code, out, _ = run(capsys, "icl", FIG2, "--subset", "a")
    assert code == 0
    assert "icl: a\n" in out
    assert "frontier: false" in out


def test_icl_within(capsys):
    code, out, _ = run(capsys, "icl", FANO, "--subset", "1", "--within", "1 2 4")
    assert code == 0
    assert "icl: 1" in out
    assert "frontier: false" in out


def test_strong_true(capsys):
    code, out, _ = run(capsys, "strong", FIG2, "--subset", "a b c")
    assert code == 0
    assert out == "strong: true\n"


def test_strong_false_exit_one(capsys):
    code, out, _ = run(capsys, "strong", FANO, "--subset", "1")
    assert code == 1
    assert out == "strong: false\n"


def test_strong_with_k(capsys):
    code, out, _ = run(capsys, "strong", FANO, "--subset", "1", "-k", "3")
    assert code == 0
    assert "k: 3" in out
    assert "strong: true" in out
    code, out, _ = run(capsys, "strong", FANO, "--subset", "1", "--k", "6")
    assert code == 1
    assert "strong: false" in out


def _cli_under_memory_cap(argv, env):
    """(exit code, stdout, stderr) of the CLI in a child capped at 1.5 GB."""
    import resource

    cap = 1536 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    script = "import sys; from planeforge.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_strong_with_k_under_a_huge_budget():
    # The budget comparison must not build 2 ** budget.
    argv = ["strong", FANO, "--subset", "1", "-k", "2"]
    env = library_env()
    env.pop("PLANEFORGE_BUDGET", None)
    default = _cli_under_memory_cap(argv, env)
    assert default == (0, "k: 2\nstrong: true\n", "")
    env["PLANEFORGE_BUDGET"] = str(10**30)
    assert _cli_under_memory_cap(argv, env) == default


@pytest.mark.parametrize(
    "value, problem", [("9" * 5000, "is too large"), ("-" + "9" * 5000, "must be nonnegative")]
)
def test_budget_past_the_int_string_limit(monkeypatch, capsys, value, problem):
    # 5,000 digits is past Python's int-string limit; the value is cut short.
    monkeypatch.setenv("PLANEFORGE_BUDGET", value)
    code, out, err = run(capsys, "strong", FANO, "--subset", "1", "-k", "2")
    assert (code, out) == (2, "")
    assert err == (
        f"error: PLANEFORGE_BUDGET {problem}, got "
        f"{value[:20]!r}... ({len(value)} characters)\n"
    )


def test_report(capsys):
    code, out, _ = run(capsys, "report", ND10)
    assert code == 0
    assert "delta: 1" in out
    assert "alpha: -2" in out
    assert "in_K0: true" in out
    assert "violating_subset: -" in out


def write_ag23(tmp_path) -> str:
    ag = tmp_path / "ag23.plane"
    lines = ["123", "456", "789", "147", "258", "369", "159", "267", "348", "357", "168", "249"]
    ag.write_text(
        "plane ag23\npoints 1 2 3 4 5 6 7 8 9\n"
        + "".join("line " + " ".join(l) + "\n" for l in lines)
    )
    return str(ag)


def test_report_flags_violations(tmp_path, capsys):
    code, out, _ = run(capsys, "report", write_ag23(tmp_path))
    assert code == 1
    assert "in_K0: false" in out
    assert "violating_subset: 1 2 3 4 5 6 7 8 9" in out


def test_amalgamate_free(tmp_path, capsys):
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p a b\nline p a b\n")
    b.write_text("plane b\npoints p c d\nline p c d\n")
    code, out, _ = run(capsys, "amalgamate", str(a), str(b))
    assert code == 0
    assert "amalgam: free" in out
    assert "points: 5" in out
    assert "lines: 2" in out
    assert "delta: 3" in out
    assert "identified: -" in out


def test_amalgamate_exchange_violation(tmp_path, capsys):
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p q x\nline p q x\n")
    b.write_text("plane b\npoints p q y\nline p q y\n")
    code, out, _ = run(capsys, "amalgamate", str(a), str(b))
    assert code == 1
    assert "amalgam: failed" in out
    assert "exchange_violation" in out


def test_free_amalgam_names_the_least_colliding_pair_under_any_hash_seed(tmp_path):
    # Both shared pairs carry a line on each side; the pairs sit in a set,
    # whose order changes with PYTHONHASHSEED, and the least one is named.
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints c0 c1 c2 c3 a1 a2\nline c0 c1 a1\nline c2 c3 a2\n")
    b.write_text("plane b\npoints c0 c1 c2 c3 b1 b2\nline c0 c1 b1\nline c2 c3 b2\n")
    script = "import sys; from planeforge.cli import main; sys.exit(main())"
    want = (
        "amalgam: failed\n"
        "exchange_violation: lines ['a1', 'c0', 'c1'] and ['b1', 'c0', 'c1'] "
        "both extend the shared pair ['c0', 'c1']\n"
    )
    for hash_seed in ("0", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, "amalgamate", str(a), str(b), "--mode", "free"],
            capture_output=True, text=True, timeout=60,
            env={**library_env(), "PYTHONHASHSEED": hash_seed},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, want, ""), hash_seed


def test_amalgamate_canonical_glues(tmp_path, capsys):
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p q x\nline p q x\n")
    b.write_text("plane b\npoints p q y\nline p q y\n")
    out_file = tmp_path / "glued.plane"
    code, out, _ = run(
        capsys, "amalgamate", str(a), str(b), "--mode", "canonical",
        "--output", str(out_file),
    )
    assert code == 0
    assert "identified: p q x == p q y" in out
    name, merged = read_plane(out_file)
    assert name == "a-canonical-b"
    assert merged.lines == frozenset({frozenset("pqxy")})
    text = out_file.read_text()
    assert "# identified: p q x == p q y" in text


def test_amalgamate_explicit_over(tmp_path, capsys):
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p a b\n")
    b.write_text("plane b\npoints p c\n")
    code, _, err = run(capsys, "amalgamate", str(a), str(b), "--over", "p c")
    assert code == 2  # declared C is not the intersection
    assert "precondition error" in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", FIG2, "--lower", "a b c")
    assert code == 0
    assert "length: 1" in out
    assert "chain: a b c | a b c d e f" in out
    assert "step_0: + d e f" in out


def test_decompose_not_strong(capsys):
    code, _, err = run(capsys, "decompose", FANO, "--lower", "1")
    assert code == 2
    assert "error" in err


def test_decompose_upper_below_lower(capsys):
    code, out, err = run(capsys, "decompose", FIG2, "--lower", "a b c", "--upper", "a")
    assert (code, out) == (2, "")
    assert err == "precondition error: decompose: need lower ⊆ upper ⊆ plane\n"


def test_embed_found(tmp_path, capsys):
    tri = tmp_path / "tri.plane"
    tri.write_text("plane tri\npoints x y z\nline x y z\n")
    code, out, _ = run(capsys, "embed", str(tri), FANO)
    assert code == 0
    assert out.startswith("embedding: ")
    pairs = dict(kv.split("=") for kv in out.split()[1:])
    assert set(pairs) == {"x", "y", "z"}


def test_embed_none(tmp_path, capsys):
    code, out, _ = run(capsys, "embed", FANO, FIG2)
    assert code == 1
    assert out == "embedding: none\n"


def test_census_listing(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, out, _ = run(capsys, "census", "4", "--output", str(out_dir))
    assert code == 0
    assert "count: 8" in out
    assert "plane_0: 0p" in out
    files = sorted(out_dir.glob("census_*.plane"))
    assert len(files) == 8
    for f in files:
        read_plane(f)  # all emitted files re-parse


def test_census_guard(capsys):
    code, _, err = run(capsys, "census", "9")
    assert code == 2
    assert "precondition error" in err


def test_build_output_tree_is_pinned(tmp_path, capsys, monkeypatch):
    # Every stage file and chain.log, byte for byte.  The files are written
    # during one replay of the steps, never from the chain's kept stages.
    def no_stages(chain):
        raise AssertionError("build --output read ExtensionChain.stages")

    monkeypatch.setattr(ExtensionChain, "stages", property(no_stages))
    out_dir = tmp_path / "chain"
    code, out, _ = run(
        capsys, "build", "--steps", "200", "--ext-bound", "2", "--seed-fixtures",
        "--output", str(out_dir),
    )
    assert (code, out) == (0, "steps: 200\npoints: 349\nlines: 87\ndelta: 72\n")
    names = sorted(os.listdir(out_dir))
    assert len(names) == 202
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    assert digest.hexdigest() == (
        "4d6d2aeaa0bb02a81a15c998bd9bbf34252c37b675d8f41f54327a6d1868b753"
    )


def test_build_and_log(tmp_path, capsys):
    out_dir = tmp_path / "chain"
    code, out, _ = run(
        capsys, "build", "--steps", "4", "--ext-bound", "2",
        "--output", str(out_dir),
    )
    assert code == 0
    assert "steps: 4" in out
    stages = sorted(out_dir.glob("stage_*.plane"))
    assert len(stages) == 5
    for f in stages:
        read_plane(f)
    log = (out_dir / "chain.log").read_text().splitlines()
    assert len(log) == 4
    for i, line in enumerate(log):
        fields = line.split("\t")
        assert fields[0] == str(i)
        assert fields[1].startswith("A=")
        assert fields[2].startswith("B=")
        assert fields[3].startswith("added=")
        assert fields[4].startswith("identified=")


def test_build_seeded(capsys):
    code, out, _ = run(capsys, "build", "--steps", "1", "--ext-bound", "2", "--seed-fixtures")
    assert code == 0
    assert "points: 10" in out
    assert "lines: 9" in out
    assert "delta: 1" in out


def test_audit_fano_fails(capsys):
    code, out, _ = run(capsys, "audit", FANO, "--radius", "1")
    assert code == 1
    assert "types_unrealized: 2" in out
    assert "unrealized: 0p -> 1p" in out


def test_audit_empty_fails(capsys):
    code, out, _ = run(capsys, "audit", EMPTY, "--radius", "1")
    assert code == 1
    assert "realization_rate: 0.000" in out


def test_audit_per_subset(capsys):
    code, out, _ = run(capsys, "audit", FIG2, "--radius", "1", "--per-subset")
    assert code == 0
    assert "subset_pairs_checked: 7" in out
    assert "subset_pairs_realized: 7" in out


@pytest.mark.parametrize("radius", ["5", "8"])
def test_audit_radius_past_the_cap_exits_two(capsys, radius):
    code, out, err = run(capsys, "audit", FIG2, "--radius", radius)
    assert code == 2
    assert out == ""
    assert err == f"precondition error: audit radius capped at 4, requested {radius}\n"


def test_witness_figure2(capsys):
    code, out, _ = run(capsys, "witness", "figure2")
    assert code == 0
    assert "witness: figure2" in out
    assert "FAIL" not in out


def test_witness_morley(capsys):
    code, out, _ = run(capsys, "witness", "morley-chain:3")
    assert code == 0
    assert "witness: morley-chain:3" in out
    assert "lengths: 1 2 3 4" in out


def test_witness_output_file(tmp_path, capsys):
    out_file = tmp_path / "nd.plane"
    code, out, _ = run(capsys, "witness", "non-desarguesian", "--output", str(out_file))
    assert code == 0
    name, plane = read_plane(out_file)
    assert name == "non-desarguesian"
    assert plane.n_points == 10
    assert "# PASS" in out_file.read_text()


def test_witness_unknown(capsys):
    code, _, err = run(capsys, "witness", "nope")
    assert code == 2
    assert "unknown witness" in err
    assert "morley-chain:<k>" in err


def test_witness_bad_morley_index(capsys):
    code, _, err = run(capsys, "witness", "morley-chain:xx")
    assert code == 2
    assert "bad morley-chain index" in err


def test_witness_morley_budget(capsys):
    code, _, err = run(capsys, "witness", "morley-chain:99")
    assert code == 2
    assert "capped" in err


def test_invalid_plane_in_non_validate_verb(tmp_path, capsys):
    bad = tmp_path / "bad.plane"
    bad.write_text("plane bad\npoints a b c d\nline a b c\nline a b d\n")
    code, _, err = run(capsys, "delta", str(bad))
    assert code == 2
    assert "invalid plane" in err


def test_emitted_files_reparse_to_same_plane(tmp_path, capsys):
    out_file = tmp_path / "copy.plane"
    run(capsys, "witness", "figure2", "--output", str(out_file))
    _, plane = read_plane(out_file)
    _, original = read_plane(FIG2)
    assert plane == original


def _unwritable(tmp_path) -> str:
    blocker = tmp_path / "file"
    blocker.write_text("")
    return str(blocker / "x")  # a path below a regular file


def test_amalgamate_unwritable_output_prints_nothing(tmp_path, capsys):
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p q x\nline p q x\n")
    b.write_text("plane b\npoints p q y\nline p q y\n")
    code, out, err = run(
        capsys, "amalgamate", str(a), str(b), "--mode", "canonical",
        "--output", _unwritable(tmp_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")


def test_census_unwritable_output_prints_nothing(tmp_path, capsys):
    code, out, err = run(capsys, "census", "3", "--output", _unwritable(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")


def test_build_unwritable_output_prints_nothing(tmp_path, capsys):
    code, out, err = run(
        capsys, "build", "--steps", "2", "--ext-bound", "1",
        "--output", _unwritable(tmp_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")


def test_witness_unwritable_output_prints_nothing(tmp_path, capsys):
    code, out, err = run(capsys, "witness", "figure2", "--output", _unwritable(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")


# --- one parser, many calls -------------------------------------------------


_COUNT_BUILDS = """
import contextlib, io, json, sys
from planeforge import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
info = cli._parser.cache_info()
print(json.dumps([codes, info.misses, info.currsize]))
"""


def _builds(*calls) -> tuple:
    """Exit codes of main over calls in a fresh interpreter, then how many
    times the argparse parser was built and how many are cached."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_BUILDS, json.dumps(calls)],
        capture_output=True, text=True, env=library_env(), timeout=60,
    )
    assert proc.stderr == ""
    return tuple(json.loads(proc.stdout))


def test_canonical_calls_build_no_parser():
    # canonical calls are read from the verb table, with no argparse parser
    assert _builds(["report", ND10], ["icl", FANO, "--subset", "1 2"]) == ([0, 0], 0, 0)


def test_parser_is_built_once():
    # the first call that needs the parser builds it; later calls reuse it
    assert _builds(["--help"]) == ([0], 1, 1)
    assert _builds(["strong", FANO]) == ([2], 1, 1)
    assert _builds(
        ["--help"], ["strong", FANO], ["icl", FANO, "--subset=1 2"], ["report", ND10]
    ) == ([0, 2, 0, 0], 1, 1)


def test_repeated_calls_keep_no_options(tmp_path, capsys):
    # Interleaved calls in one process: an option given to one call never
    # leaks into the next, whose output is that of a fresh process.
    a = tmp_path / "a.plane"
    b = tmp_path / "b.plane"
    a.write_text("plane a\npoints p q x\nline p q x\n")
    b.write_text("plane b\npoints p q y\nline p q y\n")
    glued = tmp_path / "glued.plane"
    amalgam = (
        "amalgam: canonical\npoints: 4\nlines: 1\ndelta: 2\n"
        "identified: p q x == p q y\n"
    )
    calls = [
        (("strong", FANO, "--subset", "1", "-k", "1"), 0, "k: 1\nstrong: true\n"),
        (("strong", FANO, "--subset", "1"), 1, "strong: false\n"),
        (("icl", FANO, "--subset", "1", "--within", "1 2 4"), 0,
         "icl: 1\nsize: 1\nfrontier: false\n"),
        (("icl", FANO, "--subset", "1"), 0,
         "icl: 1 2 3 4 5 6 7\nsize: 7\nfrontier: true\n"),
        (("amalgamate", str(a), str(b), "--mode", "canonical", "--output", str(glued)),
         0, amalgam),
        (("amalgamate", str(a), str(b), "--mode", "canonical"), 0, amalgam),
    ]
    for argv, code, out in calls:
        if "--output" not in argv:
            glued.unlink(missing_ok=True)
        assert run(capsys, *argv) == (code, out, "")
        assert glued.exists() == ("--output" in argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "invalid choice: 'bogus'"),
        (["strong", FANO], "the following arguments are required: --subset"),
        (["strong", FANO, "--subset", "1", "-k", "x"], "invalid int value: 'x'"),
    ],
)
def test_usage_error_then_a_valid_call(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err
    assert run(capsys, "strong", FANO, "--subset", "1", "-k", "1") == (
        0, "k: 1\nstrong: true\n", ""
    )


def _help(capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_width_follows_columns_set_later(monkeypatch, capsys):
    widths = {}
    for columns in (120, 40):
        monkeypatch.setenv("COLUMNS", str(columns))
        text = _help(capsys)
        assert text == cli._parser.__wrapped__().format_help()
        widths[columns] = text
    assert widths[120] != widths[40]
    assert "Predimension calculus on finite rank-3 planes." in widths[120]
    assert "Predimension calculus on finite rank-3 planes." not in widths[40]


# --- the grammar's rendered text, pinned -------------------------------------
#
# sha256 prefixes of argparse's help and usage-error text at COLUMNS=80 on
# Python 3.11; any change to a verb, option, help string or their order
# shows here.

HELP_SHA = {
    None: "0a2a183368958b32",
    "validate": "71d7568ccf790499",
    "delta": "d5f2d0d35e15cd1b",
    "alpha": "cfcfea3bf62927dc",
    "icl": "394d09b11ad5c81c",
    "strong": "19c0b25e5011baa2",
    "report": "8129fb43b14d1e9f",
    "amalgamate": "7014851ef0fd0e39",
    "decompose": "3c0e198a7888ee45",
    "embed": "c5e5cc57f3b469df",
    "census": "950edfbb17dbcda2",
    "build": "c5a78c7a49412f13",
    "audit": "84db71d2cf4b8d79",
    "witness": "48ffc0d437c13047",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("verb", list(HELP_SHA))
def test_help_text_is_pinned(monkeypatch, capsys, verb):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if verb is None else [verb, "--help"])
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    assert _sha(out.out) == HELP_SHA[verb], out.out


@pytest.mark.parametrize(
    "argv, sha",
    [
        ([], "770f363291b3a4c6"),
        (["bogus"], "022afc7423c73f9a"),
        (["strong", "F.plane"], "d097c5967f15fe44"),
        (["strong", "F.plane", "--subset", "1", "-k", "x"], "b249a10bb9f87242"),
        (["amalgamate", "A.plane", "B.plane", "--mode", "bogus"], "5b99c158d09edcc0"),
        (["report", "F.plane", "extra"], "f4cd45cf8d8b92ac"),
        (["delta", "F.plane", "--subset"], "d7a800a19e3ba113"),
        (["census", "x"], "3b826477bbf64309"),
    ],
)
def test_usage_error_text_is_pinned(monkeypatch, capsys, argv, sha):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert _sha(out.err) == sha, out.err


# --- the direct reader against argparse ---------------------------------------


def _argparse(argv) -> dict:
    """vars() of argparse's namespace for argv, which it must accept."""
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            return vars(cli._parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"the reader accepted {argv!r}, which argparse refuses: {text.getvalue()}")


def _read_like_argparse(argv) -> None:
    args = cli._read(argv)
    assert args is not None, argv
    assert vars(args) == _argparse(argv)


_FLAGS = sorted(
    {
        flag
        for _, _, arguments in cli._VERBS.values()
        for names in arguments
        if names[0] == "-"
        for flag in names.split()
    }
    | {"-h", "--help"}
)
_PLAIN = st.sampled_from(["F.plane", "1", "1 2", "", "3", "free", "canonical"])
_VALUES = st.one_of(
    _PLAIN,
    _PLAIN,
    st.sampled_from([" 3", "1_0", "\u0663", "x", "bogus", "report", "-1", "-x", "-", "--"]),
    st.text(max_size=3),
)


@st.composite
def _argvs(draw):
    """Calls near the grammar: the verb, its positionals and some of its
    options, each by a full flag (bare for a store-true option), with plain
    values; or, half the time, one positional more or less, maybe another
    flag, options abbreviated, as ``--opt=value`` or bare, and any values.
    Arguments come in any order, repeats allowed."""
    verb = draw(st.sampled_from([*cli._VERBS, "bogus", "--help"]))
    arguments = cli._VERBS[verb][2] if verb in cli._VERBS else {}
    odd = draw(st.booleans())
    values = _VALUES if odd else _PLAIN
    count = sum(names[0] != "-" for names in arguments)
    count += draw(st.sampled_from([0, -1, 1])) if odd else 0
    pieces = [[draw(values)] for _ in range(max(count, 0))]
    options = [
        (draw(st.sampled_from(names.split())), "action" in kw)
        for names, kw in arguments.items()
        if names[0] == "-" and draw(st.booleans())
    ]
    if odd:
        options += [(flag, False) for flag in draw(st.lists(st.sampled_from(_FLAGS), max_size=1))]
    for flag, bare in options:
        form = draw(st.sampled_from(["full", "abbreviated", "equals", "bare"])) if odd else "full"
        if form == "abbreviated" and flag[:2] == "--":
            flag = flag[: draw(st.integers(3, len(flag)))]
        value = draw(values)
        pieces.append(
            [f"{flag}={value}"] if form == "equals"
            else [flag] if form == "bare" or bare
            else [flag, value]
        )
    return [verb, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_direct_reader_matches_argparse(argv):
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == _argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "F", "--help"],
        ["icl", "F", "--sub", "1"],
        ["icl", "F", "--subset=1"],
        ["delta", "F", "--subset", "-1"],
        ["census", "-3"],
        ["strong", "F", "--subset", "1", "-k", "1", "--k", "2"],
        ["amalgamate", "A", "B", "--mode", "bogus", "--mode", "free"],
        ["build", "--steps", "1", "--ext-bound", "2", "--seed-fixtures", "--seed-fixtures"],
    ],
)
def test_other_forms_are_left_to_argparse(argv):
    # help, abbreviations, --opt=value, values starting with "-" and
    # repeats: argparse reads them (the repeated --mode is its error)
    assert cli._read(argv) is None


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_every_verb_has_a_canonical_form(verb):
    # the verb with its required options only, then with every option,
    # typed values where a type is given and the last choice where choices are
    _, _, arguments = cli._VERBS[verb]
    minimal, full = [verb], [verb]
    for names, kw in arguments.items():
        value = "3" if "type" in kw else kw["choices"][-1] if "choices" in kw else "a b"
        if names[0] != "-":
            minimal.append(value)
            full.append(value)
            continue
        given = [names.split()[-1]] + ([] if kw.get("action") else [value])
        full += given
        if kw.get("required"):
            minimal += given
    _read_like_argparse(minimal)
    _read_like_argparse(full)


def _readme_calls() -> list:
    readme = (DATA.parent.parent / "README.md").read_text(encoding="utf-8")
    prompt = "$ planeforge "
    return [
        shlex.split(line[len(prompt):], comments=True)
        for line in readme.splitlines()
        if line.startswith(prompt)
    ]


def test_readme_calls_are_read_directly():
    calls = _readme_calls()
    assert len(calls) >= 8
    for argv in calls:
        _read_like_argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [  # the argv shapes of the benchmark's query workload
        ["report", "/w/stage9.plane"],
        ["icl", "/w/rand3.plane", "--subset", "p1 p4"],
        ["strong", "/w/stage12.plane", "--subset", "n3 n7 n11"],
        ["delta", "/w/rand0.plane", "--subset", "p2"],
        ["decompose", "/w/rand5.plane", "--lower", "p0 p3 p7"],
        ["amalgamate", "/w/stage8.plane", "/w/tmpl3.plane", "--mode", "canonical",
         "--over", "p1 p2"],
    ],
)
def test_benchmark_calls_are_read_directly(argv):
    _read_like_argparse(argv)


# --- the exit-code contract under mutated files and odd argv ----------------

_FUZZ_VERBS = {  # verb -> its argv after the verb; "A" and "B" are plane files
    "validate": ["A"],
    "report": ["A"],
    "delta": ["A", "--subset", "S"],
    "alpha": ["A", "--subset", "S"],
    "icl": ["A", "--subset", "S", "--within", "W"],
    "strong": ["A", "--subset", "S", "-k", "K"],
    "decompose": ["A", "--lower", "S", "--upper", "W"],
    "audit": ["A", "--radius", "1"],
    "embed": ["A", "B"],
}
_ODD_NAMES = ["#", "a#b", "x\x00y", "é", "p q", "-", "--x", "a b", "\t"]
_ODD_INTS = ["0", "3", "-1", "9" * 30, "x", "1.5", ""]


def _mutated_file(rng, text: str) -> bytes:
    """A data file's text with one or two of: a line dropped or doubled, a
    stray "\\r", a bad name, a directive without its values, a line through
    two points of another, bytes that are not UTF-8."""
    lines = text.split("\n")
    raw = None
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        kind = rng.choice(["drop", "double", "cr", "name", "bare", "clash", "bytes"])
        if kind == "drop":
            del lines[i]
        elif kind == "double":
            lines.insert(i, lines[i])
        elif kind == "cr":
            j = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:j] + "\r" + lines[i][j:]
        elif kind == "name" and (words := lines[i].split()):
            words[rng.randrange(len(words))] = rng.choice(_ODD_NAMES)
            lines[i] = " ".join(words)
        elif kind == "bare" and (words := lines[i].split()):
            lines[i] = words[0]
        elif kind == "clash" and (line := next((l for l in lines if l[:5] == "line "), "")):
            lines += ["points zz", " ".join(line.split()[:3] + ["zz"])]
        elif kind == "bytes":
            raw = rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"])
        if not lines:
            lines = [""]
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    if raw is not None:
        j = rng.randint(0, len(data))
        data = data[:j] + raw + data[j:]
    return data


def _odd_argv(rng, argv: list, names: list) -> list:
    """Fill a verb's argv with subsets of ``names`` (now and then an unknown
    or odd name) and odd ints, then maybe join an option to its value with
    "=", drop a value or an argument, or add a stray one."""
    def subset():
        picked = rng.sample(names, rng.randint(0, min(3, len(names))))
        if rng.random() < 0.2:
            picked.append(rng.choice(["zz", *_ODD_NAMES]))
        return " ".join(picked)

    argv = [
        subset() if a in ("S", "W") else rng.choice(_ODD_INTS) if a == "K" else a
        for a in argv
    ]
    odd = rng.choice(["none", "none", "equals", "drop", "extra", "repeat"])
    options = [i for i, a in enumerate(argv) if a.startswith("-") and i + 1 < len(argv)]
    if odd == "equals" and options:
        i = rng.choice(options)
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif odd == "drop" and argv:
        del argv[rng.randrange(len(argv))]
    elif odd == "extra":
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--bogus", "extra", "-", ""]))
    elif odd == "repeat" and options:
        i = rng.choice(options)
        argv += argv[i : i + 2]
    return argv


def test_exit_codes_hold_for_mutated_files_and_odd_argv(tmp_path, capsys):
    # Every outcome is exit 0, 1 or 2 (argparse's SystemExit by its code),
    # nothing escapes main, and nothing is printed to stdout on exit 2.
    rng = random.Random(2026)
    sources = {path.name: path.read_text(encoding="utf-8") for path in DATA.glob("*.plane")}
    codes, bad = collections.Counter(), []
    for case in range(800):
        verb = rng.choice(sorted(_FUZZ_VERBS))
        files, texts = {}, {}
        for slot in ("A", "B"):
            texts[slot] = text = sources[rng.choice(sorted(sources))]
            path = tmp_path / f"{case}{slot}.plane"
            path.write_bytes(text.encode() if rng.random() < 0.5 else _mutated_file(rng, text))
            files[slot] = str(path)
        names = sorted(parse_plane(texts["A"])[1].points)
        argv = [verb, *_odd_argv(rng, _FUZZ_VERBS[verb], names)]
        argv = [files.get(a, a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the contract forbids any
            code = repr(exc)
        out = capsys.readouterr().out
        codes[code] += 1
        if code not in (0, 1, 2) or (code == 2 and out):
            bad.append((argv, code, out))
    assert not bad, bad[:5]
    assert all(codes[c] >= 20 for c in (0, 1, 2)), codes
