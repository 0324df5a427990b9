import os
import subprocess
import sys

import pytest

from planeforge import parse_plane, read_plane
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


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


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
