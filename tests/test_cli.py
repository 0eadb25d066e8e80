"""Exit codes, output formats, import footprint, and defect injection for the CLI."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from virhoch import algebra, anick, cli
from virhoch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit code contract


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 64
    assert "usage error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 64


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["cohomology", "--delta", "0", "--cache-dir", "{tmp}"], "--cache-dir"),
        (["report", "--format", "json", "--cache-dir", "{tmp}"], "--cache-dir"),
        (["report", "--format", "json", "--jobs", "2"], "--jobs"),
    ],
    ids=["cohomology_cache_dir", "report_cache_dir", "report_jobs"],
)
def test_removed_flags_are_usage_errors(capsys, tmp_path, argv, flag):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 64
    assert out == ""
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    # VIRHOCH_CACHE_DIR no longer names a table cache: same bytes, no files
    argv = ("cohomology", "--delta", "0", "--nmax", "2", "--smax", "4", "--format", "json")
    plain = run(capsys, *argv)
    monkeypatch.setenv("VIRHOCH_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == plain
    assert plain[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_process_pools_and_openssl():
    # without site (-S) nothing but the interpreter's own start-up modules
    # is loaded before, and those do not count, so the test does not depend
    # on what a site-packages .pth file imports on a given machine
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).resolve().parents[1])!r})\n"
        "before = set(sys.modules)\n"
        "import virhoch.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "virhoch.cli" in added
    left_out = {"hashlib", "multiprocessing", "concurrent.futures", "dataclasses", "inspect"}
    # annotations are never evaluated, and the bundled claims and report
    # files import what they need when they are read or written
    left_out |= {"typing", "pathlib", "importlib.resources", "tempfile", "shutil"}
    assert left_out.isdisjoint(added)


# ---------------------------------------------------------------------------
# gsb


def test_gsb_small(capsys):
    code, out, _ = run(capsys, "gsb", "--bound", "3")
    assert code == 0
    assert "overlaps:" in out and "relations:" in out and "ok" in out


def test_gsb_bad_bound(capsys):
    # below bound 3 no locality relation is checked (and below 2 no overlap
    # ambiguity exists), so "relations: 3 ok" would be partly vacuous
    for bound in ("0", "1", "2"):
        code, out, err = run(capsys, "gsb", "--bound", bound)
        assert code == 64
        assert out == ""
        assert "usage error: --bound must be >= 3" in err
    for bound in (0, 1, 2):
        with pytest.raises(ValueError, match="bound must be >= 3"):
            algebra.verify_defining_relations(bound)


# ---------------------------------------------------------------------------
# ddzero, with and without the planted defect


def test_ddzero_resolution(capsys):
    code, out, _ = run(capsys, "ddzero", "--letters", "3", "--smax", "4")
    assert code == 0
    assert "delta.delta = 0 on" in out


def test_ddzero_symbolic(capsys):
    code, out, _ = run(capsys, "ddzero", "--symbolic", "--degrees", "1", "--smax", "3")
    assert code == 0
    assert "d.d = 0 symbolically on" in out


def test_ddzero_injected_defect_fails_then_recovers(capsys):
    code, _, err = run(capsys, "ddzero", "--letters", "3", "--smax", "4",
                       "--inject-defect")
    assert code == 1
    assert "FAIL" in err

    # the corrupted rule table must not leak into later runs
    code2, out2, _ = run(capsys, "ddzero", "--letters", "3", "--smax", "4")
    assert code2 == 0
    assert "delta.delta = 0 on" in out2


def test_ddzero_symbolic_injected_defect(capsys):
    code, _, err = run(capsys, "ddzero", "--symbolic", "--degrees", "1",
                       "--smax", "3", "--inject-defect")
    assert code == 1
    assert err == "FAIL d.d at [2|0] -> []: -1*D^1*a^0 + 1\n"


def fresh_run(argv):
    """Exit code, stdout and stderr of one CLI call in a new interpreter."""
    script = f"import sys\nfrom virhoch import cli\nsys.exit(cli.main({argv!r}))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_ddzero_runs_share_memos_until_the_rule_changes(capsys):
    symbolic = ["ddzero", "--symbolic", "--degrees", "3", "--smax", "5"]
    letters = ["ddzero", "--letters", "4", "--smax", "5"]
    assert run(capsys, *symbolic) == fresh_run(symbolic)
    kept = anick._DELTA_CACHE[(2, 1, 0)]
    assert run(capsys, *letters) == fresh_run(letters)
    assert anick._DELTA_CACHE and anick._DELTA_CACHE[(2, 1, 0)] is kept

    # the planted defect still fails, and its values do not outlive it
    code, _, err = run(capsys, *letters, "--inject-defect")
    assert code == 1 and "FAIL" in err
    assert run(capsys, *letters) == fresh_run(letters)


@pytest.mark.parametrize(
    "patch,argv,named",
    [
        (
            "anick.reduce_bracket = lambda slots: ((((9, 9, 9), (0, 0)), 1),)",
            ["ddzero", "--letters", "2", "--smax", "1"],
            "differential of [1|0]",
        ),
        (
            "cochain.delta_generic = lambda c: RationalSum({((2,), (0,)): 1})",
            ["ddzero", "--symbolic", "--degrees", "0", "--smax", "0"],
            "row of [1|0] breaks the grade split at [2]",
        ),
        (
            "cochain.delta_generic = lambda c: RationalSum({((1,), (1,)): 1})",
            ["ddzero", "--symbolic", "--degrees", "0", "--smax", "0"],
            "row of [1|0] breaks the grade split at [1]",
        ),
        (
            "algebra.rule_rhs = lambda i, j: [((i, j), Fraction(1))]",
            ["gsb", "--bound", "3"],
            "rewrite v3.v0 -> v3.v0 does not decrease deg-lex",
        ),
        (
            "algebra.rule_rhs = algebra._defective_rule_rhs",
            ["gsb", "--bound", "3"],
            "FAIL: locality(3,0)\n",
        ),
        (
            # one out-of-order rule, met at bound 3 only inside a longer word:
            # the failure names the rule, which is checked once, not the word
            "real = algebra.rule_rhs\n"
            "algebra.rule_rhs = lambda i, j: "
            "[((0, 0, 4), Fraction(1))] if (i, j) == (4, 0) else real(i, j)",
            ["gsb", "--bound", "3"],
            "rewrite v4.v0 -> v0.v0.v4 raises the (weight, length) filtration",
        ),
        (
            # ``ddzero`` switches back to the true table, so that is planted too
            "real = algebra.rule_rhs\n"
            "algebra.rule_rhs = algebra._true_rule_rhs = lambda i, j: "
            "[((0, 0, 3), Fraction(1))] if (i, j) == (3, 0) else real(i, j)",
            ["ddzero", "--letters", "2", "--smax", "1"],
            "rewrite v3.v0 -> v0.v0.v3 raises the (weight, length) filtration",
        ),
        (
            # the halved table is also the one ``ddzero`` switches back to
            "real = algebra.rule_rhs\n"
            "algebra.rule_rhs = algebra._true_rule_rhs = lambda i, j: "
            "[(w, c / 2 if len(w) == 1 else c) for w, c in real(i, j)]",
            ["ddzero", "--letters", "3", "--smax", "1"],
            "bar reduction of [v3|v0.v1] meets the non-integral coefficient 3/2",
        ),
        (
            # every bracket that needs rewriting maps back to itself
            "real = anick.delta_dprime\n"
            "anick.delta_dprime = lambda slots: "
            "{((), slots): 1} if real(slots) else real(slots)",
            ["ddzero", "--letters", "2", "--smax", "1"],
            "IterationOverflow('bracket rewriting returns to [v0.v1] while reducing it')",
        ),
    ],
    ids=[
        "delta_generic", "reduced_row", "reduced_row_d_part", "rule_order",
        "gsb_defect", "rule_order_gsb_3_0", "rule_order_ddzero_3_0", "integral_bar",
        "bar_cycle",
    ],
)
def test_ddzero_invariant_checks_survive_optimization(patch, argv, named):
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from virhoch import algebra, anick, cochain, cli\n"
        "from virhoch.scalars import RationalSum\n"
        f"{patch}\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr
    assert "FAIL" in proc.stderr and named in proc.stderr


def test_no_assert_statements_in_package():
    # invariants are raised as InvariantError so that python -O keeps them
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Mutation-style negative controls: a flipped sign in one reduced row, a
# product that drops its denominators and a dropped pivot must each fail
# the gate that covers them.  Each mutant is the source of a replacement for
# ``path.name``, evaluated with the original bound to ``real``; ``path`` is
# a dotted attribute path from ``cli``, a module or a class in one.
MUTANTS = {
    "row_sign": (
        "cochain", "reduced_row",
        "lambda c: {k: -v if c == (2, 1, 0) and i == 0 else v "
        "for i, (k, v) in enumerate(real(c).items())}",
        ["ddzero", "--symbolic", "--degrees", "2", "--smax", "3"],
        1, "FAIL d.d at [2|1|0]",
    ),
    "dropped_denominator": (
        "cochain.ParamPoly", "__mul__",
        "lambda self, other: type(self)({k: c.numerator for k, c in real(self, other).terms()})",
        ["ddzero", "--symbolic", "--degrees", "2", "--smax", "3"],
        1, "FAIL d.d at [2|2|2] -> [4]: 10*D^1*a^0 + 6",
    ),
    "dropped_pivot": (
        "cohom", "pivot_columns",
        "lambda rows: real(rows)[:-1]",
        ["cohomology", "--delta", "1", "--expect", "paper"],
        2, "totals {'1': 3, '2': 3, '3': 2, '4': 2} differ from expected "
        "{'1': 2, '2': 1, '3': 0, '4': 0}",
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_fails_its_gate(capsys, monkeypatch, mutant):
    path, name, source, argv, code, message = MUTANTS[mutant]
    target = reduce(getattr, path.split("."), cli)
    monkeypatch.setattr(target, name, eval(source, {"real": getattr(target, name)}))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert message in out + err


def test_mutants_fail_under_optimization():
    script = (
        "from functools import reduce\n"
        "from virhoch import cli\n"
        f"for path, name, source, argv, _, _ in {list(MUTANTS.values())!r}:\n"
        "    target = reduce(getattr, path.split('.'), cli)\n"
        "    real = getattr(target, name)\n"
        "    setattr(target, name, eval(source))\n"
        "    print('exit', cli.main(argv), flush=True)\n"
        "    setattr(target, name, real)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    exits = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert exits == [f"exit {code}" for _, _, _, _, code, _ in MUTANTS.values()]
    for _, _, _, _, _, message in MUTANTS.values():
        assert message in proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_expect_match(capsys):
    # the claims cover degrees 1..4; only the degrees both sides have are compared
    for bounds, totals in [
        ([], "2,1,0,0"),
        (["--nmax", "2", "--smax", "4"], "2,1"),
        (["--nmax", "5", "--smax", "6"], "2,1,0,0,0"),
    ]:
        code, out, _ = run(capsys, "cohomology", "--delta", "1", *bounds, "--expect", "paper")
        assert code == 0, bounds
        assert f"totals: {totals}\n" in out
        assert "expectation (paper): match" in out


def test_cohomology_locate(capsys):
    code, out, _ = run(capsys, "cohomology", "--delta", "0", "--nmax", "3",
                       "--locate")
    assert code == 0
    assert "classes at n=1: [2]" in out
    assert "classes at n=2: [2|0], [2|1]" in out
    assert "classes at n=3: [2|1|0]" in out


def test_cohomology_unlisted_point_fails_fast(capsys):
    code, out, err = run(capsys, "cohomology", "--delta", "7", "--expect", "paper")
    assert code == 64
    assert "no bundled expectation" in err
    assert out == ""  # nothing was computed


def test_cohomology_expect_mismatch(capsys, monkeypatch):
    wrong = {
        "graded": [{"delta": "1", "alpha": "0",
                    "totals": {"1": "9", "2": "9", "3": "9", "4": "9"}}],
        "truncated": [],
    }
    monkeypatch.setattr(cli, "load_expected", lambda: wrong)
    code, out, _ = run(capsys, "cohomology", "--delta", "1", "--expect", "paper")
    assert code == 2
    assert "differ from expected" in out


def test_alpha_without_truncation_is_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", "--delta", "1", "--alpha", "1")
    assert code == 64
    assert "truncated" in err


def test_truncated_with_zero_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", "--delta", "1", "--truncated", "6")
    assert code == 64


@pytest.mark.parametrize("cutoff,nmax", [("-5", "3"), ("0", "4")])
def test_truncated_cutoff_below_top_degree_is_usage_error(capsys, cutoff, nmax):
    code, out, err = run(capsys, "cohomology", "--delta", "1", "--alpha", "1",
                         "--truncated", cutoff, "--nmax", nmax)
    assert code == 64
    assert "minimal grade" in err
    assert "stable" not in out


def _no_work(*args):
    raise AssertionError("computed before the options were validated")


def test_locate_on_truncated_route_is_rejected_before_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compute_table", _no_work)
    code, out, err = run(capsys, "cohomology", "--delta", "1", "--alpha", "1",
                         "--truncated", "2", "--locate")
    assert code == 64
    assert out == ""
    assert "--locate" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_locate_outside_the_table_format_is_rejected_before_work(capsys, monkeypatch, fmt):
    # the classes are text lines, which would break a CSV or JSON document
    monkeypatch.setattr(cli, "compute_table", _no_work)
    code, out, err = run(capsys, "cohomology", "--delta", "0", "--locate", "--format", fmt)
    assert code == 64
    assert out == ""
    assert "--locate" in err and "table format" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cohomology", "--delta", "1", "--nmax", "0"], "--nmax must be >= 1"),
        (["cohomology", "--delta", "1", "--smax", "-1"], "--smax must be >= 0"),
        (["cohomology", "--delta", "1", "--alpha", "1", "--truncated", "8", "--nmax", "0"],
         "--nmax must be >= 1"),
        (["report", "--format", "json", "--nmax", "0"], "--nmax must be >= 1"),
        (["report", "--format", "json", "--smax", "-1"], "--smax must be >= 0"),
        (["ddzero", "--smax", "-1"], "--smax must be >= 0"),
        (["ddzero", "--letters", "1"], "--letters must be >= 2"),
        (["ddzero", "--symbolic", "--smax", "-1"], "--smax must be >= 0"),
        (["ddzero", "--symbolic", "--degrees", "-1"], "--degrees must be >= 0"),
    ],
    ids=["cohomology_nmax", "cohomology_smax", "truncated_nmax", "report_nmax", "report_smax",
         "ddzero_smax", "ddzero_letters", "symbolic_smax", "symbolic_degrees"],
)
def test_bound_messages_name_the_flag_before_work(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "compute_table", _no_work)
    monkeypatch.setattr(cli.anick, "enumerate_chains", _no_work)
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv,head",
    [
        (["ddzero", "--symbolic", "--letters", "1"], "d.d = 0 symbolically on"),
        (["ddzero", "--letters", "3", "--degrees", "-1"], "delta.delta = 0 on"),
        (["cohomology", "--delta", "1", "--alpha", "1", "--truncated", "8", "--smax", "-1"],
         "truncated cohomology at delta=1, alpha=1"),
    ],
    ids=["symbolic_letters", "resolution_degrees", "truncated_smax"],
)
def test_bounds_a_route_does_not_read_are_not_checked(capsys, argv, head):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(head)


def test_negative_dimension_is_a_check_failure(capsys, monkeypatch):
    real = cli.cohom.rank
    monkeypatch.setattr(cli.cohom, "rank", lambda m, cuts: [r + 1 for r in real(m, cuts)])
    code, _, err = run(capsys, "cohomology", "--delta", "1", "--nmax", "2", "--smax", "2")
    assert code == 1
    assert "FAIL: negative dimension" in err and "degree 1, grade -1" in err


def test_bad_rational_is_usage_error(capsys):
    code, _, err = run(capsys, "cohomology", "--delta", "1//2")
    assert code == 64
    assert "usage error" in err


@pytest.mark.parametrize("flag", ["--delta", "--alpha"])
def test_zero_denominator_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "cohomology", "--delta", "1", flag, "1/0")
    assert code == 64
    assert out == ""
    assert err.startswith("usage error:") and "'1/0'" in err


def test_csv_format(capsys):
    code, out, _ = run(capsys, "cohomology", "--delta", "1", "--nmax", "1",
                       "--smax", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta,alpha,n,s,dim"
    assert "1,0,1,-1,1" in lines
    assert all(line.count(",") == 4 for line in lines)


def test_json_format_round_trips(capsys):
    code, out, _ = run(capsys, "cohomology", "--delta", "5/2", "--nmax", "2",
                       "--smax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == "5/2"
    assert doc["totals"] == {"1": 0, "2": 0}


def test_cache_warm_run_identical(capsys, tmp_path, monkeypatch):
    # the second call in one process reuses the memoized rows of the first;
    # both match a cold interpreter, and nothing is written to disk
    args = ["cohomology", "--delta", "0", "--nmax", "2", "--smax", "4", "--format", "json"]
    monkeypatch.chdir(tmp_path)
    first = run(capsys, *args)
    assert first[0] == 0
    assert run(capsys, *args) == first
    assert fresh_run(args) == first
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# report bundle


def test_report_csv_needs_out(capsys):
    code, _, err = run(capsys, "report", "--nmax", "1", "--smax", "2")
    assert code == 64
    assert "--out" in err


def test_report_csv_without_out_is_rejected_before_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compute_table", _no_work)
    code, out, err = run(capsys, "report")
    assert code == 64
    assert out == ""
    assert "--out" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("below", [False, True])
def test_report_out_that_is_a_file_is_rejected_before_work(capsys, monkeypatch, tmp_path,
                                                            fmt, below):
    # an existing file, or a path below one, cannot be the report directory
    monkeypatch.setattr(cli, "compute_table", _no_work)
    path = tmp_path / "taken"
    path.write_text("kept\n")
    out_arg = path / "tables" if below else path
    code, out, err = run(capsys, "report", "--out", str(out_arg), "--format", fmt)
    assert code == 64
    assert out == ""
    assert "--out" in err
    assert path.read_text() == "kept\n"


def test_report_deterministic(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "report", "--out", str(out_a), "--nmax", "2", "--smax", "3")[0] == 0
    assert run(capsys, "report", "--out", str(out_b), "--nmax", "2", "--smax", "3")[0] == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert "summary.txt" in names
    assert "dims_d5_2_a0.csv" in names and "dims_dm1_a0.csv" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_report_json_stdout(capsys):
    code, out, _ = run(capsys, "report", "--format", "json", "--nmax", "1",
                       "--smax", "2")
    assert code == 0
    bundle = json.loads(out)
    assert sorted(bundle) == ["-1", "-2", "0", "1", "2", "5/2"]
    assert bundle["1"]["totals"] == {"1": 2}


def test_report_parallel_matches_serial(capsys, tmp_path):
    # the report's points share one process and its memoized rows; each file
    # matches its point computed alone in a fresh interpreter, as a separate
    # worker process would
    assert run(capsys, "report", "--out", str(tmp_path), "--nmax", "1", "--smax", "2")[0] == 0
    for entry in cli.load_expected()["graded"]:
        d = entry["delta"]
        code, out, err = fresh_run(
            ["cohomology", "--delta", d, "--nmax", "1", "--smax", "2", "--format", "csv"]
        )
        assert (code, err) == (0, "")
        path = tmp_path / cli._point_filename(cli.parse_rational(d), Fraction(0))
        assert path.read_text() == out


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_report_nonpositive_jobs_is_usage_error(capsys, monkeypatch, jobs):
    # --jobs is gone: any value, nonpositive too, is rejected before any work
    monkeypatch.setattr(cli, "compute_table", _no_work)
    code, out, err = run(capsys, "report", "--format", "json", "--nmax", "1",
                         "--smax", "2", "--jobs", jobs)
    assert code == 64
    assert out == ""
    assert "--jobs" in err


# ---------------------------------------------------------------------------
# README transcripts


def readme_transcripts() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every ``$ virhoch ...`` block in README.md's Quick start."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    out = []
    for block in quick.split("```")[1::2]:
        command, _, printed = block.strip("\n").partition("\n")
        if command.startswith("$ virhoch "):
            out.append((command.split()[2:], printed + "\n"))
    return out


def test_readme_transcripts_match(capsys):
    transcripts = readme_transcripts()
    assert len(transcripts) == 2
    for argv, printed in transcripts:
        assert run(capsys, *argv) == (0, printed, ""), argv
