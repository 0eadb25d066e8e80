"""Exit codes, output formats, import footprint, and defect injection for the CLI."""

import ast
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from virhoch import algebra, anick, cli, cochain
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
    # no command runs the oracles or the module action they read
    left_out |= {"virhoch.confmod", "virhoch.oracles"}
    assert left_out.isdisjoint(added)


# ---------------------------------------------------------------------------
# gsb


def test_gsb_small(capsys):
    code, out, _ = run(capsys, "gsb", "--bound", "3")
    assert code == 0
    assert "overlaps:" in out and "relations:" in out and "ok" in out


def test_gsb_prints_one_violation_per_line(capsys):
    # under the planted defect every violation is listed: the first after
    # "FAIL: ", each later one on its own line under it
    with algebra.rule_defect():
        code, out, err = run(capsys, "gsb", "--bound", "3")
    assert (code, out) == (1, "")
    first, *rest = err.splitlines()
    assert first == "FAIL: locality(3,0)" and len(rest) == 24
    assert rest[0] == "      locality(3,1)" and rest[-1] == "      overlap(3,3,3)"
    assert all(line.startswith("      ") and "(" in line for line in rest)


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
    assert err == "FAIL: d.d at [2|0] -> []: -1*D^1*a^0 + 1\n"


# ---------------------------------------------------------------------------
# the cyclic collector, paused while one command runs


def test_a_command_runs_with_the_cyclic_collector_paused(capsys, monkeypatch):
    seen = []

    def cmd_gsb(args):
        seen.append(gc.isenabled())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_gsb", cmd_gsb)
    monkeypatch.setattr(cli, "_parser", None)  # rebuilt, bound to the patched command
    assert gc.isenabled()
    assert run(capsys, "gsb") == (0, "", "")
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("argv, code", [
    (["gsb", "--bound", "3"], 0),
    (["gsb", "--bound", "2"], 64),
    (["cohomology", "--delta=x"], 64),
    (["ddzero", "--no-such-flag"], 64),
    (["ddzero", "--symbolic", "--degrees", "1", "--smax", "3", "--inject-defect"], 1),
])
def test_the_collector_is_left_as_the_caller_had_it(capsys, argv, code):
    # on after a clean exit, a usage error and a FAIL; off if it was off
    assert gc.isenabled()
    assert run(capsys, *argv)[0] == code
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == code
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_commands_leave_no_cyclic_garbage(capsys):
    # a cycle made while the collector is paused lives until the command
    # returns; only the parser's one-time build and json's encoder make any
    run(capsys, "gsb", "--bound", "3")
    gc.collect()
    gc.disable()
    try:
        for argv in (
            ["ddzero", "--symbolic", "--degrees", "3", "--smax", "5"],
            ["ddzero", "--letters", "4", "--smax", "4"],
            ["cohomology", "--delta", "1", "--locate"],
            ["cohomology", "--delta=1", "--alpha=1", "--truncated", "4", "--nmax", "2"],
        ):
            assert run(capsys, *argv)[0] == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def fresh_run(argv):
    """Exit code, stdout and stderr of one CLI call in a new interpreter."""
    script = f"import sys\nfrom virhoch import cli\nsys.exit(cli.main({argv!r}))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_of_a_process():
    # a usage error, --version, a failing and a clean run in one process
    # each print and exit as they do alone, and the parser is built once,
    # on the first call, not at import
    calls = [
        ["cohomology", "--delta=x"],
        ["--version"],
        ["ddzero", "--letters", "3", "--smax", "3", "--inject-defect"],
        ["ddzero", "--letters", "3", "--smax", "3"],
    ]
    script = (
        "import contextlib, io, json\n"
        "from virhoch import cli\n"
        "built = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: built.append(1) or build()\n"
        "results = []\n"
        f"for argv in {calls!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps({'built': len(built), 'results': results}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["built"] == 1
    got = [tuple(r) for r in doc["results"]]
    assert got == [fresh_run(argv) for argv in calls]
    assert [code for code, _, _ in got] == [64, 0, 1, 0]


def test_ddzero_runs_share_memos_until_the_rule_changes(capsys):
    # the symbolic suite fills the row memo, the resolution suite the
    # differential memo; each run keeps the other's values
    symbolic = ["ddzero", "--symbolic", "--degrees", "3", "--smax", "5"]
    letters = ["ddzero", "--letters", "4", "--smax", "5"]
    assert run(capsys, *symbolic) == fresh_run(symbolic)
    row = cochain._RED_ROWS[(2, 1, 0)]
    assert run(capsys, *letters) == fresh_run(letters)
    delta = anick._DELTA_CACHE[(2, 1, 0)]
    assert run(capsys, *symbolic) == fresh_run(symbolic)
    assert cochain._RED_ROWS[(2, 1, 0)] is row and anick._DELTA_CACHE[(2, 1, 0)] is delta

    # the planted defect still fails, and its values do not outlive it
    for argv in (letters, symbolic):
        code, _, err = run(capsys, *argv, "--inject-defect")
        assert code == 1 and "FAIL" in err
        assert run(capsys, *argv) == fresh_run(argv)


def _changes_under_optimization(node: ast.AST) -> bool:
    """An assert, the name ``__debug__``, or a read of ``sys.flags``."""
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute):
        return node.attr == "flags" and isinstance(node.value, ast.Name) and node.value.id == "sys"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "flags" for alias in node.names)
    return False


def test_no_assert_statements_in_package():
    # invariants are raised as InvariantError, and no code asks whether
    # python -O is on, so -O runs the same code as a plain run: each
    # in-process test of a check is also its test under -O
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _changes_under_optimization(node)
    ]
    assert found == []


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
        (["cohomology", "--delta", "1", "--smax", "-2"], "--smax must be >= -1"),
        (["cohomology", "--delta", "1", "--alpha", "1", "--truncated", "8", "--nmax", "0"],
         "--nmax must be >= 1"),
        (["report", "--format", "json", "--nmax", "0"], "--nmax must be >= 1"),
        (["report", "--format", "json", "--smax", "-2"], "--smax must be >= -1"),
        (["ddzero", "--smax", "-2"], "--smax must be >= -1"),
        (["ddzero", "--letters", "1"], "--letters must be >= 2"),
        (["ddzero", "--symbolic", "--smax", "-2"], "--smax must be >= -1"),
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


def test_graded_bound_is_the_lowest_grade_of_any_chain(capsys):
    # grade -1 holds [0] and [1|0], the classes of H^1 and H^2 at D = 1
    code, out, err = run(capsys, "cohomology", "--delta", "1", "--smax", "-1")
    assert (code, err) == (0, "")
    assert out == (
        "cohomology at delta=1, alpha=0 (n <= 4, s <= -1)\n"
        "H^1 = 1   [s=-1: 1]\n"
        "H^2 = 1   [s=-1: 1]\n"
        "H^3 = 0\n"
        "H^4 = 0\n"
        "totals: 1,1,0,0\n"
    )


def test_square_zero_bound_is_the_lowest_grade_of_a_two_letter_chain(capsys):
    # both suites start at 2-letter chains; grade -1 holds one, [1|0]
    for argv, head in [([], "delta.delta = 0"), (["--symbolic"], "d.d = 0 symbolically")]:
        code, out, err = run(capsys, "ddzero", *argv, "--smax", "-1")
        assert (code, err) == (0, "") and out.startswith(f"{head} on 1 chains "), argv


def test_negative_dimension_is_a_check_failure(capsys, monkeypatch):
    real = cli.cohom.rank

    def overcounted(m, cuts, *clearing):
        ranks, *rest = real(m, cuts, *clearing)
        return [r + 1 for r in ranks], *rest

    monkeypatch.setattr(cli.cohom, "rank", overcounted)
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


def test_report_files_match_each_point_computed_alone(capsys, tmp_path):
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
def test_report_jobs_of_any_value_is_usage_error(capsys, monkeypatch, jobs):
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
