"""Every planted fault is caught by the check it names, under ``python -O``.

``scripts/mutants.py`` applies each named source edit to a copy of
``src/virhoch`` and runs the fault's check against it in an interpreter
started with ``-O``; its docstring lists the checks.  Each fault of the
closed row must be named by the first chain where ``reduced_row`` and
``bar_row`` differ, and the failure of every other fault is pinned below.
Every check that exits 1 prints ``FAIL: <message>``, the one failure line
of ``cli.main``.  A fault whose text no longer occurs exactly once in its
file is named before any fault is planted.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

# fault -> the text its line must hold after "caught at "
PINNED = {
    "dropped_pivot": "exit 2: expectation (paper): totals {'1': 3, '2': 3, '3': 2, '4': 2} "
    "differ from expected {'1': 2, '2': 1, '3': 0, '4': 0}",
    "grade_skip_inverted": "exit 2: expectation (paper): totals",
    "lowest_grade_off_by_one": "exit 2: expectation (paper): totals {'1': 2, '2': 0, '3': 0, "
    "'4': 0} differ from expected {'1': 2, '2': 1, '3': 0, '4': 0}",
    "intern_key_drops_den": "[",
    "pair_gamma_plus_one": "[1|0] ",
    "const_part_overwritten": "[2|1|0] ",
    "bar_row_den_without_decrements": "[2|3] ",
    "a_only_entry_dropped": "[0] among 386: [0], [1|0], [2|0], [3|0], ... ",
    "relation_entry_doubled": "exit 1: FAIL: d.d != 0 on the relation that clears [",
    "one_value_for_every_entry": "exit 1: FAIL: d.d != 0 on the relation that clears [",
    "free_column_lost": "exit 1: FAIL: 0 classes located in degree 1, grade -1 for "
    "dimension 1, ",
    "cleared_column_counted_free": "exit 1: FAIL: 1 classes located in degree 2, grade 1 for "
    "dimension 0, ",
    "piece_against_the_wrong_cut": "exit 1: FAIL: 1 classes located in degree 1, grade 0 for "
    "dimension 2, ",
    "stability_from_one_cut": "totals {1: 0, 2: 0}, stable {1: True, 2: True} ",
    "contraction_empty_chain_skipped": "[0] among 1: [0] ",
    "peel_sign_flipped": "exit 1: FAIL: d.d at [1|0] -> []: ",
    "a_part_at_m_minus": "exit 1: FAIL: row of [1|0] breaks the grade split at [0]: ",
    "peel_one_grade_up": "exit 1: FAIL: row of [1|0] breaks the grade split at [1]: ",
    "product_by_left_factor_only": "exit 1: FAIL: d.d at [2|2|0] -> [3]: ",
    "stored_products_zeroed": "exit 0: d.d = 0 symbolically on 36 chains ",
    "product_denominator_dropped": "exit 1: FAIL: d.d at [2|2|2] -> [4]: ",
    "malformed_differential_term": "exit 1: FAIL: differential of [1|0] has the malformed term ",
    "bracket_rewrites_to_itself": "exit 1: FAIL: bracket rewriting returns to [v0.v1] while "
    "reducing it (",
    "rule_returns_its_pair": "exit 1: FAIL: rewrite v3.v0 -> v3.v0 does not decrease deg-lex",
    "gamma_plus_one": "exit 1: FAIL: locality(3,0) ",
    "defect_outlives_its_scope": "exit 1: FAIL: locality(3,0) ",
    "rule_4_0_raises_the_filtration": "exit 1: FAIL: rewrite v4.v0 -> v0.v0.v4 raises the "
    "(weight, length) filtration",
    "rule_3_0_raises_the_filtration": "exit 1: FAIL: rewrite v3.v0 -> v0.v0.v3 raises the "
    "(weight, length) filtration (",
    "one_letter_words_halved": "exit 1: FAIL: bar reduction of [v3|v0.v1] meets the "
    "non-integral coefficient 3/2 (",
}


def test_every_planted_fault_is_caught_by_its_check():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *faults, summary = proc.stdout.splitlines()
    assert len(faults) == 36 and summary == "36 faults, 0 survived"
    by_name = {line.split()[0]: line for line in faults}
    for line in faults:
        assert "internal invariant violated" not in line and "Error('" not in line, line
        if " caught at exit 1" in line:
            assert " caught at exit 1: FAIL: " in line, line
    for name, line in by_name.items():
        if line.endswith(", reduced_row == bar_row, n <= 5, grade <= 8"):
            assert " caught at [" in line, line
    for name, text in PINNED.items():
        assert f" caught at {text}" in by_name[name], by_name[name]


def test_stale_anchors_are_named_before_any_fault_is_planted(monkeypatch, capsys):
    assert mutants.stale_anchors() == []
    stale = ("cochain.py", "no such text", "", "bar_row")
    monkeypatch.setitem(mutants.FAULTS, "text_gone", stale)
    monkeypatch.setattr(mutants, "caught", lambda name, tmp: pytest.fail(f"{name} was planted"))
    assert mutants.main() == 1
    assert capsys.readouterr().out == (
        "fault text_gone: its text occurs 0 times in cochain.py, not once\n"
    )
