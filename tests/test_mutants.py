"""Every planted fault is caught by the check it names.

``scripts/mutants.py`` applies each named source edit to a copy of
``src/virhoch`` and runs the fault's check against it: the bar-route row
oracle on n <= 5, grade <= 8 for the faults of the closed row, each named by
the first chain that tells it apart, and for an intern key that drops the
denominator, which ``bar_row`` shows because it builds its own entries; the
paper's totals for a dropped pivot and for the a = 0 grade skip turned
around; the d.d = 0 certificate of the clearing for a wrong relation and for
a ``matrix_d`` cache that gives every entry one value, each named by the
chain it clears; the per-block class count for a lost free column and for
cleared columns counted free, named by the degree and the grade; and the
contraction witness for the empty chain left out of its row, named by the
chain [0].
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_planted_fault_is_caught_by_its_check():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *faults, summary = proc.stdout.splitlines()
    assert len(faults) >= 4 and summary == f"{len(faults)} faults, 0 survived"
    by_name = {line.split()[0]: line for line in faults}
    for name, line in by_name.items():
        if line.endswith(", reduced_row == bar_row, n <= 5, grade <= 8"):
            assert " caught at [" in line, line
    for name in ("dropped_pivot", "grade_skip_inverted"):
        assert "caught at exit 2: expectation (paper): totals" in by_name[name]
    assert " caught at [" in by_name["intern_key_drops_den"]
    for name in ("relation_entry_doubled", "one_value_for_every_entry"):
        assert "caught at exit 1: FAIL: d.d != 0 on the relation that clears [" in by_name[name]
    assert (
        "caught at exit 1: FAIL: 0 classes located in degree 1, grade -1 for dimension 1, "
        in by_name["free_column_lost"]
    )
    assert (
        "caught at exit 1: FAIL: 1 classes located in degree 2, grade 1 for dimension 0, "
        in by_name["cleared_column_counted_free"]
    )
    assert " caught at [0] " in by_name["contraction_empty_chain_skipped"]
