"""Every planted fault of the closed row is caught by the bar-route oracle.

``scripts/mutants.py`` applies each named source edit to a copy of
``cochain.py`` and compares ``reduced_row`` with ``bar_row`` chain by chain
on n <= 5, grade <= 8; each fault must be named with the first chain that
tells it apart.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_planted_row_fault_names_a_chain():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *faults, summary = proc.stdout.splitlines()
    assert len(faults) >= 4 and summary == f"{len(faults)} faults, 0 survived"
    assert all(" caught at [" in line for line in faults), faults
