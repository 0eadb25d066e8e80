#!/usr/bin/env python3
"""Planted faults in the closed row: the bar-route oracle must catch each one.

Each fault is a named source edit of ``src/virhoch/cochain.py``: a text
that must occur there exactly once, and its replacement.  The edit is
applied to a copy of ``src`` in a temporary directory, and a fresh
interpreter compares ``reduced_row`` with ``bar_row`` chain by chain on the
chains with 1 to 5 letters and grade <= 8, through
``check_engine.first_row_mismatch``.  The faults run one subprocess at a
time.  One line per fault names the first chain that differs; a fault that
no chain shows survives, and then the exit is 1.  Stdlib only:

    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("virhoch", "cochain.py")
N_MAX, S_MAX = 5, 8

# name -> (text of src/virhoch/cochain.py, which occurs once, and its replacement)
FAULTS = {
    "a_term_sign_flipped": (
        "add_term(nums, (m_plus, A_PART), scale * b)",
        "add_term(nums, (m_plus, A_PART), -scale * b)",
    ),
    "denominator_k_plus_one": (
        "got = _PAIRS[(x, y)] = (*(int(n) for n in nums), k)",
        "got = _PAIRS[(x, y)] = (*(int(n) for n in nums), k + 1)",
    ),
    "tail_a_part_dropped": (
        "        if b:\n",
        "        if b and (x, y) != (1, 0):\n",
    ),
    "first_cascade_term_dropped": (
        "earlier += x - 1",
        "earlier += x - 1 if i else 0",
    ),
    "last_later_letter_dropped": (
        "for t in range(i + 1, n - 1):",
        "for t in range(i + 1, n - 2):",
    ),
    "sigma_kept_in_the_tail": (
        "tail = n - 3 if c[-2:] == (1, 0) else n",
        "tail = n",
    ),
    "peel_of_10_dropped": (
        "    if c[0] == 1:  # c = (1, 0): the peel v(1) [0]\n",
        "    if False:\n",
    ),
}

CHECK = (
    "import check_engine\n"
    f"c = check_engine.first_row_mismatch(check_engine.row_chains({N_MAX}, {S_MAX}))\n"
    "print(c and check_engine.chain_to_text(c))\n"
)


def edited(name: str) -> str:
    """The source of cochain.py with the fault ``name`` planted."""
    old, new = FAULTS[name]
    text = (ROOT / "src" / TARGET).read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError(f"fault {name}: its text occurs {count} times in {TARGET}, not once")
    return text.replace(old, new)


def first_difference(name: str, tmp: Path) -> str:
    """The first chain whose rows differ under the fault, "None", or the error raised."""
    src = tmp / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / TARGET).write_text(edited(name))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHECK],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode:
        return "raised " + (proc.stderr.strip().splitlines() or ["nothing"])[-1]
    return proc.stdout.strip()


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in FAULTS:
            start = time.perf_counter()
            found = first_difference(name, Path(tmp))
            survived = found == "None"
            survivors += survived
            verdict = "SURVIVED" if survived else f"caught at {found}"
            print(
                f"{name:<28} {verdict} ({time.perf_counter() - start:.1f}s): "
                f"reduced_row == bar_row, n <= {N_MAX}, grade <= {S_MAX}"
            )
    print(f"{len(FAULTS)} faults, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
