#!/usr/bin/env python3
"""Planted faults: each one must be caught by the check it names.

Each fault is a named source edit of one file under ``src/virhoch``: a text
that must occur there exactly once, and its replacement, plus the check that
must catch it.  The edit is applied to a copy of ``src`` in a temporary
directory, and a fresh interpreter runs the check against the copy.  The
faults run one subprocess at a time.  The checks:

* ``bar_row``: ``reduced_row`` against ``bar_row`` chain by chain on the
  chains with 1 to 5 letters and grade <= 8, through
  ``check_engine.first_row_mismatch``; the fault is named by the first
  chain that differs;
* ``paper_totals``: ``cohomology --delta 1 --expect paper`` must exit 2
  with totals that differ from the paper's;
* ``relation_certificate``: ``cohomology --delta 1`` must exit 1 with the
  d.d != 0 failure of a relation, which names the cleared chain;
* ``located_count``: ``cohomology --delta 1`` must exit 1 with the failure
  of the per-block class count, which names the degree and the grade;
* ``contraction``: ``cohom.contraction_defects(5, 8)`` must name the chain
  [0], whose row breaks the coboundary witness.

One line per fault says how it was caught; a fault that no check shows
survives, and then the exit is 1.  Stdlib only:

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
N_MAX, S_MAX = 5, 8

# name -> (file under src/virhoch, its text that occurs once, the replacement, check)
FAULTS = {
    "a_term_sign_flipped": (
        "cochain.py",
        "add_term(nums, (m_plus, A_PART), scale * b)",
        "add_term(nums, (m_plus, A_PART), -scale * b)",
        "bar_row",
    ),
    "denominator_k_plus_one": (
        "cochain.py",
        "got = _PAIRS[(x, y)] = (*(int(n) for n in nums), k)",
        "got = _PAIRS[(x, y)] = (*(int(n) for n in nums), k + 1)",
        "bar_row",
    ),
    "tail_a_part_dropped": (
        "cochain.py",
        "        if b:\n",
        "        if b and (x, y) != (1, 0):\n",
        "bar_row",
    ),
    "first_cascade_term_dropped": (
        "cochain.py",
        "earlier += x - 1",
        "earlier += x - 1 if i else 0",
        "bar_row",
    ),
    "last_later_letter_dropped": (
        "cochain.py",
        "for t in range(i + 1, n - 1):",
        "for t in range(i + 1, n - 2):",
        "bar_row",
    ),
    "sigma_kept_in_the_tail": (
        "cochain.py",
        "tail = n - 3 if c[-2:] == (1, 0) else n",
        "tail = n",
        "bar_row",
    ),
    "peel_of_10_dropped": (
        "cochain.py",
        "    if c[0] == 1:  # c = (1, 0): the peel v(1) [0]\n",
        "    if False:\n",
        "bar_row",
    ),
    # the intern key forgets the denominator: the first entry with the same
    # numerators stands for every other; ``bar_row`` builds its own entries
    "intern_key_drops_den": (
        "cochain.py",
        "key = (n0 // g, nd // g, na // g, den // g)",
        "key = (n0 // g, nd // g, na // g)",
        "bar_row",
    ),
    # every entry of a matrix takes the value of the first one specialized
    "one_value_for_every_entry": (
        "cohom.py",
        "got = values.get(id(val))",
        "got = next(iter(values.values()), None)",
        "relation_certificate",
    ),
    # at a = 0 the entries one grade up are kept and those at the target's grade dropped
    "grade_skip_inverted": (
        "cohom.py",
        "(shifted or grades[j] == s)",
        "(shifted or grades[j] == s + 1)",
        "paper_totals",
    ),
    # the last pivot claimed in each elimination is lost
    "dropped_pivot": (
        "cohom.py",
        "    return echelon\n",
        "    return dict(list(echelon.items())[:-1])\n",
        "paper_totals",
    ),
    # one coefficient of each relation handed to the next degree is doubled
    "relation_entry_doubled": (
        "cohom.py",
        "        return {last - key: x * (unit // scales[key]) for key, x in vec.items()}\n",
        "        v = {last - key: x * (unit // scales[key]) for key, x in vec.items()}\n"
        "        v[next(iter(v))] *= 2\n"
        "        return v\n",
        "relation_certificate",
    ),
    # the free columns of every elimination lose their first entry
    "free_column_lost": (
        "cohom.py",
        "yield from (j for j in range(max(cuts, default=0)) if j not in taken)",
        "yield from [j for j in range(max(cuts, default=0)) if j not in taken][1:]",
        "located_count",
    ),
    # the cleared columns are counted among the free ones
    "cleared_column_counted_free": (
        "cohom.py",
        "taken = cleared.union(claimed)",
        "taken = set(claimed)",
        "located_count",
    ),
    # the empty chain, the target of [0]'s witness, is left out of its row
    "contraction_empty_chain_skipped": (
        "cohom.py",
        "if not cp or cp[-1] >= 1",
        "if cp and cp[-1] >= 1",
        "contraction",
    ),
}

ROW_CHECK = (
    "import check_engine\n"
    f"c = check_engine.first_row_mismatch(check_engine.row_chains({N_MAX}, {S_MAX}))\n"
    "print(c and check_engine.chain_to_text(c))\n"
)


def cli_check(argv: list[str], code: int, text: str) -> str:
    """A check that runs ``virhoch argv`` and prints the output line holding
    ``text`` if the exit code is ``code``, else None."""
    return (
        "import contextlib, io\n"
        "from virhoch.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        f"    code = main({argv!r})\n"
        f"lines = [line for line in out.getvalue().splitlines() if {text!r} in line]\n"
        f"print(f'exit {{code}}: {{lines[0]}}' if code == {code} and lines else None)\n"
    )


# check -> (what it runs, a script printing how the fault was caught, or None)
CHECKS = {
    "bar_row": (f"reduced_row == bar_row, n <= {N_MAX}, grade <= {S_MAX}", ROW_CHECK),
    "paper_totals": (
        "cohomology --delta 1 --expect paper exits 2",
        cli_check(["cohomology", "--delta", "1", "--expect", "paper"], 2, "differ from expected"),
    ),
    "relation_certificate": (
        "cohomology --delta 1 exits 1",
        cli_check(["cohomology", "--delta", "1"], 1, "d.d != 0 on the relation that clears"),
    ),
    "located_count": (
        "cohomology --delta 1 exits 1",
        cli_check(["cohomology", "--delta", "1"], 1, "classes located in degree"),
    ),
    "contraction": (
        "contraction_defects(5, 8) names [0]",
        "from virhoch import cohom\n"
        "from virhoch.anick import chain_to_text\n"
        "defects = cohom.contraction_defects(5, 8)\n"
        "print(', '.join(map(chain_to_text, defects)) if (0,) in defects else None)\n",
    ),
}


def edited(name: str) -> str:
    """The source of the fault's file with the fault ``name`` planted."""
    target, old, new, _ = FAULTS[name]
    text = (ROOT / "src" / "virhoch" / target).read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError(f"fault {name}: its text occurs {count} times in {target}, not once")
    return text.replace(old, new)


def caught(name: str, tmp: Path) -> str:
    """How the fault's check caught it, "None" if it did not, or the error raised."""
    src = tmp / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "virhoch" / FAULTS[name][0]).write_text(edited(name))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHECKS[FAULTS[name][3]][1]],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode:
        return "raised " + (proc.stderr.strip().splitlines() or ["nothing"])[-1]
    return proc.stdout.strip()


def main() -> int:
    survivors, width = 0, max(map(len, FAULTS))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (target, _, _, check) in FAULTS.items():
            start = time.perf_counter()
            found = caught(name, Path(tmp))
            survived = found == "None"
            survivors += survived
            verdict = "SURVIVED" if survived else f"caught at {found}"
            print(
                f"{name:<{width}} {verdict} ({time.perf_counter() - start:.1f}s): "
                f"{target}, {CHECKS[check][0]}"
            )
    print(f"{len(FAULTS)} faults, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
