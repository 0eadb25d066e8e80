#!/usr/bin/env python3
"""Planted faults: each one must be caught by the check it names.

This ledger is the one home of the faults planted for an end-to-end check;
a unit test that patches one function to reach one ``raise`` stays with the
tests.  Each fault is a named source edit of one file under
``src/virhoch``: a text that must occur there exactly once, and its
replacement, plus the check that must catch it.  The edit is applied to a
copy of ``src`` in a temporary directory, and a fresh interpreter runs the
check against the copy under ``python -O``, so every fault is caught with
asserts compiled out.  The faults run one subprocess at a time.  The checks:

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
  [0], whose row breaks the coboundary witness; the line gives [0], the
  number of chains named and the first four of them;
* ``truncated``: ``cohom.truncated_cohomology(0, 2, n_max=2, S=-1)`` must
  give other totals or flags than {1: 0, 2: 0} and {1: True, 2: False}: a
  point whose cutoffs S and S + 1 differ, unlike every bundled one;
* ``ddzero_symbolic``: ``ddzero --symbolic --degrees 2 --smax 3`` must exit
  1 with a FAIL line: a nonzero entry of the symbolic d.d, named by its
  chain and source, or a row that breaks the grade split, named by its
  chain;
* ``ddzero_symbolic_defect``: ``ddzero --symbolic --degrees 2 --smax 3
  --inject-defect`` must exit 1 with a FAIL line, since the planted rule
  defect breaks d.d = 0; the fault is caught when that run exits 0, as a
  fault that zeroes the square does;
* ``ddzero_letters``: ``ddzero --letters 3 --smax 1`` must exit 1 with a
  FAIL line: a nonzero delta.delta, or a broken invariant of the bar
  reduction or of the rule table, named by its chain, bracket or rule;
* ``gsb``: ``gsb --bound 3`` must exit 1 with a FAIL line naming the
  defining relation or the rule that breaks;
* ``clean_after_defect``: ``gsb --bound 3`` must exit 1 with a FAIL line
  right after ``ddzero --letters 3 --smax 3 --inject-defect`` exits 1 in the
  same interpreter: the planted defect outlives its scope.

Before any fault is planted, every fault's text is looked up in its file;
a text that does not occur exactly once is named on one line each, and
the exit is 1.  Then one line per fault says how it was caught; a fault
that no check shows survives, and so does one whose check raises instead
of naming it; then the exit is 1.  Stdlib only:

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
        "parts.setdefault(m_plus, [0, 0, 0])[A_PART] += scale * b",
        "parts.setdefault(m_plus, [0, 0, 0])[A_PART] -= scale * b",
        "bar_row",
    ),
    # each pair's constant at m- replaces what earlier pairs put there
    "const_part_overwritten": (
        "cochain.py",
        "minus[CONST] += scale * (gamma",
        "minus[CONST] = scale * (gamma",
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
    # gamma one too high in the closed row's copy of each rule; the bar
    # reduction reads the true rule table, so only the closed rows change
    "pair_gamma_plus_one": (
        "cochain.py",
        "coeffs[word] = q",
        "coeffs[word] = q + (word == (k,))",
        "bar_row",
    ),
    # the peel of [1|0] with its sign flipped: one entry of one row
    "peel_sign_flipped": (
        "cochain.py",
        "parts[(0,)] = [0, den, 0]",
        "parts[(0,)] = [0, -den, 0]",
        "ddzero_symbolic",
    ),
    # each pair's a term at m- instead of m+, one grade too low
    "a_part_at_m_minus": (
        "cochain.py",
        "parts.setdefault(m_plus, [0, 0, 0])[A_PART] += scale * b",
        "parts.setdefault(m_minus, [0, 0, 0])[A_PART] += scale * b",
        "ddzero_symbolic",
    ),
    # the peel of [1|0] at [1], one grade up
    "peel_one_grade_up": (
        "cochain.py",
        "parts[(0,)] = [0, den, 0]",
        "parts[(1,)] = [0, den, 0]",
        "ddzero_symbolic",
    ),
    # the oracle's denominator ignores those of the decremented chains, so
    # their psi terms are scaled wrong
    "bar_row_den_without_decrements": (
        "cochain.py",
        "den = lcm(own.den, *[delta.den for _, delta in downs])",
        "den = own.den",
        "bar_row",
    ),
    # entries with only an a part are left out of every row: the a term of
    # [0], the one entry of its row, among them
    "a_only_entry_dropped": (
        "cochain.py",
        "        if n0 or nd or na:\n",
        "        if n0 or nd:\n",
        "contraction",
    ),
    # the square's product table looks a product up by its left factor's id
    # alone: the first product of an entry stands for all its others
    "product_by_left_factor_only": (
        "cochain.py",
        "product = by_right.get(id(v2))",
        "product = next(iter(by_right.values()), None)",
        "ddzero_symbolic",
    ),
    # every product the square's table stores is zero: d.d reads 0 on every
    # chain, and only the planted rule defect shows it
    "stored_products_zeroed": (
        "cochain.py",
        "product = by_right[id(v2)] = v1 * v2",
        "product = by_right[id(v2)] = v1 * v2 * 0",
        "ddzero_symbolic_defect",
    ),
    # a product of row entries loses its denominator
    "product_denominator_dropped": (
        "scalars.py",
        "return ParamPoly._reduced(out, self._den * other._den)",
        "return ParamPoly._reduced(out, 1)",
        "ddzero_symbolic",
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
        "        return {i: x * (unit // scales[i]) for i, x in vec.items()}\n",
        "        v = {i: x * (unit // scales[i]) for i, x in vec.items()}\n"
        "        v[next(iter(v))] *= 2\n"
        "        return v\n",
        "relation_certificate",
    ),
    # the free columns of every elimination lose their first entry
    "free_column_lost": (
        "cohom.py",
        "[j for j in range(max(cuts, default=0)) if j not in taken],",
        "[j for j in range(max(cuts, default=0)) if j not in taken][1:],",
        "located_count",
    ),
    # the cleared columns are counted among the free ones
    "cleared_column_counted_free": (
        "cohom.py",
        "taken = cleared.union(claimed)",
        "taken = set(claimed)",
        "located_count",
    ),
    # each graded piece differenced against the window two grades down
    "piece_against_the_wrong_cut": (
        "cohom.py",
        "dims[i] - (dims[i - 1] if i else 0)",
        "dims[i] - (dims[i - 2] if i > 1 else 0)",
        "located_count",
    ),
    # both stability flags read from the cutoff S
    "stability_from_one_cut": (
        "cohom.py",
        'dims(1, f"S+1={S + 1}")',
        'dims(0, f"S+1={S + 1}")',
        "truncated",
    ),
    # the empty chain, the target of [0]'s witness, is left out of its row
    "contraction_empty_chain_skipped": (
        "cohom.py",
        "if not cp or cp[-1] >= 1",
        "if cp and cp[-1] >= 1",
        "contraction",
    ),
    # the lowest grade of every degree from 2 on one too high: the graded
    # tables skip it, and with it the class [1|0] of H^2 at D = 1
    "lowest_grade_off_by_one": (
        "anick.py",
        "return max(n - 3, -1) if n else 0",
        "return max(n - 2, -1) if n else 0",
        "paper_totals",
    ),
    # every differential term gets one letter too many
    "malformed_differential_term": (
        "anick.py",
        "add_term(nums, (cp, lam + mu), n * r)",
        "add_term(nums, (cp + (0,), lam + mu), n * r)",
        "ddzero_letters",
    ),
    # every bracket that needs rewriting maps back to itself
    "bracket_rewrites_to_itself": (
        "anick.py",
        "    out = {(split[0], split[1:]): sign}\n",
        "    return {((), slots): 1}\n",
        "ddzero_letters",
    ),
    # every rule v(i)v(j) with i >= 2 rewrites to its own pair
    "rule_returns_its_pair": (
        "algebra.py",
        "    return [(w, c) for w, c in out if c]\n",
        "    return [((i, j), Fraction(1))]\n",
        "gsb",
    ),
    # the rule table of --inject-defect made the true one: gamma + 1 for i >= 2
    "gamma_plus_one": (
        "algebra.py",
        "((k,), Fraction(i * (i - 1), k)),",
        "((k,), Fraction(i * (i - 1), k) + 1),",
        "gsb",
    ),
    # one rule raises (weight, length); at bound 3 gsb meets it only inside
    # a longer word, and the failure names the rule, not the word
    "rule_4_0_raises_the_filtration": (
        "algebra.py",
        "    if (i, j) == (1, 0):\n",
        "    if (i, j) == (4, 0):\n"
        "        return [((0, 0, 4), Fraction(1))]\n"
        "    if (i, j) == (1, 0):\n",
        "gsb",
    ),
    # the same for the rule (3, 0), met by the bar reduction
    "rule_3_0_raises_the_filtration": (
        "algebra.py",
        "    if (i, j) == (1, 0):\n",
        "    if (i, j) == (3, 0):\n"
        "        return [((0, 0, 3), Fraction(1))]\n"
        "    if (i, j) == (1, 0):\n",
        "ddzero_letters",
    ),
    # every rule's one-letter word at half its coefficient: the bar reduction
    # meets a coefficient that is no integer
    "one_letter_words_halved": (
        "algebra.py",
        "rhs = rule_rhs(i, j)",
        "rhs = [(w, c / 2 if len(w) == 1 else c) for w, c in rule_rhs(i, j)]",
        "ddzero_letters",
    ),
    # the scope of --inject-defect no longer restores the true rule table
    # on exit: the defect outlives the run that asked for it
    "defect_outlives_its_scope": (
        "algebra.py",
        "        _use_rule(_true_rule_rhs)\n",
        "        pass\n",
        "clean_after_defect",
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
        "shown = ', '.join(map(chain_to_text, defects[:4])) + (', ...' if len(defects) > 4 else '')\n"
        "print(f'[0] among {len(defects)}: {shown}' if (0,) in defects else None)\n",
    ),
    "truncated": (
        "truncated_cohomology(0, 2, n_max=2, S=-1)",
        "from virhoch import cohom\n"
        "t = cohom.truncated_cohomology(0, 2, n_max=2, S=-1)\n"
        "got = f'totals {t.totals}, stable {t.stable}'\n"
        "print(None if got == 'totals {1: 0, 2: 0}, stable {1: True, 2: False}' else got)\n",
    ),
    "ddzero_symbolic": (
        "ddzero --symbolic --degrees 2 --smax 3 exits 1",
        cli_check(["ddzero", "--symbolic", "--degrees", "2", "--smax", "3"], 1, "FAIL"),
    ),
    "ddzero_symbolic_defect": (
        "ddzero --symbolic --degrees 2 --smax 3 --inject-defect exits 0",
        cli_check(
            ["ddzero", "--symbolic", "--degrees", "2", "--smax", "3", "--inject-defect"],
            0,
            "d.d = 0",
        ),
    ),
    "ddzero_letters": (
        "ddzero --letters 3 --smax 1 exits 1",
        cli_check(["ddzero", "--letters", "3", "--smax", "1"], 1, "FAIL"),
    ),
    "gsb": ("gsb --bound 3 exits 1", cli_check(["gsb", "--bound", "3"], 1, "FAIL")),
    "clean_after_defect": (
        "gsb --bound 3 exits 1 after ddzero --letters 3 --smax 3 --inject-defect",
        "from virhoch.cli import main\n"
        "if main(['ddzero', '--letters', '3', '--smax', '3', '--inject-defect']) != 1:\n"
        "    raise SystemExit('the defect run passed')\n"
        + cli_check(["gsb", "--bound", "3"], 1, "FAIL"),
    ),
}


def source(target: str) -> str:
    return (ROOT / "src" / "virhoch" / target).read_text()


def stale_anchors() -> list[str]:
    """One line for each fault whose text does not occur exactly once in its file."""
    lines = []
    for name, (target, old, _, _) in FAULTS.items():
        count = source(target).count(old)
        if count != 1:
            lines.append(f"fault {name}: its text occurs {count} times in {target}, not once")
    return lines


def edited(name: str) -> str:
    """The source of the fault's file with the fault ``name`` planted."""
    target, old, new, _ = FAULTS[name]
    return source(target).replace(old, new)


def caught(name: str, tmp: Path) -> str:
    """How the fault's check caught it, "None" if it did not, or the error raised."""
    src = tmp / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "virhoch" / FAULTS[name][0]).write_text(edited(name))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-B", "-c", CHECKS[FAULTS[name][3]][1]],
        env=env, cwd=tmp, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode:
        return "raised " + (proc.stderr.strip().splitlines() or ["nothing"])[-1]
    return proc.stdout.strip()


def main() -> int:
    stale = stale_anchors()
    if stale:
        print("\n".join(stale))
        return 1
    survivors, width = 0, max(map(len, FAULTS))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (target, _, _, check) in FAULTS.items():
            start = time.perf_counter()
            found = caught(name, Path(tmp))
            survived = found == "None" or found.startswith("raised ")
            survivors += survived
            verdict = f"caught at {found}"
            if survived:
                verdict = "SURVIVED" + ("" if found == "None" else f": the check {found}")
            print(
                f"{name:<{width}} {verdict} ({time.perf_counter() - start:.1f}s): "
                f"{target}, {CHECKS[check][0]}"
            )
    print(f"{len(FAULTS)} faults, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
