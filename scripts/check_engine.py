#!/usr/bin/env python3
"""End-to-end consistency battery, printed with timings.

Runs the same checks the test suite automates: rewriting soundness,
both square-zero suites, and the dimension tables at all nine bundled
parameter points against the bundled expectations.  ``gsb --bound 2``, at
which no locality relation would be checked, must be refused as a usage
error (exit 64).  Two negative controls plant a defect in the rule table;
they must fail (exit 1), which shows that the square-zero gates can fail
at all.  A clean square-zero run after them must pass again: memos survive
between runs only while the rule table stays the same, so the defect's
values are gone once the true rule is back.
Square-zero runs on 6- and 7-letter chains, beyond the range of the test
suite, follow, then the located tables at D = 1 and 0 up to degree 6 and
grade 10.  The complete tables at D = 1 and 0, every degree up to 13 at
grade <= 10 (no chain of higher degree has grade <= 10), located too,
close the CLI steps; they run the clearing of ``cohom.rank`` through 14
degrees.  Every graded table reads its classes off ``rank``'s free
columns, so the check that each graded block holds as many classes as its
dimension runs on every block of every graded table, located or not.
Nonzero exit on the first step whose exit code differs from the one it
expects.  Then the closed rows, ``cochain.reduced_row``, are compared with
the bar-route rows, ``cochain.bar_row``, on the 12,287 chains with 1 to 7
letters and grade <= 12, beyond the suite's range; the first chain where
they differ is printed and the exit is 1.  Last,
``cohom.contraction_defects(7, 10)`` checks the coboundary witness identity
on the 2,510 chains ending in 0 with up to 7 letters and grade <= 10, also
beyond the suite's range; any chain it returns is printed and the exit is 1.
"""

import sys
import time

from virhoch import cochain, cohom
from virhoch.anick import Chain, chain_to_text, enumerate_chains
from virhoch.cli import main

STEPS = [
    (0, ["gsb", "--bound", "10"]),
    (64, ["gsb", "--bound", "2"]),
    (0, ["ddzero", "--letters", "5", "--smax", "8"]),
    (0, ["ddzero", "--symbolic", "--degrees", "4", "--smax", "8"]),
    (1, ["ddzero", "--letters", "5", "--smax", "8", "--inject-defect"]),
    (1, ["ddzero", "--symbolic", "--degrees", "4", "--smax", "8", "--inject-defect"]),
    (0, ["ddzero", "--letters", "5", "--smax", "8"]),
    (0, ["ddzero", "--letters", "6", "--smax", "8"]),
    (0, ["ddzero", "--letters", "7", "--smax", "8"]),
    (0, ["cohomology", "--delta", "1", "--expect", "paper", "--locate"]),
    (0, ["cohomology", "--delta", "0", "--expect", "paper", "--locate"]),
    (0, ["cohomology", "--delta", "2", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "-1", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "-2", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "5/2", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "1", "--alpha", "1", "--truncated", "8", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "0", "--alpha", "2", "--truncated", "8", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "3", "--alpha", "-1", "--truncated", "8", "--expect", "paper"]),
    (0, ["cohomology", "--delta", "1", "--nmax", "6", "--smax", "10", "--locate",
         "--expect", "paper"]),
    (0, ["cohomology", "--delta", "0", "--nmax", "6", "--smax", "10", "--locate",
         "--expect", "paper"]),
    # complete tables: no chain of degree > S + 3 = 13 has grade <= S = 10
    (0, ["cohomology", "--delta", "1", "--nmax", "13", "--smax", "10", "--locate",
         "--expect", "paper"]),
    (0, ["cohomology", "--delta", "0", "--nmax", "13", "--smax", "10", "--locate",
         "--expect", "paper"]),
]


def row_chains(n_max: int, s_max: int) -> list[Chain]:
    """The chains with 1..n_max letters and grade <= s_max, in enumeration order."""
    return [c for n in range(1, n_max + 1) for c in enumerate_chains(n, s_max)]


def first_row_mismatch(chains: list[Chain]) -> Chain | None:
    """The first chain whose closed row differs from its bar-route row, or None."""
    return next((c for c in chains if cochain.reduced_row(c) != cochain.bar_row(c)), None)


def run() -> int:
    for expected, argv in STEPS:
        start = time.perf_counter()
        code = main(argv)
        print(
            f"-> exit {code} (expected {expected}) in "
            f"{time.perf_counter() - start:.1f}s : virhoch {' '.join(argv)}"
        )
        print()
        if code != expected:
            return code or 1
    start = time.perf_counter()
    chains = row_chains(7, 12)
    mismatch = first_row_mismatch(chains)
    print(
        f"-> mismatch {mismatch and chain_to_text(mismatch)} (expected None) in "
        f"{time.perf_counter() - start:.1f}s : reduced_row == bar_row on "
        f"{len(chains)} chains, n <= 7, grade <= 12"
    )
    if mismatch:
        return 1
    start = time.perf_counter()
    defects = cohom.contraction_defects(7, 10)
    print(
        f"-> defects {defects} (expected []) in "
        f"{time.perf_counter() - start:.1f}s : cohom.contraction_defects(7, 10)"
    )
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(run())
