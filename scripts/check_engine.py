#!/usr/bin/env python3
"""End-to-end consistency battery, printed with timings.

Runs the same checks the test suite automates: rewriting soundness,
both square-zero suites, and the dimension tables at all nine bundled
parameter points against the bundled expectations.  Two negative controls
plant a defect in the rule table; they must fail (exit 1), which shows
that the square-zero gates can fail at all.  A clean square-zero run after
them must pass again: memos survive between runs only while the rule table
stays the same, so the defect's values are gone once the true rule is back.
Square-zero runs on 6- and 7-letter chains, beyond the range of the test
suite, follow, and the located tables at D = 1 and 0 up to degree 6 and
grade 10 close the battery.
Nonzero exit on the first step whose exit code differs from the one it
expects.
"""

import sys
import time

from virhoch.cli import main

STEPS = [
    (0, ["gsb", "--bound", "10"]),
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
]


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
    return 0


if __name__ == "__main__":
    sys.exit(run())
