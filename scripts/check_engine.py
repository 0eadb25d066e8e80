#!/usr/bin/env python3
"""End-to-end consistency battery, printed with timings.

Runs the same checks the test suite automates: rewriting soundness,
both square-zero suites, and the dimension tables against the bundled
expectations.  Nonzero exit on the first failure.
"""

import sys
import time

from virhoch.cli import main

STEPS = [
    ["gsb", "--bound", "10"],
    ["ddzero", "--letters", "5", "--smax", "8"],
    ["ddzero", "--symbolic", "--degrees", "4", "--smax", "8"],
    ["cohomology", "--delta", "1", "--expect", "paper", "--locate"],
    ["cohomology", "--delta", "0", "--expect", "paper", "--locate"],
    ["cohomology", "--delta", "1", "--alpha", "1", "--truncated", "8", "--expect", "paper"],
]


def run() -> int:
    for argv in STEPS:
        start = time.perf_counter()
        code = main(argv)
        print(f"-> exit {code} in {time.perf_counter() - start:.1f}s : virhoch {' '.join(argv)}")
        print()
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
