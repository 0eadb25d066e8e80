"""Output checks: every step of a repetition yields exactly two checks.

* ``exit``: the step exited 0, and a step run with ``--expect paper`` ends
  with the line ``expectation (paper): match``;
* ``content``: the printed table, class locations or counts equal the
  claims in ``workloads``.

Counts for the square-zero suites come from ``chain_count``, which counts
chains straight from their definition, independently of the package.
"""

from __future__ import annotations

import json
import re

from workloads import CLASSES, GRADED_SMAX, N_MAX, TRUNCATED_S, expected_totals

EXPECT_LINE = "expectation (paper): match"


def chain_count(n: int, s_max: int) -> int:
    """Number of n-letter chains of grade (weight - n) at most s_max.

    A tuple (m_1, ..., m_n) is a chain when m_1, ..., m_{n-2} >= 2 and
    (m_{n-1} >= 2 or (m_{n-1}, m_n) == (1, 0)); every 1-letter tuple and
    the empty tuple are chains.
    """
    if n == 0:
        return 1
    budget = n + s_max
    if n == 1:
        return max(0, budget + 1)

    def tails(w: int) -> int:
        # (x >= 2, y >= 0) with x + y <= w, plus (1, 0)
        return sum(w - x + 1 for x in range(2, w + 1)) + (w >= 1)

    def count(interior: int, w: int) -> int:
        if interior == 0:
            return tails(w)
        return sum(count(interior - 1, w - m) for m in range(2, w + 1))

    return count(n - 2, budget)


def gsb_counts(bound: int) -> tuple[int, int]:
    """(overlaps, relations) that ``gsb --bound`` checks."""
    overlaps = (bound - 1) * ((bound - 1) * (bound + 1) + 1)
    relations = (bound - 2) * (bound + 1) + bound * (bound + 1) // 2
    return overlaps, relations


def _arg(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _content_ok(step: dict, stdout: str) -> bool:
    kind, argv = step["kind"], step["argv"]
    if kind in ("graded", "truncated"):
        doc, _ = json.JSONDecoder().raw_decode(stdout)
        want = {str(n): v for n, v in enumerate(expected_totals(step["delta"]), 1)}
        if kind == "truncated":
            want = {str(n): 0 for n in range(1, N_MAX + 1)}
            return (
                doc["totals"] == want
                and doc["stable"] == {n: True for n in want}
                and (doc["delta"], doc["alpha"], doc["s_max"])
                == (step["delta"], step["alpha"], TRUNCATED_S)
            )
        return doc["totals"] == want and (doc["delta"], doc["s_max"]) == (
            step["delta"], GRADED_SMAX
        )
    if kind == "locate":
        lines = stdout.splitlines()
        totals = ",".join(str(v) for v in expected_totals(step["delta"]))
        classes = [
            f"classes at n={n}: " + ", ".join(chains)
            for n, chains in sorted(CLASSES[step["delta"]].items())
        ]
        return f"totals: {totals}" in lines and [
            ln for ln in lines if ln.startswith("classes at ")
        ] == classes
    if kind == "ddzero":
        letters, s_max = _arg(argv, "--letters"), _arg(argv, "--smax")
        want = sum(chain_count(n, s_max) for n in range(2, letters + 1))
        found = re.search(r"^delta\.delta = 0 on (\d+) chains", stdout, re.M)
        return found is not None and int(found.group(1)) == want
    if kind == "ddzero_symbolic":
        degrees, s_max = _arg(argv, "--degrees"), _arg(argv, "--smax")
        want = sum(chain_count(n + 2, s_max) for n in range(degrees + 1))
        found = re.search(r"^d\.d = 0 symbolically on (\d+) chains", stdout, re.M)
        return found is not None and int(found.group(1)) == want
    if kind == "gsb":
        found = re.search(r"^overlaps: (\d+) ok; relations: (\d+) ok", stdout, re.M)
        return found is not None and tuple(map(int, found.groups())) == gsb_counts(
            _arg(argv, "--bound")
        )
    raise ValueError(f"unknown step kind {kind!r}")


def check_step(step: dict, code: int | None, stdout: str) -> list[tuple[str, bool]]:
    """The two (label, passed) checks for one step's exit code and output."""
    name = " ".join(step["argv"])
    exit_ok = code == 0
    if "--expect" in step["argv"]:
        exit_ok = exit_ok and stdout.rstrip("\n").endswith("\n" + EXPECT_LINE)
    try:
        content_ok = _content_ok(step, stdout)
    except (ValueError, KeyError, TypeError):
        # unparsable or incomplete output is a failed check, not a crash
        content_ok = False
    return [(f"exit: {name}", exit_ok), (f"content: {name}", content_ok)]
