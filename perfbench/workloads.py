"""Workload definitions: seeded parameter points, CLI steps, and the claims
each step's output is checked against.

The expected values are the paper's claims, written out here rather than
read from the package, so a regression in the package's bundled
expectations cannot silently pass the benchmark:

* at shift a = 0 the dimensions H^1..H^4 are 2,1,0,0 at weight D = 1,
  1,2,1,0 at D = 0, and zero at every other weight;
* at a nonzero shift every dimension vanishes and is stable against
  raising the grade cutoff;
* the surviving classes sit on the chains listed in ``CLASSES``.
"""

from __future__ import annotations

import random
from fractions import Fraction

N_MAX = 4
# Sizes keep one cold repetition short enough that a 40 s run holds several
# (a shared host's speed can drift by tens of percent, so medians need samples):
# graded at grade 7 takes about 4 s; truncated at cutoff 7 about 16 s, the
# smallest cutoff at which dense rank outweighs building the rows; the
# square-zero suites at grade 6 about 7 s (27 s at grade 8).
GRADED_SMAX = 7
TRUNCATED_S = 7
SQ_LETTERS = 5
SQ_DEGREES = 4
SQ_SMAX = 6
GSB_BOUND = 10

# the nine bundled points, used verbatim by seed 0
BUNDLED_WEIGHTS = ["1", "0", "2", "-1", "-2", "5/2"]
BUNDLED_SHIFTED = [("1", "1"), ("0", "2"), ("3", "-1")]

SPECIAL_TOTALS = {"1": [2, 1, 0, 0], "0": [1, 2, 1, 0]}
CLASSES = {
    "1": {1: ["[0]", "[1]"], 2: ["[1|0]"]},
    "0": {1: ["[2]"], 2: ["[2|0]", "[2|1]"], 3: ["[2|1|0]"]},
}

WORKLOADS = ("graded", "truncated", "squarezero")


def small_rationals() -> list[Fraction]:
    """Every distinct p/q with |p| <= 5 and 1 <= q <= 5, in increasing order."""
    return sorted({Fraction(p, q) for p in range(-5, 6) for q in range(1, 6)})


def generic_weights() -> list[Fraction]:
    return [x for x in small_rationals() if x not in (0, 1)]


def points(seed: int) -> tuple[list[str], list[tuple[str, str]]]:
    """(graded weights, shifted (weight, shift) pairs) for one seed.

    Seed 0 gives the bundled points.  Other seeds keep the weights 1 and 0
    and draw the generic weights and the nonzero shifts.  Rank time grows
    with the shift's denominator, so the three shifts are drawn with
    denominator 1, 2 or 3, and 4 or 5, in that order: every seed then does
    comparable rank work, and the first point, whose time is
    ``first_result_s``, always has an integer shift like seed 0's.
    """
    if seed == 0:
        return list(BUNDLED_WEIGHTS), list(BUNDLED_SHIFTED)
    rng = random.Random(seed)
    weights = ["1", "0"] + [str(w) for w in rng.sample(generic_weights(), 4)]
    bands = ({1}, {2, 3}, {4, 5})
    shifts = [
        rng.choice([x for x in small_rationals() if x and x.denominator in band])
        for band in bands
    ]
    shifted_weights = ["1", "0", str(rng.choice(generic_weights()))]
    return weights, [(d, str(a)) for d, a in zip(shifted_weights, shifts)]


def expected_totals(delta: str) -> list[int]:
    return SPECIAL_TOTALS.get(delta, [0] * N_MAX)


def steps(workload: str, seed: int) -> list[dict]:
    """The CLI steps of one repetition; each dict names what to check."""
    weights, shifted = points(seed)
    if workload == "graded":
        out = [
            {"argv": ["cohomology", f"--delta={d}", "--smax", str(GRADED_SMAX),
                      "--format", "json"],
             "kind": "graded", "delta": d}
            for d in weights
        ]
        out += [
            {"argv": ["cohomology", f"--delta={d}", "--smax", str(GRADED_SMAX),
                      "--locate", "--expect", "paper"],
             "kind": "locate", "delta": d}
            for d in ("1", "0")
        ]
        return out
    if workload == "truncated":
        out = []
        for d, a in shifted:
            argv = ["cohomology", f"--delta={d}", f"--alpha={a}",
                    "--truncated", str(TRUNCATED_S), "--format", "json"]
            if (d, a) in BUNDLED_SHIFTED:
                argv += ["--expect", "paper"]
            out.append({"argv": argv, "kind": "truncated", "delta": d, "alpha": a})
        return out
    if workload == "squarezero":
        # the symbolic suite goes first: it is the heavier cold call, so
        # first_result_s times seconds of work rather than one second
        return [
            {"argv": ["ddzero", "--symbolic", "--degrees", str(SQ_DEGREES),
                      "--smax", str(SQ_SMAX)],
             "kind": "ddzero_symbolic"},
            {"argv": ["ddzero", "--letters", str(SQ_LETTERS), "--smax", str(SQ_SMAX)],
             "kind": "ddzero"},
            {"argv": ["gsb", "--bound", str(GSB_BOUND)], "kind": "gsb"},
        ]
    raise ValueError(f"unknown workload {workload!r}")
