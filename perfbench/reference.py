"""A fixed slice of interpreter work that every reported time is scaled by.

A shared host's speed can drift by tens of percent from one minute to the next,
and every run of the package slows with it.  ``reference_seconds`` times
work of the same kind the package does -- rational sums into a dict keyed
by tuples, fraction-free elimination on an integer matrix -- without using
the package, in the same interpreter as the workload.  ``run.py`` reports
each time as ``measured * REFERENCE_S / reference_seconds()``: the seconds
the run would have taken on a host where this slice takes ``REFERENCE_S``.

Changing this file or ``REFERENCE_S`` rescales every recorded time, so
both stay fixed once a baseline is recorded.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.2


def _slice() -> None:
    acc: dict = {}
    for i in range(50000):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 - 2, i % 3 + 1)
    n = 48
    m = [[(i * 7 + j * 13) % 17 - 8 + 5 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        for i in range(col + 1, n):
            head, lead = m[i][col], m[col][col]
            for j in range(col, n):
                m[i][j] = (lead * m[i][j] - head * m[col][j]) // prev
        prev = m[col][col]


def reference_seconds() -> float:
    start = time.perf_counter()
    _slice()
    return time.perf_counter() - start
