#!/usr/bin/env python3
"""One SHA-256 line per layer of computed values, for "outputs unchanged".

Hashes, in insertion order, the items of

* ``delta_generic`` (as ``fractions()``) for every chain with n <= 6
  letters and grade <= 10;
* ``reduce_bracket`` of every bracket of up to five slots with letters
  0..4 and one normal two-letter word over 0..4;
* ``compose_delta`` under the planted rule defect, n <= 5 and grade <= 6
  (under the true rule every value is zero);
* ``reduced_row`` for n <= 5 and grade <= 8, and the ``specialize`` of
  each of its entries at the nine bundled parameter points;
* the symbolic d∘d rows as ``ddzero --symbolic`` builds them,
  ``cochain.square_row``, under the planted rule defect, cochain degrees
  <= 4 and grade <= 6;
* ``normal_form`` of both expansions of every overlap ambiguity with
  indices <= 10;
* the ``matrix_d`` windows that the nine bundled points build for
  n <= 4, graded over grades <= 7 and truncated over grades <= 8 (S = 7),
  each row written as its sorted (column, value) items;
* ``by_grade`` and ``classes`` of ``cohomology_dims(locate=True)`` at the
  six bundled weights, n <= 5 and grade <= 8;
* the verdicts of ``verify_defining_relations`` (``gsb``) at bound 10: the
  checked counts and ordered violations under the planted rule defect, and
  the same for the true rule.

A change that keeps every value, type and order prints identical lines;
``tests/test_digest.py`` compares them with ``tests/digest_expected.txt``.
Stdlib only:

    PYTHONPATH=src python3 scripts/digest.py
"""

import hashlib
from itertools import product

from virhoch import algebra, anick, cli, cochain, cohom
from virhoch.scalars import parse_rational


def chains(n_max: int, s_max: int, n_min: int = 1):
    for n in range(n_min, n_max + 1):
        yield from anick.enumerate_chains(n, s_max)


def one_pair_brackets(max_slots: int):
    pairs = [w for w in product(range(5), repeat=2) if algebra.is_normal_word(w)]
    for n in range(1, max_slots + 1):
        for pos in range(n):
            for pair in pairs:
                for rest in product(range(5), repeat=n - 1):
                    letters = [(m,) for m in rest]
                    yield tuple(letters[:pos]) + (pair,) + tuple(letters[pos:])


def reduced_brackets(max_slots: int):
    for slots in one_pair_brackets(max_slots):
        yield slots, dict(anick.reduce_bracket(slots))


def overlaps(bound: int):
    for n in range(2, bound + 1):
        for m in range(2, bound + 1):
            for p in range(bound + 1):
                yield (n, m, p)
        yield (n, 1, 0)


def bundled_points():
    expected = cli.load_expected()
    return [
        (parse_rational(e["delta"]), parse_rational(e["alpha"]))
        for e in expected["graded"] + expected["truncated"]
    ]


def specialized_rows(s_max: int, points):
    for c in chains(5, s_max):
        row = cochain.reduced_row(c)
        for point in points:
            yield (c, point), {cp: val.specialize(*point) for cp, val in row.items()}


def windows(points):
    for delta, alpha in points:
        top = 8 if alpha else 7  # the truncated route at S = 7 reads the S + 1 window
        bases = [cohom.window_basis(n, top) for n in range(6)]
        for n in range(5):
            m = cohom.matrix_d(n, bases[n], bases[n + 1], delta, alpha)
            yield (delta, alpha, n), {i: sorted(row.items()) for i, row in enumerate(m.entries)}


def located_tables(points):
    for delta, alpha in points:
        if not alpha:
            table = cohom.cohomology_dims(delta, 5, 8, locate=True)
            yield (delta, "by_grade"), table.by_grade
            yield (delta, "classes"), table.classes


def relation_verdicts(bound: int):
    for defect in (True, False):
        algebra.set_rule_defect(defect)
        try:
            report = algebra.verify_defining_relations(bound)
        finally:
            algebra.set_rule_defect(False)
        checked = (report.locality_checked, report.commutator_checked, report.overlaps_checked)
        yield defect, {"checked": checked, "violations": report.violations}


def line(name: str, values) -> str:
    h = hashlib.sha256()
    count = 0
    for key, value in values:
        h.update(repr((key, list(value.items()))).encode())
        count += 1
    return f"{name:<40} {count:>6} {h.hexdigest()}"


def main() -> None:
    print(line(
        "delta_generic n<=6 grade<=10",
        ((c, anick.delta_generic(c).fractions()) for c in chains(6, 10)),
    ))
    print(line("reduce_bracket one-pair slots<=5", reduced_brackets(5)))
    algebra.set_rule_defect(True)
    try:
        print(line(
            "compose_delta (defect) n<=5 grade<=6",
            ((c, anick.compose_delta(c)) for c in chains(5, 6, n_min=2)),
        ))
        print(line(
            "square_row (defect) degrees<=4 grade<=6",
            ((c, cochain.square_row(c)) for c in chains(6, 6, n_min=2)),
        ))
    finally:
        algebra.set_rule_defect(False)
    print(line(
        "reduced_row n<=5 grade<=8",
        ((c, cochain.reduced_row(c)) for c in chains(5, 8)),
    ))
    print(line(
        "specialize reduced_row n<=5 grade<=8 x9",
        specialized_rows(8, bundled_points()),
    ))
    print(line(
        "normal_form overlaps bound<=10",
        (
            ((w, k), algebra.normal_form(algebra._expand_at(w, k)))
            for w in overlaps(10)
            for k in (0, 1)
        ),
    ))
    print(line("matrix_d windows n<=4 x9", windows(bundled_points())))
    print(line("located tables n<=5 grade<=8 x6", located_tables(bundled_points())))
    print(line("gsb verdicts (defect, clean) bound 10", relation_verdicts(10)))


if __name__ == "__main__":
    main()
