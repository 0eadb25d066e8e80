"""Rewriting system: normal forms, confluence, defining relations.

The frozen normal-form values below were re-derived with the independent
single-step rewriter at the bottom of this file before being pinned.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from virhoch import algebra
from virhoch.algebra import (
    check_overlap,
    is_normal_word,
    is_obstruction,
    nf_word,
    normal_form,
    rule_rhs,
    verify_defining_relations,
    word_to_text,
)
from virhoch.scalars import add_term

words = st.lists(st.integers(0, 6), max_size=4).map(tuple)
# a linear combination of words, as (word, coeff) pairs; words may repeat
elems = st.lists(
    st.tuples(words, st.fractions(min_value=-5, max_value=5, max_denominator=4)),
    max_size=3,
)


def _product(x, y):
    """The product in the free algebra: pairs multiplied by concatenation."""
    return [(w1 + w2, c1 * c2) for w1, c1 in x for w2, c2 in y]


# --- an independent oracle: one leftmost rewrite step at a time -------------


def _oracle_step(w):
    """First obstruction from the left, expanded by the rule table."""
    for i in range(len(w) - 1):
        if is_obstruction(w[i], w[i + 1]):
            out = []
            for rhs, coeff in rule_rhs(w[i], w[i + 1]):
                if coeff:
                    out.append((w[:i] + rhs + w[i + 2 :], coeff))
            return out
    return None


def _oracle_nf(w):
    acc = {w: Fraction(1)}
    while True:
        target = next((v for v in acc if _oracle_step(v) is not None), None)
        if target is None:
            return {v: c for v, c in acc.items() if c}
        coeff = acc.pop(target)
        for child, c in _oracle_step(target):
            acc[child] = acc.get(child, Fraction(0)) + coeff * c
    # unreachable


# --- obstruction / normal-word structure ------------------------------------


def test_obstruction_table():
    assert is_obstruction(3, 0)
    assert is_obstruction(1, 0)
    assert not is_obstruction(1, 1)
    assert not is_obstruction(0, 5)


def test_normal_word_examples():
    assert is_normal_word((0, 1, 5))
    assert not is_normal_word((2, 0))
    assert not is_normal_word((0, 1, 0))
    assert is_normal_word(())


def test_normal_word_characterization():
    # no adjacent obstruction <=> v(0)^p v(1)^q v(k) with q >= 1 -> k >= 1
    for w in _all_words(4, 6):
        expected = all(
            w[i] <= 1 and (w[i], w[i + 1]) != (1, 0) for i in range(len(w) - 1)
        )
        assert is_normal_word(w) == expected


def _all_words(max_len, max_idx):
    from itertools import product

    for n in range(max_len + 1):
        yield from product(range(max_idx + 1), repeat=n)


def test_rule_rhs_matches_three_products():
    # each coefficient is one Fraction(p, i + j - 1); the same pairs, in the
    # same order and with the same zeros left out, as d * i * j and so on
    # with d = 1 / (i + j - 1)
    for i in range(13):
        for j in range(13):
            if not is_obstruction(i, j) or (i, j) == (1, 0):
                continue
            d = Fraction(1, i + j - 1)
            want = [
                ((1, i + j - 1), d * i * j),
                ((0, i + j), -d * (i - 1) * (j - 1)),
                ((i + j - 1,), d * i * (i - 1)),
            ]
            got = rule_rhs(i, j)
            assert got == [(w, c) for w, c in want if c], (i, j)
            assert all(type(c) is Fraction for _, c in got)


# --- normal forms ------------------------------------------------------------


def test_nf_rule_one():
    assert normal_form([((1, 0), Fraction(1))]) == {(0, 1): Fraction(1), (0,): Fraction(1)}


def test_nf_rule_two_instance():
    got = normal_form([((3, 0), Fraction(1))])
    assert got == {(0, 3): Fraction(1), (2,): Fraction(3)}


def test_nf_long_word():
    got = normal_form([((2, 2, 0), Fraction(1))])
    want = {
        (0, 1, 3): Fraction(4, 3),
        (0, 0, 4): Fraction(-1, 3),
        (0, 3): Fraction(2, 3),
        (1, 2): Fraction(4),
        (2,): Fraction(2),
    }
    assert got == want
    assert got == _oracle_nf((2, 2, 0))


@given(words)
@settings(max_examples=60)
def test_nf_matches_oracle(w):
    assert nf_word(w).fractions() == _oracle_nf(w)


@given(elems)
@settings(max_examples=40)
def test_nf_idempotent_linear(x):
    nx = normal_form(x)
    assert normal_form(nx.items()) == nx
    assert all(is_normal_word(w) for w in nx)
    assert normal_form(x + x) == {w: 2 * c for w, c in nx.items()}


@given(elems, elems)
@settings(max_examples=25, deadline=None)
def test_nf_multiplicative(x, y):
    nx, ny = normal_form(x).items(), normal_form(y).items()
    assert normal_form(_product(x, y)) == normal_form(_product(nx, ny))


def _reference_normal_form(terms):
    """normal_form as add_term over Fractions."""
    out = {}
    for word, coeff in terms:
        for nw, q in nf_word(word).fractions().items():
            add_term(out, nw, Fraction(coeff) * q)
    return out


mixed_elems = st.lists(
    st.tuples(
        words,
        st.one_of(
            st.integers(-6, 6),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
        ),
    ),
    max_size=5,
)


@given(mixed_elems, st.booleans())
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_fraction_sum(x, defect):
    # the same values, types and order as a sum of Fractions, for int and
    # Fraction coefficients, under the true rule and the planted defect
    with algebra.rule_defect(defect):
        got = normal_form(x)
        want = _reference_normal_form(x)
        vanishes = algebra._vanishes(x)
    assert list(got.items()) == list(want.items())
    assert all(type(q) is Fraction for q in got.values())
    # the vanishing checks of ``gsb`` read the same sum without its Fractions
    assert vanishes == (not got)


# --- confluence and defining relations ---------------------------------------


def test_overlap_examples():
    assert check_overlap(2, 2, 0)
    assert check_overlap(5, 1, 0)
    with pytest.raises(ValueError):
        check_overlap(1, 1, 0)


def test_commutator_instance():
    # v(3)v(2) - v(2)v(3) reduces to (3-2) v(4)
    diff = normal_form([((3, 2), Fraction(1)), ((2, 3), Fraction(-1))])
    assert diff == {(4,): Fraction(1)}


def test_locality_instance():
    elem = [
        ((3, 0), Fraction(1)),
        ((2, 1), Fraction(-3)),
        ((1, 2), Fraction(3)),
        ((0, 3), Fraction(-1)),
    ]
    assert not normal_form(elem)


def test_relations_bound_8():
    report = verify_defining_relations(8)
    assert report.ok
    assert report.overlaps_checked >= 100


def _family_counts(violations):
    families = ("locality", "commutator", "overlap")
    return [sum(v.startswith(f + "(") for v in violations) for f in families]


def test_relations_fail_under_the_planted_defect():
    # the negative control for ``gsb``: the perturbed second rule family
    # breaks every family of checks, and the verdicts are pinned
    with algebra.rule_defect():
        report = verify_defining_relations(10)
    checked = (report.locality_checked, report.commutator_checked, report.overlaps_checked)
    assert checked == (88, 55, 900)
    assert _family_counts(report.violations) == [22, 18, 892]
    assert len(report.violations) == 932
    assert report.violations[:2] == ["locality(3,0)", "locality(3,1)"]
    # the rule table is dropped with the defect: a clean run passes again
    assert verify_defining_relations(10).ok


def test_word_text_forms():
    assert word_to_text((2, 0)) == "v2.v0"
