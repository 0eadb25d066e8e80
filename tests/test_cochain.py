"""Rows of the reduced differential: the production row and its two oracles.

Spot values below were cross-checked against hand reductions of the small
resolution differentials.  ``reduced_row`` (the closed formula) is
confronted with ``bar_row`` (the bar reduction) and ``action_row`` (the
module action) over a window; the acceptance suite widens it.
"""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virhoch import algebra, cochain, confmod
from virhoch.anick import InvariantError, enumerate_chains, grade, is_chain
from virhoch.cochain import reduced_row, square_row, square_rows
from virhoch.confmod import ModElem
from virhoch.oracles import action_row, bar_row
from virhoch.scalars import A, D, ParamPoly, add_term

ZERO = ParamPoly.const(0)
ONE = ParamPoly.const(1)


def poly(x) -> ParamPoly:
    return ParamPoly.coerce(x)


def evaluate(row: dict, phi) -> ParamPoly:
    """Value of the cochain with this row at a cochain phi (a callable)."""
    out = ZERO
    for cp, val in row.items():
        out = out + val * phi(cp)
    return out


def lookup(table: dict):
    return lambda c: table.get(c, Fraction(0))


# ---------------------------------------------------------------------------
# module-action spot values: the raw value is c0 u + c1 ∂u, reduced by
# subtracting letter times c1 at every decremented chain


def test_raw_degree_zero():
    # raw values of the constant 5: 5D u at (1,), (5a + 5∂) u at (0,), 0 at
    # (3,); the decrement (0,) of (1,) takes 5 off
    beta = lookup({(): Fraction(5)})
    assert evaluate(action_row((1,)), beta) == 5 * D - poly(5)
    assert evaluate(action_row((0,)), beta) == 5 * A
    assert action_row((3,)) == {}


def test_raw_on_10():
    # raw (d phi)(1,0) = (D - 1) a0 u - a1 (a + ∂) u; no decrement is a chain
    phi = lookup({(0,): Fraction(2), (1,): Fraction(1, 3)})
    assert evaluate(action_row((1, 0)), phi) == 2 * D - poly(2) - A * Fraction(1, 3)


def test_raw_on_410():
    # raw (d phi)(4,1,0) = (-D + 10 + 2a) u + 2 ∂u; the decrement (3,1,0)
    # has ∂u-coefficient phi(3,1) = 3, weighted by the letter 4, and (4,0,0)
    # is no chain
    phi = lookup({(4, 0): Fraction(1), (4, 1): Fraction(2), (3, 1): Fraction(3)})
    assert evaluate(action_row((4, 1, 0)), phi) == -D + poly(10) + 2 * A - poly(12)


def test_sigma_psi_on_10():
    # sigma[1|0] = (D - 1) a0 - a * a1
    assert action_row((1, 0)) == {(0,): D - ONE, (1,): -A}


def test_sigma_correction_cancels_on_20():
    # raw c0 at (2,0) is -2*a1 - a*a2, and the decrement term -2*psi(1,0)
    # cancels -2*a1 exactly; only the a-part of a2 survives
    assert action_row((2, 0)) == {(2,): -A}


def test_action_row_rejects_high_d_degree(monkeypatch):
    d2u = ModElem((ZERO, ZERO, ONE))
    monkeypatch.setattr(confmod, "act_word", lambda w, m: d2u)
    with pytest.raises(InvariantError, match=r"action row of \[1\|0\].*∂-degree 2: \(1\)·∂\^2 \| u"):
        action_row((1, 0))


# ---------------------------------------------------------------------------
# rows of the reduced differential


FROZEN_ROWS = {
    (0,): {(): A},
    (1,): {(): D - ONE},
    (2,): {},
    (5,): {},
    (1, 0): {(0,): D - ONE, (1,): -A},
    (2, 0): {(2,): -A},
    (3, 0): {(3,): -A},
    (2, 1): {(2,): -D},
    (5, 1): {(5,): -D - poly(3)},
    (3, 2): {(4,): Fraction(-3, 2) * D - poly(Fraction(5, 2)), (5,): A * Fraction(1, 2)},
    (2, 1, 0): {(2, 0): -D, (2, 1): A},
    (4, 1, 0): {(4, 0): -D - poly(2), (4, 1): A},
    (2, 2, 0): {
        (2, 2): A, (3, 0): Fraction(-4, 3) * D - poly(Fraction(2, 3)), (4, 0): A * Fraction(1, 3)
    },
    (3, 2, 0): {
        (3, 2): A, (4, 0): Fraction(-3, 2) * D - poly(Fraction(5, 2)), (5, 0): A * Fraction(1, 2)
    },
}


@pytest.mark.parametrize("c", sorted(FROZEN_ROWS))
def test_frozen_rows(c):
    for form in (reduced_row, bar_row, action_row):
        assert form(c) == FROZEN_ROWS[c], form.__name__


def test_n10_row_family():
    # reduced value at (n,1,0): -(D + n - 2) on (n,0) plus a on (n,1)
    for n in (2, 3, 5, 8):
        assert reduced_row((n, 1, 0)) == {
            (n, 0): -D - poly(n - 2),
            (n, 1): A,
        }


def test_n20_row_family():
    # three-letter display for trailing pair (2,0)
    for n in (2, 3, 4, 6):
        q = Fraction(2 * n, n + 1)
        r = Fraction(n * (n - 1), n + 1) + (n - 2)
        assert reduced_row((n, 2, 0)) == {
            (n, 2): A,
            (n + 1, 0): -q * D - poly(r),
            (n + 2, 0): A * Fraction(n - 1, n + 1),
        }


def test_row_grade_split():
    # a-free entries couple equal grades; the a-part couples grade s+1 to s
    for n in (1, 2, 3):
        for c in enumerate_chains(n + 1, 7):
            s = grade(c)
            for cp, val in reduced_row(c).items():
                assert is_chain(cp) and len(cp) == n
                a_degrees = {da for (_, da), _ in val.terms()}
                assert a_degrees in ({0}, {1})
                assert grade(cp) == s + a_degrees.pop()


# ---------------------------------------------------------------------------
# closed rows against the bar reduction


def test_trailing_20_rows_match():
    # the closed formula has no pole at a trailing (2,0)
    for c in ((2, 0), (4, 2, 0), (4, 3, 2, 0), (5, 2, 2, 2, 0)):
        assert reduced_row(c) == bar_row(c) == action_row(c), c


def test_closed_row_rejects_a_non_chain_as_its_oracle_does():
    # the production row fails as the bar route does, naming the tuple
    for c in ((), (0, 0), (3, 1, 0, 0)):
        message = f"{c} is not a nonempty chain"
        for row in (reduced_row, bar_row):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                row(c)
        assert c not in cochain._RED_ROWS


@pytest.mark.parametrize(
    "pair, rhs, message",
    [
        ((2, 0), [((0, 1), Fraction(1))],
         "rule v2.v0 has the word v0.v1, outside the closed row's three shapes"),
        ((2, 1), [((2,), Fraction(1, 3))], "rule v2.v1 has a coefficient that is no integer over 2"),
    ],
)
def test_closed_row_rejects_a_rule_outside_its_shape(monkeypatch, pair, rhs, message):
    # the closed row reads each pair's rule from the active table; a rule it
    # cannot represent raises, naming the rule
    real = algebra.rule_rhs
    monkeypatch.setattr(algebra, "rule_rhs", lambda i, j: rhs if (i, j) == pair else real(i, j))
    algebra.clear_caches()
    try:
        with pytest.raises(InvariantError, match=re.escape(message)):
            reduced_row(pair)
    finally:
        monkeypatch.undo()
        algebra.clear_caches()
    assert reduced_row(pair) == bar_row(pair)


# ---------------------------------------------------------------------------
# interned entries of the closed rows


INTERN_CHAINS = [c for n in range(1, 5) for c in enumerate_chains(n, 6)]


def test_equal_entries_of_different_rows_are_one_object():
    by_value: dict = {}
    entries = 0
    for c in INTERN_CHAINS:
        for val in reduced_row(c).values():
            first = by_value.setdefault(tuple(val.terms()), val)
            assert first is val, (c, val)
            entries += 1
    assert len(by_value) < entries / 3
    assert reduced_row((2, 1, 0))[(2, 1)] is reduced_row((0,))[()] is reduced_row((5, 1, 0))[(5, 1)]


def test_interned_rows_equal_both_oracles_with_their_own_entries():
    # the oracles build their own values, so a wrong intern key cannot make
    # both sides of a comparison wrong alike
    for c in INTERN_CHAINS:
        row, bar, action = reduced_row(c), bar_row(c), action_row(c)
        assert row == bar == action, c
        assert all(bar[cp] is not v and action[cp] is not v for cp, v in row.items()), c


def test_defect_round_trip_leaves_only_true_rule_entries():
    with algebra.rule_defect():
        defective = [reduced_row(c) for c in INTERN_CHAINS]
    rows = [reduced_row(c) for c in INTERN_CHAINS]
    assert rows != defective
    # the defective rows are alive, so none of their ids can be reused
    assert {id(v) for v in cochain._ENTRIES.values()} == {
        id(v) for row in rows for v in row.values()
    }
    assert all(row == bar_row(c) for c, row in zip(INTERN_CHAINS, rows))


# ---------------------------------------------------------------------------
# square-zero at the scalar level (wider sweep in the acceptance suite)


# the chains of cochain degree <= 4 and grade <= 6, the range of ``ddzero
# --symbolic`` in the square-zero benchmark and of its digest lines
SQUARE_CHAINS = [c for n in range(2, 7) for c in enumerate_chains(n, 6)]


def test_square_row_matches_one_product_at_a_time():
    # under the planted defect d.d is nonzero; square_row sums each source
    # chain once, the accumulator adds one product at a time: equal values,
    # in whatever key order
    with algebra.rule_defect():
        nonzero = 0
        for c in SQUARE_CHAINS:
            acc: dict = {}
            for mid, outer in reduced_row(c).items():
                for src, inner in reduced_row(mid).items():
                    add_term(acc, src, outer * inner)
            assert square_row(c) == acc, c
            nonzero += bool(acc)
    assert len(SQUARE_CHAINS) == 337
    assert nonzero > 0


def test_square_rows_multiply_each_distinct_pair_of_entries_once(monkeypatch):
    calls = []  # the (left, right) factors of every product
    real_mul = ParamPoly.__mul__

    def mul(left, right):
        calls.append((left, right))
        return real_mul(left, right)

    pairs = {
        (id(outer), id(inner))
        for c in SQUARE_CHAINS
        for mid, outer in reduced_row(c).items()
        for inner in reduced_row(mid).values()
    }
    terms = sum(len(reduced_row(mid)) for c in SQUARE_CHAINS for mid in reduced_row(c))
    assert len(pairs) < terms / 3
    monkeypatch.setattr(ParamPoly, "__mul__", mul)
    for _ in range(2):  # once per run, not once per process
        calls.clear()
        assert all(square == {} for _, square in square_rows(SQUARE_CHAINS))
        assert len(calls) == len(pairs)
        assert {(id(left), id(right)) for left, right in calls} == pairs


def test_square_rows_equal_square_row_chain_by_chain():
    # under the planted defect the squares are nonzero: the shared table
    # gives the values and the key order of one chain at a time
    with algebra.rule_defect():
        shared = list(square_rows(SQUARE_CHAINS))
        assert [c for c, _ in shared] == SQUARE_CHAINS
        for c, square in shared:
            assert list(square.items()) == list(square_row(c).items()), c
        assert any(square for _, square in shared)


def test_square_rows_equal_a_plain_sum_per_source():
    # the reference adds ParamPoly products with + one term at a time, with
    # no product table and no int sums; under the planted defect the squares
    # are nonzero, and on the chains counted in ``mixed`` the middle rows
    # have different denominators, so each product is scaled to the chain's
    # one denominator by another factor
    mixed = 0
    with algebra.rule_defect():
        for c, square in square_rows(SQUARE_CHAINS):
            sums: dict = {}
            for mid, outer in reduced_row(c).items():
                for src, inner in reduced_row(mid).items():
                    sums[src] = sums.get(src, ZERO) + outer * inner
            assert list(square.items()) == [(src, v) for src, v in sums.items() if v], c
            mid_dens = {
                lcm(*[q.denominator for v in reduced_row(mid).values() for _, q in v.terms()])
                for mid in reduced_row(c)
            }
            mixed += len(mid_dens) > 1 and bool(square)
    assert mixed > 10


def test_square_rows_stay_correct_on_rows_that_are_not_interned(monkeypatch):
    # bar_row builds fresh entries on every call, and a row nobody holds is
    # freed at once: the ids the table keys on stay taken only while it
    # holds the rows they came from
    with algebra.rule_defect():
        expected = {}
        for c in SQUARE_CHAINS:
            acc: dict = {}
            for mid, outer in bar_row(c).items():
                for src, inner in bar_row(mid).items():
                    add_term(acc, src, outer * inner)
            expected[c] = acc
        monkeypatch.setattr(cochain, "reduced_row", bar_row)
        assert dict(square_rows(SQUARE_CHAINS)) == expected
        assert any(expected.values())


def test_square_row_is_empty_under_the_true_rule():
    for c in SQUARE_CHAINS:
        assert square_row(c) == {}, c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_cochain_square_zero(data):
    targets = enumerate_chains(3, 6)
    c = data.draw(st.sampled_from(targets))
    vals = {
        cp: data.draw(
            st.fractions(min_value=-6, max_value=6, max_denominator=8),
            label=f"phi{cp}",
        )
        for cp in enumerate_chains(1, 8)
    }
    phi = lookup(vals)
    row = action_row(c)
    assert evaluate(row, lambda x: evaluate(action_row(x), phi)) == ZERO
