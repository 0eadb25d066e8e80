"""Chain combinatorics and the two differential constructions.

delta_generic is the authority (iterated splitting against the rewriting
system); delta_closed evaluates the explicit two-case formula.  They must
agree exactly, and the composite must vanish with coefficient products
pushed through the rewriting engine.  A plain recursion over the bar
operators, with no merge skipped, checks the rewrite and the dead-bracket
test in delta_dprime.
"""

import re
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from virhoch import algebra, anick, cochain
from virhoch.algebra import nf_word
from virhoch.cli import main
from virhoch.anick import (
    InvariantError,
    IterationOverflow,
    chain_to_text,
    compose_delta,
    delta_closed,
    delta_generic,
    delta_prime,
    delta_dprime,
    enumerate_chains,
    grade,
    is_chain,
    lowest_grade,
)
from virhoch.scalars import add_term

CHECK_SMAX = 6  # unit-test range; the acceptance module runs the full window


def brute_force_chains(n, s_max):
    out = []
    for w in product(range(s_max + n + 1), repeat=n):
        if sum(w) - n <= s_max and is_chain(w):
            out.append(w)
    return sorted(out)


# --- chain predicate and enumeration ----------------------------------------


def test_chain_examples():
    assert is_chain((2, 2, 0))
    assert is_chain((2, 1, 0))
    assert not is_chain((2, 1, 1))
    assert is_chain((7,))
    assert is_chain(())


def test_enumerate_examples():
    assert enumerate_chains(2, -1) == [(1, 0)]
    assert enumerate_chains(1, 0) == [(0,), (1,)]
    assert enumerate_chains(3, 0) == [(2, 1, 0)]


@pytest.mark.parametrize("n", range(0, 6))
def test_enumerate_matches_brute_force(n):
    for s_max in (-2, -1, CHECK_SMAX):
        chains = brute_force_chains(n, s_max)
        assert enumerate_chains(n, s_max) == chains, s_max
    # lowest_grade(n) is the lowest grade of an n-letter chain: none lies below it
    lowest = lowest_grade(n)
    assert min(grade(c) for c in chains) == lowest
    assert brute_force_chains(n, lowest - 1) == enumerate_chains(n, lowest - 1) == []


def docstring_chain(c):
    """The module docstring's definition of a chain, written out literally."""
    n = len(c)
    if not all(m >= 0 for m in c):
        return False
    if n <= 1:
        return True
    return all(m >= 2 for m in c[: n - 2]) and (
        c[n - 2] >= 2 or (c[n - 2], c[n - 1]) == (1, 0)
    )


def test_is_chain_matches_docstring_definition():
    # brute_force_chains, the enumeration oracle, calls is_chain itself
    count = 0
    for n in range(6):
        for c in product(range(-1, 5), repeat=n):
            assert is_chain(c) == docstring_chain(c), c
            count += 1
    assert count == sum(6**n for n in range(6))


def test_chain_counts_in_window():
    # cardinalities of the degree-n bases with grade <= 8
    counts = [len(enumerate_chains(n, 8)) for n in range(6)]
    assert counts == [1, 10, 46, 129, 246, 336]


def test_every_prefix_of_a_chain_is_a_chain():
    # delta_dprime tests only the p letters plus the composite slot's head
    for n in range(1, 7):
        for c in enumerate_chains(n, 9):
            assert all(is_chain(c[:k]) for k in range(n)), c


def test_chain_text_round_trip():
    assert chain_to_text((2, 1, 0)) == "[2|1|0]"


@given(st.integers(1, 5), st.integers(-1, 8))
@settings(max_examples=30, deadline=None)
def test_grade_bound(n, s_max):
    for c in enumerate_chains(n, s_max):
        assert grade(c) <= s_max
        assert len(c) < 2 or grade(c) >= len(c) - 3


# --- bar-level steps ----------------------------------------------------------


def _bar(*slot_words):
    return {((), tuple(tuple(w) for w in slot_words)): Fraction(1)}


def test_delta_prime_two_slots():
    got = delta_prime(((1,), (0,))).fractions()
    want = {
        ((1,), ((0,),)): Fraction(1),
        ((), ((0, 1),)): Fraction(-1),
        ((), ((0,),)): Fraction(-1),
    }
    assert got == want


def test_delta_prime_rule_family():
    got = delta_prime(((2,), (0,))).fractions()
    want = {
        ((2,), ((0,),)): Fraction(1),
        ((), ((0, 2),)): Fraction(-1),
        ((), ((1,),)): Fraction(-2),
    }
    assert got == want


def test_delta_dprime_splits():
    # composite first slot: peel the leading letter back into the coefficient;
    # the split also emits transient merge terms that die on the next pass
    out = delta_dprime(((0, 2), (1,)))
    assert out[((0,), ((2,), (1,)))] == Fraction(1)
    assert delta_dprime(((0,), (1, 2))) == {}
    assert delta_dprime(((0,), (2,))) == {}
    out = delta_dprime(((1, 1),))
    assert out == {((1,), ((1,),)): Fraction(1)}
    # already a chain: fixed point, signalled as None
    assert delta_dprime(((2,), (3,))) is None


# the bar operators as written, with no merge skipped: the reference for the
# rewrite in delta_dprime


def unpruned_delta_prime(slots):
    out = {}
    add_term(out, (slots[0], slots[1:]), Fraction(1))
    for j in range(1, len(slots)):
        for word, q in nf_word(slots[j - 1] + slots[j]).fractions().items():
            merged = slots[: j - 1] + (word,) + slots[j + 1 :]
            add_term(out, ((), merged), -q if j % 2 else q)
    return out


def times(acc, lam, q, value):
    """acc += q * lam * value, leading words multiplied through nf_word."""
    for (cp, mu), r in value.items():
        for word, t in nf_word(lam + mu).fractions().items():
            add_term(acc, (cp, word), q * r * t)


def unpruned_reduce(slots, memo):
    """Fully reduced value of a bracket, by plain recursion without pruning."""
    if slots in memo:
        return memo[slots]
    heads = tuple(w[0] for w in slots)
    p = next((i for i, w in enumerate(slots) if len(w) >= 2), None)
    out = {}
    if p is None:
        if is_chain(heads):
            out[(heads, ())] = Fraction(1)
    elif is_chain(heads[: p + 1]):
        split = slots[:p] + ((slots[p][0],), slots[p][1:]) + slots[p + 1 :]
        sign = -1 if p % 2 else 1
        rewrite = {k: sign * q for k, q in unpruned_delta_prime(split).items()}
        add_term(rewrite, ((), slots), Fraction(1))
        for (lam, child), q in rewrite.items():
            times(out, lam, q, unpruned_reduce(child, memo))
    memo[slots] = out
    return out


NORMAL_PAIRS = [w for w in product(range(5), repeat=2) if algebra.is_normal_word(w)]


def one_pair_brackets(max_slots):
    """Letters 0..4 with one normal two-letter word over 0..4 in any slot."""
    for n in range(1, max_slots + 1):
        for pos in range(n):
            for pair in NORMAL_PAIRS:
                for rest in product(range(5), repeat=n - 1):
                    head = tuple((m,) for m in rest[:pos])
                    yield head + (pair,) + tuple((m,) for m in rest[pos:])


def heads_test(slots):
    """The iteration's own test: False when delta_dprime must give zero."""
    p = next(i for i, w in enumerate(slots) if len(w) >= 2)
    return is_chain(tuple(w[0] for w in slots[: p + 1]))


def test_dead_brackets_are_exactly_the_zero_ones():
    # the reduction meets only brackets of this shape: delta_dprime maps one
    # to zero exactly when the unpruned reduction (heads test only) gives 0
    memo = {}
    count = sharper = 0
    for slots in one_pair_brackets(5):
        dead = delta_dprime(slots) == {}
        assert dead == (not unpruned_reduce(slots, memo)), slots
        count += 1
        sharper += dead and heads_test(slots)
    assert count == 33_399
    assert sharper > 0  # dead brackets that the heads test lets through


SLOT_WORDS = [(m,) for m in range(5)] + [(0, 1), (0, 3), (1, 2), (1, 1)]


def test_pruned_merges_are_exactly_dead_brackets():
    # the reduction never meets a bracket with more than one composite
    # letter, so delta_dprime raises on one; unpruned_reduce above stays the
    # oracle for the iteration as defined on those
    composite = [
        b
        for n in range(2, 5)
        for b in product(SLOT_WORDS, repeat=n)
        if len(sum(b, ())) > n + 1
    ]
    for slots in composite:
        with pytest.raises(InvariantError, match="at most one two-letter slot"):
            delta_dprime(slots)
    assert composite
    # on the one-pair brackets the reduction meets, what a rewrite leaves out
    # of the rewrite as defined (sign * unpruned_delta_prime(split) +
    # bracket) must vanish at once
    dropped = 0
    for slots in one_pair_brackets(5):
        rewrite = delta_dprime(slots)
        if not rewrite:
            continue
        p = next(i for i, w in enumerate(slots) if len(w) >= 2)
        split = slots[:p] + ((slots[p][0],), slots[p][1:]) + slots[p + 1 :]
        sign = -1 if p % 2 else 1
        diff = {key: sign * q for key, q in unpruned_delta_prime(split).items()}
        add_term(diff, ((), slots), Fraction(1))
        for key, q in rewrite.items():
            add_term(diff, key, -q)
        for lam, child in diff:
            assert lam == () and delta_dprime(child) == {}, (slots, child)
        dropped += len(diff)
    assert dropped > 0


def letter_test_without_exception(t):
    f = next(i for i, m in enumerate(t) if m < 2)
    return is_chain(t[f + 1 :])


@pytest.mark.parametrize(
    "slots, chain",
    [(((1,), (0, 0)), (1, 0)), (((2,), (1,), (0, 0)), (2, 1, 0))],
)
def test_trailing_100_brackets_are_not_dead(slots, chain, fresh_caches):
    # [1|00] = v(0)[1|0] and [2|1|00] = v(0)[2|1|0]
    want = {(chain, (0,)): Fraction(1)}
    assert unpruned_reduce(slots, {}) == want
    assert delta_dprime(slots)
    assert dict(anick.reduce_bracket(slots)) == want
    # the letter test without its (1, 0, 0) exception would drop both
    assert not letter_test_without_exception(sum(slots, ()))


# --- the differential ---------------------------------------------------------


def res(*terms):
    return {
        (tuple(chain), tuple(lam)): Fraction(c) for lam, chain, c in terms
    }


def test_delta_on_10():
    assert delta_generic((1, 0)).fractions() == res(
        ((1,), (0,), 1), ((0,), (1,), -1), ((), (0,), -1)
    )


def test_delta_on_pairs():
    assert delta_generic((3, 0)).fractions() == res(
        ((3,), (0,), 1), ((0,), (3,), -1), ((), (2,), -3)
    )
    # generic 2-letter formula at (n,m) = (3,2)
    assert delta_generic((3, 2)).fractions() == res(
        ((3,), (2,), 1),
        ((1,), (4,), Fraction(-3, 2)),
        ((0,), (5,), Fraction(1, 2)),
        ((), (4,), Fraction(-3, 2)),
    )


def test_delta_on_210():
    # 3-letter edge case: the closed formula's 2[v(1)v(1)] summand indexes a
    # non-chain and contributes nothing (the generic engine never produces it,
    # and keeping it would break the square-zero and cross-check suites)
    assert delta_generic((2, 1, 0)).fractions() == res(
        ((2,), (1, 0), 1),
        ((1,), (2, 0), -1),
        ((0,), (2, 1), 1),
    )


def test_delta_on_n10_family():
    for n in (3, 4, 7):
        assert delta_generic((n, 1, 0)).fractions() == res(
            ((n,), (1, 0), 1),
            ((), (n - 1, 1), n),
            ((1,), (n, 0), -1),
            ((), (n, 0), -(n - 2)),
            ((0,), (n, 1), 1),
        )


def test_single_letter_start():
    # degree-1 chains map to the augmentation row: 1 * v(k) (x) []
    assert delta_generic((5,)).fractions() == {((), (5,)): Fraction(1)}


def test_generic_equals_closed_small():
    for n in range(1, 5):
        for c in enumerate_chains(n, CHECK_SMAX):
            assert delta_generic(c).fractions() == delta_closed(c), c


def test_compose_zero_small():
    for n in range(2, 5):
        for c in enumerate_chains(n, CHECK_SMAX):
            residual = compose_delta(c)
            assert not any(residual.values()), c


def triple_loop_compose(c):
    """compose_delta as one loop over both differentials and nf_word."""
    out = {}
    for (c1, lam1), q1 in delta_generic(c).fractions().items():
        for (c2, lam2), q2 in delta_generic(c1).fractions().items():
            for word, r in nf_word(lam1 + lam2).fractions().items():
                add_term(out, (c2, word), q1 * q2 * r)
    return out


def test_compose_delta_equals_triple_loop():
    # under the true rule both sums vanish; under the planted defect they do
    # not, so there they are compared term by term, in the same order
    algebra.set_rule_defect(True)
    try:
        nonzero = 0
        for n in range(2, 6):
            for c in enumerate_chains(n, 6):
                got = compose_delta(c)
                assert list(got.items()) == list(triple_loop_compose(c).items()), c
                nonzero += bool(got)
    finally:
        algebra.set_rule_defect(False)
    assert nonzero > 0


def test_compose_examples():
    assert not any(compose_delta((2, 1, 0)).values())
    assert not any(compose_delta((3, 2, 4)).values())


def test_term_structure():
    # every differential term: one letter shorter, bracket is a chain,
    # coefficient word has length <= 1, weight drop in {0, 1}
    for c in enumerate_chains(4, 5):
        for (cp, lam), q in delta_generic(c).fractions().items():
            assert q
            assert len(cp) == len(c) - 1
            assert is_chain(cp)
            assert len(lam) <= 1
            assert sum(lam) + sum(cp) in (sum(c) - 1, sum(c))


# --- the bracket cache ----------------------------------------------------------


@pytest.fixture
def fresh_caches():
    # every memo starts empty, so the run under test fills each one itself,
    # and none of its values outlives it
    algebra.clear_caches()
    yield
    algebra.clear_caches()


def test_bracket_cache_is_order_independent(fresh_caches):
    chains = [c for n in range(1, 6) for c in enumerate_chains(n, CHECK_SMAX)]
    forward = {c: delta_generic(c).fractions() for c in chains}
    algebra.clear_caches()
    backward = {c: delta_generic(c).fractions() for c in reversed(chains)}
    assert forward == backward


def test_rebuilt_differential_equals_old_value(fresh_caches):
    # RationalSum compares values, so a differential rebuilt from empty memos
    # equals the old one although it is a new object
    chains = [c for n in range(1, 5) for c in enumerate_chains(n, CHECK_SMAX)]
    old = {c: delta_generic(c) for c in chains}
    algebra.clear_caches()
    assert not anick._DELTA_CACHE and not anick._BRACKETS
    for c in chains:
        rebuilt = delta_generic(c)
        assert rebuilt is not old[c] and rebuilt == old[c], c
    assert delta_generic((2, 0)) != delta_generic((2, 1))


def test_rule_defect_round_trip_restores_values():
    chains = [c for n in range(1, 5) for c in enumerate_chains(n, 4)]
    before = {c: delta_generic(c).fractions() for c in chains}
    rows = {c: dict(cochain.reduced_row(c)) for c in chains}
    algebra.set_rule_defect(True)
    try:
        assert any(delta_generic(c).fractions() != before[c] for c in chains)
    finally:
        algebra.set_rule_defect(False)
    assert {c: delta_generic(c).fractions() for c in chains} == before
    assert {c: cochain.reduced_row(c) for c in chains} == rows


def test_each_bracket_is_settled_once(fresh_caches, monkeypatch):
    # final, dead and rewritten brackets are all memoized, so delta_dprime
    # runs once per distinct bracket, and a second pass runs it not at all
    calls = []
    real = anick.delta_dprime

    def counted(slots):
        calls.append(slots)
        return real(slots)

    monkeypatch.setattr(anick, "delta_dprime", counted)
    chains = [c for n in range(1, 6) for c in enumerate_chains(n, 8)]
    first = {c: delta_generic(c).fractions() for c in chains}
    assert len(calls) == len(set(calls)) == len(anick._BRACKETS) == 4_263
    anick._DELTA_CACHE.clear()
    assert {c: delta_generic(c).fractions() for c in chains} == first
    assert len(calls) == 4_263


def assert_canonical(value, where):
    """int numerators over den >= 1, none zero, den coprime to them as a whole."""
    assert type(value.den) is int and value.den >= 1, where
    assert all(type(n) is int and n for n in value.nums.values()), where
    assert gcd(value.den, *value.nums.values()) == 1, where
    assert len(value) == len(value.nums), where


@pytest.mark.parametrize("defect, n_max, s_max", [(False, 6, 10), (True, 5, 6)])
def test_memos_are_canonical_and_match_fraction_arithmetic(fresh_caches, defect, n_max, s_max):
    # after gsb and the rows of every chain in the window, every memoized
    # normal form and differential is canonical and holds the values that
    # Fraction arithmetic gives, under the true rule and the planted defect
    algebra.set_rule_defect(defect)
    try:
        assert algebra.verify_defining_relations(10).ok == (not defect)
        chains = [c for n in range(1, n_max + 1) for c in enumerate_chains(n, s_max)]
        for c in chains:
            cochain.reduced_row(c)
        # every normal form is its leftmost rewrite summed in Fractions over
        # the normal forms of the children, which nf_word memoized first; with
        # the normal words as the base case this fixes every value by induction
        assert len(algebra._NF_CACHE) > 1_000
        for w, value in algebra._NF_CACHE.items():
            assert_canonical(value, w)
            k = algebra.leftmost_obstruction(w)
            if k is None:
                want = {w: Fraction(1)}
            else:
                want = {}
                for rhs, coeff in algebra.rule_rhs(w[k], w[k + 1]):
                    child = algebra._NF_CACHE[w[:k] + rhs + w[k + 2 :]]
                    for word, q in child.fractions().items():
                        add_term(want, word, coeff * q)
            assert value.fractions() == want, w
        # every differential is the unpruned reduction in Fractions
        built = list(anick._DELTA_CACHE.items())  # compose_delta below adds more
        assert set(chains) <= dict(built).keys()
        memo = {}
        for c, value in built:
            assert_canonical(value, c)
            want = {}
            for (lam, slots), q in unpruned_delta_prime(tuple((m,) for m in c)).items():
                times(want, lam, q, unpruned_reduce(slots, memo))
            assert value.fractions() == want, c
        # compose_delta over the int memos is the triple loop over their
        # Fractions; under the true rule both are zero, which the square-zero
        # tests check, so the terms are compared where they survive
        if defect:
            nonzero = 0
            for c, _ in built:
                if len(c) >= 2:
                    got = compose_delta(c)
                    assert list(got.items()) == list(triple_loop_compose(c).items()), c
                    nonzero += bool(got)
            assert nonzero > 0
    finally:
        algebra.set_rule_defect(False)


def test_bar_reduction_is_integral(fresh_caches):
    # the reduction works in int; the differential is int numerators over
    # one int denominator
    for n in range(1, 6):
        for c in enumerate_chains(n, 8):
            value = delta_generic(c)
            assert type(value.den) is int, c
            assert all(type(q) is int for q in value.nums.values()), c
    assert anick._BRACKETS
    for slots, terms in anick._BRACKETS.items():
        assert all(type(q) is int for _, q in terms), slots
    count = 0
    for slots in one_pair_brackets(5):
        rewrite = delta_dprime(slots)
        assert not rewrite or all(type(q) is int for q in rewrite.values()), slots
        count += 1
    assert count == 33_399
    # compose_delta is zero under the true rule; under the planted defect its
    # values are Fractions too
    algebra.set_rule_defect(True)
    try:
        values = [
            q for n in range(2, 6) for c in enumerate_chains(n, 6)
            for q in compose_delta(c).values()
        ]
    finally:
        algebra.set_rule_defect(False)
    assert values and all(type(q) is Fraction for q in values)


@pytest.fixture
def self_looping(monkeypatch, fresh_caches):
    # every bracket that needs rewriting maps back to itself
    real = anick.delta_dprime

    def looping(slots):
        res = real(slots)
        return {((), slots): Fraction(1)} if res else res

    monkeypatch.setattr(anick, "delta_dprime", looping)


def test_bracket_rewriting_to_itself_overflows(self_looping):
    with pytest.raises(IterationOverflow, match=re.escape("returns to [v1.v4] ")):
        delta_generic((3, 2))


def climb(monkeypatch, steps, top):
    """Patch delta_dprime to climb from [v0.v1] through fresh brackets.

    [v0.v1], the one bracket ``delta_generic((1, 0))`` rewrites, maps to
    [v0.v2], that to [v0.v3], and so on for ``steps`` steps; the top rung
    maps to ``top(real, rung)``.  Every other bracket keeps its rewrite.
    Returns the rungs.
    """
    real = anick.delta_dprime
    rungs = [((0, 1 + k),) for k in range(steps + 1)]
    up = {lo: {((), hi): 1} for lo, hi in zip(rungs, rungs[1:])}

    def climbing(slots):
        if slots == rungs[-1]:
            return top(real, slots)
        return up[slots] if slots in up else real(slots)

    monkeypatch.setattr(anick, "delta_dprime", climbing)
    return rungs


def test_two_bracket_cycle_overflows(monkeypatch, fresh_caches):
    # [v0.v1] -> [v0.v2] -> [v0.v1]
    climb(monkeypatch, 1, lambda real, slots: {((), ((0, 1),)): 1})
    with pytest.raises(IterationOverflow, match=re.escape("returns to [v0.v1] ")):
        delta_generic((1, 0))


def test_cycle_beyond_the_recursion_limit_overflows(monkeypatch, fresh_caches):
    # the self-loop is reached after more distinct brackets than the
    # interpreter's recursion limit: the descent keeps its own stack
    steps = sys.getrecursionlimit() + 1
    rungs = climb(monkeypatch, steps, lambda real, slots: {((), slots): 1})
    top = anick._bracket_text(rungs[-1])
    with pytest.raises(IterationOverflow, match=re.escape(f"returns to {top} ")):
        delta_generic((1, 0))


def test_finite_descent_beyond_the_old_pass_cap_returns_its_value(
    monkeypatch, fresh_caches
):
    # the top rung rewrites as [v0.v1] does, so the value is unchanged; the
    # descent is deeper than the old cap of 8 * (n + weight) passes, which
    # would have called it an overflow
    c = (1, 0)
    want = delta_generic(c)
    algebra.clear_caches()
    steps = 10 * 8 * (len(c) + sum(c))
    climb(monkeypatch, steps, lambda real, slots: real(((0, 1),)))
    assert delta_generic(c) == want
    assert len(anick._BRACKETS) > steps


def test_ddzero_fails_on_overflow(self_looping, capsys):
    assert main(["ddzero", "--letters", "2", "--smax", "1"]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "IterationOverflow" in err
