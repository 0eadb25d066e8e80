"""Ring laws and text forms for the parameter polynomials."""

import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from virhoch.scalars import (
    A,
    D,
    ONE,
    ZERO,
    ParamPoly,
    RationalSum,
    add_term,
    format_rational,
    parse_rational,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)

term_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    rationals,
    max_size=5,
)
polys = term_maps.map(ParamPoly)


@given(polys, polys, polys)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(polys, polys, rationals, rationals)
def test_specialize_is_a_homomorphism(x, y, w, s):
    assert (x + y).specialize(w, s) == x.specialize(w, s) + y.specialize(w, s)
    assert (x * y).specialize(w, s) == x.specialize(w, s) * y.specialize(w, s)
    assert ONE.specialize(w, s) == 1


scalars = st.one_of(st.just(Fraction(0)), rationals)
affine_parts = st.tuples(
    st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12)
)


def stored_cleanly(p: ParamPoly) -> bool:
    # the arithmetic stores its results unvalidated, so each stored form must
    # already be canonical: int numerators over a denominator >= 1, coprime
    # as a whole, no zero numerator, zero as {} over 1; a form such as 2/4
    # would make ``==`` on stored forms wrong
    nums, den = p._nums, p._den
    validated = ParamPoly(dict(p.terms()))
    return (
        type(den) is int
        and den >= 1
        and all(type(n) is int and n for n in nums.values())
        and all(dd >= 0 and da >= 0 for dd, da in nums)
        and gcd(den, *nums.values()) == 1
        and (validated._nums, validated._den) == (nums, den)
    )


def test_stored_cleanly_rejects_unreduced_forms():
    for nums, den in (({(0, 0): 2}, 4), ({}, 3), ({(1, 0): 0}, 1), ({(0, 0): 1}, -1)):
        bad = object.__new__(ParamPoly)
        bad._nums, bad._den = nums, den
        assert not stored_cleanly(bad), (nums, den)


@given(polys, polys, scalars, affine_parts)
def test_arithmetic_stores_clean_maps(x, y, q, parts):
    results = [
        x + y, x - y, x * y, x * q, q * x, x * q.numerator, q.numerator * x, -x,
        ParamPoly.const(q), ParamPoly.affine(*parts),
    ]
    for p in results:
        assert stored_cleanly(p), p
    # stored-form equality is polynomial equality only while zero is {} over 1
    for zero in (x + (-x), x * 0, x * Fraction(0), ParamPoly.affine(0, 0, 0, parts[3])):
        assert (zero._nums, zero._den) == ({}, 1)
    n0, nd, na, den = parts
    assert ParamPoly.affine(*parts) == (ParamPoly.const(n0) + nd * D + na * A) * Fraction(1, den)


# --- an oracle over plain {monomial: Fraction} maps ----------------------------

def ref_clean(t: dict) -> dict:
    return {k: Fraction(c) for k, c in t.items() if c}


def ref_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for (d1, a1), c1 in x.items():
        for (d2, a2), c2 in y.items():
            k = (d1 + d2, a1 + a2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_str(t: dict) -> str:
    if not t:
        return "0"
    return " + ".join(
        str(c) if k == (0, 0) else f"{c}*D^{k[0]}*a^{k[1]}"
        for k, c in sorted(t.items(), reverse=True)
    )


def agrees(p: ParamPoly, t: dict) -> bool:
    got = p.terms()
    return (
        dict(got) == t
        and [k for k, _ in got] == sorted(t, reverse=True)
        and all(type(c) is Fraction for _, c in got)
        and str(p) == ref_str(t)
    )


@given(term_maps, term_maps, rationals, rationals, rationals)
def test_arithmetic_matches_fraction_maps(tx, ty, q, w, s):
    x, y = ParamPoly(tx), ParamPoly(ty)
    tx, ty = ref_clean(tx), ref_clean(ty)
    assert agrees(x, tx) and agrees(y, ty)
    assert agrees(x + y, ref_add(tx, ty))
    assert agrees(x - y, ref_add(tx, {k: -c for k, c in ty.items()}))
    assert agrees(-x, {k: -c for k, c in tx.items()})
    assert agrees(x * y, ref_mul(tx, ty))
    scaled = ref_clean({k: c * q for k, c in tx.items()})
    assert agrees(x * q, scaled) and agrees(q * x, scaled)
    assert agrees(x * q.numerator, ref_clean({k: c * q.numerator for k, c in tx.items()}))
    for p, t in ((x, tx), (y, ty), (x * y, ref_mul(tx, ty))):
        got = p.specialize(w, s)
        assert type(got) is Fraction
        assert got == sum((c * w**dd * s**da for (dd, da), c in t.items()), Fraction(0))


@given(st.lists(term_maps, max_size=6))
def test_sum_of_matches_fraction_maps(tms):
    # the n-ary sum of ``ddzero --symbolic``: one canonical form for the sum
    total = ParamPoly.sum_of([ParamPoly(t) for t in tms])
    want: dict = {}
    for t in tms:
        want = ref_add(want, ref_clean(t))
    assert agrees(total, want)
    assert stored_cleanly(total)


def test_text_round_trip():
    # ddzero --symbolic prints failing entries in this form: terms by
    # descending (D, a) exponents, the constant term bare
    poly = ParamPoly({(2, 1): Fraction(-3, 4), (0, 0): 5, (1, 0): 1})
    assert str(poly) == "-3/4*D^2*a^1 + 1*D^1*a^0 + 5"
    assert str(ParamPoly.affine(1, 0, -4, 2)) == "-2*D^0*a^1 + 1/2"
    assert str(A * A * D) == "1*D^1*a^2"
    assert repr(ONE) == "ParamPoly(1)"


def test_generators_and_str():
    assert str(D) == "1*D^1*a^0"
    assert str(ZERO) == "0"
    assert str(2 * D - ParamPoly.const(Fraction(1, 3))) == "2*D^1*a^0 + -1/3"
    assert D * A == A * D
    assert (D + 1) * (D - 1) == D * D - 1


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("text", ["1/0", "-3/0", "abc", "1//2", ""])
def test_parse_rational_rejects_bad_text(text):
    # a zero denominator is a ValueError like any malformed text, never a
    # ZeroDivisionError, and the message names the text
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_rational(text)


def test_equal_to_rationals_and_unhashable():
    # a constant equals the int and the Fraction of its value, so a hash of
    # its own would break the hash/eq contract: the class has none
    three = ParamPoly.const(3)
    assert three == 3 and 3 == three
    assert three == Fraction(3) and Fraction(3) == three
    assert ParamPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert three != 4 and D != 1 and ZERO == 0
    for x in (three, D, ZERO):
        with pytest.raises(TypeError):
            hash(x)


def test_specialize_values():
    p = D * D - 3 * A + ParamPoly.const(2)
    assert p.specialize(Fraction(1), Fraction(0)) == 3
    assert p.specialize(Fraction(5, 2), Fraction(1, 3)) == Fraction(25, 4) - 1 + 2


def test_specialize_matches_naive_sum_on_row_entries():
    from virhoch.anick import enumerate_chains
    from virhoch.cochain import reduced_row

    entries = [
        val
        for n in range(1, 6)
        for c in enumerate_chains(n, 8)
        for val in reduced_row(c).values()
    ]
    assert len(entries) == 5513
    points = [(Fraction(1), Fraction(1)), (Fraction(5, 2), Fraction(2, 5)),
              (Fraction(-2), Fraction(1, 3)), (Fraction(0), Fraction(0)),
              (Fraction(-3, 7), Fraction(7, 4))]
    for w, s in points:
        for val in entries:
            got = val.specialize(w, s)
            assert type(got) is Fraction
            assert got == sum(c * w**dd * s**da for (dd, da), c in val.terms())


def test_specialize_higher_powers_and_zero():
    p = ParamPoly({(3, 0): Fraction(1), (0, 2): Fraction(-2), (2, 1): Fraction(1, 2)})
    assert p.specialize(Fraction(2), Fraction(3)) == 8 - 18 + Fraction(1, 2) * 4 * 3
    assert type(ZERO.specialize(Fraction(2), Fraction(3))) is Fraction
    assert ZERO.specialize(Fraction(2), Fraction(3)) == 0


# --- sums over one common denominator -----------------------------------------

sum_values = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-10, max_value=10, max_denominator=30),
)
# None cancels the running sum at the key, so the key drops out and may
# come back later
sum_ops = st.lists(
    st.tuples(st.integers(0, 4), st.one_of(sum_values, st.none())), max_size=30
)


@given(sum_ops)
# a key cancels and comes back after a rescale of the common denominator
@example([(0, Fraction(1, 2)), (1, 3), (0, None), (2, Fraction(-5, 7)), (0, 1)])
@example([(0, Fraction(1, 4)), (1, Fraction(1, 6)), (0, Fraction(-1, 4)), (0, 2)])
def test_rational_sum_matches_fraction_add_term(ops):
    acc, ref = RationalSum(), {}
    for key, x in ops:
        if x is None:
            x = -ref.get(key, Fraction(0))
        acc.add(key, x.numerator, x.denominator)
        add_term(ref, key, Fraction(x))
    got = acc.fractions()
    assert list(got.items()) == list(ref.items())
    assert all(type(q) is Fraction for q in got.values())
    # the canonical form keeps the values and their order over the least
    # denominator: the lcm of the values' own denominators
    acc.canonical()
    assert list(acc.fractions().items()) == list(ref.items())
    assert len(acc) == len(ref)
    assert acc.den == lcm(*(q.denominator for q in ref.values()))

