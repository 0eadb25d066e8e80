"""Ring laws and text forms for the parameter polynomials."""

from fractions import Fraction

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

polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    rationals,
    max_size=5,
).map(ParamPoly)


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


def stored_cleanly(p: ParamPoly) -> bool:
    # the arithmetic stores its results unvalidated, so each stored map must
    # already be what the validating constructor makes of it
    terms = p._terms
    return (
        all(type(c) is Fraction and c for c in terms.values())
        and all(dd >= 0 and da >= 0 for dd, da in terms)
        and ParamPoly(terms)._terms == terms
    )


@given(polys, polys, scalars, st.tuples(scalars, scalars, scalars))
def test_arithmetic_stores_clean_maps(x, y, q, parts):
    results = [
        x + y, x - y, x * y, x * q, q * x, x * q.numerator, q.numerator * x, -x,
        ParamPoly.const(q), ParamPoly.affine(*parts),
    ]
    for p in results:
        assert stored_cleanly(p), p
    # map equality is polynomial equality only while zero stores nothing
    assert (x + (-x))._terms == {}
    assert (x * 0)._terms == {} and (x * Fraction(0))._terms == {}
    assert ParamPoly.affine(*parts) == ParamPoly.const(parts[0]) + parts[1] * D + parts[2] * A


def test_text_round_trip():
    # ddzero --symbolic prints failing entries in this form: terms by
    # descending (D, a) exponents, the constant term bare
    poly = ParamPoly({(2, 1): Fraction(-3, 4), (0, 0): 5, (1, 0): 1})
    assert str(poly) == "-3/4*D^2*a^1 + 1*D^1*a^0 + 5"
    assert str(ParamPoly.affine(Fraction(1, 2), Fraction(0), Fraction(-2))) == "-2*D^0*a^1 + 1/2"
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

