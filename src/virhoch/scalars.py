"""Exact scalars for the whole computation.

Everything downstream is linear algebra over the field of rationals, or over
the polynomial ring in the two module parameters:

* ``D`` -- the weight of the rank-one module (the eigenvalue of the degree-one
  generator on the cyclic vector),
* ``a`` -- the shift of the module (the constant part of the degree-zero
  generator's action).

Rationals are ``fractions.Fraction`` throughout: exact, arbitrary precision,
always in lowest terms with positive denominator.  ``ParamPoly`` is a thin
commutative-polynomial layer over ``Fraction`` in the two parameters; it
exists so that differentials can be assembled once, symbolically, and then
specialized at many parameter points.

Sums of many rational products (normal forms, the resolution differential
and its square) are accumulated over ints: ``RationalSum`` keeps int
numerators over one common denominator and makes one ``Fraction`` per key
at the end.

Its term map (monomial -> nonzero Fraction) is private to this module.  The
public constructor ``ParamPoly(terms)`` validates what it is given: it
coerces every coefficient to ``Fraction``, drops zeros and rejects negative
exponents.  Results of the module's own arithmetic (``+``, ``-``, ``*``,
``const``) are built with ``add_term`` from maps that already hold, and are
stored as they are.  ``ParamPoly.affine(c0, cd, ca)`` builds the row-entry
shape ``c0 + cd*D + ca*a`` straight from three Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Scalar = Union[Fraction, "ParamPoly"]

#: exponent key: (power of D, power of a)
Monomial = tuple[int, int]


def format_rational(x: Fraction) -> str:
    """Canonical text form ``p/q`` (or ``p`` when the denominator is 1)."""
    return str(x)


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the key when the sum is zero.

    Every sparse linear combination in the package (normal forms, the
    resolution differential, reduced rows, echelon rows over Z) is a dict
    of nonzero values kept that way by this one helper.
    """
    cur = acc.get(key)
    if cur is not None:
        val = cur + val
    if val:
        acc[key] = val
    elif cur is not None:
        del acc[key]


class RationalSum:
    """Sparse sum of rationals, kept as int numerators over one denominator.

    ``add(key, n, d)`` adds n/d (d > 0) to the value at key; the numerators
    go through ``add_term``, so a key drops out at zero and comes back at the
    end, exactly as in a sum of ``Fraction``s.  ``fractions()`` returns the
    sum as {key: Fraction} in the same order, one ``Fraction`` per key.  An
    int ``x`` and a ``Fraction`` both pass as ``x.numerator, x.denominator``.
    """

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums: dict = {}
        self.den = 1

    def add(self, key, n: int, d: int) -> None:
        den = self.den
        if d != den:
            if den % d:
                # rescale the stored numerators to the lcm of den and d
                scale = d // gcd(den, d)
                nums = self.nums
                for k in nums:
                    nums[k] *= scale
                den *= scale
                self.den = den
            n *= den // d
        add_term(self.nums, key, n)

    def fractions(self) -> dict:
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}


class ParamPoly:
    """Polynomial in the module parameters D and a with rational coefficients.

    Immutable value object.  The internal map never stores zero coefficients,
    so equality of maps is equality of polynomials.  A constant compares
    equal to the int or ``Fraction`` of its value; no hash agrees with that
    equality, so the class is unhashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    dd, da = key
                    if dd < 0 or da < 0:
                        raise ValueError(f"negative exponent in {key}")
                    add_term(clean, (dd, da), coeff)
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Fraction]) -> "ParamPoly":
        """Wrap a map of nonzero Fractions at nonnegative exponents, as is."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x) -> "ParamPoly":
        x = Fraction(x)
        return ParamPoly._trusted({(0, 0): x} if x else {})

    @staticmethod
    def affine(c0: Fraction, cd: Fraction, ca: Fraction) -> "ParamPoly":
        """c0 + cd*D + ca*a from three Fractions; zero parts are not stored."""
        terms: dict[Monomial, Fraction] = {}
        if c0:
            terms[(0, 0)] = c0
        if cd:
            terms[(1, 0)] = cd
        if ca:
            terms[(0, 1)] = ca
        return ParamPoly._trusted(terms)

    @staticmethod
    def coerce(x: Scalar) -> "ParamPoly":
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        other = ParamPoly.coerce(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            add_term(out, key, coeff)
        return ParamPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._trusted({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ParamPoly._trusted({})
            return ParamPoly._trusted({k: c * other for k, c in self._terms.items()})
        other = ParamPoly.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for (d1, a1), c1 in self._terms.items():
            for (d2, a2), c2 in other._terms.items():
                add_term(out, (d1 + d2, a1 + a2), c1 * c2)
        return ParamPoly._trusted(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._terms == other._terms

    # -- queries -----------------------------------------------------------

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        """Monomials in descending (D-degree, a-degree) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def a_degrees(self) -> set[int]:
        """The powers of a that occur."""
        return {da for (_, da) in self._terms}

    def specialize(self, weight: Fraction, shift: Fraction) -> Fraction:
        """Evaluate at D = weight, a = shift.

        Ring homomorphism onto Fraction; the property suite checks that it
        commutes with + and *.  Row entries are affine, so exponents 0 and 1
        are the hot case: they cost no power and no product with one.
        """
        total = None
        for (dd, da), c in self._terms.items():
            if dd:
                c = c * (weight if dd == 1 else weight**dd)
            if da:
                c = c * (shift if da == 1 else shift**da)
            total = c if total is None else total + c
        return Fraction(0) if total is None else total

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dd, da), c in self.terms():
            if (dd, da) == (0, 0):
                parts.append(format_rational(c))
            else:
                parts.append(f"{format_rational(c)}*D^{dd}*a^{da}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self!s})"


ZERO = ParamPoly()
ONE = ParamPoly.const(1)
#: the module weight parameter
D = ParamPoly({(1, 0): Fraction(1)})
#: the module shift parameter
A = ParamPoly({(0, 1): Fraction(1)})
