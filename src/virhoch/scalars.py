"""Exact scalars for the whole computation.

Everything downstream is linear algebra over the field of rationals, or over
the polynomial ring in the two module parameters:

* ``D`` -- the weight of the rank-one module (the eigenvalue of the degree-one
  generator on the cyclic vector),
* ``a`` -- the shift of the module (the constant part of the degree-zero
  generator's action).

Rationals are ``fractions.Fraction`` throughout: exact, arbitrary precision,
always in lowest terms with positive denominator.  ``ParamPoly`` is a thin
commutative-polynomial layer with rational coefficients in the two
parameters; it exists so that differentials can be assembled once,
symbolically, and then specialized at many parameter points.

Sums of many rational products (normal forms, the resolution differential,
its square and the reduced rows) are accumulated over ints: ``RationalSum``
keeps int numerators over one common denominator.  It is also the value
type of the memoized normal forms (``algebra.nf_word``) and differentials
(``anick.delta_generic``), held in the canonical form ``ParamPoly`` uses, so
their readers work in ``int`` throughout; ``fractions()`` makes one
``Fraction`` per key for the oracles and the callers that want them.

``ParamPoly`` works over ints the same way.  Its storage, private to this
module, is a map monomial -> int numerator over one denominator, in
canonical form: the denominator is >= 1 and coprime to the numerators as a
whole, no numerator is zero, and zero is ``{}`` over 1.  Equal polynomials
therefore have equal stored forms.  ``+``, ``-`` and ``*`` are int
arithmetic with one gcd per result, ``ParamPoly.sum_of`` adds a whole
sequence with one gcd for the sum, and ``specialize`` builds one
``Fraction`` from ints.  The public constructor ``ParamPoly(terms)``
validates what it is given: it coerces every coefficient to ``Fraction``,
drops zeros and rejects negative exponents.  ``terms()`` hands the
coefficients back as ``Fraction``s.  ``ParamPoly.affine(n0, nd, na, den)``
builds the row-entry shape ``(n0 + nd*D + na*a) / den`` straight from ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

#: exponent key: (power of D, power of a)
Monomial = tuple[int, int]


def format_rational(x: Fraction) -> str:
    """Canonical text form ``p/q`` (or ``p`` when the denominator is 1)."""
    return str(x)


def parse_rational(text: str) -> Fraction:
    """The rational ``p/q`` (or an int or decimal) written in text.

    Malformed text and a zero denominator both raise ``ValueError`` naming
    the text, which the CLI reports as a usage error.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


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

    ``RationalSum(nums, den)`` wraps int numerators over den >= 1 as given
    (no numerator may be zero); the default is the empty sum over 1.
    ``add(key, n, d)`` adds n/d (d > 0) to the value at key; the numerators
    go through ``add_term``, so a key drops out at zero and comes back at the
    end, exactly as in a sum of ``Fraction``s.  ``canonical()`` divides the
    common factor of the denominator and the numerators out, so that the
    denominator is coprime to the numerators as a whole, and zero is ``{}``
    over 1.  ``len()`` is the number of terms, and ``fractions()`` returns
    the sum as {key: Fraction} in the same order, one ``Fraction`` per key.
    An int ``x`` and a ``Fraction`` both pass as ``x.numerator,
    x.denominator``.  ``==`` compares values exactly; the class is unhashable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict | None = None, den: int = 1):
        self.nums: dict = {} if nums is None else nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSum):
            return NotImplemented
        nums, den = other.nums, other.den
        return nums.keys() == self.nums.keys() and all(
            n * den == nums[key] * self.den for key, n in self.nums.items()
        )

    __hash__ = None

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

    def canonical(self) -> "RationalSum":
        """Put the sum in canonical form in place and return it."""
        nums = self.nums
        g = gcd(self.den, *nums.values())
        if g != 1:
            for k in nums:
                nums[k] //= g
            self.den //= g
        return self

    def fractions(self) -> dict:
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}


class ParamPoly:
    """Polynomial in the module parameters D and a with rational coefficients.

    Immutable value object, stored as int numerators over one denominator in
    canonical form: the denominator is >= 1 and coprime to the numerators as
    a whole, no numerator is zero, and zero is ``{}`` over 1.  So equality of
    the stored forms is equality of polynomials.  A constant compares equal
    to the int or ``Fraction`` of its value; no hash agrees with that
    equality, so the class is unhashable.
    """

    __slots__ = ("_nums", "_den")

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
        # already canonical over the lcm of the denominators: the full power
        # of a prime p in the lcm divides some coefficient's denominator, and
        # p misses that coefficient's numerator, scaled by a p-free factor
        den = lcm(*(c.denominator for c in clean.values()))
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den

    @classmethod
    def _reduced(cls, nums: dict[Monomial, int], den: int) -> "ParamPoly":
        """Wrap int numerators over den >= 1 in canonical form.

        Zero numerators are dropped and the common gcd is divided out, so
        the arithmetic may hand in its raw sums.
        """
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        poly = object.__new__(cls)
        poly._nums = nums
        poly._den = den
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x) -> "ParamPoly":
        x = Fraction(x)
        return ParamPoly._reduced({(0, 0): x.numerator}, x.denominator)

    @staticmethod
    def affine(n0: int, nd: int, na: int, den: int) -> "ParamPoly":
        """(n0 + nd*D + na*a) / den from ints, den >= 1; zero parts are not stored."""
        nums: dict[Monomial, int] = {}
        if n0:
            nums[(0, 0)] = n0
        if nd:
            nums[(1, 0)] = nd
        if na:
            nums[(0, 1)] = na
        return ParamPoly._reduced(nums, den)

    @staticmethod
    def coerce(x: Fraction | ParamPoly) -> ParamPoly:
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def sum_of(polys: Sequence[ParamPoly]) -> ParamPoly:
        """Sum of the polynomials, put in canonical form once; ``+`` is the two-term case.

        The numerators are added over the lcm of the denominators.
        """
        den = lcm(*(p._den for p in polys))
        out: dict[Monomial, int] = {}
        get = out.get
        for p in polys:
            scale = den // p._den
            for key, n in p._nums.items():
                out[key] = get(key, 0) + n * scale
        return ParamPoly._reduced(out, den)

    def __add__(self, other) -> "ParamPoly":
        return ParamPoly.sum_of((self, ParamPoly.coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._reduced({k: -n for k, n in self._nums.items()}, self._den)

    def __sub__(self, other) -> "ParamPoly":
        return self + (-ParamPoly.coerce(other))

    def __mul__(self, other) -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            if isinstance(other, (int, Fraction)):
                p = other.numerator
                return ParamPoly._reduced(
                    {k: n * p for k, n in self._nums.items()}, self._den * other.denominator
                )
            other = ParamPoly.const(other)
        out: dict[Monomial, int] = {}
        get = out.get
        for (d1, a1), n1 in self._nums.items():
            for (d2, a2), n2 in other._nums.items():
                key = (d1 + d2, a1 + a2)
                out[key] = get(key, 0) + n1 * n2
        return ParamPoly._reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    # -- queries -----------------------------------------------------------

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        """(monomial, Fraction) pairs in descending (D-degree, a-degree) order."""
        den = self._den
        return sorted(
            ((key, Fraction(n, den)) for key, n in self._nums.items()),
            key=lambda kv: kv[0],
            reverse=True,
        )

    def specialize(self, weight: Fraction, shift: Fraction) -> Fraction:
        """Evaluate at D = weight, a = shift, as one ``Fraction`` built from ints.

        Ring homomorphism onto Fraction; the property suite checks that it
        commutes with + and *.  Row entries are affine, and for them the
        numerator is (n0*wd + nd*w)*sd + na*s*wd over den*wd*sd, with
        weight = w/wd and shift = s/sd.  Other polynomials clear the powers
        of wd and sd up to their largest exponents.
        """
        nums = self._nums
        w, wd = weight.as_integer_ratio()
        s, sd = shift.as_integer_ratio()
        if nums.keys() <= _AFFINE:
            get = nums.get
            return Fraction(
                (get((0, 0), 0) * wd + get((1, 0), 0) * w) * sd + get((0, 1), 0) * s * wd,
                self._den * wd * sd,
            )
        dmax = max(dd for dd, _ in nums)
        amax = max(da for _, da in nums)
        total = sum(
            n * w**dd * wd ** (dmax - dd) * s**da * sd ** (amax - da)
            for (dd, da), n in nums.items()
        )
        return Fraction(total, self._den * wd**dmax * sd**amax)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
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


#: the monomials of c0 + cd*D + ca*a, the shape of every reduced-row entry
_AFFINE = frozenset({(0, 0), (1, 0), (0, 1)})

ZERO = ParamPoly()
ONE = ParamPoly.const(1)
#: the module weight parameter
D = ParamPoly({(1, 0): Fraction(1)})
#: the module shift parameter
A = ParamPoly({(0, 1): Fraction(1)})
