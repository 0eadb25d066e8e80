"""Rank-one module with two scalar parameters.

M is the free rank-one module on a generator u over the polynomial ring in
one variable ``∂``.  A generator v(n) of the coefficient algebra acts by

    v(0) u = (a + ∂) u,    v(1) u = D u,    v(n) u = 0   for n >= 2,

where a is the shift parameter and D the weight parameter, and the action
extends to all of M through

    v(n) (∂ m) = ∂ (v(n) m) + n (v(n-1) m).

``ModElem`` stores the coefficient of each power of ``∂`` applied to u, as a
polynomial in (D, a).  Keeping the parameters symbolic makes the downstream
complex checks polynomial identities rather than spot checks.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Word
from .scalars import ParamPoly, Scalar, A, D


class ModElem:
    """Element sum_k c_k ∂^k u with ParamPoly coefficients c_k."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [ParamPoly.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @staticmethod
    def unit(scale: Scalar = Fraction(1)) -> "ModElem":
        return ModElem([scale])

    def coeff(self, k: int) -> ParamPoly:
        return self._coeffs[k] if k < len(self._coeffs) else ParamPoly.const(0)

    def d_degree(self) -> int:
        """Largest power of ∂ with a nonzero coefficient (-1 when zero)."""
        return len(self._coeffs) - 1

    def __add__(self, other: "ModElem") -> "ModElem":
        n = max(len(self._coeffs), len(other._coeffs))
        return ModElem([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "ModElem") -> "ModElem":
        return self + other.scale(-1)

    def scale(self, q) -> "ModElem":
        return ModElem([c * q for c in self._coeffs])

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModElem):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self) -> str:
        if not self._coeffs:
            return "0 | u"
        parts = []
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            head = f"({c})"
            if k == 1:
                head += "·∂"
            elif k >= 2:
                head += f"·∂^{k}"
            parts.append(head)
        return " + ".join(parts) + " | u"

    __repr__ = __str__


# A(n, k) = v(n) ∂^k u as a coefficient tuple; the recursion terminates at
# the three k = 0 base cases.
_ACT_TABLE: dict[tuple[int, int], tuple[ParamPoly, ...]] = {}


def _act_table(n: int, k: int) -> tuple[ParamPoly, ...]:
    key = (n, k)
    cached = _ACT_TABLE.get(key)
    if cached is not None:
        return cached
    if k == 0:
        if n == 0:
            val: tuple[ParamPoly, ...] = (A, ParamPoly.const(1))
        elif n == 1:
            val = (D,)
        else:
            val = ()
    else:
        shifted = (ParamPoly.const(0),) + _act_table(n, k - 1)
        val = list(shifted)
        if n:
            lower = _act_table(n - 1, k - 1)
            for i, c in enumerate(lower):
                if i < len(val):
                    val[i] = val[i] + c * n
                else:
                    val.append(c * n)
        while val and not val[-1]:
            val.pop()
        val = tuple(val)
    _ACT_TABLE[key] = val
    return val


def act_gen(n: int, m: ModElem) -> ModElem:
    """Action of the generator v(n)."""
    if n < 0:
        raise ValueError("generator index must be >= 0")
    out = ModElem()
    for k, c in enumerate(m._coeffs):
        if c:
            out = out + ModElem(_act_table(n, k)).scale(c)
    return out


def act_word(w: Word, m: ModElem) -> ModElem:
    """Action of a word, rightmost letter first; the empty word is the unit."""
    for letter in reversed(w):
        m = act_gen(letter, m)
    return m


def mod_derive(m: ModElem) -> ModElem:
    """Multiplication by ∂ (the module's structure map)."""
    return ModElem((ParamPoly.const(0),) + m._coeffs)
