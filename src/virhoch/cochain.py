"""Scalar cochains, the raw differential, and its scalar reduction.

A degree-n cochain assigns a scalar to every n-letter chain (degree 0: one
scalar, attached to the empty chain).  Pulling back along the resolution
differential gives the raw differential with values in the module,

    (d phi)(c) = sum over delta(c) of  coeff * act_word(w, phi(c') u),

which always has the shape c0(c) u + c1(c) ∂u.  The class of (d phi) modulo
the derivation-induced subcomplex is represented by the scalar cochain

    sigma(c) = c0(c) - sum_j i_j * psi(c with letter j decremented),
    psi      = c1,

psi being extended by zero on tuples that are not chains.  ``reduced_row``
bakes the same map into one row of polynomial coefficients per chain, which
is what the rank computations consume.  It reads c0 and psi straight off the
memoized ``delta_generic``, so only the reduced rows are cached, not the raw
ones.  A row entry that breaks the grade split raises
``anick.InvariantError`` naming the chain.

``closed_reduced_row`` evaluates an explicit formula for the reduced
differential: sums over adjacent index pairs with two merge shapes plus a
tail correction for chains ending in (1, 0), together with dedicated shapes
for trailing pair (2, 0) in low degree.  Index tuples ending in (2, 0) make
the denominator i_{L-1} + i_L - 2 vanish in degree >= 3, where no dedicated
shape exists; those chains raise ``SingularIndexPattern`` and are covered by
the generic engine only.  Two signs in the closed formula are fixed against
the machine computation (and against its own low-degree special cases); see
the test suite for the term-by-term confrontation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .anick import Chain, InvariantError, chain_to_text, delta_generic, grade, is_chain
from .confmod import ModElem, act_word
from .scalars import A, D, ParamPoly, Scalar

Rule = Callable[[Chain], Scalar]


class ScalarCochain:
    """Degree-n cochain as a rule on n-letter chains, zero elsewhere."""

    __slots__ = ("degree", "_rule")

    def __init__(self, degree: int, rule: Rule):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self._rule = rule

    def __call__(self, c: Chain) -> ParamPoly:
        if len(c) != self.degree or not is_chain(c):
            return ParamPoly.const(0)
        return ParamPoly.coerce(self._rule(c))

    @staticmethod
    def unit(c: Chain) -> "ScalarCochain":
        """Indicator cochain of a single chain."""
        if not is_chain(c):
            raise ValueError(f"{c} is not a chain")
        return ScalarCochain(len(c), lambda x: Fraction(1 if x == c else 0))

    @staticmethod
    def constant(beta: Scalar) -> "ScalarCochain":
        return ScalarCochain(0, lambda _: beta)


class RawValue:
    """Module-valued cochain c -> c0(c) u + c1(c) ∂u (∂-degree <= 1)."""

    __slots__ = ("degree", "_fn", "_cache")

    def __init__(self, degree: int, fn: Callable[[Chain], ModElem]):
        self.degree = degree
        self._fn = fn
        self._cache: dict[Chain, ModElem] = {}

    def __call__(self, c: Chain) -> ModElem:
        val = self._cache.get(c)
        if val is None:
            val = self._fn(c)
            assert val.d_degree() <= 1, f"∂-degree {val.d_degree()} at {c}"
            self._cache[c] = val
        return val


def raw_differential(phi: ScalarCochain, c: Chain) -> ModElem:
    """Pull phi back along the resolution differential at chain c."""
    if len(c) != phi.degree + 1:
        raise ValueError(f"chain {c} has wrong length for degree {phi.degree}")
    out = ModElem()
    for (cp, lam), q in delta_generic(c).items():
        val = phi(cp)
        if val:
            out = out + act_word(lam, ModElem.unit(val)).scale(q)
    assert out.d_degree() <= 1
    return out


def raw_value(phi: ScalarCochain) -> RawValue:
    return RawValue(phi.degree + 1, lambda c: raw_differential(phi, c))


def _decrements(c: Chain):
    for j, letter in enumerate(c):
        if letter:
            yield letter, c[:j] + (letter - 1,) + c[j + 1 :]


def reduce_to_scalar(rho: RawValue) -> tuple[ScalarCochain, ScalarCochain]:
    """Represent rho modulo the derivation map by a scalar pair (sigma, psi)."""

    def psi_rule(c: Chain) -> ParamPoly:
        return rho(c).coeff(1)

    def sigma_rule(c: Chain) -> ParamPoly:
        out = rho(c).coeff(0)
        for mult, down in _decrements(c):
            if is_chain(down):
                out = out - rho(down).coeff(1) * mult
        return out

    return (ScalarCochain(rho.degree, sigma_rule), ScalarCochain(rho.degree, psi_rule))


def reduced_differential(phi: ScalarCochain, c: Chain) -> ParamPoly:
    """Scalar value of the reduced differential of phi at chain c."""
    return reduce_to_scalar(raw_value(phi))[0](c)


# ---------------------------------------------------------------------------
# row form: (d phi)(c) = sum over source chains c' of row_c[c'] * phi(c')

Row = dict[Chain, ParamPoly]

_RED_ROWS: dict[Chain, Row] = {}


def clear_caches() -> None:
    _RED_ROWS.clear()


def _row_add(row: Row, c: Chain, val) -> None:
    cur = row.get(c)
    val = val if cur is None else cur + val
    if val:
        row[c] = val
    elif c in row:
        del row[c]


def reduced_row(c: Chain) -> Row:
    """Row of the reduced differential at chain c over the source basis.

    One pass over ``delta_generic(c)`` gives the raw c0 row (v(1) feeds D,
    v(0) feeds a and ∂u, letters >= 2 annihilate the generator); each chain
    ``down`` with one letter decremented adds -letter times its psi row,
    the v(0) terms of ``delta_generic(down)``.

    Every entry splits as P + a·Q with P supported where source and target
    grades agree and Q where the source grade exceeds the target's by one;
    that decomposition is what makes the a = 0 complex split by grade.
    """
    cached = _RED_ROWS.get(c)
    if cached is not None:
        return cached
    row: Row = {}
    for (cp, lam), q in delta_generic(c).items():
        if lam == ():
            _row_add(row, cp, ParamPoly.const(q))
        elif lam == (0,):
            _row_add(row, cp, A * q)
        elif lam == (1,):
            _row_add(row, cp, D * q)
    for mult, down in _decrements(c):
        if is_chain(down):
            for (cp, lam), q in delta_generic(down).items():
                if lam == (0,):
                    _row_add(row, cp, ParamPoly.const(-mult * q))
    s = grade(c)
    for cp, val in row.items():
        if (
            val.degree_a() > 1
            or (val.drop_shift() and grade(cp) != s)
            or (val.shift_part() and grade(cp) != s + 1)
        ):
            raise InvariantError(
                f"row of {chain_to_text(c)} breaks the grade split at "
                f"{chain_to_text(cp)}: {val}"
            )
    _RED_ROWS[c] = row
    return row


def reduced_differential_by_rows(phi: ScalarCochain, c: Chain) -> ParamPoly:
    out = ParamPoly.const(0)
    for cp, val in reduced_row(c).items():
        out = out + val * phi(cp)
    return out


# ---------------------------------------------------------------------------
# closed formula

class SingularIndexPattern(ValueError):
    """Chain whose closed formula hits a vanishing denominator."""


def _psi_row(c: Chain) -> Row:
    # scalar row of psi at c: the v(0)-merge coefficients, plus the tail
    # term for the (1, 0) family
    row: Row = {}
    L = len(c)
    special = c[-2:] == (1, 0)
    jmax = L - 3 if special else L - 1
    for j in range(1, jmax + 1):
        x, y = c[j - 1], c[j]
        sign = Fraction(1 if j % 2 else -1)  # (-1)^(j+1)
        num = (x - 1) * (y - 1)
        if num:
            m_plus = c[: j - 1] + (x + y,) + c[j + 1 :]
            if is_chain(m_plus):
                _row_add(row, m_plus, ParamPoly.const(sign * Fraction(num, x + y - 1)))
    if special:
        sn = Fraction(1 if L % 2 else -1)  # (-1)^(L-1)
        body = c[:-2]
        tail = body + (1,)
        if is_chain(tail):
            _row_add(row, tail, ParamPoly.const(sn))
    return row


def closed_reduced_row(c: Chain) -> Row:
    """Reduced-differential row from the explicit formula."""
    if not is_chain(c) or not c:
        raise ValueError(f"{c} is not a nonempty chain")
    L = len(c)
    if L == 1:
        # degree 0 -> 1: only v(0) and v(1) act on the generator
        k = c[0]
        if k == 0:
            return {(): A}
        if k == 1:
            return {(): D - 1}
        return {}
    special = c[-2:] == (1, 0)
    if not special and c[-2:] == (2, 0):
        if L != 3:
            raise SingularIndexPattern(f"trailing pair (2,0) in {c}")
        # dedicated shape for (n, 2, 0): the a-free part collapses onto one
        # source chain; the a-part is a times the psi row
        n = c[0]
        row = {
            (n + 1, 0): D * Fraction(-2 * n, n + 1)
            + ParamPoly.const(-Fraction(n * (n - 1), n + 1) - (n - 2))
        }
        for cp, val in _psi_row(c).items():
            _row_add(row, cp, val * A)
        return row

    row: Row = {}

    def add(target: Chain, val) -> None:
        if val and is_chain(target):
            _row_add(row, target, ParamPoly.coerce(val))

    jmax = L - 3 if special else L - 1
    for j in range(1, jmax + 1):
        x, y = c[j - 1], c[j]
        K = x + y - 1
        KK = x + y - 2
        m_minus = c[: j - 1] + (K,) + c[j + 1 :]
        m_plus = c[: j - 1] + (x + y,) + c[j + 1 :]
        sj = Fraction(-1 if j % 2 else 1)
        add(m_minus, D * (sj * Fraction(x * y, K)))
        add(m_plus, A * (-sj * Fraction((x - 1) * (y - 1), K)))
        add(m_minus, sj * Fraction(x * (x - 1), K))
        for t in range(1, j):
            add(m_minus, sj * Fraction(x * y, K) * (c[t - 1] - 1))
        tmax = L - 2 if special else L
        for t in range(j + 2, tmax + 1):
            if c[t - 1]:
                dec = m_plus[: t - 2] + (m_plus[t - 2] - 1,) + m_plus[t - 1 :]
                add(dec, sj * c[t - 1] * Fraction((x - 1) * (y - 1), K))
        for num, mult in (((x - 2) * (y - 1), x), ((x - 1) * (y - 2), y)):
            if num * mult:
                if KK == 0:
                    raise SingularIndexPattern(f"pair ({x},{y}) in {c}")
                add(m_minus, sj * mult * Fraction(num, KK))
    if special:
        body = c[:-2]
        sL = Fraction(-1 if L % 2 else 1)  # (-1)^L
        add(body + (0,), D * sL)  # the last merge's v(1) part, sign (-1)^(L-2)
        add(body + (1,), A * (-sL))  # tail correction, sign (-1)^(L-1)
        add(body + (0,), -sL)
        for t in range(1, L - 1):
            add(body + (0,), sL * (c[t - 1] - 1))
    return row

