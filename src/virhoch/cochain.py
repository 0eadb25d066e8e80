"""Rows of the reduced cochain differential, and two oracles for them.

A degree-n cochain assigns a scalar to every n-letter chain (degree 0: one
scalar, attached to the empty chain).  Pulling back along the resolution
differential gives values in the module,

    (d phi)(c) = sum over delta(c) of  coeff * act_word(w, phi(c') u),

which always has the shape c0(c) u + c1(c) ∂u.  The class of (d phi) modulo
the derivation-induced subcomplex is represented by the scalar cochain

    sigma(c) = c0(c) - sum_j i_j * psi(c with letter j decremented),
    psi      = c1,

psi being extended by zero on tuples that are not chains.  Every function
here returns that map as a ``Row``, sigma(c) = sum over c' of row[c'] phi(c'),
and all three agree on every chain:

* ``reduced_row`` is the production path, the one the rank computations
  consume.  It reads c0 and psi straight off the int numerators of the
  memoized ``delta_generic`` and caches the reduced rows.  An entry that
  breaks the grade split raises ``anick.InvariantError`` naming the chain;
  this is the one check of the split, once per row, and ``cohom.matrix_d``
  relies on it.  ``square_row`` composes two of its rows, the check
  ``ddzero --symbolic`` runs.

* ``action_row`` is the module-action oracle: it applies
  ``confmod.act_word`` to the generator for every term and takes the u and
  ∂u coefficients of the results.  A term of ∂-degree above one raises
  ``anick.InvariantError`` naming the chain and the module value.

* ``closed_reduced_row`` is the closed-formula oracle: sums over adjacent
  index pairs with two merge shapes, plus a tail correction for chains
  ending in (1, 0).  It has no singular index patterns.  Two signs in it
  are fixed against the machine computation; the test suite confronts it
  with ``reduced_row`` chain by chain.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import memo
from .anick import Chain, InvariantError, chain_to_text, delta_generic, grade, is_chain
from .confmod import ModElem, act_word
from .scalars import A, D, ParamPoly, RationalSum, add_term


def _decrements(c: Chain):
    for j, letter in enumerate(c):
        if letter:
            yield letter, c[:j] + (letter - 1,) + c[j + 1 :]


# (d phi)(c) = sum over source chains c' of row[c'] * phi(c')
Row = dict[Chain, ParamPoly]

_RED_ROWS: dict[Chain, Row] = memo()


def reduced_row(c: Chain) -> Row:
    """Row of the reduced differential at chain c over the source basis.

    One pass over the int numerators of ``delta_generic(c)`` and of the
    chains ``down`` with one letter decremented sums three rational parts
    in one ``RationalSum`` keyed by (source chain, part): the constant
    part 0 (the raw c0 terms, whose word is empty, and -letter times the
    psi terms of each ``down``, the v(0) terms of ``delta_generic(down)``),
    the D part 1 (the v(1) terms of c) and the a part 2 (the v(0) terms of
    c).  Letters >= 2 annihilate the generator.

    The grade split is checked on the int parts: the constant and D parts
    sit where source and target grades agree, the a part where the source
    grade exceeds the target's by one; that decomposition is what makes
    the a = 0 complex split by grade.  A violation raises
    ``InvariantError`` naming the chain and the entry.  Each entry is then
    emitted once, as ``ParamPoly.affine`` over the sum's denominator, in
    the order of the constant, D and a parts.
    """
    cached = _RED_ROWS.get(c)
    if cached is not None:
        return cached
    acc = RationalSum()
    delta = delta_generic(c)
    den = delta.den
    for (cp, lam), n in delta.nums.items():
        if lam == ():
            acc.add((cp, 0), n, den)
        elif lam == (0,):
            acc.add((cp, 2), n, den)
        elif lam == (1,):
            acc.add((cp, 1), n, den)
    for mult, down in _decrements(c):
        if is_chain(down):
            delta = delta_generic(down)
            den = delta.den
            for (cp, lam), n in delta.nums.items():
                if lam == (0,):
                    acc.add((cp, 0), -mult * n, den)
    parts: tuple[dict[Chain, int], ...] = ({}, {}, {})
    for (cp, part), n in acc.nums.items():
        parts[part][cp] = n
    r0, rd, ra = parts
    den = acc.den

    def entry(cp: Chain) -> ParamPoly:
        return ParamPoly.affine(r0.get(cp, 0), rd.get(cp, 0), ra.get(cp, 0), den)

    s = grade(c)
    for part, at in ((r0, s), (rd, s), (ra, s + 1)):
        for cp in part:
            if grade(cp) != at:
                raise InvariantError(
                    f"row of {chain_to_text(c)} breaks the grade split at "
                    f"{chain_to_text(cp)}: {entry(cp)}"
                )
    row: Row = {cp: entry(cp) for cp in {**r0, **rd, **ra}}
    _RED_ROWS[c] = row
    return row


def square_row(c: Chain) -> Row:
    """Row of the square of the reduced differential at chain c; empty when d∘d = 0.

    The entry at each source chain is the sum over middle chains of
    reduced_row(c)[mid] * reduced_row(mid)[src], added once with
    ``ParamPoly.sum_of``; zero sums are dropped.
    """
    products: dict[Chain, list[ParamPoly]] = {}
    for mid, v1 in reduced_row(c).items():
        for src, v2 in reduced_row(mid).items():
            products.setdefault(src, []).append(v1 * v2)
    sums = ((src, ParamPoly.sum_of(terms)) for src, terms in products.items())
    return {src: total for src, total in sums if total}


def action_row(c: Chain) -> Row:
    """Row of the reduced differential at chain c through the module action.

    The c0 row is the u-coefficient of ``act_word(w, u)`` over the terms of
    ``delta_generic(c)``; each chain ``down`` with one letter decremented
    subtracts letter times its ∂u-coefficients.
    """
    row: Row = {}

    def add_coeff(chain: Chain, k: int, scale: int) -> None:
        for (cp, lam), q in delta_generic(chain).fractions().items():
            val = act_word(lam, ModElem.unit(q))
            if val.d_degree() > 1:
                raise InvariantError(
                    f"action row of {chain_to_text(c)}: a term of the differential "
                    f"of {chain_to_text(chain)} acts with ∂-degree {val.d_degree()}: {val}"
                )
            add_term(row, cp, val.coeff(k) * scale)

    add_coeff(c, 0, 1)
    for mult, down in _decrements(c):
        if is_chain(down):
            add_coeff(down, 1, -mult)
    return row


# ---------------------------------------------------------------------------
# closed formula

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
    row: Row = {}

    def add(target: Chain, val) -> None:
        if val and is_chain(target):
            add_term(row, target, ParamPoly.coerce(val))

    jmax = L - 3 if special else L - 1
    for j in range(1, jmax + 1):
        x, y = c[j - 1], c[j]
        K = x + y - 1
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
        # x(x-2)(y-1)/(x+y-2) + y(x-1)(y-2)/(x+y-2) = xy - x - y: no pole at (2, 0)
        add(m_minus, sj * (x * y - x - y))
    if special:
        body = c[:-2]
        sL = Fraction(-1 if L % 2 else 1)  # (-1)^L
        add(body + (0,), D * sL)  # the last merge's v(1) part, sign (-1)^(L-2)
        add(body + (1,), A * (-sL))  # tail correction, sign (-1)^(L-1)
        add(body + (0,), -sL)
        for t in range(1, L - 1):
            add(body + (0,), sL * (c[t - 1] - 1))
    return row

