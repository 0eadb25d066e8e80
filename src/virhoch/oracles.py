"""The oracles of the engine: the closed differential and the two row oracles.

No command runs this module; the tests and the scripts ``check_engine`` and
``mutants`` compare the production code with it.

* ``delta_closed`` evaluates the closed form of the resolution
  differential, derived in ``anick``'s docstring, with ``Fraction``
  arithmetic of its own.  It must agree with ``anick.delta_generic``, the
  bar reduction, term by term.

* ``bar_row`` and ``action_row`` return the row of the reduced cochain
  differential at a chain, the map that ``cochain.reduced_row`` computes
  from the closed row, and both must equal it.  Both read the row off
  ``anick.delta_generic`` of the chain and of the chains with one letter
  decremented, the formula of ``cochain``'s docstring, and build their own
  entries, so the intern table of ``reduced_row`` is not read.  They differ
  only in how the leading word of a term, empty or one letter, acts on u:
  ``bar_row`` reads it from a three-entry table (``_WORD_PART``: the empty
  word as 1, v(0) as a + ∂, v(1) as D, every other letter as 0) over the
  int numerators of the differential, and passes its triples through the
  grade-split check of ``reduced_row`` (``cochain._row``); ``action_row``
  applies ``confmod.act_word`` to the generator, with ``ParamPoly``
  arithmetic.

The oracles call ``anick.delta_generic`` and ``confmod.act_word`` through
their modules, so a patch of either name reaches every call.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import anick, cochain, confmod
from .algebra import Word
from .anick import Chain, InvariantError, chain_to_text, is_chain
from .cochain import A_PART, CONST, D_PART, Parts, Row
from .scalars import ParamPoly, add_term

ResElem = dict[tuple[Chain, Word], Fraction]


def delta_closed(c: Chain) -> ResElem:
    """The closed form of the differential (``anick``'s docstring); cross-check for the iteration.

    Each pair (x, y) with x >= 2 merges either to the single letter
    x + y - 1 (leading factor v(1) or a scalar) or to x + y (leading factor
    v(0)), and the scalar parts collect one contribution for every earlier
    letter.  A final (1, 0) gives the tail correction.  Brackets that are
    not chains never survive the iteration, so they are dropped here as
    well.  The value is a ``ResElem`` {(target chain, leading word):
    Fraction}, the shape of ``delta_generic(c).fractions()``.
    """
    if not is_chain(c) or not c:
        raise ValueError(f"{c} is not a nonempty chain")
    L = len(c)
    if L == 1:
        return {((), (c[0],)): Fraction(1)}
    special = c[-2:] == (1, 0)
    out: ResElem = {}
    add_term(out, (c[1:], (c[0],)), Fraction(1))  # leading letter peels off
    jmax = L - 2 if special else L - 1
    for j in range(1, jmax + 1):
        x, y = c[j - 1], c[j]
        K = x + y - 1
        m_minus = c[: j - 1] + (K,) + c[j + 1 :]
        m_plus = c[: j - 1] + (x + y,) + c[j + 1 :]
        sj = Fraction(-1 if j % 2 else 1)
        frac = Fraction(x * y, K)
        if frac:
            add_term(out, (m_minus, (1,)), sj * frac)
            for t in range(1, j):
                add_term(out, (m_minus, ()), sj * frac * (c[t - 1] - 1))
        add_term(out, (m_minus, ()), sj * Fraction(x * (x - 1), K))
        frac = Fraction((x - 1) * (y - 1), K)
        if frac:
            add_term(out, (m_plus, (0,)), -sj * frac)
            for t in range(1, j):
                dec = m_plus[: t - 1] + (m_plus[t - 1] - 1,) + m_plus[t:]
                add_term(out, (dec, ()), -sj * frac * c[t - 1])
    if special:
        body = c[:-2]
        sn = Fraction(1 if L % 2 else -1)  # (-1)^(L-1)
        add_term(out, (body + (0,), ()), sn)
        add_term(out, (body + (1,), (0,)), sn)
        for j, letter in enumerate(body):
            dec = body[:j] + (letter - 1,) + body[j + 1 :]
            add_term(out, (dec + (1,), ()), sn * letter)
    return {key: q for key, q in out.items() if is_chain(key[0])}


def _decrements(c: Chain):
    for j, letter in enumerate(c):
        if letter:
            yield letter, c[:j] + (letter - 1,) + c[j + 1 :]


# a term's part by its word; other words act on the generator as 0
_WORD_PART = {(): CONST, (0,): A_PART, (1,): D_PART}


def bar_row(c: Chain) -> Row:
    """The row of c read off the bar reduction: the first oracle of ``reduced_row``.

    One pass over the int numerators of ``delta_generic(c)`` and of the
    chains ``down`` with one letter decremented fills the triples of
    ``row_parts`` over the lcm of their denominators: the constant part
    (the raw c0 terms, whose word is empty, and -letter times the psi terms
    of each ``down``, the v(0) terms of ``delta_generic(down)``), the D part
    (the v(1) terms of c) and the a part (the v(0) terms of c).  A c that is
    no nonempty chain raises the ``ValueError`` of ``delta_generic``.
    """
    own = anick.delta_generic(c)
    downs = [(mult, anick.delta_generic(down)) for mult, down in _decrements(c) if is_chain(down)]
    den = lcm(own.den, *[delta.den for _, delta in downs])
    parts: Parts = {}
    scale = den // own.den
    for (cp, lam), n in own.nums.items():
        part = _WORD_PART.get(lam)
        if part is not None:
            parts.setdefault(cp, [0, 0, 0])[part] += scale * n
    for mult, delta in downs:
        scale = den // delta.den
        for (cp, lam), n in delta.nums.items():
            if lam == (0,):
                parts.setdefault(cp, [0, 0, 0])[CONST] -= scale * mult * n
    # the oracle's own entries: the intern table of ``reduced_row`` is not read
    return cochain._row(c, parts, den, ParamPoly.affine)


def action_row(c: Chain) -> Row:
    """Row of the reduced differential at chain c through the module action.

    The c0 row is the u-coefficient of ``act_word(w, u)`` over the terms of
    ``delta_generic(c)``; each chain ``down`` with one letter decremented
    subtracts letter times its ∂u-coefficients.  A term of ∂-degree above
    one raises ``InvariantError`` naming the chain and the module value.
    """
    row: Row = {}

    def add_coeff(chain: Chain, k: int, scale: int) -> None:
        for (cp, lam), q in anick.delta_generic(chain).fractions().items():
            val = confmod.act_word(lam, confmod.ModElem.unit(q))
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
