"""Rows of the reduced cochain differential: the closed row and its two oracles.

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
  and ``square_rows`` consume.  ``row_parts`` evaluates the closed row below
  over ints: for each source chain, the int numerators of its constant, D
  and a parts, ``[n0, nd, na]``, over one denominator, the lcm of K over
  the pairs, reading each pair's three rule coefficients from the active
  rule table (``pair_constants``).  No normal form and no bar reduction is
  computed.  An entry that breaks the grade split raises
  ``anick.InvariantError`` naming the chain; this is the one check of the
  split, once per row, and ``cohom.matrix_d`` relies on it.
  Rows are memoized while the rule table stays the same, and so are their
  entries: each distinct affine value is one ``ParamPoly``, interned by its
  canonical ints, so equal entries of any two rows are one object and
  ``matrix_d`` specializes each of them once per matrix.  For the same
  reason ``square_rows``, the square of the differential that ``ddzero
  --symbolic`` checks, multiplies each distinct pair of entry objects once
  per run: a product table keyed on the two ids, which lives only as long
  as the run and holds every row it reads, so no id it keys on is reused.

* ``bar_row`` is the first oracle: it reads c0 and psi straight off the int
  numerators of ``anick.delta_generic``, the bar reduction, into the same
  per-source triples, with the same grade-split check.  It builds its own
  entries with ``ParamPoly.affine`` and never reads the intern table, so a
  wrong intern key shows as a difference between the two.

* ``action_row`` is the second oracle: it applies ``confmod.act_word`` to
  the generator for every term and takes the u and ∂u coefficients of the
  results, with ``ParamPoly`` arithmetic of its own.  A term of ∂-degree
  above one raises ``anick.InvariantError`` naming the chain and the
  module value.

The closed row.  On the generator v(0) acts as a + ∂, v(1) as D and v(i),
i >= 2, as 0, so c0 reads a leading v(0) as a, a leading v(1) as D and the
empty word as 1, and psi reads a leading v(0) as 1.  In the notation of
``anick`` (pair j = (x, y) = (c_j, c_{j+1}), s_j = (-1)^j, K = x + y - 1,
m- and m+, and the rule's coefficients alpha, b, gamma), the row of a chain
c with L >= 2 letters is

    row(c) = [D at (0,) if c = (1, 0): the peel v(1)[0]]
             + sum_j s_j ( D alpha [m-] + a b [m+]
                           + (gamma + alpha * sum_{t<j} (c_t - 1) + sigma_j) [m-]
                           - b * sum_{t>j+1} c_t [m+ with letter t decremented] ),

with every target that is no chain dropped, and

    sigma_j = xy - x - y, except sigma_j = 0 for the last two pairs of a
    chain that ends in (1, 0).

The one-letter rows are a at () for (0,), D - 1 at () for (1,) (the -1 is
psi of (0,)), and 0 for (i,), i >= 2.  Derivation, from ``anick``'s closed
differential:

* The peel v(c_1) [c_2 ... c_L] acts as 0 unless c_1 <= 1, which for
  L >= 2 is only c = (1, 0), and a decremented chain has a peel v(0) only
  for (0,), the decrement of (1,).
* c0 of delta(c) gives the D, a and gamma terms, the alpha sum over earlier
  letters, and b c_t at [m+ with letter t decremented] for each t < j.
* psi of c with letter t decremented is s_j b' at its m+, for each of its
  pairs j, with b' its pair's coefficient.  Sort the terms -c_t s_j b' of
  the sum in sigma(c) by t against j:
  - t < j: the pair is (x, y) again and the target is m+ with letter t
    decremented; the term cancels the b c_t term of c0 exactly, since each
    is a chain exactly when the other is.
  - t > j + 1: the sum over later letters.
  - t = j and t = j + 1: the pairs (x - 1, y) and (x, y - 1), whose m+ is
    the m- of c, give -x b(x - 1, y) - y b(x, y - 1) there, each term only
    where its decrement is a chain.  With b(p, q) = -(p - 1)(q - 1)/(p + q - 1)
    for the rules p >= 2 this is
        x (x - 2)(y - 1)/(x + y - 2) + y (x - 1)(y - 2)/(x + y - 2)
          = xy - x - y,
    the sigma term.  At x = 2 the decrement (1, y) is no rule for y >= 1,
    and both sides give 0 there.
* Two cases are separate:
  - (2, 0), where K = 1: the decrement of x is the rule (1, 0), with
    b = 1 and no pole, and -2 * 1 = xy - x - y holds as well.
  - The (1, 0) tail, c = (..., x, 1, 0).  For the pair (1, 0), decrementing
    the 1 leaves (..., 0, 0), no chain, and y = 0.  For the pair (x, 1),
    decrementing the 1 leaves (..., x, 0, 0), no chain, and b(x - 1, 1) = 0.
    So sigma_j = 0 for both, where xy - x - y = -1.  A final pair (x, 1)
    keeps sigma = -1: (..., x, 0) is a chain and b(x, 0) = 1.
* The two signs of the tail: every term of pair j keeps the sign s_j of
  its merge through the cascade (``anick``).  So the tail's D term, the
  pair (x, 1) with alpha = 1 at j = L - 2, has sign (-1)^L, and its a term,
  the pair (1, 0) with b = 1 at j = L - 1, has sign (-1)^(L-1).  For
  L = 2 the D term at (0,) is the peel, with sign +1 = (-1)^L as well.

m- and m+ are chains whenever c is.  m- and the decremented m+ lie at the
grade of c, m+ one grade up: the a = 0 complex splits by grade.  Each
pair's alpha, b and gamma are read from the active rule table, so a
planted rule defect reaches the rows; the cascade coefficients c_t - 1 and
c_t and sigma_j are those of the rules (i, 1), (i, 0), (x - 1, y) and
(x, y - 1) of the true table, written out.  The planted defect, which adds 1 to gamma for
x >= 2, so enters every row through one constant per pair.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from math import gcd, lcm

from .algebra import checked_rule, memo, word_to_text
from .anick import Chain, InvariantError, chain_to_text, delta_generic, grade, is_chain
from .confmod import ModElem, act_word
from .scalars import ParamPoly, add_term


def _decrements(c: Chain):
    for j, letter in enumerate(c):
        if letter:
            yield letter, c[:j] + (letter - 1,) + c[j + 1 :]


# (d phi)(c) = sum over source chains c' of row[c'] * phi(c')
Row = dict[Chain, ParamPoly]

# a row's int form: source chain -> numerators [n0, nd, na] of its entry
# (n0 + nd*D + na*a) / den, one denominator for the row
Parts = dict[Chain, list[int]]
CONST, D_PART, A_PART = 0, 1, 2

_RED_ROWS: dict[Chain, Row] = memo()
_PAIRS: dict[tuple[int, int], tuple[int, int, int, int]] = memo()
# the one entry of the closed rows for each canonical (n0, nd, na, den)
_ENTRIES: dict[tuple[int, int, int, int], ParamPoly] = memo()


def pair_constants(x: int, y: int) -> tuple[int, int, int, int]:
    """(alpha, b, gamma, K): the rule v(x)v(y) -> alpha v(1)v(K) + b v(0)v(K+1) + gamma v(K), times K.

    K = x + y - 1, and 1 for the rule (1, 0), whose K is 0.  The
    coefficients are read from the active rule table and returned as int
    numerators over K, memoized while the table stays the same.  A word of
    any other shape, or a coefficient that is no integer over K, raises
    ``InvariantError`` naming the rule.
    """
    got = _PAIRS.get((x, y))
    if got is None:
        k = x + y - 1
        coeffs = {(1, k): 0, (0, k + 1): 0, (k,): 0}
        for word, q in checked_rule(x, y):
            if word not in coeffs:
                raise InvariantError(
                    f"rule {word_to_text((x, y))} has the word {word_to_text(word)}, "
                    "outside the closed row's three shapes"
                )
            coeffs[word] = q
        k = max(k, 1)
        nums = [q * k for q in coeffs.values()]
        if any(n.denominator != 1 for n in nums):
            raise InvariantError(
                f"rule {word_to_text((x, y))} has a coefficient that is no integer over {k}"
            )
        got = _PAIRS[(x, y)] = (*(int(n) for n in nums), k)
    return got


def row_parts(c: Chain) -> tuple[Parts, int]:
    """The closed row of c over ints: ({source chain: [n0, nd, na]}, den).

    The formula and its derivation are in the module docstring; the
    denominator is the lcm of K over the pairs, and a triple's items are
    indexed by ``CONST``, ``D_PART`` and ``A_PART``; a triple may be zeros.
    """
    n = len(c)
    if n == 1:
        if c[0] == 0:
            return {(): [0, 0, 1]}, 1
        if c[0] == 1:
            return {(): [-1, 1, 0]}, 1
        return {}, 1
    pairs = [pair_constants(c[i], c[i + 1]) for i in range(n - 1)]
    den = lcm(*[p[3] for p in pairs])  # a list, as in ParamPoly.sum_of
    parts: Parts = {}
    if c[0] == 1:  # c = (1, 0): the peel v(1) [0]
        parts[(0,)] = [0, den, 0]
    tail = n - 3 if c[-2:] == (1, 0) else n  # the pairs from here on have no sigma term
    earlier = 0  # sum of (letter - 1) over the letters before the pair
    for i in range(n - 1):
        x, y = c[i], c[i + 1]
        alpha, b, gamma, d = pairs[i]
        scale = den // d if i % 2 else -(den // d)  # (-1)^j for the pair j = i + 1
        head, rest = c[:i], c[i + 2 :]
        m_minus = head + (x + y - 1,) + rest
        sigma = 0 if i >= tail else x * y - x - y
        minus = parts.setdefault(m_minus, [0, 0, 0])
        minus[CONST] += scale * (gamma + alpha * earlier + sigma * d)
        minus[D_PART] += scale * alpha
        if b:
            m_plus = head + (x + y,) + rest
            parts.setdefault(m_plus, [0, 0, 0])[A_PART] += scale * b
            for t in range(i + 1, n - 1):
                letter = m_plus[t]
                if letter:
                    dec = m_plus[:t] + (letter - 1,) + m_plus[t + 1 :]
                    if is_chain(dec):
                        parts.setdefault(dec, [0, 0, 0])[CONST] -= scale * b * letter
        earlier += x - 1
    return parts, den


def _interned(n0: int, nd: int, na: int, den: int) -> ParamPoly:
    """``ParamPoly.affine(n0, nd, na, den)``, one shared object per value.

    The key is the canonical form of the ints, with their gcd divided out,
    so equal values get the same object in every row; ``clear_caches``
    drops the table together with the rows.
    """
    g = gcd(den, n0, nd, na)
    key = (n0 // g, nd // g, na // g, den // g)
    val = _ENTRIES.get(key)
    if val is None:
        val = _ENTRIES[key] = ParamPoly.affine(n0, nd, na, den)
    return val


def _row(c: Chain, parts: Parts, den: int, entry: Callable[..., ParamPoly]) -> Row:
    """The row of c from its int triples over den, checking the grade split.

    Triples of zeros are skipped.  The constant and D parts sit where
    source and target grades agree, the a part where the source grade
    exceeds the target's by one; that decomposition is what makes the a = 0
    complex split by grade.  A violation raises ``InvariantError`` naming
    the chain and the entry.  Each entry is ``entry(n0, nd, na, den)``
    (``ParamPoly.affine`` or ``_interned``), in the order of the triples.
    """
    s = grade(c)
    row: Row = {}
    for cp, (n0, nd, na) in parts.items():
        if n0 or nd or na:
            val = row[cp] = entry(n0, nd, na, den)
            up = grade(cp) - s
            if (n0 or nd) and up != 0 or na and up != 1:
                raise InvariantError(
                    f"row of {chain_to_text(c)} breaks the grade split at {chain_to_text(cp)}: {val}"
                )
    return row


def reduced_row(c: Chain) -> Row:
    """Row of the reduced differential at chain c over the source basis: the closed row, memoized.

    Its entries are interned: equal entries of any two rows are one object.
    A c that is no nonempty chain raises the ``ValueError`` of ``bar_row``,
    checked once, when the row is built.
    """
    row = _RED_ROWS.get(c)
    if row is None:
        if not c or not is_chain(c):
            raise ValueError(f"{c} is not a nonempty chain")
        row = _RED_ROWS[c] = _row(c, *row_parts(c), _interned)
    return row


# a term's part by its word; other words act on the generator as 0
_WORD_PART = {(): CONST, (0,): A_PART, (1,): D_PART}


def bar_row(c: Chain) -> Row:
    """The row of c read off the bar reduction: the first oracle of ``reduced_row``.

    One pass over the int numerators of ``delta_generic(c)`` and of the
    chains ``down`` with one letter decremented fills the triples of
    ``row_parts`` over the lcm of their denominators: the constant part
    (the raw c0 terms, whose word is empty, and -letter times the psi terms
    of each ``down``, the v(0) terms of ``delta_generic(down)``), the D part
    (the v(1) terms of c) and the a part (the v(0) terms of c).
    """
    own = delta_generic(c)
    downs = [(mult, delta_generic(down)) for mult, down in _decrements(c) if is_chain(down)]
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
    return _row(c, parts, den, ParamPoly.affine)


def square_rows(chains: Iterable[Chain]) -> Iterator[tuple[Chain, Row]]:
    """(c, row of the square of the reduced differential at c) for each chain, in order.

    A row is empty when d∘d = 0 at its chain.  The entry at each source
    chain is the sum over middle chains of reduced_row(c)[mid] *
    reduced_row(mid)[src], added once with ``ParamPoly.sum_of``; zero sums
    are dropped.  The chains share one product table: equal entries of
    different rows are one object, so the same pairs of entry objects recur
    from chain to chain, and each distinct pair is multiplied once, with
    ``ParamPoly.__mul__``.  The table and the rows read live as long as the
    generator, one run, and no longer.  The table keys on the ids of the two
    entries, so it holds every row it reads, and with it every entry whose
    id it uses: no such id can be reused during the run, and rows whose
    entries are not interned stay correct.  Each row is read once per run.
    """
    rows: dict[Chain, Row] = {}  # every row read, alive for the run
    products: dict[int, dict[int, ParamPoly]] = {}  # id(v1) -> {id(v2): v1 * v2}

    def row_of(c: Chain) -> Row:
        row = rows.get(c)
        if row is None:
            row = rows[c] = reduced_row(c)
        return row

    for c in chains:
        terms: defaultdict[Chain, list[ParamPoly]] = defaultdict(list)
        for mid, v1 in row_of(c).items():
            by_right = products.setdefault(id(v1), {})
            for src, v2 in row_of(mid).items():
                product = by_right.get(id(v2))
                if product is None:
                    product = by_right[id(v2)] = v1 * v2
                terms[src].append(product)
        square: Row = {}
        for src, polys in terms.items():
            total = ParamPoly.sum_of(polys)
            if total:
                square[src] = total
        yield c, square


def square_row(c: Chain) -> Row:
    """Row of the square of the reduced differential at chain c: ``square_rows`` of c alone."""
    [(_, square)] = square_rows([c])
    return square


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
