"""Chains and the free-resolution differential.

Degree-n chains index a basis of the n-th term of a free resolution of the
trivial module over the coefficient algebra.  A tuple (m_1, ..., m_n) of
letters m_i >= 0 is a chain when

    m_1, ..., m_{n-2} >= 2   and   (m_{n-1} >= 2  or  (m_{n-1}, m_n) == (1, 0));

every 1-letter tuple is a chain and so is the empty tuple (degree 0).  Each
adjacent pair of a chain is then a rewriting-rule left-hand side, and the
minimal weight in degree n is 2n - 3 (letters n >= 2), so the grade
``weight - letters`` is bounded below by n - 3 (``lowest_grade``).

The differential is computed two ways:

* ``delta_generic`` runs the standard two-operator iteration: ``delta_prime``
  peels the leading letter and merges adjacent slots, ``delta_dprime``
  re-splits the leftmost composite slot while the slot prefix stays a chain.
  Iteration stops when every bracket is a chain of single letters.  This is
  the authority: it only uses the rewriting system.  The iteration is linear
  in the bracket, so ``reduce_bracket`` reduces each bracket once, depth
  first, and memoizes the value of every bracket it settles, final, dead or
  rewritten, while the rule table stays the same, so ``delta_dprime`` runs
  once per distinct bracket; a chain's differential is ``delta_prime`` of
  its letters with each resulting bracket replaced by that value.  Every
  bracket the iteration meets is single letters with at most one
  two-letter slot.  Written out as letters t, with t[f] the first letter
  below 2, such a bracket reduces to zero unless t[f+1:] is a chain
  or t[f:] = (1, 0, 0); ``delta_dprime`` maps every other one to zero at
  once.  The rewrite of one that is not dead is the peel term and the
  merges into slots f - 1 and f (and into f + 1 when t[f:] = (1, 1, 0)):
  every other child is dead at once, and every coefficient is an integer.
  So rewrites, memoized values and their products are Python ``int``s; a
  normal form read off ``nf_word`` whose denominator is not 1, or a bracket
  of any other shape, raises ``InvariantError`` naming the bracket.  Only a
  peel term carries a leading word, and its child is single letters,
  settled at once, so neither the reduction nor ``delta_generic``
  multiplies two words (``_times``); ``compose_delta`` alone does, through
  ``nf_word``.  ``delta_prime`` of the letters is int numerators over one
  denominator, and so is every memoized differential: a
  ``scalars.RationalSum`` in canonical form, whose readers
  (``oracles.bar_row`` and ``compose_delta``) sum ints.  ``compose_delta``
  makes one ``Fraction`` per surviving term of its value, and
  ``fractions()`` makes them for a differential.  ``delta_dprime``'s
  docstring has the proofs.  Production rows no longer read this route:
  it serves ``gsb``, ``ddzero --letters`` and the row oracles.

* ``oracles.delta_closed`` evaluates the closed form derived below.  It
  must agree with the generic computation term by term; the test suite
  enforces that on every chain in range.  The derivation stays here, since
  ``cochain`` derives the production row from it.

The closed form.  Write c = (c_1, ..., c_L), and for the pair j, 1 <= j < L,
x = c_j, y = c_{j+1}, s_j = (-1)^j, K = x + y - 1, m- for c with (x, y)
replaced by the letter K and m+ for c with (x, y) replaced by K + 1.  The
rule of the pair is

    v(x)v(y) -> alpha v(1)v(K) + b v(0)v(K+1) + gamma v(K),

with alpha = xy/K, b = -(x - 1)(y - 1)/K and gamma = x(x - 1)/K for x >= 2,
and alpha = 0, b = gamma = 1 for (1, 0), where K = 0.  Then

    delta(c) = v(c_1) [c_2 ... c_L]
               + sum_j s_j ( alpha v(1) [m-] + alpha * sum_{t<j} (c_t - 1) [m-]
                             + b v(0) [m+] + b * sum_{t<j} c_t [m+ with letter t decremented]
                             + gamma [m-] ),

every bracket that is no chain dropped.  m- and m+ are chains whenever c
is.  Derivation:

* ``delta_prime`` of the letters is the peel v(c_1) [c_2 ... c_L] and, for
  each pair j, s_j times the bracket with the slots j and j + 1 merged.
  v(x)v(y) is a rule's left side, and the three words of its right side
  are normal, so the merge of pair j gives the rule's three coefficients:
  gamma times the single letters m-, final, and alpha and b times one
  bracket each with the two-letter slot (1, K) or (0, K + 1) at p = j - 1.
* The cascade.  In such a bracket the letters before the slot are >= 2,
  so f = p, and the letters after f are the tail of m- or m+, a chain: the
  bracket is not dead.  Its rewrite keeps the peel term and the merge into
  slot p - 1: ``delta_dprime`` shows every other merge dead at once, the
  merge into f is the split point, and t[f:] is never (1, 1, 0), since
  K = 1 only for a final (2, 0).  For p = 0 the peel is
  v(1) [m-] or v(0) [m+].  For p >= 1 the peel's child is zero: the
  slot's first letter, below 2, is either before its last two letters or
  the first of them, followed by a letter >= 1.  The merge of c_p with the
  slot's first letter uses the rules
      (i, 1) -> v(1)v(i) + (i - 1) v(i),    (i, 0) -> v(0)v(i) + i v(i - 1):
  the leading v(1) or v(0) moves one slot left, into a bracket of the same
  form, and leaves (c_p - 1) [m-] or c_p [m+ with letter p decremented]
  behind, each final or zero.  By induction on p the cascade gives the
  sums over the earlier letters t < j.
* The signs.  A rewrite at p carries (-1)^p and the merge into slot p - 1
  carries (-1)^p from ``delta_prime``, so each cascade step has sign +1,
  and so has the final peel at p = 0: every term of pair j keeps s_j.
* Two cases are separate.  For c = (..., x, 1, 0) the pair (x, 1) has
  b = 0 and the pair (1, 0) has alpha = 0: its terms are the tail
  correction (-1)^(L-1) ([c_1 ... c_{L-2} 0] + v(0) [c_1 ... c_{L-2} 1] +
  the decrements of the earlier letters), which the formulas for x >= 2
  would divide by K = 0.  At a final (2, 0), K = 1: alpha = 0, b = 1,
  gamma = 2, and m- ends in the letter 1.

Output elements are keyed by (target chain, leading word), with the
leading word of length at most one: a ``RationalSum`` for ``delta_generic``,
whose ``fractions()`` are the {key: Fraction} of ``delta_closed``.  A
term that breaks this shape raises ``InvariantError`` naming the chain; the
check is not an ``assert``, so it also runs under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import InvariantError, Word, memo, nf_word, weight, word_to_text
from .scalars import RationalSum, add_term

Chain = tuple[int, ...]
Slots = tuple[Word, ...]


def is_chain(c: Chain) -> bool:
    if len(c) < 2:
        return not c or c[0] >= 0
    x, y = c[-2], c[-1]
    if not (x >= 2 and y >= 0 or x == 1 and y == 0):
        return False
    return len(c) == 2 or min(c[:-2]) >= 2


def grade(c: Chain) -> int:
    """Weight minus letter count; the differential preserves the filtration."""
    return sum(c) - len(c)


def chain_to_text(c: Chain) -> str:
    return "[" + "|".join(str(m) for m in c) + "]"


def lowest_grade(n: int) -> int:
    """Lowest grade of an n-letter chain: 0 for (), -1 for [0] and [1|0], n - 3 beyond."""
    return max(n - 3, -1) if n else 0


def enumerate_chains(n: int, s_max: int) -> list[Chain]:
    """All n-letter chains of grade <= s_max, in lexicographic order."""
    if n < 0 or s_max < lowest_grade(n):
        return []
    if n == 0:
        return [()]
    if n == 1:
        return [(k,) for k in range(0, s_max + 2)]
    w_max = n + s_max
    # the interior letters, one position at a time: each is >= 2 and leaves
    # room for 2 per later interior letter and 1 for the tail
    prefixes: list[Chain] = [()]
    for i in range(n - 2):
        reserve = 2 * (n - 3 - i) + 1
        prefixes = [p + (m,) for p in prefixes for m in range(2, w_max - sum(p) - reserve + 1)]
    # the tail: either (1, 0) or (x >= 2, y >= 0); prefixes and tails both
    # come in lexicographic order, so the chains do
    out: list[Chain] = []
    for prefix in prefixes:
        used = sum(prefix)
        if used + 1 <= w_max:
            out.append(prefix + (1, 0))
        for x in range(2, w_max - used + 1):
            for y in range(0, w_max - used - x + 1):
                out.append(prefix + (x, y))
    return out


# ---------------------------------------------------------------------------
# generic differential

# a bar element of the reduction: int coefficients
BarElem = dict[tuple[Word, Slots], int]


def _bracket_text(slots: Slots) -> str:
    return "[" + "|".join(word_to_text(w) for w in slots) + "]"


def _non_integral(slots: Slots, nf: RationalSum) -> InvariantError:
    """The error for a normal form with den > 1, naming its first non-integral coefficient."""
    den = nf.den
    q = next(Fraction(n, den) for n in nf.nums.values() if n % den)
    return InvariantError(
        f"bar reduction of {_bracket_text(slots)} meets the non-integral "
        f"coefficient {q}"
    )


def delta_prime(slots: Slots) -> RationalSum:
    """Peel the first slot out front and merge each adjacent pair.

    [w1|...|wk] maps to w1 [w2|...|wk] plus sum over j of (-1)^j
    [w1|...|NF(w_j w_{j+1})|...|wk], the merged slot expanded multilinearly.
    The value is int numerators keyed by (leading word, bracket) over one
    denominator, in canonical form.
    """
    out = RationalSum()
    out.add((slots[0], slots[1:]), 1, 1)
    for j in range(1, len(slots)):
        nf = nf_word(slots[j - 1] + slots[j])
        den = nf.den
        for word, n in nf.nums.items():
            merged = slots[: j - 1] + (word,) + slots[j + 1 :]
            out.add(((), merged), -n if j % 2 else n, den)
    return out.canonical()


def delta_dprime(slots: Slots) -> BarElem | None:
    """One rewriting pass on a bracket; None means the bracket is final.

    A bracket of single letters is final when the letters form a chain and
    zero otherwise.  Otherwise let the leftmost composite slot sit at
    position p (0-based).  Unless the bracket is dead (below) its rewrite
    splits the slot in two and takes ``delta_prime`` of the longer bracket
    with sign (-1)^p, plus the bracket itself; the copy regenerated by the
    merge at the split point cancels that last summand.  A dead bracket
    maps to zero.

    The heads test: a bracket is dead when the p letters before slot p
    followed by the slot's first letter form no chain.  That is the rule of
    the iteration as defined.  The reduction meets only single letters with
    at most one two-letter slot, a normal word (0, c) or (1, c >= 1):
    ``delta_prime`` of single letters makes such brackets, and so does the
    rewrite of one, which splits its slot and merges single letters.  Any
    other bracket raises ``InvariantError`` naming it, also under
    ``python -O``.  For those the reduction meets the letter test decides,
    and the coefficients of the rewrite are ``int``s.  Let t be the
    letters, the slot written as two, and f the first index with t[f] < 2
    (the slot's first letter is below 2, so f exists).  The bracket is dead
    unless t[f+1:] is a chain or t[f:] = (1, 0, 0).  A bracket that is not
    dead satisfies the heads test (f = p, or f = p - 1 with
    t[f:] = (1, 0, 0)), so the letter test only adds dead brackets.
    [1|00] reduces to v(0)[1|0] and [2|1|00] to v(0)[2|1|0], so the
    exception (1, 0, 0) is needed.

    Proof that a bracket the letter test calls dead reduces to zero under
    the heads test, by induction on the depth of its reduction.  Every
    suffix of a chain is a chain, so a chain has at most one letter after
    its f, and a dead t of single letters is no chain.  A dead bracket that
    satisfies the heads test splits into the single letters t.  Its rewrite
    holds, besides the merge that cancels the bracket itself, the peel child
    and the merges into each slot k, and each of them fails the heads test,
    is no chain, or is dead with a shallower reduction:
    - the peel child t[1:] has the suffix t[f+1:], which is no chain;
    - at k < f (t[k] >= 2) the child keeps t[f+1:] as a suffix: a one-letter
      word leaves single letters, no chain; a two-letter word w starts with
      0 or 1, so the child's f is k and its tail w[1:] + t[k+2:] ends in
      t[f+1:], no chain and longer than (0, 0);
    - at k = f the letters stay t, except that (1, 0) becomes (0, 1) and
      (0,): the tail (1,) + t[f+2:] and the letters t[:f] + (0,) + t[f+2:]
      are chains only if t[f+2:] is () or (0,), that is, if t[f+1:] = (0,)
      or t[f:] = (1, 0, 0);
    - at k = f + 1 a normal pair keeps t; a rule's two-letter word satisfies
      the heads test only as (0, y >= 1) after t[f] = 1, and the tail
      (0, y) + t[f+3:] is no chain and not (0, 0); a one-letter word gives a
      chain only from t[f+1:] = (1, 0), itself a chain;
    - at k >= f + 2, t[f] < 2 lies before the last two heads up to slot k,
      so the child fails the heads test.
    Exactness, that every such bracket which reduces to zero is dead, is
    tested on all brackets of up to five slots.

    The rewrite of a bracket that is not dead is built straight from its
    letters, in ``int``: the peel term t[0] [t[1:]] and the merges into
    slots f - 1 and f, less the split point p, plus the merge into slot
    f + 1 when t[f:] = (1, 1, 0).  Every merge left out gives children that
    are dead at once, by the letter test.  The slot is (t[p], t[p+1]), not
    (1, 0), so t[f:] starts below 2, has length at least 2 and is no chain.
    - At k < f - 1, t[k] and t[k+1] are >= 2 and the child ends in t[f:]: a
      one-letter word leaves single letters, no chain; a two-letter word
      makes k the child's f, with a tail that ends in t[f:], no chain, and
      is longer than (0, 0).
    - At k = f + 1 (f = p; for f = p - 1 it is the split point), t[f+1:] is
      a chain, so the pair is a rule's left side, either (b >= 2, c) or the
      last two letters (1, 0).  A two-letter word (0, y) or (1, y >= 1)
      after t[f] < 2 leaves the tail (0, y) + t[f+3:] or (1, y) + t[f+3:],
      no chain and not (0, 0).  A one-letter word leaves single letters
      with t[f] before the last two, unless it ends the bracket; then they
      are t[:f] + (t[f], w), a chain only for (1, 0), that is, t[f:] =
      (1, 1, 0).  Only that merge is kept.
    - At k >= f + 2, t[f] < 2 lies before the merged slot with a letter
      between them, so the child's f is still f and its tail holds a letter
      below 2 before its last two, or ends in the normal two-letter word:
      no chain, and longer than (0, 0).
    Every kept merge has integer coefficients.  At f - 1 the pair is
    (i >= 2, 0), which gives v(0)v(i) + i v(i-1), or (i >= 2, 1), which
    gives v(1)v(i) + (i-1) v(i); at f and f + 1 it is (1, 0), which gives
    v(0)v(1) + v(0).  The normal forms read off ``nf_word`` are canonical,
    so denominator 1 is exactly "every coefficient is an integer": their
    numerators are kept as ``int``, and any other denominator raises
    ``InvariantError`` naming the bracket and the first non-integral
    coefficient.
    """
    n = len(slots)
    t = sum(slots, ())  # the letters
    if len(t) == n:
        return None if is_chain(t) else {}
    if len(t) > n + 1:
        raise InvariantError(
            f"bar reduction meets {_bracket_text(slots)}, which is not single "
            "letters with at most one two-letter slot"
        )
    p = next(idx for idx, w in enumerate(slots) if len(w) > 1)
    split = slots[:p] + ((slots[p][0],), slots[p][1:]) + slots[p + 1 :]
    sign = -1 if p % 2 else 1
    for f, m in enumerate(t):
        if m < 2:
            break
    tail = t[f:]
    if tail != (1, 0, 0) and not is_chain(t[f + 1 :]):
        return {}
    out = {(split[0], split[1:]): sign}
    for k in range(max(f - 1, 0), f + 2 if tail == (1, 1, 0) else f + 1):
        if k == p:
            continue
        s = sign if k % 2 else -sign  # (-1)^(p + k + 1)
        nf = nf_word(split[k] + split[k + 1])
        if nf.den != 1:
            raise _non_integral(slots, nf)
        for word, n in nf.nums.items():
            add_term(out, ((), split[:k] + (word,) + split[k + 2 :]), s * n)
    return out


class IterationOverflow(InvariantError):
    """The bracket rewriting returned to a bracket it is still reducing."""


Terms = tuple[tuple[tuple[Chain, Word], int], ...]

# reduced value of every bracket settled: final, dead or rewritten
_BRACKETS: dict[Slots, Terms] = memo()
_DELTA_CACHE: dict[Chain, RationalSum] = memo()


def _times(acc: dict, lam: Word, q: int, terms: Terms) -> None:
    """acc += q * lam * terms in ``int``; lam or every word of terms is empty.

    The words need no ``nf_word``: only the peel term of a rewrite carries a
    word, and its child is single letters, which ``_settle`` resolves at
    once to its chain with the empty word, or to zero.  The merge terms,
    whose children the reduction reduces, carry the empty word.
    """
    for (cp, mu), r in terms:
        add_term(acc, (cp, lam + mu), q * r)


def _settle(slots: Slots) -> tuple[Terms | None, BarElem | None]:
    """The known value of a bracket (cached, final or zero), else its rewrite.

    A final or dead bracket is stored here; a rewritten one is stored by
    ``reduce_bracket`` once its children are reduced.
    """
    known = _BRACKETS.get(slots)
    if known is not None:
        return known, None
    res = delta_dprime(slots)
    if res is None:
        known = (((tuple(w[0] for w in slots), ()), 1),)
    elif not res:
        known = ()
    else:
        return None, res
    _BRACKETS[slots] = known
    return known, None


def reduce_bracket(slots: Slots) -> Terms:
    """Fully reduced value of one bracket, memoized with every bracket settled.

    A final bracket is its chain of letters and a bracket that
    ``delta_dprime`` maps to zero is zero.  Otherwise the value is the sum
    of q * lam * reduce_bracket(child) over the terms q lam [child] of
    ``delta_dprime(slots)``, reduced depth first on an explicit stack of
    the brackets still open, so the interpreter's recursion limit plays no
    part.

    The descent ends.  Every bracket met while reducing a chain c has
    len(c) - 1 slots, each of one or two letters (``delta_dprime`` raises
    on any other shape), and total weight at most sum(c) (``_check_rule``
    rejects any rule that raises (weight, length)).  So only finitely many
    brackets are reachable, and the descent ends unless it re-enters an
    open bracket: exactly a rewrite that returns to itself, which raises
    ``IterationOverflow`` naming the bracket.
    """
    known, res = _settle(slots)
    if known is not None:
        return known
    # open bracket -> pending rewrite terms, value so far and the q by which
    # its parent takes it (a pushed child is a merge's), in descent order
    stack = {slots: (iter(res.items()), {}, 1)}
    frame = stack[slots]
    while True:
        for (lam, child), q in frame[0]:
            known, res = _settle(child)
            if known is None:
                if child in stack:
                    raise IterationOverflow(
                        f"bracket rewriting returns to {_bracket_text(child)} "
                        "while reducing it"
                    )
                frame = stack[child] = (iter(res.items()), {}, q)
                break
            _times(frame[1], lam, q, known)
        else:
            done, (_, acc, q) = stack.popitem()
            known = _BRACKETS[done] = tuple(acc.items())
            if not stack:
                return known
            frame = stack[next(reversed(stack))]
            _times(frame[1], (), q, known)


def delta_generic(c: Chain) -> RationalSum:
    """Differential of the basis element indexed by chain c, by iteration.

    ``delta_prime`` of the letter brackets, each resulting bracket reduced
    by ``reduce_bracket`` and given its leading word: only the peel has one,
    and its child is a chain with the empty word, or zero.  The reduced
    values are integral, so the products by the numerators of
    ``delta_prime`` are ints over its one denominator.  The value is int
    numerators keyed by (target chain, leading word) over one denominator,
    in canonical form; it is memoized, and callers must not change it.
    """
    cached = _DELTA_CACHE.get(c)
    if cached is not None:
        return cached
    if not is_chain(c) or not c:
        raise ValueError(f"{c} is not a nonempty chain")
    bar = delta_prime(tuple((m,) for m in c))
    nums: dict[tuple[Chain, Word], int] = {}
    for (lam, slots), n in bar.nums.items():
        for (cp, mu), r in reduce_bracket(slots):
            add_term(nums, (cp, lam + mu), n * r)
    out = RationalSum(nums, bar.den).canonical()
    wt = sum(c)
    for (cp, lam) in nums:
        # structural invariants of the computed differential
        if not (
            len(lam) <= 1
            and is_chain(cp)
            and len(cp) == len(c) - 1
            and weight(lam) + sum(cp) in (wt - 1, wt)
        ):
            raise InvariantError(
                f"differential of {chain_to_text(c)} has the malformed term "
                f"{lam} {chain_to_text(cp)}"
            )
    _DELTA_CACHE[c] = out
    return out


# ---------------------------------------------------------------------------
# composition check

def compose_delta(c: Chain) -> dict[tuple[Chain, Word], Fraction]:
    """Apply the differential twice; the result must vanish identically.

    Leading words multiply through the rewriting system, so the value lives
    in brackets with arbitrary normal leading words.  The products of the
    two differentials' int numerators are summed over one denominator, and
    each surviving term is returned as one ``Fraction``.
    """
    if len(c) < 2:
        raise ValueError("need a chain of degree >= 2")
    acc = RationalSum()
    outer = delta_generic(c)
    for (c1, lam), q in outer.nums.items():
        inner = delta_generic(c1)
        d = outer.den * inner.den
        for (cp, mu), r in inner.nums.items():
            if lam and mu:
                nf = nf_word(lam + mu)
                n, e = q * r, d * nf.den
                for word, t in nf.nums.items():
                    acc.add((cp, word), n * t, e)
            else:
                acc.add((cp, lam + mu), q * r, d)
    return acc.fractions()
