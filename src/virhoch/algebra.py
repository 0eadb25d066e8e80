"""Rewriting arithmetic in the positive coefficient algebra.

The algebra is generated over the rationals by symbols v(0), v(1), v(2), ...
subject to two reduction rules (a complete rewriting system for the
deg-lex order with v(0) < v(1) < ...):

    v(1)v(0) -> v(0)v(1) + v(0)

    v(n)v(m) -> nm/(n+m-1) v(1)v(n+m-1)
                - (n-1)(m-1)/(n+m-1) v(0)v(n+m)
                + n(n-1)/(n+m-1) v(n+m-1)          for n >= 2, m >= 0

A word is *normal* when no adjacent pair matches a left-hand side, i.e. it
has the shape v(0)^p v(1)^q v(k) with k >= 1 whenever q >= 1.  Every element
has a unique normal form; confluence is exercised by ``check_overlap`` over
all inclusion-free critical pairs and soundness by
``verify_defining_relations`` against the two defining families

    v(n)v(m) - 3 v(n-1)v(m+1) + 3 v(n-2)v(m+2) - v(n-3)v(m+3) = 0   (n >= 3)
    v(n)v(m) - v(m)v(n) = (n-m) v(n+m-1)                            (n > m)

Words are plain int tuples.  ``nf_word`` gives the normal form of one word
as a ``scalars.RationalSum``: int numerators keyed by normal word over one
denominator, in canonical form (the denominator is >= 1 and coprime to the
numerators as a whole, and no numerator is zero), so every reader sums
ints.  ``normal_form`` takes (word, coeff) pairs to the normal form of
their sum as a dict {word: Fraction} with no zero values.

Every rewrite must respect the (weight, length) filtration and strictly
decrease deg-lex; a rewrite that does not means a broken rule table.  The
check runs once per rule: the first use of a pair (i, j) builds its
right-hand side, checks each of its words against v(i)v(j), and keeps it in
a table that ``clear_caches`` empties with the other memos.  A
rewrite of a longer word then only splices that right-hand side between
the word's head h and tail t, and needs no check of its own: weight and
length are additive, so (weight, length) of h.r.t against h.(i, j).t
compares as that of r against (i, j); and deg-lex compares lengths first,
which are those of r and (i, j) plus the same amount, and at equal length
the shared head and tail leave r against (i, j) letter by letter.  So the
rewrite passes exactly when its rule does.

The two checks that a sum vanishes (a defining relation, and the two
expansions of an overlap, one of them negated) each build one normal-form
sum over ints and test it for emptiness; ``normal_form`` reads the same sum
out as Fractions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction

from .scalars import RationalSum

Word = tuple[int, ...]


def word_to_text(w: Word) -> str:
    return ".".join(f"v{i}" for i in w)


def weight(w: Word) -> int:
    return sum(w)


def deglex_key(w: Word) -> tuple[int, Word]:
    # deg-lex: compare length first, then letters left to right.
    return (len(w), w)


def is_obstruction(i: int, j: int) -> bool:
    """True when v(i)v(j) is a rule left-hand side."""
    return i >= 2 or (i, j) == (1, 0)


def is_normal_word(w: Word) -> bool:
    return all(not is_obstruction(w[k], w[k + 1]) for k in range(len(w) - 1))


def leftmost_obstruction(w: Word) -> int | None:
    for k in range(len(w) - 1):
        if is_obstruction(w[k], w[k + 1]):
            return k
    return None


def rule_rhs(i: int, j: int) -> list[tuple[Word, Fraction]]:
    """Right-hand side of the rule rewriting v(i)v(j), as (word, coeff) pairs.

    Zero coefficients are left out; the last pair is never zero.
    """
    if not is_obstruction(i, j):
        raise ValueError(f"v({i})v({j}) is not a rule left-hand side")
    if (i, j) == (1, 0):
        return [((0, 1), Fraction(1)), ((0,), Fraction(1))]
    k = i + j - 1
    out = [
        ((1, k), Fraction(i * j, k)),
        ((0, i + j), Fraction(-(i - 1) * (j - 1), k)),
        ((k,), Fraction(i * (i - 1), k)),
    ]
    return [(w, c) for w, c in out if c]


class InvariantError(RuntimeError):
    """A computed value broke an identity that holds for every input."""


def _check_rule(pair: Word, word: Word) -> None:
    if (weight(word), len(word)) > (weight(pair), len(pair)):
        problem = "raises the (weight, length) filtration"
    elif deglex_key(word) >= deglex_key(pair):
        problem = "does not decrease deg-lex"
    else:
        return
    raise InvariantError(f"rewrite {word_to_text(pair)} -> {word_to_text(word)} {problem}")


_MEMOS: list[dict] = []


def memo() -> dict:
    """A new empty dict, registered as a memo of values under the active rule."""
    _MEMOS.append({})
    return _MEMOS[-1]


def clear_caches() -> None:
    """Empty every memo made by ``memo()`` (see ``rule_defect``)."""
    for table in _MEMOS:
        table.clear()


# The active rule's right-hand sides, each order-checked against its pair
# once (see the module docstring), and the single-word normal forms in
# canonical int form: pure rational data, shared by every scalar type.
_RULES: dict[Word, list[tuple[Word, Fraction]]] = memo()
_NF_CACHE: dict[Word, RationalSum] = memo()


def checked_rule(i: int, j: int) -> list[tuple[Word, Fraction]]:
    """The active rule's right-hand side for v(i)v(j), order-checked on first use."""
    pair = (i, j)
    rhs = _RULES.get(pair)
    if rhs is None:
        rhs = rule_rhs(i, j)
        for word, _ in rhs:
            _check_rule(pair, word)
        _RULES[pair] = rhs
    return rhs


def _expand_at(w: Word, k: int) -> list[tuple[Word, Fraction]]:
    head, tail = w[:k], w[k + 2 :]
    return [(head + rhs + tail, coeff) for rhs, coeff in checked_rule(w[k], w[k + 1])]


def nf_word(w: Word) -> RationalSum:
    """Normal form of one word: int numerators keyed by normal word, over one denominator.

    The value is canonical and memoized; callers must not change it.
    """
    cached = _NF_CACHE.get(w)
    if cached is not None:
        return cached
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in _NF_CACHE:
            stack.pop()
            continue
        k = leftmost_obstruction(cur)
        if k is None:
            _NF_CACHE[cur] = RationalSum({cur: 1})
            stack.pop()
            continue
        children = _expand_at(cur, k)
        missing = [c for c, _ in children if c not in _NF_CACHE]
        if missing:
            stack.extend(missing)
            continue
        total = RationalSum()
        for child, coeff in children:
            inner = _NF_CACHE[child]
            n, d = coeff.numerator, coeff.denominator * inner.den
            for word, m in inner.nums.items():
                total.add(word, n * m, d)
        _NF_CACHE[cur] = total.canonical()
        stack.pop()
    return _NF_CACHE[w]


def _nf_sum(terms: Iterable[tuple[Word, Fraction]]) -> RationalSum:
    out = RationalSum()
    for word, coeff in terms:
        nf = nf_word(word)
        n, d = coeff.numerator, coeff.denominator * nf.den
        for nw, m in nf.nums.items():
            out.add(nw, n * m, d)
    return out


def _vanishes(terms: Iterable[tuple[Word, Fraction]]) -> bool:
    """True when the sum of coeff * word over the pairs has normal form 0."""
    return not _nf_sum(terms).nums


def normal_form(terms: Iterable[tuple[Word, Fraction]]) -> dict[Word, Fraction]:
    """Normal form of the sum of coeff * word over the pairs, as {word: coeff}.

    Linear and idempotent, and multiplicative with word concatenation.
    Coefficients may be ints or Fractions; the values are Fractions.
    """
    return _nf_sum(terms).fractions()


def check_overlap(n: int, m: int, p: int) -> bool:
    """Resolve the critical pair on v(n)v(m)v(p); True when confluent.

    Requires both adjacent pairs to be rule left-hand sides, i.e. n >= 2 with
    (m >= 2 or (m, p) == (1, 0)).  Confluent means that the first expansion
    minus the second has normal form 0.
    """
    if not (is_obstruction(n, m) and is_obstruction(m, p)):
        raise ValueError(f"({n},{m},{p}) is not an overlap ambiguity")
    w = (n, m, p)
    return _vanishes(_expand_at(w, 0) + [(word, -c) for word, c in _expand_at(w, 1)])


class RelationReport:
    """Outcome of re-checking the defining relations below a bound."""

    __slots__ = (
        "bound", "locality_checked", "commutator_checked", "overlaps_checked", "violations"
    )

    def __init__(self, bound: int):
        self.bound = bound
        self.locality_checked = self.commutator_checked = self.overlaps_checked = 0
        self.violations: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"relations up to {self.bound}: locality {self.locality_checked}, "
            f"commutators {self.commutator_checked}, overlaps {self.overlaps_checked}: {status}"
        )


def verify_defining_relations(bound: int) -> RelationReport:
    """Reduce both defining families with all indices <= bound to zero.

    Also resolves every overlap ambiguity with n, m, p <= bound.  The
    locality family starts at n = 3, so a bound below 3 would check none of
    it (and the least overlap is v(2)v(1)v(0)); such a bound raises
    ``ValueError``.
    """
    if bound < 3:
        raise ValueError("bound must be >= 3")
    report = RelationReport(bound)
    for n in range(3, bound + 1):
        for m in range(0, bound + 1):
            relation = [
                ((n, m), 1), ((n - 1, m + 1), -3), ((n - 2, m + 2), 3), ((n - 3, m + 3), -1)
            ]
            report.locality_checked += 1
            if not _vanishes(relation):
                report.violations.append(f"locality({n},{m})")
    for n in range(1, bound + 1):
        for m in range(0, n):
            relation = [((n, m), 1), ((m, n), -1), ((n + m - 1,), m - n)]
            report.commutator_checked += 1
            if not _vanishes(relation):
                report.violations.append(f"commutator({n},{m})")
    for n in range(2, bound + 1):
        for m in range(2, bound + 1):
            for p in range(0, bound + 1):
                report.overlaps_checked += 1
                if not check_overlap(n, m, p):
                    report.violations.append(f"overlap({n},{m},{p})")
        report.overlaps_checked += 1
        if not check_overlap(n, 1, 0):
            report.violations.append(f"overlap({n},1,0)")
    return report


# ---------------------------------------------------------------------------
# negative control: a scope in which a deliberately corrupted second rule
# family is active, so the downstream consistency suites must fail.
# ``ddzero --inject-defect`` (which ``scripts/check_engine.py`` runs), the
# tests and ``scripts/digest.py`` enter it.

_true_rule_rhs = rule_rhs


def _use_rule(rule: Callable[[int, int], list[tuple[Word, Fraction]]]) -> None:
    global rule_rhs
    if rule is not rule_rhs:
        rule_rhs = rule
        clear_caches()


@contextmanager
def rule_defect(enabled: bool = True) -> Iterator[None]:
    """Make the defective rule table active, or the true one if not enabled,
    for the block; the true one is active again after it, also on an exception.

    The rule table, normal forms, bar reduction, differentials, the closed
    row's pair constants and the reduced rows are memos made by ``memo()``,
    the one registry, so ``clear_caches`` drops them all when the rule
    changes; while it stays the same, runs in one process reuse each
    other's values.  The defect adds 1 to the v(i + j - 1) coefficient of
    every rule with i >= 2: the bar reduction meets it in every normal
    form, the closed rows in each pair's gamma.
    """
    _use_rule(_defective_rule_rhs if enabled else _true_rule_rhs)
    try:
        yield
    finally:
        _use_rule(_true_rule_rhs)


def _defective_rule_rhs(i: int, j: int) -> list[tuple[Word, Fraction]]:
    out = _true_rule_rhs(i, j)
    if i >= 2:
        word, coeff = out[-1]
        out[-1] = (word, coeff + 1)  # perturb one structure constant
    return out
