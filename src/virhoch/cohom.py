"""Graded complexes, exact ranks, dimension tables, and witness checks.

With shift parameter a = 0 the reduced differential preserves the grade
s = weight - letters, so the complex splits into finite graded pieces and
each cohomology dimension is an exact rank computation over the rationals.
With a != 0 the a-part lowers s by one, so the subcomplex of cochains
supported on grades <= S is finite and closed under d.  Its cohomology is
compared at S and S + 1 (stabilization).

Both routes assemble each degree once, over the window of chains of grade
<= T, sorted by grade.  ``matrix_d`` is the one row assembler.  It relies
on ``cochain.reduced_row``, which checks once per row that every entry is
a-free at its target's grade or a multiple of a one grade up.  With that
shape the rows of grade > s vanish on the columns of grade <= s, so the
rank of the window of grades <= s is the rank of a column prefix, and
``rank`` reads every prefix off one elimination.  The truncated route
reads the S + 1 window at the prefixes ending at grades S and S + 1.  At
a = 0 the a-linear entries vanish, so d is block-diagonal by grade and the
rank of the block at grade s is the prefix rank at s minus the prefix rank
at s - 1.

One exact sparse elimination, ``pivot_columns``, does all the linear
algebra.  Rows are kept primitive over Z, so no Fraction enters the inner
loop; the tests check the pivots against a naive rational Gaussian oracle.
The graded table and, when asked for, the chains carrying its classes come
from one pass.  A class of degree n sits at a pivot column of ker d_out
that is not a pivot column of im d_in.  The former are the non-pivots of
d_out eliminated with its columns mirrored.  Each block of a block-diagonal
matrix keeps its pivot count under any column order, so that same
elimination, mapped back, also gives the prefix ranks; d_out is eliminated
once.  ``locate_classes`` reads the classes off this pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .anick import Chain, InvariantError, enumerate_chains, grade, is_chain, lowest_grade
from .cochain import reduced_row
from .scalars import add_term, format_rational

Rational = Fraction


def window_basis(n: int, s_max: int) -> list[Chain]:
    """Degree-n chains of grade <= s_max, sorted by grade, lexicographic within one."""
    return sorted(enumerate_chains(n, s_max), key=grade)


class DiffMatrix:
    """Sparse rows indexed by target chains, columns by source chains."""

    __slots__ = ("source", "target", "entries")

    def __init__(
        self, source: list[Chain], target: list[Chain], entries: list[dict[int, Rational]]
    ):
        self.source = source
        self.target = target
        # entries[i][j] = coefficient of source[j] in d(·)(target[i]); zeros are not stored
        self.entries = entries


def matrix_d(
    n: int, source: list[Chain], target: list[Chain], delta: Rational, alpha: Rational
) -> DiffMatrix:
    """Differential from degree n to n + 1 between explicit bases.

    Every row comes from ``reduced_row``, which raises ``InvariantError``,
    also under ``python -O``, unless its entries are a-free where the
    source grade equals the target's and multiples of a where it is one
    higher.  ``matrix_d`` relies on that check, and ``rank`` reads grade
    windows and graded blocks off one elimination because of that shape.
    Each entry inside the bases is specialized once, except that at a = 0
    the a-linear ones, one grade up, are skipped: they vanish there.
    """
    col_of = {c: j for j, c in enumerate(source)}
    rows = []
    for tgt in target:
        s = grade(tgt)
        row = {}
        for src, val in reduced_row(tgt).items():
            j = col_of.get(src)
            if j is not None and (alpha or grade(src) == s):
                x = val.specialize(delta, alpha)
                if x:
                    row[j] = x
        rows.append(row)
    return DiffMatrix(source=source, target=target, entries=rows)


def pivot_columns(rows: Iterable[dict[int, Rational]]) -> list[int]:
    """Sorted pivot columns of the row echelon form of sparse rational rows.

    Exact over Z: each row is cleared to integers, eliminated as
    ``a * row - b * pivot_row`` with ``a, b`` the two leading entries over
    their gcd, and divided by its content, so rows stay primitive and no
    Fraction enters the inner loop.  The pivot set depends only on the row
    space, not on the order of the rows.
    """
    echelon: dict[int, dict[int, int]] = {}  # leading column -> primitive row
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values()))
        vec = {j: v.numerator * (mult // v.denominator) for j, v in row.items() if v}
        while vec:
            g = gcd(*vec.values())
            if g > 1:
                vec = {j: v // g for j, v in vec.items()}
            lead = min(vec)
            piv = echelon.get(lead)
            if piv is None:
                echelon[lead] = vec
                break
            g = gcd(piv[lead], vec[lead])
            a, b = piv[lead] // g, vec[lead] // g
            if a != 1:
                vec = {j: a * v for j, v in vec.items()}
            for j, v in piv.items():
                add_term(vec, j, -b * v)
    return sorted(echelon)


def rank(m: DiffMatrix, cuts: Iterable[int]) -> list[int]:
    """Rank of the first k columns of m, for each k in cuts.

    The pivots are leading columns, so the echelon rows whose pivot lies
    below k span the rows of m cut to their first k columns: one
    elimination gives every prefix rank.
    """
    # The pivots do not depend on the row order, but the work does: fed in
    # reverse order of the grade-sorted targets, the echelon rows stay
    # sparse, and at S + 1 = 8 and 9 elimination took 5-10x less time than
    # in lexicographic order.
    pivots = pivot_columns(m.entries[::-1])
    return [bisect_left(pivots, k) for k in cuts]


class DimTable:
    """Cohomology dimensions at one parameter point.

    For alpha = 0, ``by_grade[(n, s)]`` holds the graded dimensions and
    ``totals[n]`` their sums.  For alpha != 0 the complex is not graded;
    only ``totals`` is filled (from the truncated complex) together with
    ``stable[n]`` comparing the cutoffs S and S + 1.  ``classes[n]``, when
    asked for, lists the chains carrying the classes of degree n.  The text,
    CSV and JSON forms are ``cli``'s.
    """

    __slots__ = ("delta", "alpha", "n_max", "s_max", "by_grade", "totals", "stable", "classes")

    def __init__(
        self,
        delta: Rational,
        alpha: Rational,
        n_max: int,
        s_max: int,
        by_grade: dict[tuple[int, int], int] | None = None,
        totals: dict[int, int] | None = None,
        stable: dict[int, bool] | None = None,
        classes: dict[int, list[Chain]] | None = None,
    ):
        self.delta = delta
        self.alpha = alpha
        self.n_max = n_max
        self.s_max = s_max
        # each table owns its maps: cohomology_dims fills them in place
        self.by_grade = {} if by_grade is None else by_grade
        self.totals = {} if totals is None else totals
        self.stable = stable
        self.classes = classes


def _dimension(size: int, rank_out: int, rank_in: int, where: str) -> int:
    """size - rank_out - rank_in: the dimension of one piece of cohomology.

    Exact ranks never make it negative, so a negative one is an
    ``InvariantError`` whose message names the piece (``where``).
    """
    dim = size - rank_out - rank_in
    if dim < 0:
        raise InvariantError(f"negative dimension {dim} in {where}")
    return dim


def _windows(
    delta: Rational, alpha: Rational, n_max: int, grades: list[int], locate: bool = False
) -> tuple[list[list[int]], list[list[int]], dict[int, list[Chain]] | None]:
    """Sizes and ranks of the windows of grade <= each of ``grades``.

    ``sizes[n][i]`` counts the degree-n chains of grade <= grades[i] (n <=
    n_max + 1), and ``ranks[n][i]`` is the rank of d from degree n to n + 1
    on that window (n <= n_max): one assembly and one elimination per
    degree, over the window of the last grade.  With ``locate`` (a = 0
    only) the third result maps each degree 1..n_max to the chains
    carrying its classes; it is None otherwise.
    """
    bases = [window_basis(n, grades[-1]) for n in range(n_max + 2)]
    sizes = [[bisect_right(g, s) for s in grades] for g in ([grade(c) for c in b] for b in bases)]
    if not locate:
        ranks = [
            rank(matrix_d(n, bases[n], bases[n + 1], delta, alpha), sizes[n])
            for n in range(n_max + 1)
        ]
        return sizes, ranks, None
    ranks, classes, d_in = [], {}, []
    for n in range(n_max + 1):
        d_out = matrix_d(n, bases[n], bases[n + 1], delta, alpha).entries
        m = len(bases[n])
        # The pivot columns (leftmost nonzeros of an echelon basis) of a
        # subspace depend only on the subspace, and im d_in lies in
        # ker d_out, so the classes sit at pivots(ker) - pivots(im).
        # Solving an echelon form of d_out for each free column gives a
        # kernel basis whose vectors end (rightmost nonzero) exactly at
        # the free columns.  Eliminating with the columns mirrored
        # (j -> m - 1 - j) turns "end" into "start": pivots(ker) are the
        # columns that are not pivots of the mirrored d_out.  At a = 0
        # each grade block keeps its pivot count under the mirror, so the
        # mirrored pivots, mapped back, count every prefix rank as well.
        # Rows fed by their leading mirrored column keep the fill-in low.
        mirrored = sorted(
            ({m - 1 - j: v for j, v in row.items()} for row in d_out if row), key=min
        )
        pivots = [m - 1 - j for j in reversed(pivot_columns(mirrored))]
        ranks.append([bisect_left(pivots, k) for k in sizes[n]])
        if n:
            # im d_in is spanned by the columns of d_in
            columns: list[dict[int, Rational]] = [{} for _ in bases[n - 1]]
            for i, row in enumerate(d_in):
                for j, v in row.items():
                    columns[j][i] = v
            kernel = set(range(m)).difference(pivots)
            classes[n] = sorted(bases[n][j] for j in kernel.difference(pivot_columns(columns)))
        d_in = d_out
    return sizes, ranks, classes


def cohomology_dims(
    delta: Rational, n_max: int = 4, s_max: int = 8, locate: bool = False
) -> DimTable:
    """Graded cohomology dimensions for the shift-free module (alpha = 0).

    The window sizes and ranks are cumulative over grades; d is
    block-diagonal by grade at alpha = 0, so each graded piece is the
    difference of two consecutive ones.  With ``locate`` the same pass
    fills ``classes``, and the number of classes in each degree must equal
    its total.
    """
    lowest = lowest_grade(1)  # grade -1 is the lowest of any chain
    if s_max < lowest:
        raise ValueError(
            f"grade bound s_max={s_max} is below the minimal grade {lowest} of any chain"
        )
    delta = Fraction(delta)
    table = DimTable(delta=delta, alpha=Fraction(0), n_max=n_max, s_max=s_max)
    grades = list(range(lowest, s_max + 1))
    sizes, ranks, classes = _windows(delta, Fraction(0), n_max, grades, locate)
    at = f"at delta={format_rational(delta)}, alpha=0"

    def piece(cumulative: list[int], i: int) -> int:
        return cumulative[i] - (cumulative[i - 1] if i else 0)

    for n in range(1, n_max + 1):
        total = 0
        for s in range(lowest_grade(n), s_max + 1):
            i = s - lowest
            dim = _dimension(
                piece(sizes[n], i), piece(ranks[n], i), piece(ranks[n - 1], i),
                f"degree {n}, grade {s}, {at}",
            )
            table.by_grade[(n, s)] = dim
            total += dim
        table.totals[n] = total
        if classes is not None and len(classes[n]) != total:
            raise InvariantError(
                f"{len(classes[n])} classes located in degree {n} for dimension {total}, {at}"
            )
    table.classes = classes
    return table


def truncated_cohomology(
    delta: Rational, alpha: Rational, n_max: int = 4, S: int = 8
) -> DimTable:
    """Truncated dims at cutoffs S and S + 1 with per-degree stability flags.

    A cutoff below the minimal grade of degree n_max leaves that degree's
    window empty, so its "stable" zero would check nothing; it is rejected.
    Both cutoffs come from one elimination per degree of the S + 1 window.
    """
    lowest = lowest_grade(n_max)
    if S < lowest:
        raise ValueError(
            f"cutoff S={S} is below the minimal grade {lowest} of degree {n_max}"
        )
    if not alpha:
        raise ValueError("the truncated route is for a nonzero shift")
    delta, alpha = Fraction(delta), Fraction(alpha)
    sizes, ranks, _ = _windows(delta, alpha, n_max, [S, S + 1])
    at = f"at delta={format_rational(delta)}, alpha={format_rational(alpha)}"

    def dims(i: int, cutoff: str) -> dict[int, int]:
        return {
            n: _dimension(
                sizes[n][i], ranks[n][i], ranks[n - 1][i], f"degree {n}, cutoff {cutoff}, {at}"
            )
            for n in range(1, n_max + 1)
        }

    at_S, at_S1 = dims(0, f"S={S}"), dims(1, f"S+1={S + 1}")
    return DimTable(
        delta=delta, alpha=alpha, n_max=n_max, s_max=S,
        totals=at_S, stable={n: at_S[n] == at_S1[n] for n in at_S},
    )


def locate_classes(
    delta: Rational, n_max: int = 4, s_max: int = 8
) -> dict[int, list[Chain]]:
    """Chains carrying the surviving classes in degrees 1..n_max (alpha = 0).

    Per degree n, the pivot columns (leftmost nonzero coordinates, after
    full reduction) of ker d_out that are not pivot columns of im d_in;
    each marks the chain whose dual coordinate carries one cohomology
    class.  They are read off the graded pass of ``cohomology_dims``,
    which assembles each matrix once and eliminates d_out once.
    """
    return cohomology_dims(delta, n_max, s_max, locate=True).classes


class ContractionReport:
    """Outcome of ``verify_contraction``: the sampled chains and the mismatches."""

    __slots__ = ("degree", "delta", "alpha", "samples", "failures")

    def __init__(
        self,
        degree: int,
        delta: Rational,
        alpha: Rational,
        samples: list[Chain],
        failures: list[tuple[Chain, Fraction, Fraction]],
    ):
        self.degree = degree
        self.delta = delta
        self.alpha = alpha
        self.samples = samples
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"contraction witness, degree {self.degree} at "
            f"(D={format_rational(self.delta)}, a={format_rational(self.alpha)}): "
            f"{len(self.samples)} samples"
        )
        if self.ok:
            return head + ", all reproduced"
        lines = [head + f", {len(self.failures)} FAILED"]
        for c, got, want in self.failures:
            lines.append(f"  {c}: got {got}, want {want}")
        return "\n".join(lines)


def verify_contraction(
    n: int,
    delta: Rational,
    alpha: Rational,
    samples: list[Chain] | None = None,
) -> ContractionReport:
    """Check the coboundary witness for cocycles concentrated on (..., 0).

    Cocycle values on chains ending in 0 determine degree-n classes when the
    shift is nonzero; the witness is the degree-(n - 1) cochain

        beta(c') = (-1)^(n-1) * alpha((c', 0)) / a

    on chains c' with a positive last letter, zero elsewhere.  Its reduced
    differential must literally reproduce alpha at every sampled chain.
    """
    if n < 2:
        raise ValueError("witness degrees start at 2")
    alpha = Fraction(alpha)
    if not alpha:
        raise ValueError("the witness construction needs a nonzero shift")
    delta = Fraction(delta)
    if samples is None:
        samples = [c for c in enumerate_chains(n, 8) if c[-1] == 0][:12]

    def alpha_rule(c: Chain) -> Fraction:
        # deterministic but unstructured sample values
        h = 1
        for m in c:
            h = (h * 31 + m + 7) % 1009
        return Fraction(h % 19 - 9, 1 + h % 5)

    sign = Fraction(1 if n % 2 else -1)  # (-1)^(n-1)

    def beta_rule(cp: Chain) -> Fraction:
        if cp[-1] >= 1:
            return sign * alpha_rule(cp + (0,)) / alpha
        return Fraction(0)

    failures = []
    for c in samples:
        if len(c) != n or c[-1] != 0:
            raise ValueError(f"sample {c} is not a degree-{n} chain ending in 0")
        got = Fraction(0)
        for cp, val in reduced_row(c).items():
            if len(cp) == n - 1 and is_chain(cp) and cp[-1] >= 1:
                got += val.specialize(delta, alpha) * beta_rule(cp)
        want = alpha_rule(c)
        if got != want:
            failures.append((c, got, want))
    return ContractionReport(
        degree=n, delta=delta, alpha=alpha, samples=list(samples), failures=failures
    )
