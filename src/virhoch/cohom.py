"""Graded complexes, exact ranks, dimension tables, and witness checks.

With shift parameter a = 0 the reduced differential preserves the grade
s = weight - letters, so the complex splits into finite graded pieces and
each cohomology dimension is an exact rank computation over the rationals.
With a != 0 the a-part lowers s by one, so the subcomplex of cochains
supported on grades <= S is finite and closed under d.  Its cohomology is
compared at S and S + 1 (stabilization) from one elimination per degree of
the S + 1 window, read at two column cutoffs.

One exact sparse elimination, ``pivot_columns``, does all the linear
algebra: ranks count its pivots, and ``locate_classes`` reads the pivot
columns of ker d (the non-pivots of d with its columns mirrored) minus
those of im d, for all degrees of a grade in one pass.  Rows are kept
primitive over Z, so no Fraction enters the inner loop; the tests check
the pivots against a naive rational Gaussian oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .anick import Chain, InvariantError, chain_to_text, enumerate_chains, grade, is_chain
from .cochain import reduced_row
from .scalars import format_rational

Rational = Fraction


def graded_basis(n: int, s: int) -> list[Chain]:
    """Degree-n chains of grade exactly s, in lexicographic order."""
    if n == 0:
        return [()] if s == 0 else []
    return [c for c in enumerate_chains(n, s) if grade(c) == s]


def window_basis(n: int, s_max: int) -> list[Chain]:
    """Degree-n chains of grade <= s_max (the truncated complex basis)."""
    if n == 0:
        return [()] if s_max >= 0 else []  # the empty chain has grade 0
    return enumerate_chains(n, s_max)


@dataclass
class DiffMatrix:
    """Rows indexed by target chains, columns by source chains."""

    source: list[Chain]
    target: list[Chain]
    entries: list[list[Rational]]  # entries[i][j] = coefficient of source[j] in d(·)(target[i])

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target), len(self.source))


def matrix_d(
    n: int, source: list[Chain], target: list[Chain], delta: Rational, alpha: Rational
) -> DiffMatrix:
    """Differential from degree n to n + 1 between explicit bases."""
    col_of = {c: j for j, c in enumerate(source)}
    rows = []
    for tgt in target:
        row = [Fraction(0)] * len(source)
        for src, val in reduced_row(tgt).items():
            j = col_of.get(src)
            if j is not None:
                row[j] = val.specialize(delta, alpha)
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
                x = vec.get(j, 0) - b * v
                if x:
                    vec[j] = x
                else:
                    del vec[j]
    return sorted(echelon)


def _sparse(rows: Iterable[Iterable[Rational]]) -> list[dict[int, Rational]]:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def rank(m: DiffMatrix | list[list[Rational]]) -> int:
    """Exact rank: the number of pivot columns."""
    rows = m.entries if isinstance(m, DiffMatrix) else m
    return len(pivot_columns(_sparse(rows)))


@dataclass
class DimTable:
    """Cohomology dimensions at one parameter point.

    For alpha = 0, ``by_grade[(n, s)]`` holds the graded dimensions and
    ``totals[n]`` their sums.  For alpha != 0 the complex is not graded;
    only ``totals`` is filled (from the truncated complex) together with
    ``stable[n]`` comparing the cutoffs S and S + 1.
    """

    delta: Rational
    alpha: Rational
    n_max: int
    s_max: int
    by_grade: dict[tuple[int, int], int] = field(default_factory=dict)
    totals: dict[int, int] = field(default_factory=dict)
    stable: dict[int, bool] | None = None

    def csv_rows(self) -> list[str]:
        out = []
        d, a = format_rational(self.delta), format_rational(self.alpha)
        if self.by_grade:
            for (n, s), dim in sorted(self.by_grade.items()):
                out.append(f"{d},{a},{n},{s},{dim}")
        else:
            for n in sorted(self.totals):
                out.append(f"{d},{a},{n},,{self.totals[n]}")
        return out

    def as_dict(self) -> dict:
        doc = {
            "delta": format_rational(self.delta),
            "alpha": format_rational(self.alpha),
            "n_max": self.n_max,
            "s_max": self.s_max,
            "totals": {str(n): self.totals[n] for n in sorted(self.totals)},
        }
        if self.by_grade:
            doc["by_grade"] = {
                f"{n},{s}": dim for (n, s), dim in sorted(self.by_grade.items())
            }
        if self.stable is not None:
            doc["stable"] = {str(n): self.stable[n] for n in sorted(self.stable)}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DimTable":
        from .scalars import parse_rational

        table = cls(
            delta=parse_rational(doc["delta"]),
            alpha=parse_rational(doc["alpha"]),
            n_max=int(doc["n_max"]),
            s_max=int(doc["s_max"]),
            totals={int(n): int(v) for n, v in doc["totals"].items()},
        )
        for key, dim in doc.get("by_grade", {}).items():
            n, s = key.split(",")
            table.by_grade[(int(n), int(s))] = int(dim)
        if "stable" in doc:
            table.stable = {int(n): bool(v) for n, v in doc["stable"].items()}
        return table


def _grade_range(n: int, s_max: int) -> range:
    # minimal grade in degree n: -1 for single letters, n - 3 beyond
    lo = 0 if n == 0 else (-1 if n == 1 else n - 3)
    return range(lo, s_max + 1)


def cohomology_dims(delta: Rational, n_max: int = 4, s_max: int = 8) -> DimTable:
    """Graded cohomology dimensions for the shift-free module (alpha = 0)."""
    table = DimTable(delta=Fraction(delta), alpha=Fraction(0), n_max=n_max, s_max=s_max)
    bases: dict[tuple[int, int], list[Chain]] = {}
    ranks: dict[tuple[int, int], int] = {}

    def basis(n: int, s: int) -> list[Chain]:
        key = (n, s)
        if key not in bases:
            bases[key] = graded_basis(n, s)
        return bases[key]

    def rank_d(n: int, s: int) -> int:
        key = (n, s)
        if key not in ranks:
            ranks[key] = rank(matrix_d(n, basis(n, s), basis(n + 1, s), delta, Fraction(0)))
        return ranks[key]

    for n in range(1, n_max + 1):
        total = 0
        for s in _grade_range(n, s_max):
            dim_n = len(basis(n, s))
            if dim_n == 0:
                table.by_grade[(n, s)] = 0
                continue
            dim = dim_n - rank_d(n, s) - rank_d(n - 1, s)
            if dim < 0:
                raise InvariantError(
                    f"negative dimension {dim} in degree {n}, grade {s}, "
                    f"at delta={format_rational(delta)}, alpha=0"
                )
            table.by_grade[(n, s)] = dim
            total += dim
        table.totals[n] = total
    return table


def _window_rows(
    source: list[Chain], target: list[Chain], delta: Rational, alpha: Rational
) -> Iterable[dict[int, Rational]]:
    """Sparse rows of d over explicit window bases, each entry specialized once.

    Every entry must be a-free where the source grade equals the target's,
    or a multiple of a where it is one higher; ``truncated_cohomology``
    reads two cutoffs off one elimination because of that shape.
    """
    col_of = {c: j for j, c in enumerate(source)}
    for tgt in target:
        s = grade(tgt)
        row = {}
        for src, val in reduced_row(tgt).items():
            step = grade(src) - s
            if step not in (0, 1) or val.a_degrees() != {step}:
                raise InvariantError(
                    f"row of {chain_to_text(tgt)} has the entry {val} at "
                    f"{chain_to_text(src)}, {step} grades up; only a-free entries "
                    f"at the same grade and a-linear ones one grade up are allowed"
                )
            j = col_of.get(src)
            if j is not None:
                row[j] = val.specialize(delta, alpha)
        yield row


def truncated_cohomology(
    delta: Rational, alpha: Rational, n_max: int = 4, S: int = 8
) -> DimTable:
    """Truncated dims at cutoffs S and S + 1 with per-degree stability flags.

    A cutoff below the minimal grade of degree n_max leaves that degree's
    window empty, so its "stable" zero would check nothing; it is rejected.

    Each degree is eliminated once, over the S + 1 window with its chains
    sorted by grade.  An entry's source grade is its target's or one more
    (``_window_rows`` checks it), so the rows of grade S + 1 vanish on the
    columns of grade <= S: d is [[A, B], [0, C]] with A the S-window
    matrix, and the pivots among its first |window_basis(n, S)| columns
    number rank(A).
    """
    lowest = _grade_range(n_max, S).start
    if S < lowest:
        raise ValueError(
            f"cutoff S={S} is below the minimal grade {lowest} of degree {n_max}"
        )
    if not alpha:
        raise ValueError("the truncated route is for a nonzero shift")
    delta, alpha = Fraction(delta), Fraction(alpha)
    bases = [sorted(window_basis(n, S + 1), key=grade) for n in range(n_max + 2)]
    cuts = [len(window_basis(n, S)) for n in range(n_max + 2)]
    ranks_S, ranks_S1 = [], []
    for n in range(n_max + 1):
        # The pivots do not depend on the row order, but the work does: fed
        # in reverse lexicographic order, the echelon rows stay sparse, and
        # at S + 1 = 8 and 9 elimination took 5-10x less time than in
        # lexicographic order.
        rows = _window_rows(bases[n], bases[n + 1][::-1], delta, alpha)
        pivots = pivot_columns(rows)
        ranks_S.append(bisect_left(pivots, cuts[n]))
        ranks_S1.append(len(pivots))

    def dims(sizes: list[int], ranks: list[int], cutoff: str) -> dict[int, int]:
        out = {}
        for n in range(1, n_max + 1):
            dim = sizes[n] - ranks[n] - ranks[n - 1]
            if dim < 0:
                raise InvariantError(
                    f"negative dimension {dim} in degree {n}, cutoff {cutoff}, "
                    f"at delta={format_rational(delta)}, alpha={format_rational(alpha)}"
                )
            out[n] = dim
        return out

    at_S = dims(cuts, ranks_S, f"S={S}")
    at_S1 = dims([len(b) for b in bases], ranks_S1, f"S+1={S + 1}")
    return DimTable(
        delta=delta, alpha=alpha, n_max=n_max, s_max=S,
        totals=at_S, stable={n: at_S[n] == at_S1[n] for n in at_S},
    )


def locate_classes(
    delta: Rational, n_max: int = 4, s_max: int = 8
) -> dict[int, list[Chain]]:
    """Chains carrying the surviving classes in degrees 1..n_max (alpha = 0).

    Per degree n and grade, the pivot columns (leftmost nonzero
    coordinates, after full reduction) of ker d_out that are not pivot
    columns of im d_in; each marks the chain whose dual coordinate carries
    one cohomology class.  All degrees of a grade are located in one pass,
    so each graded matrix is assembled once: d_out of degree n is d_in of
    degree n + 1.
    """
    found: dict[int, list[Chain]] = {n: [] for n in range(1, n_max + 1)}
    for s in _grade_range(1, s_max):
        bases = [graded_basis(n, s) for n in range(n_max + 2)]
        matrices: dict[int, list[list[Rational]]] = {}

        def d(n: int) -> list[list[Rational]]:
            # degree n -> n + 1 at grade s; d(n) is d_out of degree n and
            # d_in of degree n + 1
            if n not in matrices:
                matrices[n] = matrix_d(n, bases[n], bases[n + 1], delta, Fraction(0)).entries
            return matrices[n]

        for n in range(1, n_max + 1):
            src = bases[n]
            if not src:
                continue
            m = len(src)
            # The pivot columns (leftmost nonzeros of an echelon basis) of a
            # subspace depend only on the subspace, and im d_in lies in
            # ker d_out, so the classes sit at pivots(ker) - pivots(im).
            # Solving an echelon form of d_out for each free column gives a
            # kernel basis whose vectors end (rightmost nonzero) exactly at
            # the free columns.  Eliminating with the columns mirrored
            # (j -> m - 1 - j) turns "end" into "start": pivots(ker) are the
            # columns that are not pivots of the mirrored d_out.
            reversed_pivots = pivot_columns(
                {m - 1 - j: v for j, v in row.items()} for row in _sparse(d(n))
            )
            kernel = set(range(m)) - {m - 1 - j for j in reversed_pivots}
            image = pivot_columns(_sparse(zip(*d(n - 1))))
            found[n].extend(src[j] for j in kernel.difference(image))
    return {n: sorted(chains) for n, chains in found.items()}


@dataclass
class ContractionReport:
    degree: int
    delta: Rational
    alpha: Rational
    samples: list[Chain]
    failures: list[tuple[Chain, Fraction, Fraction]]

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
    alpha_rule=None,
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
    if alpha_rule is None:
        # deterministic but unstructured sample values
        def alpha_rule(c: Chain) -> Fraction:
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
