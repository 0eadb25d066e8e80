"""Graded complexes, exact ranks, dimension tables, and the contraction identity.

With shift parameter a = 0 the reduced differential preserves the grade
s = weight - letters, so the complex splits into finite graded pieces and
each cohomology dimension is an exact rank computation over the rationals.
With a != 0 the a-part lowers s by one, so the subcomplex of cochains
supported on grades <= S is finite and closed under d.  Its cohomology is
compared at S and S + 1 (stabilization).

Both routes run one pass, ``_window_dims``.  It assembles each degree
once, over the window of chains of grade <= T, sorted by grade, and gives
the dimension of the cohomology of each smaller window of grades <= s that
a route asks for.  ``matrix_d`` is the one row assembler.  Its rows
come from ``cochain.reduced_row``, the closed row computed over ints from
the letters of each chain; no normal form and no bar reduction is on this
path, and ``cochain.bar_row`` and ``cochain.action_row`` are the row's two
oracles in the tests and ``scripts/check_engine.py``.  The rows share
their entries, one interned object per distinct value, and ``matrix_d``
specializes each entry object once per call.  ``matrix_d`` relies
on the check ``reduced_row`` makes once per row: every entry is a-free at
its target's grade or a multiple of a one grade up.  With that
shape the rows of grade > s vanish on the columns of grade <= s, so the
rank of the window of grades <= s is the rank of a column prefix, and
``rank`` reads every prefix off one elimination.  The truncated route
reads the windows of grades <= S and <= S + 1, computed at a = 1: the
shift is a scale.  At a = 0 the a-linear entries vanish, so d is
block-diagonal by grade, and the graded piece at grade s is the window at
s less the window at s - 1.

One exact sparse elimination, ``pivot_columns``, does all the linear
algebra, over int vectors that it keeps primitive over Z; the tests check
it against a naive rational Gaussian oracle.  ``rank`` clears each row of a
``matrix_d`` to integers once, as it turns the rows into int columns, so no
Fraction enters the elimination.  ``rank`` reduces the columns of each d_n,
in basis order, with each pivot at a column's last nonzero row, so the rank
of a column prefix is the number of its columns that claimed a pivot.  The
pass walks the degrees upward and hands the reduced columns of d_(n-1) to
the rank of d_n: the clearing, or twist, of persistent homology codes
(Chen and Kerber, EuroCG 2011; Bauer, Ripser, J. Appl. Comput. Topol.
2021).  Each such vector v lies in the image of d_(n-1), so d_n v = 0, and
the column of d_n at v's last nonzero is a combination of the columns
before it: it is left out unreduced.  That holds on the windows too.  Every
entry's source grade is at least its target's, so d maps the cochains on
grades <= T into themselves: each window is a subcomplex, and d_n d_(n-1) =
0 holds for the window matrices.  Each left-out column is certified: d_n v
= 0 is checked exactly over ints first, and a failure raises
``InvariantError`` naming the degree, the cleared chain and the parameter
point.  Clearing leaves at most size - rank_in columns of a window to claim
pivots, so the check that no dimension is negative can then only catch
counts that ``rank`` itself got wrong.

The same reduction locates the classes, in the last-nonzero convention: a
subspace's pivots are the positions at which some vector of it has its last
nonzero.  A column of d_n that claims no pivot is a combination of the
columns before it, so it is the last nonzero of a vector of ker d_n, and
the cleared columns are exactly the pivots of im d_(n-1).  The classes of
degree n sit at the pivots of ker d_n that are not pivots of im d_(n-1):
the free columns ``rank`` returns, which neither claimed a pivot nor were
cleared.  At a = 0 every graded table is one pass whose ranks and classes
all come from ``rank``, and the number of free columns in each graded block
must equal its dimension.  ``locate_classes`` reads the classes off this
pass.

For a != 0, ``contraction_defects`` checks the coboundary witness of the
cochains on chains ending in 0 as one identity over Q[D, a], row by row,
and names each chain where it fails.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd, lcm

from .anick import Chain, InvariantError, chain_to_text, enumerate_chains, grade, lowest_grade
from .cochain import reduced_row
from .scalars import A, ParamPoly, add_term, format_rational

Rational = Fraction


def window_basis(n: int, s_max: int) -> list[Chain]:
    """Degree-n chains of grade <= s_max, sorted by grade, lexicographic within one."""
    return sorted(enumerate_chains(n, s_max), key=grade)


class DiffMatrix:
    """Sparse rows indexed by target chains, columns by source chains."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[dict[int, Rational]]):
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
    ``reduced_row`` interns its entries, so the rows share few distinct
    entry objects: each one inside the bases is specialized once per call,
    and every entry that is that object gets the same ``Fraction``.  The
    values are kept by ``id``, next to the entry itself, so no id is reused
    while the call runs, even for rows whose entries are not interned.  At
    a = 0 the a-linear entries, one grade up, are skipped: they vanish
    there.  The grades are read once per column and once per row, so the
    skip compares two ints.
    """
    shifted = bool(alpha)
    col_of = {c: j for j, c in enumerate(source)}
    grades = [grade(c) for c in source]
    values: dict[int, tuple[ParamPoly, Rational]] = {}  # id(entry) -> (entry, its value)
    rows = []
    for tgt in target:
        s = grade(tgt)
        row = {}
        for src, val in reduced_row(tgt).items():
            j = col_of.get(src)
            if j is not None and (shifted or grades[j] == s):
                got = values.get(id(val))
                if got is None:
                    got = values[id(val)] = (val, val.specialize(delta, alpha))
                x = got[1]
                if x:
                    row[j] = x
        rows.append(row)
    return DiffMatrix(rows)


def pivot_columns(
    vectors: Iterable[dict[int, int]],
) -> dict[int, tuple[int, dict[int, int]]]:
    """Echelon form of sparse int vectors: pivot -> (position, reduced vector).

    The vectors hold nonzero ints only: ``rank`` clears each row to
    integers once, as it turns the rows into int columns.  They are taken
    in the order given, and each is consumed: it may be changed in place and
    kept in the result.  Each is reduced: while its leading (largest) index
    is the pivot of an earlier vector, it becomes ``a * vec - b *
    pivot_vec``, with ``a, b`` the two leading entries over their gcd, and
    is divided by its content, so it stays primitive.  A vector that
    keeps a leading index of its own claims it as its pivot; one reduced to
    zero lies in the span of the vectors before it.  The result maps each
    pivot, in the order claimed, to the position of the vector that claimed
    it and that vector reduced, an int combination of the vectors up to it.
    The pivot set depends only on the span, not on the order of the vectors.
    """
    echelon: dict[int, tuple[int, dict[int, int]]] = {}
    for pos, vec in enumerate(vectors):
        while vec:
            g = gcd(*vec.values())
            if g > 1:
                vec = {j: v // g for j, v in vec.items()}
            lead = max(vec)
            claimed = echelon.get(lead)
            if claimed is None:
                echelon[lead] = (pos, vec)
                break
            piv = claimed[1]
            g = gcd(piv[lead], vec[lead])
            a, b = piv[lead] // g, vec[lead] // g
            if a != 1:
                vec = {j: a * v for j, v in vec.items()}
            for j, v in piv.items():
                add_term(vec, j, -b * v)
    return echelon


def rank(
    m: DiffMatrix,
    cuts: Sequence[int],
    relations: Iterable[dict[int, int]] = (),
    name: Callable[[int], str] = "column {}".format,
) -> tuple[list[int], Iterator[dict[int, int]], list[int]]:
    """Rank of the first k columns of m for each k in cuts, m's relations, its free columns.

    Column reduction: the columns of m go to ``pivot_columns`` in basis
    order; it leads at the largest index, so each pivot sits at a column's
    last nonzero row.  A column claims a pivot exactly when it is
    independent of the columns before it, so the rank of the first k
    columns is the number of columns below k that claimed one.  Each row is
    cleared to integers once, as it is turned into int columns:
    scaling a row changes neither which columns depend on which nor whether
    m v = 0.  These columns are the int vectors the elimination takes.

    Clearing: each of ``relations`` is an int vector v over m's columns with
    m v = 0, as d o d = 0 gives for v in the image of the differential
    before m.  The column p at v's last nonzero is then a combination of the
    columns before it, so it is left out: it would claim no pivot, and the
    columns below every cut span what they spanned with it.  Before that,
    m v = 0 is checked exactly over ints; a failure raises
    ``InvariantError`` naming ``name(p)``, also under ``python -O``.

    Returns the prefix ranks; m's reduced columns, as int vectors over m's
    rows with the row scaling undone; and the free columns below the last
    cut, in increasing order: those that claimed no pivot and were not
    cleared.  The reduced columns lie in the image of m, so they are the
    relations that clear columns of the next differential.  A column that
    claims no pivot is the last nonzero of a vector of ker m, and a cleared
    one the last nonzero of a relation, so the free columns are the last
    nonzeros of ker m that no relation has.  The relations are made as they
    are read: the last degree's are never read.
    """
    scales = []  # row i is multiplied by scales[i]
    columns: dict[int, dict[int, int]] = {}  # column -> {row: int entry}
    for i, row in enumerate(m.entries):
        # a list, not a generator: star-calling a generator leaves a resized
        # tuple in the interpreter's tuple free lists on every call
        mult = lcm(*[v.denominator for v in row.values()])
        scales.append(mult)
        for j, v in row.items():
            num, den = v.as_integer_ratio()
            col = columns.get(j)
            if col is None:
                col = columns[j] = {}
            col[i] = num * (mult // den)
    cleared = set()
    empty: dict[int, int] = {}
    for v in relations:
        image: dict[int, int] = {}
        get = image.get
        for j, x in v.items():
            for i, y in columns.get(j, empty).items():
                image[i] = get(i, 0) + x * y
        p = max(v)
        if any(image.values()):
            raise InvariantError(f"d.d != 0 on the relation that clears {name(p)}")
        cleared.add(p)
    for p in cleared:
        columns.pop(p, None)
    order = sorted(columns)
    # each column is handed over as it is fed, so one int copy of it is alive
    echelon = pivot_columns(columns.pop(j) for j in order)
    claimed = [order[pos] for pos, _ in echelon.values()]
    taken = cleared.union(claimed)

    def unscaled(vec: dict[int, int]) -> dict[int, int]:
        unit = lcm(*[scales[i] for i in vec])
        return {i: x * (unit // scales[i]) for i, x in vec.items()}

    return (
        [bisect_left(claimed, k) for k in cuts],
        (unscaled(v) for _, v in echelon.values()),
        [j for j in range(max(cuts, default=0)) if j not in taken],
    )


class DimTable:
    """Cohomology dimensions at one parameter point.

    ``graded``, true exactly at alpha = 0, marks the route that filled the
    table.  The graded route fills ``by_grade[(n, s)]`` with the graded
    dimensions, ``totals[n]`` with their sums, and ``classes[n]`` with the
    chains carrying the classes of degree n, in the last-nonzero convention
    of ``rank``'s free columns.  For alpha != 0 the complex is not graded:
    the truncated route fills ``totals`` at the cutoff S and ``stable[n]``,
    which compares the cutoffs S and S + 1.  The text, CSV and JSON forms
    are ``cli``'s.
    """

    __slots__ = ("delta", "alpha", "n_max", "s_max", "by_grade", "totals", "stable", "classes")

    def __init__(self, delta: Rational, alpha: Rational, n_max: int, s_max: int):
        self.delta = delta
        self.alpha = alpha
        self.n_max = n_max
        self.s_max = s_max
        self.by_grade: dict[tuple[int, int], int] = {}
        self.totals: dict[int, int] = {}
        self.stable: dict[int, bool] = {}
        self.classes: dict[int, list[Chain]] = {}

    @property
    def graded(self) -> bool:
        return not self.alpha


def _dimension(dim: int, where: str) -> int:
    """One dimension of cohomology, checked: a negative one is an
    ``InvariantError`` naming the piece (``where``).  Exact ranks never make
    it negative; with clearing, only counts that ``rank`` got wrong could.
    """
    if dim < 0:
        raise InvariantError(f"negative dimension {dim} in {where}")
    return dim


def _window_dims(
    delta: Rational, alpha: Rational, n_max: int, grades: list[int], at: str
) -> Iterator[tuple[list[int], list[Chain]]]:
    """Per degree n = 1..n_max: size - rank_out - rank_in of each window, and the free chains.

    Window i holds the chains of grade <= grades[i], in increasing grades.
    Each d_n is assembled once over the last window, and ``rank`` reads
    every window off its column prefixes, cleared by the relations of
    d_(n-1).  The free columns, as chains, cover all of the last window.
    ``rank``'s errors name the cleared chain, its degree and ``at``; each
    route checks the dimensions it reads.
    """
    bases = [window_basis(n, grades[-1]) for n in range(n_max + 2)]
    ranks_in, relations = [0] * len(grades), ()
    for n in range(n_max + 1):
        basis = bases[n]
        basis_grades = [grade(c) for c in basis]
        sizes = [bisect_right(basis_grades, s) for s in grades]
        ranks_out, relations, free = rank(
            matrix_d(n, basis, bases[n + 1], delta, alpha), sizes, relations,
            lambda p: f"{chain_to_text(basis[p])} in degree {n}, {at}",
        )
        if n:
            yield (
                [k - r_out - r_in for k, r_out, r_in in zip(sizes, ranks_out, ranks_in)],
                [basis[j] for j in free],
            )
        ranks_in = ranks_out


def cohomology_dims(delta: Rational, n_max: int = 4, s_max: int = 8) -> DimTable:
    """Graded cohomology dimensions and classes for the shift-free module (alpha = 0).

    The windows are those of grades <= s for each s up to s_max, so their
    dimensions are cumulative over grades; d is block-diagonal by grade at
    alpha = 0, so each graded piece is the difference of two consecutive
    ones.  The same pass fills ``classes`` from the free columns ``rank``
    returns for each d_n, and the number of them in each graded block must
    equal its dimension.
    """
    lowest = lowest_grade(1)  # grade -1 is the lowest of any chain
    if s_max < lowest:
        raise ValueError(
            f"grade bound s_max={s_max} is below the minimal grade {lowest} of any chain"
        )
    table = DimTable(Fraction(delta), Fraction(0), n_max, s_max)
    at = f"at delta={format_rational(table.delta)}, alpha=0"
    grades = list(range(lowest, s_max + 1))
    degrees = _window_dims(table.delta, table.alpha, n_max, grades, at)
    for n, (dims, free) in enumerate(degrees, 1):
        found = Counter(map(grade, free))
        total = 0
        for s in range(lowest_grade(n), s_max + 1):
            i = s - lowest
            dim = _dimension(dims[i] - (dims[i - 1] if i else 0), f"degree {n}, grade {s}, {at}")
            if found[s] != dim:
                raise InvariantError(
                    f"{found[s]} classes located in degree {n}, grade {s} "
                    f"for dimension {dim}, {at}"
                )
            table.by_grade[(n, s)] = dim
            total += dim
        table.totals[n] = total
        table.classes[n] = sorted(free)
    return table


def truncated_cohomology(
    delta: Rational, alpha: Rational, n_max: int = 4, S: int = 8
) -> DimTable:
    """Truncated dims at cutoffs S and S + 1 with per-degree stability flags.

    A cutoff below the minimal grade of degree n_max leaves that degree's
    window empty, so its "stable" zero would check nothing; it is rejected.
    Both cutoffs come from one elimination per degree of the S + 1 window,
    cleared by the relations of the degree before.

    Every nonzero shift is computed at alpha = 1.  By the grade split, the
    entry of d at (D, a) for a target t and a source c is the entry at
    (D, 1) times a^(grade(c) - grade(t)), so d_a = P^-1 d_1 P with P the
    diagonal map a^grade(c) on each degree.  For a != 0, P is invertible
    and keeps every window, so each window of d_a has the ranks of the same
    window of d_1, and so do the dimensions at S and S + 1.  The table and
    every ``InvariantError`` name the point that was asked for.
    """
    delta, alpha = Fraction(delta), Fraction(alpha)
    lowest = lowest_grade(n_max)
    if S < lowest:
        raise ValueError(
            f"cutoff S={S} is below the minimal grade {lowest} of degree {n_max}"
        )
    if not alpha:
        raise ValueError("the truncated route is for a nonzero shift")
    table = DimTable(delta, alpha, n_max, S)
    at = f"at delta={format_rational(delta)}, alpha={format_rational(alpha)}"
    windows = [w for w, _ in _window_dims(delta, Fraction(1), n_max, [S, S + 1], at)]

    def dims(i: int, cutoff: str) -> dict[int, int]:
        return {
            n: _dimension(w[i], f"degree {n}, cutoff {cutoff}, {at}")
            for n, w in enumerate(windows, 1)
        }

    at_S, at_S1 = dims(0, f"S={S}"), dims(1, f"S+1={S + 1}")
    table.totals.update(at_S)
    table.stable.update((n, at_S[n] == at_S1[n]) for n in at_S)
    return table


def locate_classes(
    delta: Rational, n_max: int = 4, s_max: int = 8
) -> dict[int, list[Chain]]:
    """Chains carrying the surviving classes in degrees 1..n_max (alpha = 0).

    Per degree n, the positions at which some vector of ker d_out has its
    last nonzero and no vector of im d_in has; each marks the chain whose
    dual coordinate carries one cohomology class.  They are the free
    columns of ``rank``, read off the graded pass of ``cohomology_dims``,
    which assembles and eliminates each matrix once.
    """
    return cohomology_dims(delta, n_max, s_max).classes


def contraction_defects(n_max: int, s_max: int) -> list[Chain]:
    """Chains of degrees 1..n_max and grade <= s_max, ending in 0, where the witness breaks.

    With a != 0 the witness for a degree-n cochain phi is the degree-(n - 1)
    cochain beta(c') = (-1)^(n-1) phi((c', 0)) / a on the chains c' that are
    empty or end in a letter >= 1, and 0 elsewhere.  (d beta)(c) = phi(c) at
    each chain c = (c', 0), for every phi, D and a != 0, exactly when the row
    of c, restricted to those chains, is (-1)^(n-1) a at c' and 0 elsewhere
    in Q[D, a].  The chains where it is not are returned in enumeration order.
    """
    lowest = lowest_grade(1)
    if n_max < 1 or s_max < lowest:
        raise ValueError(
            f"the window n_max={n_max}, s_max={s_max} holds no chain ending in 0: "
            f"it needs n_max >= 1 and s_max >= {lowest}"
        )
    defects = []
    for n in range(1, n_max + 1):
        unit = A if n % 2 else -A  # (-1)^(n-1) * a
        for c in enumerate_chains(n, s_max):
            if c[-1] == 0:
                matched = {cp: v for cp, v in reduced_row(c).items() if not cp or cp[-1] >= 1}
                if matched != {c[:-1]: unit}:
                    defects.append(c)
    return defects
