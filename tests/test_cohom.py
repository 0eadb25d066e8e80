"""Rank computation, dimension tables, class location, contraction witness."""

import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from virhoch import algebra, cli, cochain, cohom
from virhoch.anick import chain_to_text, grade
from virhoch.cochain import reduced_row
from virhoch.cohom import (
    DiffMatrix,
    DimTable,
    InvariantError,
    cohomology_dims,
    contraction_defects,
    locate_classes,
    matrix_d,
    pivot_columns,
    rank,
    truncated_cohomology,
    window_basis,
)
from virhoch.scalars import A, ParamPoly, RationalSum

F = Fraction


# ---------------------------------------------------------------------------
# pivot columns and rank against a plain Gaussian oracle


def gauss_rank(rows) -> tuple[int, list[int]]:
    """Reference rank over Q by ordinary row reduction, with its pivot columns."""
    rows = [[F(x) for x in r] for r in rows]
    if not rows or not rows[0]:
        return 0, []
    r = 0
    pivots = []
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def _cleared(vec):
    """A rational vector times the lcm of its denominators, with its zeros
    dropped: the int vectors ``pivot_columns`` takes."""
    mult = lcm(*[v.denominator for v in vec.values()])
    return {j: v.numerator * (mult // v.denominator) for j, v in vec.items() if v}


def random_rows(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    if seed % 3:
        return [
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(m)
        ]
    # force rank deficiency through a low-rank factorization
    k = rng.randint(1, min(m, n))
    a = [[F(rng.randint(-4, 4)) for _ in range(k)] for _ in range(m)]
    b = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
        for i in range(m)
    ]


def as_matrix(dense) -> DiffMatrix:
    """Dense rows as a DiffMatrix."""
    return DiffMatrix([{j: v for j, v in enumerate(r) if v} for r in dense])


def dense(rows, width):
    """Sparse rows as dense ones of the given width."""
    return [[row.get(j, F(0)) for j in range(width)] for row in rows]


def prefix_ranks(m, cuts):
    """The prefix ranks ``rank`` gives without relations."""
    return rank(m, cuts)[0]


def test_rank_edge_cases():
    assert prefix_ranks(as_matrix([]), [0]) == [0]
    assert prefix_ranks(as_matrix([[F(0), F(0)]]), [0, 1, 2]) == [0, 0, 0]
    assert prefix_ranks(as_matrix([[F(1), F(0)], [F(0), F(1)]]), [2]) == [2]
    assert prefix_ranks(as_matrix([[F(1), F(2)], [F(2), F(4)]]), [1, 2]) == [1, 1]
    assert prefix_ranks(as_matrix([[F(1, 3)], [F(0)], [F(5)]]), [0, 1]) == [0, 1]
    assert prefix_ranks(as_matrix([[F(0), F(1)], [F(0), F(2)]]), [1, 2]) == [0, 1]


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_gaussian_oracle(seed):
    # every column prefix, from one call
    rows = random_rows(seed)
    width = len(rows[0])
    prefixes = [gauss_rank([r[:k] for r in rows])[0] if k else 0 for k in range(width + 1)]
    assert prefix_ranks(as_matrix(rows), range(width + 1)) == prefixes


@pytest.mark.parametrize("seed", range(20))
def test_pivot_columns_match_gaussian_oracle(seed):
    rows = random_rows(seed)
    for dense in (rows, [r[::-1] for r in rows]):  # both column orders
        sparse = [{j: v for j, v in enumerate(r) if v} for r in dense]
        echelon = pivot_columns(map(_cleared, sparse))
        assert sorted(echelon) == gauss_rank(dense)[1]
        # the pivot set belongs to the row space, not to the row order
        assert sorted(pivot_columns(map(_cleared, sparse[::-1]))) == gauss_rank(dense)[1]
        # a vector claims a pivot exactly when it raises the rank of those before it
        claimed = [pos for pos, _ in echelon.values()]
        assert claimed == [
            i for i in range(len(dense)) if gauss_rank(dense[: i + 1])[0] > gauss_rank(dense[:i])[0]
        ]
        # each reduced vector leads at its pivot and lies in the span of the vectors up to it
        for lead, (pos, vec) in echelon.items():
            assert min(vec) == lead
            reduced = [vec.get(j, 0) for j in range(len(dense[0]))]
            assert gauss_rank(dense[: pos + 1] + [reduced])[0] == gauss_rank(dense[: pos + 1])[0]


@pytest.mark.parametrize("seed", range(20))
def test_pivot_columns_divide_out_the_content(seed):
    # int vectors with content > 1 claim the pivots their primitive parts
    # claim, at the same positions, and every reduced vector is primitive
    rng = random.Random(seed)
    primitive = []
    for r in random_rows(seed):
        vec = _cleared({j: v for j, v in enumerate(r) if v})
        g = gcd(*vec.values())
        primitive.append({j: v // g for j, v in vec.items()})
    factors = [rng.choice([-6, -2, 2, 3, 10]) for _ in primitive]
    scaled = [{j: k * v for j, v in vec.items()} for vec, k in zip(primitive, factors)]
    assert any(scaled)
    want = pivot_columns([dict(vec) for vec in primitive])
    got = pivot_columns(scaled)
    assert list(got) == list(want)
    assert [pos for pos, _ in got.values()] == [pos for pos, _ in want.values()]
    assert all(gcd(*vec.values()) == 1 for _, vec in got.values())


# ---------------------------------------------------------------------------
# graded bases and small differential matrices


def graded_basis(n, s):
    """Degree-n chains of grade exactly s, in lexicographic order."""
    return [c for c in window_basis(n, s) if grade(c) == s]


def test_graded_basis_examples():
    assert graded_basis(0, 0) == [()]
    assert graded_basis(0, 1) == []
    assert graded_basis(1, -1) == [(0,)]
    assert graded_basis(1, 3) == [(4,)]
    assert graded_basis(2, -1) == [(1, 0)]
    # sorted by grade (-1, 0, 1, 1, 2, 2, 2), lexicographic within a grade
    assert window_basis(2, 2) == [
        (1, 0), (2, 0), (2, 1), (3, 0), (2, 2), (3, 1), (4, 0),
    ]


def test_matrix_d_single_entry():
    src, tgt = [(0,)], [(1, 0)]
    m = matrix_d(1, src, tgt, F(2), F(0))
    assert m.entries == [{0: F(1)}]  # (D - 1) at D = 2
    assert prefix_ranks(m, [1]) == [1]
    m0 = matrix_d(1, src, tgt, F(1), F(0))
    assert m0.entries == [{}]  # zeros are not stored
    assert prefix_ranks(m0, [1]) == [0]


def test_matrix_d_orientation():
    # rows indexed by target chains, columns by source chains
    src = window_basis(1, 1)
    tgt = window_basis(2, 1)
    m = matrix_d(1, src, tgt, F(0), F(1))
    assert len(m.entries) == len(tgt)
    assert all(0 <= j < len(src) for r in m.entries for j in r)
    assert any(r for r in m.entries)


def assemble(source, target, delta, alpha):
    """Oracle rows of d, built here from ``reduced_row`` without ``matrix_d``."""
    col = {c: j for j, c in enumerate(source)}
    return [
        {col[c]: v.specialize(delta, alpha) for c, v in reduced_row(t).items() if c in col}
        for t in target
    ]


def nonzero(rows):
    return [{j: x for j, x in row.items() if x} for row in rows]


# ---------------------------------------------------------------------------
# matrix_d specializes each distinct entry object once per call


@pytest.mark.parametrize("delta,alpha", [(F(1), F(0)), (F(5, 2), F(-2, 3))])
def test_matrix_d_matches_oracle_on_rows_that_are_not_interned(monkeypatch, delta, alpha):
    # every call hands out fresh copies, which die with their row: the
    # values are kept next to their entries, so no id is reused in a call
    real = cohom.reduced_row
    monkeypatch.setattr(cohom, "reduced_row", lambda c: {cp: v * 1 for cp, v in real(c).items()})
    assert all(v is not w for v, w in zip(cohom.reduced_row((2, 2, 0)).values(),
                                          real((2, 2, 0)).values()))
    for n in range(5):
        source, target = window_basis(n, 6), window_basis(n + 1, 6)
        want = nonzero(assemble(source, target, delta, alpha))
        assert matrix_d(n, source, target, delta, alpha).entries == want, n


@pytest.mark.parametrize("delta,alpha", [(F(1), F(1)), (F(0), F(0))])
def test_matrix_d_specializes_each_distinct_entry_once(monkeypatch, delta, alpha):
    calls = []  # the entries specialized
    real_specialize = ParamPoly.specialize

    def specialize(val, weight, shift):
        calls.append(val)
        return real_specialize(val, weight, shift)

    monkeypatch.setattr(ParamPoly, "specialize", specialize)
    source, target = window_basis(3, 7), window_basis(4, 7)
    col = {c: grade(c) for c in source}
    entries = [
        v for t in target for c, v in reduced_row(t).items()
        if c in col and (alpha or col[c] == grade(t))
    ]
    distinct = {id(v) for v in entries}
    assert len(distinct) < len(entries) / 3
    for _ in range(2):  # once per call, not once per process
        calls.clear()
        matrix_d(3, source, target, delta, alpha)
        assert len(calls) == len(distinct) and {id(v) for v in calls} == distinct


def test_matrix_d_values_belong_to_their_point():
    source, target = window_basis(3, 6), window_basis(4, 6)
    points = [(F(1), F(1)), (F(-2), F(1, 2)), (F(1), F(0)), (F(5, 2), F(0))]
    got = [matrix_d(3, source, target, *p).entries for p in points]
    for p, entries in zip(points, got):
        assert entries == nonzero(assemble(source, target, *p)), p
    assert len({str(entries) for entries in got}) == len(points)


# ---------------------------------------------------------------------------
# dimension tables at the reference parameter points


GRADED_TOTALS = {
    F(1): (2, 1, 0, 0),
    F(0): (1, 2, 1, 0),
    F(2): (0, 0, 0, 0),
    F(-1): (0, 0, 0, 0),
    F(-2): (0, 0, 0, 0),
    F(5, 2): (0, 0, 0, 0),
}


def test_totals_cover_degrees_one_up():
    table = cohomology_dims(F(1), n_max=3, s_max=4)
    assert sorted(table.totals) == [1, 2, 3]


def test_graded_breakdown():
    t1 = cohomology_dims(F(1)).by_grade
    assert t1[(1, -1)] == 1 and t1[(1, 0)] == 1 and t1[(2, -1)] == 1
    assert sum(t1.values()) == 3

    t0 = cohomology_dims(F(0)).by_grade
    assert t0[(1, 1)] == 1
    assert t0[(2, 0)] == 1 and t0[(2, 1)] == 1
    assert t0[(3, 0)] == 1


@pytest.mark.parametrize("delta", sorted(GRADED_TOTALS))
def test_graded_pieces_match_blocks_ranked_alone(delta):
    # oracle: each (degree, grade) block assembled and ranked on its own
    n_max, s_max = 4, 8
    ranks = {}
    for n in range(n_max + 1):
        for s in range(-1, s_max + 1):
            rows = assemble(graded_basis(n, s), graded_basis(n + 1, s), delta, F(0))
            ranks[n, s] = len(pivot_columns(map(_cleared, rows)))
    want = {}
    for n in range(1, n_max + 1):
        for s in range(max(-1, n - 3), s_max + 1):
            want[n, s] = len(graded_basis(n, s)) - ranks[n, s] - ranks[n - 1, s]
    assert cohomology_dims(delta, n_max, s_max).by_grade == want


# nonzero graded pieces for n_max 3, s_max 5; every other piece is 0
SMALL_PIECES = {
    F(1): {(1, -1): 1, (1, 0): 1, (2, -1): 1},
    F(0): {(1, 1): 1, (2, 0): 1, (2, 1): 1, (3, 0): 1},
}


@pytest.mark.parametrize("delta", sorted(SMALL_PIECES))
def test_graded_route_specializes_no_entry_one_grade_up(monkeypatch, delta):
    # At a = 0 the a-linear entries, whose source sits one grade above the
    # target, vanish: ``reduced_row`` checks their grade once per row, and
    # ``matrix_d`` evaluates none of them.
    real_row, real_specialize = cohom.reduced_row, ParamPoly.specialize
    step = {}  # id of a row entry -> source grade minus target grade

    def row(c):
        out = real_row(c)
        for src, val in out.items():
            step[id(val)] = grade(src) - grade(c)
        return out

    steps = []

    def specialize(val, weight, shift):
        steps.append(step.get(id(val)))
        return real_specialize(val, weight, shift)

    monkeypatch.setattr(cohom, "reduced_row", row)
    monkeypatch.setattr(ParamPoly, "specialize", specialize)
    by_grade = cohomology_dims(delta, n_max=3, s_max=5).by_grade
    assert steps and set(steps) == {0}
    assert len(by_grade) == 20
    assert {k: v for k, v in by_grade.items() if v} == SMALL_PIECES[delta]


def test_truncated_requires_shift():
    with pytest.raises(ValueError):
        truncated_cohomology(F(1), F(0), 3, 6)


def test_truncated_converts_the_shift_before_checking_it():
    # "0" is a true string, but the shift it names is zero
    with pytest.raises(ValueError, match="nonzero shift"):
        truncated_cohomology("1", "0", 2, 2)


SHIFTED_POINTS = [
    (F(1), F(1)), (F(0), F(2)), (F(3), F(-1)),  # the bundled points
    (F(1), F(-1, 2)), (F(5, 2), F(2, 3)), (F(-2), F(3, 4)), (F(0), F(-7, 5)),
]


@pytest.mark.parametrize("delta,alpha", SHIFTED_POINTS)
def test_truncated_split_matches_two_windows(delta, alpha):
    # oracle: the S and S + 1 windows assembled and ranked on their own
    ranks = {}

    def window_dims(n_max, cutoff):
        bases = [window_basis(n, cutoff) for n in range(n_max + 2)]
        for n in range(n_max + 1):
            if (cutoff, n) not in ranks:
                rows = assemble(bases[n], bases[n + 1], delta, alpha)
                # the order only saves time
                ranks[cutoff, n] = len(pivot_columns(map(_cleared, rows[::-1])))
        return {
            n: len(bases[n]) - ranks[cutoff, n] - ranks[cutoff, n - 1]
            for n in range(1, n_max + 1)
        }

    for n_max in (2, 3, 4, 5):
        for S in range(max(-1, n_max - 3), 9 if n_max > 2 else 3):
            table = truncated_cohomology(delta, alpha, n_max, S)
            at_S, at_S1 = window_dims(n_max, S), window_dims(n_max, S + 1)
            assert table.totals == at_S, (n_max, S)
            assert table.stable == {n: at_S[n] == at_S1[n] for n in at_S}, (n_max, S)


def test_truncated_window_below_grade_zero_has_no_degree_zero_chain():
    # the empty chain has grade 0, so it is not in the window at S = -1
    assert window_basis(0, -1) == [] and window_basis(0, 0) == [()]
    table = truncated_cohomology(F(0), F(2), n_max=2, S=-1)
    assert table.totals == {1: 0, 2: 0}
    assert table.stable == {1: True, 2: False}


def test_truncated_point():
    table = truncated_cohomology(F(1), F(1), n_max=3, S=8)
    assert table.totals == {1: 0, 2: 0, 3: 0}
    assert table.stable == {1: True, 2: True, 3: True}


@pytest.mark.parametrize("n_max,S", [(3, -5), (3, -1), (4, 0), (5, 1)])
def test_truncated_rejects_empty_top_window(n_max, S):
    # below the minimal grade max(-1, n_max - 3) the top degree has no chains
    with pytest.raises(ValueError, match="minimal grade"):
        truncated_cohomology(F(1), F(1), n_max=n_max, S=S)


def test_truncated_accepts_lowest_cutoff():
    table = truncated_cohomology(F(1), F(1), n_max=4, S=1)
    assert sorted(table.stable) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# the shift is a scale: each entry of d at (D, a) is the entry at (D, 1)
# times a^(grade of its source - grade of its target), so for every a != 0
# the complex at (D, a) is isomorphic to the one at (D, 1)


def shifted_point(seed):
    """A seeded rational (D, a) with a not 0 and not 1, where a scale shows."""
    rng = random.Random(seed)
    delta = F(rng.randint(-9, 9), rng.randint(1, 5))
    alpha = F(1)
    while alpha in (0, 1):
        alpha = F(rng.randint(-9, 9), rng.randint(1, 5))
    return delta, alpha


def unscaled_entries(delta, alpha, n_max=4, s_max=6):
    """(degree, target) of each ``matrix_d`` row at (delta, alpha) that is not
    the row at a = 1 scaled entry by entry."""
    bases = [window_basis(n, s_max) for n in range(n_max + 2)]
    bad = []
    for n in range(n_max + 1):
        source, target = bases[n], bases[n + 1]
        at_a = cohom.matrix_d(n, source, target, delta, alpha).entries
        at_1 = cohom.matrix_d(n, source, target, delta, F(1)).entries
        for tgt, row_a, row_1 in zip(target, at_a, at_1):
            scaled = {j: x * alpha ** (grade(source[j]) - grade(tgt)) for j, x in row_1.items()}
            if row_a != scaled:
                bad.append((n, tgt))
    return bad


@pytest.mark.parametrize("seed", range(3))
def test_shift_is_a_scale(seed):
    delta, alpha = shifted_point(seed)
    assert unscaled_entries(delta, alpha) == []
    at_a = truncated_cohomology(delta, alpha, n_max=4, S=5)
    at_1 = truncated_cohomology(delta, F(1), n_max=4, S=5)
    assert (at_a.totals, at_a.stable) == (at_1.totals, at_1.stable)


def test_truncated_route_assembles_at_shift_one(monkeypatch):
    # every nonzero shift is computed at a = 1; the table names the point asked for
    real, shifts = cohom.matrix_d, []

    def recording(n, source, target, delta, alpha):
        shifts.append(alpha)
        return real(n, source, target, delta, alpha)

    monkeypatch.setattr(cohom, "matrix_d", recording)
    table = truncated_cohomology(F(5, 2), F(2, 3), n_max=3, S=4)
    assert len(shifts) == 4 and set(shifts) == {1}
    assert (table.delta, table.alpha) == (F(5, 2), F(2, 3))


def test_shift_scale_catches_one_unscaled_entry(monkeypatch):
    # mutant: the first a-free entry of every matrix is multiplied by a
    real = cohom.matrix_d

    def mutant(n, source, target, delta, alpha):
        m = real(n, source, target, delta, alpha)
        for tgt, row in zip(target, m.entries):
            for j in row:
                if grade(source[j]) == grade(tgt):
                    row[j] *= alpha
                    return m
        return m

    monkeypatch.setattr(cohom, "matrix_d", mutant)
    assert unscaled_entries(*shifted_point(0))


# ---------------------------------------------------------------------------
# clearing: the reduced columns of d_(n-1) retire columns of d_n, each one
# certified by d_n v = 0


def cleared_ranks(monkeypatch, route, *args):
    """Per degree of one run of ``route``: the prefix ranks ``rank`` gives
    with the relations the pass threads from the degree before, the dense
    window matrix, the cuts, and the number of relations handed in."""
    real, out = cohom.rank, []

    def recording(m, cuts, relations, name):
        handed = list(relations)
        ranks, *rest = real(m, cuts, handed, name)
        out.append((ranks, dense(m.entries, cuts[-1]), cuts, len(handed)))
        return ranks, *rest

    monkeypatch.setattr(cohom, "rank", recording)
    route(*args)
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("route", ["graded", "truncated"])
def test_rank_with_clearing_matches_gaussian_oracle(monkeypatch, seed, route):
    delta, alpha = shifted_point(seed)
    if route == "graded":
        per_degree = cleared_ranks(monkeypatch, cohomology_dims, delta, 4, 4)  # grades -1..4
    else:
        # the cuts S = 4 and S + 1 = 5
        per_degree = cleared_ranks(monkeypatch, truncated_cohomology, delta, alpha, 4, 4)
    for ranks, dense, cuts, _ in per_degree:
        assert ranks == [gauss_rank([r[:k] for r in dense])[0] if k else 0 for k in cuts]
    assert sum(cleared for *_, cleared in per_degree) > 0


def test_broken_square_is_reported_by_the_cleared_chain(monkeypatch):
    # one entry of the degree-2 matrix changed: row [2|1|0], column [2|1]; at
    # D = 1 the relation of degree 1 that clears [2|1] then fails d o d = 0
    real = cohom.matrix_d

    def broken(n, source, target, delta, alpha):
        m = real(n, source, target, delta, alpha)
        if n == 2:
            row = m.entries[target.index((2, 1, 0))]
            j = source.index((2, 1))
            row[j] = row.get(j, 0) + 1
        return m

    monkeypatch.setattr(cohom, "matrix_d", broken)
    for name, args, at in [
        ("cohomology_dims", (F(1), 2, 2), "at delta=1, alpha=0"),
        ("truncated_cohomology", (F(1), F(1, 2), 2, 2), "at delta=1, alpha=1/2"),
    ]:
        message = f"d.d != 0 on the relation that clears [2|1] in degree 2, {at}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            getattr(cohom, name)(*args)


def test_graded_rejects_bound_below_lowest_grade():
    # grade -1 ([0], [1|0]) is the lowest of any chain; the bound names it
    with pytest.raises(ValueError, match="s_max=-2 is below the minimal grade -1"):
        cohomology_dims(F(1), n_max=2, s_max=-2)
    assert cohomology_dims(F(1), n_max=2, s_max=-1).by_grade == {(1, -1): 1, (2, -1): 1}


def _overcount(monkeypatch, last_only=False):
    # one rank too many at every cut, or at the last cut (S + 1) only
    real = cohom.rank

    def overcounted(m, cuts, *clearing):
        ranks, *rest = real(m, cuts, *clearing)
        ranks = ranks[:-1] + [ranks[-1] + 1] if last_only else [r + 1 for r in ranks]
        return ranks, *rest

    monkeypatch.setattr(cohom, "rank", overcounted)


def test_negative_graded_dimension_is_reported(monkeypatch):
    _overcount(monkeypatch)
    with pytest.raises(InvariantError, match=r"degree 1, grade -1, at delta=1, alpha=0"):
        cohomology_dims(F(1), n_max=2, s_max=2)


def test_negative_truncated_dimension_is_reported(monkeypatch):
    # the first pivot claimed twice counts at both cutoffs; its second
    # relation is a true one, so only the dimension check can catch it
    real = cohom.pivot_columns
    monkeypatch.setattr(
        cohom, "pivot_columns",
        lambda vectors: {-1: next(iter(e.values())), **e} if (e := real(vectors)) else e,
    )
    with pytest.raises(InvariantError, match=r"degree 1, cutoff S=2, at delta=1, alpha=1/2"):
        truncated_cohomology(F(1), F(1, 2), 2, 2)


def test_negative_dimension_at_next_cutoff_is_reported(monkeypatch):
    _overcount(monkeypatch, last_only=True)
    with pytest.raises(InvariantError, match=r"degree 1, cutoff S\+1=3, at delta=1, alpha=1/2"):
        truncated_cohomology(F(1), F(1, 2), 2, 2)


# Terms (source chain, part) planted in the closed row of the target [3|0],
# grade 1: part 0 is the constant part of its row, part 2 the a part.  [2]
# has grade 1, [3] grade 2, [5] grade 4.
OFF_GRADE = {
    "two_grades_up": ((5,), cochain.CONST),
    "a_free_one_up": ((3,), cochain.CONST),
    "a_linear_same_grade": ((2,), cochain.A_PART),
}


# every route reads its rows from ``reduced_row``, which checks the split
# once per row; each window of grades <= 2 holds the target [3|0]
ROUTES = [
    ("truncated_cohomology", (F(1), F(1), 3, 2)),
    ("cohomology_dims", (F(1), 3, 2)),
    ("locate_classes", (F(1), 3, 2)),
]


@pytest.fixture
def fresh_rows():
    # the row of [3|0] must be rebuilt from the planted term, and no row
    # built from it may outlive the test
    algebra.clear_caches()
    yield
    algebra.clear_caches()


@pytest.mark.parametrize("case", list(OFF_GRADE))
def test_window_rejects_entry_off_the_grade_split(monkeypatch, fresh_rows, case):
    # ``cochain.row_parts`` with ``term`` planted, coefficient 1, in the parts of [3|0]
    term = OFF_GRADE[case]
    real = cochain.row_parts

    def planted(c):
        v = real(c)
        return RationalSum({**v.nums, term: v.den}, v.den) if c == (3, 0) else v

    monkeypatch.setattr(cochain, "row_parts", planted)
    message = f"row of [3|0] breaks the grade split at {chain_to_text(term[0])}: "
    for name, args in ROUTES:
        with pytest.raises(InvariantError, match=re.escape(message)):
            getattr(cohom, name)(*args)


def test_negative_located_dimension_is_reported(monkeypatch):
    # every graded table reads its classes off the free columns ``rank``
    # returns; a ``rank`` that loses the first free column of every degree
    # must fail the per-block count check
    real = cohom.rank

    def lost_class(*args):
        ranks, relations, free = real(*args)
        return ranks, relations, list(free)[1:]

    monkeypatch.setattr(cohom, "rank", lost_class)
    message = "0 classes located in degree 1, grade -1 for dimension 1, at delta=1, alpha=0"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        locate_classes(F(1), 2, 2)


# ---------------------------------------------------------------------------
# locating the class-carrying chains


def test_locate_classes():
    assert locate_classes(F(1), 3) == {1: [(0,), (1,)], 2: [(1, 0)], 3: []}
    assert locate_classes(F(0), 3) == {1: [(2,)], 2: [(2, 0), (2, 1)], 3: [(2, 1, 0)]}
    assert locate_classes(F(2), 2) == {1: [], 2: []}


@pytest.mark.parametrize("delta", sorted(GRADED_TOTALS))
def test_locate_counts_match_totals(delta):
    # every graded table carries its classes, as many in each block as its
    # dimension
    table = cohomology_dims(delta, s_max=7)
    assert tuple(table.totals[n] for n in (1, 2, 3, 4)) == GRADED_TOTALS[delta]
    assert sorted(table.classes) == [1, 2, 3, 4]
    for (n, s), dim in table.by_grade.items():
        assert sum(1 for c in table.classes[n] if grade(c) == s) == dim


def last_nonzero_pivots(vectors, width):
    """The positions at which some vector of the span has its last nonzero:
    the leftmost pivots of the vectors with their coordinates reversed."""
    return {width - 1 - p for p in gauss_rank([v[::-1] for v in vectors])[1]}


@pytest.mark.parametrize("delta", [F(1), F(0), F(2)])
def test_located_classes_match_dense_oracle(delta):
    # Column j of a block of d_n carries a class exactly when it lies in the
    # span of the columns before it and no vector of im d_(n-1) has its last
    # nonzero at j.  Oracle: each graded block assembled from ``reduced_row``
    # and reduced densely, with no ``rank`` and no ``pivot_columns``.
    n_max, s_max = 4, 7
    want = {n: [] for n in range(1, n_max + 1)}
    for s in range(-1, s_max + 1):
        bases = [graded_basis(n, s) for n in range(n_max + 2)]
        for n in range(1, n_max + 1):
            width = len(bases[n])
            d_out = dense(assemble(bases[n], bases[n + 1], delta, F(0)), width)
            d_in = dense(assemble(bases[n - 1], bases[n], delta, F(0)), len(bases[n - 1]))
            independent = set(gauss_rank(d_out)[1])
            image = last_nonzero_pivots([list(col) for col in zip(*d_in)], width)
            want[n] += [bases[n][j] for j in range(width) if j not in independent | image]
    assert locate_classes(delta, n_max, s_max) == {n: sorted(c) for n, c in want.items()}
    assert tuple(map(len, want.values())) == GRADED_TOTALS[delta]


def test_locate_assembles_each_matrix_once(capsys, monkeypatch):
    # the table and its classes come from one pass: n_max + 1 matrices
    real = cohom.matrix_d
    seen = []

    def counting(n, source, target, delta, alpha):
        seen.append((n, tuple(source), tuple(target)))
        return real(n, source, target, delta, alpha)

    monkeypatch.setattr(cohom, "matrix_d", counting)
    assert cli.main(["cohomology", "--delta", "0", "--smax", "6", "--locate"]) == 0
    assert "classes at n=3: [2|1|0]" in capsys.readouterr().out
    assert len(seen) == 5 and len(set(seen)) == 5


def test_locate_eliminates_each_matrix_once(capsys, monkeypatch):
    # the classes are read off the eliminations that rank the table: one
    # ``pivot_columns`` call per degree 0..n_max
    real = cohom.pivot_columns
    calls = []

    def counting(vectors):
        calls.append(None)
        return real(vectors)

    monkeypatch.setattr(cohom, "pivot_columns", counting)
    assert cli.main(["cohomology", "--delta", "0", "--smax", "6", "--locate"]) == 0
    assert "classes at n=2: [2|0], [2|1]" in capsys.readouterr().out
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# contraction witness for the shifted modules


@pytest.mark.parametrize(
    "n,delta,alpha",
    [
        (2, F(1), F(1)),
        (2, F(0), F(2)),
        (2, F(5, 2), F(1, 3)),
        (3, F(3), F(-1)),
    ],
)
def test_contraction_witness(n, delta, alpha):
    # at one point (D, a) the witness beta of an unstructured cochain phi
    # reproduces phi on every degree-n chain ending in 0, read off the rows
    def phi(c):
        h = 1
        for m in c:
            h = (h * 31 + m + 7) % 1009
        return F(h % 19 - 9, 1 + h % 5)

    sign = 1 if n % 2 else -1  # (-1)^(n-1)
    chains = [c for c in cohom.enumerate_chains(n, 8) if c[-1] == 0]
    assert len(chains) >= 10
    for c in chains:
        d_beta = sum(
            (
                val.specialize(delta, alpha) * sign * phi(cp + (0,)) / alpha
                for cp, val in reduced_row(c).items()
                if cp[-1] >= 1
            ),
            F(0),
        )
        assert d_beta == phi(c), c


def test_contraction_rejects_bad_input():
    # no chain ending in 0 in the window, so an empty result would check nothing
    for n_max, s_max in ((0, 8), (4, -2)):
        with pytest.raises(ValueError, match="holds no chain ending in 0"):
            contraction_defects(n_max, s_max)


# each mutant changes the real row of one chain and breaks the identity there
CONTRACTION_MUTANTS = {
    "sign_flip": ((2, 1, 0), lambda r: {**r, (2, 1): -r[(2, 1)]}),
    "extra_a_entry": ((3, 2, 0), lambda r: {**r, (4, 1): r.get((4, 1), 0) + A}),
    "empty_row": ((0,), lambda r: {}),
}


@pytest.mark.parametrize("case", list(CONTRACTION_MUTANTS))
def test_contraction_defect_is_reported_by_chain(monkeypatch, case):
    chain, mutant = CONTRACTION_MUTANTS[case]
    # contraction_defects reads the name cohom imported from cochain
    monkeypatch.setattr(
        cohom, "reduced_row", lambda c: mutant(reduced_row(c)) if c == chain else reduced_row(c)
    )
    assert contraction_defects(4, 4) == [chain]


# ---------------------------------------------------------------------------
# table rendering


def test_csv_rows_format():
    table = DimTable(delta=F(5, 2), alpha=F(0), n_max=1, s_max=2)
    table.by_grade.update({(1, -1): 0, (1, 0): 2})
    table.totals[1] = 2
    assert table.graded
    assert cli.render_csv(table) == ["delta,alpha,n,s,dim", "5/2,0,1,-1,0", "5/2,0,1,0,2"]

    trunc = DimTable(delta=F(1), alpha=F(1), n_max=1, s_max=2)
    trunc.totals.update({0: 0, 1: 3})
    trunc.stable.update({0: True, 1: False})
    assert not trunc.graded
    assert cli.render_csv(trunc) == ["delta,alpha,n,s,dim", "1,1,0,,0", "1,1,1,,3"]

    # every table owns fresh maps, never shared ones: the routes fill them in place
    blank, other = (DimTable(delta=F(0), alpha=F(0), n_max=1, s_max=2) for _ in range(2))
    assert blank.by_grade == {} and blank.totals == {}
    assert blank.by_grade is not other.by_grade and blank.totals is not other.totals
    assert trunc.by_grade is not blank.by_grade
