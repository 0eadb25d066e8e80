"""Rank computation, dimension tables, class location, contraction witness."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from virhoch import algebra, cli, cochain, cohom
from virhoch.anick import chain_to_text, grade
from virhoch.cochain import reduced_row
from virhoch.cohom import (
    DiffMatrix,
    DimTable,
    InvariantError,
    cohomology_dims,
    locate_classes,
    matrix_d,
    pivot_columns,
    rank,
    truncated_cohomology,
    verify_contraction,
    window_basis,
)
from virhoch.scalars import ParamPoly, RationalSum

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


def as_matrix(dense, width) -> DiffMatrix:
    """Dense rows as a DiffMatrix; only the number of source chains matters."""
    sparse = [{j: v for j, v in enumerate(r) if v} for r in dense]
    return DiffMatrix(source=[(j,) for j in range(width)], target=[], entries=sparse)


def test_rank_edge_cases():
    assert rank(as_matrix([], 0), [0]) == [0]
    assert rank(as_matrix([[F(0), F(0)]], 2), [0, 1, 2]) == [0, 0, 0]
    assert rank(as_matrix([[F(1), F(0)], [F(0), F(1)]], 2), [2]) == [2]
    assert rank(as_matrix([[F(1), F(2)], [F(2), F(4)]], 2), [1, 2]) == [1, 1]
    assert rank(as_matrix([[F(1, 3)], [F(0)], [F(5)]], 1), [0, 1]) == [0, 1]
    assert rank(as_matrix([[F(0), F(1)], [F(0), F(2)]], 2), [1, 2]) == [0, 1]


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_gaussian_oracle(seed):
    # every column prefix, from one call
    rows = random_rows(seed)
    width = len(rows[0])
    prefixes = [gauss_rank([r[:k] for r in rows])[0] if k else 0 for k in range(width + 1)]
    assert rank(as_matrix(rows, width), range(width + 1)) == prefixes


@pytest.mark.parametrize("seed", range(20))
def test_pivot_columns_match_gaussian_oracle(seed):
    rows = random_rows(seed)
    for dense in (rows, [r[::-1] for r in rows]):  # both column orders
        sparse = [{j: v for j, v in enumerate(r) if v} for r in dense]
        assert pivot_columns(sparse) == gauss_rank(dense)[1]
        # the pivot set belongs to the row space, not to the row order
        assert pivot_columns(sparse[::-1]) == gauss_rank(dense)[1]


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
    assert rank(m, [1]) == [1]
    m0 = matrix_d(1, src, tgt, F(1), F(0))
    assert m0.entries == [{}]  # zeros are not stored
    assert rank(m0, [1]) == [0]


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


@pytest.mark.parametrize("delta", sorted(GRADED_TOTALS))
def test_graded_dimensions(delta):
    table = cohomology_dims(delta)
    assert tuple(table.totals[n] for n in (1, 2, 3, 4)) == GRADED_TOTALS[delta]


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
            ranks[n, s] = len(pivot_columns(rows))
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
                ranks[cutoff, n] = len(pivot_columns(rows[::-1]))  # the order only saves time
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


def test_graded_rejects_bound_below_lowest_grade():
    # grade -1 ([0], [1|0]) is the lowest of any chain; the bound names it
    with pytest.raises(ValueError, match="s_max=-2 is below the minimal grade -1"):
        cohomology_dims(F(1), n_max=2, s_max=-2)
    assert cohomology_dims(F(1), n_max=2, s_max=-1).by_grade == {(1, -1): 1, (2, -1): 1}


def _overcount(monkeypatch, last_only=False):
    # one rank too many at every cut, or at the last cut (S + 1) only
    real = cohom.rank

    def overcounted(m, cuts):
        ranks = real(m, cuts)
        return ranks[:-1] + [ranks[-1] + 1] if last_only else [r + 1 for r in ranks]

    monkeypatch.setattr(cohom, "rank", overcounted)


def test_negative_graded_dimension_is_reported(monkeypatch):
    _overcount(monkeypatch)
    with pytest.raises(InvariantError, match=r"degree 1, grade -1, at delta=1, alpha=0"):
        cohomology_dims(F(1), n_max=2, s_max=2)


def test_negative_truncated_dimension_is_reported(monkeypatch):
    # a pivot at column -1 precedes every column, so it counts at both cutoffs
    real = cohom.pivot_columns
    monkeypatch.setattr(cohom, "pivot_columns", lambda rows: [-1] + real(rows))
    with pytest.raises(InvariantError, match=r"degree 1, cutoff S=2, at delta=1, alpha=1/2"):
        truncated_cohomology(F(1), F(1, 2), 2, 2)


def test_negative_dimension_at_next_cutoff_is_reported(monkeypatch):
    _overcount(monkeypatch, last_only=True)
    with pytest.raises(InvariantError, match=r"degree 1, cutoff S\+1=3, at delta=1, alpha=1/2"):
        truncated_cohomology(F(1), F(1, 2), 2, 2)


# Terms (source chain, leading word) planted in the differential of the
# target [3|0], grade 1: the empty word feeds the a-free part of its row,
# v(0) the a part.  [2] has grade 1, [3] grade 2, [5] grade 4.
OFF_GRADE = {
    "two_grades_up": ((5,), ()),
    "a_free_one_up": ((3,), ()),
    "a_linear_same_grade": ((2,), (0,)),
}


# every route reads its rows from ``reduced_row``, which checks the split
# once per row; each window of grades <= 2 holds the target [3|0]
ROUTES = [
    ("truncated_cohomology", (F(1), F(1), 3, 2)),
    ("cohomology_dims", (F(1), 3, 2)),
    ("locate_classes", (F(1), 3, 2)),
]


# ``cochain.delta_generic`` with ``term`` planted, coefficient 1, in the value at [3|0]
PLANTED = (
    "lambda c: RationalSum({**(v := real(c)).nums, term: v.den}, v.den) "
    "if c == (3, 0) else real(c)"
)


@pytest.fixture
def fresh_rows():
    # the row of [3|0] must be rebuilt from the planted term, and no row
    # built from it may outlive the test
    algebra.clear_caches()
    yield
    algebra.clear_caches()


@pytest.mark.parametrize("case", list(OFF_GRADE))
def test_window_rejects_entry_off_the_grade_split(monkeypatch, fresh_rows, case):
    term = OFF_GRADE[case]
    planted = eval(
        PLANTED, {"real": cochain.delta_generic, "term": term, "RationalSum": RationalSum}
    )
    monkeypatch.setattr(cochain, "delta_generic", planted)
    message = f"row of [3|0] breaks the grade split at {chain_to_text(term[0])}: "
    for name, args in ROUTES:
        with pytest.raises(InvariantError, match=re.escape(message)):
            getattr(cohom, name)(*args)


def test_window_grade_check_survives_optimization():
    script = (
        "from fractions import Fraction\n"
        "from virhoch import algebra, cochain, cohom\n"
        "from virhoch.scalars import RationalSum\n"
        "real = cochain.delta_generic\n"
        f"for term in {list(OFF_GRADE.values())!r}:\n"
        f"    cochain.delta_generic = {PLANTED}\n"
        f"    for name, args in {ROUTES!r}:\n"
        "        algebra.clear_caches()\n"
        "        try:\n"
        "            getattr(cohom, name)(*args)\n"
        "        except cohom.InvariantError as exc:\n"
        "            print(name, exc)\n"
    )
    src = str(Path(cohom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(OFF_GRADE) * len(ROUTES)
    for term in OFF_GRADE.values():
        for name, _ in ROUTES:
            at = f"{name} row of [3|0] breaks the grade split at {chain_to_text(term[0])}: "
            assert any(line.startswith(at) for line in lines), at


def test_negative_dimension_check_survives_optimization():
    script = (
        "from fractions import Fraction\n"
        "from virhoch import cohom\n"
        "real = cohom.rank\n"
        "cohom.rank = lambda m, cuts: [r + 1 for r in real(m, cuts)]\n"
        "try:\n"
        "    cohom.cohomology_dims(Fraction(1), n_max=2, s_max=2)\n"
        "except cohom.InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(cohom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "negative dimension" in proc.stdout


# The located pass ranks with ``rank`` and searches each block of nonzero
# dimension with ``_block_classes``; a search that loses a class in every
# block must fail the per-block count check.
LOST_CLASS = "lambda *block: real(*block)[1:]"
LOST_MESSAGE = "0 classes located in degree 1, grade -1 for dimension 1, at delta=1, alpha=0"


def test_negative_located_dimension_is_reported(monkeypatch):
    monkeypatch.setattr(
        cohom, "_block_classes", eval(LOST_CLASS, {"real": cohom._block_classes})
    )
    with pytest.raises(InvariantError, match=f"^{re.escape(LOST_MESSAGE)}$"):
        locate_classes(F(1), 2, 2)


def test_negative_located_dimension_survives_optimization():
    script = (
        "from fractions import Fraction\n"
        "from virhoch import cohom\n"
        "real = cohom._block_classes\n"
        f"cohom._block_classes = {LOST_CLASS}\n"
        "try:\n"
        "    cohom.locate_classes(Fraction(1), 2, 2)\n"
        "except cohom.InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(cohom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == LOST_MESSAGE + "\n"


# ---------------------------------------------------------------------------
# locating the class-carrying chains


def test_locate_classes():
    assert locate_classes(F(1), 3) == {1: [(0,), (1,)], 2: [(1, 0)], 3: []}
    assert locate_classes(F(0), 3) == {1: [(2,)], 2: [(2, 0), (2, 1)], 3: [(2, 1, 0)]}
    assert locate_classes(F(2), 2) == {1: [], 2: []}


@pytest.mark.parametrize("delta", sorted(GRADED_TOTALS))
def test_locate_counts_match_totals(delta):
    # the located pass ranks with ``rank`` like the plain one, so both give
    # the same table, and each block's classes number its dimension
    plain = cohomology_dims(delta, s_max=7)
    located = cohomology_dims(delta, s_max=7, locate=True)
    assert plain.classes is None
    assert located.by_grade == plain.by_grade
    assert located.totals == plain.totals
    assert tuple(located.totals[n] for n in (1, 2, 3, 4)) == GRADED_TOTALS[delta]
    assert sorted(located.classes) == [1, 2, 3, 4]
    for n in range(1, 5):
        assert len(located.classes[n]) == located.totals[n]


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


def test_locate_searches_only_nonzero_blocks(monkeypatch):
    # at D = 0 the classes [2], [2|0], [2|1] and [2|1|0] fill four blocks
    real = cohom._block_classes
    spans = []

    def recording(d_out, d_in, lo, hi):
        spans.append((lo, hi))
        return real(d_out, d_in, lo, hi)

    monkeypatch.setattr(cohom, "_block_classes", recording)
    table = cohomology_dims(F(0), n_max=4, s_max=6, locate=True)
    nonzero = sorted(k for k, dim in table.by_grade.items() if dim)
    assert nonzero == [(1, 1), (2, 0), (2, 1), (3, 0)]
    assert len(spans) == len(nonzero)
    assert [hi - lo for lo, hi in spans] == [
        sum(1 for c in window_basis(n, s) if grade(c) == s) for n, s in nonzero
    ]


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
    rep = verify_contraction(n, delta, alpha)
    assert len(rep.samples) >= 10
    assert rep.ok, rep.summary()
    assert "all reproduced" in rep.summary()


def test_contraction_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_contraction(1, F(1), F(1))
    with pytest.raises(ValueError):
        verify_contraction(2, F(1), F(0))
    with pytest.raises(ValueError):
        verify_contraction(2, F(1), F(1), samples=[(2, 1)])


# ---------------------------------------------------------------------------
# table rendering


def test_csv_rows_format():
    table = DimTable(
        delta=F(5, 2), alpha=F(0), n_max=1, s_max=2,
        by_grade={(1, -1): 0, (1, 0): 2}, totals={1: 2},
    )
    assert cli.render_csv(table) == ["delta,alpha,n,s,dim", "5/2,0,1,-1,0", "5/2,0,1,0,2"]

    trunc = DimTable(
        delta=F(1), alpha=F(1), n_max=1, s_max=2,
        totals={0: 0, 1: 3}, stable={0: True, 1: False},
    )
    assert cli.render_csv(trunc) == ["delta,alpha,n,s,dim", "1,1,0,,0", "1,1,1,,3"]

    # tables built without by_grade or totals own fresh maps, never shared ones
    blank, other = (DimTable(delta=F(0), alpha=F(0), n_max=1, s_max=2) for _ in range(2))
    assert blank.by_grade == {} and blank.totals == {}
    assert blank.by_grade is not other.by_grade and blank.totals is not other.totals
    assert trunc.by_grade is not blank.by_grade
