"""End-to-end acceptance checks.

One test per headline claim, each printing a single pass/fail line with its
runtime against the agreed budget (run with ``pytest -s`` to see them on
success; they also appear in failure output).  These intentionally repeat
some unit-test ground at full width: the point is a one-stop gate.
"""

import time
from fractions import Fraction

from virhoch.algebra import verify_defining_relations
from virhoch.anick import (
    chain_to_text,
    compose_delta,
    delta_generic,
    enumerate_chains,
)
from virhoch.cochain import reduced_row
from virhoch.cohom import (
    cohomology_dims,
    contraction_defects,
    locate_classes,
    truncated_cohomology,
)
from virhoch.oracles import action_row, bar_row, delta_closed
from virhoch.scalars import A, D, ParamPoly

F = Fraction
S_MAX = 8


class Budget:
    """Context timer that prints one verdict line and enforces the cap."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "FAIL" if exc_type else "PASS"
        print(f"[{status}] {self.name}: {elapsed:.2f}s (budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its budget: {elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def test_accept_1_rewriting_system():
    with Budget("defining relations and overlap ambiguities", 10):
        wide = verify_defining_relations(12)
        assert wide.ok, wide.summary()
        assert wide.locality_checked + wide.commutator_checked >= 100

        confluent = verify_defining_relations(10)
        assert confluent.ok, confluent.summary()
        assert confluent.overlaps_checked >= 100


def test_accept_2_closed_differential_matches_generic():
    with Budget("closed resolution differential == generic", 30):
        checked = 0
        for n in range(1, 6):
            for c in enumerate_chains(n, S_MAX):
                assert delta_closed(c) == delta_generic(c).fractions(), chain_to_text(c)
                checked += 1
        assert checked > 400


def test_accept_3_resolution_square_zero():
    with Budget("delta . delta = 0 on the resolution", 30):
        checked = 0
        for n in range(2, 6):
            for c in enumerate_chains(n, S_MAX):
                residual = compose_delta(c)
                assert not residual, f"{chain_to_text(c)}: {residual}"
                checked += 1
        assert checked > 300


def test_accept_4_closed_reduced_rows_match_generic():
    with Budget("closed rows == bar-route and action rows", 60):
        checked = 0
        for n in range(1, 6):
            for c in enumerate_chains(n, S_MAX):
                row = reduced_row(c)
                assert bar_row(c) == row, chain_to_text(c)
                assert action_row(c) == row, chain_to_text(c)
                checked += 1
        # every chain with 1-5 letters and grade <= 8, none deferred
        assert checked == 767

        # headline displays
        for n in (2, 4, 7):
            assert reduced_row((n, 1, 0)) == {
                (n, 0): -D - ParamPoly.const(n - 2),
                (n, 1): A,
            }
        for n in (3, 5):
            assert reduced_row((n, 2, 0)) == {
                (n, 2): A,
                (n + 1, 0): -Fraction(2 * n, n + 1) * D
                - ParamPoly.const(F(n * (n - 1), n + 1) + (n - 2)),
                (n + 2, 0): A * F(n - 1, n + 1),
            }


def test_accept_5_cochain_square_zero_symbolic():
    with Budget("d . d = 0 symbolically over Q[D, a]", 60):
        checked = 0
        for n in range(0, 5):
            for c in enumerate_chains(n + 2, S_MAX):
                acc: dict = {}
                for mid, outer in reduced_row(c).items():
                    for src, inner in reduced_row(mid).items():
                        cur = acc.get(src, ParamPoly.const(0)) + outer * inner
                        if cur:
                            acc[src] = cur
                        elif src in acc:
                            del acc[src]
                assert acc == {}, f"d.d != 0 at {chain_to_text(c)}: {acc}"
                checked += 1
        assert checked > 1000


def test_accept_6_dimension_tables():
    with Budget("dimension tables at the nine parameter points", 120):
        graded = {
            F(1): (2, 1, 0, 0),
            F(0): (1, 2, 1, 0),
            F(2): (0, 0, 0, 0),
            F(-1): (0, 0, 0, 0),
            F(-2): (0, 0, 0, 0),
            F(5, 2): (0, 0, 0, 0),
        }
        for delta, expected in graded.items():
            table = cohomology_dims(delta, n_max=4, s_max=S_MAX)
            got = tuple(table.totals[n] for n in (1, 2, 3, 4))
            assert got == expected, f"delta={delta}: {got} != {expected}"

        for delta, alpha in ((F(1), F(1)), (F(0), F(2)), (F(3), F(-1))):
            table = truncated_cohomology(delta, alpha, n_max=4, S=S_MAX)
            assert all(v == 0 for v in table.totals.values()), (delta, alpha, table.totals)
            assert all(table.stable.values()), (delta, alpha, table.stable)


def test_accept_7_class_locations():
    with Budget("chains carrying the surviving classes", 60):
        expected = {
            (F(1), 1): [(0,), (1,)],
            (F(1), 2): [(1, 0)],
            (F(1), 3): [],
            (F(1), 4): [],
            (F(0), 1): [(2,)],
            (F(0), 2): [(2, 0), (2, 1)],
            (F(0), 3): [(2, 1, 0)],
            (F(0), 4): [],
        }
        located = {delta: locate_classes(delta, 4, s_max=S_MAX) for delta in (F(1), F(0))}
        for (delta, n), chains in expected.items():
            got = located[delta][n]
            assert got == chains, f"delta={delta}, n={n}: {got}"


def test_accept_8_contraction_witness():
    with Budget("coboundary witness identity in degrees 1-5", 60):
        assert contraction_defects(5, S_MAX) == []
