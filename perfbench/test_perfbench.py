"""Self-tests of the benchmark: checker, negative controls, seeds, tracing.

    python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction

import checks
import run
import workloads
from checks import check_step


def fail_ratio(results: list[tuple[str, bool]]) -> float:
    return sum(not ok for _, ok in results) / len(results)


def graded_doc(delta: str, totals: list[int]) -> str:
    doc = {
        "delta": delta, "alpha": "0", "n_max": 4, "s_max": workloads.GRADED_SMAX,
        "totals": {str(n): v for n, v in enumerate(totals, 1)},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_counts_reproduce_the_full_size_suites():
    assert sum(checks.chain_count(n, 8) for n in range(2, 6)) == 757
    assert sum(checks.chain_count(n + 2, 8) for n in range(5)) == 1093
    assert checks.gsb_counts(10) == (900, 143)


def test_perturbed_table_is_a_failure():
    step = workloads.steps("graded", 0)[0]
    assert step["delta"] == "1"
    good = check_step(step, 0, graded_doc("1", [2, 1, 0, 0]))
    assert fail_ratio(good) == 0
    bad = check_step(step, 0, graded_doc("1", [2, 1, 1, 0]))
    assert fail_ratio(bad) > 0


def test_perturbed_class_location_is_a_failure():
    step = next(s for s in workloads.steps("graded", 0) if s["kind"] == "locate")
    lines = ["totals: 2,1,0,0", "classes at n=1: [0], [1]", "classes at n=2: [1|0]",
             checks.EXPECT_LINE]
    assert fail_ratio(check_step(step, 0, "\n".join(lines) + "\n")) == 0
    lines[2] = "classes at n=2: [2|0]"
    assert fail_ratio(check_step(step, 0, "\n".join(lines) + "\n")) > 0
    # a mismatch reported by --expect paper fails the exit check on its own
    assert fail_ratio(check_step(step, 2, "totals: 2,1,0,0\n")) > 0


def test_injected_defect_is_a_failure():
    small = ["ddzero", "--letters", "3", "--smax", "4"]
    specs = [{"argv": small, "kind": "ddzero"},
             {"argv": small + ["--inject-defect"], "kind": "ddzero"}]
    doc = run.launch("run", [s["argv"] for s in specs], timeout=120)
    clean, defect = run.check_rep(specs[:1], doc), run.check_rep(specs[1:], {
        "steps": doc["steps"][1:]})
    assert fail_ratio(clean) == 0
    assert fail_ratio(defect) == 1
    assert "FAIL" in doc["steps"][1]["stderr"]


def test_seed_zero_is_the_bundled_points_and_seeds_repeat():
    assert workloads.points(0) == (workloads.BUNDLED_WEIGHTS, workloads.BUNDLED_SHIFTED)
    assert workloads.points(7) == workloads.points(7)
    for seed in range(1, 20):
        weights, shifted = workloads.points(seed)
        assert weights[:2] == ["1", "0"] and len(set(weights)) == 6
        assert [d for d, _ in shifted[:2]] == ["1", "0"]
        assert all(a != "0" for _, a in shifted)
        denominators = [Fraction(a).denominator for _, a in shifted]
        assert denominators[0] == 1 and denominators[1] in (2, 3)
        assert denominators[2] in (4, 5)


def test_traced_run_prints_the_same_and_counts_every_layer():
    argvs = [
        ["cohomology", "--delta=0", "--smax", "3", "--locate"],
        ["cohomology", "--delta=1", "--alpha=-1/2", "--truncated", "3"],
        ["ddzero", "--letters", "3", "--smax", "3"],
        ["ddzero", "--symbolic", "--degrees", "1", "--smax", "3"],
        ["gsb", "--bound", "4"],
    ]
    plain = run.launch("run", argvs, timeout=120)
    traced = run.launch("trace", argvs, timeout=120)
    assert [s["stdout"] for s in plain["steps"]] == [s["stdout"] for s in traced["steps"]]
    assert all(s["code"] == 0 for s in traced["steps"])
    layers = traced["layers"]
    assert layers["cli.points"] == 2
    assert layers["confmod.act_calls"] == 0
    for name in ("algebra.nf_calls", "anick.delta_calls", "cochain.rows_built",
                 "scalars.mul_calls", "scalars.specialize_calls", "cohom.rank_calls",
                 "anick.chains"):
        assert layers[name] > 0, name
    assert {s["name"] for s in traced["spans"]} >= {"rank", "matrix_d", "compose_delta"}


def test_traced_differential_is_reached_through_compose_default():
    # the resolution suite reaches delta_generic only through the default
    # argument that compose_delta bound when it was defined
    traced = run.launch("trace", [["ddzero", "--letters", "3", "--smax", "3"]], timeout=120)
    layers = traced["layers"]
    assert layers["cochain.row_calls"] == 0
    assert layers["anick.delta_calls"] > 0 and layers["anick.compose_s"] > 0
