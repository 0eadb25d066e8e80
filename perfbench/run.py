#!/usr/bin/env python3
"""Cold end-to-end benchmark of the ``virhoch`` command.

Run from the repository root:

    python3 perfbench/run.py --workload graded --seed 0 --seconds 40 --trace 0

Every repetition is a fresh interpreter (``child.py``) that imports
``virhoch.cli`` from ``src/`` and runs the workload's steps through
``virhoch.cli.main``, one repetition at a time, without the table cache.
This process checks every output (``checks.py``) and prints, as its last
stdout line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` repeats cold runs until ``--seconds`` is used up and reports
medians of the end-to-end metrics:

* ``setup_s``: interpreter launch until ``import virhoch.cli`` returns,
  sampled ``SETUP_SAMPLES`` extra times per run;
* ``wall_s``: the whole workload after setup;
* ``first_result_s``: end of setup until the first step returns, the
  latency of one cold ``virhoch`` call;
* ``peak_rss_mb``: peak resident memory of the repetition.

Every time is reported at reference speed (``reference.py``): measured
seconds times ``REFERENCE_S`` over the time of a fixed slice of interpreter
work, taken in the same process around the workload.  The raw medians go
to stderr.

``--trace 1`` runs one untraced and one traced repetition (``layertrace.py``)
and reports the per-layer metrics, ``cli.checks`` and ``trace.overhead_s``
(traced minus untraced wall time).  It checks that both print identical
stdout, and writes the spans to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_step
from reference import REFERENCE_S
from workloads import WORKLOADS, steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPANS_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 20
# a run must exit within 180 s: no repetition starts that could end later
DEADLINE_S = 165.0


class ChildFailed(Exception):
    pass


def launch(mode: str, argvs: list[list[str]], timeout: float) -> dict:
    """One fresh interpreter; returns its report plus the measured ``setup_s``."""
    env = dict(os.environ)
    env.pop("VIRHOCH_CACHE_DIR", None)  # cold runs: never read or write the cache
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(CHILD), str(SRC), mode],
            input=json.dumps(argvs), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["ready"] - start
    return doc


def check_rep(specs: list[dict], doc: dict | None) -> list[tuple[str, bool]]:
    if doc is None:
        return [(f"ran: {' '.join(s['argv'])}", False) for s in specs for _ in range(2)]
    out = []
    for spec, res in zip(specs, doc["steps"]):
        out += check_step(spec, res["code"], res["stdout"])
    return out


class Run:
    """Checks and timings gathered over one invocation."""

    def __init__(self, workload: str, seed: int):
        self.specs = steps(workload, seed)
        self.argvs = [s["argv"] for s in self.specs]
        self.start = time.monotonic()
        self.checks: list[tuple[str, bool]] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def rep(self, mode: str) -> dict | None:
        try:
            doc = launch(mode, self.argvs, timeout=max(1.0, self.remaining()))
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            doc = None
        self.checks += check_rep(self.specs, doc)
        return doc


def measure(run: Run, seconds: int) -> dict:
    launch("setup", [], timeout=60)  # untimed: compiles the bytecode once
    setups = [launch("setup", [], timeout=60)["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps = []
    while True:
        began = time.monotonic()
        doc = run.rep("run")
        if doc is None:
            break
        reps.append(doc)
        setups.append(doc["setup_s"])
        print(f"repetition {len(reps)}: wall {doc['wall_s']:.3f} s, first result "
              f"{doc['first_result_s']:.3f} s, reference slice {doc['reference_s']:.4f} s",
              file=sys.stderr)
        took = time.monotonic() - began
        used = time.monotonic() - run.start
        if used + took > seconds or took > run.remaining():
            break
    if not reps:
        raise ChildFailed("no repetition completed")

    def median(key: str, scaled: bool = True) -> float:
        return statistics.median(
            doc[key] * (REFERENCE_S / doc["reference_s"] if scaled else 1) for doc in reps
        )

    # setup-only interpreters run no reference slice: use the run's median
    setup_scale = REFERENCE_S / median("reference_s", scaled=False)
    print(f"{len(reps)} cold repetitions, {len(setups)} setup samples; raw medians: "
          f"wall {median('wall_s', False):.3f} s, first result "
          f"{median('first_result_s', False):.3f} s, setup {statistics.median(setups):.4f} s, "
          f"reference slice {median('reference_s', False):.4f} s", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setups) * setup_scale, "unit": "s"},
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "first_result_s": {"value": median("first_result_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb", scaled=False), "unit": "MB"},
    }


def trace(run: Run, workload: str, seed: int) -> dict:
    launch("setup", [], timeout=60)
    plain = run.rep("run")
    traced = run.rep("trace")
    if plain is None or traced is None:
        raise ChildFailed("the traced comparison did not complete")
    traced_checks = len(run.checks) // 2
    for argv, a, b in zip(run.argvs, plain["steps"], traced["steps"]):
        run.checks.append((f"traced stdout identical: {' '.join(argv)}", a["stdout"] == b["stdout"]))
    scale = REFERENCE_S / traced["reference_s"]
    metrics = {
        name: v * scale if name.endswith("_s") else v for name, v in traced["layers"].items()
    }
    metrics["cli.checks"] = traced_checks
    # one scale for both walls: the overhead is small next to the noise of
    # two separate reference slices
    pair_scale = REFERENCE_S / ((plain["reference_s"] + traced["reference_s"]) / 2)
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"]) * pair_scale
    SPANS_DIR.mkdir(exist_ok=True)
    (SPANS_DIR / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(traced["spans"]))
    return {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
            for name, v in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "virhoch" / "cli.py").is_file():
        print(f"error: no virhoch sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics = trace(run, args.workload, args.seed)
        else:
            metrics = measure(run, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [label for label, ok in run.checks if not ok]
    for label in failed:
        print(f"FAILED check: {label}", file=sys.stderr)
    attempted = len(run.checks)
    print(f"{args.workload} seed {args.seed}: {attempted} checks, "
          f"fail_ratio {len(failed) / attempted:g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
