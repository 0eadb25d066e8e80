"""One cold repetition, run in a fresh interpreter by ``run.py``.

    python3 -I perfbench/child.py SRC_DIR MODE  < steps.json

MODE is ``setup`` (import and report when setup ended), ``run`` (also run
the steps) or ``trace`` (run them under ``layertrace``).  Each step is a
``virhoch`` argument list passed to ``virhoch.cli.main`` in this process;
its stdout and stderr are captured.  The reference slice (``reference.py``)
is timed just before and just after the steps, outside their timings.
The last stdout line is one JSON object.  Times come from
``time.monotonic``, which on Linux is one clock for all processes, so
``run.py`` can subtract its launch time from ``ready``.
"""

import sys
import time


def _main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import virhoch.cli as cli

    ready = time.monotonic()

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    steps = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import reference_seconds

    tracer = None
    if mode == "trace":
        import layertrace

        tracer = layertrace.install()
    reference_seconds()  # the first pass also pays for growing the heap
    before = reference_seconds()
    start = time.monotonic()
    results = []
    first_result = None
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed step; the run goes on
                traceback.print_exc()
                code = None
        if first_result is None:
            first_result = time.monotonic() - start
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = time.monotonic() - start
    after = reference_seconds()
    doc = {
        "ready": ready,
        "wall_s": wall,
        "first_result_s": first_result,
        "reference_s": (before + after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steps": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["spans"] = tracer.spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
