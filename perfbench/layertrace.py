"""Per-layer counters and self times, installed from outside the package.

``install()`` replaces the public functions of each layer by timing
wrappers.  A name is patched in its defining module and in every consumer
module that imported it by name (``anick.nf_word``, ``cochain.delta_generic``,
``cohom.reduced_row``, ...).  ``compose_delta`` binds ``delta_generic`` as
a default argument when it is defined, so its default is replaced as well.

Every ``*_s`` metric is self time: time inside the function minus time
inside the traced functions it calls.  The hot functions (``nf_word``,
``ParamPoly`` products, ``delta_generic``, ``reduced_row``) keep only
counters and summed time; the coarse ones (``matrix_d``, ``rank``,
``locate_classes``, ``compose_delta``, ``verify_defining_relations``,
``compute_table``) also record one span per call.
"""

from __future__ import annotations

import time
from collections import defaultdict

from virhoch import algebra, anick, cli, cochain, cohom, confmod
from virhoch.scalars import ParamPoly


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.spans: list[dict] = []
        # one entry per open traced call: [time spent in traced callees, span id]
        self._stack: list[list] = [[0.0, None]]
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn, span: bool = False):
        stack, clock = self._stack, time.perf_counter
        calls, self_s, spans = self.calls, self.self_s, self.spans

        def traced(*args, **kwargs):
            frame = [0.0, len(spans) if span else None]
            if span:
                spans.append(None)  # reserve the id; filled on exit
            parent = stack[-1][1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if span:
                    spans[frame[1]] = {
                        "id": frame[1], "name": name, "parent": parent,
                        "start": start - self.origin, "end": end - self.origin,
                    }

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        c, s, n = self.calls, self.self_s, self.counts
        return {
            "algebra.nf_calls": c["nf_word"],
            "algebra.nf_words": len(self.distinct["nf_word"]),
            "algebra.nf_s": s["nf_word"],
            "algebra.relations_s": s["verify_defining_relations"],
            "anick.chains": n["chains"],
            "anick.delta_calls": c["delta_generic"],
            "anick.delta_built": len(self.distinct["delta_generic"]),
            "anick.delta_terms": n["delta_terms"],
            "anick.delta_s": s["delta_generic"],
            "anick.compose_s": s["compose_delta"],
            "cochain.row_calls": c["reduced_row"],
            "cochain.rows_built": len(self.distinct["reduced_row"]),
            "cochain.row_nnz": n["row_nnz"],
            "cochain.row_s": s["reduced_row"],
            "scalars.mul_calls": c["ParamPoly.__mul__"],
            "scalars.mul_s": s["ParamPoly.__mul__"],
            "scalars.specialize_calls": c["ParamPoly.specialize"],
            "scalars.specialize_s": s["ParamPoly.specialize"],
            "confmod.act_calls": c["act_word"] + c["act_gen"],
            "cohom.matrices": c["matrix_d"],
            "cohom.matrix_cells": n["matrix_cells"],
            "cohom.matrix_nnz": n["matrix_nnz"],
            "cohom.max_side": n["max_side"],
            "cohom.assemble_s": s["matrix_d"],
            "cohom.rank_calls": c["rank"],
            "cohom.rank_s": s["rank"],
            "cohom.locate_s": s["locate_classes"],
            "cli.points": c["compute_table"],
        }


def _distinct(tracer: Tracer, name: str, fn, size_counter: str | None = None):
    """Record each first-seen argument, and add its result's size to a counter."""
    seen, counts = tracer.distinct[name], tracer.counts

    def wrapper(key):
        result = fn(key)
        if key not in seen:
            seen.add(key)
            if size_counter is not None:
                counts[size_counter] += len(result)
        return result

    return wrapper


def install() -> Tracer:
    """Patch every layer of the imported package; returns the live tracer."""
    t = Tracer()
    counts = t.counts

    nf = t.wrap("nf_word", _distinct(t, "nf_word", algebra.nf_word))
    algebra.nf_word = anick.nf_word = nf
    algebra.verify_defining_relations = t.wrap(
        "verify_defining_relations", algebra.verify_defining_relations, span=True
    )

    delta = t.wrap(
        "delta_generic",
        _distinct(t, "delta_generic", anick.delta_generic, "delta_terms"),
    )
    anick.delta_generic = cochain.delta_generic = delta
    compose = anick.compose_delta
    compose.__defaults__ = (delta,)
    anick.compose_delta = t.wrap("compose_delta", compose, span=True)

    enumerate_chains = anick.enumerate_chains

    def counted_chains(n, s_max):
        out = enumerate_chains(n, s_max)
        counts["chains"] += len(out)
        return out

    anick.enumerate_chains = cohom.enumerate_chains = counted_chains

    row = t.wrap(
        "reduced_row", _distinct(t, "reduced_row", cochain.reduced_row, "row_nnz")
    )
    cochain.reduced_row = cohom.reduced_row = row

    mul = t.wrap("ParamPoly.__mul__", ParamPoly.__mul__)
    ParamPoly.__mul__ = ParamPoly.__rmul__ = mul
    ParamPoly.specialize = t.wrap("ParamPoly.specialize", ParamPoly.specialize)

    act_word = t.wrap("act_word", confmod.act_word)
    confmod.act_word = cochain.act_word = act_word
    confmod.act_gen = t.wrap("act_gen", confmod.act_gen)

    matrix_d = t.wrap("matrix_d", cohom.matrix_d, span=True)

    def measured_matrix(n, source, target, delta, alpha):
        m = matrix_d(n, source, target, delta, alpha)
        counts["matrix_cells"] += len(source) * len(target)
        counts["matrix_nnz"] += sum(1 for r in m.entries for v in r if v)
        counts["max_side"] = max(counts["max_side"], len(source), len(target))
        return m

    cohom.matrix_d = measured_matrix
    cohom.rank = t.wrap("rank", cohom.rank, span=True)
    cohom.locate_classes = t.wrap("locate_classes", cohom.locate_classes, span=True)
    cli.compute_table = t.wrap("compute_table", cli.compute_table, span=True)
    return t
