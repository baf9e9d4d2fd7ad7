"""In-memory spans and counters around fracbp's layer boundaries.

Tracing lives entirely in the benchmark: `install` replaces public
functions with timing wrappers at the names their callers look up
(`fracbp.colgen.price_all`, not `fracbp.pricing.price_all`, because
colgen bound the name at import), and `uninstall` puts the originals
back.  Nothing inside `src/fracbp` knows it is being traced.

`ColGenReport.timings` is never read: its "pricing" entry silently
includes the float phase.
"""

from __future__ import annotations

import json
import os
import time

# Per-layer metrics in output order: name -> unit.  Times are summed span
# durations, except colgen.self_s, which is colgen.run time not covered
# by a traced child span.
LAYER_METRICS = {
    "lp.master_s": "s",
    "lp.master_calls": "count",
    "lp.pivots": "count",
    "lp.det_bits_max": "bits",
    "lp.pyint_solves": "count",
    "pricing.s": "s",
    "pricing.calls": "count",
    "pricing.maximals": "count",
    "pricing.subsets": "count",
    "pricing.useful_ratio": "ratio",
    "float.highs_s": "s",
    "float.highs_calls": "count",
    "float.highs_cols_max": "count",
    "float.highs_mb_max": "MB",
    "colgen.iterations": "count",
    "colgen.columns_added": "count",
    "colgen.columns_pruned": "count",
    "colgen.pool_max": "count",
    "colgen.incidence_s": "s",
    "colgen.checkpoint_s": "s",
    "colgen.checkpoint_bytes": "bytes",
    "colgen.self_s": "s",
    "lp.solve_s": "s",
    "lp.bnb_s": "s",
    "lp.bnb_nodes": "count",
    "bounds.cover_s": "s",
    "bounds.fooling_s": "s",
    "cli.import_s": "s",
    "core.kronecker_s": "s",
    "core.enum_all_s": "s",
    "maximal.enum_s": "s",
    "maximal.lift_s": "s",
    "maximal.count": "count",
    "trace.overhead_frac": "ratio",
}

# Span name -> per-layer metric holding its total time.
SPAN_METRICS = {
    "lp.master": "lp.master_s",
    "pricing": "pricing.s",
    "float.highs": "float.highs_s",
    "colgen.incidence": "colgen.incidence_s",
    "colgen.checkpoint": "colgen.checkpoint_s",
    "lp.solve": "lp.solve_s",
    "lp.bnb": "lp.bnb_s",
    "bounds.cover": "bounds.cover_s",
    "bounds.fooling": "bounds.fooling_s",
    "core.kronecker": "core.kronecker_s",
    "core.enum_all": "core.enum_all_s",
    "maximal.enum": "maximal.enum_s",
    "maximal.lift": "maximal.lift_s",
}

# Counters kept as maxima rather than sums when summaries are merged.
MAX_COUNTERS = ("lp.det_bits_max", "float.highs_cols_max",
                "float.highs_mb_max", "colgen.pool_max")

# Counters that must repeat exactly between two runs of the same inputs.
DETERMINISTIC = ("lp.pivots", "colgen.iterations", "pricing.subsets",
                 "colgen.columns_added")


class Tracer:
    """Spans (name, start, end, parent index) and named counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, span index]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        self._stack.append([name, time.perf_counter(), len(self.spans)])
        # The slot is reserved now so that children can point at it.
        self.spans.append((name, 0.0, 0.0, parent))

    def exit(self) -> None:
        name, start, index = self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), self.spans[index][3])

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name: str, value) -> None:
        if value > self.counters.get(name, value - 1):
            self.counters[name] = value

    def summary(self) -> dict:
        return summarize(self.spans, self.counters)

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans, counters) -> dict:
    """Span totals and self times by name, plus the counters."""
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start)
        selfs[name] = selfs.get(name, 0.0) + (end - start - child[i])
    return {"totals": totals, "selfs": selfs, "counters": dict(counters)}


def load_summary(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    return summarize(doc["spans"], doc["counters"])


def merge(summaries) -> dict:
    """Combine summaries from several processes or passes."""
    out = {"totals": {}, "selfs": {}, "counters": {}}
    for s in summaries:
        for key in ("totals", "selfs"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0.0) + v
        for name, v in s["counters"].items():
            if name in MAX_COUNTERS:
                out["counters"][name] = max(out["counters"].get(name, v), v)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + v
    return out


def layer_metrics(summary: dict, overhead_frac: float) -> dict:
    """Per-layer metric values (name -> number) from a merged summary."""
    totals, counters = summary["totals"], summary["counters"]
    values = {metric: totals.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    values["colgen.self_s"] = summary["selfs"].get("colgen.run", 0.0)
    candidates = counters.get("pricing.candidates", 0)
    added = counters.get("colgen.columns_added", 0)
    values["pricing.useful_ratio"] = added / candidates if candidates else 0.0
    values["trace.overhead_frac"] = overhead_frac
    for metric in LAYER_METRICS:
        if metric not in values:
            values[metric] = counters.get(metric, 0)
    return {m: values[m] for m in LAYER_METRICS}


def _span(tracer: Tracer, name: str, fn, after=None, before=None):
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, kwargs, result, state)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap fracbp's layer entry points; returns the undo list for
    `uninstall`.  fracbp must already be imported."""
    from fracbp import bounds, cli, colgen, core, lp

    def master_before(args):
        return args[0].pivots

    def master_after(args, kwargs, result, pivots0):
        solver = args[0]
        tracer.add("lp.master_calls", 1)
        tracer.add("lp.pivots", solver.pivots - pivots0)
        tracer.high("lp.det_bits_max", int(solver.delta).bit_length())
        if solver.T.dtype == object:
            tracer.add("lp.pyint_solves", 1)

    def pricing_after(args, kwargs, result, state):
        maximals = args[0]
        tracer.add("pricing.calls", 1)
        tracer.add("pricing.maximals", len(maximals))
        tracer.add("pricing.subsets", sum(
            1 << min(b.row_set.bit_count(), b.col_set.bit_count())
            for b in maximals))
        tracer.add("pricing.candidates", len(result[1]))

    def highs_after(args, kwargs, result, state):
        a_eq = kwargs["A_eq"]
        tracer.add("float.highs_calls", 1)
        tracer.high("float.highs_cols_max", a_eq.shape[1])
        tracer.high("float.highs_mb_max", a_eq.nbytes / 2**20)

    def run_after(args, kwargs, report, state):
        tracer.add("colgen.iterations", len(report.records))
        tracer.add("colgen.columns_added", sum(r.added for r in report.records))
        tracer.add("colgen.columns_pruned", sum(r.pruned for r in report.records))
        tracer.high("colgen.pool_max", max(r.pool_size for r in report.records))

    def checkpoint_after(args, kwargs, result, state):
        tracer.add("colgen.checkpoint_bytes", os.path.getsize(args[0]))

    def count_maximals(args, kwargs, result, state):
        tracer.add("maximal.count", len(result))

    def bnb_after(args, kwargs, result, state):
        tracer.add("lp.bnb_nodes", result.nodes)

    solve = _span(tracer, "lp.solve", lp.solve)
    solve_integer = _span(tracer, "lp.bnb", lp.solve_integer, after=bnb_after)
    enum_maximal = _span(tracer, "maximal.enum", colgen.enumerate_maximal,
                         after=count_maximals)
    enum_all = _span(tracer, "core.enum_all", core.enumerate_all_bicliques)
    kronecker = _span(tracer, "core.kronecker", core.kronecker)
    plan = [
        (lp.SimplexSolver, "reoptimize",
         _span(tracer, "lp.master", lp.SimplexSolver.reoptimize,
               after=master_after, before=master_before)),
        (colgen, "price_all",
         _span(tracer, "pricing", colgen.price_all, after=pricing_after)),
        (colgen, "_linprog",
         _span(tracer, "float.highs", colgen._linprog, after=highs_after)),
        (colgen, "run", _span(tracer, "colgen.run", colgen.run, after=run_after)),
        (colgen, "incidence_column",
         _span(tracer, "colgen.incidence", colgen.incidence_column)),
        (colgen, "write_checkpoint",
         _span(tracer, "colgen.checkpoint", colgen.write_checkpoint,
               after=checkpoint_after)),
        (colgen, "lift_maximal_kronecker",
         _span(tracer, "maximal.lift", colgen.lift_maximal_kronecker,
               after=count_maximals)),
        (colgen, "enumerate_maximal", enum_maximal),
        (bounds, "enumerate_maximal", enum_maximal),
        (cli, "enumerate_maximal", enum_maximal),
        (colgen, "enumerate_all_bicliques", enum_all),
        (bounds, "enumerate_all_bicliques", enum_all),
        (colgen, "kronecker", kronecker),
        (core, "kronecker", kronecker),
        (lp, "solve", solve),
        (bounds, "solve", solve),
        (cli, "solve", solve),
        (bounds, "solve_integer", solve_integer),
        (bounds, "fractional_cover_number",
         _span(tracer, "bounds.cover", bounds.fractional_cover_number)),
        (bounds, "fooling_set", _span(tracer, "bounds.fooling", bounds.fooling_set)),
    ]
    undo = []
    for owner, attr, wrapper in plan:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
