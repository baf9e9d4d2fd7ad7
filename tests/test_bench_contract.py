"""The benchmark's tracer wraps fracbp functions by name from outside
src/; this checks that every name it patches still exists and is still
reached, so a rename cannot break `bench/run.py --trace 1` silently."""

import contextlib
import importlib.util
import io
from pathlib import Path

from fracbp import cli
from fracbp.colgen import ColGenConfig, solve_power
from fracbp.core import BinaryMatrix

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_every_layer():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    try:
        triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
        report = solve_power(triangle, 3, ColGenConfig())
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bcf", "crown5", "--format", "json"])
    finally:
        tracer_mod.uninstall(undo)
    assert report.converged and code == 0
    counters = tracer.counters
    for name in ("lp.master_calls", "pricing.calls", "float.highs_calls",
                 "colgen.iterations", "maximal.count"):
        assert counters.get(name, 0) > 0, name
