"""The benchmark's scripts read fracbp by name from outside src/: the
tracer wraps functions at the names their callers look up, and
`bench/run.py` reports the rational backend after the measurement.
This checks that every name they use still exists and that every
patched name is still reached, so a rename cannot break
`bench/run.py` silently."""

import contextlib
import importlib.util
import io
from pathlib import Path

from fracbp import cli
from fracbp.colgen import ColGenConfig, solve_power
from fracbp.core import BinaryMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_environment_line_names_the_rational_backend():
    # run.py prints its result line only after this; a missing name
    # would leave the benchmark without one.
    env = load_bench("run").environment(0)
    assert env["rational_backend"] == "fractions"
    assert env["seed"] == 0


def test_tracer_reaches_every_layer(tmp_path):
    tracer_mod = load_bench("tracer")
    tracer = tracer_mod.Tracer()
    undo = tracer_mod.install(tracer)
    # Mark each patch point as its wrapper is called; uninstall puts
    # the originals back over these marks too.
    reached = set()

    def marking(point, wrapper):
        def mark(*args, **kwargs):
            reached.add(point)
            return wrapper(*args, **kwargs)
        return mark

    points = set()
    for owner, attr, _ in undo:
        point = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        points.add(point)
        setattr(owner, attr, marking(point, getattr(owner, attr)))
    try:
        triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
        report = solve_power(triangle, 3, ColGenConfig())
        checkpoint = str(tmp_path / "state.json")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv)
                     for argv in (["bcf", "crown5", "--format", "json"],
                                  ["bp", "domino", "--format", "json"],
                                  ["bounds", "domino", "--format", "json"],
                                  ["bpf", "crown5", "--checkpoint", checkpoint],
                                  ["kron", "domino", "-k", "2"])]
    finally:
        tracer_mod.uninstall(undo)
    assert report.converged and codes == [0] * 5
    for point in ("cli.solve", "cli.enumerate_maximal", "colgen.kronecker",
                  "colgen.lift_maximal_kronecker",
                  "colgen.enumerate_all_bicliques", "colgen.incidence_column"):
        assert point in points, point
    assert points - reached == set()
    counters = tracer.counters
    # The two float maxima read the shape and nbytes of colgen._linprog's
    # A_eq, so they stay real only while that argument has both.
    for name in ("lp.master_calls", "pricing.calls", "float.highs_calls",
                 "float.highs_cols_max", "float.highs_mb_max",
                 "colgen.iterations", "maximal.count", "lp.bnb_nodes",
                 "colgen.checkpoint_bytes"):
        assert counters.get(name, 0) > 0, name
    # `bp` reaches bounds.solve_integer and `bounds` reaches
    # bounds.fractional_cover_number; both solve through lp.solve.
    spans = {span[0] for span in tracer.spans}
    for name in ("lp.solve", "lp.bnb", "bounds.cover"):
        assert name in spans, name
