"""Fresh-interpreter set-up for the benchmark.

    python3 bench/child.py setup WORKLOAD SEED [TRACE_FILE]

Imports fracbp and builds the workload's inputs, then exits; with
TRACE_FILE the build is traced and the trace written there, including
`cli.import_s`, the time to import fracbp (CLI included) in a fresh
interpreter.  fracbp is taken from PYTHONPATH, which the parent points
at the checkout's src.
"""

import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import workloads  # imports fracbp, fracbp.cli among it

    import_s = time.perf_counter() - t0

    import tracer as tr

    trace_file = argv[3] if len(argv) > 3 else None
    t = tr.Tracer()
    t.add("cli.import_s", import_s)
    undo = tr.install(t) if trace_file else []
    try:
        workloads.WORKLOADS[argv[1]](int(argv[2])).build()
    finally:
        tr.uninstall(undo)
    if trace_file:
        t.dump(trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
