#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a tiny variant of every workload in both modes and checks that
each emits exactly the metrics BENCHMARK.json names, with their units,
and answers correctly; then checks that a deliberately wrong reference
fails every instance (ok_frac 0, that is failed_frac 1) and marks the
result incorrect.  Exits 0 when all of that holds.
"""

import json
import os
import sys

import run


def main() -> int:
    run.import_fracbp()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    if wanted[False] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")

    for name in names:
        for trace in (False, True):
            result, notes = run.measure(name, seed=1, seconds=0.01, trace=trace,
                                        tiny=True, setup_repeats=1)
            label = f"{name} trace={int(trace)}"
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{label}: metrics/units {units} != {wanted[trace]}")
            if any(not isinstance(v["value"], (int, float))
                   for v in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: tiny run not correct: {result} {notes}")
        result, _ = run.measure(name, seed=1, seconds=0.01, trace=False,
                                tiny=True, skew=1, setup_repeats=1)
        if result["correct"] or result["metrics"]["ok_frac"]["value"] != 0.0:
            problems.append(f"{name}: wrong reference not caught: {result}")
        print(f"{name}: checked", file=sys.stderr)

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
