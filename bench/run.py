#!/usr/bin/env python3
"""Benchmark for fracbp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fracbp is imported from its src/.
With --trace 0 the workload runs closed loop (one instance after
another) in whole passes over its inputs until S seconds have gone,
and the end-to-end metrics are reported.  With --trace 1 it runs one
untraced pass and two traced passes, and the per-layer metrics of the
first traced pass plus a traced set-up are reported.  End-to-end
times are scaled to a nominal host speed (see HostSpeed), and the
measured ones are printed beside them.  Answers are
checked exactly outside the timed region either way.  The last line of
standard output is one JSON object: correct, attempted, failed,
metrics.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "wall_s": "s",
    "p50_s": "s",
    "p90_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9

# str hashing is salted afresh in every process unless PYTHONHASHSEED
# is set, and the salt alone moves the timings of one workload by ~6%
# from process to process.  The benchmark re-executes itself with the
# salt fixed, and its subprocesses inherit it.
HASH_SEED = "0"

# The host's speed is sampled by timing `reference_s` after every
# REF_EVERY_S seconds of instance time; times are then scaled to a host
# on which the reference takes REF_NOMINAL_S.  See HostSpeed.
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.02


def import_fracbp():
    """Import fracbp from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fracbp", "__init__.py")):
        raise ImportError(f"no fracbp sources under {SRC}")
    sys.path.insert(1, SRC)
    import fracbp

    where = os.path.dirname(os.path.dirname(os.path.abspath(fracbp.__file__)))
    if where != SRC:
        raise ImportError(f"fracbp imported from {where}, not {SRC}")
    return fracbp


def reference_s() -> float:
    """Seconds taken by a fixed piece of CPython work: big-integer
    Fraction sums and dict updates, the kind of work fracbp's exact
    arithmetic does.  It touches no fracbp code."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i)
    counts = {}
    for i in range(30000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Scales measured seconds to a host of fixed speed.

    On a shared host the same code runs up to 60% slower for seconds at
    a time and drifts by about 20% over minutes, in the program and in
    any fixed piece of Python alike.  So the reference is timed between
    instances, and measured seconds are multiplied by REF_NOMINAL_S over
    the reference's time.  A slower program still reads slower; a slower
    host does not.
    """

    def __init__(self):
        self.refs = [reference_s()]
        self.raw = []  # (wall s, cpu s, index of the reference before)
        self.since = 0.0

    def record(self, wall: float, cpu: float) -> None:
        self.raw.append((wall, cpu, len(self.refs) - 1))
        self.since += wall
        if self.since >= REF_EVERY_S:
            self.refs.append(reference_s())
            self.since = 0.0

    def close(self) -> None:
        """Time the reference after the last instance, if not yet done."""
        if self.since:
            self.refs.append(reference_s())
            self.since = 0.0

    def scaled(self, local: bool = True) -> list[tuple[float, float]]:
        """(wall s, cpu s) of every instance at nominal speed.

        With `local`, an instance is scaled by the mean of the two
        reference times around it.  Otherwise every instance is scaled
        by the median reference time of the run: that suits set-ups,
        which each start a fresh interpreter, whose cost follows the
        in-process reference at best over a run, not from one to the
        next."""
        median = statistics.median(self.refs)
        out = []
        for wall, cpu, k in self.raw:
            ref = (self.refs[k] + self.refs[k + 1]) / 2 if local else median
            out.append((wall * REF_NOMINAL_S / ref, cpu * REF_NOMINAL_S / ref))
        return out


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Instances attempted and failed, plus gate findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, wl, inst, out, raised: bool) -> None:
        self.attempted += 1
        try:
            good = not raised and wl.ok(inst, out)
        except Exception:  # a malformed answer counts as a failed instance
            traceback.print_exc(file=sys.stderr)
            good = False
        if not good:
            self.failed += 1


def run_pass(wl, instances, tally: Tally, speed: HostSpeed | None = None):
    """One closed-loop pass; returns (outcomes, per-instance seconds).
    With `speed`, each instance's wall and CPU time is recorded there."""
    outcomes, times = [], []
    for inst in instances:
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out, raised = wl.run(inst), False
        except Exception:  # counted as a failed instance, run continues
            traceback.print_exc(file=sys.stderr)
            out, raised = None, True
        times.append(time.perf_counter() - t0)
        if speed is not None:
            speed.record(times[-1], cpu_seconds() - c0)
        outcomes.append((out, raised))
    for inst, (out, raised) in zip(instances, outcomes):
        tally.check(wl, inst, out, raised)
    return [out for out, _ in outcomes], times


def time_setup(name: str, seed: int, trace_file=None) -> float:
    """Wall seconds of one fresh interpreter that imports fracbp and
    builds the workload's inputs."""
    import workloads

    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "setup", name, str(seed)]
    if trace_file:
        cmd.append(trace_file)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return elapsed


def percentile_note(name: str, value: float, samples: int, q: float) -> str:
    beyond = int(samples * (1 - q))
    note = f"# {name} = {value:.6f} s over {samples} samples, {beyond} beyond"
    if beyond < 10:
        note += " (fewer than ten beyond: indicative only)"
    return note


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, skew: int = 0,
            setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result object, note lines)."""
    import tracer as tr
    import workloads

    os.makedirs(os.path.join(workloads.TMP_DIR, "trace"), exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, tiny=tiny, skew=skew)
    instances = wl.build()
    tally = Tally()
    tally.errors += wl.prepare(instances)
    notes = []

    # Warm-up: lazy imports and first-call set-up happen outside timing.
    run_pass(wl, instances[:1], tally)

    if trace:
        metrics, outcomes = _traced(wl, instances, tally, name, seed)
        units = tr.LAYER_METRICS
    else:
        reference_s()  # warm-up
        setups = HostSpeed()
        for _ in range(setup_repeats):
            setups.record(time_setup(name, seed), 0.0)
        setups.close()
        speed, passes = HostSpeed(), 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            outcomes, _ = run_pass(wl, instances, tally, speed)
            passes += 1
        speed.close()
        scaled = speed.scaled()
        walls = [w for w, _ in scaled]
        p50, p90 = percentiles(walls, len(instances))
        metrics = {
            # Sums over whole passes, divided by the number of passes: on
            # a shared host a median of a few passes jumps between the
            # host's fast and slow states, while the mean moves smoothly.
            "wall_s": sum(walls) / passes,
            "p50_s": p50,
            "p90_s": p90,
            "setup_s": statistics.median(s for s, _ in setups.scaled(local=False)),
            "cpu_s": sum(c for _, c in scaled) / passes,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        raw_walls = [w for w, _, _ in speed.raw]
        raw_p50, raw_p90 = percentiles(raw_walls, len(instances))
        notes.append(f"# passes = {passes} of {len(instances)} instances")
        notes.append(f"# p50_s = {p50:.6f} s, median of {passes} pass medians"
                     f" over {len(walls)} samples")
        notes.append(percentile_note("p90_s", p90, len(walls), 0.9))
        notes.append(f"# setup_s = median of {setup_repeats} fresh interpreters")
        notes.append(
            f"# host speed: reference median {statistics.median(speed.refs):.6f} s"
            f" over {len(speed.refs)} timings, nominal {REF_NOMINAL_S} s")
        notes.append(
            "# measured, before scaling: "
            f"wall_s {sum(raw_walls) / passes:.6f}, p50_s {raw_p50:.6f}, "
            f"p90_s {raw_p90:.6f}, "
            f"setup_s {statistics.median(e for e, _, _ in setups.raw):.6f}, "
            f"cpu_s {sum(c for _, c, _ in speed.raw) / passes:.6f}")

    try:
        tally.errors += wl.gate(instances, outcomes)
    except Exception:  # e.g. an instance raised, leaving no answer to certify
        traceback.print_exc(file=sys.stderr)
        tally.errors.append("the correctness gate raised")
    if not trace:
        metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
    notes += [f"# gate: {e}" for e in tally.errors]
    result = {
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    return result, notes


def percentiles(samples: list[float], per_pass: int) -> tuple[float, float]:
    """The median over passes of each pass's median sample, and the 90th
    percentile of all samples.

    The median of all samples would do for most workloads, but
    cli_mix's eight calls fall into four fast ones and four slow ones,
    and that median is then the mean of the slowest fast sample and
    the fastest slow sample of the whole run, which jumps from run to
    run."""
    medians = [statistics.median(samples[i:i + per_pass])
               for i in range(0, len(samples), per_pass)]
    if len(samples) == 1:
        return samples[0], samples[0]
    return (statistics.median(medians),
            statistics.quantiles(samples, n=10, method="inclusive")[8])


def _traced(wl, instances, tally, name, seed):
    """Untraced pass, two traced passes, and a traced fresh set-up."""
    import tracer as tr
    import workloads

    trace_dir = os.path.join(workloads.TMP_DIR, "trace")
    setup_file = os.path.join(trace_dir, f"{name}-{seed}-setup.json")
    time_setup(name, seed, setup_file)

    t0 = time.perf_counter()
    run_pass(wl, instances, tally)
    untraced = time.perf_counter() - t0

    summaries, walls = [], []
    for k in range(2):
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        t0 = time.perf_counter()
        try:
            outcomes, _ = run_pass(wl, instances, tally)
        finally:
            tr.uninstall(undo)
        walls.append(time.perf_counter() - t0)
        tracer.dump(os.path.join(trace_dir, f"{name}-{seed}-pass{k}.json"))
        summaries.append(tracer.summary())

    for counter in tr.DETERMINISTIC:
        a, b = (s["counters"].get(counter, 0) for s in summaries)
        if a != b:
            tally.errors.append(f"{counter} differs between traced passes: {a} != {b}")
    merged = tr.merge([summaries[0], tr.load_summary(setup_file)])
    return tr.layer_metrics(merged, walls[0] / untraced - 1.0), outcomes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from fracbp import _rational

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rational_backend": _rational.BACKEND,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_fracbp()
    except ImportError as exc:
        print(f"bench: cannot import fracbp: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
