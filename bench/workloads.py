"""The benchmark's workloads and their exact correctness checks.

Each workload builds its inputs from the seed (`build`, the work that
`setup_s` times after the import), computes any references outside the
timed region (`prepare`), runs one instance (`run`), checks one answer
cheaply (`ok`), and certifies answers from first principles outside
the timed region (`gate`).  Why each workload exists is in README.md.

`skew` is added to every expected value.  It is zero except in the
self-test, where a deliberately wrong reference must fail every
instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linprog

from fracbp import bounds, cli, colgen, core, lp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

TRIANGLE = "11\n01\n"


def child_env() -> dict:
    """Environment for subprocesses: fracbp from this checkout's src."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Certificates, checked from the definitions without fracbp's LP code
# ---------------------------------------------------------------------------

def _is_one(a, i: int, j: int) -> bool:
    return (a.rows[i] >> j) & 1 == 1


def check_partition(a, value, support) -> list[str]:
    """The support is a fractional partition of the ones of `a` whose
    weights sum to `value`."""
    errors = []
    cover = {}
    total = Fraction(0)
    for b, w in support:
        w = Fraction(int(w.numerator), int(w.denominator))
        if w <= 0:
            errors.append("nonpositive support weight")
        total += w
        for i in range(a.num_rows):
            if not (b.row_set >> i) & 1:
                continue
            for j in range(a.num_cols):
                if (b.col_set >> j) & 1:
                    if not _is_one(a, i, j):
                        errors.append(f"support biclique covers zero ({i},{j})")
                    cover[i, j] = cover.get((i, j), 0) + w
    ones = {(i, j) for i in range(a.num_rows) for j in range(a.num_cols)
            if _is_one(a, i, j)}
    if set(cover) != ones or any(v != 1 for v in cover.values()):
        errors.append("support does not cover every one exactly once")
    if total != value:
        errors.append(f"support weight {total} != value {value}")
    return errors


def max_biclique_weight(a, weight) -> Fraction:
    """Largest total weight of any biclique, over every row subset R and
    its best column subset (the columns common to R whose summed weight
    over R is positive).  Exponential in rows; small matrices only."""
    den = lcm(*(Fraction(weight(i, j)).denominator
                for i in range(a.num_rows) for j in range(a.num_cols)
                if _is_one(a, i, j)))
    w = [[int(Fraction(weight(i, j)) * den) if _is_one(a, i, j) else 0
          for j in range(a.num_cols)] for i in range(a.num_rows)]
    best = None
    full = (1 << a.num_cols) - 1
    # colsum[R] and common[R] are built from R minus its lowest row.
    colsum = {0: [0] * a.num_cols}
    common = {0: full}
    for r in range(1, 1 << a.num_rows):
        low = (r & -r).bit_length() - 1
        prev = r & (r - 1)
        common[r] = common[prev] & a.rows[low]
        colsum[r] = [s + x for s, x in zip(colsum[prev], w[low])]
        cols = common[r]
        if not cols:
            continue
        sums = [colsum[r][j] for j in range(a.num_cols) if (cols >> j) & 1]
        value = sum(s for s in sums if s > 0) or max(sums)
        if best is None or value > best:
            best = value
    return Fraction(best, den)


def power_from_definition(base_text: str, k: int) -> list[str]:
    """Rows of the k-th Kronecker power as '0'/'1' strings, entry by
    entry from the base digits."""
    base = [line for line in base_text.split("\n") if line]
    p, q = len(base), len(base[0])
    rows = []
    for i in range(p ** k):
        line = []
        for j in range(q ** k):
            bit, ii, jj = "1", i, j
            for _ in range(k):
                if base[ii % p][jj % q] == "0":
                    bit = "0"
                    break
                ii, jj = ii // p, jj // q
            line.append(bit)
        rows.append("".join(line))
    return rows


def check_fooling_set(a, pairs) -> list[str]:
    """Ones no two of which fit in one biclique: each pair of cells
    (i,j), (i2,j2) has a zero at (i,j2) or (i2,j)."""
    for i, j in pairs:
        if not _is_one(a, i, j):
            return [f"fooling cell ({i},{j}) is zero"]
    for x, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[x + 1:]:
            if _is_one(a, i, j2) and _is_one(a, i2, j):
                return [f"cells ({i},{j}) and ({i2},{j2}) share a biclique"]
    return []


def _matrix_rows_text(a) -> list[str]:
    return ["".join("1" if _is_one(a, i, j) else "0" for j in range(a.num_cols))
            for i in range(a.num_rows)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, seed: int, tiny: bool = False, skew: int = 0):
        self.seed = seed
        self.tiny = tiny
        self.skew = skew

    def build(self) -> list:
        raise NotImplementedError

    def prepare(self, instances) -> list[str]:
        return []

    def run(self, inst):
        raise NotImplementedError

    def ok(self, inst, out) -> bool:
        raise NotImplementedError

    def gate(self, instances, outcomes) -> list[str]:
        return []


class CrownProduct(Workload):
    """bp_f of crown(3) x crown(4) through `colgen.run`, default config:
    one exact master solve of ~1300 pivots does nearly all the work."""

    name = "crown3_x_crown4"

    def build(self):
        if self.tiny:
            return [(core.crown(3), 3)]
        return [(core.kronecker(core.crown(3), core.crown(4)), 9)]

    def run(self, inst):
        return colgen.run(inst[0], colgen.ColGenConfig())

    def ok(self, inst, report) -> bool:
        return report.converged and report.value == inst[1] + self.skew

    def gate(self, instances, outcomes):
        (a, expected), report = instances[0], outcomes[0]
        errors = check_partition(a, report.value, report.support)
        if sum(report.dual) != report.value:
            errors.append("dual objective differs from primal value")
        weights = core.EdgeWeights(a, report.dual)
        alpha = max_biclique_weight(a, weights.at)
        eps = colgen.ColGenConfig().epsilon
        if alpha > 1 + Fraction(int(eps.numerator), int(eps.denominator)):
            errors.append(f"dual prices out at {alpha} > 1 + epsilon")
        if report.value != expected + self.skew:
            errors.append(f"value {report.value} != {expected + self.skew}")
        return errors


class TrianglePower(Workload):
    """bp_f of P^k, P = [[1,1],[0,1]], through `colgen.solve_power`: a
    Kronecker ladder whose time goes to pricing."""

    name = "triangle_pow6"

    def build(self):
        k = 3 if self.tiny else 6
        base = core.parse_matrix(TRIANGLE)
        return [(base, k, core.kronecker_power(base, k))]

    def run(self, inst):
        return colgen.solve_power(inst[0], inst[1], colgen.ColGenConfig())

    def ok(self, inst, report) -> bool:
        return report.converged and report.value == 2 ** inst[1] + self.skew

    def gate(self, instances, outcomes):
        (base, k, _), report = instances[0], outcomes[0]
        a = report.matrix
        errors = []
        if _matrix_rows_text(a) != power_from_definition(TRIANGLE, k):
            errors.append("solved matrix is not the Kronecker power")
        errors += check_partition(a, report.value, report.support)
        # The diagonal of P^k is a fooling set of size 2^k, so 2^k is a
        # lower bound on bp_f and the partition above attains it.
        errors += check_fooling_set(a, [(i, i) for i in range(2 ** k)])
        if report.value != 2 ** k + self.skew:
            errors.append(f"value {report.value} != {2 ** k + self.skew}")
        return errors


class RandomSweep(Workload):
    """Seeded random 6x6 matrices with 22 ones each; bp_f by
    `colgen.run` and bc_f by `bounds.fractional_cover_number`."""

    name = "random6_sweep"
    SIZE, ONES, COUNT = 6, 22, 64

    def build(self):
        rng = random.Random(self.seed)
        n = self.SIZE
        mats = []
        for _ in range(4 if self.tiny else self.COUNT):
            cells = rng.sample(range(n * n), self.ONES)
            rows = [0] * n
            for c in cells:
                rows[c // n] |= 1 << (c % n)
            mats.append((len(mats), core.BinaryMatrix(n, n, tuple(rows))))
        return mats

    def prepare(self, instances):
        """Exact references from `lp.solve` over every biclique, each
        confirmed by a float LP over independently listed bicliques."""
        self.refs = []
        errors = []
        for _, a in instances:
            every = core.enumerate_all_bicliques(a)
            exact = [lp.solve(lp.build_master(a, every, sense)).objective
                     for sense in (lp.PARTITION, lp.COVER)]
            floats = _float_optima(a)
            for e, f in zip(exact, floats):
                if abs(float(e) - f) > 1e-6:
                    errors.append(f"exact {e} and float {f} references disagree")
            self.refs.append(exact)
        return errors

    def run(self, inst):
        a = inst[1]
        return colgen.run(a, colgen.ColGenConfig()), bounds.fractional_cover_number(a)

    def ok(self, inst, out) -> bool:
        report, cover = out
        part_ref, cover_ref = self.refs[inst[0]]
        return (report.converged and report.value == part_ref + self.skew
                and cover == cover_ref + self.skew)


def _float_optima(a) -> tuple[float, float]:
    """Float bp_f and bc_f by HiGHS over every biclique, listed here
    from row subsets and their common columns."""
    n, m = a.num_rows, a.num_cols
    cols = set()
    for r in range(1, 1 << n):
        common = (1 << m) - 1
        for i in range(n):
            if (r >> i) & 1:
                common &= a.rows[i]
        c = common
        while c:
            cols.add((r, c))
            c = (c - 1) & common
    edges = [(i, j) for i in range(n) for j in range(m) if _is_one(a, i, j)]
    mat = np.array([[1.0 if (r >> i) & 1 and (c >> j) & 1 else 0.0
                     for r, c in sorted(cols)] for i, j in edges])
    ones = np.ones(len(edges))
    cost = np.ones(mat.shape[1])
    part = linprog(cost, A_eq=mat, b_eq=ones, bounds=(0, None), method="highs")
    cover = linprog(cost, A_ub=-mat, b_ub=-ones, bounds=(0, None), method="highs")
    return part.fun, cover.fun


class CliMix(Workload):
    """`fracbp.cli.main` called in this process, one call at a time,
    cycling through calls that reach the CLI, the pricing process pool,
    checkpoint I/O, and branch and bound."""

    name = "cli_mix"
    checkpoint = os.path.join(TMP_DIR, "cli_mix.ckpt.json")

    def build(self):
        s = self.skew
        calls = [
            (["bpf", "domino", "-k", "2", "--format", "json"],
             {"value": Fraction(6 + s)}),
            (["bpf", "domino", "-k", "2", "--checkpoint", self.checkpoint,
              "--format", "json"], {"value": Fraction(6 + s), "checkpoint": True}),
            (["bcf", "crown5", "--format", "json"], {"value": Fraction(10, 3) + s}),
            (["bp", "crown5", "--format", "json"], {"value": Fraction(5 + s)}),
            (["bc", "crown5", "--format", "json"], {"value": Fraction(4 + s)}),
            (["bp", "domino", "--format", "json"], {"value": Fraction(3 + s)}),
            (["bounds", "domino", "--kmax", "5", "--upper", "2=6",
              "--upper", "3=2059/149", "--format", "json"],
             {"cover_value": Fraction(2 + s), "partition_value": Fraction(5, 2) + s}),
            (["kron", "domino", "-k", "3"],
             {"text": "\n".join(power_from_definition("110\n111\n011\n", 3 + s)) + "\n"}),
        ]
        if self.tiny:
            return [calls[2]]
        return calls

    def run(self, inst):
        """(exit code, standard output) of one CLI call."""
        argv, expect = inst
        if expect.get("checkpoint") and os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)  # a present file would be resumed
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def ok(self, inst, out) -> bool:
        argv, expect = inst
        code, stdout = out
        if code != 0:
            return False
        if "text" in expect:
            return stdout == expect["text"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        for key in ("value", "cover_value", "partition_value"):
            if key in expect and _pair(payload[key]) != expect[key]:
                return False
        if payload.get("converged") is False:
            return False
        if expect.get("checkpoint"):
            with open(self.checkpoint, encoding="ascii") as fh:
                saved = json.load(fh)
            if saved.get("matrix_hash") != payload["matrix_hash"] or not saved["entries"]:
                return False
        return True

    def gate(self, instances, outcomes):
        """`bpf` output must not depend on the worker count."""
        for (argv, _), (code, stdout) in zip(instances, outcomes):
            if argv[0] == "bpf" and "--checkpoint" not in argv:
                _, single = self.run((argv + ["--threads", "1"], {}))
                if _without_timings(single) != _without_timings(stdout):
                    return ["bpf output differs between the pool and --threads 1"]
        return []


def _pair(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def _without_timings(stdout: str):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    payload.pop("timings", None)
    return payload


WORKLOADS = {cls.name: cls for cls in (CrownProduct, TrianglePower, RandomSweep, CliMix)}
