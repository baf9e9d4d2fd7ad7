"""Column generation for the fractional biclique partition number.

The master LP asks for nonnegative biclique weights whose edge sums are
exactly one; its optimum over all bicliques is the fractional partition
number.  Since the full column set is astronomically large for Kronecker
powers, the master is solved over a growing pool: solve, price the dual
against every maximal biclique, add violated columns, prune columns that
stay slack, repeat.

Everything is exact.  The restricted master objective is an upper bound
on the true optimum, objective/alpha a lower bound (alpha is the true
pricing maximum), and the loop stops once alpha <= 1 + epsilon.  In
exact arithmetic the final master is certified against its own pool;
global dual feasibility of the rescaled dual follows from the pricing
maximum being exact.

With `stabilize`, a float mirror of the master (HiGHS dual simplex)
both screens the candidates and supplies each exact solve's starting
basis: its optimal vertex is crashed into the exact basis, and the exact
simplex only repairs and certifies it.

Pool state (bicliques plus slack counters) can be checkpointed to JSON
every iteration and resumed later; the basis itself is rebuilt from the
star columns, which are always kept in the pool so a feasible start
exists no matter what was pruned.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as _linprog

from ._rational import ONE, ZERO, as_pair, clear_denominators, rat
from .core import (
    BinaryMatrix,
    Biclique,
    EdgeWeights,
    bit_indices,
    enumerate_all_bicliques,
    incidence_column,
    kronecker,
    kronecker_biclique,
    kronecker_power,
    matrix_hash,
)
from .errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    InvariantViolation,
    SizeCapExceeded,
)
from .lp import PARTITION, SimplexSolver
from .maximal import enumerate_maximal, lift_maximal_kronecker
from .pricing import price_all

CHECKPOINT_VERSION = 1

INIT_STRATEGIES = ("stars", "all", "union")


@dataclass(frozen=True)
class ColGenConfig:
    """Knobs for a column generation run; defaults match normal use."""

    epsilon: object = rat(1, 1_000_000)
    prune_after: int = 3
    max_iterations: int = 1000
    init_strategy: str = "union"
    checkpoint_path: str | None = None
    enum_cap: int = 100_000
    # Vertex duals of a degenerate master oscillate wildly, and columns
    # priced on that noise flood the exact master without moving the
    # primal.  When set, candidates are instead collected in a cheap
    # float mirror of the master: an inner loop of float solves and
    # pricing rounds runs to a standstill, only the columns carrying
    # weight in its final solution are promoted to the exact master, and
    # its optimal basis is crashed in as the exact master's start.
    # Pure heuristic: the crash is kept only if exactly feasible, and
    # alpha, lower bounds, convergence, and certificates all keep coming
    # from the true master duals, so the answer cannot depend on any
    # float result.  False switches the float mirror off; every true
    # candidate then enters the master, which starts from its last basis.
    stabilize: bool = True

    def __post_init__(self):
        if self.init_strategy not in INIT_STRATEGIES:
            raise ContractViolation(f"unknown init strategy {self.init_strategy!r}")
        if self.epsilon < 0:
            raise ContractViolation("epsilon must be nonnegative")
        if self.prune_after < 1 or self.max_iterations < 1:
            raise ContractViolation("prune_after and max_iterations must be positive")


@dataclass
class PoolEntry:
    biclique: Biclique
    column: int
    cid: int = -1
    slack_count: int = 0
    protected: bool = False


class ColumnPool:
    """Insertion-ordered pool keyed by the canonical biclique masks."""

    def __init__(self):
        self._entries: dict[tuple[int, int], PoolEntry] = {}

    @staticmethod
    def key(b: Biclique) -> tuple[int, int]:
        return (b.row_set, b.col_set)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, b: Biclique) -> bool:
        return self.key(b) in self._entries

    def get(self, b: Biclique) -> PoolEntry | None:
        return self._entries.get(self.key(b))

    def add(self, entry: PoolEntry) -> None:
        k = self.key(entry.biclique)
        if k in self._entries:
            raise ContractViolation("duplicate biclique in pool")
        self._entries[k] = entry

    def remove(self, b: Biclique) -> None:
        del self._entries[self.key(b)]

    def entries(self) -> list[PoolEntry]:
        return list(self._entries.values())


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: object
    alpha: object
    lower_bound: object
    pool_size: int
    added: int
    pruned: int


@dataclass
class ColGenReport:
    """Outcome of a run; `value` is exact and an upper bound until
    `converged`, at which point it is the optimum over the full LP
    whenever the final alpha is at most one."""

    matrix: BinaryMatrix
    matrix_hash: str
    converged: bool
    value: object
    best_lower_bound: object
    final_alpha: object
    support: tuple
    dual: tuple
    records: list[IterationRecord] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0


def initial_stars(a: BinaryMatrix, side: str = "rows") -> list[Biclique]:
    """One star per nonempty row (or column): disjoint and covering."""
    if side == "rows":
        return [Biclique(1 << i, bits) for i, bits in enumerate(a.rows) if bits]
    return [
        Biclique(a.column_mask(j), 1 << j)
        for j in range(a.num_cols)
        if a.column_mask(j)
    ]


def initial_kronecker_support(prev_support, base_support, base_shape) -> list[Biclique]:
    """Products of two support sets, indexed like kronecker(prev, base)."""
    out = {
        kronecker_biclique(p, b, base_shape)
        for p in prev_support
        for b in base_support
    }
    return sorted(out)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, mhash: str, iteration: int, pool: ColumnPool) -> None:
    """Atomically write pool state; temp file then rename."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "matrix_hash": mhash,
        "iteration": iteration,
        "entries": [
            {
                "rows": format(e.biclique.row_set, "x"),
                "cols": format(e.biclique.col_set, "x"),
                "slack_counter": e.slack_count,
            }
            for e in pool.entries()
        ],
    }
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".ckpt.", dir=directory)
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc


def load_checkpoint(path: str, expected_hash: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Read and validate a checkpoint; returns (iteration, raw entries)."""
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        if payload["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {payload['version']} not supported")
        if payload["matrix_hash"] != expected_hash:
            raise CheckpointError(
                "checkpoint is for a different matrix (hash mismatch)")
        iteration = int(payload["iteration"])
        entries = [
            (int(e["rows"], 16), int(e["cols"], 16), int(e["slack_counter"]))
            for e in payload["entries"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
    return iteration, entries


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run(
    a: BinaryMatrix,
    config: ColGenConfig,
    maximals=None,
    extra_initial=(),
    progress=None,
) -> ColGenReport:
    """Run column generation on `a` until convergence or iteration cap.

    `maximals` may be supplied when already known (Kronecker lifting);
    otherwise they are enumerated.  `extra_initial` seeds the pool on
    top of the strategy columns; the stars are always included so the
    master stays feasible under any amount of pruning.

    Returns a ColGenReport; `converged` is False when the iteration cap
    ran out first, in which case `value` is still a valid upper bound.
    """
    t_start = time.perf_counter()
    if a.num_edges == 0:
        raise EmptyGraphError("matrix has no ones")
    mhash = matrix_hash(a)
    if maximals is None:
        maximals = enumerate_maximal(a)
    stars = initial_stars(a)

    pool = ColumnPool()
    start_iteration = 0
    resumed = False
    path = config.checkpoint_path
    if path and os.path.exists(path):
        start_iteration, raw = load_checkpoint(path, mhash)
        for rmask, cmask, slack in raw:
            b = Biclique(rmask, cmask)
            try:
                column = incidence_column(a, b)
            except ContractViolation as exc:
                raise CheckpointError(f"checkpoint entry is not a biclique: {exc}") from exc
            pool.add(PoolEntry(b, column, slack_count=slack))
        resumed = True

    if not resumed:
        for b in _initial_bicliques(a, config, extra_initial):
            if b not in pool:
                pool.add(PoolEntry(b, incidence_column(a, b)))
    for b in stars:
        entry = pool.get(b)
        if entry is None:
            pool.add(PoolEntry(b, incidence_column(a, b), protected=True))
        else:
            entry.protected = True

    solver = SimplexSolver(a.num_edges, PARTITION)
    for entry in pool.entries():
        entry.cid = solver.add_column(entry.column)
    star_ids = [pool.get(b).cid for b in stars]
    solver.install_disjoint_start(star_ids)

    records: list[IterationRecord] = []
    best_lower = ZERO
    prev_objective = None
    final_alpha = None
    converged = False
    t_master = 0.0
    t_pricing = 0.0
    t_float = 0.0
    threshold = ONE + config.epsilon
    iteration = start_iteration
    buffer = None
    use_float = config.stabilize

    while True:
        iteration += 1
        pruned = added = 0
        # Vertex duals of a degenerate master jump between extreme points of
        # the optimal dual face, and columns priced on a single extreme point
        # often miss the ones the primal actually needs.  Candidates are
        # therefore collected in a float mirror first: its inner loop runs to
        # a standstill, the columns its final solution uses are promoted to
        # the exact master, and its optimal basis is crashed into the exact
        # one, so the exact simplex only certifies and repairs it.
        if use_float:
            t0 = time.perf_counter()
            if buffer is None:
                buffer = _FloatBuffer(a)
            for entry in pool.entries():
                buffer.add(entry.biclique)
            support, degenerate = _float_phase(a, maximals, buffer, threshold)
            codes, fresh = [], []
            for k, b in enumerate(support + degenerate):
                entry = pool.get(b)
                if entry is None:
                    entry = PoolEntry(b, incidence_column(a, b))
                    entry.cid = solver.add_column(entry.column)
                    fresh.append((k < len(support), entry))
                codes.append(entry.cid)
            t_float += time.perf_counter() - t0
            t0 = time.perf_counter()
            solver.crash(codes)
            basic = set(solver.basis)
            for in_support, entry in fresh:
                if in_support or entry.cid in basic:
                    pool.add(entry)
                    added += 1
                else:
                    solver.remove_column(entry.cid)
            t_master += time.perf_counter() - t0

        t0 = time.perf_counter()
        solver.reoptimize()
        t_master += time.perf_counter() - t0
        objective = solver.objective()
        if prev_objective is not None and objective > prev_objective:
            raise InvariantViolation("master objective increased")
        prev_objective = objective
        x_by_cid = solver.primal_by_id()
        dual = solver.duals()

        t0 = time.perf_counter()
        alpha, candidates = price_all(maximals, EdgeWeights(a, dual), threshold)
        t_pricing += time.perf_counter() - t0

        lower = objective / alpha if alpha > 1 else objective
        if lower > best_lower:
            best_lower = lower
        converged = alpha <= threshold

        if not converged:
            pruned = _prune(pool, solver, x_by_cid, dual, config)
            # With the float mirror taking care of volume, the exact
            # master only needs enough of the true candidates to
            # guarantee progress; the rest wait in the buffer.
            admit = candidates[:_TRUE_ADMIT] if use_float else candidates
            for pb in admit:
                if pb.biclique in pool:
                    raise InvariantViolation(
                        "pricing returned a column already in the pool")
                entry = PoolEntry(pb.biclique, incidence_column(a, pb.biclique))
                entry.cid = solver.add_column(entry.column)
                pool.add(entry)
                added += 1
            if buffer is not None:
                for pb in candidates:
                    buffer.add(pb.biclique)
        records.append(IterationRecord(
            iteration, objective, alpha, best_lower, len(pool), added, pruned))
        final_alpha = alpha
        if progress is not None:
            progress(records[-1])
        if path:
            write_checkpoint(path, mhash, iteration, pool)
        if converged or iteration >= config.max_iterations:
            break

    support = sorted(
        ((e.biclique, x_by_cid[e.cid]) for e in pool.entries() if e.cid in x_by_cid),
        key=lambda t: (t[0].row_set, t[0].col_set))
    if converged and final_alpha > 1:
        # Certified only relative to the pool; the rescaled dual is the
        # global certificate.
        _assert_rescaled_dual(pool, dual, final_alpha)
    timings = {
        "total": time.perf_counter() - t_start,
        "master": t_master,
        "pricing": t_pricing,
        "float": t_float,
    }
    return ColGenReport(
        matrix=a, matrix_hash=mhash, converged=converged, value=prev_objective,
        best_lower_bound=best_lower, final_alpha=final_alpha,
        support=tuple(support), dual=tuple(dual), records=records,
        timings=timings)


class _FloatBuffer:
    """Float mirror of every column ever seen, exact pool included.

    Columns here cost a numpy vector each, so the buffer can afford the
    floods of near-duplicate candidates that would drown the exact
    master.  Insertion order is fixed and deduplication is by canonical
    biclique key, keeping the float solves deterministic.
    """

    def __init__(self, a: BinaryMatrix):
        self._a = a
        self._keys: set[tuple[int, int]] = set()
        self.bicliques: list[Biclique] = []
        self._cols: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.bicliques)

    def add(self, b: Biclique) -> bool:
        key = (b.row_set, b.col_set)
        if key in self._keys:
            return False
        self._keys.add(key)
        col = np.zeros(self._a.num_edges, dtype=np.float64)
        for r in bit_indices(incidence_column(self._a, b)):
            col[r] = 1.0
        self.bicliques.append(b)
        self._cols.append(col)
        return True

    def solve(self):
        """One float solve of the buffered master; None on failure."""
        mat = np.stack(self._cols, axis=1)
        try:
            res = _linprog(
                np.ones(len(self._cols)), A_eq=mat,
                b_eq=np.ones(self._a.num_edges), bounds=(0, None),
                method="highs-ds")
        except ValueError:  # pragma: no cover - solver-side rejection
            return None
        return res if res.success else None


_INNER_ROUNDS = 40
_BUFFER_CAP = 60_000
_TRUE_ADMIT = 8


def _float_phase(a, maximals, buffer: _FloatBuffer, threshold):
    """Run the float relaxation of the buffered master to a standstill.

    Alternates float solves with pricing rounds against the float dual
    (snapshotted as exact rationals) until pricing stops producing new
    columns.  Returns basis candidates from the final vertex, in buffer
    order: the support bicliques, then the zero-valued ones with zero
    reduced cost (where the rest of HiGHS's optimal basis lies).
    Everything about them is advisory: the exact master crashes them in
    only if the result is exactly feasible, and the true pricing pass
    still decides convergence, so a float failure just returns no
    candidates.
    """
    if len(buffer) == 0:
        return [], []
    res = None
    for _ in range(_INNER_ROUNDS):
        res = buffer.solve()
        if res is None:
            return [], []
        smoothed = []
        for v in res.eqlin.marginals:
            f = Fraction(float(v)).limit_denominator(10 ** 9)
            smoothed.append(rat(f.numerator, f.denominator))
        _, found = price_all(maximals, EdgeWeights(a, smoothed), threshold)
        fresh = 0
        for pb in found:
            if buffer.add(pb.biclique):
                fresh += 1
        if not fresh or len(buffer) >= _BUFFER_CAP:
            break
    zero = res.x <= 1e-9
    support = np.nonzero(~zero)[0]
    degenerate = np.nonzero(zero & (np.abs(res.lower.marginals) < 1e-9))[0]
    return ([buffer.bicliques[i] for i in support],
            [buffer.bicliques[i] for i in degenerate])


def _initial_bicliques(a, config, extra_initial) -> list[Biclique]:
    strategy = config.init_strategy
    if strategy == "stars":
        return []
    if strategy == "all":
        return enumerate_all_bicliques(a, config.enum_cap)
    # union takes whatever the caller lifted, else falls back to the
    # densest pool that fits (all bicliques, else just the stars).
    extra = list(extra_initial)
    if extra:
        return extra
    try:
        return enumerate_all_bicliques(a, config.enum_cap)
    except SizeCapExceeded:
        return []


def _prune(pool: ColumnPool, solver: SimplexSolver, x_by_cid, dual, config) -> int:
    """Update slack counters against the current dual, drop stale columns."""
    removed = 0
    # Clear denominators once so the slack test is an integer compare.
    D, nums = clear_denominators(dual)
    getter = nums.__getitem__
    for entry in pool.entries():
        rows = solver.columns[entry.cid][1]
        slack = sum(map(getter, rows)) < D
        if slack and entry.cid not in x_by_cid:
            entry.slack_count += 1
        else:
            entry.slack_count = 0
        if (entry.slack_count > config.prune_after
                and not entry.protected
                and not solver.is_basic(entry.cid)):
            solver.remove_column(entry.cid)
            pool.remove(entry.biclique)
            removed += 1
    return removed


def _assert_rescaled_dual(pool: ColumnPool, dual, alpha) -> None:
    for entry in pool.entries():
        s = sum((dual[r] for r in bit_indices(entry.column)), ZERO)
        if s / alpha > 1:
            raise InvariantViolation("rescaled dual violates a pool column")


# ---------------------------------------------------------------------------
# Kronecker ladder
# ---------------------------------------------------------------------------

def solve_power(
    base: BinaryMatrix, k: int, config: ColGenConfig, progress=None
) -> ColGenReport:
    """Column generation on the k-th Kronecker power of `base`.

    With the stars and all strategies, or when resuming from a
    checkpoint, the power is built once and solved directly.  With
    union the powers are walked level by level: level 1 starts from
    the densest pool that fits, and each later level starts from the
    products of the previous level's optimal support with level 1's,
    which seeds its master close to optimal.  Every level's matrix and
    lifted maximal bicliques are built exactly once, and only the top
    level checkpoints and reports progress.
    """
    if k < 1:
        raise ContractViolation("power must be at least 1")
    base_shape = (base.num_rows, base.num_cols)
    base_maximals = enumerate_maximal(base)

    resuming = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    if config.init_strategy != "union" or resuming:
        maximals = (
            base_maximals if k == 1
            else lift_maximal_kronecker(base_maximals, k, base_shape))
        return run(kronecker_power(base, k), config,
                   maximals=maximals, progress=progress)

    inner = replace(config, checkpoint_path=None)
    matrix, maximals, extra = base, base_maximals, []
    for level in range(1, k + 1):
        if level > 1:
            matrix = kronecker(matrix, base)
            maximals = lift_maximal_kronecker(base_maximals, level, base_shape)
            extra = initial_kronecker_support(support, base_support, base_shape)
        top = level == k
        report = run(matrix, config if top else inner, maximals=maximals,
                     extra_initial=extra, progress=progress if top else None)
        support = [b for b, _ in report.support]
        if level == 1:
            base_support = support
    return report
