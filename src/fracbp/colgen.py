"""Column generation for the fractional biclique partition number.

The master LP asks for nonnegative biclique weights whose edge sums are
exactly one; its optimum over all bicliques is the fractional partition
number.  Since the full column set is astronomically large for Kronecker
powers, the master is solved over a growing column set: solve, price the
dual against every maximal biclique, add violated columns, repeat.

Everything reported is exact.  The restricted master objective is an
upper bound on the true optimum, objective/alpha a lower bound (alpha is
the true pricing maximum), and the loop stops once alpha <= 1 + epsilon.
In exact arithmetic the final master is certified against its own
columns; global dual feasibility of the rescaled dual follows from the
pricing maximum being exact.

The run keeps one column store: a float mirror of the master over
every column met so far, namely the checkpointed ones, the init
strategy's, the stars and every priced candidate.  It holds them as
sparse 0/1 columns (CSC: column starts and edge indices), and each
float solve passes them to a fresh model of HiGHS's dual simplex
through scipy's own binding.  Each iteration runs the mirror to a
standstill and then builds the exact master afresh, listing each of
its columns once: the stars, `carried` (the structural columns of the
previous exact basis plus a few exact candidates), and the basic
columns of HiGHS's final optimal basis.  That basis is crashed in
whole, the artificials of its basic rows first, so the exact simplex
only certifies it.  When a float solve fails or the crash is rejected,
the exact master is instead the stars, `carried` and every column of
the mirror, the strategy columns among them.  The floats only steer:
the crash is kept only if exactly feasible, and alpha, the bounds,
convergence and the certificate all come from the exact master's
dual.  The previous exact optimum stays feasible in the next exact
master, so the objective never rises.  When the exact dual equals the
rounded float dual the mirror priced last, that pricing result is the
exact one, and it is reused instead of priced again.

`carried` can be checkpointed to JSON every iteration and resumed
later: a resumed run seeds the float mirror with it and carries it all
into its first exact master.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np
# scipy's private HiGHS binding; see pyproject.toml.
from scipy.optimize._highspy import _core as _highs

from ._rational import ONE, ZERO, rat
from .core import (
    BinaryMatrix,
    Biclique,
    EdgeWeights,
    check_power_size,
    enumerate_all_bicliques,
    incidence_column,
    kronecker,
    kronecker_biclique,
    matrix_hash,
)
from .errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    InvariantViolation,
    SizeCapExceeded,
)
from .lp import PARTITION, SimplexSolver, highs_model, highs_solution
from .maximal import enumerate_maximal, lift_maximal_kronecker
from .pricing import price_all

CHECKPOINT_VERSION = 1

INIT_STRATEGIES = ("stars", "all", "union")


@dataclass(frozen=True)
class ColGenConfig:
    """Knobs for a column generation run; defaults match normal use.

    The run converges once the pricing maximum is at most 1 + `epsilon`
    and stops after `max_iterations` otherwise.  `init_strategy` picks
    the columns that seed the float mirror besides the stars.
    `checkpoint_path` names a JSON file written every iteration and
    resumed from when it exists.
    """

    epsilon: object = rat(1, 1_000_000)
    max_iterations: int = 1000
    init_strategy: str = "union"
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.init_strategy not in INIT_STRATEGIES:
            raise ContractViolation(f"unknown init strategy {self.init_strategy!r}")
        if self.epsilon < 0:
            raise ContractViolation("epsilon must be nonnegative")
        if self.max_iterations < 1:
            raise ContractViolation("max_iterations must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's bounds and the counts of the columns it carries.

    `pool_size` counts `carried`, the columns this iteration hands to
    the next exact master besides the stars and HiGHS's basis: the
    structural columns of its optimal basis plus the candidates admitted
    for the next one.  It is also what the checkpoint holds.  `added`
    and `pruned` count the carried columns that the previous iteration
    did not carry, and the reverse; a resumed checkpoint's columns count
    as carried before the first iteration.  Columns of the float mirror
    are not counted.
    """

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
    whenever the final alpha is at most one.

    `timings` holds seconds by phase: "total", "master", "float" (the
    float mirror, its pricing rounds included) and "pricing", which
    counts only the exact pricing calls made, not the iterations that
    reused the float mirror's last pricing.  "master" covers building
    each exact master, the crash and the exact solve.  The records'
    `pool_size`, `added` and `pruned` count each iteration's carried
    columns against the previous iteration's, not the float mirror's.
    """

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


def initial_stars(a: BinaryMatrix) -> list[Biclique]:
    """One star per nonempty row: disjoint and covering."""
    return [Biclique(1 << i, bits) for i, bits in enumerate(a.rows) if bits]


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

def write_checkpoint(path: str, mhash: str, iteration: int, bicliques) -> None:
    """Atomically write the carried columns; temp file then rename."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "matrix_hash": mhash,
        "iteration": iteration,
        "entries": [
            {"rows": format(b.row_set, "x"), "cols": format(b.col_set, "x")}
            for b in bicliques
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


def load_checkpoint(path: str, expected_hash: str) -> tuple[int, list[Biclique]]:
    """Read and validate a checkpoint; returns (iteration, bicliques).

    Keys of an entry other than "rows" and "cols" are ignored, so files
    that also store a slack counter per entry still load.  Whether the
    bicliques fit the matrix is left to the caller.
    """
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        if payload["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {payload['version']} not supported")
        if payload["matrix_hash"] != expected_hash:
            raise CheckpointError(
                "checkpoint is for a different matrix (hash mismatch)")
        iteration = int(payload["iteration"])
        bicliques = [
            Biclique(int(e["rows"], 16), int(e["cols"], 16))
            for e in payload["entries"]
        ]
    except (KeyError, TypeError, ValueError, ContractViolation) as exc:
        raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
    return iteration, bicliques


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
    otherwise they are enumerated.  `extra_initial` gives the union
    init its strategy columns in place of enumeration.  The strategy
    columns seed the float mirror; the exact master of every iteration
    starts from the stars, so it is feasible whatever else it holds.

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

    # The float mirror takes the checkpointed columns first, so HiGHS
    # sees every column in a fixed order.
    buffer = _FloatBuffer(a)
    carried: list[Biclique] = []
    iteration = 0
    path = config.checkpoint_path
    if path and os.path.exists(path):
        iteration, carried = load_checkpoint(path, mhash)
        try:
            buffer.extend(carried)
        except ContractViolation as exc:
            raise CheckpointError(f"checkpoint entry is not a biclique: {exc}") from exc
    else:
        buffer.extend(_initial_bicliques(a, config, extra_initial))
    buffer.extend(stars)
    held = set(carried)

    records: list[IterationRecord] = []
    best_lower = ZERO
    prev_objective = None
    final_alpha = None
    converged = False
    t_master = 0.0
    t_pricing = 0.0
    t_float = 0.0
    threshold = ONE + config.epsilon

    while True:
        iteration += 1
        # Vertex duals of a degenerate master jump between extreme points of
        # the optimal dual face, and columns priced on a single extreme point
        # often miss the ones the primal actually needs.  Candidates are
        # therefore collected in the float mirror first: its inner loop runs
        # to a standstill, and the exact master takes the basic columns of
        # its final optimal basis, with that basis crashed in.
        t0 = time.perf_counter()
        basic, basic_rows, priced = _float_phase(a, maximals, buffer, threshold)
        t1 = time.perf_counter()
        solver, columns = _exact_master(a, stars, carried, basic, basic_rows, buffer)
        solver.reoptimize()
        t_float += t1 - t0
        t_master += time.perf_counter() - t1
        objective = solver.objective()
        if prev_objective is not None and objective > prev_objective:
            raise InvariantViolation("master objective increased")
        prev_objective = objective
        x_by_cid = solver.primal_by_id()
        dual = solver.duals()

        # price_all depends only on maximals, dual and threshold, so when
        # the crash reproduced the float mirror's last priced dual exactly,
        # its result there is this dual's result.
        if priced is not None and priced[0] == dual:
            alpha, candidates = priced[1]
        else:
            t0 = time.perf_counter()
            alpha, candidates = price_all(maximals, EdgeWeights(a, dual), threshold)
            t_pricing += time.perf_counter() - t0

        lower = objective / alpha if alpha > 1 else objective
        if lower > best_lower:
            best_lower = lower
        converged = alpha <= threshold

        # The next exact master carries this one's basis, which keeps
        # this optimum feasible, and enough of the true candidates to
        # guarantee progress; all of them join the float mirror.
        admit = []
        if not converged:
            admit = [pb.biclique for pb in candidates[:_TRUE_ADMIT]]
            if not set(columns).isdisjoint(admit):
                raise InvariantViolation(
                    "pricing returned a column already in the master")
            buffer.extend([pb.biclique for pb in candidates])
        carried = [columns[cid] for cid in solver.basis if cid >= 0] + admit
        now = set(carried)
        records.append(IterationRecord(
            iteration, objective, alpha, best_lower, len(carried),
            len(now - held), len(held - now)))
        held = now
        final_alpha = alpha
        if progress is not None:
            progress(records[-1])
        if path:
            write_checkpoint(path, mhash, iteration, carried)
        if converged or iteration >= config.max_iterations:
            break

    support = sorted(
        ((columns[cid], x) for cid, x in x_by_cid.items()),
        key=lambda t: (t[0].row_set, t[0].col_set))
    if converged and final_alpha > 1:
        # Certified only relative to the master's columns; the rescaled
        # dual is the global certificate.
        _assert_rescaled_dual(solver, dual, final_alpha)
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


def _exact_master(a, stars, carried, basic, basic_rows, buffer):
    """One iteration's exact master, with HiGHS's optimal basis crashed in.

    The master's columns are the stars, installed as the disjoint start,
    then `carried`, then HiGHS's `basic` columns, each listed once in
    that order.  The crash takes the artificials of `basic_rows` first,
    then the basic columns: together they name a nonsingular basis, so
    each takes at most one exchange and the crash rebuilds HiGHS's basis
    exactly.  When there is no basis (the float solve failed) or the
    crash is rejected, the master must find its own way, and carrying
    only a basis and a few candidates could then cycle: it is built
    instead over the stars, `carried` and every column of the float
    mirror `buffer`, which is plain column generation.  Returns the
    solver and its columns as a list of bicliques indexed by column id.
    """
    def build(bicliques):
        solver = SimplexSolver(a.num_edges, PARTITION,
                               [incidence_column(a, b) for b in bicliques])
        solver.install_start(range(len(stars)))
        return solver

    if basic:
        columns = list(dict.fromkeys([*stars, *carried, *basic]))
        solver = build(columns)
        ids = {b: cid for cid, b in enumerate(columns)}
        codes = [solver.artificial(r) for r in basic_rows] + [ids[b] for b in basic]
        if solver.crash(codes):
            return solver, columns
    columns = list(dict.fromkeys([*stars, *carried, *buffer.bicliques]))
    return build(columns), columns


class _FloatBuffer:
    """Float mirror of the master over every column the run has seen;
    the run's only column store that lasts across iterations.

    Columns here cost one float column each, so the buffer can afford
    every strategy column and the floods of near-duplicate candidates
    that would drown the exact master, which each iteration rebuilds
    from the stars, its last basis, a few candidates and the basic
    columns of HiGHS's optimal basis.  Insertion order is fixed and
    deduplication is by canonical biclique key, keeping the float solves
    deterministic.

    The columns are stored sparse, by columns (CSC): `_start[j]` is
    where column j's edge indices begin in `_index`, ascending, and
    every entry is one, so memory grows with the edges the columns
    cover rather than with edges times columns.  `extend` builds its
    new columns as one block: the row and column masks are unpacked to
    bits, and the entry of edge (i, j) is row bit i AND column bit j.
    The check is exact and the one `is_valid_biclique` makes: a mask
    past the matrix dimensions is refused, and so is a biclique whose
    column counts fewer than |R|·|C| edges, since then some (i, j) of
    R x C is a zero.  Each `solve` hands the arrays to a fresh HiGHS
    model through `_linprog`.
    """

    def __init__(self, a: BinaryMatrix):
        self._a = a
        self._keys: set[tuple[int, int]] = set()
        self.bicliques: list[Biclique] = []
        edges = np.array(a.edges, dtype=np.intp).reshape(-1, 2)
        self._edge_rows, self._edge_cols = edges[:, 0], edges[:, 1]
        self._start = np.zeros(1, dtype=np.int32)
        self._index = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.bicliques)

    def extend(self, bicliques) -> int:
        """Buffer, in order, the bicliques not buffered yet; returns how
        many.  Raises ContractViolation, buffering none of them, when one
        does not fit the matrix or is not an all-ones submatrix of it."""
        new: dict[tuple[int, int], Biclique] = {}
        for b in bicliques:
            key = (b.row_set, b.col_set)
            if key not in self._keys:
                new[key] = b
        if not new:
            return 0
        a = self._a
        row_masks = [r for r, _ in new]
        col_masks = [c for _, c in new]
        if max(row_masks) >> a.num_rows or max(col_masks) >> a.num_cols:
            raise ContractViolation("biclique index ranges exceed matrix dimensions")
        row_bits = _unpack(row_masks, a.num_rows)
        col_bits = _unpack(col_masks, a.num_cols)
        block = row_bits[:, self._edge_rows] & col_bits[:, self._edge_cols]
        sizes = (row_bits.sum(axis=1, dtype=np.int64)
                 * col_bits.sum(axis=1, dtype=np.int64))
        if (block.sum(axis=1, dtype=np.int64) != sizes).any():
            raise ContractViolation(
                "biclique is not an all-ones submatrix of the matrix")
        # Row-major nonzeros list each new column's edges in ascending order.
        _, edges = np.nonzero(block)
        starts = self._start[-1] + np.cumsum(sizes)
        self._start = np.concatenate((self._start, starts.astype(np.int32)))
        self._index = np.concatenate((self._index, edges.astype(np.int32)))
        self._keys.update(new)
        self.bicliques.extend(new.values())
        return len(new)

    def solve(self):
        """One float solve of the buffered master, as `_linprog` returns
        it: (x, row duals, basic variables), or None on failure."""
        return _linprog(A_eq=_Csc(
            self._start, self._index, np.ones(len(self._index)),
            (self._a.num_edges, len(self))))


class _Csc(NamedTuple):
    """A matrix by columns: column j's rows are indices[indptr[j]:
    indptr[j + 1]], with values in data at the same positions."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes


def _linprog(*, A_eq: _Csc):
    """Minimise the sum of x subject to A_eq x = 1 and x >= 0 by HiGHS
    dual simplex.  Returns (x, row duals, basic variables) at an optimal
    vertex, or None when HiGHS reports no optimum or no basis.

    Each call builds a fresh HiGHS model through `lp.highs_model`, whose
    options make the vertex the one scipy's linprog(method="highs-ds")
    returns.  The basic variables are HiGHS's optimal basis, one per row
    in HiGHS's convention: j >= 0 is column j and -1 - r is row r's
    slack.

    The name is kept from when this was scipy's linprog: the
    benchmark's tracer wraps `colgen._linprog` by name and reads
    `A_eq.shape` and `A_eq.nbytes` (ROADMAP item 5 moves that tracing
    into the library).
    """
    model = highs_model(A_eq.shape[0], A_eq.indptr, A_eq.indices, A_eq.data, PARTITION)
    solution = None if model is None else highs_solution(model)
    if solution is None:
        return None
    status, basic = model.getBasicVariables()
    if status != _highs.HighsStatus.kOk:
        return None
    return np.array(solution.col_value), np.array(solution.row_dual), basic


def _unpack(masks, width: int) -> np.ndarray:
    """Bits 0..width-1 of each mask, one uint8 row per mask."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(x.to_bytes(nbytes, "little") for x in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), nbytes), axis=1,
                         count=width, bitorder="little")


# A float phase prices new columns into the mirror for at most
# _INNER_ROUNDS solves and stops early once the mirror holds _BUFFER_CAP
# columns.  The cap is soft: a phase can pass it by one round's
# candidates, and every iteration still adds its exact candidates.  The
# mirror stores 4 bytes per covered edge of each column, so its memory
# follows the columns' sizes, not the edge count times the columns.
_INNER_ROUNDS = 40
_BUFFER_CAP = 60_000
_TRUE_ADMIT = 8


def _float_phase(a, maximals, buffer: _FloatBuffer, threshold):
    """Run the float relaxation of the buffered master to a standstill.

    Alternates float solves with pricing rounds against the float dual
    (snapshotted as exact rationals) until pricing stops producing new
    columns.  Returns HiGHS's optimal basis at the final vertex: its
    basic bicliques in buffer order, and the rows whose slack is basic,
    ascending.  The third item is the last priced dual with its
    `price_all` result, as (dual tuple, (alpha, candidates)), or None:
    when the crash makes the exact dual equal that dual, the exact pass
    reuses the result instead of pricing again.  Everything else is
    advisory: the exact master crashes the basis in only if the result
    is exactly feasible, and the true pricing pass still decides
    convergence, so a float failure just returns an empty basis.
    """
    if len(buffer) == 0:
        return [], [], None
    priced = None
    for _ in range(_INNER_ROUNDS):
        vertex = buffer.solve()
        if vertex is None:
            return [], [], None
        _, duals, basic = vertex
        # A degenerate vertex repeats few dual values, so each distinct
        # float is rounded once per solve.
        rounded = {}
        smoothed = []
        for v in duals.tolist():
            q = rounded.get(v)
            if q is None:
                f = Fraction(v).limit_denominator(10 ** 9)
                q = rounded[v] = rat(f.numerator, f.denominator)
            smoothed.append(q)
        alpha, found = price_all(maximals, EdgeWeights(a, smoothed), threshold)
        priced = (tuple(smoothed), (alpha, found))
        fresh = buffer.extend([pb.biclique for pb in found])
        if not fresh or len(buffer) >= _BUFFER_CAP:
            break
    columns = np.sort(basic[basic >= 0])
    rows = np.sort(-1 - basic[basic < 0])
    return [buffer.bicliques[j] for j in columns.tolist()], rows.tolist(), priced


def _initial_bicliques(a, config, extra_initial) -> list[Biclique]:
    strategy = config.init_strategy
    if strategy == "stars":
        return []
    if strategy == "all":
        return enumerate_all_bicliques(a)
    # union takes whatever the caller lifted, else falls back to the
    # densest pool that fits (all bicliques, else just the stars).
    extra = list(extra_initial)
    if extra:
        return extra
    try:
        return enumerate_all_bicliques(a)
    except SizeCapExceeded:
        return []


def _assert_rescaled_dual(solver: SimplexSolver, dual, alpha) -> None:
    for _, rows in solver.columns:
        if sum((dual[r] for r in rows), ZERO) / alpha > 1:
            raise InvariantViolation("rescaled dual violates a master column")


# ---------------------------------------------------------------------------
# Kronecker ladder
# ---------------------------------------------------------------------------

def solve_power(
    base: BinaryMatrix, k: int, config: ColGenConfig, progress=None
) -> ColGenReport:
    """Column generation on the k-th Kronecker power of `base`.

    The powers are walked level by level, and every level's matrix and
    maximal bicliques are built exactly once, each from the level below
    in one product step.  With union, unless resuming from a checkpoint,
    every level is solved: level 1 starts from the densest pool that
    fits, and each later level starts from the products of the previous
    level's optimal support with level 1's, which seeds its master close
    to optimal.  Otherwise only the top level is solved.  Only the top
    level checkpoints and reports progress.  A power over the size cap
    is refused before any level is built or solved.
    """
    if k < 1:
        raise ContractViolation("power must be at least 1")
    check_power_size(base, k)
    base_shape = (base.num_rows, base.num_cols)
    base_maximals = enumerate_maximal(base)

    resuming = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    ladder = config.init_strategy == "union" and not resuming
    inner = replace(config, checkpoint_path=None)
    matrix, maximals, extra = base, base_maximals, []
    for level in range(1, k + 1):
        if level > 1:
            matrix = kronecker(matrix, base)
            maximals = lift_maximal_kronecker(base_maximals, level, base_shape,
                                              below=maximals)
            if ladder:
                extra = initial_kronecker_support(support, base_support, base_shape)
        top = level == k
        if top or ladder:
            report = run(matrix, config if top else inner, maximals=maximals,
                         extra_initial=extra, progress=progress if top else None)
            support = [b for b, _ in report.support]
            if level == 1:
                base_support = support
    return report
