"""Column generation for the fractional biclique partition number.

The master LP asks for nonnegative biclique weights whose edge sums are
exactly one; its optimum over all bicliques is the fractional partition
number.  Since the full column set is astronomically large for Kronecker
powers, the master is solved over a growing column set: solve, price the
dual against every maximal biclique, add violated columns, repeat.

Everything reported is exact.  Each iteration's objective is the value
of an exactly feasible partition, an upper bound on the optimum, and
objective/alpha is a lower bound, since the dual priced exactly to its
maximum alpha is globally dual feasible once divided by alpha.  The
loop stops once alpha <= 1 + epsilon.

The run keeps one column store: a float mirror of the master over
every column met so far, namely the checkpointed ones, the init
strategy's, the stars and every priced candidate.  It holds them as
sparse 0/1 columns (CSC: column starts and edge indices), and each
float solve passes them to a fresh model of HiGHS's dual simplex
through scipy's own binding.  Each iteration runs the mirror to a
standstill and then solves HiGHS's final optimal basis exactly with
`lp.solve_basis`, the certifier the orbit master shares: HiGHS's
rounded values when they solve the basis systems exactly, else
Bareiss elimination.  The floats only steer: the basis is kept only
if its exact solution is feasible, and alpha, the bounds, convergence
and the certificate all come from its exact dual.  When the exact
dual equals the rounded float dual the mirror priced last, that
pricing result is the exact one, and it is reused instead of priced
again.  When HiGHS fails, the basis is refused, or the previous
iteration added no column to the mirror, the iteration instead solves
the mirror exactly with `lp.solve` (plain exact column generation),
whose optimal dual prices every mirror column at most one.

`carried`, the certified basis's columns plus the iteration's
candidates, can be checkpointed to JSON every iteration and resumed
later: a resumed run seeds the float mirror with it.

Symmetric matrices are solved by the orbit master (module `orbits`):
one LP over the orbits of a symmetry group G (see `symmetry`), with a
row per edge orbit and a column per profile, priced over one maximal
biclique per orbit.  Kronecker powers (`solve_power`) with k >= 2 and
the union strategy take it with the group of the power.  `run` takes
it, with the union strategy and no lifted columns, when the matrix's
own symmetries leave at most a quarter as many edge orbits as edges;
a colour refinement bounds the orbits from below first, so most
matrices are refused before any search for generators.  Like
`run`, it prices HiGHS's rounded duals until they bring nothing new,
then solves HiGHS's basis exactly with the same `lp.solve_basis`, so
floats only steer here too.  The
answer does not rest on the symmetry code: each generator is checked
to map ones onto ones, the orbits of the representatives are checked
to cover every maximal biclique, which makes their pricing maximum the
global alpha, and the orbit solution is expanded to a full-space
partition that is checked edge by edge.  It checkpoints its columns in
the same format as `run`.  When it cannot finish, `run` goes on in the
full space as above, and `solve_power` falls back to the union ladder,
which runs `run` on every level.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
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
    unpack_masks,
)
from .errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    SizeCapExceeded,
)
from .lp import PARTITION, build_master, highs_model, highs_solution, solve, solve_basis
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

    `pool_size` counts `carried`: the structural columns of the
    iteration's certified basis (or, when it solved the mirror exactly,
    of its support) plus the candidates its exact pricing found.  It is
    what the checkpoint holds.  `added` and `pruned` count the carried
    columns that the previous iteration did not carry, and the reverse;
    a resumed checkpoint's columns count as carried before the first
    iteration.  Columns of the float mirror are not counted.

    On the orbit master, which `solve_power` and `run` both use,
    `pool_size` counts the orbit columns held after the iteration's
    pricing, `added` the new profiles that its float rounds and its
    exact pricing brought in, and `pruned` is always 0: no orbit column
    is ever dropped.
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

    `timings` holds seconds by phase: "total" (the whole call of `run`
    or `solve_power`, from its entry), "master", "float" (the
    float mirror, its pricing rounds included) and "pricing", which
    counts only the exact pricing calls made, not the iterations that
    reused the float mirror's last pricing.  "master" covers the basis
    certifier, building the basis matrix included, and any exact solve
    of the mirror that replaces it.  The records'
    `pool_size`, `added` and `pruned` count each iteration's carried
    columns against the previous iteration's, not the float mirror's.
    From the orbit master "float" is the HiGHS solves, "master" the
    exact basis solves and "pricing" the pricing calls; `support` and
    `dual` are in the full space of the power.
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
    init its strategy columns in place of enumeration.

    With the union strategy and no `extra_initial`, a matrix whose
    edge orbits under its own symmetries (`symmetry.power_generators`
    at k = 1) number at most a quarter of its edges is solved by
    `orbits.orbit_master`, whose report has its meaning of the records
    and timings (see `IterationRecord` and `ColGenReport`); its records
    go to `progress` once it has finished.  When it falls back, or the
    matrix has fewer symmetries, the run is in the full space: the
    strategy columns and the stars seed the float mirror, and each
    iteration solves HiGHS's optimal basis exactly (`lp.solve_basis`),
    or the mirror by `lp.solve` when HiGHS fails, the basis is refused
    or the previous iteration stalled (see the module notes).

    Returns a ColGenReport; `converged` is False when the iteration cap
    ran out first, in which case `value` is still a valid upper bound.
    """
    t_start = time.perf_counter()
    if a.num_edges == 0:
        raise EmptyGraphError("matrix has no ones")
    if maximals is None:
        maximals = enumerate_maximal(a)
    if config.init_strategy == "union" and not extra_initial:
        report = _orbit_report(a, maximals, config)
        if report is not None:
            return _replayed(_timed_from(report, t_start), progress)
    mhash = matrix_hash(a)

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
        buffer.extend(_initial_bicliques(a, config, maximals, extra_initial))
    buffer.extend(initial_stars(a))
    held = set(carried)

    records: list[IterationRecord] = []
    best_lower = ZERO
    stalled = False
    t_master = 0.0
    t_pricing = 0.0
    t_float = 0.0
    threshold = ONE + config.epsilon

    while True:
        iteration += 1
        size = len(buffer)
        # Vertex duals of a degenerate master jump between extreme points of
        # the optimal dual face, and columns priced on a single extreme point
        # often miss the ones the primal actually needs.  Candidates are
        # therefore collected in the float mirror first: its inner loop runs
        # to a standstill, and its final optimal basis is solved exactly.
        t0 = time.perf_counter()
        steer = None if stalled else _float_phase(a, maximals, buffer, threshold)
        t1 = time.perf_counter()
        exact = None if steer is None else _certify(a, *steer[:4])
        if exact is None:
            exact = _solve_mirror(a, buffer)
        t_float += t1 - t0
        t_master += time.perf_counter() - t1
        basis, x, dual = exact
        objective = sum(x, ZERO)

        # price_all depends only on maximals, dual and threshold, so when
        # the exact dual is the float mirror's last priced dual, its
        # result there is this dual's result.
        if steer is not None and steer[3] == dual:
            alpha, candidates = steer[4]
        else:
            t0 = time.perf_counter()
            alpha, candidates = price_all(maximals, EdgeWeights(a, dual), threshold)
            t_pricing += time.perf_counter() - t0

        lower = objective / alpha if alpha > 1 else objective
        if lower > best_lower:
            best_lower = lower
        converged = alpha <= threshold

        # The candidates join the float mirror.  An iteration that adds
        # no column to it would repeat itself: HiGHS's basis is then not
        # exactly optimal over the mirror, and the next iteration solves
        # the mirror exactly instead.
        admit = [] if converged else [pb.biclique for pb in candidates]
        buffer.extend(admit)
        stalled = not converged and len(buffer) == size
        carried = basis + admit
        now = set(carried)
        records.append(IterationRecord(
            iteration, objective, alpha, best_lower, len(carried),
            len(now - held), len(held - now)))
        held = now
        if progress is not None:
            progress(records[-1])
        if path:
            write_checkpoint(path, mhash, iteration, carried)
        if converged or iteration >= config.max_iterations:
            break

    support = sorted(((b, v) for b, v in zip(basis, x) if v),
                     key=lambda t: (t[0].row_set, t[0].col_set))
    timings = {
        "total": time.perf_counter() - t_start,
        "master": t_master,
        "pricing": t_pricing,
        "float": t_float,
    }
    return ColGenReport(
        matrix=a, matrix_hash=mhash, converged=converged, value=objective,
        best_lower_bound=best_lower, final_alpha=alpha,
        support=tuple(support), dual=dual, records=records,
        timings=timings)


# `run` solves a matrix by the orbit master when its edge orbits number
# at most 1 / _ORBIT_SHARE of its edges.  At 1/2, seeded random 6 x 6
# matrices qualified and ran slower than in the full space.
_ORBIT_SHARE = 4


def _orbit_report(a, maximals, config) -> ColGenReport | None:
    """The orbit master's report on `a`, or None when `a` has too few
    symmetries for it or it falls back.  The colour refinement's bounds
    on the edge orbits refuse most matrices, at the first round that
    shows it, before any generator is searched for; the generators
    found and their edge orbits are handed on, so that the search and
    the orbit count run once."""
    from .symmetry import edge_orbit_bounds, edge_orbits, power_generators

    if any(bound * _ORBIT_SHARE > a.num_edges for bound in edge_orbit_bounds(a)):
        return None
    gens = power_generators(a, 1)
    orbits = edge_orbits(a, gens)
    if len(orbits) * _ORBIT_SHARE > a.num_edges:
        return None
    # Imported here because `orbits` imports this module.
    from .orbits import orbit_master

    return orbit_master(a, 1, a, maximals, config, gens, orbits)


def _timed_from(report: ColGenReport, t_start: float) -> ColGenReport:
    """`report`, its "total" timing counted from `t_start`, the entry
    of the call that returns it, so that it covers the work done before
    the solve it reports: enumeration, level building, the symmetry
    search and any solve given up on."""
    report.timings["total"] = time.perf_counter() - t_start
    return report


def _replayed(report: ColGenReport, progress) -> ColGenReport:
    """`report`, after passing its records to `progress`, if any."""
    if progress is not None:
        for record in report.records:
            progress(record)
    return report


def _certify(a, basic, rows, x, y):
    """HiGHS's optimal basis solved exactly by `lp.solve_basis`, with
    its rounded values `x` and dual `y` as the guesses: (basic
    bicliques, their exact weights, the exact dual), or None when it is
    refused.  The basis matrix holds each basic biclique's incidence
    column, then a unit column for each row whose slack is basic."""
    m = a.num_edges
    n = len(basic)
    if n + len(rows) != m:
        return None
    matrix = np.zeros((m, m), dtype=np.int64)
    matrix[:, :n] = unpack_masks([incidence_column(a, b) for b in basic], m).T
    matrix[rows, np.arange(n, m)] = 1
    exact = solve_basis(matrix, n, [1] * m, x, y)
    return None if exact is None else (basic, exact[0], tuple(exact[1]))


def _solve_mirror(a, buffer):
    """Exact column generation's master: `lp.solve` over the edge
    singletons, which give it a start in closed form, and every column
    of the float mirror `buffer`.  Returns (support bicliques, their
    weights, the dual).  The dual is optimal over the mirror, so pricing
    it brings new columns unless it converges."""
    singletons = [Biclique(1 << i, 1 << j) for i, j in a.edges]
    columns = list(dict.fromkeys([*singletons, *buffer.bicliques]))
    sol = solve(build_master(a, columns, PARTITION))
    support = [(b, v) for b, v in zip(columns, sol.primal) if v]
    return [b for b, _ in support], [v for _, v in support], sol.dual


class _FloatBuffer:
    """Float mirror of the master over every column the run has seen;
    the run's only column store that lasts across iterations.

    Columns here cost one float column each, so the buffer can afford
    every strategy column and the floods of near-duplicate candidates
    that would drown an exact simplex; only HiGHS's optimal basis is
    solved exactly.  Insertion order is fixed and
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
        row_bits = unpack_masks(row_masks, a.num_rows)
        col_bits = unpack_masks(col_masks, a.num_cols)
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


# A float phase prices new columns into the mirror for at most
# _INNER_ROUNDS solves and stops early once the mirror holds _BUFFER_CAP
# columns.  The cap is soft: a phase can pass it by one round's
# candidates, and every iteration still adds its exact candidates.  The
# mirror stores 4 bytes per covered edge of each column, so its memory
# follows the columns' sizes, not the edge count times the columns.
_INNER_ROUNDS = 40
_BUFFER_CAP = 60_000

# HiGHS's floats are read as the nearest fraction with a denominator up
# to this, both to price them and to try them as the exact solution of
# their basis in `lp.solve_basis`.
_ROUNDING_DEN = 10 ** 9


def _nearest(v: float):
    """Fraction(v).limit_denominator(_ROUNDING_DEN) on plain ints: the
    continued-fraction loop of CPython 3.11's `limit_denominator`, and
    its tie rule, which prefers the last convergent p1/q1 to the
    semiconvergent p/q."""
    n, d = v.as_integer_ratio()
    if d <= _ROUNDING_DEN:
        return rat(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > _ROUNDING_DEN:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (_ROUNDING_DEN - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p/q - n/d|, both sides times d * q1 * q.
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return rat(p1, q1)
    return rat(p, q)


def _float_phase(a, maximals, buffer: _FloatBuffer, threshold):
    """Run the float relaxation of the buffered master to a standstill.

    Alternates float solves with pricing rounds against the float dual
    (snapshotted as exact rationals) until pricing stops producing new
    columns.  Returns HiGHS's optimal basis at the final vertex, or None
    when a float solve fails, as (basic bicliques in buffer order, rows
    whose slack is basic in ascending order, the basic columns' values
    and the row duals, each rounded to nearby fractions, the duals'
    `price_all` result (alpha, candidates)).  All of it only steers:
    `lp.solve_basis` takes the basis only if it checks out exactly, and
    the exact pricing of its dual decides convergence; `run` reuses the
    pricing result only when the exact dual equals the rounded one.
    """
    for _ in range(_INNER_ROUNDS):
        vertex = buffer.solve()
        if vertex is None:
            return None
        x, duals, basic = vertex
        # A degenerate vertex repeats few dual values, so each distinct
        # float is rounded once per solve.
        rounded = {}
        smoothed = []
        for v in duals.tolist():
            q = rounded.get(v)
            if q is None:
                q = rounded[v] = _nearest(v)
            smoothed.append(q)
        priced = price_all(maximals, EdgeWeights(a, smoothed), threshold)
        fresh = buffer.extend([pb.biclique for pb in priced[1]])
        if not fresh or len(buffer) >= _BUFFER_CAP:
            break
    columns = np.sort(basic[basic >= 0])
    rows = np.sort(-1 - basic[basic < 0])
    values = [_nearest(v) for v in x[columns].tolist()]
    return ([buffer.bicliques[j] for j in columns.tolist()], rows.tolist(), values,
            tuple(smoothed), priced)


def _initial_bicliques(a, config, maximals, extra_initial) -> list[Biclique]:
    strategy = config.init_strategy
    if strategy == "stars":
        return []
    if strategy == "all":
        return enumerate_all_bicliques(a, maximals=maximals)
    # union takes whatever the caller lifted, else falls back to the
    # densest pool that fits (all bicliques, else just the stars).
    extra = list(extra_initial)
    if extra:
        return extra
    try:
        return enumerate_all_bicliques(a, maximals=maximals)
    except SizeCapExceeded:
        return []


# ---------------------------------------------------------------------------
# Kronecker ladder
# ---------------------------------------------------------------------------

def solve_power(
    base: BinaryMatrix, k: int, config: ColGenConfig, progress=None
) -> ColGenReport:
    """Column generation on the k-th Kronecker power of `base`.

    The powers are walked level by level, and every level's matrix and
    maximal bicliques are built exactly once, each from the level below
    in one product step.  A power over the size cap is refused before
    any level is built or solved.

    With k >= 2 and the union strategy, the top level is solved by the
    orbit master (`orbits.orbit_master`): one LP over the edge orbits of the
    power's symmetry group, priced over one maximal biclique per orbit.
    Its result does not rest on the symmetry code: every generator is
    checked to map ones onto ones, the orbits of the representatives
    must cover every lifted maximal, which makes the pricing maximum
    over the representatives the global one, and the reported support
    is the orbit columns expanded to the full space and checked edge by
    edge.  Its records go to `progress` once it has finished.  When
    HiGHS fails, the exact basis is singular or infeasible, or an
    iteration adds no column, the call falls back to the union ladder
    below, which then resumes from the orbit master's checkpoint, if
    it wrote one.

    The union ladder (the fallback) solves every level unless resuming
    from a checkpoint: level 1 starts from the densest pool that fits,
    and each later level starts from the products of the previous
    level's optimal support with level 1's, which seeds its master close
    to optimal.  Otherwise, and for the other strategies, only the top
    level is solved, by `run`.  Only the top level checkpoints and
    reports progress.
    """
    t_start = time.perf_counter()
    if k < 1:
        raise ContractViolation("power must be at least 1")
    check_power_size(base, k)
    base_shape = (base.num_rows, base.num_cols)
    base_maximals = enumerate_maximal(base)
    levels = [(base, base_maximals)]
    for level in range(2, k + 1):
        below, below_maximals = levels[-1]
        levels.append((kronecker(below, base),
                       lift_maximal_kronecker(base_maximals, level, base_shape,
                                              below=below_maximals)))
    if k >= 2 and config.init_strategy == "union":
        # Imported here because `orbits` imports this module.
        from .orbits import orbit_master

        report = orbit_master(base, k, *levels[-1], config)
        if report is not None:
            return _replayed(_timed_from(report, t_start), progress)

    resuming = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    ladder = config.init_strategy == "union" and not resuming
    inner = replace(config, checkpoint_path=None)
    extra = []
    for level, (matrix, maximals) in enumerate(levels, start=1):
        if level > 1 and ladder:
            extra = initial_kronecker_support(support, base_support, base_shape)
        top = level == k
        if top or ladder:
            report = run(matrix, config if top else inner, maximals=maximals,
                         extra_initial=extra, progress=progress if top else None)
            support = [b for b, _ in report.support]
            if level == 1:
                base_support = support
    return _timed_from(report, t_start)
