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

The loop is written once, in `_generate`, over one column store,
`_Columns`: an LP with a row per edge orbit of a group G and a column
per profile, a biclique's count of cells in each orbit.  Averaging
over G keeps an LP optimum optimal (Bödi, Herr and Joswig, Math. Prog.
2013), so G's orbit LP has the full LP's optimum.  The full space is
the orbit LP of the trivial group, every edge its own orbit, and
differs from the orbit space only in whether HiGHS presolves and in
its exact fallback.  Each iteration first runs float rounds
(`_float_phase`): HiGHS's dual simplex solves the store's LP, a fresh
model per solve through scipy's own binding, and a dual read off its
optimal basis is priced against the maximal bicliques until it
brings no new column.  That dual is HiGHS's, rounded to nearby
fractions, when that solves the basis exactly, and otherwise HiGHS's
rounded to multiples of 2^-32.  HiGHS presolves only a full-space
store that pricing can still grow, where presolve steers it to
vertices that need far fewer rounds; on every other LP presolve only
costs time.  `_certify` then solves HiGHS's final optimal basis
exactly with `lp.solve_basis`: HiGHS's rounded values when they solve
the basis systems exactly, else Bareiss elimination.  The floats only
steer: the basis is kept only if its exact solution is feasible, and
alpha, the bounds, convergence and the certificate all come from its
exact dual.  When the exact dual equals the dual the float rounds
priced last, that pricing result is the exact one, and it is reused
instead of priced again.  When HiGHS fails, the basis is refused, or
the previous iteration added no column to the store, the iteration
takes the store's exact fallback instead, and a store without one
ends the run.

`carried`, the certified basis's columns plus the iteration's
candidates, is what the records count and what the checkpoint holds.
It can be checkpointed to JSON every iteration and resumed later: a
resumed run seeds the store with it.

The full space (`run`) stores every column met so far, namely the
checkpointed ones, the init strategy's, the stars and every priced
candidate: sparse 0/1 columns, one row per edge.  Its exact fallback
solves the whole store with `lp.solve` (plain exact column
generation), whose optimal dual prices every stored column at most
one.

The orbit space (module `orbits`) serves symmetric matrices: the LP
over the edge orbits of a nontrivial symmetry group G (see
`symmetry`), priced over one maximal biclique per orbit.  `run` takes
it with the union strategy.  A Kronecker power (`solve_power`, k >= 2)
comes with the generators of its group, known by construction, and
always takes it.  Any other matrix takes it with
its own symmetries when they leave at most a quarter as many edge
orbits as edges; a colour refinement bounds the orbits from below
first, so most matrices are refused before any search for generators.
The answer does not rest on the symmetry code: each generator is
checked to map ones onto ones, the orbits of the representatives are
checked to cover every maximal biclique, which makes their pricing
maximum the global alpha, and the orbit solution is expanded to a
full-space partition that is checked edge by edge.  Its checkpoints
have the format of the full space's.  It has no exact fallback: when
it cannot finish, `run` goes on in the full space, resuming from the
orbit space's checkpoint if it wrote one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
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
    matrix_hash,
    unpack_masks,
)
from .errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    SizeCapExceeded,
)
from .lp import (
    PARTITION,
    _solves,
    build_master,
    highs_model,
    highs_solution,
    solve,
    solve_basis,
)
from .maximal import enumerate_maximal, lift_maximal_kronecker
from .pricing import price_all

CHECKPOINT_VERSION = 1

INIT_STRATEGIES = ("stars", "all", "union")


@dataclass(frozen=True)
class ColGenConfig:
    """Knobs for a column generation run; defaults match normal use.

    The run converges once the pricing maximum is at most 1 + `epsilon`
    and stops after `max_iterations` otherwise.  `init_strategy` picks
    the columns that seed the full-space store besides the stars.
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

    `pool_size` counts `carried`: the columns of the iteration's
    certified basis (or, when it took the store's exact fallback, of
    its support) plus the candidates its exact pricing found.  It is
    what the checkpoint holds.  `added` and `pruned` count the carried
    columns that the previous iteration did not carry, and the reverse;
    a resumed checkpoint's columns count as carried before the first
    iteration.  The other columns of the store are not counted.  In the
    orbit space each column is an orbit column, carried as the one
    biclique the store holds for its profile.
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
    or `solve_power`, from its entry), "master" (the basis certifier
    and any exact fallback), "pricing" (every `price_all` call, the
    float rounds' included) and "float" (the HiGHS solves, the basis
    matrix built after each and the rounding of their results).  The
    records count each iteration's carried columns (see
    `IterationRecord`).  `support` and `dual` are in the full space,
    the orbit space's expanded.
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
    progress=None,
    generators=None,
) -> ColGenReport:
    """Run column generation on `a` until convergence or iteration cap.

    `maximals` may be supplied when already known (Kronecker lifting);
    otherwise they are enumerated.

    With the union strategy a symmetric matrix is solved by
    `orbits.orbit_master` over the edge orbits of a group G, and its
    records go to `progress` once it has finished.  `generators`, when
    given, generate G, and the orbit master takes `a` whatever its
    number of edge orbits.  Otherwise G is the matrix's own symmetries
    (`symmetry.power_generators` at k = 1), and the orbit master takes
    `a` only when they leave at most a quarter as many edge orbits as
    edges.  When the orbit master falls back, or does not take `a`, the
    run is in the full space: the checkpoint's columns, the orbit
    master's included, when there is one, else the strategy columns,
    and then the stars seed a `_Columns` store with every edge its own
    orbit, and `_generate` runs the loop over it (see the module
    notes).

    Returns a ColGenReport; `converged` is False when the iteration cap
    ran out first, in which case `value` is still a valid upper bound.
    """
    t_start = time.perf_counter()
    if a.num_edges == 0:
        raise EmptyGraphError("matrix has no ones")
    if maximals is None:
        maximals = enumerate_maximal(a)
    if config.init_strategy == "union":
        report = _orbit_report(a, maximals, config, generators)
        if report is not None:
            return _replayed(_timed_from(report, t_start), progress)
    mhash = matrix_hash(a)
    # Every edge is its own orbit.  The store takes the checkpointed
    # columns first, so HiGHS sees every column in a fixed order.
    store = _Columns(a, np.arange(a.num_edges), [1] * a.num_edges, True, _solve_mirror)
    resumed = _resume(store, config.checkpoint_path, mhash)
    if resumed is None:
        # Seeded with every biclique, the store cannot grow.
        store.presolve = not store.extend(_initial_bicliques(a, config, maximals))
    store.extend(initial_stars(a))
    return _generate(a, store, maximals, config, mhash, resumed, progress, t_start)


def _resume(store, path, mhash):
    """(iteration, carried columns) of the checkpoint at `path`, its
    columns put into the column store `store`, or None when there is no
    checkpoint to resume."""
    if not (path and os.path.exists(path)):
        return None
    iteration, carried = load_checkpoint(path, mhash)
    try:
        store.extend(carried)
    except ContractViolation as exc:
        raise CheckpointError(f"checkpoint entry is not a biclique: {exc}") from exc
    return iteration, carried


def _generate(a, store, maximals, config, mhash, resumed, progress,
              t_start) -> ColGenReport | None:
    """The column generation loop over the `_Columns` store `store`,
    which holds its start columns; `resumed` is `_resume`'s result.

    Each iteration runs `_float_phase`, certifies HiGHS's last optimal
    basis with `_certify`, or takes the store's exact fallback when
    there is no basis to certify, and prices the exact dual over
    `maximals`; then it records, reports to `progress` and checkpoints
    `carried`.  Returns the report, its support the final (biclique,
    weight) pairs of the store's columns in biclique order, or None
    when an iteration needs a fallback and the store has none.
    """
    iteration, carried = resumed or (0, [])
    held = set(carried)
    records: list[IterationRecord] = []
    best_lower = ZERO
    stalled = False
    timings = dict.fromkeys(("total", "master", "pricing", "float"), 0.0)
    threshold = ONE + config.epsilon
    path = config.checkpoint_path

    while True:
        iteration += 1
        size = len(store)
        # Vertex duals of a degenerate master jump between extreme points of
        # the optimal dual face, and columns priced on a single extreme point
        # often miss the ones the primal actually needs.  Candidates are
        # therefore collected by float rounds first: they run to a
        # standstill, and their final optimal basis is solved exactly.
        t0 = time.perf_counter()
        pricing = timings["pricing"]
        steer = None if stalled else _float_phase(a, maximals, store, threshold, timings)
        t1 = time.perf_counter()
        timings["float"] += t1 - t0 - (timings["pricing"] - pricing)
        exact = None if steer is None else _certify(store, *steer[:3])
        if exact is None and store.fallback is not None:
            exact = store.fallback(a, store)
        timings["master"] += time.perf_counter() - t1
        if exact is None:
            return None
        basis, x, dual = exact
        objective = sum(x, ZERO)

        # price_all depends only on maximals, dual and threshold, so when
        # the exact dual is the float rounds' last priced dual, its
        # result there is this dual's result.
        if steer is not None and steer[3] == dual:
            alpha, candidates = steer[4]
        else:
            alpha, candidates = _price(a, maximals, dual, threshold, timings)

        lower = objective / alpha if alpha > 1 else objective
        if lower > best_lower:
            best_lower = lower
        converged = alpha <= threshold

        # The candidates join the store.  An iteration that adds no
        # column to it would repeat itself: HiGHS's basis is then not
        # exactly optimal over the store, and the next iteration takes
        # the exact fallback instead.
        admit = [] if converged else [pb.biclique for pb in candidates]
        store.extend(admit)
        stalled = not converged and len(store) == size
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

    support = sorted([(b, v) for b, v in zip(basis, x) if v],
                     key=lambda t: (t[0].row_set, t[0].col_set))
    timings["total"] = time.perf_counter() - t_start
    return ColGenReport(
        matrix=a, matrix_hash=mhash, converged=converged, value=objective,
        best_lower_bound=best_lower, final_alpha=alpha,
        support=tuple(support), dual=dual, records=records,
        timings=timings)


# `run` solves a matrix by the orbit master when its edge orbits number
# at most 1 / _ORBIT_SHARE of its edges.  At 1/2, seeded random 6 x 6
# matrices qualified and ran slower than in the full space.
_ORBIT_SHARE = 4


def _orbit_report(a, maximals, config, gens) -> ColGenReport | None:
    """The orbit master's report on `a` over the group that `gens`
    generate, or None when it falls back.  Without `gens` the group is
    `a`'s own symmetries, and `a` must have enough of them: the colour
    refinement's bounds on the edge orbits refuse most matrices, at the
    first round that shows it, before any generator is searched for,
    and then the edge orbits must number at most 1 / _ORBIT_SHARE of
    the edges.  The edge orbits are handed on, so that they are counted
    once."""
    from .symmetry import edge_orbit_bounds, edge_orbits, power_generators

    searched = gens is None
    if searched:
        if any(bound * _ORBIT_SHARE > a.num_edges for bound in edge_orbit_bounds(a)):
            return None
        gens = power_generators(a, 1)
    orbits = edge_orbits(a, gens)
    if searched and len(orbits) * _ORBIT_SHARE > a.num_edges:
        return None
    # Imported here because `orbits` imports this module.
    from .orbits import orbit_master

    return orbit_master(a, maximals, config, gens, orbits)


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


def _price(a, maximals, dual, threshold, timings):
    """`price_all` of the edge weights `dual` over `maximals`, its time
    booked under "pricing"."""
    t0 = time.perf_counter()
    priced = price_all(maximals, EdgeWeights(a, dual), threshold)
    timings["pricing"] += time.perf_counter() - t0
    return priced


def _basis(store, basic):
    """(basic columns, rows whose slack is basic, basis matrix) from
    HiGHS's basic variables, both lists ascending, or None when they
    are not one per row.  The integer matrix holds the basic columns of
    `store`, then a unit column per basic slack."""
    cols = np.sort(basic[basic >= 0]).tolist()
    rows = np.sort(-1 - basic[basic < 0]).tolist()
    n, m = len(cols), len(store.rhs)
    if n + len(rows) != m:
        return None
    matrix = np.zeros((m, m), dtype=np.int64)
    if n:
        matrix[:, :n] = store.columns(cols)
    matrix[rows, np.arange(n, m)] = 1
    return cols, rows, matrix


def _certify(store, vertex, basis, rounded):
    """HiGHS's optimal basis at `vertex`, as `_basis` built it, solved
    exactly by `lp.solve_basis`, with its rounded values and the
    rounded row duals `rounded` as the guesses: (basic bicliques, their
    exact weights, the exact edge dual), or None when it is refused."""
    if basis is None:
        return None
    cols, _, matrix = basis
    exact = solve_basis(matrix, len(cols), store.rhs, _round_all(vertex[0][cols]), rounded)
    if exact is None:
        return None
    return [store.bicliques[j] for j in cols], exact[0], store.edge_dual(exact[1])


def _solve_mirror(a, store):
    """Exact column generation's master: `lp.solve` over the edge
    singletons, which give it a start in closed form, and every column
    of the full-space store `store`.  Returns (support bicliques, their
    weights, the dual).  The dual is optimal over the store, so pricing
    it brings new columns unless it converges."""
    singletons = [Biclique(1 << i, 1 << j) for i, j in a.edge_array.tolist()]
    columns = list(dict.fromkeys([*singletons, *store.bicliques]))
    sol = solve(build_master(a, columns, PARTITION))
    support = [(b, v) for b, v in zip(columns, sol.primal) if v]
    return [b for b, _ in support], [v for _, v in support], sol.dual


# Float rounds whose rounded dual does not solve its basis price
# HiGHS's dual rounded to multiples of 1 / _GRID.
_GRID = 1 << 32


class _Columns:
    """The column store of `_generate`: an LP with one row per edge
    orbit, whose right hand side is the orbit's size, and one column
    per profile, a biclique's count of cells in each edge orbit, held
    as the first biclique met with that profile.  `orbit_of` gives
    each edge's orbit, the orbits numbered by their smallest edges as
    `symmetry.edge_orbits` lists them, and `sizes` each orbit's size.
    The full space is the orbit LP of the trivial group: `run` gives
    every edge its own orbit, so orbit e is edge e and a profile is an
    incidence column.  `presolve` is whether HiGHS presolves the LP,
    and `fallback(a, store)` solves the store exactly, as (bicliques,
    weights, edge dual), or is None.

    Columns cost one float column each, so the store can afford every
    strategy column and the floods of near-duplicate candidates that
    would drown an exact simplex; only HiGHS's optimal basis is solved
    exactly.  Insertion order is fixed, keeping the float solves
    deterministic.  A biclique whose key was met before is skipped
    before any array work, and a new one is kept when its profile is
    new; when every orbit is one edge the key fixes the profile, so
    profiles are not compared.

    The columns are stored sparse, as `csc` returns them: column j's
    orbits are `_indices[_indptr[j]:_indptr[j + 1]]`, ascending, with
    its counts divided by the orbits' sizes in `_data`, so that every
    right hand side is one.  `extend` reads every cell of its new
    bicliques at once, row and column indices unpacked from the masks,
    off a table of each cell's orbit (-1 at a zero).  The check is
    exact and the one `is_valid_biclique` makes: a mask past the matrix
    dimensions is refused, and so is a biclique with a cell at a zero.
    """

    def __init__(self, a: BinaryMatrix, orbit_of, sizes, presolve: bool, fallback):
        self._a = a
        self.rhs = list(sizes)
        self.presolve = presolve
        self.fallback = fallback
        self._orbit_of = np.asarray(orbit_of)
        self._orbit_list = self._orbit_of.tolist()
        self._singletons = len(self.rhs) == a.num_edges
        self._orbit_at = np.full((a.num_rows, a.num_cols), -1, dtype=np.intp)
        self._orbit_at[tuple(a.edge_array.T)] = self._orbit_of
        self._sizes = np.array(self.rhs, dtype=np.float64)
        self._keys: set[tuple[int, int]] = set()
        self._profiles: set[bytes] = set()
        self.bicliques: list[Biclique] = []
        self._indptr = np.zeros(1, dtype=np.int32)
        self._indices = np.zeros(0, dtype=np.int32)
        self._data = np.zeros(0)

    def __len__(self) -> int:
        return len(self.bicliques)

    def extend(self, bicliques) -> int:
        """Store, in order, the bicliques whose profiles are new;
        returns how many.  Raises ContractViolation, storing none of
        them, when one does not fit the matrix or is not an all-ones
        submatrix of it."""
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
        owner, rows = np.nonzero(unpack_masks(row_masks, a.num_rows))
        col_owner, cols = np.nonzero(unpack_masks(col_masks, a.num_cols))
        col_counts = np.bincount(col_owner, minlength=len(new))
        # Cells run biclique by biclique, row by row: each of a
        # biclique's rows meets each of its columns.
        repeats = col_counts[owner]
        firsts = np.repeat(np.cumsum(repeats) - repeats, repeats)
        offsets = np.arange(len(firsts)) - firsts
        owner = np.repeat(owner, repeats)
        col_starts = np.cumsum(col_counts) - col_counts
        cells = self._orbit_at[np.repeat(rows, repeats), cols[col_starts[owner] + offsets]]
        if (cells < 0).any():
            raise ContractViolation("biclique is not an all-ones submatrix of the matrix")
        self._keys.update(new)
        kept = list(new.values())
        if self._singletons:
            # A cell's orbit is its edge, and edges are numbered row by
            # row, so each column's orbits ascend.
            orbits, data = cells, np.ones(len(cells))
        else:
            num = len(self.rhs)
            profiles = np.bincount(owner * num + cells,
                                   minlength=len(kept) * num).reshape(len(kept), num)
            fresh = []
            for k, profile in enumerate(profiles):
                key = profile.tobytes()
                if key not in self._profiles:
                    self._profiles.add(key)
                    fresh.append(k)
            if not fresh:
                return 0
            kept = [kept[k] for k in fresh]
            profiles = profiles[fresh]
            owner, orbits = np.nonzero(profiles)
            data = profiles[owner, orbits] / self._sizes[orbits]
        widths = np.bincount(owner, minlength=len(kept))
        starts = self._indptr[-1] + np.cumsum(widths)
        self._indptr = np.concatenate((self._indptr, starts.astype(np.int32)))
        self._indices = np.concatenate((self._indices, orbits.astype(np.int32)))
        self._data = np.concatenate((self._data, data))
        self.bicliques.extend(kept)
        return len(kept)

    def csc(self) -> _Csc:
        """The store's LP with row E divided by |E|, so every right hand
        side is one, as `_linprog` solves it."""
        return _Csc(self._indptr, self._indices, self._data, (len(self.rhs), len(self)))

    def rounded_dual(self, duals) -> list:
        """Row E's exact dual read off HiGHS's scaled row dual: rounded
        to a nearby fraction, then divided by |E| (a division by one
        would only copy the fraction)."""
        return [q if size == 1 else q / size
                for q, size in zip(_round_all(duals), self.rhs)]

    def steering_dual(self, vertex, basis, rounded) -> tuple:
        """The edge weights to price in a float round at HiGHS's optimal
        `vertex` (x, row duals, basic variables), whose `basis` `_basis`
        built: the row duals `rounded` when they are the basis's exact
        dual (they price every basic column at exactly 1 and every
        basic slack at 0), and otherwise HiGHS's dual rounded to
        multiples of 2^-32, which keeps pricing's common denominator
        small."""
        if basis is not None:
            cols, slack_rows, matrix = basis
            if _solves(matrix.T, rounded, [1] * len(cols) + [0] * len(slack_rows)):
                return self.edge_dual(rounded)
        return self.edge_dual([rat(round(v / size * _GRID), _GRID)
                               for v, size in zip(vertex[1].tolist(), self.rhs)])

    def columns(self, cols) -> np.ndarray:
        """The columns `cols` as integer matrix columns, rebuilt from
        their bicliques' incidence columns, counted by orbit."""
        a = self._a
        bits = unpack_masks([incidence_column(a, self.bicliques[j]) for j in cols],
                            a.num_edges)
        owner, edges = np.nonzero(bits)
        num = len(self.rhs)
        return np.bincount(owner * num + self._orbit_of[edges],
                           minlength=len(cols) * num).reshape(len(cols), num).T

    def edge_dual(self, w) -> tuple:
        """The edge weights y_e = w_E for e in E."""
        return tuple([w[t] for t in self._orbit_list])


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


def _linprog(*, A_eq: _Csc, presolve: bool):
    """Minimise the sum of x subject to A_eq x = 1 and x >= 0 by HiGHS
    dual simplex, presolving first when `presolve` is true.  Returns
    (x, row duals, basic variables) at an optimal vertex, or None when
    HiGHS reports no optimum or no basis.

    Each call builds a fresh HiGHS model through `lp.highs_model`, whose
    options make the vertex the one scipy's linprog(method="highs-ds",
    options={"presolve": presolve}) returns.  The basic variables are
    HiGHS's optimal basis, one per row in HiGHS's convention: j >= 0 is
    column j and -1 - r is row r's slack.

    The name is kept from when this was scipy's linprog: the
    benchmark's tracer wraps `colgen._linprog` by name and reads
    `A_eq.shape` and `A_eq.nbytes` from the keywords (ROADMAP item 9
    moves that tracing into the library).
    """
    model = highs_model(A_eq.shape[0], A_eq.indptr, A_eq.indices, A_eq.data, PARTITION,
                        presolve)
    solution = None if model is None else highs_solution(model)
    if solution is None:
        return None
    status, basic = model.getBasicVariables()
    if status != _highs.HighsStatus.kOk:
        return None
    return np.array(solution.col_value), np.array(solution.row_dual), basic


# A float phase prices new columns into the store for at most
# _INNER_ROUNDS solves and stops early once the store holds _BUFFER_CAP
# columns.  The cap is soft: a phase can pass it by one round's
# candidates, and every iteration still adds its exact candidates.  The
# store keeps 12 bytes per nonzero of each column, so its memory
# follows the columns' sizes, not the row count times the columns.
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


def _round_all(values: np.ndarray) -> list:
    """`_nearest` of each float of `values`.  A degenerate vertex
    repeats few values, so each distinct float is rounded once."""
    rounded = {}
    out = []
    for v in values.tolist():
        q = rounded.get(v)
        if q is None:
            q = rounded[v] = _nearest(v)
        out.append(q)
    return out


def _float_phase(a, maximals, store, threshold, timings):
    """Run the float relaxation of the store's LP to a standstill.

    Alternates HiGHS solves with pricing rounds against the store's
    steering dual until pricing stops producing new columns; each
    round builds its vertex's basis matrix once, with `_basis`.
    Returns the final vertex (x, row duals, basic variables), its basis
    (None when it is not one variable per row), its row duals rounded
    to nearby fractions, the steering dual priced last and its
    `price_all` result (alpha, candidates); or None when a float solve
    fails.  Every `price_all` call is booked under "pricing" in
    `timings`.  All of it only steers: `lp.solve_basis` takes the basis
    only if it checks out exactly, the exact pricing of its dual
    decides convergence, and `_generate` reuses the pricing result only
    when the exact dual equals the steering dual.
    """
    for _ in range(_INNER_ROUNDS):
        vertex = _linprog(A_eq=store.csc(), presolve=store.presolve)
        if vertex is None:
            return None
        basis = _basis(store, vertex[2])
        rounded = store.rounded_dual(vertex[1])
        steer = store.steering_dual(vertex, basis, rounded)
        priced = _price(a, maximals, steer, threshold, timings)
        fresh = store.extend([pb.biclique for pb in priced[1]])
        if not fresh or len(store) >= _BUFFER_CAP:
            break
    return vertex, basis, rounded, steer, priced


def _initial_bicliques(a, config, maximals) -> list[Biclique]:
    strategy = config.init_strategy
    if strategy == "stars":
        return []
    if strategy == "all":
        return enumerate_all_bicliques(a, maximals=maximals)
    # union takes the densest pool that fits: all bicliques, else just
    # the stars.
    try:
        return enumerate_all_bicliques(a, maximals=maximals)
    except SizeCapExceeded:
        return []


# ---------------------------------------------------------------------------
# Kronecker powers
# ---------------------------------------------------------------------------

def solve_power(
    base: BinaryMatrix, k: int, config: ColGenConfig, progress=None
) -> ColGenReport:
    """Column generation on the k-th Kronecker power of `base`: `run` on
    the power, given its maximal bicliques and, for k >= 2 with the
    union strategy, the generators of its symmetry group.

    The power is built level by level, each level's matrix and maximal
    bicliques from the level below's in one product step.  A power over
    the size cap is refused before any level is built.  The power's
    group is known by construction (`symmetry.power_generators`), so
    `run` hands the power to the orbit master without searching for
    it.  The report's "total" timing counts from the entry of this
    call.
    """
    t_start = time.perf_counter()
    if k < 1:
        raise ContractViolation("power must be at least 1")
    check_power_size(base, k)
    base_shape = (base.num_rows, base.num_cols)
    base_maximals = enumerate_maximal(base)
    power, maximals = base, base_maximals
    for level in range(2, k + 1):
        power = kronecker(power, base)
        maximals = lift_maximal_kronecker(base_maximals, level, base_shape,
                                          below=maximals)
    generators = None
    if k >= 2 and config.init_strategy == "union":
        from .symmetry import power_generators

        generators = power_generators(base, k)
    report = run(power, config, maximals=maximals, progress=progress,
                 generators=generators)
    return _timed_from(report, t_start)
