"""The orbit master: column generation on a symmetric matrix over the
orbits of its symmetry group.

`colgen.solve_power` hands a Kronecker power here when it has k >= 2
and the union strategy, and `colgen.run` hands any matrix here as its
own first power (k = 1), with the generators it has found, when its
edge orbits number at most a quarter of its edges.  The LP has one row
per edge orbit of the group G that `symmetry` derives, and one column
per profile: a biclique's count of cells in each edge orbit.  It is
solved as `colgen.run` solves the full master: HiGHS steers, and
`lp.solve_basis`, the certifier both share, solves HiGHS's last
optimal basis exactly.  Its answer is expanded to a full-space
partition and checked there.  It calls HiGHS, pricing and checkpoint
writes by their names in `colgen`, where the benchmark's tracer wraps
them.
"""

from __future__ import annotations

import os
import time
from math import lcm

import numpy as np

from . import colgen, lp
from ._rational import ONE, ZERO, rat
from .colgen import ColGenReport, IterationRecord
from .core import Biclique, BinaryMatrix, EdgeWeights, matrix_hash, unpack_masks
from .errors import CheckpointError, ContractViolation, InvariantViolation
from .symmetry import (
    edge_orbits,
    gather_table,
    orbit_closure,
    orbit_representatives,
    power_generators,
)


def orbit_master(base, k, a, maximals, config, gens=None,
                 orbits=None) -> ColGenReport | None:
    """Column generation on the k-th power `a` of `base` over the orbits
    of its symmetry group G, or None when the caller should fall back.
    `gens` are G's generators when the caller has them already, as
    `power_generators(base, k)` finds them, and `orbits` G's edge
    orbits when the caller has counted them by `symmetry.edge_orbits`,
    which checks every generator; without `orbits` the generators are
    checked here.

    Averaging an optimum over G keeps it optimal, so some optimum gives
    every biclique of one G-orbit the same weight, and some optimal
    dual y is constant on each edge orbit E.  The orbit LP has one row
    per E, sum_O |b_O & E| z_O = |E|, objective sum z_O, and one column
    per profile: a biclique's vector of |b & E| over the edge orbits.
    Bicliques with one profile are one column, so new columns are
    deduplicated by profile and need no canonical form.  It starts from
    one singleton per edge orbit, which makes it feasible, then the
    profiles of the stars and of the maximal-orbit representatives, and
    then those of the checkpoint's bicliques when resuming.

    Pricing scans only the representatives (one maximal per orbit):
    once their orbits are checked to cover every maximal, their maximum
    is the global one, since G maps bicliques onto bicliques of the
    same y-weight.  Each iteration first runs float rounds, as the
    float mirror of `colgen.run` does: HiGHS solves the LP (rows scaled
    by 1/|E|) and its duals, rounded, are priced until they bring no new
    profile.
    Then `lp.solve_basis` solves HiGHS's last optimal basis exactly,
    for z and the dual w (y_e = w_E for e in E), and w is priced, which
    decides convergence.  The run stops at alpha <= 1 + epsilon or after
    `max_iterations`, writing the checkpoint, if any, after every
    iteration.  The support of the last basis is then expanded: each
    basic orbit column's z spread evenly over its G-orbit, then checked
    edge by edge.

    Returns None when HiGHS fails, the basis is singular or not exactly
    feasible, or an iteration at alpha > 1 + epsilon adds no profile.
    """
    t_start = time.perf_counter()
    mhash = matrix_hash(a)
    if gens is None:
        gens = power_generators(base, k)
    if orbits is None:
        orbits = edge_orbits(a, gens)
    # One gather table serves the representatives and the expansion.
    table = gather_table(gens, a.num_rows, a.num_cols)
    reps, covered = orbit_representatives(maximals, table)
    if not covered.issuperset((b.row_set, b.col_set) for b in maximals):
        raise InvariantViolation(
            "the orbits of the representatives miss a maximal biclique")
    orbit_of = np.empty(a.num_edges, dtype=np.intp)
    for t, orbit in enumerate(orbits):
        orbit_of[orbit] = t
    orbit_of = orbit_of.tolist()
    pool = _OrbitColumns(a, orbits)
    singletons = []
    for orbit in orbits:
        i, j = a.edges[int(orbit[0])]
        singletons.append(Biclique(1 << i, 1 << j))
    pool.extend([*singletons, *colgen.initial_stars(a), *reps])
    iteration = 0
    path = config.checkpoint_path
    if path and os.path.exists(path):
        iteration, saved = colgen.load_checkpoint(path, mhash)
        try:
            pool.extend(saved)
        except ContractViolation as exc:
            raise CheckpointError(f"checkpoint entry is not a biclique: {exc}") from exc

    records: list[IterationRecord] = []
    best_lower = ZERO
    t_master = t_pricing = t_float = 0.0
    threshold = ONE + config.epsilon
    while True:
        iteration += 1
        held = len(pool)
        t0 = time.perf_counter()
        for _ in range(colgen._INNER_ROUNDS):
            vertex = colgen._linprog(A_eq=pool.scaled())
            if vertex is None:
                return None
            w = pool.steering_dual(vertex)
            steer = tuple(w[t] for t in orbit_of)
            priced = (w, colgen.price_all(reps, EdgeWeights(a, steer), threshold))
            if not pool.extend([pb.biclique for pb in priced[1][1]]):
                break
        t1 = time.perf_counter()
        exact = pool.solve_basis(vertex)
        t2 = time.perf_counter()
        t_float += t1 - t0
        t_master += t2 - t1
        if exact is None:
            return None
        z, w = exact
        objective = sum(z.values(), ZERO)
        dual = tuple(w[t] for t in orbit_of)
        # As in `colgen.run`: the float rounds' last pricing is this dual's
        # when that round steered by the exact orbit values.
        if w == priced[0]:
            alpha, candidates = priced[1]
        else:
            alpha, candidates = colgen.price_all(reps, EdgeWeights(a, dual), threshold)
            t_pricing += time.perf_counter() - t2
        lower = objective / alpha if alpha > 1 else objective
        if lower > best_lower:
            best_lower = lower
        converged = alpha <= threshold
        if not converged:
            pool.extend([pb.biclique for pb in candidates])
        records.append(IterationRecord(
            iteration, objective, alpha, best_lower, len(pool), len(pool) - held, 0))
        if path:
            colgen.write_checkpoint(path, mhash, iteration, pool.bicliques)
        if converged or iteration >= config.max_iterations:
            break
        if len(pool) == held:
            return None

    support = _expand_orbits(
        a, table, [(pool.bicliques[j], x) for j, x in z.items() if x], objective)
    timings = {
        "total": time.perf_counter() - t_start,
        "master": t_master,
        "pricing": t_pricing,
        "float": t_float,
    }
    return ColGenReport(
        matrix=a, matrix_hash=mhash, converged=converged,
        value=objective, best_lower_bound=best_lower, final_alpha=alpha,
        support=tuple(support), dual=dual, records=records, timings=timings)


class _OrbitColumns:
    """The orbit LP's columns: one representative biclique per profile,
    in the order first met, with the edge orbits' sizes as the right
    hand side.  A profile counts the biclique's cells in each edge
    orbit, read from a table of every cell's orbit (-1 at a zero)."""

    def __init__(self, a: BinaryMatrix, orbits):
        self.sizes = [len(orbit) for orbit in orbits]
        edges = np.array(a.edges, dtype=np.intp).reshape(-1, 2)
        self._orbit_at = np.full((a.num_rows, a.num_cols), -1, dtype=np.intp)
        for t, orbit in enumerate(orbits):
            self._orbit_at[edges[orbit, 0], edges[orbit, 1]] = t
        self._seen: set[bytes] = set()
        self.bicliques: list[Biclique] = []
        self.profiles: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.bicliques)

    def extend(self, bicliques) -> int:
        """Add the bicliques whose profiles are new; returns how many.
        Every profile comes from one bincount over all the bicliques'
        cells, each cell's row and column read off the bit rows."""
        bicliques = list(bicliques)
        num_rows, num_cols = self._orbit_at.shape
        if any(b.row_set >> num_rows or b.col_set >> num_cols for b in bicliques):
            raise ContractViolation("biclique lies outside the matrix")
        if not bicliques:
            return 0
        owner, rows = np.nonzero(unpack_masks([b.row_set for b in bicliques], num_rows))
        col_owner, cols = np.nonzero(unpack_masks([b.col_set for b in bicliques], num_cols))
        widths = np.bincount(col_owner, minlength=len(bicliques))
        # Cells run biclique by biclique, row by row: each of a
        # biclique's rows meets each of its columns.
        repeats = widths[owner]
        firsts = np.repeat(np.cumsum(repeats) - repeats, repeats)
        offsets = np.arange(len(firsts)) - firsts
        owner = np.repeat(owner, repeats)
        col_starts = np.cumsum(widths) - widths
        cells = self._orbit_at[np.repeat(rows, repeats), cols[col_starts[owner] + offsets]]
        if (cells < 0).any():
            raise ContractViolation("biclique is not an all-ones submatrix of the matrix")
        size = len(self.sizes)
        profiles = np.bincount(owner * size + cells, minlength=len(bicliques) * size)
        before = len(self)
        for b, profile in zip(bicliques, profiles.reshape(len(bicliques), size)):
            key = profile.tobytes()
            if key not in self._seen:
                self._seen.add(key)
                self.bicliques.append(b)
                self.profiles.append(profile)
        return len(self) - before

    def scaled(self) -> colgen._Csc:
        """The LP with row E divided by |E|, so every right hand side is
        one, as `colgen._linprog` solves it."""
        counts = np.array(self.profiles, dtype=np.int64).reshape(len(self), len(self.sizes))
        cols, rows = np.nonzero(counts)
        indptr = np.zeros(len(self) + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=len(self)), out=indptr[1:])
        data = counts[cols, rows] / np.array(self.sizes, dtype=np.float64)[rows]
        return colgen._Csc(indptr, rows.astype(np.int32), data,
                           (len(self.sizes), len(self)))

    def steering_dual(self, vertex):
        """w to price in a float round at HiGHS's optimal `vertex` (x,
        row duals, basic variables): its dual rounded to nearby fractions
        when that is its basis's exact dual (w . B_j is exactly 1 on
        every basic column and 0 on every basic slack), and otherwise to
        multiples of 2^-32, which keeps pricing's common denominator
        small."""
        w = self._rounded_dual(vertex[1])
        basis = self._basis(vertex[2])
        if basis is not None:
            cols, slack_rows, matrix = basis
            if lp._solves(matrix.T, w, [1] * len(cols) + [0] * len(slack_rows)):
                return w
        return [rat(round(v / size * _GRID), _GRID)
                for v, size in zip(vertex[1].tolist(), self.sizes)]

    def solve_basis(self, vertex):
        """The exact solution at HiGHS's optimal `vertex` of the scaled
        LP, in the unscaled LP: ({column: z}, w), or None when the basis
        is singular or not feasible, as `lp.solve_basis` finds it from
        HiGHS's rounded values."""
        basis = self._basis(vertex[2])
        if basis is None:
            return None
        cols, _, matrix = basis
        z = [colgen._nearest(v) for v in vertex[0][cols].tolist()]
        exact = lp.solve_basis(matrix, len(cols), self.sizes, z,
                               self._rounded_dual(vertex[1]))
        if exact is None:
            return None
        z, w = exact
        return dict(zip(cols, z)), w

    def _basis(self, basic):
        """(basic columns, rows whose slack is basic, basis matrix) from
        HiGHS's basic variables, or None when they are not one per row.
        The matrix holds the basic columns, then a unit column per basic
        slack."""
        basic = basic.tolist()
        cols = sorted(j for j in basic if j >= 0)
        slack_rows = sorted(-1 - j for j in basic if j < 0)
        n, m = len(cols), len(self.sizes)
        if n + len(slack_rows) != m:
            return None
        matrix = np.zeros((m, m), dtype=np.int64)
        if n:
            matrix[:, :n] = np.array([self.profiles[j] for j in cols]).T
        matrix[slack_rows, np.arange(n, m)] = 1
        return cols, slack_rows, matrix

    def _rounded_dual(self, duals):
        """w_E = row E's scaled dual over |E|, rounded to a nearby
        fraction."""
        return [colgen._nearest(v) / size for v, size in zip(duals.tolist(), self.sizes)]


# Float rounds that cannot recover the exact dual price HiGHS's dual
# rounded to multiples of 1 / _GRID.
_GRID = 1 << 32


def _expand_orbits(a, table, columns, value) -> list[tuple[Biclique, object]]:
    """The full-space support of orbit columns [(representative, z)]:
    every biclique of a representative's G-orbit O gets z / |O|.  One
    `orbit_closure` of the representatives under `table`, their gather
    table, finds every orbit, with the bit rows its bicliques' keys were
    packed from.

    It is checked here in integers, on those bit rows: the weights are
    positive and sum to `value`, and with den their common denominator,
    every one of `a` is covered by total weight exactly den / den and
    every zero by none.  Raises InvariantViolation otherwise."""
    m = a.num_rows
    z_of: dict[int, object] = {}
    for b, z in columns:
        key = b.row_set | b.col_set << m
        z_of[key] = z_of.get(key, ZERO) + z
    keys, bits, labels = orbit_closure(list(z_of), table)
    labels = labels.tolist()
    share: dict[int, object] = {}
    for label, z in zip(labels, z_of.values()):
        share[label] = share.get(label, ZERO) + z
    sizes = np.bincount(labels).tolist()
    share = {label: z / sizes[label] for label, z in share.items()}
    low = (1 << m) - 1
    pairs = [(k & low, k >> m) for k in keys]
    order = sorted(range(len(keys)), key=pairs.__getitem__)
    support = [(Biclique(*pairs[t]), share[labels[t]]) for t in order]
    den = lcm(*(w.denominator for w in share.values()))
    groups: dict[int, list[int]] = {}
    for t, label in enumerate(labels):
        w = share[label]
        groups.setdefault(w.numerator * (den // w.denominator), []).append(t)
    total_num = sum(num * len(ts) for num, ts in groups.items())
    if min(groups) <= 0 or total_num != value * den:
        raise InvariantViolation("expanded support weights do not sum to the value")
    # Each cell's total is at most the summed numerators, so int64 holds
    # it when those fit.
    dtype = np.int64 if total_num < 1 << 62 else object
    total = np.zeros((a.num_rows, a.num_cols), dtype=dtype)
    for num, ts in groups.items():
        rows = bits[ts, :m].astype(np.float64)
        cols = bits[ts, m:].astype(np.float64)
        # Float counts are exact: each is at most len(ts) < 2^53.
        total += np.rint(rows.T @ cols).astype(np.int64).astype(dtype) * num
    ones = unpack_masks(a.rows, a.num_cols).astype(bool)
    if (total[ones] != den).any() or total[~ones].any():
        raise InvariantViolation("expanded support is not a fractional partition")
    return support
