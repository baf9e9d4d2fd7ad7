"""The orbit master: column generation on a Kronecker power over the
orbits of its symmetry group.

`colgen.solve_power` hands a power here when it has k >= 2 and the
union strategy.  The LP has one row per edge orbit of the group G that
`symmetry` derives, and one column per profile: a biclique's count of
cells in each edge orbit.  It is solved like `colgen.run` solves the
full master, HiGHS steering and exact arithmetic deciding, and its
answer is expanded to a full-space partition and checked there.  It
calls HiGHS, pricing and checkpoint writes by their names in `colgen`,
where the benchmark's tracer wraps them.
"""

from __future__ import annotations

import os
import time
from math import lcm

import numpy as np

from . import colgen
from ._rational import ONE, ZERO, clear_denominators, rat
from .colgen import ColGenReport, IterationRecord
from .core import Biclique, BinaryMatrix, EdgeWeights, matrix_hash
from .errors import CheckpointError, ContractViolation, InvariantViolation
from .symmetry import (
    biclique_orbit,
    edge_orbits,
    orbit_representatives,
    power_generators,
)


def orbit_master(base, k, a, maximals, config) -> ColGenReport | None:
    """Column generation on the k-th power `a` of `base` over the orbits
    of its symmetry group G, or None when the caller should fall back.

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
    Then HiGHS's last optimal basis is solved exactly, for z and the
    dual w (y_e = w_E for e in E), and w is priced, which decides
    convergence.  The run stops at alpha <= 1 + epsilon or after
    `max_iterations`, writing the checkpoint, if any, after every
    iteration.  The support of the last basis is then expanded: each
    basic orbit column's z spread evenly over its G-orbit, then checked
    edge by edge.

    Returns None when HiGHS fails, the basis is singular or not exactly
    feasible, or an iteration at alpha > 1 + epsilon adds no profile.
    """
    t_start = time.perf_counter()
    mhash = matrix_hash(a)
    gens = power_generators(base, k)
    orbits = edge_orbits(a, gens)
    reps, covered = orbit_representatives(maximals, gens)
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
            priced = (steer, colgen.price_all(reps, EdgeWeights(a, steer), threshold))
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
        # when that round steered by the exact dual.
        if dual == priced[0]:
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
        a, gens, [(pool.bicliques[j], x) for j, x in z.items() if x], objective)
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
        """Add the bicliques whose profiles are new; returns how many."""
        before = len(self)
        num_rows, num_cols = self._orbit_at.shape
        for b in bicliques:
            if b.row_set >> num_rows or b.col_set >> num_cols:
                raise ContractViolation("biclique lies outside the matrix")
            cells = self._orbit_at[np.ix_(b.row_indices(), b.col_indices())]
            if (cells < 0).any():
                raise ContractViolation(
                    "biclique is not an all-ones submatrix of the matrix")
            profile = np.bincount(cells.ravel(), minlength=len(self.sizes))
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
        when that is its basis's exact dual, and otherwise to multiples
        of 2^-32, which keeps pricing's common denominator small."""
        basis = self._basis(vertex[2])
        w = None if basis is None else self._rounded_dual(vertex[1], basis)
        if w is None:
            w = [rat(round(v / size * _GRID), _GRID)
                 for v, size in zip(vertex[1].tolist(), self.sizes)]
        return w

    def solve_basis(self, vertex):
        """The exact solution at HiGHS's optimal `vertex` of the scaled
        LP, in the unscaled LP: ({column: z}, w), or None when the basis
        is singular or not feasible.  A basic row slack stands for an
        artificial unit column of cost 0, which must be 0 in a feasible
        solution.

        Each of z and w is HiGHS's value rounded to nearby fractions
        when that solves its system exactly, which costs one product
        with the basis, and is otherwise solved by Bareiss elimination."""
        basis = self._basis(vertex[2])
        if basis is None:
            return None
        cols, slack_rows, matrix = basis
        n = len(cols)
        z = [colgen._nearest(v) for v in vertex[0][cols].tolist()]
        z += [ZERO] * len(slack_rows)
        if not _solves(matrix, z, self.sizes):
            z = _bareiss_solve(matrix.tolist(), self.sizes)
        if z is None or min(z) < 0 or any(z[n:]):
            return None
        w = self._rounded_dual(vertex[1], basis)
        if w is None:
            w = _bareiss_solve(matrix.T.tolist(), [1] * n + [0] * len(slack_rows))
        if w is None:
            return None
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

    def _rounded_dual(self, duals, basis):
        """w_E = row E's scaled dual over |E|, each rounded to a nearby
        fraction, when w . B_j is exactly 1 on every basic column and 0
        on every basic slack; else None."""
        cols, slack_rows, matrix = basis
        w = [colgen._nearest(v) / size for v, size in zip(duals.tolist(), self.sizes)]
        costs = [1] * len(cols) + [0] * len(slack_rows)
        return w if _solves(matrix.T, w, costs) else None


# Float rounds that cannot recover the exact dual price HiGHS's dual
# rounded to multiples of 1 / _GRID.
_GRID = 1 << 32


def _solves(matrix: np.ndarray, x, rhs) -> bool:
    """Whether matrix x == rhs exactly, for an integer matrix and
    rational x."""
    den, nums = clear_denominators(x)
    product = matrix.astype(object).dot(np.array(nums, dtype=object))
    return product.tolist() == [b * den for b in rhs]


def _bareiss_solve(matrix, rhs):
    """x with matrix x = rhs for a square integer matrix, exactly, or
    None when it is singular.  Fraction-free Gaussian elimination
    (Bareiss): every division is exact, so entries stay integers, and
    only the back substitution is rational."""
    n = len(matrix)
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = 1
    for p in range(n):
        pick = next((i for i in range(p, n) if m[i][p]), None)
        if pick is None:
            return None
        m[p], m[pick] = m[pick], m[p]
        top = m[p]
        pivot = top[p]
        for row in m[p + 1:]:
            f = row[p]
            for j in range(p + 1, n + 1):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[p] = 0
        prev = pivot
    # With det the last pivot, det * x is an integer vector (Cramer),
    # so back substitution on it divides exactly too.
    det = prev
    scaled = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        rest = sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = (row[n] * det - rest) // row[i]
    return [rat(v, det) for v in scaled]


def _expand_orbits(a, gens, columns, value) -> list[tuple[Biclique, object]]:
    """The full-space support of orbit columns [(representative, z)]:
    every biclique of a representative's G-orbit O gets z / |O|.

    It is checked here in integers, without the symmetry code: the
    weights are positive and sum to `value`, and with den their common
    denominator, every one of `a` is covered by total weight exactly
    den / den and every zero by none.  Raises InvariantViolation
    otherwise."""
    weights: dict[Biclique, object] = {}
    for b, z in columns:
        orbit = biclique_orbit(b, gens)
        share = z / len(orbit)
        for c in orbit:
            weights[c] = weights.get(c, ZERO) + share
    support = sorted(weights.items(), key=lambda t: (t[0].row_set, t[0].col_set))
    den = lcm(*(w.denominator for _, w in support))
    groups: dict[int, list[Biclique]] = {}
    for b, w in support:
        groups.setdefault(w.numerator * (den // w.denominator), []).append(b)
    total_num = sum(num * len(bs) for num, bs in groups.items())
    if min(groups) <= 0 or total_num != value * den:
        raise InvariantViolation("expanded support weights do not sum to the value")
    # Each cell's total is at most the summed numerators, so int64 holds
    # it when those fit.
    dtype = np.int64 if total_num < 1 << 62 else object
    total = np.zeros((a.num_rows, a.num_cols), dtype=dtype)
    for num, bs in groups.items():
        rows = colgen._unpack([b.row_set for b in bs], a.num_rows).astype(np.float64)
        cols = colgen._unpack([b.col_set for b in bs], a.num_cols).astype(np.float64)
        # Float counts are exact: each is at most len(bs) < 2^53.
        total += np.rint(rows.T @ cols).astype(np.int64).astype(dtype) * num
    ones = colgen._unpack(a.rows, a.num_cols).astype(bool)
    if (total[ones] != den).any() or total[~ones].any():
        raise InvariantViolation("expanded support is not a fractional partition")
    return support
