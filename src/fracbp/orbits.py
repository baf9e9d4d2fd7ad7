"""The orbit space: column generation on a symmetric matrix over the
orbits of its symmetry group.

`colgen.run` hands a matrix here, with the union strategy, together
with the generators of a symmetry group G and G's edge orbits: a
Kronecker power with the generators `colgen.solve_power` builds from
its base, any other matrix with those of its own symmetries when they
leave at most a quarter as many edge orbits as edges.  The LP has one
row per edge orbit of G and one column per profile: a biclique's count
of cells in each edge orbit.  `orbit_master` only sets up this LP's
`colgen._Columns` store, the one the full space uses with an orbit
per edge, and runs `colgen._generate` over it, the loop the full space
runs too: HiGHS steers and `lp.solve_basis` solves HiGHS's last
optimal basis exactly.  It then expands the answer to a full-space
partition and checks it there (`_expand_orbits`).  HiGHS, pricing and
checkpoint writes are called by their names in `colgen`, where the
benchmark's tracer wraps them.
"""

from __future__ import annotations

import time
from math import lcm

import numpy as np

from . import colgen
from ._rational import ZERO
from .colgen import ColGenReport
from .core import Biclique, matrix_hash, unpack_masks
from .errors import InvariantViolation
from .symmetry import gather_table, orbit_closure, orbit_representatives


def orbit_master(a, maximals, config, gens, orbits) -> ColGenReport | None:
    """Column generation on the symmetric matrix `a` over the orbits of
    the group G that `gens` generate, or None when the caller should
    fall back.  `orbits` are G's edge orbits as `symmetry.edge_orbits`
    counts them, which checks that every generator maps ones onto ones.

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
    same y-weight.  The loop is `colgen._generate` over a
    `colgen._Columns` store of G's edge orbits, as for the full space:
    HiGHS solves the LP with rows scaled by 1/|E|, `lp.solve_basis`
    solves its last optimal basis exactly for z and the dual w (y_e =
    w_E for e in E), and the support of the last basis is expanded:
    each basic orbit column's z spread evenly over its G-orbit, then
    checked edge by edge.

    Returns None when HiGHS fails, the basis is singular or not exactly
    feasible, or an iteration at alpha > 1 + epsilon adds no profile:
    the orbit LP has no exact fallback.
    """
    t_start = time.perf_counter()
    # One gather table serves the representatives and the expansion.
    table = gather_table(gens, a.num_rows, a.num_cols)
    reps, covered = orbit_representatives(maximals, table)
    if not covered.issuperset((b.row_set, b.col_set) for b in maximals):
        raise InvariantViolation(
            "the orbits of the representatives miss a maximal biclique")
    orbit_of = np.empty(a.num_edges, dtype=np.intp)
    for t, orbit in enumerate(orbits):
        orbit_of[orbit] = t
    # Presolve only costs time on the orbit LP.
    pool = colgen._Columns(a, orbit_of, [len(orbit) for orbit in orbits], False, None)
    firsts = a.edge_array[[orbit[0] for orbit in orbits]].tolist()
    singletons = [Biclique(1 << i, 1 << j) for i, j in firsts]
    pool.extend([*singletons, *colgen.initial_stars(a), *reps])
    mhash = matrix_hash(a)
    resumed = colgen._resume(pool, config.checkpoint_path, mhash)
    report = colgen._generate(a, pool, reps, config, mhash, resumed, None, t_start)
    if report is not None:
        report.support = tuple(_expand_orbits(a, table, report.support, report.value))
    return report


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
