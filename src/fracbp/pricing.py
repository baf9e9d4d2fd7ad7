"""Exact pricing: heaviest all-ones submatrix inside a maximal biclique.

Given edge weights (a master dual), pricing finds the biclique whose
edge-weight sum is largest.  It is enough to search inside each maximal
biclique: every biclique lives under one, and for a fixed row subset R
the best column subset is the closure C(R) of columns with positive
weight sum, so enumerating row subsets of maximal bicliques covers the
entire search space exactly.

The scan runs over integers.  Once per call the weights' denominators
are cleared: with den the lcm of the denominators, every weight becomes
the integer num = weight * den, and every biclique value is an integer
multiple of 1/den.  Scaling by den > 0 preserves every sign and every
comparison, so the closures, the maximizer and the candidate order are
the same as in rational arithmetic.  The threshold test `value > t`
becomes `num > cut` with cut = floor(t * den), which is exact because
the left side is an integer.  Values are turned back into rationals
only for what is returned.

The enumeration runs over the smaller side of the biclique (transposing
if needed) and refuses outright past `subset_limit` rows rather than
sampling; a wrong pricing maximum would silently break the lower bound
math downstream.

Pricing runs serially in the caller's process: one call scans every
maximal biclique in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from operator import add

from ._rational import clear_denominators, rat
from .core import Biclique, BinaryMatrix, EdgeWeights, bit_indices, is_valid_biclique
from .errors import ContractViolation, SizeCapExceeded

SUBSET_LIMIT = 1 << 20

_positive = (0).__lt__


@dataclass(frozen=True)
class PricedBiclique:
    biclique: Biclique
    value: object


def price_maximal(
    b: Biclique,
    weights: EdgeWeights,
    threshold,
    cap: int = 64,
    subset_limit: int = SUBSET_LIMIT,
) -> tuple[PricedBiclique, list[PricedBiclique]]:
    """Best-weight sub-biclique of `b`, plus all candidates above threshold.

    Args:
        b: a biclique of weights.matrix (usually maximal).
        weights: exact rational edge weights.
        threshold: candidates must have value strictly above this.
        cap: keep at most this many candidates, best first.
        subset_limit: refuse if 2^(smaller side) exceeds this.

    Returns:
        (maximizer, candidates).  The maximizer is always returned, even
        when nothing clears the threshold; if every weight in `b` is
        nonpositive it degenerates to the best single edge.  Ties in
        value prefer fewer edges, then the canonical biclique order.
    """
    den, nums = clear_denominators(weights.values)
    best, found = _scan_maximal(
        b, weights.matrix, nums, floor(threshold * den), cap, subset_limit)
    return (PricedBiclique(best[1], rat(best[0], den)),
            [PricedBiclique(c, rat(v, den)) for v, c in found])


def _scan_maximal(
    b: Biclique, matrix: BinaryMatrix, nums, cut: int, cap: int, subset_limit: int,
) -> tuple[tuple[int, Biclique], list[tuple[int, Biclique]]]:
    """price_maximal on integer weights `nums` (edge-index order) and
    the integer threshold `cut`; values come back as integers."""
    if not is_valid_biclique(matrix, b):
        raise ContractViolation("priced biclique is not valid in the weight matrix")
    rows = bit_indices(b.row_set)
    cols = bit_indices(b.col_set)
    transposed = len(cols) < len(rows)
    if transposed:
        rows, cols = cols, rows
    k, n = len(rows), len(cols)
    if k > 0 and (1 << k) > subset_limit:
        raise SizeCapExceeded(
            f"pricing rows={b.row_set:#x} cols={b.col_set:#x} needs 2^{k} subsets",
            1 << k, subset_limit)

    index = matrix.edge_index
    if transposed:
        grid = [[nums[index[(cj, ri)]] for cj in cols] for ri in rows]
    else:
        grid = [[nums[index[(ri, cj)]] for cj in cols] for ri in rows]

    best = None  # (value, local row mask, local col mask)
    found: list[tuple] = []

    def scan(i, rmask, colsum):
        nonlocal best
        if i < k:
            scan(i + 1, rmask, colsum)
            scan(i + 1, rmask | (1 << i), list(map(add, colsum, grid[i])))
            return
        # The closure is empty exactly when value is 0 (the empty row
        # set included), and then there is no biclique to report.
        value = sum(filter(_positive, colsum))
        if not value:
            return
        above = value > cut
        if not above and best is not None and value < best[0]:
            return
        cmask = 0
        for j in range(n):
            if colsum[j] > 0:
                cmask |= 1 << j
        if above:
            found.append((value, rmask, cmask))
        if best is None or value > best[0]:
            best = (value, rmask, cmask)
        elif value == best[0]:
            edges = rmask.bit_count() * cmask.bit_count()
            bedges = best[1].bit_count() * best[2].bit_count()
            if (edges, rmask, cmask) < (bedges, best[1], best[2]):
                best = (value, rmask, cmask)

    scan(0, 0, [0] * n)

    if best is None:
        # All weights nonpositive: the single heaviest edge is optimal.
        bi, bj = 0, 0
        for i in range(k):
            for j in range(n):
                if grid[i][j] > grid[bi][bj]:
                    bi, bj = i, j
        best = (grid[bi][bj], 1 << bi, 1 << bj)

    def lift(value, rmask, cmask) -> tuple[int, Biclique]:
        rset = 0
        for i in bit_indices(rmask):
            rset |= 1 << rows[i]
        cset = 0
        for j in bit_indices(cmask):
            cset |= 1 << cols[j]
        if transposed:
            rset, cset = cset, rset
        return value, Biclique(rset, cset)

    found.sort(key=lambda t: (-t[0], t[1].bit_count() * t[2].bit_count(), t[1], t[2]))
    return lift(*best), [lift(*t) for t in found[:cap]]


def price_all(
    maximals,
    weights: EdgeWeights,
    threshold,
    per_cap: int = 64,
    global_cap: int = 4096,
    subset_limit: int = SUBSET_LIMIT,
) -> tuple[object, list[PricedBiclique]]:
    """Price every maximal biclique and merge the results.

    Returns (alpha, candidates) where alpha is the true maximum biclique
    weight over the whole matrix.  Candidates are deduplicated, sorted
    by value descending (ties by canonical order), and truncated to
    `global_cap`.  The bicliques are scanned serially and merged in
    input order.
    """
    maximals = list(maximals)
    if not maximals:
        raise ContractViolation("pricing needs at least one maximal biclique")
    den, nums = clear_denominators(weights.values)
    cut = floor(threshold * den)
    alpha = None
    merged: dict[tuple[int, int], tuple[int, Biclique]] = {}
    for b in maximals:
        (top, _), cands = _scan_maximal(
            b, weights.matrix, nums, cut, per_cap, subset_limit)
        if alpha is None or top > alpha:
            alpha = top
        for value, c in cands:
            merged.setdefault((c.row_set, c.col_set), (value, c))
    ordered = sorted(
        merged.values(), key=lambda t: (-t[0], t[1].row_set, t[1].col_set))
    return rat(alpha, den), [
        PricedBiclique(c, rat(v, den)) for v, c in ordered[:global_cap]]
