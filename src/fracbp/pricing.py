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
if needed), k rows against n columns, and refuses outright past
`subset_limit` subsets before allocating anything, rather than
sampling; a wrong pricing maximum would silently break the lower bound
math downstream.

One numpy kernel scans every maximal.  Each call lays the integer
weights out once as a dense grid and gathers each maximal's k x n block
from it.  The column sums of every row subset are built by doubling,
S <- [S, S + row_i], so subset number s has row mask s, and its value
is the sum of max(S, 0) along its row.  A maximal's best value is the
largest of these.  Its candidates are the subsets above the threshold,
narrowed by a partition to those that tie or beat the cap-th best
value, then ordered by one lexsort on the exact keys: value
descending, then fewer edges, then lower row mask.  Row masks are
unique, so the column mask never decides.  `price_maximal`'s maximizer
is the first subset in that order.

Blocks bound the memory: a maximal whose 2^k x n sums exceed `_BLOCK`
cells is scanned in blocks that fix its high rows, each the doubled
low rows plus the sum of one set of high rows, and only the best `cap`
candidates are carried from block to block.  Small maximals are batched
instead, side by side in one array, each padded with zero rows to the
batch's largest k; for them the numpy call count, not the arithmetic,
is the cost.  A batch grows, in order of k, while its padded cells stay
within `_BLOCK` and within twice its own cells plus `_SLACK`.

The sums run in int64 while the weights' absolute numerators sum below
`lp._INT64_GUARD`, which bounds every column sum and value; past that
the same code runs on Python ints in object arrays.

Pricing runs serially in the caller's process, and nothing it builds
outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from ._rational import clear_denominators, rat
from .core import Biclique, BinaryMatrix, EdgeWeights, bit_indices, is_valid_biclique, unpack_masks
from .errors import ContractViolation, SizeCapExceeded
from .lp import _INT64_GUARD

SUBSET_LIMIT = 1 << 20

# Cells of the subset-sum array that one block may hold: 512 KB of
# int64, which priced D^4 fastest of 2^14 to 2^20 on a 2-core x86 host.
_BLOCK = 1 << 16

# Padding cells a batch may carry beyond twice its own cells.
_SLACK = 1 << 12


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
    # Every positive subset is a candidate at cut -1, so the first is
    # the maximizer, and those above the threshold are a prefix.
    (top, edge, ordered), = _scan(
        [b], weights.matrix, nums, -1, max(cap, 1), subset_limit)
    cut = floor(threshold * den)
    best = ordered[0] if ordered else (top, edge)
    return (PricedBiclique(best[1], rat(best[0], den)),
            [PricedBiclique(c, rat(v, den)) for v, c in ordered[:cap] if v > cut])


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
    `global_cap`.  The bicliques are merged in input order.
    """
    maximals = list(maximals)
    if not maximals:
        raise ContractViolation("pricing needs at least one maximal biclique")
    den, nums = clear_denominators(weights.values)
    scanned = _scan(maximals, weights.matrix, nums, floor(threshold * den),
                    per_cap, subset_limit)
    alpha = max(top for top, _, _ in scanned)
    merged: dict[tuple[int, int], tuple[int, Biclique]] = {}
    for _, _, cands in scanned:
        for value, c in cands:
            merged.setdefault((c.row_set, c.col_set), (value, c))
    ordered = sorted(
        merged.values(), key=lambda t: (-t[0], t[1].row_set, t[1].col_set))
    return rat(alpha, den), [
        PricedBiclique(c, rat(v, den)) for v, c in ordered[:global_cap]]


def _scan(
    maximals, matrix: BinaryMatrix, nums, cut: int, cap: int, subset_limit: int,
) -> list[tuple[int, Biclique | None, list[tuple[int, Biclique]]]]:
    """Each of `maximals` scanned on integer weights `nums` (edge-index
    order), in input order: (top, edge, candidates).  top is the best
    subset value, or, when no subset has positive value, the heaviest
    single weight, and edge is then its biclique (the first in row-major
    order of the smaller side), else None.  The candidates are the first
    `cap` subsets of value above max(cut, 0), as (value, biclique), best
    first: value descending, then fewer edges, then lower row mask."""
    shapes = []
    for b in maximals:
        if not (b.row_set and b.col_set and is_valid_biclique(matrix, b)):
            raise ContractViolation("priced biclique is not valid in the weight matrix")
        side, other = bit_indices(b.row_set), bit_indices(b.col_set)
        transposed = len(other) < len(side)
        if transposed:
            side, other = other, side
        if (1 << len(side)) > subset_limit:
            raise SizeCapExceeded(
                f"pricing rows={b.row_set:#x} cols={b.col_set:#x} needs 2^{len(side)} subsets",
                1 << len(side), subset_limit)
        shapes.append((side, other, transposed))

    m, n = matrix.num_rows, matrix.num_cols
    dtype = np.int64 if sum(map(abs, nums)) < _INT64_GUARD else object
    # The last row and column stay zero; gathers pad with them.
    grid = np.zeros((m + 1, n + 1), dtype=dtype)
    grid[:m, :n][unpack_masks(matrix.rows, n).view(bool)] = nums
    out = [None] * len(maximals)
    for batch in _batches(shapes):
        for t, result in zip(batch, _scan_batch(grid, [shapes[t] for t in batch], cut, cap)):
            out[t] = result
    return out


def _batches(shapes) -> list[list[int]]:
    """The maximals' positions grouped for `_scan_batch`: in order of
    smaller side, a batch grows while its padded cells stay within
    `_BLOCK` and within twice its own cells plus `_SLACK`.  A maximal
    too big for one block is a batch of its own."""
    order = sorted(range(len(shapes)), key=lambda t: len(shapes[t][0]))
    batches: list[list[int]] = []
    width = cells = 0
    for t in order:
        k, n = len(shapes[t][0]), len(shapes[t][1])
        if width and (width + n) << k > min(_BLOCK, 2 * (cells + (n << k)) + _SLACK):
            width = cells = 0
        if not width:
            batches.append([])
        batches[-1].append(t)
        width += n
        cells += n << k
    return batches


def _scan_batch(grid, shapes, cut: int, cap: int):
    """`_scan` of one batch of maximals, given as (smaller side, larger
    side, transposed) index tuples, over the padded weight grid.

    The batch's k x n blocks sit side by side as column segments of one
    K x W array, each padded with zero rows up to K, the largest k; a
    subset that takes a padding row is not its maximal's and is masked
    out.  A batch of one maximal past `_BLOCK` cells is scanned in
    2^(K-t) blocks of 2^t subsets: the doubled low t rows plus the sum
    of one set of high rows.
    """
    ks = [len(side) for side, _, _ in shapes]
    K = max(ks)
    stride = grid.shape[1]
    pad = grid.size - 1
    index = []
    for i in range(K):
        for side, other, transposed in shapes:
            if i >= len(side):
                index += [pad] * len(other)
            elif transposed:
                index += [r * stride + side[i] for r in other]
            else:
                index += [side[i] * stride + c for c in other]
    W = len(index) // K
    weights = grid.ravel()[index].reshape(K, W)
    widths = [len(other) for _, other, _ in shapes]
    starts = np.cumsum([0] + widths[:-1])
    t = K if W << K <= _BLOCK else max(0, (_BLOCK // W).bit_length() - 1)
    sums = np.zeros((1, W), dtype=grid.dtype)
    for i in range(t):
        sums = np.concatenate((sums, sums + weights[i]))
    padded = None
    if min(ks) < K:
        padded = np.arange(1 << K)[:, None] >> ks != 0
    top = None
    picks = []
    for high in range(1 << (K - t)):
        fixed = [t + j for j in bit_indices(high)]
        block = sums + weights[fixed].sum(axis=0) if fixed else sums
        value = np.add.reduceat(np.maximum(block, 0), starts, axis=1)
        if padded is not None:
            value[padded] = 0
        best = value.max(axis=0)
        top = best if top is None else np.maximum(top, best)
        above = value > max(cut, 0)
        if above.any():
            picks.append(_candidates(block, value, above, starts, high << t, cap))
        if len(picks) > 1:
            # The best `cap` so far, so what is kept stays within 2 cap.
            seg, value, edges, mask, closure = (np.concatenate(c) for c in zip(*picks))
            keep = _first(seg, value, edges, mask, cap)
            picks = [(seg[keep], value[keep], edges[keep], mask[keep], closure[keep])]

    results = []
    for b, ((side, other, transposed), value) in enumerate(zip(shapes, top.tolist())):
        edge = None
        if not value > 0:
            # No subset is positive: the single heaviest edge is optimal.
            start = starts[b]
            cells = weights[:len(side), start:start + len(other)]
            i, j = divmod(int(np.argmax(cells)), len(other))
            value = cells[i, j]
            r, c = 1 << side[i], 1 << other[j]
            edge = Biclique(c, r) if transposed else Biclique(r, c)
        results.append((int(value), edge, []))
    if picks:
        seg, value, _, mask, closure = picks[0]
        for b, v, c in zip(seg.tolist(), value.tolist(),
                           _lift(shapes, K, widths, seg, mask, closure)):
            results[b][2].append((v, c))
    return results


def _candidates(block, value, above, starts, offset: int, cap: int):
    """Each maximal's first `cap` subsets that are `above` in one block
    of subset sums (subsets by rows from row mask `offset`, maximals by
    column segments from `starts`), as (maximal, value, edges, row
    mask, closure row) arrays ordered as `_first` orders them."""
    rows = len(block)
    if 0 < cap < rows:
        # Keep what ties or beats each maximal's cap-th best value.
        kth = np.partition(np.where(above, value, -1), rows - cap, axis=0)[rows - cap]
        above &= value >= kth
    rows, seg = np.nonzero(above)
    closure = block[rows] > 0
    counts = np.add.reduceat(closure, starts, axis=1, dtype=np.int64)
    mask = rows + offset
    edges = np.bitwise_count(mask) * counts[np.arange(len(rows)), seg]
    value = value[rows, seg]
    keep = _first(seg, value, edges, mask, cap)
    return seg[keep], value[keep], edges[keep], mask[keep], closure[keep]


def _first(seg, value, edges, mask, cap: int):
    """Positions of the first `cap` entries of each maximal `seg`,
    ordered by maximal, then value descending, fewer edges and lower
    row mask."""
    order = np.lexsort((mask, edges, -value, seg))
    ordered = seg[order]
    rank = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    return order[rank < cap]


def _lift(shapes, K, widths, seg, mask, closure) -> list[Biclique]:
    """The bicliques of subsets (maximal, row mask over its smaller
    side, closure row over the batch's column segments), in the
    matrix's indices."""
    width = 1 + max(max(side[-1], other[-1]) for side, other, _ in shapes)
    side_at = np.array([list(side) + [width] * (K - len(side)) for side, _, _ in shapes])
    other_at = np.array([j for _, other, _ in shapes for j in other])
    seg_at = np.repeat(np.arange(len(shapes)), widths)
    picked, i = np.nonzero((mask[:, None] >> np.arange(K)) & 1)
    sides = np.zeros((len(seg), width + 1), dtype=bool)
    sides[picked, side_at[seg[picked], i]] = True
    picked, j = np.nonzero(closure & (seg_at == seg[:, None]))
    others = np.zeros((len(seg), width + 1), dtype=bool)
    others[picked, other_at[j]] = True
    return [Biclique(o, s) if shapes[b][2] else Biclique(s, o)
            for b, s, o in zip(seg.tolist(), _bitsets(sides), _bitsets(others))]


def _bitsets(bits) -> list[int]:
    """Each row of a boolean array as an int, column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[r:r + size], "little") for r in range(0, len(raw), size)]
