"""Brute-force and third-party reference implementations for the tests.

Everything here is deliberately naive and shares no logic with the
package: definitions are unrolled directly (subset enumeration) or
delegated to scipy's independent LP solver, so agreement is meaningful
evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from fracbp.core import Biclique, BinaryMatrix


def subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def brute_bicliques(a: BinaryMatrix) -> set[tuple[int, int]]:
    """Every (row mask, col mask) whose submatrix is all ones."""
    found = set()
    for rows in subsets(range(a.num_rows)):
        common = (1 << a.num_cols) - 1
        for i in rows:
            common &= a.rows[i]
        if not common:
            continue
        rmask = 0
        for i in rows:
            rmask |= 1 << i
        for cols in subsets([j for j in range(a.num_cols) if (common >> j) & 1]):
            cmask = 0
            for j in cols:
                cmask |= 1 << j
            found.add((rmask, cmask))
    return found


def brute_maximal_bicliques(a: BinaryMatrix) -> set[tuple[int, int]]:
    """Bicliques of `a` that no other biclique strictly contains."""
    all_b = brute_bicliques(a)
    out = set()
    for r, c in all_b:
        if not any(
            (r2, c2) != (r, c) and r2 & r == r and c2 & c == c
            for r2, c2 in all_b
        ):
            out.add((r, c))
    return out


def brute_price(a: BinaryMatrix, values) -> Fraction:
    """Max edge-weight sum over every biclique, straight from the
    definition."""
    best = None
    for rmask, cmask in brute_bicliques(a):
        total = sum(
            values[a.edge_index[(i, j)]]
            for i in range(a.num_rows)
            if (rmask >> i) & 1
            for j in range(a.num_cols)
            if (cmask >> j) & 1
        )
        if best is None or total > best:
            best = total
    return best


def naive_price_all(a: BinaryMatrix, maximals, values, threshold,
                    per_cap=64, global_cap=4096):
    """price_all's documented output, by plain enumeration in Fractions.

    For each biclique in `maximals`: every nonempty subset S of its
    smaller side (rows on a tie), the closure T of the other side's
    vertices whose weight sum over S is positive, and the weight of
    S x T.  The candidates of one biclique are the closures with T
    nonempty and weight above `threshold`, ordered by weight descending,
    then fewer edges, then lower S mask, then lower T mask, and cut to
    `per_cap`.  The merge keeps the first copy of each biclique, orders
    by weight descending, then row mask, then column mask, and cuts to
    `global_cap`.  alpha is the largest closure weight or single edge
    weight.  Returns (alpha, [(Biclique, weight), ...]).
    """
    alpha = None
    merged = {}
    for b in maximals:
        rows = [i for i in range(a.num_rows) if (b.row_set >> i) & 1]
        cols = [j for j in range(a.num_cols) if (b.col_set >> j) & 1]
        transposed = len(cols) < len(rows)
        side, other = (cols, rows) if transposed else (rows, cols)

        def weight(s, o):
            i, j = (o, s) if transposed else (s, o)
            return values[a.edge_index[(i, j)]]

        for s in side:
            for o in other:
                if alpha is None or weight(s, o) > alpha:
                    alpha = weight(s, o)
        found = []
        for subset in subsets(side):
            closure = [o for o in other if sum(weight(s, o) for s in subset) > 0]
            if not closure:
                continue
            total = sum(weight(s, o) for s in subset for o in closure)
            alpha = max(alpha, total)
            if total > threshold:
                smask = sum(1 << s for s in subset)
                omask = sum(1 << o for o in closure)
                found.append((-total, len(subset) * len(closure), smask, omask))
        found.sort()
        for neg_total, _, smask, omask in found[:per_cap]:
            key = (omask, smask) if transposed else (smask, omask)
            merged.setdefault(key, -neg_total)
    ordered = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    return alpha, [(Biclique(r, c), v) for (r, c), v in ordered[:global_cap]]


def brute_fooling_sets(a: BinaryMatrix) -> int:
    """Largest set of ones, no two of which lie in a common all-ones
    2x2-closing pattern: (i,j), (i',j') clash when i==i', j==j', or both
    cross entries (i,j') and (i',j) are ones."""
    ones = a.edges

    def compatible(p, q):
        (i, j), (i2, j2) = p, q
        if i == i2 or j == j2:
            return False
        return not (a.entry(i, j2) and a.entry(i2, j))

    best = 0
    for size in range(len(ones), 0, -1):
        if size <= best:
            break
        for combo in combinations(ones, size):
            if all(compatible(p, q) for p, q in combinations(combo, 2)):
                best = size
                break
    return best


def dense_incidence(a: BinaryMatrix, bicliques) -> np.ndarray:
    """Edges x bicliques 0/1 float matrix, entry by entry."""
    mat = np.zeros((a.num_edges, len(bicliques)))
    for col, b in enumerate(bicliques):
        for i in b.row_indices():
            for j in b.col_indices():
                mat[a.edge_index[(i, j)], col] = 1.0
    return mat


def float_lp_value(a: BinaryMatrix, bicliques, sense: str) -> float:
    """Reference LP optimum from scipy (HiGHS), in floats.

    sense "partition": min 1'x, Mx = 1, x >= 0.
    sense "cover":     min 1'x, Mx >= 1, x >= 0.
    Returns the optimum, or None when HiGHS reports infeasible.
    """
    m = a.num_edges
    mat = dense_incidence(a, bicliques)
    c = np.ones(len(bicliques))
    if sense == "partition":
        res = linprog(c, A_eq=mat, b_eq=np.ones(m), bounds=(0, None),
                      method="highs")
    else:
        res = linprog(c, A_ub=-mat, b_ub=-np.ones(m), bounds=(0, None),
                      method="highs")
    if res.status == 2:
        return None
    assert res.success, res.message
    return res.fun


def highs_ds_vertex(a: BinaryMatrix, bicliques):
    """scipy's linprog(method="highs-ds") on the partition LP over
    `bicliques`, from a dense matrix: (x, row duals, lower-bound
    marginals), or None when it reports no optimum."""
    res = linprog(np.ones(len(bicliques)), A_eq=dense_incidence(a, bicliques),
                  b_eq=np.ones(a.num_edges), bounds=(0, None), method="highs-ds")
    if not res.success:
        return None
    return res.x, res.eqlin.marginals, res.lower.marginals


def random_binary_matrix(rng, max_rows=4, max_cols=4) -> BinaryMatrix:
    """Random matrix with at least one edge."""
    while True:
        m = rng.randint(1, max_rows)
        n = rng.randint(1, max_cols)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        if any(rows):
            return BinaryMatrix(m, n, rows)


def random_rationals(rng, count, den_range=(1, 12), num_range=(-6, 12)):
    return [
        Fraction(rng.randint(*num_range), rng.randint(*den_range))
        for _ in range(count)
    ]


def masks(pairs) -> set[tuple[int, int]]:
    """Canonical (row mask, col mask) set of a Biclique iterable."""
    out = set()
    for b in pairs:
        out.add((b.row_set, b.col_set))
    return out


def biclique_set(pairs) -> set[Biclique]:
    return {Biclique(r, c) for r, c in pairs}
