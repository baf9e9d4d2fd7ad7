"""Brute-force and third-party reference implementations for the tests.

Everything here is deliberately naive and shares no logic with the
package: definitions are unrolled directly (subset enumeration) or
delegated to scipy's independent LP solver, so agreement is meaningful
evidence rather than a tautology.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

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


def closed_pairs(a: BinaryMatrix) -> list[tuple[int, int]]:
    """The maximal bicliques of `a` by the Galois connection, sorted:
    for every nonempty row subset R, c = the columns common to R and r =
    every row whose ones include c, kept when c is nonempty.  Exponential
    in the number of rows only, so it reaches widths past 64 bits."""
    found = set()
    for subset in range(1, 1 << a.num_rows):
        c = (1 << a.num_cols) - 1
        for i in range(a.num_rows):
            if (subset >> i) & 1:
                c &= a.rows[i]
        if not c:
            continue
        r = 0
        for i in range(a.num_rows):
            if all((a.rows[i] >> j) & 1 for j in range(a.num_cols) if (c >> j) & 1):
                r |= 1 << i
        found.add((r, c))
    return sorted(found)


def random_context(rng, max_rows=8, max_cols=70) -> BinaryMatrix:
    """A random matrix that may carry twin rows, twin columns, zero rows
    and zero columns, each placed at random."""
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    density = rng.choice((0.3, 0.6, 0.85))
    grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        src, dst = rng.sample(range(m), 2)
        grid[dst] = list(grid[src])
    if n > 1 and rng.random() < 0.5:
        src, dst = rng.sample(range(n), 2)
        for row in grid:
            row[dst] = row[src]
    if rng.random() < 0.3:
        grid[rng.randrange(m)] = [0] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in grid:
            row[j] = 0
    return BinaryMatrix.from_dense(grid)


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


def brute_integer_number(a: BinaryMatrix, sense: str) -> int:
    """The least number of bicliques that partition (sense "partition")
    or cover (sense "cover") the ones of `a`, by exhaustive search.

    Iterative deepening: a depth-d search tries every biclique through
    the lowest one not yet covered, disjoint from the parts chosen so
    far in a partition, and recurses with depth d - 1.  A cover may use
    maximal bicliques alone, since each part of a cover can grow to a
    maximal biclique.
    """
    pairs = brute_bicliques(a) if sense == "partition" else brute_maximal_bicliques(a)
    parts = [
        frozenset((i, j) for i in range(a.num_rows) if (rmask >> i) & 1
                  for j in range(a.num_cols) if (cmask >> j) & 1)
        for rmask, cmask in sorted(pairs)
    ]
    ones = sorted(a.edges)

    def fits(used, depth):
        first = next((e for e in ones if e not in used), None)
        if first is None:
            return True
        if depth == 0:
            return False
        return any(
            fits(used | part, depth - 1) for part in parts
            if first in part and (sense == "cover" or not part & used))

    depth = 0
    while not fits(frozenset(), depth):
        depth += 1
    return depth


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


def highs_ds_vertex(a: BinaryMatrix, bicliques, presolve):
    """scipy's linprog(method="highs-ds") on the partition LP over
    `bicliques`, from a dense matrix, presolving as `presolve` says:
    (x, row duals), or None when it reports no optimum."""
    res = linprog(np.ones(len(bicliques)), A_eq=dense_incidence(a, bicliques),
                  b_eq=np.ones(a.num_edges), bounds=(0, None), method="highs-ds",
                  options={"presolve": presolve})
    if not res.success:
        return None
    return res.x, res.eqlin.marginals


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


def map_bits(mask: int, perm) -> int:
    """The mask with each bit i moved to bit perm[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def walk_orbit(start: tuple[int, int], gens) -> set[tuple[int, int]]:
    """The orbit of a (row mask, column mask) pair under the group that
    the `symmetry.Symmetry` maps `gens` generate, one pair and one
    generator at a time, bit by bit."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for r, c in frontier:
            for rows, cols, flip in gens:
                d = ((map_bits(c, rows), map_bits(r, cols)) if flip
                     else (map_bits(r, rows), map_bits(c, cols)))
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return seen


def walk_representatives(bicliques, gens):
    """(reps, covered): the first of `bicliques` from each orbit, in
    input order, and the union of their orbits, by `walk_orbit`."""
    covered: set[tuple[int, int]] = set()
    reps = []
    for b in bicliques:
        key = (b.row_set, b.col_set)
        if key not in covered:
            reps.append(b)
            covered |= walk_orbit(key, gens)
    return reps, covered


def every_leaf_row_maps(a: BinaryMatrix):
    """Every row map sigma for which some tau has a[sigma[i]][tau[j]] ==
    a[i][j], in lexicographic order, by a depth first search that visits
    every leaf: a partial row map survives only while the columns of `a`
    on the rows mapped so far and the columns on their images agree as
    multisets.  Yields (sigma, the columns' signatures on the images)."""
    m, n = a.num_rows, a.num_cols
    cols = [a.column_mask(j) for j in range(n)]
    want = [sorted(c & ((1 << (t + 1)) - 1) for c in cols) for t in range(m)]
    degree = [r.bit_count() for r in a.rows]
    stack = [((), 0, [0] * n)]
    while stack:
        sigma, used, sig = stack.pop()
        t = len(sigma)
        if t == m:
            yield sigma, sig
            continue
        children = []
        for r in range(m):
            if (used >> r) & 1 or degree[r] != degree[t]:
                continue
            new = [s | (((a.rows[r] >> j) & 1) << t) for j, s in enumerate(sig)]
            if sorted(new) == want[t]:
                children.append((sigma + (r,), used | (1 << r), new))
        stack.extend(reversed(children))


def every_automorphism(a: BinaryMatrix) -> set:
    """Every (sigma, tau) with a[sigma[i]][tau[j]] == a[i][j]: each leaf
    of `every_leaf_row_maps` with each tau that sends column j onto a
    column whose signature on the images is column j itself."""
    classes: dict[int, list[int]] = {}
    for j in range(a.num_cols):
        classes.setdefault(a.column_mask(j), []).append(j)
    out = set()
    for sigma, sig in every_leaf_row_maps(a):
        # Equal columns may go to the columns of their signature on the
        # images in any order.
        choices = [(js, [j2 for j2 in range(a.num_cols) if sig[j2] == c])
                   for c, js in classes.items()]
        for images in product(*(permutations(dst) for _, dst in choices)):
            tau = [0] * a.num_cols
            for (src, _), dst in zip(choices, images):
                for j, j2 in zip(src, dst):
                    tau[j] = j2
            out.add((sigma, tuple(tau)))
    return out


class SignatureRowMaps:
    """The row-map search that kept n column signatures per node and
    sorted them for every candidate row: the reference for
    `symmetry._RowMaps`, which must find the same leaves, generators
    and column maps in the same order.

    A node maps rows 0..t-1 of `src` and holds dst's column signatures
    on their images: bit s of column j's is dst[sigma[s]][j].  A child
    maps row t onto an unused dst row of t's colour and survives while
    the columns of src on rows 0..t and of dst on their images agree as
    multisets of (colour, signature).  The colourings are given, as
    `symmetry._refine` makes them; they only prune.  All searches on
    one instance share a budget of `budget` popped nodes."""

    def __init__(self, src: BinaryMatrix, dst: BinaryMatrix, src_colouring,
                 dst_colouring, budget):
        m, n = src.num_rows, src.num_cols
        self.m = m
        (src_rows, src_cols), (dst_rows, dst_cols) = src_colouring, dst_colouring
        self.src_rows, self.dst_rows = src_rows, dst_rows
        self.dst = dst.rows
        self.dst_cols = [dst.column_mask(j) for j in range(n)]
        self.dst_keys = [c << m for c in dst_cols]
        src_masks = [src.column_mask(j) for j in range(n)]
        self.src_keys = [
            sorted(c << m | mask & ((2 << t) - 1) for c, mask in zip(src_cols, src_masks))
            for t in range(m)]
        self.budget = budget

    def children(self, node) -> list:
        sigma, used, sig = node
        t = len(sigma)
        colour, want = self.src_rows[t], self.src_keys[t]
        out = []
        for r, row in enumerate(self.dst):
            if (used >> r) & 1 or self.dst_rows[r] != colour:
                continue
            new = [s | ((row >> j) & 1) << t for j, s in enumerate(sig)]
            if sorted([k | s for k, s in zip(self.dst_keys, new)]) == want:
                out.append((sigma + (r,), used | 1 << r, new))
        return out

    def first(self, start=None):
        stack = [start or ((), 0, [0] * len(self.dst_cols))]
        while stack and self.budget > 0:
            self.budget -= 1
            node = stack.pop()
            if len(node[0]) == self.m:
                return node[0], node[2]
            stack.extend(reversed(self.children(node)))
        return None

    def generators(self) -> list:
        m = self.m
        orbit = list(range(m))

        def find(x):
            while orbit[x] != x:
                orbit[x] = x = orbit[orbit[x]]
            return x

        gens = []
        for t in reversed(range(m)):
            low = (1 << t) - 1
            path = (tuple(range(t)), low, [c & low for c in self.dst_cols])
            for child in self.children(path):
                if find(child[0][-1]) == find(t):
                    continue
                leaf = self.first(child)
                if leaf is None:
                    if self.budget <= 0:
                        return gens
                    continue
                gens.append(leaf)
                for i, g in enumerate(leaf[0]):
                    orbit[find(i)] = find(g)
        return gens


def pair_columns(src: BinaryMatrix, dst_sig) -> tuple[int, ...]:
    """tau sending each src column to the dst column of equal
    signature, equal columns paired in index order."""
    src_cols = [src.column_mask(j) for j in range(src.num_cols)]
    free: dict[int, list[int]] = {}
    for j in reversed(range(len(dst_sig))):
        free.setdefault(dst_sig[j], []).append(j)
    return tuple(free[c].pop() for c in src_cols)


def signature_automorphisms(a: BinaryMatrix, refine, budget) -> list:
    """`symmetry.base_automorphisms` by `SignatureRowMaps`, with the
    colourings that `refine` gives."""
    flipped = a.num_rows > a.num_cols
    src = a.transpose() if flipped else a
    colouring = refine(src)
    gens = [(sigma, pair_columns(src, sig)) for sigma, sig
            in SignatureRowMaps(src, src, colouring, colouring, budget).generators()]
    ident = tuple(range(src.num_rows))
    by_column: dict[int, list[int]] = {}
    for j in range(src.num_cols):
        by_column.setdefault(src.column_mask(j), []).append(j)
    for same in by_column.values():
        for j, j2 in zip(same, same[1:]):
            tau = list(range(src.num_cols))
            tau[j], tau[j2] = j2, j
            gens.append((ident, tuple(tau)))
    return [(tau, sigma) for sigma, tau in gens] if flipped else gens


def signature_transpose_map(a: BinaryMatrix, refine, budget):
    """`symmetry.transpose_map` by `SignatureRowMaps`."""
    if a.num_rows != a.num_cols:
        return None
    src = a.transpose()
    found = SignatureRowMaps(src, a, refine(src), refine(a), budget).first()
    if found is None:
        return None
    sigma, sig = found
    return sigma, pair_columns(src, sig)
