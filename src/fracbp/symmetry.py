"""Symmetries of Kronecker powers and the orbits they make.

A symmetry of a 0/1 matrix maps its rows and columns so that ones go
onto ones; the partition LP is invariant under every such map, and
averaging an optimum over a group of them keeps it optimal, so the LP
can be solved over orbits (Boedi, Herr and Joswig, Math. Prog. 2013;
Margot 2010).  For the k-th Kronecker power of a base matrix three
kinds of map generate a group G:

- an automorphism (sigma, tau) of the base, applied to the last
  factor; with the factor swaps it reaches every factor;
- a swap of two adjacent factors, on rows and columns alike;
- a transpose, when the base equals its own transpose up to a
  permutation of rows and one of columns.

Any subgroup of the true symmetry group would do, since its orbits are
only finer, so the search for base automorphisms stops after a fixed
number of search nodes, and the generators are thinned to a small set
because every later orbit costs one image per generator.

A symmetry is a `Symmetry(rows, cols, transpose)`.  Without transpose
it maps entry (i, j) to (rows[i], cols[j]); with it, to (rows[j],
cols[i]), so `rows` is then indexed by column and `cols` by row.
Nothing here is trusted for an answer: `edge_orbits` refuses a map that
sends a one to a zero, and the orbit master checks that the orbits of
its representatives cover every maximal biclique.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Biclique, BinaryMatrix
from .errors import InvariantViolation

# The base automorphism search visits at most this many partial row
# maps, and the thinning to a small generating set stops once the row
# maps generated so far number this many; both only shrink the group.
_SEARCH_NODES = 20_000
_CLOSURE_CAP = 5_040


class Symmetry(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    transpose: bool = False


def power_generators(base: BinaryMatrix, k: int) -> list[Symmetry]:
    """Generators of G for the k-th power of `base`, indexed like
    `core.kronecker_power`, in a fixed order: the base automorphisms,
    the k - 1 adjacent factor swaps, then the transpose if any."""
    m, n = base.num_rows, base.num_cols
    row_digits = _digits(m, k)
    col_digits = _digits(n, k)
    row_place = m ** np.arange(k - 1, -1, -1)
    col_place = n ** np.arange(k - 1, -1, -1)

    def relabel(digits, place, maps):
        """Each index with digit t sent through maps[t]."""
        out = np.empty_like(digits)
        for t, perm in enumerate(maps):
            out[:, t] = np.asarray(perm)[digits[:, t]]
        return tuple((out @ place).tolist())

    ident_rows, ident_cols = tuple(range(m)), tuple(range(n))
    gens = []
    for sigma, tau in base_automorphisms(base):
        gens.append(Symmetry(
            relabel(row_digits, row_place, [ident_rows] * (k - 1) + [sigma]),
            relabel(col_digits, col_place, [ident_cols] * (k - 1) + [tau])))
    for t in range(k - 1):
        gens.append(Symmetry(_swap(row_digits, row_place, t),
                             _swap(col_digits, col_place, t)))
    flip = transpose_map(base)
    if flip is not None:
        pi, rho = flip
        gens.append(Symmetry(relabel(col_digits, row_place, [pi] * k),
                             relabel(row_digits, col_place, [rho] * k), True))
    return gens


def _digits(radix: int, k: int) -> np.ndarray:
    """Base-`radix` digits of 0 .. radix^k - 1, most significant first."""
    index = np.arange(radix ** k)
    return np.stack([(index // radix ** (k - 1 - t)) % radix for t in range(k)],
                    axis=1)


def _swap(digits, place, t) -> tuple[int, ...]:
    swapped = digits.copy()
    swapped[:, [t, t + 1]] = digits[:, [t + 1, t]]
    return tuple((swapped @ place).tolist())


def base_automorphisms(a: BinaryMatrix) -> list[tuple[tuple, tuple]]:
    """A small generating set of the (row, column) automorphisms of `a`,
    as (sigma, tau) pairs with a[sigma[i]][tau[j]] == a[i][j]."""
    flipped = a.num_rows > a.num_cols
    src = a.transpose() if flipped else a
    found = _isomorphisms(src, src, first=False)
    # The row maps found, thinned greedily: keep one only if the ones
    # kept so far do not generate it.
    gens = []
    closure = {tuple(range(src.num_rows))}
    for sigma, tau in found:
        if sigma in closure or len(closure) >= _CLOSURE_CAP:
            continue
        gens.append((sigma, tau))
        closure = _closure(closure, [g for g, _ in gens])
    # Each row map fixes the column map only up to permuting equal
    # columns, so those permutations are generators of their own.
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


def transpose_map(a: BinaryMatrix) -> tuple[tuple, tuple] | None:
    """(pi, rho) with a[pi[j]][rho[i]] == a[i][j] for every entry, so
    that (i, j) -> (pi[j], rho[i]) maps ones onto ones; None when the
    base is not square or not its own transpose up to permutations."""
    if a.num_rows != a.num_cols:
        return None
    found = _isomorphisms(a.transpose(), a, first=True)
    return found[0] if found else None


def _isomorphisms(src: BinaryMatrix, dst: BinaryMatrix, first: bool):
    """(sigma, tau) with dst[sigma[i]][tau[j]] == src[i][j], by depth
    first search over row maps in lexicographic order.  A partial row
    map survives only while the columns of src, read on the rows mapped
    so far, and the columns of dst, read on their images, agree as
    multisets; a full one then pairs equal columns in index order.
    Stops at the first map when `first`, and after _SEARCH_NODES nodes."""
    m, n = src.num_rows, src.num_cols
    src_cols = [src.column_mask(j) for j in range(n)]
    degree = [r.bit_count() for r in dst.rows]
    found = []
    sigma: list[int] = []
    nodes = 0

    def extend(t, used, dst_sig):
        nonlocal nodes
        if nodes >= _SEARCH_NODES or (first and found):
            return
        nodes += 1
        if t == m:
            found.append((tuple(sigma), _pair_columns(src_cols, dst_sig)))
            return
        low = (1 << (t + 1)) - 1
        src_sig = sorted(c & low for c in src_cols)
        for r in range(m):
            if (used >> r) & 1 or degree[r] != src.rows[t].bit_count():
                continue
            row = dst.rows[r]
            sig = [s | (((row >> j) & 1) << t) for j, s in enumerate(dst_sig)]
            if sorted(sig) == src_sig:
                sigma.append(r)
                extend(t + 1, used | (1 << r), sig)
                sigma.pop()

    extend(0, 0, [0] * n)
    return found


def _pair_columns(src_cols, dst_sig) -> tuple[int, ...]:
    """tau sending each src column to the dst column of equal
    signature, equal columns paired in index order."""
    free: dict[int, list[int]] = {}
    for j in reversed(range(len(dst_sig))):
        free.setdefault(dst_sig[j], []).append(j)
    return tuple(free[c].pop() for c in src_cols)


def _closure(elements: set, gens) -> set:
    """The row maps generated by `gens`, from `elements` on."""
    out = set(elements)
    frontier = list(out)
    while frontier and len(out) < _CLOSURE_CAP:
        nxt = []
        for h in frontier:
            for g in gens:
                gh = tuple(g[i] for i in h)
                if gh not in out:
                    out.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def edge_orbits(a: BinaryMatrix, gens) -> list[np.ndarray]:
    """The orbits of G on the ones of `a`, as ascending edge-index
    arrays ordered by their smallest edge.

    Each generator is first turned into a permutation of the edges;
    one that is no bijection of the rows and of the columns, or that
    sends some one to a zero, raises InvariantViolation.  The orbits
    are the components of the generators' edge maps: every edge takes
    the smallest label among its images and preimages, then its label's
    label, until a round changes nothing, which leaves each edge
    labelled by the smallest edge of its orbit."""
    edges = np.array(a.edges, dtype=np.int64).reshape(-1, 2)
    index = np.full((a.num_rows, a.num_cols), -1, dtype=np.int64)
    index[edges[:, 0], edges[:, 1]] = np.arange(a.num_edges)
    perms = [_edge_permutation(a, g, edges, index) for g in gens]
    labels = np.arange(a.num_edges)
    while True:
        new = labels.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
            new[perm] = np.minimum(new[perm], new)
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order]))
    return np.split(order, starts + 1)


def _edge_permutation(a: BinaryMatrix, g: Symmetry, edges, index) -> np.ndarray:
    """Edge e's image under g, for every e; `index` maps a cell to its
    edge index, or to -1 at a zero."""
    if g.transpose and a.num_rows != a.num_cols:
        raise InvariantViolation("a transposing symmetry needs a square matrix")
    if (sorted(g.rows) != list(range(a.num_rows))
            or sorted(g.cols) != list(range(a.num_cols))):
        raise InvariantViolation("symmetry is not a bijection of rows and columns")
    rows, cols = np.asarray(g.rows), np.asarray(g.cols)
    er, ec = edges[:, 0], edges[:, 1]
    image = index[rows[ec], cols[er]] if g.transpose else index[rows[er], cols[ec]]
    if (image < 0).any():
        raise InvariantViolation("symmetry maps a one onto a zero")
    return image


def _map_bits(mask: int, perm) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _orbit(start: tuple[int, int], gens) -> set[tuple[int, int]]:
    """The G-orbit of a (row mask, column mask) pair."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for r, c in frontier:
            for rows, cols, flip in gens:
                d = ((_map_bits(c, rows), _map_bits(r, cols)) if flip
                     else (_map_bits(r, rows), _map_bits(c, cols)))
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return seen


def biclique_orbit(b: Biclique, gens) -> list[Biclique]:
    """Every image of `b` under G, canonically sorted."""
    return [Biclique(r, c) for r, c in sorted(_orbit((b.row_set, b.col_set), gens))]


def orbit_representatives(bicliques, gens):
    """(reps, covered): the first of `bicliques`, in input order, from
    each G-orbit, and the union of their orbits as (row mask, column
    mask) pairs."""
    covered: set[tuple[int, int]] = set()
    reps = []
    for b in bicliques:
        key = (b.row_set, b.col_set)
        if key not in covered:
            reps.append(b)
            covered |= _orbit(key, gens)
    return reps, covered
