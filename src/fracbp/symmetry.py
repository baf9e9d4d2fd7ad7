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

Orbits are found by labelling, never by walking one element at a time.
Each generator becomes a permutation of the things it moves, and every
element is labelled by the smallest element of its orbit
(`_min_labels`).  On edges the permutations come straight from the
maps.  On bicliques, each biclique is one uint8 bit row, its row bits
then its column bits, and the generators are one table of gathers
(`gather_table`; a transpose swaps the two halves).  `orbit_closure`
closes a set of bicliques under G breadth first: a level is one gather
of the new bit rows under every generator at once and one pass over
their packed keys, so the Python work is per image, not per bit.
Nothing here is trusted for an answer: `edge_permutations` refuses a
map that sends a one to a zero, the orbit master checks that the orbits
of its representatives cover every maximal biclique, and branch and
bound (`lp.solve_integer`, which takes the edge maps of the base's own
generators) checks that every map sends each column onto a column.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import Biclique, BinaryMatrix, unpack_masks
from .errors import ContractViolation, InvariantViolation

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
    # The row maps found, thinned greedily: keep one only if the ones
    # kept so far do not generate it.
    gens = []
    closure = {tuple(range(src.num_rows))}
    for sigma, sig in _isomorphisms(src, src):
        if sigma in closure or len(closure) >= _CLOSURE_CAP:
            continue
        gens.append((sigma, _pair_columns(src, sig)))
        _grow(closure, [g for g, _ in gens])
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
    src = a.transpose()
    found = next(_isomorphisms(src, a), None)
    if found is None:
        return None
    sigma, sig = found
    return sigma, _pair_columns(src, sig)


def _isomorphisms(src: BinaryMatrix, dst: BinaryMatrix):
    """Yields each row map sigma for which some tau has
    dst[sigma[i]][tau[j]] == src[i][j], in lexicographic order, with the
    column signatures of dst on the rows sigma hits (`_pair_columns`
    turns them into tau).  Depth first search: a partial row map
    survives only while the columns of src, read on the rows mapped so
    far, and the columns of dst, read on their images, agree as
    multisets.  Stops after _SEARCH_NODES nodes."""
    m, n = src.num_rows, src.num_cols
    src_cols = [src.column_mask(j) for j in range(n)]
    # src's sorted column signatures on rows 0..t, for each t.
    src_sigs = [sorted(c & ((1 << (t + 1)) - 1) for c in src_cols) for t in range(m)]
    src_degree = [r.bit_count() for r in src.rows]
    degree = [r.bit_count() for r in dst.rows]
    # Partial maps to visit as (sigma, rows used, dst's signatures),
    # the next one last.
    stack = [((), 0, [0] * n)]
    for _ in range(_SEARCH_NODES):
        if not stack:
            return
        sigma, used, dst_sig = stack.pop()
        t = len(sigma)
        if t == m:
            yield sigma, dst_sig
            continue
        src_sig, need = src_sigs[t], src_degree[t]
        children = []
        for r in range(m):
            if (used >> r) & 1 or degree[r] != need:
                continue
            row = dst.rows[r]
            sig = [s | (((row >> j) & 1) << t) for j, s in enumerate(dst_sig)]
            if sorted(sig) == src_sig:
                children.append((sigma + (r,), used | (1 << r), sig))
        stack.extend(reversed(children))


def _pair_columns(src: BinaryMatrix, dst_sig) -> tuple[int, ...]:
    """tau sending each src column to the dst column of equal
    signature, equal columns paired in index order."""
    src_cols = [src.column_mask(j) for j in range(src.num_cols)]
    free: dict[int, list[int]] = {}
    for j in reversed(range(len(dst_sig))):
        free.setdefault(dst_sig[j], []).append(j)
    return tuple(free[c].pop() for c in src_cols)


def _grow(closure: set, gens) -> None:
    """Extend `closure`, the row maps that all but the last of `gens`
    generate, to those all of them generate.  Only the last generator
    needs applying to the maps already there, and every generator to
    each new one.  Stops between rounds once `closure` holds
    _CLOSURE_CAP maps."""
    frontier = list(closure)
    apply = gens[-1:]
    while frontier and len(closure) < _CLOSURE_CAP:
        nxt = []
        for h in frontier:
            for g in apply:
                gh = tuple(map(g.__getitem__, h))
                if gh not in closure:
                    closure.add(gh)
                    nxt.append(gh)
        frontier = nxt
        apply = gens


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

def edge_orbits(a: BinaryMatrix, gens) -> list[np.ndarray]:
    """The orbits of G on the ones of `a`, as ascending edge-index
    arrays ordered by their smallest edge.

    Each generator is first turned into a permutation of the edges
    (`edge_permutations`, which refuses a map that is no symmetry), and
    `_min_labels` labels every edge by the smallest edge of its orbit."""
    labels = _min_labels(a.num_edges, edge_permutations(a, gens))
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order]))
    return np.split(order, starts + 1)


def _min_labels(size: int, perms) -> np.ndarray:
    """Each of 0 .. size-1 labelled by the smallest element of its
    orbit under the permutations `perms`: the orbits are the components
    of their maps, so every element takes the smallest label among its
    images and preimages, then its label's label, until a round changes
    nothing."""
    labels = np.arange(size)
    while True:
        new = labels.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
            new[perm] = np.minimum(new[perm], new)
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def edge_permutations(a: BinaryMatrix, gens) -> list[np.ndarray]:
    """Each generator as a permutation of the edges of `a`, in a's
    edge-index order (the row order of `lp.build_master`); one that is
    no bijection of the rows and of the columns, or that sends some one
    to a zero, raises InvariantViolation."""
    edges = np.array(a.edges, dtype=np.int64).reshape(-1, 2)
    index = np.full((a.num_rows, a.num_cols), -1, dtype=np.int64)
    index[edges[:, 0], edges[:, 1]] = np.arange(a.num_edges)
    return [_edge_permutation(a, g, edges, index) for g in gens]


def _edge_permutation(a: BinaryMatrix, g: Symmetry, edges, index) -> np.ndarray:
    """Edge e's image under g, for every e; `index` maps a cell to its
    edge index, or to -1 at a zero."""
    _check_bijection(g, a.num_rows, a.num_cols)
    rows, cols = np.asarray(g.rows), np.asarray(g.cols)
    er, ec = edges[:, 0], edges[:, 1]
    image = index[rows[ec], cols[er]] if g.transpose else index[rows[er], cols[ec]]
    if (image < 0).any():
        raise InvariantViolation("symmetry maps a one onto a zero")
    return image


def _check_bijection(g: Symmetry, num_rows: int, num_cols: int) -> None:
    """Raise InvariantViolation unless g permutes the rows and the
    columns of a num_rows x num_cols matrix."""
    if g.transpose and num_rows != num_cols:
        raise InvariantViolation("a transposing symmetry needs a square matrix")
    if (sorted(g.rows) != list(range(num_rows))
            or sorted(g.cols) != list(range(num_cols))):
        raise InvariantViolation("symmetry is not a bijection of rows and columns")


class GatherTable(NamedTuple):
    """The generators as gathers on biclique bit rows.  A biclique's bit
    row is the bits of row_set | col_set << num_rows: its row bits, then
    its column bits.  Generator t maps bit row x onto x[index[t]]."""

    index: np.ndarray
    num_rows: int


def gather_table(gens, num_rows: int, num_cols: int) -> GatherTable:
    """The GatherTable of `gens` on a num_rows x num_cols matrix.  A map
    that is no bijection of the rows and of the columns, or a transpose
    of a non-square matrix, raises InvariantViolation."""
    m, n = num_rows, num_cols
    row_bits, col_bits = np.arange(m), np.arange(m, m + n)
    index = np.empty((len(gens), m + n), dtype=np.intp)
    for t, g in enumerate(gens):
        _check_bijection(g, m, n)
        # Bit rows[i] of an image is bit i of its source, which a
        # transpose reads on the other side.
        index[t, np.asarray(g.rows)] = col_bits if g.transpose else row_bits
        index[t, m + np.asarray(g.cols)] = row_bits if g.transpose else col_bits
    return GatherTable(index, m)


# One closure step gathers at most this many bytes of images at once.
_GATHER_BYTES = 1 << 20


def orbit_closure(seeds, table: GatherTable):
    """The union V of the G-orbits of the bicliques with keys `seeds`
    (row_set | col_set << num_rows, distinct), as (keys, bits, labels):
    V's keys, the seeds first and in order, then the images in the
    order found; their bit rows; and each one's label, the position in
    V of the first biclique of its orbit.

    A breadth-first search: each level gathers the bit rows of the
    previous level's new bicliques under every generator at once, and
    one pass over the images' packed keys keeps those not seen yet.
    Every generator then permutes V, and `_min_labels` finds the orbits
    from those permutations."""
    index = table.index
    width = index.shape[1]
    nbytes = (width + 7) // 8
    keys = list(seeds)
    seen = {k.to_bytes(nbytes, "little"): t for t, k in enumerate(keys)}
    frontier = unpack_masks(keys, width)
    levels = [frontier]
    images = []
    block = max(1, _GATHER_BYTES // max(1, index.size))
    while len(frontier):
        new_rows = []
        for lo in range(0, len(frontier), block):
            gathered = frontier[lo:lo + block, index].reshape(-1, width)
            packed = np.packbits(gathered, axis=1, bitorder="little").tobytes()
            found = [packed[at:at + nbytes] for at in range(0, len(packed), nbytes)]
            ids = list(map(seen.get, found, repeat(-1)))
            fresh = []
            for at in [at for at, t in enumerate(ids) if t < 0]:
                key = found[at]
                t = seen.get(key)
                if t is None:
                    t = seen[key] = len(keys)
                    keys.append(int.from_bytes(key, "little"))
                    fresh.append(at)
                ids[at] = t
            images.extend(ids)
            new_rows.append(gathered[fresh])
        frontier = np.concatenate(new_rows)
        levels.append(frontier)
    perms = np.array(images, dtype=np.intp).reshape(len(keys), len(index)).T
    return keys, np.concatenate(levels), _min_labels(len(keys), perms)


def _gather_table_of(gens, bicliques) -> GatherTable:
    """`gens` when it is a GatherTable already, else theirs, on the
    shape the generators permute (with none, the smallest that holds
    `bicliques`).  A biclique outside that shape raises
    ContractViolation."""
    if isinstance(gens, GatherTable):
        table = gens
    else:
        if gens:
            g = gens[0]
            m, n = (len(g.cols), len(g.rows)) if g.transpose else (len(g.rows), len(g.cols))
        else:
            m = max((b.row_set.bit_length() for b in bicliques), default=1)
            n = max((b.col_set.bit_length() for b in bicliques), default=1)
        table = gather_table(gens, m, n)
    m = table.num_rows
    n = table.index.shape[1] - m
    if any(b.row_set >> m or b.col_set >> n for b in bicliques):
        raise ContractViolation("biclique lies outside the generators' matrix")
    return table


def biclique_orbit(b: Biclique, gens) -> list[Biclique]:
    """Every image of `b` under G, canonically sorted.  `gens` are the
    generators or their `gather_table`."""
    table = _gather_table_of(gens, [b])
    m = table.num_rows
    keys, _, _ = orbit_closure([b.row_set | b.col_set << m], table)
    low = (1 << m) - 1
    return sorted(Biclique(k & low, k >> m) for k in keys)


def orbit_representatives(bicliques, gens):
    """(reps, covered): the first of `bicliques`, in input order, from
    each G-orbit, and the union of their orbits as (row mask, column
    mask) pairs.  `gens` are the generators or their `gather_table`.
    One `orbit_closure` of all the bicliques finds both."""
    bicliques = list(bicliques)
    table = _gather_table_of(gens, bicliques)
    m = table.num_rows
    first: dict[int, Biclique] = {}
    for b in bicliques:
        first.setdefault(b.row_set | b.col_set << m, b)
    keys, _, labels = orbit_closure(list(first), table)
    seeds = list(first.values())
    reps = [seeds[t] for t, label in enumerate(labels[:len(seeds)].tolist())
            if label == t]
    low = (1 << m) - 1
    return reps, {(k & low, k >> m) for k in keys}
