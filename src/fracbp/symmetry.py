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

`power_generators(a, 1)` gives the symmetries of any matrix `a` this
way; `colgen.run` and branch and bound use them so.

The base automorphisms come from one search over row maps.  Rows and
columns are first refined to an equitable colouring, from their
degrees (`_refinements`).  Each node of the search carries the columns
as an ordered partition, a list of cells that are pairs of column bit
masks, one in the source and one in the image (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  A partial row map survives
only while it keeps colours and every cell holds as many ones on the
newly mapped row as on its image; a survivor splits each cell by that
row.  A dive finds a node's survivors lazily, only as far as it needs
them.  The search follows the identity path, as nauty's does (McKay,
"Practical graph isomorphism", 1981): at depth t it tries an image r
of row t only when r is outside t's orbit under the maps found so far,
all of which fix rows 0..t-1, and the first complete map below is a
new generator.  So it visits one leaf per new orbit point of the
stabiliser chain, not one per group element, and every generator lies
outside the group of those before it.  Any subgroup of the true
symmetry group would do, since its orbits are only finer, so the
search stops after a fixed number of nodes with what it has found.

The refinement also bounds the number of edge orbits from below
without any search (`edge_orbit_bounds`), which lets `colgen.run`
refuse most matrices before it looks for generators.

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

from .core import Biclique, BinaryMatrix, bit_indices, unpack_masks
from .errors import ContractViolation, InvariantViolation

# The base automorphism search visits at most this many partial row
# maps, each a node with its cells; a lazy dive counts only the nodes it
# reaches, not the siblings it never tried.  A spent budget only shrinks
# the group.  crown(10), 90 rows in branch and bound's largest case,
# takes 54.
_SEARCH_NODES = 20_000
# Branch and bound closes the group it prunes with up to this many row
# maps (`lp._BranchAndBound`); a cut only weakens the pruning.
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
    # One refinement serves both searches on a square base.
    colouring = _refine(base) if m == n else None
    gens = []
    for sigma, tau in _automorphisms(base, colouring):
        gens.append(Symmetry(
            relabel(row_digits, row_place, [ident_rows] * (k - 1) + [sigma]),
            relabel(col_digits, col_place, [ident_cols] * (k - 1) + [tau])))
    for t in range(k - 1):
        gens.append(Symmetry(_swap(row_digits, row_place, t),
                             _swap(col_digits, col_place, t)))
    flip = _transpose_map(base, colouring)
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
    """A generating set of the (row, column) automorphisms of `a`, as
    (sigma, tau) pairs with a[sigma[i]][tau[j]] == a[i][j]: one per new
    orbit point of the row maps' stabiliser chain (`_RowMaps.generators`),
    then a transposition per pair of equal columns."""
    return _automorphisms(a, None)


def _automorphisms(a: BinaryMatrix, colouring) -> list[tuple[tuple, tuple]]:
    """`base_automorphisms(a)`, given `_refine(a)` as `colouring` when a
    has no more rows than columns, or None to refine here."""
    flipped = a.num_rows > a.num_cols
    src = a.transpose() if flipped else a
    if colouring is None:
        colouring = _refine(src)
    gens = _RowMaps(src, src, colouring, colouring).generators()
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
    return _transpose_map(a, None)


def _transpose_map(a: BinaryMatrix, colouring) -> tuple[tuple, tuple] | None:
    """`transpose_map(a)`, given `_refine(a)` as `colouring`, or None
    to refine here."""
    if a.num_rows != a.num_cols:
        return None
    # A transpose carries rows onto columns, so their degrees agree.
    if (sorted(r.bit_count() for r in a.rows)
            != sorted(a.column_mask(j).bit_count() for j in range(a.num_cols))):
        return None
    src = a.transpose()
    if colouring is None:
        colouring = _refine(a)
    return _RowMaps(src, a, _refine(src), colouring).first()


def _refinements(a: BinaryMatrix):
    """Yields colourings of the rows and the columns of `a`, as (row
    colours, column colours), each finer than the last, ending at an
    equitable one: rows of one colour have equally many ones in the
    columns of each colour, and so do columns of one colour in the rows
    of each colour.  The first colours are the degrees; each round then
    splits every class by its members' neighbours' colours, until no
    class splits.  A round names its colours by rank among the sorted
    distinct (colour, neighbours' colours) keys, so no colouring
    depends on the order of rows and columns: every automorphism keeps
    each row's and each column's colour, and an isomorphism maps each
    row and column to one of the same colour in the other matrix."""
    rows = [r.bit_count() for r in a.rows]
    cols = [0] * a.num_cols
    for _, j in a.edges:
        cols[j] += 1
    yield rows, cols
    row_nbrs: list[list[int]] = [[] for _ in range(a.num_rows)]
    col_nbrs: list[list[int]] = [[] for _ in range(a.num_cols)]
    for i, j in a.edges:
        row_nbrs[i].append(j)
        col_nbrs[j].append(i)
    counts = (len(set(rows)), len(set(cols)))
    while counts != (a.num_rows, a.num_cols):
        rows, split_rows = _recolour(rows, row_nbrs, cols)
        cols, split_cols = _recolour(cols, col_nbrs, rows)
        if (split_rows, split_cols) == counts:
            return
        counts = split_rows, split_cols
        yield rows, cols


def _refine(a: BinaryMatrix) -> tuple[list[int], list[int]]:
    """The equitable colouring that `_refinements` ends at."""
    for colouring in _refinements(a):
        pass
    return colouring


def _recolour(own, nbrs, other):
    """(colours, how many): each element keyed by its colour in `own`
    and the sorted colours in `other` of its neighbours `nbrs`, and
    named by its key's rank."""
    keys = [(c, tuple(sorted([other[y] for y in ys]))) for c, ys in zip(own, nbrs)]
    names = {key: t for t, key in enumerate(sorted(set(keys)))}
    return [names[key] for key in keys], len(names)


def edge_orbit_bounds(a: BinaryMatrix):
    """Yields lower bounds on the number of edge orbits of the group
    that `power_generators(a, 1)` generates, one per colouring of
    `_refinements`, never falling.  Row and column automorphisms keep
    both colours, so each of their edge orbits lies in one class of
    ones of equal (row colour, column colour).  A transpose can join
    two classes, and there is one only when the rows' degrees are the
    columns' up to order; then half the classes, rounded up, is the
    bound."""
    transposable = None
    for rows, cols in _refinements(a):
        if transposable is None:
            # The first colours are the degrees.
            transposable = sorted(rows) == sorted(cols)
        classes = len({(rows[i], cols[j]) for i, j in a.edges})
        yield (classes + 1) // 2 if transposable else classes


class _RowMaps:
    """Depth-first search over the row maps sigma from `src` to `dst`,
    of one shape, for which some tau has dst[sigma[i]][tau[j]] ==
    src[i][j], given the colourings `_refine` gives each.

    A node maps rows 0..t-1 and carries the columns as an ordered
    partition: a list of cells (src_mask, dst_mask), bit masks of
    columns of equal colour whose bits on rows 0..t-1 of src agree, and
    agree with those of the dst columns on their images.  The root has
    one cell per column colour and exists only when the colours are
    equally common in src and dst.  Its children map row t onto each
    unused row r of dst of t's colour, in ascending order, and a child
    survives only when every cell holds as many ones on r in dst as on
    t in src; it keeps the nonempty halves of each cell.  So a child
    survives exactly when the columns of src on rows 0..t and those of
    dst on their images agree as multisets of (colour, bits), and a map
    that extends to an isomorphism keeps colours and carries columns
    onto columns, so none is pruned.  A leaf, all m rows mapped, has
    its tau in its cells: each cell's src columns go onto its dst
    columns in ascending order, so equal columns pair in index order.

    Dives are lazy: the stack holds child iterators, so a node's
    survivors are found only as far as the dive needs them.  All
    searches on one instance share a budget of _SEARCH_NODES visited
    nodes; once it is spent they find nothing more.
    """

    def __init__(self, src: BinaryMatrix, dst: BinaryMatrix, src_colouring, dst_colouring):
        (src_rows, src_cols), (dst_rows, dst_cols) = src_colouring, dst_colouring
        self.m, self.n = src.num_rows, src.num_cols
        self.src, self.dst = src.rows, dst.rows
        self.src_rows = src_rows
        self.candidates: dict[int, list[int]] = {}
        for r, c in enumerate(dst_rows):
            self.candidates.setdefault(c, []).append(r)
        cells: dict[int, list[int]] = {}
        for j, c in enumerate(src_cols):
            cells.setdefault(c, [0, 0])[0] |= 1 << j
        for j, c in enumerate(dst_cols):
            cells.setdefault(c, [0, 0])[1] |= 1 << j
        self.root = None
        if all(s.bit_count() == d.bit_count() for s, d in cells.values()):
            self.root = ((), 0, list(map(tuple, cells.values())))
        self.budget = _SEARCH_NODES

    def children(self, node, skip=None):
        """The surviving children of `node`, lazily, by ascending image.
        An image r for which `skip(r)` holds is passed over before its
        cells are counted or split."""
        sigma, used, cells = node
        t = len(sigma)
        row = self.src[t]
        want = [(s & row).bit_count() for s, _ in cells]
        for r in self.candidates.get(self.src_rows[t], ()):
            if (used >> r) & 1 or (skip is not None and skip(r)):
                continue
            image = self.dst[r]
            for (_, d), w in zip(cells, want):
                if (d & image).bit_count() != w:
                    break
            else:
                yield sigma + (r,), used | 1 << r, _split(cells, row, image)

    def first(self, start=None):
        """The first leaf at or below the node `start` (the root when
        None) in lexicographic order, as (sigma, tau), or None when
        there is none or the budget is spent."""
        node, stack = start or self.root, []
        while node is not None and self.budget > 0:
            self.budget -= 1
            if len(node[0]) == self.m:
                return node[0], _pair_cells(node[2], self.n)
            stack.append(self.children(node))
            node = None
            while stack and node is None:
                node = next(stack[-1], None)
                if node is None:
                    stack.pop()
        return None

    def generators(self) -> list:
        """(sigma, tau) pairs whose row maps generate every
        automorphism's row map, when src is dst.

        The search follows the identity path, from its deepest node up.
        At depth t every map found so far fixes rows 0..t-1, and row t
        is sent to each candidate r outside t's orbit under those maps;
        the first leaf below the child, if any, is a new generator, and
        t's orbit grows by it.  Once depth t is done, the maps found
        generate the stabiliser of rows 0..t-1 (Schreier-Sims: its
        orbit of t is complete and the stabiliser of rows 0..t is
        generated already), so depth 0 ends with the whole group.  The
        search visits one leaf per new orbit point, not one per group
        element, and a spent budget leaves a subgroup."""
        m = self.m
        orbit = list(range(m))  # union-find over rows, by orbit

        def find(x):
            while orbit[x] != x:
                orbit[x] = x = orbit[orbit[x]]
            return x

        # The identity path's cells at each depth.
        path = [self.root[2]]
        for t in range(m - 1):
            path.append(_split(path[-1], self.src[t], self.src[t]))
        gens = []
        for t in reversed(range(m)):
            node = (tuple(range(t)), (1 << t) - 1, path[t])
            for child in self.children(node, lambda r: find(r) == find(t)):
                leaf = self.first(child)
                if leaf is None:
                    if self.budget <= 0:
                        return gens
                    continue
                gens.append(leaf)
                for i, g in enumerate(leaf[0]):
                    orbit[find(i)] = find(g)
        return gens


def _split(cells, row: int, image: int) -> list:
    """Each cell split into its columns on `row` in src and on `image`
    in dst, and the rest; only nonempty halves are kept, so a cell that
    does not split stays whole."""
    out = []
    for s, d in cells:
        ones = s & row
        if ones and ones != s:
            out.append((ones, d & image))
            out.append((s ^ ones, d & ~image))
        else:
            out.append((s, d))
    return out


def _pair_cells(cells, n: int) -> tuple[int, ...]:
    """tau sending each cell's src columns onto its dst columns, in
    ascending order."""
    tau = [0] * n
    for s, d in cells:
        for j, j2 in zip(bit_indices(s), bit_indices(d)):
            tau[j] = j2
    return tuple(tau)


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
    edges = a.edge_array
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
