"""Binary matrices, bicliques, and Kronecker products.

A binary matrix doubles as a bipartite graph: rows are left vertices,
columns right vertices, ones are edges.  A biclique is an all-ones
combinatorial submatrix, stored as a pair of bitsets.  Bitsets are plain
Python ints throughout (bit i of a row mask = row i), which keeps subset
tests and intersections single machine-word operations for every size we
care about.

Edges are indexed in row-major order over the ones of the matrix.  That
ordering is load bearing: LP rows, dual vectors, and checkpoint hashes
all assume it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolation,
    InvariantViolation,
    MatrixFormatError,
    SizeCapExceeded,
)

# Refuse to build matrices beyond this many cells (4096 x 4096).  Each
# edge costs ~230 bytes in `edges` and `edge_index`, so a dense matrix at
# the cap needs ~4 GB; D^7 (2187 x 2187) fits, D^8 (6561 x 6561) does not.
MAX_CELLS = 1 << 24

DEFAULT_ENUM_CAP = 100_000


def bit_indices(mask: int) -> tuple[int, ...]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def unpack_masks(masks, width: int) -> np.ndarray:
    """Bits 0..width-1 of each mask, one uint8 row per mask."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(x.to_bytes(nbytes, "little") for x in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), nbytes), axis=1,
                         count=width, bitorder="little")


def iter_submasks(mask: int):
    """Yield every nonempty submask of `mask` (order: descending as ints)."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix with precomputed edge indexing.

    Attributes:
        num_rows: row count, at least 1.
        num_cols: column count, at least 1.
        rows: per-row column bitsets; bit j of rows[i] is entry (i, j).
        edges: tuple of (row, col) pairs for every one, row-major.
        edge_index: inverse map (row, col) -> position in `edges`.
        row_offsets: position in `edges` of the first one of each row, so
            (i, j) is edge row_offsets[i] + popcount(rows[i] below bit j).
    """

    num_rows: int
    num_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.num_rows < 1 or self.num_cols < 1:
            raise ContractViolation("matrix dimensions must be positive")
        if self.num_rows * self.num_cols > MAX_CELLS:
            raise SizeCapExceeded(
                f"matrix with {self.num_rows}x{self.num_cols} cells exceeds the size cap",
                self.num_rows * self.num_cols, MAX_CELLS)
        if len(self.rows) != self.num_rows:
            raise ContractViolation("rows tuple length does not match num_rows")
        full = (1 << self.num_cols) - 1
        edges = []
        offsets = []
        for i, bits in enumerate(self.rows):
            if bits < 0 or bits & ~full:
                raise ContractViolation(f"row {i} has bits outside the column range")
            offsets.append(len(edges))
            for j in bit_indices(bits):
                edges.append((i, j))
        # Frozen dataclass: derived attributes go in through the back door.
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "edge_index", {e: k for k, e in enumerate(edges)})
        object.__setattr__(self, "row_offsets", tuple(offsets))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_dense(cls, grid) -> "BinaryMatrix":
        """Build from a list of 0/1 lists."""
        if not grid or not grid[0]:
            raise ContractViolation("dense input must be a nonempty grid")
        width = len(grid[0])
        rows = []
        for r in grid:
            if len(r) != width:
                raise ContractViolation("ragged dense input")
            bits = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise ContractViolation(f"entry {v!r} is not 0 or 1")
                bits |= v << j
            rows.append(bits)
        return cls(len(grid), width, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column_mask(self, j: int) -> int:
        """Bitset of rows that have a one in column j.  All columns are
        built in one pass over `edges` on the first call and kept."""
        return self._column_masks[j]

    @cached_property
    def _column_masks(self) -> tuple[int, ...]:
        # Not in __post_init__: most matrices (the levels below a
        # Kronecker power) never ask for a column.  Equality and hashing
        # use the fields only, so the cached masks do not enter them.
        cols = [0] * self.num_cols
        for i, j in self.edges:
            cols[j] |= 1 << i
        return tuple(cols)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.num_cols, self.num_rows, self._column_masks)


@dataclass(frozen=True, order=True)
class Biclique:
    """All-ones submatrix, as (row bitset, column bitset), both nonempty.

    The derived ordering on the two ints is the canonical order used
    everywhere ties need breaking.
    """

    row_set: int
    col_set: int

    def __post_init__(self):
        if self.row_set <= 0 or self.col_set <= 0:
            raise ContractViolation("biclique sides must be nonempty")

    def row_indices(self) -> tuple[int, ...]:
        return bit_indices(self.row_set)

    def col_indices(self) -> tuple[int, ...]:
        return bit_indices(self.col_set)

    @property
    def num_edges(self) -> int:
        return self.row_set.bit_count() * self.col_set.bit_count()

    @classmethod
    def from_indices(cls, rows, cols) -> "Biclique":
        rmask = 0
        for i in rows:
            rmask |= 1 << i
        cmask = 0
        for j in cols:
            cmask |= 1 << j
        return cls(rmask, cmask)


@dataclass(frozen=True)
class EdgeWeights:
    """Exact rational weights on the ones of a matrix, in edge-index order."""

    matrix: BinaryMatrix
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.matrix.num_edges:
            raise ContractViolation(
                f"expected {self.matrix.num_edges} weights, got {len(self.values)}")

    def at(self, i: int, j: int):
        return self.values[self.matrix.edge_index[(i, j)]]


def is_valid_biclique(a: BinaryMatrix, b: Biclique) -> bool:
    """True iff every (row, col) pair of b is a one of a.

    Raises ContractViolation when b's bitsets do not fit a's dimensions;
    out-of-range is a usage bug, not a negative answer.
    """
    if b.row_set >> a.num_rows or b.col_set >> a.num_cols:
        raise ContractViolation("biclique index ranges exceed matrix dimensions")
    for i in bit_indices(b.row_set):
        if a.rows[i] & b.col_set != b.col_set:
            return False
    return True


def incidence_column(a: BinaryMatrix, b: Biclique) -> int:
    """Edge-index bitset of the edges covered by b (b must be valid in a).

    Row i's ones are the consecutive edges from a.row_offsets[i] on, so
    a row that b covers whole is one run of ones, and otherwise column j
    sits popcount(rows[i] below bit j) edges into the row.
    """
    if not is_valid_biclique(a, b):
        raise ContractViolation("biclique is not an all-ones submatrix of the matrix")
    cols = b.col_set
    rows, offsets = a.rows, a.row_offsets
    lows = None
    bits = 0
    for i in bit_indices(b.row_set):
        r = rows[i]
        if r == cols:
            bits |= ((1 << r.bit_count()) - 1) << offsets[i]
            continue
        if lows is None:
            lows = [(1 << j) - 1 for j in bit_indices(cols)]
        local = 0
        for low in lows:
            local |= 1 << (r & low).bit_count()
        bits |= local << offsets[i]
    return bits


# ---------------------------------------------------------------------------
# Kronecker products
# ---------------------------------------------------------------------------

def kronecker(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Kronecker (tensor) product; block (i,j) of the result is a[i][j] * b.

    Row i1*b.num_rows + i2 of the product corresponds to the pair
    (i1, i2), and likewise for columns.  Edge count multiplies.
    """
    m = a.num_rows * b.num_rows
    n = a.num_cols * b.num_cols
    if m * n > MAX_CELLS:
        raise SizeCapExceeded(
            f"kronecker product would have {m}x{n} cells", m * n, MAX_CELLS)
    rows = []
    for ra in a.rows:
        shifts = bit_indices(ra)
        for rb in b.rows:
            bits = 0
            for ja in shifts:
                bits |= rb << (ja * b.num_cols)
            rows.append(bits)
    out = BinaryMatrix(m, n, tuple(rows))
    if out.num_edges != a.num_edges * b.num_edges:
        raise InvariantViolation("kronecker product lost or gained edges")
    return out


def check_power_size(a: BinaryMatrix, k: int) -> None:
    """Raise SizeCapExceeded if the k-th Kronecker power of `a` would
    exceed MAX_CELLS, without building any level of it."""
    m, n = a.num_rows ** k, a.num_cols ** k
    if m * n > MAX_CELLS:
        raise SizeCapExceeded(
            f"kronecker power would have {m}x{n} cells", m * n, MAX_CELLS)


def kronecker_power(a: BinaryMatrix, k: int) -> BinaryMatrix:
    """k-fold Kronecker power, left associated: P_k = P_{k-1} (x) a.

    A power over the size cap is refused before any level is built.
    """
    if k < 1:
        raise ContractViolation("kronecker power needs k >= 1")
    check_power_size(a, k)
    out = a
    for _ in range(k - 1):
        out = kronecker(out, a)
    return out


def kronecker_biclique(b1: Biclique, b2: Biclique, inner_shape: tuple[int, int]) -> Biclique:
    """Product biclique under the same index pairing as `kronecker`.

    `inner_shape` is (num_rows, num_cols) of the matrix b2 lives in, i.e.
    the right factor.  If b1 is a biclique of A and b2 of B, the result
    is a biclique of kronecker(A, B).
    """
    m2, n2 = inner_shape
    if m2 < 1 or n2 < 1:
        raise ContractViolation("inner shape must be positive")
    if b2.row_set >> m2 or b2.col_set >> n2:
        raise ContractViolation("inner biclique does not fit inner_shape")
    rmask = 0
    for i1 in bit_indices(b1.row_set):
        rmask |= b2.row_set << (i1 * m2)
    cmask = 0
    for j1 in bit_indices(b1.col_set):
        cmask |= b2.col_set << (j1 * n2)
    return Biclique(rmask, cmask)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def maximal_biclique_masks(a: BinaryMatrix) -> list[tuple[int, int]]:
    """All inclusion-maximal bicliques of `a`, as (row mask, col mask)
    pairs, sorted.

    A biclique (R, C) with both sides nonempty is maximal exactly when
    C is the common support of R and R is every row whose support
    contains C: the closed pairs of the Galois connection between row
    sets and column sets (the concepts of the formal context `a`).  So
    the closed column sets are the nonempty intersections of nonempty
    rows.  Such an intersection c = r1 & ... & rt is closed, since the
    rows containing c include r1..rt and meet in c again; and a closed
    C is the intersection of its own rows.

    The closure starts from the distinct nonempty rows as its frontier
    and intersects every frontier set f with every distinct row r; a
    nonempty f & r not seen before joins the next frontier, so an
    intersection of t rows is found by round t, and the closure ends at
    the first round that finds nothing new.  Every set is on the
    frontier once, and f & r == f there exactly when r contains f, so
    the same pass collects f's row mask (twin rows share one entry).

    Each step is one AND of whole row bitsets: about |maximals| x rows
    of them, at any width, and no per-bit loop.
    """
    row_bits: dict[int, int] = {}
    for i, r in enumerate(a.rows):
        if r:
            row_bits[r] = row_bits.get(r, 0) | 1 << i
    rows = row_bits.items()
    closed: dict[int, int] = {}
    frontier = list(row_bits)
    seen = set(frontier)
    while frontier:
        found = []
        for f in frontier:
            rmask = 0
            for r, bits in rows:
                g = f & r
                if g == f:
                    rmask |= bits
                elif g and g not in seen:
                    seen.add(g)
                    found.append(g)
            closed[f] = rmask
        frontier = found
    return sorted((r, c) for c, r in closed.items())


def enumerate_all_bicliques(a: BinaryMatrix, size_cap: int = DEFAULT_ENUM_CAP,
                            maximals=None) -> list[Biclique]:
    """Every biclique of `a`, canonically sorted.

    Counts first: each maximal biclique with r rows and c columns
    contributes at most (2^r - 1)(2^c - 1) sub-bicliques, and every
    biclique lies under some maximal one.  If the total bound exceeds
    `size_cap` the call refuses outright rather than truncating.
    `maximals`, when given, are a's maximal bicliques as `Biclique`s,
    which spares enumerating them again.
    """
    if maximals is None:
        maximals = maximal_biclique_masks(a)
    else:
        maximals = [(b.row_set, b.col_set) for b in maximals]
    bound = 0
    for rmask, cmask in maximals:
        bound += ((1 << rmask.bit_count()) - 1) * ((1 << cmask.bit_count()) - 1)
        if bound > size_cap:
            raise SizeCapExceeded(
                f"at least {bound} bicliques, cap is {size_cap}", bound, size_cap)
    out = set()
    for rmask, cmask in maximals:
        for sub_r in iter_submasks(rmask):
            for sub_c in iter_submasks(cmask):
                out.add((sub_r, sub_c))
    return [Biclique(r, c) for r, c in sorted(out)]


# ---------------------------------------------------------------------------
# Text format and built-ins
# ---------------------------------------------------------------------------

def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the plain text matrix format.

    One line per row, characters 0/1, optional spaces between them.
    Blank lines and lines starting with '#' are skipped.  All data rows
    must have equal width.
    """
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        compact = line.replace(" ", "").replace("\t", "")
        if set(compact) - {"0", "1"}:
            raise MatrixFormatError(f"line {lineno}: characters other than 0/1")
        if width is None:
            width = len(compact)
        elif len(compact) != width:
            raise MatrixFormatError(
                f"line {lineno}: width {len(compact)} differs from {width}")
        bits = 0
        for j, ch in enumerate(compact):
            if ch == "1":
                bits |= 1 << j
        rows.append(bits)
    if not rows:
        raise MatrixFormatError("no matrix rows found")
    return BinaryMatrix(len(rows), width, tuple(rows))


def format_matrix(a: BinaryMatrix) -> str:
    """Canonical text form; parse(format(a)) == a, byte for byte stable."""
    spec = f"0{a.num_cols}b"
    return "".join(format(bits, spec)[::-1] + "\n" for bits in a.rows)


def matrix_hash(a: BinaryMatrix) -> str:
    """sha256 hex digest of the canonical text form."""
    return hashlib.sha256(format_matrix(a).encode("ascii")).hexdigest()


def domino() -> BinaryMatrix:
    """3x3 matrix with ones everywhere except the two anti-corners."""
    return parse_matrix("110\n111\n011\n")


def crown(n: int = 5) -> BinaryMatrix:
    """n x n all-ones minus the identity (the complement of a matching)."""
    if n < 2:
        raise ContractViolation("crown needs n >= 2")
    full = (1 << n) - 1
    return BinaryMatrix(n, n, tuple(full ^ (1 << i) for i in range(n)))


BUILTIN_MATRICES = {
    "domino": domino,
    "crown5": lambda: crown(5),
}


def load_matrix(source: str) -> BinaryMatrix:
    """Resolve a built-in name or a file path to a matrix."""
    maker = BUILTIN_MATRICES.get(source)
    if maker is not None:
        return maker()
    try:
        text = Path(source).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixFormatError(f"cannot read matrix from {source!r}: {exc}") from exc
    return parse_matrix(text)
