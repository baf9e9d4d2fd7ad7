"""Lower bounds, integer variants, and the asymptotic sandwich report.

The quantities here bracket the limit of bp_f(A^(x)k)^(1/k):

    fooling(A) <= bc_f(A) <= limit <= bp_f(A^(x)k)^(1/k)  for every k,

where bc_f is the fractional cover optimum and bp_f the fractional
partition optimum.  Each k also yields the lower bound
bc_f(A) * (bp_f(A)/bc_f(A))^(1/k) on the k-th root of bp_f(A^(x)k),
which decreases to bc_f(A).  All rational quantities are exact; roots
are evaluated in 50-digit decimal arithmetic, and chain comparisons are
done on rationals (k-th powers) so no rounding can flip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, localcontext

from ._rational import ZERO
from .colgen import ColGenConfig, initial_stars, run
from .core import BinaryMatrix, Biclique, bit_indices, enumerate_all_bicliques
from .errors import (
    ContractViolation,
    EmptyGraphError,
    InvariantViolation,
    SizeCapExceeded,
)
from .lp import COVER, NODE_CAP, PARTITION, build_master, solve, solve_integer
from .maximal import enumerate_maximal

ROOT_PRECISION = 50
FOOLING_CAP = 128


# ---------------------------------------------------------------------------
# Fooling sets
# ---------------------------------------------------------------------------

def fooling_set(a: BinaryMatrix, cap: int = FOOLING_CAP) -> list[tuple[int, int]]:
    """A maximum fooling set: ones no two of which share a row or column
    or close a rectangle of ones (both cross entries set).

    Exact maximum clique search on the compatibility graph of the ones;
    refuses when the matrix has more than `cap` ones.
    """
    ones = a.edges
    n = len(ones)
    if n > cap:
        raise SizeCapExceeded(
            f"{n} ones exceed the fooling set search cap", n, cap)
    if n == 0:
        return []
    adj = [0] * n
    for p in range(n):
        i, j = ones[p]
        for q in range(p + 1, n):
            i2, j2 = ones[q]
            if i == i2 or j == j2:
                continue
            if a.entry(i, j2) and a.entry(i2, j):
                continue
            adj[p] |= 1 << q
            adj[q] |= 1 << p
    best_mask = _max_clique(adj)
    return [ones[p] for p in bit_indices(best_mask)]


def fooling_set_number(a: BinaryMatrix) -> int:
    return len(fooling_set(a))


def _max_clique(adj: list[int]) -> int:
    """Max clique over an adjacency bitset list; returns the vertex mask."""
    n = len(adj)
    best = {"size": 0, "mask": 0}

    def expand(cand: int, size: int, mask: int):
        if not cand:
            if size > best["size"]:
                best["size"] = size
                best["mask"] = mask
            return
        while cand:
            if size + cand.bit_count() <= best["size"]:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], size + 1, mask | low)

    expand((1 << n) - 1, 0, 0)
    return best["mask"]


# ---------------------------------------------------------------------------
# Fractional and integer optima
# ---------------------------------------------------------------------------

def fractional_cover_number(a: BinaryMatrix):
    """Exact bc_f: minimum total weight on bicliques covering each edge
    at least once.  Maximal bicliques suffice; growing a biclique never
    hurts a covering solution.  Maximal bicliques cover every edge, so
    the LP always starts from a minimal cover of them and never needs
    phase 1."""
    maximals = enumerate_maximal(a)
    sol = solve(build_master(a, maximals, COVER))
    if sol.status != "optimal":
        raise InvariantViolation("cover LP must be feasible")
    return sol.objective


def integer_partition_number(
    a: BinaryMatrix, node_cap: int = NODE_CAP
) -> tuple[int, list[Biclique], int]:
    """Exact bp: minimum number of bicliques partitioning the ones.

    Enumerates every biclique (partitions may need non-maximal parts).
    The search starts from the stars (`_stars`).  Returns (value, parts,
    nodes explored); see `_integer_number`.
    """
    return _integer_number(a, PARTITION, node_cap)


def integer_cover_number(
    a: BinaryMatrix, node_cap: int = NODE_CAP
) -> tuple[int, list[Biclique], int]:
    """Exact bc over maximal bicliques (maximality is free for covers).
    The search starts from the maximal closures of the stars
    (`_closed_stars`).  Returns (value, parts, nodes explored); see
    `_integer_number`."""
    return _integer_number(a, COVER, node_cap)


def _integer_number(a: BinaryMatrix, sense: str,
                    node_cap: int) -> tuple[int, list[Biclique], int]:
    """Branch and bound over the bicliques of a (every one for a
    partition, the maximal ones for a cover), which may prune with a's
    symmetries.  The starting incumbent is checked edge by edge by
    `solve_integer`, so a root whose LP bound's ceiling is its size
    closes at once.  Raises EmptyGraphError when a has no ones."""
    if a.num_edges == 0:
        raise EmptyGraphError("matrix has no ones")
    if sense == PARTITION:
        pool, start = enumerate_all_bicliques(a), _stars(a)
    else:
        pool, start = enumerate_maximal(a), _closed_stars(a)
    result = solve_integer(build_master(a, pool, sense), node_cap,
                           lambda: edge_symmetries(a), _ids(pool, start))
    chosen = [b for b, take in zip(pool, result.selection) if take]
    return result.objective, chosen, result.nodes


def _stars(a: BinaryMatrix) -> list[Biclique]:
    """The row stars (one biclique per nonempty row) or the column
    stars, whichever are fewer, the rows on a tie.  Either partitions
    the ones, so bc(a) <= bp(a) <= their count."""
    rows = initial_stars(a)
    cols = [Biclique(mask, 1 << j) for j in range(a.num_cols)
            if (mask := a.column_mask(j))]
    return rows if len(rows) <= len(cols) else cols


def _closed_stars(a: BinaryMatrix) -> list[Biclique]:
    """The maximal bicliques that contain the row stars, or those that
    contain the column stars, whichever are fewer, the rows on a tie;
    sorted.  Either covers the ones.  A row's star closes to (every row
    whose support contains the row's, the row's support), a column's to
    (the column's support, the intersection of those rows)."""
    rows = {Biclique(_rows_containing(a, bits), bits) for bits in a.rows if bits}
    cols = set()
    for j in range(a.num_cols):
        mask = a.column_mask(j)
        if mask:
            common = -1
            for i in bit_indices(mask):
                common &= a.rows[i]
            cols.add(Biclique(mask, common))
    return sorted(rows if len(rows) <= len(cols) else cols)


def _rows_containing(a: BinaryMatrix, bits: int) -> int:
    """The row set whose supports contain the column set `bits`."""
    return sum(1 << i for i, r in enumerate(a.rows) if r & bits == bits)


def _ids(bicliques: list[Biclique], chosen) -> list[int]:
    """The positions in `bicliques` of the bicliques `chosen`."""
    index = {b: k for k, b in enumerate(bicliques)}
    return [index[b] for b in chosen]


def edge_symmetries(a: BinaryMatrix) -> list:
    """Generators of a's symmetries (row and column automorphisms, and
    the transpose when a equals its own transpose up to permutations),
    each as a permutation of a's edges: a row map of the integer LPs
    above, which sends every biclique's column onto another's."""
    # Imported here: `fracbp.cli` loads this module, and the symmetry
    # search is only needed once a branch and bound asks for it.
    from .symmetry import edge_permutations, power_generators

    return edge_permutations(a, power_generators(a, 1))


# ---------------------------------------------------------------------------
# Power lower bounds
# ---------------------------------------------------------------------------

def _to_decimal(value) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def decimal_root(value, k: int) -> Decimal:
    """k-th root of a positive rational at 50 significant digits."""
    if value <= 0:
        raise ContractViolation("root of a nonpositive value")
    with localcontext() as ctx:
        ctx.prec = ROOT_PRECISION
        d = _to_decimal(value)
        if k == 1:
            return +d
        return d ** (Decimal(1) / Decimal(k))


@dataclass(frozen=True)
class RootBound:
    k: int
    root: Decimal
    unrooted: object


def power_root_lower_bound(partition_value, cover_value, k: int) -> RootBound:
    """Lower bound on the k-th root of the power's partition optimum.

    The partition optimum of the k-th Kronecker power is at least
    partition_value * cover_value^(k-1); `root` is the k-th root of that
    product, written as cover_value * (partition_value/cover_value)^(1/k).
    """
    if k < 1:
        raise ContractViolation("k must be at least 1")
    if cover_value <= 0 or partition_value < cover_value:
        raise ContractViolation(
            "need 0 < cover_value <= partition_value for the power bound")
    unrooted = partition_value * cover_value ** (k - 1)
    with localcontext() as ctx:
        ctx.prec = ROOT_PRECISION
        bc = _to_decimal(cover_value)
        ratio = _to_decimal(partition_value) / bc
        root = bc * ratio ** (Decimal(1) / Decimal(k)) if k > 1 else bc * ratio
    return RootBound(k, root, unrooted)


def product_lower_bound(cover_a, partition_b, partition_a, cover_b):
    """max(cover_a * partition_b, partition_a * cover_b): a lower bound
    on the partition optimum of the Kronecker product of the two."""
    left = cover_a * partition_b
    right = partition_a * cover_b
    return left if left >= right else right


# ---------------------------------------------------------------------------
# Sandwich report
# ---------------------------------------------------------------------------

def quantize6(d: Decimal, ceiling: bool = False) -> Decimal:
    return d.quantize(
        Decimal("1.000000"), rounding=ROUND_CEILING if ceiling else ROUND_HALF_EVEN)


@dataclass(frozen=True)
class SandwichRow:
    k: int
    lower_root: Decimal
    upper_value: object
    upper_root: Decimal | None
    best_upper_root: Decimal


@dataclass(frozen=True)
class SandwichReport:
    fooling: int
    cover_value: object
    partition_value: object
    rows: tuple
    interval_lower: object
    interval_upper: Decimal


def sandwich_report(
    a: BinaryMatrix,
    upper_values: dict[int, object],
    kmax: int | None = None,
) -> SandwichReport:
    """Bracket the asymptotic k-th root of the power partition optima.

    Args:
        a: base matrix.
        upper_values: exact bp_f values of Kronecker powers, keyed by k.
            Key 1 is used as bp_f(a) when present, otherwise bp_f(a) is
            computed here by column generation (`colgen.run`) run until
            its pricing maximum is at most one, where its value is exact.
        kmax: last k to tabulate; defaults to the largest key (at least 1).

    Returns:
        SandwichReport with one row per k: the per-k lower bound root,
        the k-th root of the supplied upper value (when present), and
        the running minimum upper root.  The final interval is
        [cover_value, min upper root rounded up at six decimals].

    The chain fooling <= cover <= upper roots is a theorem.  A supplied
    upper value that breaks it, or one keyed below 1 or not positive,
    raises ContractViolation naming its k; a break among the values
    computed here raises InvariantViolation, since one of them is wrong.
    """
    uppers = dict(upper_values)
    for k, value in uppers.items():
        if k < 1:
            raise ContractViolation(f"upper value keyed k={k}: k must be at least 1")
        if value <= 0:
            raise ContractViolation(f"the k={k} upper value {value} is not positive")
    if kmax is None:
        kmax = max(uppers) if uppers else 1
    if kmax < 1:
        raise ContractViolation("kmax must be at least 1")
    fooling = fooling_set_number(a)
    cover_value = fractional_cover_number(a)
    if fooling > cover_value:
        raise InvariantViolation("fooling set exceeds the fractional cover value")
    if 1 not in uppers:
        report = run(a, ColGenConfig(epsilon=ZERO))
        if not report.converged:
            raise InvariantViolation("column generation did not reach bp_f of the base")
        if cover_value > report.value:
            raise InvariantViolation("cover value exceeds the partition value")
        uppers[1] = report.value
    partition_value = uppers[1]
    # Exact comparisons, k = 1 first: cover^k and the unrooted lemma
    # product (`power_root_lower_bound`, whose root is not needed here)
    # must sit below each supplied power value.
    for k, value in sorted(upper_values.items()):
        if cover_value ** k > value:
            raise ContractViolation(
                f"the k={k} upper value {value} is below the cover value to the {k}")
        if partition_value * cover_value ** (k - 1) > value:
            raise ContractViolation(
                f"the k={k} upper value {value} is below the power lower bound")

    rows = []
    best_root = None
    for k in range(1, kmax + 1):
        bound = power_root_lower_bound(partition_value, cover_value, k)
        upper_value = uppers.get(k)
        upper_root = None
        if upper_value is not None:
            upper_root = decimal_root(upper_value, k)
            if best_root is None or upper_root < best_root:
                best_root = upper_root
        # k=1 always carries an upper value, so best_root is set here.
        rows.append(SandwichRow(k, bound.root, upper_value, upper_root, best_root))
    return SandwichReport(
        fooling=fooling,
        cover_value=cover_value,
        partition_value=partition_value,
        rows=tuple(rows),
        interval_lower=cover_value,
        interval_upper=quantize6(best_root, ceiling=True),
    )
