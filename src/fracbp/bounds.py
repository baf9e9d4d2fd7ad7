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

from .core import BinaryMatrix, Biclique, bit_indices, enumerate_all_bicliques
from .errors import ContractViolation, InvariantViolation, SizeCapExceeded
from .lp import COVER, PARTITION, build_master, solve, solve_integer
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


def fooling_set_number(a: BinaryMatrix, cap: int = FOOLING_CAP) -> int:
    return len(fooling_set(a, cap))


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
    hurts a covering solution."""
    maximals = enumerate_maximal(a)
    sol = solve(build_master(a, maximals, COVER))
    if sol.status != "optimal":
        raise InvariantViolation("cover LP must be feasible")
    return sol.objective


def integer_partition_number(
    a: BinaryMatrix, enum_cap: int = 100_000, node_cap: int = 100_000
) -> tuple[int, list[Biclique], int]:
    """Exact bp: minimum number of bicliques partitioning the ones.

    Enumerates every biclique (partitions may need non-maximal parts)
    and runs branch and bound.  Returns (value, parts, nodes explored).
    """
    bicliques = enumerate_all_bicliques(a, enum_cap)
    result = solve_integer(build_master(a, bicliques, PARTITION), node_cap)
    chosen = [b for b, take in zip(bicliques, result.selection) if take]
    return result.objective, chosen, result.nodes


def integer_cover_number(
    a: BinaryMatrix, node_cap: int = 100_000
) -> tuple[int, list[Biclique], int]:
    """Exact bc over maximal bicliques (maximality is free for covers)."""
    maximals = enumerate_maximal(a)
    result = solve_integer(build_master(a, maximals, COVER), node_cap)
    chosen = [b for b, take in zip(maximals, result.selection) if take]
    return result.objective, chosen, result.nodes


# ---------------------------------------------------------------------------
# Power lower bounds
# ---------------------------------------------------------------------------

def _to_decimal(value) -> Decimal:
    return Decimal(int(value.numerator)) / Decimal(int(value.denominator))


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
    fooling_cap: int = FOOLING_CAP,
) -> SandwichReport:
    """Bracket the asymptotic k-th root of the power partition optima.

    Args:
        a: base matrix.
        upper_values: exact bp_f values of Kronecker powers, keyed by k.
            Key 1 is used as bp_f(a) when present, otherwise bp_f(a) is
            computed here from the full biclique LP.
        kmax: last k to tabulate; defaults to the largest key (at least 1).
        fooling_cap: passed through to the fooling set search.

    Returns:
        SandwichReport with one row per k: the per-k lower bound root,
        the k-th root of the supplied upper value (when present), and
        the running minimum upper root.  The final interval is
        [cover_value, min upper root rounded up at six decimals].

    Any violation of fooling <= cover <= upper roots raises
    InvariantViolation: the chain is a theorem, so a violation means a
    value is wrong.
    """
    uppers = dict(upper_values)
    if kmax is None:
        kmax = max(uppers) if uppers else 1
    if kmax < 1:
        raise ContractViolation("kmax must be at least 1")
    fooling = fooling_set_number(a, fooling_cap)
    cover_value = fractional_cover_number(a)
    if 1 in uppers:
        partition_value = uppers[1]
    else:
        sol = solve(build_master(a, enumerate_all_bicliques(a), PARTITION))
        partition_value = sol.objective
        uppers[1] = partition_value

    if fooling > cover_value:
        raise InvariantViolation("fooling set exceeds the fractional cover value")
    if cover_value > partition_value:
        raise InvariantViolation("cover value exceeds the partition value")

    rows = []
    best_root = None
    for k in range(1, kmax + 1):
        bound = power_root_lower_bound(partition_value, cover_value, k)
        upper_value = uppers.get(k)
        upper_root = None
        if upper_value is not None:
            # Exact comparisons first: cover^k and the unrooted lemma
            # product must sit below the computed power value.
            if cover_value ** k > upper_value:
                raise InvariantViolation(
                    f"cover value to the {k} exceeds the k={k} upper value")
            if bound.unrooted > upper_value:
                raise InvariantViolation(
                    f"power lower bound exceeds the k={k} upper value")
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
