"""Combinatorial bounds and the root-interval report."""

import time
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

import fracbp.bounds as bounds
import fracbp.lp as lp
from fracbp._rational import rat
from fracbp.bounds import (
    FOOLING_CAP,
    decimal_root,
    fooling_set,
    fractional_cover_number,
    integer_cover_number,
    integer_partition_number,
    power_root_lower_bound,
    product_lower_bound,
    quantize6,
    sandwich_report,
)
from fracbp.core import (
    BinaryMatrix,
    bit_indices,
    crown,
    domino,
    enumerate_all_bicliques,
    kronecker,
    parse_matrix,
)
from fracbp.errors import (
    ContractViolation,
    EmptyGraphError,
    InvariantViolation,
    SizeCapExceeded,
)
from fracbp.maximal import enumerate_maximal
from oracles import brute_fooling_sets, brute_integer_number, random_binary_matrix

D6 = Decimal("0.000001")


def is_fooling_pair(a, one, other):
    (i1, j1), (i2, j2) = one, other
    return not (a.entry(i1, j2) and a.entry(i2, j1))


# ---------------------------------------------------------------------------
# Fooling sets
# ---------------------------------------------------------------------------

def test_domino_fooling_number_is_two(d):
    found = fooling_set(d)
    assert len(found) == brute_fooling_sets(d) == 2
    for k, one in enumerate(found):
        assert d.entry(*one)
        for other in found[k + 1:]:
            assert is_fooling_pair(d, one, other)


def test_crown_fooling_number_is_three(crown5):
    assert len(fooling_set(crown5)) == brute_fooling_sets(crown5) == 3


def test_identity_diagonal_is_a_fooling_set():
    eye = parse_matrix("100\n010\n001")
    assert len(fooling_set(eye)) == 3


def test_all_ones_block_fools_nothing():
    block = parse_matrix("111\n111\n111")
    assert len(fooling_set(block)) == 1


def test_fooling_set_matches_brute_force(rng):
    for _ in range(40):
        a = random_binary_matrix(rng)
        found = fooling_set(a)
        assert len(found) == brute_fooling_sets(a)
        for k, one in enumerate(found):
            for other in found[k + 1:]:
                assert is_fooling_pair(a, one, other)


def test_fooling_set_refuses_too_many_ones(d):
    with pytest.raises(SizeCapExceeded):
        fooling_set(d, cap=3)


# ---------------------------------------------------------------------------
# Cover and integer numbers
# ---------------------------------------------------------------------------

def test_fractional_cover_of_domino(d):
    assert fractional_cover_number(d) == 2


def test_fractional_cover_of_crown(crown5):
    assert fractional_cover_number(crown5) == rat(10, 3)


def test_integer_partition_of_domino(d):
    value, parts, _ = integer_partition_number(d)
    assert value == len(parts) == 3
    seen = 0
    for b in parts:
        col = sum(1 << d.edge_index[(i, j)]
                  for (i, j) in d.edges
                  if (b.row_set >> i) & 1 and (b.col_set >> j) & 1)
        assert seen & col == 0
        seen |= col
    assert seen == (1 << d.num_edges) - 1


def test_integer_cover_of_domino(d):
    value, parts, _ = integer_cover_number(d)
    assert value == len(parts) == 2
    covered = 0
    for b in parts:
        for (i, j) in d.edges:
            if (b.row_set >> i) & 1 and (b.col_set >> j) & 1:
                covered |= 1 << d.edge_index[(i, j)]
    assert covered == (1 << d.num_edges) - 1


def test_integer_numbers_sandwich_the_fractional_ones(rng):
    for _ in range(15):
        a = random_binary_matrix(rng, max_rows=3, max_cols=3)
        bc, _, _ = integer_cover_number(a)
        bp, _, _ = integer_partition_number(a)
        assert len(fooling_set(a)) <= bc <= bp
        assert fractional_cover_number(a) <= bc


# ---------------------------------------------------------------------------
# Branch and bound with the matrix's symmetries
# ---------------------------------------------------------------------------

INTEGER_NUMBERS = ((integer_partition_number, "partition"),
                   (integer_cover_number, "cover"))


def symmetric_matrices(rng, count):
    """`count` seeded matrices with symmetries, each with a one: by
    turns, a random circulant (crown(n) is one), a random symmetric
    square, and the rows and columns of a random 2x3 matrix repeated
    in a random order."""
    out = []
    while len(out) < count:
        m = rng.randint(3, 5)
        kind = len(out) % 3
        if kind == 0:
            first = [rng.getrandbits(1) for _ in range(m)]
            dense = [[first[(j - i) % m] for j in range(m)] for i in range(m)]
        elif kind == 1:
            dense = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    dense[i][j] = dense[j][i] = rng.getrandbits(1)
        else:
            base = [[rng.getrandbits(1) for _ in range(3)] for _ in range(2)]
            rows = [rng.randrange(2) for _ in range(m)]
            cols = [rng.randrange(3) for _ in range(rng.randint(3, 5))]
            dense = [[base[r][c] for c in cols] for r in rows]
        a = BinaryMatrix.from_dense(dense)
        if a.num_edges:
            out.append(a)
    return out


def assert_parts(a, parts, value, sense):
    """The parts are `value` bicliques of `a` that partition (or cover)
    its ones, checked edge by edge."""
    assert len(parts) == value
    count = {}
    for b in parts:
        for i in bit_indices(b.row_set):
            for j in bit_indices(b.col_set):
                assert a.entry(i, j)
                count[i, j] = count.get((i, j), 0) + 1
    assert set(count) == set(a.edges)
    if sense == "partition":
        assert set(count.values()) == {1}


@pytest.fixture
def built(monkeypatch):
    """The matrices whose symmetries a branch and bound asked for."""
    calls = []
    real = bounds.edge_symmetries
    monkeypatch.setattr(bounds, "edge_symmetries", lambda a: calls.append(a) or real(a))
    return calls


def checked_values(mats):
    """bp and bc of each matrix, in that order, each selection checked
    edge by edge."""
    values = []
    for a in mats:
        for number, sense in INTEGER_NUMBERS:
            value, parts, _ = number(a)
            assert_parts(a, parts, value, sense)
            values.append(value)
    return values


def test_symmetric_branching_matches_brute_force(rng, built):
    seeded = symmetric_matrices(rng, 30)
    mats = [crown(n) for n in (3, 4, 5)] + seeded
    assert checked_values(mats) == [brute_integer_number(a, sense)
                                    for a in mats for _, sense in INTEGER_NUMBERS]
    # The symmetric path ran, on crown(5) and on some seeded matrices.
    assert crown(5) in built and any(a in built for a in seeded)


def test_symmetric_branching_without_highs(rng, built, monkeypatch):
    # Every node is solved exactly, and orbits are fixed all the same.
    mats = [crown(4), crown(5)] + symmetric_matrices(rng, 12)
    expected = checked_values(mats)
    built.clear()
    monkeypatch.setattr(lp, "_highs_node", lambda model, lower, upper: None)
    assert checked_values(mats) == expected and crown(5) in built


def test_a_closure_cut_at_the_cap_keeps_the_values(built, monkeypatch):
    # Cut at 7 maps, G is no group; each orbit is then closed under the
    # maps kept before it is fixed at zero.
    import fracbp.symmetry as symmetry

    mats = [crown(4), crown(5)]
    expected = checked_values(mats)
    built.clear()
    monkeypatch.setattr(symmetry, "_CLOSURE_CAP", 7)
    assert checked_values(mats) == expected and crown(5) in built


def test_crown6_partition_prunes_symmetric_subtrees():
    # Without its symmetries the search takes 169 nodes from the stars
    # (1937 from no incumbent); with them, 8.
    start = time.perf_counter()
    value, parts, nodes = integer_partition_number(crown(6))
    assert value == 6 and nodes < 50
    assert time.perf_counter() - start < 5
    assert_parts(crown(6), parts, value, "partition")


def test_a_cover_closed_at_its_root_bound_never_builds_the_group(crown5, built):
    # The first dive meets ceil(10/3) = 4, so orbital branching could
    # save no node.
    value, _, nodes = integer_cover_number(crown5)
    assert value == 4 and nodes > 1 and built == []


def test_a_domino_partition_closes_at_its_root_on_the_stars(d, built):
    # The three row stars meet ceil(5/2) = 3: one node, and no group.
    value, parts, nodes = integer_partition_number(d)
    assert value == 3 and nodes == 1 and built == []
    assert_parts(d, parts, value, "partition")


def test_the_domino_square_partition_starts_from_the_stars():
    # bp(D x D) = 9 = bp(D)^2.  From no incumbent the search took 4027
    # nodes; from the nine row stars it takes 985.
    square = kronecker(domino(), domino())
    value, parts, nodes = integer_partition_number(square)
    assert value == 9 and nodes < 2000
    assert_parts(square, parts, value, "partition")


def test_the_stars_partition_and_their_closures_cover(rng):
    mats = [crown(5), parse_matrix("110\n111\n011"), parse_matrix("1\n1\n1")]
    for a in mats + [random_binary_matrix(rng, 5, 5) for _ in range(40)]:
        nonempty_rows = sum(1 for r in a.rows if r)
        nonempty_cols = sum(1 for j in range(a.num_cols) if a.column_mask(j))
        stars = bounds._stars(a)
        assert len(stars) == min(nonempty_rows, nonempty_cols)
        assert_parts(a, stars, len(stars), "partition")
        closed = bounds._closed_stars(a)
        assert set(closed) <= set(enumerate_maximal(a))
        assert len(closed) <= len(stars)
        assert_parts(a, closed, len(closed), "cover")


def test_row_maps_that_are_no_symmetry_are_refused(crown5):
    prog = lp.build_master(crown5, enumerate_all_bicliques(crown5), lp.PARTITION)
    m = prog.num_rows
    # Edges 0 and 1 are (0, 1) and (0, 2): the swap sends the biclique
    # {(0, 1), (2, 1)} onto {(0, 2), (2, 1)}, which is none.
    swap = list(range(m))
    swap[0], swap[1] = 1, 0
    for bad in (swap, [0] * m, list(range(m - 1))):
        with pytest.raises(InvariantViolation):
            lp.solve_integer(prog, symmetries=lambda: [bad])


# ---------------------------------------------------------------------------
# Roots and quantization
# ---------------------------------------------------------------------------

def test_decimal_root_is_exact_on_perfect_powers():
    assert decimal_root(rat(5, 2), 1) == Decimal("2.5")
    assert quantize6(decimal_root(rat(64), 3)) == Decimal("4.000000")


def test_decimal_root_squares_back():
    root = decimal_root(rat(6), 2)
    assert abs(root * root - 6) < Decimal("1e-45")


def test_quantize6_half_even_and_ceiling():
    down = Decimal("2.3727122472")
    up = Decimal("2.3996985701")
    assert quantize6(down) == Decimal("2.372712")
    assert quantize6(down, ceiling=True) == Decimal("2.372713")
    assert quantize6(up) == Decimal("2.399699")
    assert quantize6(up, ceiling=True) == Decimal("2.399699")


def test_power_root_lower_bound_table():
    # bc * (bp/bc)^(1/k) for bp=5/2, bc=2.
    expected = ["2.500", "2.236", "2.154", "2.115", "2.091"]
    for k, text in enumerate(expected, start=1):
        bound = power_root_lower_bound(rat(5, 2), rat(2), k)
        assert bound.unrooted == rat(5, 2) * rat(2) ** (k - 1)
        got = bound.root.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN)
        assert got == Decimal(text)


def test_product_lower_bound_picks_the_better_side():
    assert product_lower_bound(rat(2), rat(6), rat(5, 2), rat(4)) == 12
    assert product_lower_bound(rat(1), rat(2), rat(5), rat(3)) == 15


# ---------------------------------------------------------------------------
# Sandwich report
# ---------------------------------------------------------------------------

UPPERS3 = {1: rat(5, 2), 2: rat(6), 3: rat(2059, 149)}


def test_sandwich_rows_for_three_powers(d):
    report = sandwich_report(d, dict(UPPERS3))
    assert report.fooling == 2
    assert report.cover_value == 2
    assert report.partition_value == rat(5, 2)
    assert [row.k for row in report.rows] == [1, 2, 3]
    upper_roots = [quantize6(row.upper_root) for row in report.rows]
    assert upper_roots == [Decimal("2.500000"), Decimal("2.449490"),
                           Decimal("2.399699")]
    lower_roots = [quantize6(row.lower_root) for row in report.rows]
    assert lower_roots == [Decimal("2.500000"), Decimal("2.236068"),
                           Decimal("2.154435")]
    assert report.interval_lower == rat(2)
    assert report.interval_upper == Decimal("2.399699")


def test_sandwich_interval_tightens_with_the_fifth_power(d):
    uppers = dict(UPPERS3)
    uppers[5] = rat(75_201_302, 1_000_000)
    report = sandwich_report(d, uppers)
    assert [row.k for row in report.rows] == [1, 2, 3, 4, 5]
    assert report.rows[3].upper_value is None
    assert report.rows[3].upper_root is None
    assert quantize6(report.rows[3].best_upper_root) == Decimal("2.399699")
    assert quantize6(report.rows[4].upper_root) == Decimal("2.372712")
    best = [row.best_upper_root for row in report.rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert report.interval_lower == rat(2)
    assert report.interval_upper == Decimal("2.372713")


def test_sandwich_computes_base_value_when_missing(d):
    report = sandwich_report(d, {2: rat(6)})
    assert report.partition_value == rat(5, 2)
    assert [row.k for row in report.rows] == [1, 2]


def test_sandwich_extends_to_requested_power(d):
    report = sandwich_report(d, dict(UPPERS3), kmax=4)
    assert [row.k for row in report.rows] == [1, 2, 3, 4]
    assert report.rows[3].upper_value is None
    assert quantize6(report.rows[3].lower_root) == Decimal("2.114743")


def test_sandwich_rejects_upper_below_cover_power(d):
    with pytest.raises(ContractViolation):
        sandwich_report(d, {1: rat(5, 2), 2: rat(3)})
    with pytest.raises(ContractViolation):
        sandwich_report(d, {1: rat(3, 2)})


def test_sandwich_rejects_upper_below_product_bound(d):
    # The k=3 bound from bp*bc^2 is 10; anything smaller is impossible.
    with pytest.raises(ContractViolation):
        sandwich_report(d, {1: rat(5, 2), 3: rat(9)})


def test_sandwich_rejects_keys_below_one_and_nonpositive_values(d):
    for uppers in ({0: rat(7)}, {-1: rat(7)}, {2: rat(0)}, {2: rat(-6)}):
        with pytest.raises(ContractViolation, match=f"k={next(iter(uppers))}"):
            sandwich_report(d, uppers)


def test_integer_numbers_refuse_a_matrix_with_no_ones():
    zero = BinaryMatrix(2, 3, (0, 0))
    for number in (integer_partition_number, integer_cover_number):
        with pytest.raises(EmptyGraphError):
            number(zero)


def test_sandwich_respects_fooling_cap():
    # The 12x12 all-ones matrix has 144 ones, more than FOOLING_CAP.
    j12 = BinaryMatrix.from_dense([[1] * 12] * 12)
    assert j12.num_edges > FOOLING_CAP
    with pytest.raises(SizeCapExceeded):
        sandwich_report(j12, {1: rat(1)})


def test_sandwich_on_crown(crown5):
    report = sandwich_report(crown5, {})
    assert report.fooling == 3
    assert report.cover_value == rat(10, 3)
    assert report.partition_value == rat(10, 3)
    assert report.interval_lower == rat(10, 3)


def test_sandwich_takes_the_base_value_from_column_generation():
    # crown(9) has over 100000 bicliques, too many to list, but column
    # generation needs only its 510 maximals.
    a = crown(9)
    with pytest.raises(SizeCapExceeded):
        enumerate_all_bicliques(a)
    report = sandwich_report(a, {})
    assert report.fooling == 3
    assert report.cover_value == report.partition_value == rat(18, 5)
    assert report.rows[0].upper_value == rat(18, 5)
