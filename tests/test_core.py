import numpy as np
import pytest

from fracbp.core import (
    Biclique,
    BinaryMatrix,
    EdgeWeights,
    bit_indices,
    crown,
    domino,
    enumerate_all_bicliques,
    format_matrix,
    incidence_column,
    is_valid_biclique,
    iter_submasks,
    kronecker,
    kronecker_biclique,
    kronecker_power,
    load_matrix,
    matrix_hash,
    parse_matrix,
    spread,
)
from fracbp.errors import ContractViolation, MatrixFormatError, SizeCapExceeded

from oracles import brute_bicliques, masks, random_binary_matrix


# ---------------------------------------------------------------------------
# Bit helpers
# ---------------------------------------------------------------------------

def test_bit_indices():
    assert bit_indices(0) == ()
    assert bit_indices(0b1011) == (0, 1, 3)


def test_iter_submasks_covers_powerset():
    subs = list(iter_submasks(0b1010))
    assert sorted(subs) == [0b0010, 0b1000, 0b1010]


def test_spread_matches_the_bit_loop(rng):
    for width in (1, 2, 3, 7, 64, 65):
        for bits in (0, 1, 5, 63, 64, 65, 200):
            for mask in (0, 1, rng.getrandbits(bits)):
                expect = 0
                for i in bit_indices(mask):
                    expect |= 1 << (i * width)
                assert spread(mask, width) == expect


# ---------------------------------------------------------------------------
# BinaryMatrix
# ---------------------------------------------------------------------------

def test_edges_are_row_major(d):
    assert d.edges == (
        (0, 0), (0, 1),
        (1, 0), (1, 1), (1, 2),
        (2, 1), (2, 2),
    )
    assert d.num_edges == 7
    for k, e in enumerate(d.edges):
        assert d.edge_index[e] == k


def test_entry_and_column_mask(d):
    assert d.entry(0, 0) == 1
    assert d.entry(0, 2) == 0
    assert d.column_mask(0) == 0b011
    assert d.column_mask(2) == 0b110


def test_transpose_round_trip(rng):
    for _ in range(25):
        a = random_binary_matrix(rng, 5, 5)
        t = a.transpose()
        assert t.num_rows == a.num_cols and t.num_cols == a.num_rows
        assert t.transpose() == a
        for i in range(a.num_rows):
            for j in range(a.num_cols):
                assert a.entry(i, j) == t.entry(j, i)


def test_column_masks_match_the_rows(rng):
    for width in (1, 5, 63, 64, 65, 130):
        for _ in range(4):
            m = rng.randint(1, 9)
            a = BinaryMatrix(m, width, tuple(rng.getrandbits(width) for _ in range(m)))
            for j in range(width):
                expect = 0
                for i in range(m):
                    expect |= ((a.rows[i] >> j) & 1) << i
                assert a.column_mask(j) == expect
            assert a.transpose().transpose() == a


def brute_edges(a):
    return [(i, j) for i in range(a.num_rows) for j in range(a.num_cols)
            if a.entry(i, j)]


def test_edge_tables_match_a_brute_force_listing(rng):
    shapes = [(1, 1), (1, 9), (9, 1), (3, 3), (5, 64), (4, 65), (2, 130)]
    mats = [BinaryMatrix(2, 3, (0, 0)), BinaryMatrix(3, 2, (0b11, 0, 0b10))]
    for m, n in shapes:
        for _ in range(4):
            rows = [rng.getrandbits(n) for _ in range(m)]
            rows[rng.randrange(m)] = 0
            mats.append(BinaryMatrix(m, n, tuple(rows)))
    for a in mats:
        edges = brute_edges(a)
        assert a.num_edges == len(edges)
        assert a.edges == tuple(edges)
        assert a.edge_index == {e: k for k, e in enumerate(edges)}
        assert a.row_offsets == tuple(sum(1 for e in edges if e[0] < i)
                                      for i in range(a.num_rows))
        assert a.edge_array.dtype == np.intp
        assert a.edge_array.shape == (len(edges), 2)
        assert a.edge_array.tolist() == [list(e) for e in edges]


def test_edge_array_is_read_only(d):
    with pytest.raises(ValueError):
        d.edge_array[0, 0] = 1
    assert d.edge_array[0].tolist() == [0, 0]


def test_cached_column_masks_leave_equality_and_hash_alone(rng):
    for _ in range(10):
        a = random_binary_matrix(rng, 6, 70)
        a.column_mask(0)
        fresh = BinaryMatrix(a.num_rows, a.num_cols, a.rows)
        assert a == fresh and hash(a) == hash(fresh)
        assert {a: 1}[fresh] == 1


def test_from_dense_matches_parse():
    a = BinaryMatrix.from_dense([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert a == domino()
    with pytest.raises(ContractViolation):
        BinaryMatrix.from_dense([[1, 0], [1]])
    with pytest.raises(ContractViolation):
        BinaryMatrix.from_dense([[2]])
    with pytest.raises(ContractViolation):
        BinaryMatrix.from_dense([])


def test_dimension_validation():
    with pytest.raises(ContractViolation):
        BinaryMatrix(0, 3, ())
    with pytest.raises(ContractViolation):
        BinaryMatrix(1, 2, (0b100,))  # bit outside column range
    with pytest.raises(ContractViolation):
        BinaryMatrix(2, 2, (0b01,))  # wrong rows length
    with pytest.raises(SizeCapExceeded):
        BinaryMatrix(1 << 16, 1 << 16, tuple([0] * (1 << 16)))
    with pytest.raises(SizeCapExceeded):
        BinaryMatrix(1 << 12, (1 << 12) + 1, (0,) * (1 << 12))
    with pytest.raises(SizeCapExceeded):
        kronecker(BinaryMatrix(65, 65, (0,) * 65), BinaryMatrix(64, 64, (0,) * 64))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def test_parse_format_round_trip(rng):
    for _ in range(25):
        a = random_binary_matrix(rng, 6, 6)
        text = format_matrix(a)
        assert parse_matrix(text) == a
        assert format_matrix(parse_matrix(text)) == text


def test_parse_accepts_spacing_and_comments():
    a = parse_matrix("# header\n1 1 0\n\n111\n 0 11\n")
    assert a == domino()


def test_parse_rejects_bad_input():
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("# only a comment\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("10\n1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("12\n")


def test_matrix_hash_distinguishes(d):
    h = matrix_hash(d)
    assert len(h) == 64 and h == matrix_hash(domino())
    # The domino is symmetric, so its transpose hashes identically.
    assert matrix_hash(d.transpose()) == h
    assert matrix_hash(parse_matrix("110\n111\n011\n110\n")) != h
    assert matrix_hash(crown(5)) != h


def test_load_matrix_builtins_and_files(tmp_path):
    assert load_matrix("domino") == domino()
    assert load_matrix("crown5") == crown(5)
    path = tmp_path / "m.txt"
    path.write_text("10\n01\n", encoding="ascii")
    assert load_matrix(str(path)) == parse_matrix("10\n01\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(str(tmp_path / "missing.txt"))


# ---------------------------------------------------------------------------
# Bicliques
# ---------------------------------------------------------------------------

def test_biclique_basics():
    b = Biclique.from_indices([0, 2], [1])
    assert b.row_set == 0b101 and b.col_set == 0b010
    assert b.row_indices() == (0, 2) and b.col_indices() == (1,)
    assert b.num_edges == 2
    with pytest.raises(ContractViolation):
        Biclique(0, 1)
    with pytest.raises(ContractViolation):
        Biclique(1, 0)


def test_biclique_validity(d):
    assert is_valid_biclique(d, Biclique(0b011, 0b011))
    assert not is_valid_biclique(d, Biclique(0b111, 0b111))
    with pytest.raises(ContractViolation):
        is_valid_biclique(d, Biclique(0b1000, 0b1))


def test_incidence_column_bits(d, rng):
    col = incidence_column(d, Biclique(0b011, 0b011))
    assert col == 0b1111  # edge indices 0,1,2,3 in row-major order
    assert col == sum(
        1 << d.edge_index[(i, j)] for i in (0, 1) for j in (0, 1))
    assert d.row_offsets == (0, 2, 5)
    square = kronecker_power(d, 2)
    # Rows that a biclique covers whole take the single-run path.
    assert any(square.rows[i] == b.col_set
               for b in enumerate_all_bicliques(square) for i in b.row_indices())
    matrices = [d, square] + [random_binary_matrix(rng, 6, 6) for _ in range(30)]
    for a in matrices:
        for b in enumerate_all_bicliques(a):
            assert incidence_column(a, b) == sum(
                1 << a.edge_index[(i, j)]
                for i in b.row_indices() for j in b.col_indices())
    with pytest.raises(ContractViolation):
        incidence_column(d, Biclique(0b111, 0b111))
    with pytest.raises(ContractViolation):
        incidence_column(d, Biclique(0b1000, 0b001))


def test_enumerate_all_bicliques_domino(d):
    found = enumerate_all_bicliques(d)
    assert len(found) == 21
    assert masks(found) == brute_bicliques(d)
    assert found == sorted(found)


def test_enumerate_all_bicliques_matches_brute_force(rng):
    for _ in range(40):
        a = random_binary_matrix(rng, 4, 4)
        assert masks(enumerate_all_bicliques(a)) == brute_bicliques(a)


def test_enumerate_all_bicliques_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_all_bicliques(crown(5), size_cap=10)


# ---------------------------------------------------------------------------
# Kronecker products
# ---------------------------------------------------------------------------

def test_kronecker_dimensions_and_edges(d):
    p = kronecker(d, d)
    assert (p.num_rows, p.num_cols) == (9, 9)
    assert p.num_edges == 49
    for i1, j1 in d.edges:
        for i2, j2 in d.edges:
            assert p.entry(i1 * 3 + i2, j1 * 3 + j2) == 1


PRODUCT_SHAPES = [(1, 5), (5, 1), (2, 9), (3, 4), (4, 3), (1, 1)]


def random_base(rng, m, n):
    """A seeded m x n matrix with at least one one and, when it has two
    rows or more, a row without ones."""
    rows = [rng.getrandbits(n) for _ in range(m)]
    if m > 1:
        rows[rng.randrange(m)] = 0
    rows[rng.randrange(m)] |= 1 << rng.randrange(n)
    return BinaryMatrix(m, n, tuple(rows))


def power_entry(a, k, i, j):
    """Entry (i, j) of the k-th power, left associated: the product of
    a's entries at the base-m and base-n digits of i and j."""
    for _ in range(k):
        i, i_low = divmod(i, a.num_rows)
        j, j_low = divmod(j, a.num_cols)
        if not a.entry(i_low, j_low):
            return 0
    return 1


def test_kronecker_entry_definition(rng, d):
    pairs = [(random_binary_matrix(rng, 3, 3), random_binary_matrix(rng, 3, 3))
             for _ in range(10)]
    # 1 x n, m x 1 and rectangular bases with a zero row; D^3 (x) D and
    # the 2 x 9 products run past 64 bits a row.
    pairs.append((kronecker_power(d, 3), d))
    for m, n in PRODUCT_SHAPES:
        for m2, n2 in PRODUCT_SHAPES:
            pairs.append((random_base(rng, m, n), random_base(rng, m2, n2)))
    for a, b in pairs:
        p = kronecker(a, b)
        assert (p.num_rows, p.num_cols) == (a.num_rows * b.num_rows,
                                            a.num_cols * b.num_cols)
        for i in range(p.num_rows):
            for j in range(p.num_cols):
                expect = (a.entry(i // b.num_rows, j // b.num_cols)
                          and b.entry(i % b.num_rows, j % b.num_cols))
                assert p.entry(i, j) == int(expect)


def test_kronecker_power(d):
    assert kronecker_power(d, 1) == d
    assert kronecker_power(d, 2) == kronecker(d, d)
    cube = kronecker_power(d, 3)
    assert cube.num_edges == 343
    # Multiplying builds no edge tables.
    assert "edges" not in vars(cube) and "edge_index" not in vars(cube)
    with pytest.raises(ContractViolation):
        kronecker_power(d, 0)


def test_kronecker_power_matches_the_digit_definition(rng):
    for m, n in PRODUCT_SHAPES:
        a = random_base(rng, m, n)
        k = 5 if m * n <= 4 else 3
        p = kronecker_power(a, k)
        assert p.rows == tuple(
            sum(power_entry(a, k, i, j) << j for j in range(n ** k))
            for i in range(m ** k))


def test_kronecker_biclique_matches_the_bit_definition(rng):
    shapes = [(1, 5), (5, 1), (9, 2), (3, 70)]
    for m1, n1 in shapes:
        for m2, n2 in shapes:
            for _ in range(3):
                b1 = Biclique(rng.getrandbits(m1) | 1 << rng.randrange(m1),
                              rng.getrandbits(n1) | 1 << rng.randrange(n1))
                b2 = Biclique(rng.getrandbits(m2) | 1 << rng.randrange(m2),
                              rng.getrandbits(n2) | 1 << rng.randrange(n2))
                prod = kronecker_biclique(b1, b2, (m2, n2))
                assert prod.row_indices() == tuple(sorted(
                    i1 * m2 + i2 for i1 in b1.row_indices() for i2 in b2.row_indices()))
                assert prod.col_indices() == tuple(sorted(
                    j1 * n2 + j2 for j1 in b1.col_indices() for j2 in b2.col_indices()))


def test_kronecker_power_refuses_before_building_a_level(d, monkeypatch):
    import fracbp.core as core

    calls = 0

    def refusing(*args):
        nonlocal calls
        calls += 1
        raise AssertionError("a level was built before the size check")

    monkeypatch.setattr(core, "kronecker", refusing)
    # D^8 is 6561 x 6561, over MAX_CELLS; D^7 alone would fit.
    with pytest.raises(SizeCapExceeded):
        kronecker_power(d, 8)
    assert calls == 0
    assert kronecker_power(d, 1) == d


def test_kronecker_biclique_is_valid_in_product(rng, d):
    p = kronecker(d, d)
    bs = enumerate_all_bicliques(d)
    for _ in range(50):
        b1 = rng.choice(bs)
        b2 = rng.choice(bs)
        prod = kronecker_biclique(b1, b2, (3, 3))
        assert is_valid_biclique(p, prod)
        assert prod.num_edges == b1.num_edges * b2.num_edges


def test_kronecker_biclique_shape_check():
    b = Biclique(0b11, 0b11)
    with pytest.raises(ContractViolation):
        kronecker_biclique(b, b, (1, 1))


# ---------------------------------------------------------------------------
# Edge weights
# ---------------------------------------------------------------------------

def test_edge_weights_indexing(d):
    w = EdgeWeights(d, tuple(range(7)))
    assert w.at(0, 0) == 0
    assert w.at(2, 2) == 6
    with pytest.raises(ContractViolation):
        EdgeWeights(d, (1, 2))
