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


def test_incidence_column_bits(d):
    col = incidence_column(d, Biclique(0b011, 0b011))
    assert col == 0b1111  # edge indices 0,1,2,3 in row-major order
    assert col == sum(
        1 << d.edge_index[(i, j)] for i in (0, 1) for j in (0, 1))
    with pytest.raises(ContractViolation):
        incidence_column(d, Biclique(0b111, 0b111))


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


def test_kronecker_entry_definition(rng):
    for _ in range(10):
        a = random_binary_matrix(rng, 3, 3)
        b = random_binary_matrix(rng, 3, 3)
        p = kronecker(a, b)
        for i in range(p.num_rows):
            for j in range(p.num_cols):
                expect = (a.entry(i // b.num_rows, j // b.num_cols)
                          and b.entry(i % b.num_rows, j % b.num_cols))
                assert p.entry(i, j) == int(expect)


def test_kronecker_power(d):
    assert kronecker_power(d, 1) == d
    assert kronecker_power(d, 2) == kronecker(d, d)
    assert kronecker_power(d, 3).num_edges == 343
    with pytest.raises(ContractViolation):
        kronecker_power(d, 0)


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
