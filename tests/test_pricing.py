from fractions import Fraction

import pytest

from fracbp.core import Biclique, BinaryMatrix, EdgeWeights, domino
from fracbp.errors import ContractViolation, SizeCapExceeded
from fracbp.maximal import enumerate_maximal
from fracbp.pricing import price_all, price_maximal

from oracles import (
    brute_price,
    naive_price_all,
    random_binary_matrix,
    random_rationals,
)


def weights_for(a, values):
    return EdgeWeights(a, tuple(values))


def test_unit_weights_price_to_biggest_biclique(d):
    w = weights_for(d, [Fraction(1)] * 7)
    alpha, cands = price_all(enumerate_maximal(d), w, Fraction(1))
    assert alpha == 4  # a 2x2 block
    assert all(pb.value > 1 for pb in cands)


def test_price_maximal_matches_brute_force_on_domino(rng, d):
    maximals = enumerate_maximal(d)
    for _ in range(60):
        values = random_rationals(rng, d.num_edges)
        w = weights_for(d, values)
        alpha, _ = price_all(maximals, w, Fraction(10 ** 9))
        assert alpha == brute_price(d, values)


def test_price_matches_brute_force_random_matrices(rng):
    for _ in range(30):
        a = random_binary_matrix(rng, 4, 4)
        values = random_rationals(rng, a.num_edges)
        w = weights_for(a, values)
        alpha, _ = price_all(enumerate_maximal(a), w, Fraction(10 ** 9))
        assert alpha == brute_price(a, values)


def oracle_cases(rng):
    # All-ones blocks, each way round, whose best candidates tie in value
    # and must be told apart by edge count, then row mask, then column
    # mask; then random matrices, where small denominators make ties
    # common.
    for grid in ([[1, 1, -5], [-5, -5, 2]], [[-5, 1, 1], [1, 1, -5]]):
        for g in (grid, [list(col) for col in zip(*grid)]):
            a = BinaryMatrix(len(g), len(g[0]), ((1 << len(g[0])) - 1,) * len(g))
            yield a, [Fraction(v) for row in g for v in row]
    for trial in range(60):
        a = random_binary_matrix(rng, 5, 5)
        den_range = ((1, 1), (1, 3), (1, 12))[trial % 3]
        yield a, random_rationals(rng, a.num_edges, den_range, (-3, 4))


def test_candidates_match_naive_oracle(rng):
    # The whole price_all output, candidate lists included.
    for a, values in oracle_cases(rng):
        maximals = enumerate_maximal(a)
        w = weights_for(a, values)
        _, everything = naive_price_all(a, maximals, values, Fraction(-1))
        thresholds = [Fraction(-1, 3), Fraction(1)]
        if everything:  # a value some candidate attains, to exclude
            thresholds.append(everything[len(everything) // 2][1])
        for threshold in thresholds:
            for per_cap, global_cap in ((64, 4096), (1, 4096), (2, 3)):
                alpha, cands = price_all(maximals, w, threshold,
                                         per_cap=per_cap, global_cap=global_cap)
                expected = naive_price_all(a, maximals, values, threshold,
                                           per_cap, global_cap)
                assert (alpha, [(pb.biclique, pb.value) for pb in cands]) == expected
                assert all(pb.value > threshold for pb in cands)


def test_nonpositive_weights_fall_back_to_best_edge(d):
    values = [Fraction(-1)] * 7
    values[3] = Fraction(-1, 7)  # edge (1,1), the least bad one
    w = weights_for(d, values)
    best, cands = price_maximal(Biclique(0b010, 0b111), w, Fraction(0))
    assert best.value == Fraction(-1, 7)
    assert best.biclique == Biclique(0b010, 0b010)
    assert cands == []


def test_candidates_above_threshold_only(d):
    w = weights_for(d, [Fraction(1, 2)] * 7)
    maximals = enumerate_maximal(d)
    alpha, cands = price_all(maximals, w, Fraction(1))
    assert alpha == 2
    assert cands  # 2x2 blocks and the row/column triples clear 1
    for pb in cands:
        assert pb.value > 1
        total = sum(
            w.at(i, j) for i in pb.biclique.row_indices()
            for j in pb.biclique.col_indices())
        assert total == pb.value


def test_candidate_ordering_and_dedup(d):
    w = weights_for(d, [Fraction(1, 2)] * 7)
    _, cands = price_all(enumerate_maximal(d), w, Fraction(1))
    values = [pb.value for pb in cands]
    assert values == sorted(values, reverse=True)
    keys = [(pb.biclique.row_set, pb.biclique.col_set) for pb in cands]
    assert len(keys) == len(set(keys))


def test_per_cap_and_global_cap_keep_best(d):
    w = weights_for(d, [Fraction(1, 2)] * 7)
    maximals = enumerate_maximal(d)
    _, full = price_all(maximals, w, Fraction(1))
    _, capped = price_all(maximals, w, Fraction(1), global_cap=3)
    assert capped == full[:3]
    _, per = price_all(maximals, w, Fraction(1), per_cap=1)
    # One candidate per maximal at most, still sorted by value.
    assert len(per) <= len(maximals)
    assert [pb.value for pb in per] == sorted(
        [pb.value for pb in per], reverse=True)


def test_price_maximal_validates_biclique(d):
    w = weights_for(d, [Fraction(1)] * 7)
    with pytest.raises(ContractViolation):
        price_maximal(Biclique(0b111, 0b111), w, Fraction(0))


def test_subset_limit_refusal(d):
    w = weights_for(d, [Fraction(1)] * 7)
    with pytest.raises(SizeCapExceeded):
        price_maximal(Biclique(0b011, 0b011), w, Fraction(0), subset_limit=2)


def test_price_all_needs_maximals(d):
    w = weights_for(d, [Fraction(1)] * 7)
    with pytest.raises(ContractViolation):
        price_all([], w, Fraction(1))


def test_tie_break_is_canonical(d):
    # A +1/-1 checkerboard on the top-left block leaves two best
    # single-edge bicliques of value one; the canonical order picks the
    # lower row mask, deterministically.
    values = [Fraction(0)] * 7
    values[d.edge_index[(0, 0)]] = Fraction(1)
    values[d.edge_index[(0, 1)]] = Fraction(-1)
    values[d.edge_index[(1, 0)]] = Fraction(-1)
    values[d.edge_index[(1, 1)]] = Fraction(1)
    w = weights_for(d, values)
    best, _ = price_maximal(Biclique(0b011, 0b011), w, Fraction(10))
    assert best.value == 1
    assert best.biclique == Biclique(0b001, 0b001)


def test_zero_sum_rows_are_left_out(d):
    # A row contributing zero to every selected column is excluded: the
    # maximizer keeps the fewest edges among equal-value closures.
    values = [Fraction(0)] * 7
    values[d.edge_index[(0, 0)]] = Fraction(3)
    values[d.edge_index[(0, 1)]] = Fraction(-9)
    values[d.edge_index[(1, 1)]] = Fraction(-9)
    w = weights_for(d, values)
    best, _ = price_maximal(Biclique(0b011, 0b011), w, Fraction(99))
    assert best.value == 3
    # rows {0, 1} x col {0} also sums to 3 but carries a dead edge.
    assert best.biclique == Biclique(0b001, 0b001)
