import pytest

from fracbp.core import (
    Biclique,
    crown,
    domino,
    is_valid_biclique,
    kronecker,
    kronecker_power,
    maximal_biclique_masks,
)
from fracbp.errors import EmptyGraphError
from fracbp.maximal import enumerate_maximal, lift_maximal_kronecker

from oracles import (
    brute_maximal_bicliques,
    closed_pairs,
    masks,
    random_binary_matrix,
    random_context,
)


def test_domino_maximals(d):
    found = enumerate_maximal(d)
    assert masks(found) == {
        (0b011, 0b011),  # top-left 2x2 block
        (0b110, 0b110),  # bottom-right 2x2 block
        (0b010, 0b111),  # middle row
        (0b111, 0b010),  # middle column
    }
    assert found == sorted(found)


def test_crown5_maximals(crown5):
    found = enumerate_maximal(crown5)
    # All-ones minus identity: maximal bicliques pair a row set with the
    # complement column set; with both sides nonempty that excludes the
    # empty and full row sets.
    assert len(found) == 2 ** 5 - 2
    full = (1 << 5) - 1
    for b in found:
        assert b.col_set == full ^ b.row_set


def test_maximals_match_brute_force(rng):
    for _ in range(40):
        a = random_binary_matrix(rng, 4, 4)
        assert masks(enumerate_maximal(a)) == brute_maximal_bicliques(a)


def test_row_closure_matches_the_galois_connection(rng):
    wide = twins = zeros = 0
    for _ in range(120):
        a = random_context(rng)
        assert maximal_biclique_masks(a) == closed_pairs(a)
        cols = [sum(((r >> j) & 1) << i for i, r in enumerate(a.rows))
                for j in range(a.num_cols)]
        wide += a.num_cols > 64
        twins += len(set(a.rows)) < a.num_rows or len(set(cols)) < a.num_cols
        zeros += 0 in a.rows or 0 in cols
    # The seeds reach masks past one machine word, twins and zero lines.
    assert wide and twins and zeros


@pytest.mark.parametrize("k", [3, 4])
def test_domino_powers_enumerate_to_their_lift(d, k):
    power = kronecker_power(d, k)
    lifted = lift_maximal_kronecker(enumerate_maximal(d), k, (3, 3))
    assert enumerate_maximal(power) == lifted
    assert len(lifted) == 4 ** k


def test_maximals_cover_every_edge(rng):
    for _ in range(25):
        a = random_binary_matrix(rng, 5, 5)
        covered = set()
        for b in enumerate_maximal(a):
            for i in b.row_indices():
                for j in b.col_indices():
                    covered.add((i, j))
        assert covered == set(a.edges)


def test_empty_graph_refused():
    from fracbp.core import BinaryMatrix

    with pytest.raises(EmptyGraphError):
        enumerate_maximal(BinaryMatrix(2, 2, (0, 0)))


def test_lift_matches_direct_enumeration_on_square(d):
    lifted = lift_maximal_kronecker(enumerate_maximal(d), 2, (3, 3))
    direct = enumerate_maximal(kronecker(d, d))
    assert lifted == direct
    assert len(lifted) == 16


def test_lift_matches_direct_enumeration_random(rng):
    for _ in range(8):
        a = random_binary_matrix(rng, 3, 3)
        if a.num_edges == 0:
            continue
        base = enumerate_maximal(a)
        lifted = lift_maximal_kronecker(base, 2, (a.num_rows, a.num_cols))
        direct = enumerate_maximal(kronecker(a, a))
        assert lifted == direct


def test_lift_counts_and_validity(d):
    base = enumerate_maximal(d)
    cube = lift_maximal_kronecker(base, 3, (3, 3))
    assert len(cube) == len(base) ** 3 == 64
    power = kronecker(kronecker(d, d), d)
    for b in cube:
        assert is_valid_biclique(power, b)
    assert lift_maximal_kronecker(base, 1, (3, 3)) == sorted(base)
    with pytest.raises(ValueError):
        lift_maximal_kronecker(base, 0, (3, 3))
    with pytest.raises(ValueError):
        lift_maximal_kronecker(base, 1, (3, 3), below=base)


def test_lift_from_the_level_below_matches_the_lift_from_the_base(rng, d):
    cases = [d] + [random_binary_matrix(rng, 3, 3) for _ in range(6)]
    for a in cases:
        base = enumerate_maximal(a)
        shape = (a.num_rows, a.num_cols)
        level = base
        for k in range(2, 5):
            level = lift_maximal_kronecker(base, k, shape, below=level)
            assert level == lift_maximal_kronecker(base, k, shape)
