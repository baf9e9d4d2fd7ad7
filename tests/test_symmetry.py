"""Symmetries of Kronecker powers: base automorphisms against brute
force, generators that map ones onto ones, and orbit counts."""

from itertools import permutations

import numpy as np
import pytest

from fracbp import symmetry
from fracbp.core import Biclique, BinaryMatrix, crown, domino, kronecker, kronecker_power
from fracbp.errors import ContractViolation, InvariantViolation
from fracbp.maximal import enumerate_maximal
from fracbp.symmetry import (
    Symmetry,
    base_automorphisms,
    biclique_orbit,
    edge_orbit_bounds,
    edge_orbits,
    gather_table,
    orbit_representatives,
    power_generators,
    transpose_map,
)

from oracles import (
    every_automorphism,
    every_leaf_row_maps,
    random_binary_matrix,
    signature_automorphisms,
    signature_transpose_map,
    walk_orbit,
    walk_representatives,
)

TRIANGLE = BinaryMatrix.from_dense([[1, 1], [0, 1]])


def brute_automorphisms(a):
    """Every (sigma, tau) with a[sigma[i]][tau[j]] == a[i][j]."""
    return {
        (sigma, tau)
        for sigma in permutations(range(a.num_rows))
        for tau in permutations(range(a.num_cols))
        if all(a.entry(sigma[i], tau[j]) == a.entry(i, j)
               for i in range(a.num_rows) for j in range(a.num_cols))
    }


def generated(gens, identity):
    """The group generated by pairs of permutations, composed pointwise."""
    out = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for s, t in frontier:
            for g, h in gens:
                e = (tuple(g[i] for i in s), tuple(h[j] for j in t))
                if e not in out:
                    out.add(e)
                    nxt.append(e)
        frontier = nxt
    return out


def test_base_automorphisms_generate_the_whole_group(rng):
    cases = [domino(), crown(3), crown(4), TRIANGLE,
             BinaryMatrix.from_dense([[1, 1, 1], [1, 1, 1]]),
             BinaryMatrix.from_dense([[1, 0], [1, 0], [0, 1]])]
    cases += [random_binary_matrix(rng, 4, 4) for _ in range(40)]
    for a in cases:
        gens = base_automorphisms(a)
        every = brute_automorphisms(a)
        assert set(gens) <= every
        identity = (tuple(range(a.num_rows)), tuple(range(a.num_cols)))
        assert generated(gens, identity) == every
    assert len(base_automorphisms(crown(4))) == 3


def twinned_matrix(rng, m, n):
    """A random m x n matrix, some of whose rows and columns are copies
    of others."""
    rows = [rng.getrandbits(n) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        rows[rng.randrange(m)] = rows[rng.randrange(m)]
    for _ in range(rng.randint(0, 2)):
        j, j2 = rng.randrange(n), rng.randrange(n)
        rows = [r & ~(1 << j2) | ((r >> j) & 1) << j2 for r in rows]
    return BinaryMatrix(m, n, tuple(rows))


def test_the_orbit_search_generates_the_every_leaf_group(rng):
    # The full search visits one leaf per row map, 144 of them on
    # crown(3) x crown(4); the orbit search one per new orbit point.
    cases = [kronecker(crown(3), crown(4)), crown(5), kronecker_power(domino(), 2)]
    cases += [twinned_matrix(rng, rng.randint(5, 7), rng.randint(5, 7))
              for _ in range(48)]
    assert len(list(every_leaf_row_maps(cases[0]))) == 144
    twins = 0
    for a in cases:
        every = every_automorphism(a)
        identity = (tuple(range(a.num_rows)), tuple(range(a.num_cols)))
        assert generated(base_automorphisms(a), identity) == every
        twins += len(set(a.rows)) < a.num_rows and len(set(a.transpose().rows)) < a.num_cols
    assert twins >= 10


def test_crown9_has_one_edge_orbit():
    # S_9 on the rows and columns at once is transitive on the ones,
    # and its chain takes one generator per depth.
    a = crown(9)
    assert len(base_automorphisms(a)) == 8
    assert len(edge_orbits(a, power_generators(a, 1))) == 1


def test_edge_orbit_bounds_never_pass_the_edge_orbits(rng):
    cases = [crown(5), kronecker(crown(3), crown(4)), kronecker_power(domino(), 2),
             kronecker_power(TRIANGLE, 3), RECT]
    cases += [twinned_matrix(rng, rng.randint(2, 6), rng.randint(2, 6)) for _ in range(40)]
    for a in cases:
        if a.num_edges:
            bounds = list(edge_orbit_bounds(a))
            assert bounds == sorted(bounds)
            assert bounds[-1] <= len(edge_orbits(a, power_generators(a, 1)))
    assert list(edge_orbit_bounds(kronecker(crown(3), crown(4)))) == [1]
    # The triangle's three classes of ones, (0, 0), (0, 1) and (1, 1),
    # are two orbits, since its transpose joins (0, 0) and (1, 1).
    assert list(edge_orbit_bounds(TRIANGLE)) == [2]
    assert len(edge_orbits(TRIANGLE, power_generators(TRIANGLE, 1))) == 2
    assert list(edge_orbit_bounds(RECT)) == [2]


def test_transpose_map_exists_exactly_when_brute_force_finds_one(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        a = BinaryMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        found = transpose_map(a)
        brute = any(
            all(a.entry(pi[j], rho[i]) == a.entry(i, j)
                for i in range(n) for j in range(n))
            for pi in permutations(range(n)) for rho in permutations(range(n)))
        assert (found is not None) == brute
        if found is not None:
            pi, rho = found
            assert all(a.entry(pi[j], rho[i]) == a.entry(i, j)
                       for i in range(n) for j in range(n))
    assert transpose_map(BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])) is None


def symmetric_matrix(rng, n):
    """A random n x n matrix that is its own transpose up to a random
    permutation of its rows, so that it has a transpose map."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    order = list(range(n))
    rng.shuffle(order)
    return BinaryMatrix(n, n, tuple(rows[i] for i in order))


def signature_generators(a, budget=symmetry._SEARCH_NODES):
    """`power_generators(a, 1)` by the signature-sorting search."""
    gens = [Symmetry(sigma, tau)
            for sigma, tau in signature_automorphisms(a, symmetry._refine, budget)]
    flip = signature_transpose_map(a, symmetry._refine, budget)
    return gens + ([Symmetry(*flip, True)] if flip is not None else [])


def test_the_cell_search_matches_the_signature_search(rng):
    cases = [kronecker(crown(3), crown(4)), crown(5), crown(9), crown(10),
             kronecker_power(domino(), 2), TRIANGLE, RECT]
    cases += [twinned_matrix(rng, rng.randint(2, 8), rng.randint(2, 8)) for _ in range(100)]
    cases += [symmetric_matrix(rng, rng.randint(2, 7)) for _ in range(30)]
    budget = symmetry._SEARCH_NODES
    flipped = transposed = 0
    for a in cases:
        assert base_automorphisms(a) == signature_automorphisms(a, symmetry._refine, budget)
        flip = transpose_map(a)
        assert flip == signature_transpose_map(a, symmetry._refine, budget)
        assert power_generators(a, 1) == signature_generators(a)
        flipped += a.num_rows > a.num_cols
        transposed += flip is not None
    assert flipped >= 30 and transposed >= 30


def test_the_orbit_check_comes_before_the_cell_split(monkeypatch):
    # On the identity path a child whose image is already in t's orbit
    # is passed over before its cells are split.  crown(10) yields 55
    # identity-path children for 9 generators; splitting each before the
    # orbit check threw 46 away made 109 `_split` calls.
    a = crown(10)
    want = signature_automorphisms(a, symmetry._refine, symmetry._SEARCH_NODES)
    calls = [0]
    split = symmetry._split

    def counting(*args):
        calls[0] += 1
        return split(*args)

    monkeypatch.setattr(symmetry, "_split", counting)
    assert base_automorphisms(a) == want
    assert calls[0] < 109


@pytest.mark.parametrize("budget", [1, 3, 10])
def test_a_spent_budget_leaves_a_subgroup(budget, monkeypatch, rng):
    monkeypatch.setattr(symmetry, "_SEARCH_NODES", budget)
    cases = [kronecker(crown(3), crown(4)), crown(5), kronecker_power(domino(), 2), TRIANGLE]
    cases += [twinned_matrix(rng, rng.randint(2, 6), rng.randint(2, 6)) for _ in range(20)]
    cases += [symmetric_matrix(rng, rng.randint(2, 6)) for _ in range(10)]
    for a in cases:
        gens = base_automorphisms(a)
        every = every_automorphism(a)
        assert set(gens) <= every
        identity = (tuple(range(a.num_rows)), tuple(range(a.num_cols)))
        assert generated(gens, identity) <= every
        assert power_generators(a, 1) == signature_generators(a, budget)
        flip = transpose_map(a)
        if flip is not None:
            pi, rho = flip
            assert all(a.entry(pi[j], rho[i]) == a.entry(i, j)
                       for i in range(a.num_rows) for j in range(a.num_cols))


def counting_refine(monkeypatch):
    """A list that grows by one on every call of `symmetry._refine`."""
    calls = []
    refine = symmetry._refine

    def counted(a):
        calls.append(a)
        return refine(a)

    monkeypatch.setattr(symmetry, "_refine", counted)
    return calls


def test_transpose_map_refuses_unequal_degrees_before_refining(monkeypatch):
    # Row degrees 2, 2, 0 against column degrees 1, 2, 1.
    calls = counting_refine(monkeypatch)
    assert transpose_map(BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 0]])) is None
    assert calls == []


def test_power_generators_refine_a_square_base_once(monkeypatch):
    # The base itself, for both searches, and its transpose.
    calls = counting_refine(monkeypatch)
    power_generators(TRIANGLE, 1)
    assert calls == [TRIANGLE, TRIANGLE.transpose()] and TRIANGLE != TRIANGLE.transpose()


def brute_edge_orbits(a, gens):
    """Edge orbits by closing each edge under the generators' maps."""
    def image(e, g):
        i, j = a.edges[e]
        cell = (g.rows[j], g.cols[i]) if g.transpose else (g.rows[i], g.cols[j])
        return a.edge_index[cell]

    orbits = []
    seen = set()
    for e in range(a.num_edges):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            f = frontier.pop()
            for g in gens:
                h = image(f, g)
                if h not in orbit:
                    orbit.add(h)
                    frontier.append(h)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("base, k, edge_count, maximal_count", [
    (domino(), 2, 7, 4),
    (domino(), 3, 13, 6),
    (TRIANGLE, 6, 16, 4),
    (crown(3), 2, 1, 2),
    (BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]]), 3, None, None),
])
def test_power_orbits(base, k, edge_count, maximal_count):
    a = kronecker_power(base, k)
    gens = power_generators(base, k)
    orbits = edge_orbits(a, gens)
    assert [o.tolist() for o in orbits] == brute_edge_orbits(a, gens)
    maximals = enumerate_maximal(a)
    reps, covered_keys = orbit_representatives(maximals, gens)
    covered = set()
    for b in reps:
        orbit = biclique_orbit(b, gens)
        assert b in orbit and covered.isdisjoint(orbit)
        covered.update(orbit)
    assert covered == set(maximals)
    assert covered_keys == {(b.row_set, b.col_set) for b in covered}
    if edge_count is not None:
        assert (len(orbits), len(reps)) == (edge_count, maximal_count)


def test_domino_power_orbit_sizes_divide_the_group_order():
    # |G| = 2^k (factor flips) * k! (factor swaps) * 2 (transpose).
    a = kronecker_power(domino(), 2)
    gens = power_generators(domino(), 2)
    for b in enumerate_maximal(a):
        assert 16 % len(biclique_orbit(b, gens)) == 0
    assert sum(map(len, edge_orbits(a, gens))) == a.num_edges


def test_edge_orbits_refuse_a_map_that_is_no_symmetry():
    a = kronecker_power(domino(), 2)
    ident = tuple(range(9))
    # Rows 0 and 1 of the domino differ, so swapping them alone moves
    # a zero onto a one.
    swap = (1, 0) + ident[2:]
    with pytest.raises(InvariantViolation):
        edge_orbits(a, [Symmetry(swap, ident)])
    with pytest.raises(InvariantViolation):
        edge_orbits(a, [Symmetry((0,) * 9, ident)])
    rect = kronecker_power(BinaryMatrix.from_dense([[1, 1, 1], [1, 1, 1]]), 2)
    with pytest.raises(InvariantViolation):
        edge_orbits(rect, [Symmetry(tuple(range(4)), tuple(range(9)), True)])
    assert np.concatenate(edge_orbits(a, [Symmetry(ident, ident)])).tolist() == list(
        range(a.num_edges))


RECT = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])


def sub_bicliques(rng, maximals, count):
    """`count` random nonempty sub-bicliques of random maximals."""
    out = []
    for _ in range(count):
        b = rng.choice(maximals)
        r = b.row_set & rng.getrandbits(b.row_set.bit_length())
        c = b.col_set & rng.getrandbits(b.col_set.bit_length())
        out.append(Biclique(r or b.row_set & -b.row_set, c or b.col_set & -b.col_set))
    return out


@pytest.mark.parametrize("base, k", [(domino(), 2), (TRIANGLE, 4), (RECT, 2), (domino(), 4)],
                         ids=["domino^2", "triangle^4", "2x3^2", "domino^4"])
def test_orbit_closure_matches_the_per_bit_walk(base, k, rng):
    # A square base brings a transpose, the 2x3 one none; D^4's masks
    # are 81 bits wide, past one machine word.
    a = kronecker_power(base, k)
    gens = power_generators(base, k)
    assert any(g.transpose for g in gens) == (base is not RECT)
    table = gather_table(gens, a.num_rows, a.num_cols)
    maximals = enumerate_maximal(a)
    seeds = sub_bicliques(rng, maximals, 10)
    for b in seeds:
        walked = sorted(Biclique(r, c) for r, c in walk_orbit((b.row_set, b.col_set), gens))
        assert biclique_orbit(b, gens) == biclique_orbit(b, table) == walked
    # Repeated seeds, and several seeds in one orbit, led by an image
    # of a later seed: the first in input order represents its orbit.
    b = max(seeds, key=lambda b: len(biclique_orbit(b, table)))
    lead = next(c for c in biclique_orbit(b, table) if c != b)
    bicliques = [lead, *seeds, b, *maximals[::-1], *seeds]
    expected = walk_representatives(bicliques, gens)
    assert expected[0][0] == lead and b not in expected[0]
    assert orbit_representatives(bicliques, gens) == expected
    assert orbit_representatives(iter(bicliques), table) == expected


def test_without_generators_every_orbit_is_its_seed():
    bs = [Biclique(1, 3), Biclique(2, 1), Biclique(1, 3)]
    assert biclique_orbit(bs[0], []) == [bs[0]]
    assert orbit_representatives(bs, []) == (bs[:2], {(1, 3), (2, 1)})
    assert orbit_representatives([], []) == ([], set())


def test_gather_tables_refuse_maps_that_are_no_symmetry():
    ident = (0, 1, 2)
    for bad in (Symmetry((0, 0, 2), ident), Symmetry(ident, (2, 1, 1)),
                Symmetry((0, 1), ident), Symmetry(ident, (0, 1, 2, 3))):
        with pytest.raises(InvariantViolation):
            gather_table([Symmetry(ident, ident), bad], 3, 3)
        with pytest.raises(InvariantViolation):
            orbit_representatives([Biclique(1, 1)], [Symmetry(ident, ident), bad])
        with pytest.raises(InvariantViolation):
            biclique_orbit(Biclique(1, 1), [Symmetry(ident, ident), bad])
    # A transpose needs a square matrix; its rows are indexed by column.
    with pytest.raises(InvariantViolation):
        gather_table([Symmetry((0, 1, 2), (1, 2, 0), True)], 3, 4)
    flip = Symmetry((0, 1, 0), (0, 1), True)
    with pytest.raises(InvariantViolation):
        gather_table([flip], 2, 3)
    with pytest.raises(InvariantViolation):
        biclique_orbit(Biclique(1, 1), [flip])
    with pytest.raises(ContractViolation):
        biclique_orbit(Biclique(8, 1), [Symmetry(ident, ident)])
