from fractions import Fraction

import numpy as np
import pytest

import fracbp.lp as lp
from fracbp.colgen import ColGenConfig, initial_stars, run
from fracbp.core import (
    Biclique,
    enumerate_all_bicliques,
    incidence_column,
    kronecker,
)
from fracbp.errors import ContractViolation, NodeCapExceeded
from fracbp.lp import (
    COVER,
    PARTITION,
    LinearProgram,
    SimplexSolver,
    build_master,
    solve,
    solve_integer,
)
from fracbp.maximal import enumerate_maximal
from fracbp._rational import rat

from oracles import float_lp_value, random_binary_matrix


@pytest.fixture(autouse=True, scope="module")
def verified_pivots():
    """Every pivot in this module re-checks its exact divisibility and
    the incremental value updates."""
    old = lp.VERIFY_PIVOTS
    lp.VERIFY_PIVOTS = True
    yield
    lp.VERIFY_PIVOTS = old


def edge_sums(prog: LinearProgram, x):
    sums = [rat(0)] * prog.num_rows
    for bits, weight in zip(prog.columns, x):
        row = 0
        while bits:
            low = bits & -bits
            sums[low.bit_length() - 1] += weight
            bits ^= low
            row += 1
    return sums


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_linear_program_validation():
    with pytest.raises(ContractViolation):
        LinearProgram(0, (), PARTITION)
    with pytest.raises(ContractViolation):
        LinearProgram(2, (0b100,), PARTITION)  # out of row range
    with pytest.raises(ContractViolation):
        LinearProgram(2, (0,), PARTITION)  # empty column
    with pytest.raises(ContractViolation):
        LinearProgram(2, (0b1,), "maximize")


def test_build_master_uses_edge_order(d):
    bs = enumerate_all_bicliques(d)
    prog = build_master(d, bs, PARTITION)
    assert prog.num_rows == d.num_edges
    assert prog.columns == tuple(incidence_column(d, b) for b in bs)


# ---------------------------------------------------------------------------
# Known optima
# ---------------------------------------------------------------------------

def test_partition_domino_all_bicliques(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.objective == rat(5, 2)
    # Primal feasibility straight from the definition.
    assert edge_sums(prog, sol.primal) == [rat(1)] * prog.num_rows
    # Strong duality and dual feasibility.
    assert sum(sol.dual, rat(0)) == rat(5, 2)
    for bits in prog.columns:
        s = sum(sol.dual[r] for r in range(prog.num_rows) if (bits >> r) & 1)
        assert s <= 1


def test_cover_domino_and_crown(d, crown5):
    sol = solve(build_master(d, enumerate_maximal(d), COVER))
    assert sol.status == "optimal" and sol.objective == rat(2)
    prog = build_master(crown5, enumerate_maximal(crown5), COVER)
    sol = solve(prog)
    assert sol.status == "optimal" and sol.objective == rat(10, 3)
    sums = edge_sums(prog, sol.primal)
    assert all(s >= 1 for s in sums)
    # Cover duals are nonnegative and weakly dominated by the columns.
    assert all(y >= 0 for y in sol.dual)
    assert sum(sol.dual, rat(0)) == rat(10, 3)


def test_partition_infeasible_farkas(d):
    # Bicliques of at least two edges cannot hit the corner edges of the
    # domino with exact weight one everywhere.
    cols = [b for b in enumerate_all_bicliques(d) if b.num_edges >= 4]
    prog = build_master(d, cols, PARTITION)
    sol = solve(prog)
    assert sol.status == "infeasible"
    assert sol.objective is None and sol.primal is None
    y = sol.dual
    assert sum(y, rat(0)) > 0
    for bits in prog.columns:
        assert sum(y[r] for r in range(prog.num_rows) if (bits >> r) & 1) <= 0


def test_maximals_only_partition_is_infeasible(d):
    sol = solve(build_master(d, enumerate_maximal(d), PARTITION))
    assert sol.status == "infeasible"


# ---------------------------------------------------------------------------
# Random cross-checks against an independent solver
# ---------------------------------------------------------------------------

def test_random_partition_against_float_lp(rng):
    agree = 0
    for _ in range(60):
        a = random_binary_matrix(rng, 4, 4)
        bs = enumerate_all_bicliques(a)
        prog = build_master(a, bs, PARTITION)
        sol = solve(prog)
        ref = float_lp_value(a, bs, "partition")
        if sol.status == "optimal":
            assert ref is not None
            assert abs(float(sol.objective) - ref) < 1e-7
            assert edge_sums(prog, sol.primal) == [rat(1)] * prog.num_rows
            agree += 1
        else:
            assert ref is None
    assert agree > 30  # all-biclique partition is usually feasible


def test_random_cover_against_float_lp(rng):
    for _ in range(60):
        a = random_binary_matrix(rng, 4, 4)
        bs = enumerate_maximal(a)
        prog = build_master(a, bs, COVER)
        sol = solve(prog)
        assert sol.status == "optimal"
        ref = float_lp_value(a, bs, "cover")
        assert abs(float(sol.objective) - ref) < 1e-7
        sums = edge_sums(prog, sol.primal)
        assert all(s >= 1 for s in sums)


def test_complementary_slackness_random(rng):
    for _ in range(40):
        a = random_binary_matrix(rng, 4, 4)
        bs = enumerate_maximal(a)
        prog = build_master(a, bs, COVER)
        sol = solve(prog)
        for bits, weight in zip(prog.columns, sol.primal):
            s = sum(sol.dual[r] for r in range(prog.num_rows) if (bits >> r) & 1)
            assert s <= 1
            if weight > 0:
                assert s == 1  # active columns are exactly tight
        for r, y in enumerate(sol.dual):
            covered = sum(
                w for bits, w in zip(prog.columns, sol.primal) if (bits >> r) & 1)
            if y > 0:
                assert covered == 1  # paying rows are covered exactly once


# ---------------------------------------------------------------------------
# Basis round trips and warm starts
# ---------------------------------------------------------------------------

def test_solution_basis_round_trip(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    first = solve(prog)
    again = solve(prog, start_basis=first.basis)
    assert again == first


def test_solve_is_deterministic(rng):
    for _ in range(10):
        a = random_binary_matrix(rng, 4, 4)
        prog = build_master(a, enumerate_maximal(a), COVER)
        assert solve(prog) == solve(prog)


def test_warm_reoptimize_monotone(d):
    bs = enumerate_all_bicliques(d)
    stars = [b for b in bs if b.row_set.bit_count() == 1
             and b.col_set == d.rows[b.row_set.bit_length() - 1]]
    solver = SimplexSolver(d.num_edges, PARTITION)
    ids = {}
    for b in stars:
        ids[b] = solver.add_column(incidence_column(d, b))
    solver.install_disjoint_start(list(ids.values()))
    solver.reoptimize()
    obj = solver.objective()
    assert obj == rat(3)  # one star per row
    seen = [obj]
    for b in bs:
        if b not in ids:
            solver.add_column(incidence_column(d, b))
            solver.reoptimize()
            seen.append(solver.objective())
    assert seen[-1] == rat(5, 2)
    assert all(x >= y for x, y in zip(seen, seen[1:]))


def test_disjoint_start_validation(d):
    solver = SimplexSolver(d.num_edges, PARTITION)
    a_id = solver.add_column(0b0000011)
    b_id = solver.add_column(0b0000110)  # overlaps a on edge 1
    with pytest.raises(ContractViolation):
        solver.install_disjoint_start([a_id, b_id])
    c_id = solver.add_column(0b1111100)
    with pytest.raises(ContractViolation):
        solver.install_disjoint_start([a_id])  # does not cover
    solver.install_disjoint_start([a_id, c_id])
    solver.reoptimize()
    assert solver.objective() == rat(2)
    assert solver.is_basic(a_id)
    with pytest.raises(ContractViolation):
        solver.remove_column(a_id)  # basic
    with pytest.raises(ContractViolation):
        solver.remove_column(b_id + 999)


def test_install_basis_rejects_junk(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    sol = solve(prog)
    solver = SimplexSolver(prog.num_rows, PARTITION)
    for bits in prog.columns:
        solver.add_column(bits)
    with pytest.raises(ContractViolation):
        solver.install_basis(sol.basis[:-1])  # wrong length
    with pytest.raises(ContractViolation):
        solver.install_basis([sol.basis[0]] * prog.num_rows)  # singular


def star_started_solver(a, bicliques):
    """Solver over the row stars plus `bicliques`, on the stars' basis;
    returns it with the ids of `bicliques`."""
    solver = SimplexSolver(a.num_edges, PARTITION)
    star_ids = [solver.add_column(incidence_column(a, b))
                for b in initial_stars(a)]
    ids = [solver.add_column(incidence_column(a, b)) for b in bicliques]
    solver.install_disjoint_start(star_ids)
    return solver, ids


def test_crash_installs_an_optimal_basis(d):
    bs = enumerate_all_bicliques(d)
    optimum = solve(build_master(d, bs, PARTITION))
    support = [bs[k] for k, v in enumerate(optimum.primal) if v]
    solver, ids = star_started_solver(d, support)
    assert solver.crash(ids)
    assert all(solver.is_basic(cid) for cid in ids)
    before = solver.pivots
    solver.reoptimize()
    assert solver.pivots - before == 1  # one pricing pass, no pivot
    assert solver.objective() == rat(5, 2)


def test_crash_rejects_an_infeasible_basis(d):
    # Row 1's edges in columns 0 and 1, and the 2x2 block on rows 0, 1:
    # with row 0's star already basic, the exact solution of the crashed
    # basis needs a negative weight.
    bad = [Biclique(0b10, 0b11), Biclique(0b11, 0b11)]
    rest = [b for b in enumerate_all_bicliques(d) if b not in bad]
    solver, ids = star_started_solver(d, bad + rest)
    twin, _ = star_started_solver(d, bad + rest)
    basis, t, delta = list(solver.basis), solver.T.copy(), solver.delta
    assert not solver.crash(ids[:2])
    assert solver.basis == basis
    assert solver.T.dtype == t.dtype and np.array_equal(solver.T, t)
    assert solver.delta == delta
    solver.reoptimize()
    twin.reoptimize()
    assert solver.objective() == twin.objective() == rat(5, 2)
    assert solver.primal_by_id() == twin.primal_by_id()
    assert solver.duals() == twin.duals()


def test_python_int_regime_gives_the_same_answers(d, crown5, monkeypatch):
    partition = build_master(d, enumerate_all_bicliques(d), PARTITION)
    cover = build_master(crown5, enumerate_maximal(crown5), COVER)
    expected = [solve(partition), solve(cover)]
    promotions = 0
    promote = SimplexSolver._promote

    def counting(self):
        nonlocal promotions
        promotions += 1
        promote(self)

    monkeypatch.setattr(SimplexSolver, "_promote", counting)
    monkeypatch.setattr(lp, "_INT64_GUARD", 1 << 4)
    assert [solve(partition), solve(cover)] == expected
    assert promotions >= 2
    report = run(kronecker(d, d), ColGenConfig())
    assert report.converged and report.value == rat(6)


def test_primal_by_id_matches_solution(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    solver = SimplexSolver(prog.num_rows, PARTITION)
    cids = [solver.add_column(bits) for bits in prog.columns]
    status = solver.solve_from_cold()
    assert status == "optimal"
    assert solver.objective() == rat(5, 2)
    by_id = solver.primal_by_id()
    assert sum(by_id.values(), rat(0)) == rat(5, 2)
    assert all(v > 0 for v in by_id.values())
    assert set(by_id) <= set(cids)


# ---------------------------------------------------------------------------
# Integer solves
# ---------------------------------------------------------------------------

def test_integer_partition_and_cover(d):
    res = solve_integer(build_master(d, enumerate_all_bicliques(d), PARTITION))
    assert res.objective == 3
    res = solve_integer(build_master(d, enumerate_maximal(d), COVER))
    assert res.objective == 2


def test_integer_selection_is_a_partition(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    res = solve_integer(prog)
    chosen = [bits for bits, take in zip(prog.columns, res.selection) if take]
    total = 0
    for bits in chosen:
        assert total & bits == 0
        total |= bits
    assert total == (1 << prog.num_rows) - 1


def test_integer_node_cap(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    with pytest.raises(NodeCapExceeded):
        solve_integer(prog, node_cap=1)


def test_integer_matches_float_reference(rng):
    # The LP value never exceeds the integer one; both bound each other
    # within the integrality gap on tiny instances.
    for _ in range(15):
        a = random_binary_matrix(rng, 3, 3)
        bs = enumerate_maximal(a)
        prog = build_master(a, bs, COVER)
        frac = solve(prog).objective
        res = solve_integer(prog)
        assert frac <= res.objective
        sums = edge_sums(prog, [rat(v) for v in res.selection])
        assert all(s >= 1 for s in sums)
        better = [s for s in range(res.objective)]
        assert len(better) == res.objective  # objective is a plain int
