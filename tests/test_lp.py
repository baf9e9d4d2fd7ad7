from fractions import Fraction

import numpy as np
import pytest

import fracbp.lp as lp
from fracbp.colgen import initial_stars
from fracbp.core import (Biclique, BinaryMatrix, crown, enumerate_all_bicliques,
                         incidence_column)
from fracbp.errors import ContractViolation, InvariantViolation, NodeCapExceeded
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
from fracbp._rational import rat, rat_ceil
from fracbp.bounds import fractional_cover_number, integer_partition_number

from oracles import brute_integer_number, float_lp_value, random_binary_matrix


@pytest.fixture(autouse=True, scope="module")
def verified_pivots():
    """Every pivot in this module re-checks that its Sylvester division
    is exact."""
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


def test_solver_refuses_an_empty_or_out_of_range_column(d):
    m = d.num_edges
    with pytest.raises(ContractViolation, match="column 1 empty"):
        LinearProgram(m, (0b1, 0), PARTITION)
    with pytest.raises(ContractViolation, match="column 0 empty"):
        LinearProgram(m, (-1,), PARTITION)
    with pytest.raises(ContractViolation, match="out of row range"):
        LinearProgram(m, (1 << m,), PARTITION)
    with pytest.raises(ContractViolation, match="unknown sense"):
        LinearProgram(m, (0b1,), "maximize")
    solver = SimplexSolver(LinearProgram(m, ((1 << m) - 1,), PARTITION))
    assert solver.solve_from_cold() == "optimal"
    assert solver.objective() == rat(1)


@pytest.mark.parametrize("dtype, top", [(np.int64, 1 << 20), (object, 1 << 70)])
def test_the_csc_lists_each_column_and_sums_it_exactly(rng, dtype, top):
    # Root LPs and node LPs: the root's columns cut to a child's rows
    # after one column is fixed at one, renumbered by `_remap`.  Python
    # ints of up to 70 bits sum past 2^63, where int64 would wrap.
    progs = []
    for a in seeded_matrices(rng, 12):
        for prog in integer_models(a):
            progs.append(prog)
            full = (1 << prog.num_rows) - 1
            cols = list(enumerate(prog.columns))
            rows, live = lp._fix_one(prog.sense, full, cols, rng.randrange(len(cols)))
            if rows and live:
                progs.append(lp._remap(prog.sense, rows, live))
    assert len(progs) > 30
    for prog in progs:
        indptr, indices = prog.csc
        assert prog.csc is prog.csc
        assert indptr.dtype == indices.dtype == np.intp
        assert len(indptr) == prog.num_cols + 1 and indptr[0] == 0
        for bits, start, stop in zip(prog.columns, indptr, indptr[1:]):
            rows = indices[start:stop].tolist()
            assert rows == sorted(rows) and sum(1 << r for r in rows) == bits
        y = [rng.randint(-top, top) for _ in range(prog.num_rows)]
        sums = prog.column_sums(np.array(y, dtype=dtype))
        assert sums.dtype == dtype
        assert sums.tolist() == [sum(v for r, v in enumerate(y) if (bits >> r) & 1)
                                 for bits in prog.columns]


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


def test_certificate_checks_refuse_bad_certificates(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    sol = solve(prog)
    x, y, obj = list(sol.primal), list(sol.dual), sol.objective
    lp._check_optimal(prog, x, y, obj)
    # A step of 1/den, den beyond every denominator in the certificate.
    step = Fraction(1, 7 * max(v.denominator for v in x + y))

    bad = list(x)
    bad[x.index(0)] = -step
    with pytest.raises(InvariantViolation, match="negative primal"):
        lp._check_optimal(prog, bad, y, obj)

    bad = list(x)
    bad[x.index(0)] = step
    with pytest.raises(InvariantViolation, match="primal infeasible"):
        lp._check_optimal(prog, bad, y, obj)

    with pytest.raises(InvariantViolation, match="strong duality"):
        lp._check_optimal(prog, x, y, obj + step)

    # Raise one dual on a tight column, and the objective with it, so
    # only dual feasibility breaks.
    tight = next(k for k, v in enumerate(x) if v > 0)
    row = (prog.columns[tight] & -prog.columns[tight]).bit_length() - 1
    bad = list(y)
    bad[row] += step
    with pytest.raises(InvariantViolation, match=f"dual infeasible at column {tight}"):
        lp._check_optimal(prog, x, bad, obj + step)


def test_farkas_check_refuses_a_violated_ray(d):
    cols = [b for b in enumerate_all_bicliques(d) if b.num_edges >= 4]
    prog = build_master(d, cols, PARTITION)
    ray = list(solve(prog).dual)
    lp._check_farkas(prog, ray)
    # Lift one row of column 0 until that column sums to 1/den > 0.
    bits = prog.columns[0]
    row = (bits & -bits).bit_length() - 1
    total = sum((ray[r] for r in range(prog.num_rows) if (bits >> r) & 1), rat(0))
    step = Fraction(1, 7 * max(v.denominator for v in ray))
    ray[row] += step - total
    with pytest.raises(InvariantViolation, match="Farkas ray violated by column 0"):
        lp._check_farkas(prog, ray)


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
# Warm starts
# ---------------------------------------------------------------------------

def test_solve_is_deterministic(rng):
    for _ in range(10):
        a = random_binary_matrix(rng, 4, 4)
        prog = build_master(a, enumerate_maximal(a), COVER)
        assert solve(prog) == solve(prog)


def basis_matrix(solver):
    """The solver's basis matrix B of columns and surpluses."""
    m = solver.m
    b = np.zeros((m, m), dtype=np.int64)
    for slot, code in enumerate(solver.basis):
        if code >= 0:
            b[[r for r in range(m) if (solver.lp.columns[code] >> r) & 1], slot] = 1
        else:
            b[-1 - code, slot] = -1
    return b


def test_cover_start_is_a_closed_form_inverse(d, crown5):
    # A minimal cover of crown5's maximals, the other rows on surpluses:
    # T is B^-1 exactly at delta 1 and every basic value is the row's
    # cover count minus one, or 1 for a start column.
    prog = build_master(crown5, enumerate_maximal(crown5), COVER)
    solver = SimplexSolver(prog)
    assert solver.install_start()
    m = prog.num_rows
    b = basis_matrix(solver)
    assert solver.delta == 1 and np.array_equal(solver.T @ b, np.eye(m))
    start = [code for code in solver.basis if code >= 0]
    count = [sum((prog.columns[k] >> r) & 1 for k in start) for r in range(m)]
    x = solver.T.sum(axis=1)
    for slot, code in enumerate(solver.basis):
        if code < 0:
            assert -1 - code == slot  # a surplus on its own row
        assert x[slot] == (1 if code >= 0 else count[slot] - 1)
    solver.reoptimize()
    assert solver.objective() == rat(10, 3)
    # A partition starts from each row's lowest-id singleton column:
    # B = T = I, every value 1.
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    solver = SimplexSolver(prog)
    assert solver.install_start()
    m = prog.num_rows
    assert solver.basis == [min(k for k, bits in enumerate(prog.columns) if bits == 1 << r)
                            for r in range(m)]
    assert solver.delta == 1 and np.array_equal(solver.T, np.eye(m))
    assert np.array_equal(basis_matrix(solver), np.eye(m))
    solver.reoptimize()
    assert solver.objective() == rat(5, 2)
    # No start without a singleton on every row, or when a row is bare.
    assert not SimplexSolver(LinearProgram(2, (0b11, 0b01), PARTITION)).install_start()
    assert not SimplexSolver(LinearProgram(3, (0b011, 0b001), COVER)).install_start()


def random_4_to_7(rng):
    while True:
        m, n = rng.randint(4, 7), rng.randint(4, 7)
        a = BinaryMatrix(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
        if a.num_edges:
            return a


def random_6x6(rng):
    return BinaryMatrix(6, 6, tuple(rng.getrandbits(6) | 1 for _ in range(6)))


def cold_objective(prog):
    solver = SimplexSolver(prog)
    assert solver.solve_from_cold() == "optimal"
    return solver.objective(), solver.pivots


def test_started_solve_matches_the_cold_solve(rng):
    for _ in range(40):
        a = random_4_to_7(rng)
        for bicliques, sense in ((enumerate_maximal(a), COVER),
                                 (enumerate_all_bicliques(a), PARTITION)):
            prog = build_master(a, bicliques, sense)
            sol = solve(prog)
            assert sol.status == "optimal"
            assert sol.objective == cold_objective(prog)[0]


def test_covers_never_start_cold(rng, crown5, monkeypatch):
    calls = 0
    cold = SimplexSolver.solve_from_cold

    def counting(self):
        nonlocal calls
        calls += 1
        return cold(self)

    monkeypatch.setattr(SimplexSolver, "solve_from_cold", counting)
    assert fractional_cover_number(crown5) == rat(10, 3)
    for _ in range(10):
        assert fractional_cover_number(random_6x6(rng)) > 0
    assert calls == 0


def test_cover_start_takes_under_half_the_cold_pivots(rng, crown5, monkeypatch):
    started = 0
    optimize = SimplexSolver._optimize

    def counting(self, phase):
        nonlocal started
        before = self.pivots
        optimize(self, phase)
        started += self.pivots - before

    progs = [build_master(crown5, enumerate_maximal(crown5), COVER)]
    for _ in range(20):
        a = random_6x6(rng)
        progs.append(build_master(a, enumerate_maximal(a), COVER))
    cold = sum(cold_objective(prog)[1] for prog in progs)
    monkeypatch.setattr(SimplexSolver, "_optimize", counting)
    for prog in progs:
        solve(prog)
    assert 0 < 2 * started < cold


def test_cover_missing_a_row_returns_a_farkas_ray():
    # Row 2 is in no column, so the cover is infeasible.
    prog = LinearProgram(4, (0b0011, 0b1001, 0b0001), COVER)
    sol = solve(prog)
    assert sol.status == "infeasible"
    y = sol.dual
    assert all(v >= 0 for v in y) and sum(y, rat(0)) > 0
    for bits in prog.columns:
        assert sum(y[r] for r in range(prog.num_rows) if (bits >> r) & 1) <= 0


@pytest.mark.parametrize("sense", [PARTITION, COVER])
def test_an_lp_without_columns_is_infeasible(sense):
    prog = LinearProgram(3, (), sense)
    assert prog.column_sums(np.ones(3, dtype=np.int64)).tolist() == []
    sol = solve(prog)
    assert sol.status == "infeasible" and sol.dual == (rat(1),) * 3
    lp._check_farkas(prog, list(sol.dual))
    with pytest.raises(ContractViolation, match="integer model is infeasible"):
        solve_integer(prog)


def test_crown9_cover_reaches_the_python_int_regime(monkeypatch):
    # Without a lowered guard: crown(9)'s cover basis outgrows int64
    # and shrinks back into it.
    promotions = demotions = 0
    promote, set_matrix = SimplexSolver._promote, SimplexSolver._set_matrix

    def counting_promote(self):
        nonlocal promotions
        promotions += 1
        promote(self)

    def counting_set(self, t, delta):
        nonlocal demotions
        set_matrix(self, t, delta)
        demotions += t.dtype == object and self.T.dtype != object

    monkeypatch.setattr(SimplexSolver, "_promote", counting_promote)
    monkeypatch.setattr(SimplexSolver, "_set_matrix", counting_set)
    assert fractional_cover_number(crown(9)) == Fraction(18, 5)
    assert promotions >= 1 and demotions >= 1


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


def test_primal_by_id_matches_solution(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    solver = SimplexSolver(prog)
    status = solver.solve_from_cold()
    assert status == "optimal"
    assert solver.objective() == rat(5, 2)
    by_id = solver.primal_by_id()
    assert sum(by_id.values(), rat(0)) == rat(5, 2)
    assert all(v > 0 for v in by_id.values())
    assert set(by_id) <= set(range(prog.num_cols))
    # The ids index the columns: the weights partition the edges.
    x = [by_id.get(k, rat(0)) for k in range(prog.num_cols)]
    assert edge_sums(prog, x) == [rat(1)] * prog.num_rows


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
        assert res.objective == sum(res.selection)
        assert res.objective >= rat_ceil(frac)


def seeded_matrices(rng, count):
    """`count` seeded matrices of 3 to 5 rows and columns, each with a one."""
    out = []
    while len(out) < count:
        m, n = rng.randint(3, 5), rng.randint(3, 5)
        a = BinaryMatrix(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
        if a.num_edges:
            out.append(a)
    return out


def integer_models(a):
    """The partition LP over every biclique and the cover LP over the
    maximal ones, as bounds.integer_partition_number and
    integer_cover_number build them."""
    return [build_master(a, enumerate_all_bicliques(a), PARTITION),
            build_master(a, enumerate_maximal(a), COVER)]


def assert_exact_selection(prog, res):
    sums = edge_sums(prog, [rat(v) for v in res.selection])
    if prog.sense == PARTITION:
        assert sums == [1] * prog.num_rows
    else:
        assert all(s >= 1 for s in sums)
    assert res.objective == sum(res.selection)


def test_integer_matches_brute_force(rng):
    for a in seeded_matrices(rng, 30):
        for prog in integer_models(a):
            res = solve_integer(prog)
            assert res.objective == brute_integer_number(a, prog.sense)
            assert_exact_selection(prog, res)


def python_dual_bound(prog, row_mask, live, duals):
    """`_BranchAndBound._dual_bound` as a loop over Python integers and
    the live columns cut to the node's rows: its reference."""
    rows = [r for r in range(prog.num_rows) if (row_mask >> r) & 1]
    nums = [int(v) for v in np.rint(duals[rows] * 2.0 ** lp._DUAL_BITS).tolist()]
    if prog.sense == COVER and min(nums) < 0:
        return None
    y = dict(zip(rows, nums))
    keep = (1 << lp._SHRINK_BITS) - 1
    limit = 1 << (lp._DUAL_BITS + lp._SHRINK_BITS)
    for k in live:
        bits = prog.columns[k] & row_mask
        if sum(v for r, v in y.items() if (bits >> r) & 1) * keep > limit:
            return None
    return -(-sum(nums) * keep // limit)


def test_dual_bound_matches_python_integers(d, crown5, rng):
    # HiGHS's root duals and random ones, on random node rows and live
    # columns; scaled by 2^30 every sum leaves int64's range.
    for a in [d, crown5] + seeded_matrices(rng, 6):
        for prog in integer_models(a):
            search = lp._BranchAndBound(prog, lp.NODE_CAP, 1, None)
            model = lp._node_model(prog)
            ids = np.arange(prog.num_cols)
            root_duals = lp._highs_node(model, *search._bounds(ids, []))[1]
            for t in range(12):
                row_mask = rng.getrandbits(prog.num_rows) or 1
                live = sorted(rng.sample(range(prog.num_cols),
                                         rng.randint(1, prog.num_cols)))
                duals = root_duals if t % 2 else np.array(
                    [rng.uniform(-0.5, 1) for _ in range(prog.num_rows)])
                for scale in (1.0, 2.0 ** 30):
                    want = python_dual_bound(prog, row_mask, live, duals * scale)
                    got = search._dual_bound(row_mask, np.array(live), duals * scale)
                    assert got == want
            duals = root_duals.copy()
            duals[0] = np.nan
            assert search._dual_bound(1, ids, duals) is None
    # At the shrink's edge: a one-row column takes y = 1 + 2^-30, and
    # refuses one step of 2^-40 more.
    prog = LinearProgram(1, (1,), PARTITION)
    search = lp._BranchAndBound(prog, lp.NODE_CAP, 1, None)
    for dual, want in ((1 + 2.0 ** -30, 1), (1 + 2.0 ** -30 + 2.0 ** -40, None)):
        duals = np.array([dual])
        assert search._dual_bound(1, np.array([0]), duals) == want
        assert python_dual_bound(prog, 1, [0], duals) == want


def test_branch_and_bound_floats_only_steer(d, crown5, rng, monkeypatch):
    progs = [prog for a in [d, crown5] + seeded_matrices(rng, 8)
             for prog in integer_models(a)]
    expected = [solve_integer(prog).objective for prog in progs]
    exact = []
    real_solve, real_node = lp.solve, lp._highs_node
    monkeypatch.setattr(lp, "solve", lambda prog: exact.append(prog) or real_solve(prog))

    # HiGHS fails at every node, so every node is one exact solve.
    monkeypatch.setattr(lp, "_highs_node", lambda model, lower, upper: None)
    for prog, want in zip(progs, expected):
        exact.clear()
        res = solve_integer(prog)
        assert res.objective == want and len(exact) == res.nodes
        assert_exact_selection(prog, res)

    # HiGHS raises row 0's dual by 1e-3.  Where row 0 is live, some
    # live column through it is basic and tight over the node's rows,
    # so the raised dual breaks its constraint and the node falls back.
    # Over a cover's rows a column can be tight only on all its rows,
    # so there this holds for nodes that keep every row, such as the
    # root's x=0 child.
    def raised(model, lower, upper):
        vertex = real_node(model, lower, upper)
        if vertex is not None:
            vertex[1][0] += 1e-3
        return vertex

    seen = []
    real_search = lp._BranchAndBound.node

    def node(search, row_mask, cols, ones):
        before = len(exact)
        out = real_search(search, row_mask, cols, ones)
        seen.append((row_mask, len(exact) > before))
        return out

    monkeypatch.setattr(lp, "_highs_node", raised)
    monkeypatch.setattr(lp._BranchAndBound, "node", node)
    for prog, want in zip(progs, expected):
        seen.clear()
        res = solve_integer(prog)
        assert res.objective == want
        assert_exact_selection(prog, res)
        full = (1 << prog.num_rows) - 1
        checked = [fell for rows, fell in seen
                   if rows == full or (rows & 1 and prog.sense == PARTITION)]
        assert all(checked) and (checked or res.nodes == 1)


def test_branch_and_bound_checks_integral_leaves(d, crown5, rng, monkeypatch):
    # A node is closed on an integral float x only if its columns pass
    # both exact checks: they partition (or cover) the node's rows, and
    # there are as many as the node's checked dual bound.
    progs = [prog for a in [d, crown5] + seeded_matrices(rng, 8)
             for prog in integer_models(a)]
    expected = [solve_integer(prog).objective for prog in progs]
    real_node = lp._highs_node

    def rounded(prog):
        # Every node looks integral, and most such x are no partition.
        def fake(model, lower, upper):
            vertex = real_node(model, lower, upper)
            return None if vertex is None else (np.rint(vertex[0]), vertex[1])
        return fake

    def singletons(prog):
        # x partitions the node's rows by the singleton columns of a
        # partition LP, which takes more columns than its optimum.
        single = {bits.bit_length() - 1: k for k, bits in enumerate(prog.columns)
                  if not bits & (bits - 1)}

        def fake(model, lower, upper):
            vertex = real_node(model, lower, upper)
            if vertex is None:
                return None
            covered = 0
            for k in np.nonzero(lower)[0]:
                covered |= prog.columns[k]
            x = lower.copy()
            for r, k in single.items():
                if not (covered >> r) & 1 and upper[k]:
                    x[k] = 1
            return x, vertex[1]
        return fake

    for make, senses in ((rounded, (PARTITION, COVER)), (singletons, (PARTITION,))):
        for prog, want in zip(progs, expected):
            if prog.sense in senses:
                monkeypatch.setattr(lp, "_highs_node", make(prog))
                res = solve_integer(prog)
                assert res.objective == want
                assert_exact_selection(prog, res)


def test_branch_and_bound_builds_one_model(crown5, monkeypatch):
    prog = build_master(crown5, enumerate_all_bicliques(crown5), PARTITION)
    models, exact = [], []
    real_model, real_solve = lp.highs_model, lp.solve
    monkeypatch.setattr(lp, "highs_model",
                        lambda *args: models.append(args) or real_model(*args))
    monkeypatch.setattr(lp, "solve", lambda p: exact.append(p) or real_solve(p))
    first = solve_integer(prog)
    assert first.objective == 5 and first.nodes > 1
    assert len(models) == 1 and exact == [prog]
    assert solve_integer(prog) == first


def test_branch_and_bound_models_are_not_presolved(crown5, monkeypatch):
    # The node model holds every column from the start.
    presolves = []
    real_model = lp.highs_model
    monkeypatch.setattr(lp, "highs_model",
                        lambda *args: presolves.append(args[-1]) or real_model(*args))
    value, _, nodes = integer_partition_number(crown5)
    assert value == 5 and nodes > 1
    assert presolves == [False]


def test_integer_node_cap_past_the_root(crown5):
    for prog, cap, optimum in zip(integer_models(crown5), (3, 2), (5, 4)):
        with pytest.raises(NodeCapExceeded) as info:
            solve_integer(prog, node_cap=cap)
        assert info.value.root_bound == Fraction(10, 3)
        assert info.value.incumbent is None or info.value.incumbent >= optimum


def test_a_nonpositive_node_cap_is_refused(d):
    prog = build_master(d, enumerate_all_bicliques(d), PARTITION)
    for cap in (0, -5):
        with pytest.raises(ContractViolation):
            solve_integer(prog, node_cap=cap)


def test_an_incumbent_is_checked_edge_by_edge(d):
    bicliques = enumerate_all_bicliques(d)
    partition = build_master(d, bicliques, PARTITION)
    cover = build_master(d, enumerate_maximal(d), COVER)
    index = {b: k for k, b in enumerate(bicliques)}
    rows = [index[b] for b in initial_stars(d)]
    # Row 0's star and column 0's star share the one (0, 0).
    col0 = index[Biclique(0b011, 0b001)]
    assert solve_integer(partition, incumbent=rows).objective == 3
    for bad in (rows + [col0],          # overlaps
                rows[:-1],              # leaves the ones of row 2 bare
                rows + [rows[0]],       # repeats an id
                rows[:-1] + [partition.num_cols],
                rows[:-1] + [-1]):
        with pytest.raises(ContractViolation):
            solve_integer(partition, incumbent=bad)
    # The same overlap is a valid cover; one maximal alone covers too little.
    assert solve_integer(build_master(d, bicliques, COVER),
                         incumbent=rows + [col0]).objective == 2
    for bad in ([0], [0, 0, 1], [cover.num_cols]):
        with pytest.raises(ContractViolation):
            solve_integer(cover, incumbent=bad)


def test_the_stars_keep_the_integer_objective(rng):
    import fracbp.bounds as bounds

    for a in seeded_matrices(rng, 40):
        pools = (enumerate_all_bicliques(a), enumerate_maximal(a))
        starts = (bounds._stars(a), bounds._closed_stars(a))
        for pool, start, sense in zip(pools, starts, (PARTITION, COVER)):
            prog = build_master(a, pool, sense)
            incumbent = bounds._ids(pool, start)
            plain = solve_integer(prog)
            seeded = solve_integer(prog, incumbent=incumbent)
            assert seeded.objective == plain.objective <= len(incumbent)
            assert_exact_selection(prog, plain)
            assert_exact_selection(prog, seeded)


def brute_lp_integer(prog):
    """The fewest columns of `prog` that partition (or cover) its rows,
    by trying every column subset; None when no subset does."""
    full = (1 << prog.num_rows) - 1
    best = None
    for subset in range(1 << prog.num_cols):
        picked = [bits for k, bits in enumerate(prog.columns) if subset >> k & 1]
        covered = 0
        for bits in picked:
            covered |= bits
        exact = sum(bits.bit_count() for bits in picked) == full.bit_count()
        if covered == full and (prog.sense == COVER or exact):
            if best is None or len(picked) < best:
                best = len(picked)
    return best


def test_an_lp_with_no_01_solution_is_infeasible_not_a_bug(rng):
    # The LP optimum is 3/2 (each column at 1/2), but no two of the three
    # columns partition the rows, and no one of them alone does.
    prog = LinearProgram(3, (0b011, 0b110, 0b101), PARTITION)
    assert solve(prog).objective == rat(3, 2)
    with pytest.raises(ContractViolation, match="integer model is infeasible"):
        solve_integer(prog)
    refused = 0
    for _ in range(120):
        m, n = rng.randint(3, 6), rng.randint(3, 8)
        columns = tuple(rng.randrange(1, 1 << m) for _ in range(n))
        for sense in (PARTITION, COVER):
            prog = LinearProgram(m, columns, sense)
            best = brute_lp_integer(prog)
            if best is None:
                refused += 1
                with pytest.raises(ContractViolation,
                                   match="integer model is infeasible"):
                    solve_integer(prog)
            else:
                res = solve_integer(prog)
                assert res.objective == best
                assert_exact_selection(prog, res)
    assert refused
