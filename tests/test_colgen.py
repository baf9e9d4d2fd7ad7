"""Column generation driver: init strategies, convergence, certificates,
the float mirror, checkpoint/resume, and determinism."""

import json

import pytest

import numpy as np

from fracbp._rational import rat
from fracbp.colgen import (
    CHECKPOINT_VERSION,
    ColGenConfig,
    _FloatBuffer,
    initial_kronecker_support,
    initial_stars,
    load_checkpoint,
    run,
    solve_power,
    write_checkpoint,
)
from fracbp.core import (
    BinaryMatrix,
    Biclique,
    EdgeWeights,
    bit_indices,
    crown,
    domino,
    enumerate_all_bicliques,
    incidence_column,
    kronecker,
    kronecker_power,
    matrix_hash,
)
from fracbp.errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
    InvariantViolation,
    SizeCapExceeded,
)
from fracbp.lp import PARTITION, SimplexSolver, build_master, solve
from fracbp.maximal import enumerate_maximal
from fracbp.pricing import price_all

from oracles import highs_ds_vertex, random_binary_matrix

FIVE_HALVES = rat(5, 2)
SIX = rat(6)


def total_edge_weight(a, support, i, j):
    idx = a.edge_index[(i, j)]
    total = rat(0)
    for b, w in support:
        if (b.row_set >> i) & 1 and (b.col_set >> j) & 1:
            total += w
    return total


def assert_is_fractional_partition(a, support):
    for (i, j) in a.edges:
        assert total_edge_weight(a, support, i, j) == 1
    for _, w in support:
        assert w > 0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_strategy():
    for strategy in ("everything", "kron"):
        with pytest.raises(ContractViolation):
            ColGenConfig(init_strategy=strategy)


def test_config_rejects_negative_epsilon():
    with pytest.raises(ContractViolation):
        ColGenConfig(epsilon=rat(-1, 10))


def test_config_rejects_nonpositive_counters():
    with pytest.raises(ContractViolation):
        ColGenConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# Initial columns
# ---------------------------------------------------------------------------

def test_row_stars_of_domino(d):
    stars = initial_stars(d)
    assert stars == [
        Biclique(0b001, 0b011),
        Biclique(0b010, 0b111),
        Biclique(0b100, 0b110),
    ]
    sol = solve(build_master(d, stars, PARTITION))
    assert sol.status == "optimal" and sol.objective == 3


def test_zero_rows_get_no_star():
    a = BinaryMatrix.from_dense([[1, 1], [0, 0], [0, 1]])
    assert len(initial_stars(a)) == 2


def test_kronecker_support_products_dedup_and_stay_feasible(d):
    base = [b for b, _ in run(d, ColGenConfig()).support]
    lifted = initial_kronecker_support(base, base, (3, 3))
    assert len(lifted) <= len(base) ** 2
    assert len(lifted) == len(set(lifted))
    dd = kronecker(d, d)
    sol = solve(build_master(dd, lifted, PARTITION))
    assert sol.status == "optimal"
    assert SIX <= sol.objective <= rat(25, 4)


# ---------------------------------------------------------------------------
# Convergence on known instances
# ---------------------------------------------------------------------------

def test_all_bicliques_init_converges_in_one_iteration(d):
    report = run(d, ColGenConfig(init_strategy="all"))
    assert report.converged
    assert report.value == FIVE_HALVES
    assert report.iterations == 1
    assert report.final_alpha <= 1 + rat(1, 1_000_000)
    assert_is_fractional_partition(d, report.support)


def test_union_init_matches_all_on_base_matrix(d):
    report = run(d, ColGenConfig(init_strategy="union"))
    assert report.converged and report.value == FIVE_HALVES
    assert report.iterations == 1


def test_stars_init_reaches_same_optimum(d):
    report = run(d, ColGenConfig(init_strategy="stars"))
    assert report.converged and report.value == FIVE_HALVES
    assert_is_fractional_partition(d, report.support)


# The 9x9 all-ones matrix has (2^9 - 1)^2 = 261121 bicliques, more
# than enumerate_all_bicliques' default cap of 100000.
J9 = BinaryMatrix.from_dense([[1] * 9] * 9)


def test_union_falls_back_to_stars_when_enumeration_refuses():
    report = run(J9, ColGenConfig(init_strategy="union"))
    assert report.converged and report.value == 1


def test_all_init_surfaces_enumeration_refusal():
    with pytest.raises(SizeCapExceeded):
        run(J9, ColGenConfig(init_strategy="all"))


def test_union_init_accepts_lifted_columns(d):
    base = [b for b, _ in run(d, ColGenConfig()).support]
    dd = kronecker(d, d)
    lifted = initial_kronecker_support(base, base, (3, 3))
    report = run(dd, ColGenConfig(init_strategy="union"), extra_initial=lifted)
    assert report.converged and report.value == SIX


def test_empty_matrix_is_rejected():
    with pytest.raises(EmptyGraphError):
        run(BinaryMatrix.from_dense([[0, 0], [0, 0]]), ColGenConfig())


def test_foreign_initial_column_is_rejected(d):
    with pytest.raises(ContractViolation):
        run(d, ColGenConfig(), extra_initial=[Biclique(0b111, 0b111)])


# ---------------------------------------------------------------------------
# Report invariants
# ---------------------------------------------------------------------------

def test_records_are_monotone_and_bounded(d, m5, one_inner_round):
    for matrix in (d, m5):
        report = run(matrix, ColGenConfig(init_strategy="stars"))
        objectives = [r.objective for r in report.records]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))
        assert report.value == objectives[-1]
        for rec in report.records:
            assert rec.lower_bound <= rec.objective
            assert rec.pool_size > 0
        assert report.best_lower_bound <= report.value
    assert len(report.records) >= 2


def test_dual_certificate_prices_below_one_everywhere(d):
    report = run(d, ColGenConfig())
    scale = report.final_alpha if report.final_alpha > 1 else rat(1)
    weights = EdgeWeights(d, [y / scale for y in report.dual])
    alpha, _ = price_all(enumerate_maximal(d), weights, rat(2))
    assert alpha <= 1 + rat(1, 1_000_000)
    assert sum(report.dual, rat(0)) == report.value


def test_iteration_cap_reports_honest_upper_bound(m5, one_inner_round):
    report = run(m5, ColGenConfig(init_strategy="stars", max_iterations=1))
    assert not report.converged
    assert report.value >= 4
    assert report.best_lower_bound <= 4
    assert_is_fractional_partition(m5, report.support)


def test_reports_are_deterministic(d, m5, one_inner_round):
    for a in (d, m5):
        first = run(a, ColGenConfig(init_strategy="stars"))
        second = run(a, ColGenConfig(init_strategy="stars"))
        assert first.records == second.records
        assert first.support == second.support
        assert first.dual == second.dual
        assert first.value == second.value
    assert len(first.records) >= 2


def test_timings_book_the_float_mirror_apart(d):
    report = solve_power(d, 2, ColGenConfig())
    assert report.converged and report.value == SIX
    # The float mirror is booked apart from exact pricing.
    assert {"master", "pricing", "float"} <= set(report.timings)
    assert report.timings["float"] > 0


def test_float_vertex_leaves_the_exact_master_few_pivots(monkeypatch):
    # The float mirror's optimal basis is crashed into the exact master,
    # which then only certifies it in one pricing pass; from its last
    # basis alone the master walks 1292 pivots here.
    pivots = 0
    reoptimize = SimplexSolver.reoptimize

    def counting(self):
        nonlocal pivots
        before = self.pivots
        reoptimize(self)
        pivots += self.pivots - before

    monkeypatch.setattr(SimplexSolver, "reoptimize", counting)
    report = run(kronecker(crown(3), crown(4)), ColGenConfig())
    assert report.converged and report.value == 9
    assert pivots <= 1


def test_crash_rebuilds_highs_basis_with_one_exchange_per_code(
        d, crown5, rng, monkeypatch):
    # The crash takes HiGHS's optimal basis, artificials of its basic
    # rows first: at most m codes, each costing at most one tableau
    # column, and the exact master it leaves is already optimal.
    ftrans = 0
    crashes = []
    reopt_pivots = []
    ftran, crash, reoptimize = (SimplexSolver._ftran_scaled,
                                SimplexSolver.crash, SimplexSolver.reoptimize)

    def counting_ftran(self, code):
        nonlocal ftrans
        ftrans += 1
        return ftran(self, code)

    def recording_crash(self, codes):
        before = ftrans
        accepted = crash(self, codes)
        crashes.append((self.m, len(codes), ftrans - before, accepted))
        return accepted

    def counting_reoptimize(self):
        before = self.pivots
        reoptimize(self)
        reopt_pivots.append(self.pivots - before)

    monkeypatch.setattr(SimplexSolver, "_ftran_scaled", counting_ftran)
    monkeypatch.setattr(SimplexSolver, "crash", recording_crash)
    monkeypatch.setattr(SimplexSolver, "reoptimize", counting_reoptimize)
    cases = [kronecker(crown(3), crown(4)), kronecker(d, d), crown5]
    while len(cases) < 43:
        m, n = rng.randint(4, 7), rng.randint(4, 7)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        if any(rows):
            cases.append(BinaryMatrix(m, n, rows))
    for a in cases:
        crashes.clear()
        reopt_pivots.clear()
        report = run(a, ColGenConfig())
        assert report.converged
        assert crashes and len(crashes) == len(reopt_pivots)
        for m, codes, ftran_calls, accepted in crashes:
            assert accepted and codes <= m and ftran_calls <= m
        # One pricing pass per exact master, no basis exchange.
        assert reopt_pivots == [1] * len(reopt_pivots)


# ---------------------------------------------------------------------------
# Kronecker ladder
# ---------------------------------------------------------------------------

def test_power_one_is_the_plain_run(d):
    report = solve_power(d, 1, ColGenConfig())
    assert report.converged and report.value == FIVE_HALVES


def on_the_ladder(patch):
    """Make solve_power fall back to the union ladder, as it does when
    the orbit master cannot finish."""
    import fracbp.orbits as orbits

    patch.setattr(orbits, "orbit_master", lambda *args: None)


def test_power_two_by_ladder(d, monkeypatch):
    on_the_ladder(monkeypatch)
    report = solve_power(d, 2, ColGenConfig())
    assert report.converged and report.value == SIX
    assert_is_fractional_partition(kronecker(d, d), report.support)


def test_power_two_direct_strategies_agree(d):
    report = solve_power(d, 2, ColGenConfig(init_strategy="stars"))
    assert report.converged and report.value == SIX


def test_ladder_builds_each_level_once(monkeypatch):
    import fracbp.colgen as colgen

    calls = {"kronecker": 0, "lift_maximal_kronecker": 0}

    def counting(name):
        original = getattr(colgen, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(colgen, name, wrapper)

    for name in calls:
        counting(name)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 4, ColGenConfig())
    assert report.converged and report.value == 2 ** 4
    # Levels 2, 3 and 4 each build their matrix and lift once.
    assert calls == {"kronecker": 3, "lift_maximal_kronecker": 3}


def test_ladder_lifts_each_level_from_the_one_below(monkeypatch):
    import fracbp.colgen as colgen
    import fracbp.maximal as maximal

    products = 0
    lifted = []
    product = maximal.kronecker_biclique
    lift = colgen.lift_maximal_kronecker

    def counting_product(*args):
        nonlocal products
        products += 1
        return product(*args)

    def recording_lift(*args, **kwargs):
        out = lift(*args, **kwargs)
        lifted.append(out)
        return out

    monkeypatch.setattr(maximal, "kronecker_biclique", counting_product)
    monkeypatch.setattr(colgen, "lift_maximal_kronecker", recording_lift)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 6, ColGenConfig())
    assert report.converged and report.value == 2 ** 6
    # One product per maximal biclique kept: 4 + 8 + ... + 64 over
    # levels 2..6, where lifting each level from the base took 228.
    assert products == sum(map(len, lifted)) == 124
    base = enumerate_maximal(triangle)
    for level, out in enumerate(lifted, start=2):
        assert out == lift(base, level, (2, 2))


def test_power_zero_is_rejected(d):
    with pytest.raises(ContractViolation):
        solve_power(d, 0, ColGenConfig())


def test_oversized_power_is_refused_before_any_level_is_solved(d, monkeypatch):
    import fracbp.colgen as colgen

    def refusing(*args, **kwargs):
        raise AssertionError("a level was solved before the size check")

    monkeypatch.setattr(colgen, "run", refusing)
    with pytest.raises(SizeCapExceeded):
        solve_power(d, 8, ColGenConfig())


# ---------------------------------------------------------------------------
# Orbit master
# ---------------------------------------------------------------------------

TRIANGLE = BinaryMatrix.from_dense([[1, 1], [0, 1]])

ORBIT_CASES = [
    ("domino^2", domino(), 2),
    ("domino^3", domino(), 3),
    *[(f"triangle^{k}", TRIANGLE, k) for k in range(2, 7)],
    ("crown3^2", crown(3), 2),
    ("2x3^2", BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]]), 2),
]


def orbit_report(monkeypatch, base, k, config=None):
    """solve_power on the orbit path, failing if it reaches `run`."""
    import fracbp.colgen as colgen

    def refusing(*args, **kwargs):
        raise AssertionError("the orbit master fell back to the ladder")

    with monkeypatch.context() as patch:
        patch.setattr(colgen, "run", refusing)
        return solve_power(base, k, config or ColGenConfig())


@pytest.mark.parametrize("name, base, k", ORBIT_CASES, ids=[c[0] for c in ORBIT_CASES])
def test_orbit_master_is_certified_and_matches_the_ladder(name, base, k, monkeypatch):
    report = orbit_report(monkeypatch, base, k)
    a = report.matrix
    assert a == kronecker_power(base, k)
    assert report.converged
    # alpha over one maximal per orbit is the unreduced pricing maximum
    # at the reported full-space dual.
    maximals = enumerate_maximal(a)
    alpha, _ = price_all(maximals, EdgeWeights(a, report.dual), rat(2))
    assert alpha == report.final_alpha <= 1 + ColGenConfig().epsilon
    assert sum(report.dual, rat(0)) == report.value
    assert_is_fractional_partition(a, report.support)
    assert sum((w for _, w in report.support), rat(0)) == report.value
    assert list(report.support) == sorted(
        report.support, key=lambda t: (t[0].row_set, t[0].col_set))
    with monkeypatch.context() as patch:
        on_the_ladder(patch)
        ladder = solve_power(base, k, ColGenConfig())
    assert ladder.converged and report.value == ladder.value


def test_orbit_records_count_orbit_columns_and_new_profiles(d, monkeypatch):
    seen = []
    report = orbit_report(monkeypatch, d, 3, ColGenConfig())
    again = solve_power(d, 3, ColGenConfig(), progress=seen.append)
    assert report.value == again.value == rat(2059, 149)
    assert seen == report.records == again.records
    assert report.support == again.support and report.dual == again.dual
    for before, rec in zip(report.records, report.records[1:]):
        assert rec.pool_size == before.pool_size + rec.added
    assert all(rec.pruned == 0 for rec in report.records)
    assert 0 < report.records[0].added < report.records[0].pool_size
    assert {"total", "master", "pricing", "float"} == set(report.timings)


def test_orbit_master_stops_at_the_iteration_cap(d, monkeypatch):
    import fracbp.colgen as colgen

    # With one float round per iteration D^3 takes several iterations.
    monkeypatch.setattr(colgen, "_INNER_ROUNDS", 1)
    report = orbit_report(monkeypatch, d, 3, ColGenConfig(max_iterations=2))
    assert not report.converged and report.iterations == 2
    a = report.matrix
    assert_is_fractional_partition(a, report.support)
    assert report.best_lower_bound < rat(2059, 149) < report.value


def test_orbit_master_checkpoints_and_resumes(d, monkeypatch, tmp_path):
    path = str(tmp_path / "ckpt.json")
    first = orbit_report(monkeypatch, d, 3, ColGenConfig(checkpoint_path=path))
    iteration, saved = load_checkpoint(path, first.matrix_hash)
    assert iteration == first.iterations and len(saved) == first.records[-1].pool_size
    resumed = orbit_report(monkeypatch, d, 3, ColGenConfig(checkpoint_path=path))
    assert resumed.converged and resumed.value == first.value == rat(2059, 149)
    assert resumed.records[0].iteration == iteration + 1
    assert resumed.records[0].added == 0
    # A checkpoint that `run` wrote for the same power resumes too, and
    # one for another power is refused.
    path = str(tmp_path / "run.json")
    run(kronecker_power(d, 2), ColGenConfig(init_strategy="stars", max_iterations=1,
                                            checkpoint_path=path))
    report = orbit_report(monkeypatch, d, 2, ColGenConfig(checkpoint_path=path))
    assert report.converged and report.value == SIX
    with pytest.raises(CheckpointError):
        orbit_report(monkeypatch, d, 3, ColGenConfig(checkpoint_path=path))


def test_orbit_master_falls_back_to_the_ladder(d, monkeypatch):
    import fracbp.colgen as colgen
    import fracbp.orbits as orbits

    runs = []
    run_ = colgen.run

    def counting_run(*args, **kwargs):
        runs.append(args[0])
        return run_(*args, **kwargs)

    monkeypatch.setattr(colgen, "run", counting_run)

    extend = orbits._OrbitColumns.extend

    def stalling(self, bicliques):
        # The start columns go in; no priced column ever does.
        return 0 if len(self) else extend(self, bicliques)

    def singular(patch):
        # HiGHS's rounded values fail the check and elimination finds
        # the basis singular.
        patch.setattr(orbits, "_solves", lambda matrix, x, rhs: False)
        patch.setattr(orbits, "_bareiss_solve", lambda matrix, rhs: None)

    fallbacks = [
        ("HiGHS fails", lambda patch: patch.setattr(
            colgen, "_linprog", lambda *, A_eq: None)),
        ("singular basis", singular),
        ("pricing stalls", lambda patch: patch.setattr(
            orbits._OrbitColumns, "extend", stalling)),
    ]
    for name, patching in fallbacks:
        runs.clear()
        seen = []
        with monkeypatch.context() as patch:
            patching(patch)
            report = solve_power(d, 2, ColGenConfig(), progress=seen.append)
        assert report.converged and report.value == SIX, name
        # Progress shows the ladder's records only, none of the orbit
        # master's it gave up on.
        assert seen == report.records, name
        assert_is_fractional_partition(report.matrix, report.support)
        # The ladder solves both levels, on the levels already built.
        assert [a.num_rows for a in runs] == [3, 9], name


def test_orbit_master_refuses_a_generator_that_maps_a_one_to_a_zero(d, monkeypatch):
    import fracbp.orbits as orbits
    from fracbp.symmetry import Symmetry, power_generators

    # Swapping rows 0 and 1 of the first factor alone moves the zero at
    # (0, 2) of the domino onto the one at (1, 2).
    swap = list(range(9))
    swap[0:6] = [3, 4, 5, 0, 1, 2]
    bad = Symmetry(tuple(swap), tuple(range(9)))
    monkeypatch.setattr(orbits, "power_generators",
                        lambda base, k: [*power_generators(base, k), bad])
    with pytest.raises(InvariantViolation):
        solve_power(d, 2, ColGenConfig())


def test_orbit_master_refuses_representatives_that_miss_a_maximal(d, monkeypatch):
    import fracbp.orbits as orbits
    from fracbp.symmetry import biclique_orbit, orbit_representatives

    def dropping_the_first(bicliques, gens):
        reps, _ = orbit_representatives(bicliques, gens)
        covered = {(c.row_set, c.col_set)
                   for b in reps[1:] for c in biclique_orbit(b, gens)}
        return reps[1:], covered

    monkeypatch.setattr(orbits, "orbit_representatives", dropping_the_first)
    with pytest.raises(InvariantViolation):
        solve_power(d, 2, ColGenConfig())


def test_bareiss_solve_is_exact(rng):
    from fracbp.orbits import _bareiss_solve

    assert _bareiss_solve([[1, 2], [2, 4]], [1, 2]) is None
    for _ in range(50):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-4, 9) for _ in range(n)]
        x = _bareiss_solve(matrix, rhs)
        if x is None:
            continue
        for row, b in zip(matrix, rhs):
            assert sum((c * v for c, v in zip(row, x)), rat(0)) == b


def counted_pricing(monkeypatch):
    """Count the calls that reach colgen's price_all."""
    import fracbp.colgen as colgen

    calls = [0]
    original = colgen.price_all

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(colgen, "price_all", counting)
    return calls


def test_exact_pass_reuses_the_float_pricing(monkeypatch):
    calls = counted_pricing(monkeypatch)
    on_the_ladder(monkeypatch)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 3, ColGenConfig())
    assert report.converged and report.value == 8
    # One iteration per level: the float mirror prices once, and the
    # crashed exact dual equals its dual, so the exact pass reuses it.
    assert len(report.records) == 1
    assert calls[0] == 3


def test_rejected_crash_prices_the_exact_dual_anew(monkeypatch, crown5):
    calls = counted_pricing(monkeypatch)
    report = run(crown5, ColGenConfig())
    assert report.value == rat(10, 3) and calls[0] == 1
    # From its own basis the exact master reaches another optimal dual
    # than the float mirror's, which must then be priced by itself.
    monkeypatch.setattr(SimplexSolver, "crash", lambda self, codes: False)
    calls[0] = 0
    report = run(crown5, ColGenConfig())
    assert report.converged and report.value == rat(10, 3)
    assert calls[0] == 2


def recorded_exact_masters(monkeypatch):
    """Record each float phase as (basic columns, buffered columns after
    it) and each exact master as (matrix, carried, solver, columns)."""
    import fracbp.colgen as colgen

    floats, masters = [], []
    float_phase, exact_master = colgen._float_phase, colgen._exact_master

    def recording_float_phase(a, maximals, buffer, threshold):
        result = float_phase(a, maximals, buffer, threshold)
        floats.append((result[0], list(buffer.bicliques)))
        return result

    def recording_exact_master(a, stars, carried, *rest):
        solver, columns = exact_master(a, stars, carried, *rest)
        masters.append((a, list(carried), solver, columns))
        return solver, columns

    monkeypatch.setattr(colgen, "_float_phase", recording_float_phase)
    monkeypatch.setattr(colgen, "_exact_master", recording_exact_master)
    return floats, masters


def assert_masters_take_every_buffered_column(floats, masters):
    """Each exact master is the stars, the carried columns and every
    column the float mirror held, in that order."""
    assert masters and len(floats) == len(masters)
    for (_, buffered), (a, carried, _, columns) in zip(floats, masters):
        assert columns == list(dict.fromkeys([*initial_stars(a), *carried, *buffered]))


def test_exact_master_holds_only_the_columns_the_float_vertex_names(monkeypatch):
    # The union init offers all 1824 bicliques; they seed the float
    # mirror, and the exact master takes only the stars, the carried
    # columns and the basic columns of HiGHS's optimal basis.
    floats, masters = recorded_exact_masters(monkeypatch)
    a = kronecker(crown(3), crown(4))
    report = run(a, ColGenConfig())
    assert report.converged and report.value == 9
    assert_is_fractional_partition(a, report.support)
    assert len(floats) == len(masters) == report.iterations
    stars = initial_stars(a)
    for (basic, _), (_, carried, solver, columns) in zip(floats, masters):
        assert set(columns) <= {*stars, *carried, *basic}
        assert len(solver.columns) == len(columns)


def test_rejected_crash_gives_the_exact_master_every_strategy_column(
        monkeypatch, crown5, d):
    floats, masters = recorded_exact_masters(monkeypatch)
    monkeypatch.setattr(SimplexSolver, "crash", lambda self, codes: False)
    report = run(crown5, ColGenConfig())
    assert report.converged and report.value == rat(10, 3)
    _, _, solver, columns = masters[0]
    every = enumerate_all_bicliques(crown5)
    assert len(every) == 180 and set(every) <= set(columns)
    assert [bits for bits, _ in solver.columns] == [
        incidence_column(crown5, b) for b in columns]
    assert_masters_take_every_buffered_column(floats, masters)
    floats.clear()
    masters.clear()
    on_the_ladder(monkeypatch)
    report = solve_power(d, 2, ColGenConfig())
    assert report.converged and report.value == SIX
    assert_masters_take_every_buffered_column(floats, masters)


# ---------------------------------------------------------------------------
# Float mirror
# ---------------------------------------------------------------------------

def buffered_columns(buffer):
    """The buffer's CSC columns as a dense edges x columns array; each
    column's edge indices must be ascending, as scipy's CSC lists them."""
    start, index = buffer._start, buffer._index
    assert len(start) == len(buffer) + 1 and start[-1] == len(index)
    dense = np.zeros((buffer._a.num_edges, len(buffer)))
    for k in range(len(buffer)):
        edges = index[start[k]:start[k + 1]]
        assert (np.diff(edges) > 0).all()
        dense[edges, k] = 1
    return dense


def solve_view(buffer, monkeypatch):
    """The A_eq that the buffer's solve hands to colgen._linprog."""
    import fracbp.colgen as colgen

    seen = []
    monkeypatch.setattr(colgen, "_linprog", lambda *, A_eq: seen.append(A_eq))
    buffer.solve()
    monkeypatch.undo()
    return seen[0]


def test_float_buffer_columns_are_the_incidence_columns(d, rng, monkeypatch):
    d4 = kronecker_power(d, 4)
    cases = [(a, enumerate_all_bicliques(a)) for a in (
        d, kronecker(d, d), kronecker(crown(3), crown(4)))]
    for _ in range(20):
        a = random_binary_matrix(rng, 6, 6)
        cases.append((a, enumerate_all_bicliques(a)))
    # D^4 is 81 x 81, so its masks are wider than 64 bits.
    cases.append((d4, enumerate_maximal(d4)))
    assert len(cases[-1][1]) == 256
    for a, bicliques in cases:
        buffer = _FloatBuffer(a)
        # Uneven chunks make the arrays grow inside and across calls.
        cut = len(bicliques) // 3
        assert buffer.extend(bicliques[:cut]) == cut
        assert buffer.extend(bicliques[cut:]) == len(bicliques) - cut
        assert buffer.bicliques == bicliques
        expected = np.zeros((a.num_edges, len(bicliques)))
        for k, b in enumerate(bicliques):
            expected[list(bit_indices(incidence_column(a, b))), k] = 1
        assert np.array_equal(buffered_columns(buffer), expected)
    # The sparse store passes HiGHS less than a dense float64 A_eq would.
    view = solve_view(buffer, monkeypatch)
    assert view.shape == (d4.num_edges, 256)
    assert view.nbytes < d4.num_edges * 256 * 8


def test_float_buffer_skips_buffered_bicliques(d):
    bicliques = enumerate_all_bicliques(d)
    buffer = _FloatBuffer(d)
    assert buffer.extend(bicliques + bicliques[:3]) == len(bicliques)
    before = buffered_columns(buffer).copy()
    assert buffer.extend(bicliques) == 0
    assert buffer.extend([]) == 0
    assert buffer.bicliques == bicliques
    assert np.array_equal(buffered_columns(buffer), before)


def test_float_solve_is_linprogs_vertex(d, crown5, rng):
    cases = [d, kronecker(d, d), kronecker(crown(3), crown(4)), crown5]
    while len(cases) < 44:
        m, n = rng.randint(4, 7), rng.randint(4, 7)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        if any(rows):
            cases.append(BinaryMatrix(m, n, rows))
    for a in cases:
        bicliques = enumerate_all_bicliques(a)
        buffer = _FloatBuffer(a)
        buffer.extend(bicliques)
        got, want = buffer.solve(), highs_ds_vertex(a, bicliques)
        # Every biclique is there, stars included, so the LP is feasible.
        assert got is not None and want is not None
        x, duals, basic = got
        assert np.array_equal(x, want[0]) and np.array_equal(duals, want[1])
        # One basic variable per row: a column j >= 0 or row r's slack
        # as -1 - r, never the same one twice.
        m = a.num_edges
        assert len(basic) == len(set(basic.tolist())) == m
        assert ((-m <= basic) & (basic < len(bicliques))).all()


def test_float_failure_only_loses_steering(d, m5, monkeypatch):
    import fracbp.colgen as colgen

    # Every float solve reports no optimum (append returns None), and
    # each exact master falls back to every buffered column.
    calls = []
    monkeypatch.setattr(colgen, "_linprog",
                        lambda *, A_eq: calls.append(A_eq.shape))
    floats, masters = recorded_exact_masters(monkeypatch)
    report = run(d, ColGenConfig())
    assert report.converged and report.value == FIVE_HALVES
    assert_is_fractional_partition(d, report.support)
    report = run(m5, ColGenConfig(init_strategy="stars"))
    assert report.converged and report.value == 4
    assert_is_fractional_partition(m5, report.support)
    report = solve_power(d, 2, ColGenConfig())
    assert report.converged and report.value == SIX
    assert calls
    assert all(basic == [] for basic, _ in floats)
    assert_masters_take_every_buffered_column(floats, masters)


def test_float_buffer_refuses_what_is_no_biclique(d):
    buffer = _FloatBuffer(d)
    star = Biclique(0b001, d.rows[0])
    for bad in (Biclique(0b1000, 0b001), Biclique(0b001, 0b1000),
                Biclique(0b111, 0b111)):
        with pytest.raises(ContractViolation):
            buffer.extend([star, bad])
        # A refused call buffers none of its bicliques.
        assert len(buffer) == 0
    assert buffer.extend([star]) == 1


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, d):
    stars = initial_stars(d)
    path = str(tmp_path / "state.json")
    write_checkpoint(path, matrix_hash(d), 7, stars)
    iteration, bicliques = load_checkpoint(path, matrix_hash(d))
    assert iteration == 7
    assert bicliques == stars


def test_checkpoint_rejects_bad_json(tmp_path, d):
    path = tmp_path / "state.json"
    path.write_text("{not json", encoding="ascii")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path), matrix_hash(d))


def test_checkpoint_rejects_missing_file(tmp_path, d):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "absent.json"), matrix_hash(d))


def test_checkpoint_rejects_other_version(tmp_path, d):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION + 1,
        "matrix_hash": matrix_hash(d),
        "iteration": 1,
        "entries": [],
    }), encoding="ascii")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path), matrix_hash(d))


def test_checkpoint_rejects_foreign_matrix(tmp_path, d, crown5):
    path = str(tmp_path / "state.json")
    write_checkpoint(path, matrix_hash(d), 1, initial_stars(d))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, matrix_hash(crown5))


def test_checkpoint_rejects_malformed_entries(tmp_path, d):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "version": CHECKPOINT_VERSION,
        "matrix_hash": matrix_hash(d),
        "iteration": 1,
        "entries": [{"rows": "zz", "cols": "1", "slack_counter": 0}],
    }), encoding="ascii")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path), matrix_hash(d))


def test_resume_rejects_entry_that_is_no_biclique(tmp_path, d):
    path = str(tmp_path / "state.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({
            "version": CHECKPOINT_VERSION,
            "matrix_hash": matrix_hash(d),
            "iteration": 1,
            "entries": [{"rows": "7", "cols": "7", "slack_counter": 0}],
        }, fh)
    with pytest.raises(CheckpointError):
        run(d, ColGenConfig(checkpoint_path=path))


def test_resume_reads_a_checkpoint_with_slack_counters(tmp_path, m5):
    # Checkpoints used to store a slack counter with every entry; this
    # is M5's after its first iteration from the stars, in that format.
    entries = [("1", "1c", 0), ("2", "1a", 1), ("4", "1a", 0), ("8", "8", 0),
               ("10", "2", 0), ("16", "2", 0), ("6", "18", 0), ("e", "8", 0),
               ("14", "2", 0)]
    path = str(tmp_path / "state.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({
            "version": CHECKPOINT_VERSION,
            "matrix_hash": matrix_hash(m5),
            "iteration": 1,
            "entries": [{"rows": r, "cols": c, "slack_counter": k}
                        for r, c, k in entries],
        }, fh)
    iteration, bicliques = load_checkpoint(path, matrix_hash(m5))
    assert iteration == 1
    assert bicliques == [Biclique(int(r, 16), int(c, 16)) for r, c, _ in entries]
    resumed = run(m5, ColGenConfig(init_strategy="stars", checkpoint_path=path))
    assert resumed.converged and resumed.value == 4
    assert resumed.records[0].iteration == 2
    assert_is_fractional_partition(m5, resumed.support)


def test_checkpoint_is_written_every_iteration(tmp_path, d):
    path = str(tmp_path / "state.json")
    report = run(d, ColGenConfig(init_strategy="stars", checkpoint_path=path))
    iteration, raw = load_checkpoint(path, matrix_hash(d))
    assert iteration == report.iterations
    assert len(raw) == report.records[-1].pool_size


def test_interrupted_run_resumes_to_the_same_value(tmp_path, m5, one_inner_round):
    uninterrupted = run(m5, ColGenConfig(init_strategy="stars"))

    path = str(tmp_path / "state.json")
    partial = run(m5, ColGenConfig(
        init_strategy="stars", max_iterations=1, checkpoint_path=path))
    assert not partial.converged

    resumed = run(m5, ColGenConfig(init_strategy="stars", checkpoint_path=path))
    assert resumed.converged
    assert resumed.value == uninterrupted.value == 4
    assert resumed.records[0].iteration == 2
