"""Column generation driver: init strategies, convergence, certificates,
pruning, checkpoint/resume, and determinism."""

import json

import pytest

from fracbp._rational import rat
from fracbp.colgen import (
    CHECKPOINT_VERSION,
    ColGenConfig,
    ColumnPool,
    PoolEntry,
    _prune,
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
    crown,
    domino,
    enumerate_all_bicliques,
    incidence_column,
    kronecker,
    matrix_hash,
)
from fracbp.errors import (
    CheckpointError,
    ContractViolation,
    EmptyGraphError,
)
from fracbp.lp import PARTITION, SimplexSolver, build_master, solve
from fracbp.maximal import enumerate_maximal
from fracbp.pricing import price_all

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
        ColGenConfig(prune_after=0)
    with pytest.raises(ContractViolation):
        ColGenConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# Initial columns
# ---------------------------------------------------------------------------

def test_row_stars_of_domino(d):
    stars = initial_stars(d, "rows")
    assert stars == [
        Biclique(0b001, 0b011),
        Biclique(0b010, 0b111),
        Biclique(0b100, 0b110),
    ]
    sol = solve(build_master(d, stars, PARTITION))
    assert sol.status == "optimal" and sol.objective == 3


def test_column_stars_of_domino(d):
    stars = initial_stars(d, "cols")
    assert len(stars) == 3
    for j, b in enumerate(stars):
        assert b.col_set == 1 << j
        assert b.row_set == d.column_mask(j)


def test_zero_rows_get_no_star():
    a = BinaryMatrix.from_dense([[1, 1], [0, 0], [0, 1]])
    assert len(initial_stars(a, "rows")) == 2


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


def test_union_falls_back_to_stars_when_enumeration_refuses(d):
    report = run(d, ColGenConfig(init_strategy="union", enum_cap=5))
    assert report.converged and report.value == FIVE_HALVES


def test_all_init_surfaces_enumeration_refusal(d):
    from fracbp.errors import SizeCapExceeded

    with pytest.raises(SizeCapExceeded):
        run(d, ColGenConfig(init_strategy="all", enum_cap=5))


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

def test_records_are_monotone_and_bounded(d):
    report = run(d, ColGenConfig(init_strategy="stars"))
    objectives = [r.objective for r in report.records]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))
    assert report.value == objectives[-1]
    for rec in report.records:
        assert rec.lower_bound <= rec.objective
        assert rec.pool_size > 0
    assert report.best_lower_bound <= report.value


def test_dual_certificate_prices_below_one_everywhere(d):
    report = run(d, ColGenConfig())
    scale = report.final_alpha if report.final_alpha > 1 else rat(1)
    weights = EdgeWeights(d, [y / scale for y in report.dual])
    alpha, _ = price_all(enumerate_maximal(d), weights, rat(2))
    assert alpha <= 1 + rat(1, 1_000_000)
    assert sum(report.dual, rat(0)) == report.value


def test_iteration_cap_reports_honest_upper_bound(d):
    dd = kronecker(d, d)
    report = run(dd, ColGenConfig(init_strategy="stars", max_iterations=1,
                                  stabilize=False))
    assert not report.converged
    assert report.value >= SIX
    assert report.best_lower_bound <= SIX
    assert_is_fractional_partition(dd, report.support)


def test_reports_are_deterministic(d):
    first = run(d, ColGenConfig(init_strategy="stars"))
    second = run(d, ColGenConfig(init_strategy="stars"))
    assert first.records == second.records
    assert first.support == second.support
    assert first.dual == second.dual
    assert first.value == second.value


def test_stabilize_off_reaches_same_value(d):
    dd = kronecker(d, d)
    on = solve_power(d, 2, ColGenConfig())
    off = run(dd, ColGenConfig(init_strategy="stars", stabilize=False))
    assert on.converged and off.converged
    assert on.value == off.value == SIX
    # The float mirror is booked apart from exact pricing.
    for report in (on, off):
        assert {"master", "pricing", "float"} <= set(report.timings)
    assert on.timings["float"] > 0
    assert off.timings["float"] == 0


def test_float_vertex_leaves_the_exact_master_few_pivots(monkeypatch):
    # The float mirror's optimal basis is crashed into the exact master,
    # which then only certifies it; from its last basis alone the master
    # walks 1292 pivots here.
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
    assert pivots <= 10


# ---------------------------------------------------------------------------
# Kronecker ladder
# ---------------------------------------------------------------------------

def test_power_one_is_the_plain_run(d):
    report = solve_power(d, 1, ColGenConfig())
    assert report.converged and report.value == FIVE_HALVES


def test_power_two_by_ladder(d):
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


def test_power_zero_is_rejected(d):
    with pytest.raises(ContractViolation):
        solve_power(d, 0, ColGenConfig())


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def test_prune_counts_removes_and_protects(d):
    bicliques = enumerate_all_bicliques(d, 1000)
    solver = SimplexSolver(d.num_edges, PARTITION)
    pool = ColumnPool()
    for b in bicliques:
        entry = PoolEntry(b, incidence_column(d, b))
        entry.cid = solver.add_column(entry.column)
        pool.add(entry)
    stars = initial_stars(d, "rows")
    for b in stars:
        pool.get(b).protected = True
    solver.install_disjoint_start([pool.get(b).cid for b in stars])
    solver.reoptimize()
    x_by_cid = solver.primal_by_id()
    dual = solver.duals()
    config = ColGenConfig(prune_after=1)

    def dual_sum(entry):
        return sum(
            (dual[i] for i in range(d.num_edges) if (entry.column >> i) & 1),
            rat(0))

    slack_unprotected = [
        e for e in pool.entries()
        if dual_sum(e) < 1 and not e.protected
        and not solver.is_basic(e.cid) and e.cid not in x_by_cid
    ]
    slack_star = [e for e in pool.entries()
                  if e.protected and dual_sum(e) < 1]
    tight = [e for e in pool.entries()
             if dual_sum(e) == 1 and e.cid in x_by_cid]
    assert slack_unprotected and slack_star and tight

    removed_first = _prune(pool, solver, x_by_cid, dual, config)
    assert removed_first == 0
    assert all(e.slack_count == 1 for e in slack_unprotected)
    assert all(e.slack_count == 0 for e in tight)

    removed_second = _prune(pool, solver, x_by_cid, dual, config)
    assert removed_second >= len(slack_unprotected)
    for e in slack_unprotected:
        assert e.biclique not in pool
    for e in slack_star:
        assert e.biclique in pool
        assert e.slack_count == 2

    readded = PoolEntry(slack_unprotected[0].biclique,
                        slack_unprotected[0].column)
    readded.cid = solver.add_column(readded.column)
    pool.add(readded)
    assert readded.slack_count == 0


def test_objective_survives_pruning(d):
    report = run(d, ColGenConfig(init_strategy="stars", prune_after=1))
    assert report.converged and report.value == FIVE_HALVES


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, d):
    pool = ColumnPool()
    for b in initial_stars(d, "rows"):
        entry = PoolEntry(b, incidence_column(d, b))
        entry.slack_count = 2
        pool.add(entry)
    path = str(tmp_path / "state.json")
    write_checkpoint(path, matrix_hash(d), 7, pool)
    iteration, raw = load_checkpoint(path, matrix_hash(d))
    assert iteration == 7
    assert sorted(raw) == sorted(
        (e.biclique.row_set, e.biclique.col_set, 2) for e in pool.entries())


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
    pool = ColumnPool()
    for b in initial_stars(d, "rows"):
        pool.add(PoolEntry(b, incidence_column(d, b)))
    path = str(tmp_path / "state.json")
    write_checkpoint(path, matrix_hash(d), 1, pool)
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


def test_checkpoint_is_written_every_iteration(tmp_path, d):
    path = str(tmp_path / "state.json")
    report = run(d, ColGenConfig(init_strategy="stars", checkpoint_path=path))
    iteration, raw = load_checkpoint(path, matrix_hash(d))
    assert iteration == report.iterations
    assert len(raw) == report.records[-1].pool_size


def test_interrupted_run_resumes_to_the_same_value(tmp_path, d):
    uninterrupted = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", stabilize=False))

    path = str(tmp_path / "state.json")
    partial = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", max_iterations=1, checkpoint_path=path,
        stabilize=False))
    assert not partial.converged

    resumed = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", checkpoint_path=path, stabilize=False))
    assert resumed.converged
    assert resumed.value == uninterrupted.value == SIX
    assert resumed.records[0].iteration == 2
