"""Column generation driver: init strategies, convergence, certificates,
the float mirror, checkpoint/resume, and determinism."""

import json
import random

import pytest

import numpy as np

from fracbp._rational import rat
from fracbp.colgen import (
    CHECKPOINT_VERSION,
    ColGenConfig,
    _FloatBuffer,
    _linprog,
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
from fracbp.lp import PARTITION, build_master, solve
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


def test_empty_matrix_is_rejected():
    with pytest.raises(EmptyGraphError):
        run(BinaryMatrix.from_dense([[0, 0], [0, 0]]), ColGenConfig())


def test_foreign_initial_column_is_rejected(d, tmp_path):
    # A checkpoint is the one source of start columns from outside.
    path = str(tmp_path / "foreign.json")
    write_checkpoint(path, matrix_hash(d), 1, [Biclique(0b111, 0b111)])
    with pytest.raises(CheckpointError):
        run(d, ColGenConfig(checkpoint_path=path))


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


def test_every_pricing_call_is_booked_as_pricing(d, crown5):
    # The float rounds' pricing counts as pricing too, so "float" is
    # HiGHS and rounding, in the orbit space (D^3) and the full space.
    for report in (solve_power(d, 3, ColGenConfig()),
                   run(crown5, ColGenConfig(init_strategy="stars"))):
        assert report.converged
        timings = report.timings
        assert timings["pricing"] > 0
        assert timings["float"] + timings["master"] + timings["pricing"] <= timings["total"]


def test_total_counts_from_the_entry_of_the_call(d, monkeypatch):
    import time

    import fracbp.colgen as colgen

    pause = 0.05

    def slowed(original):
        def wrapper(*args, **kwargs):
            time.sleep(pause)
            return original(*args, **kwargs)
        return wrapper

    calls = spied(monkeypatch)
    monkeypatch.setattr(colgen, "enumerate_maximal", slowed(colgen.enumerate_maximal))
    report = run(kronecker(crown(3), crown(4)), ColGenConfig())
    # The matrix is dispatched to the orbit master, and the report's
    # total still holds run's own enumeration.
    assert calls["orbit_master"] == 1
    assert report.timings["total"] >= pause
    # solve_power's total holds its level building.
    monkeypatch.setattr(colgen, "lift_maximal_kronecker",
                        slowed(colgen.lift_maximal_kronecker))
    report = solve_power(d, 2, ColGenConfig())
    assert calls["orbit_master"] == 2
    assert report.timings["total"] >= 2 * pause


def test_a_dispatch_counts_the_edge_orbits_once(monkeypatch):
    import fracbp.symmetry as symmetry

    calls = {"edge_orbits": 0, "edge_permutations": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(symmetry, "edge_orbits",
                        counting("edge_orbits", symmetry.edge_orbits))
    monkeypatch.setattr(symmetry, "edge_permutations",
                        counting("edge_permutations", symmetry.edge_permutations))
    report = run(kronecker(crown(3), crown(4)), ColGenConfig())
    assert report.converged and report.value == 9
    # The generators are still checked, once.
    assert calls == {"edge_orbits": 1, "edge_permutations": 1}


def fallback_calls(patch):
    """Count the exact solves of the mirror, the fallback of `run`'s
    basis certifier, as `lp.solve` calls that colgen makes."""
    import fracbp.colgen as colgen

    calls = [0]
    original = colgen.solve

    def counting(*args):
        calls[0] += 1
        return original(*args)

    patch.setattr(colgen, "solve", counting)
    return calls


def test_certified_basis_is_the_optimum_with_no_fallback(d, crown5, rng, monkeypatch):
    # HiGHS's optimal basis, solved exactly, is optimal over all
    # bicliques on every matrix here, and the exact solve of the mirror
    # never runs.  crown(3) x crown(4) has 1824 bicliques, over which
    # `solve` takes seconds; its value is 9.
    cases = [(kronecker(crown(3), crown(4)), rat(9)), (kronecker(d, d), None),
             (crown5, None)]
    while len(cases) < 43:
        m, n = rng.randint(4, 7), rng.randint(4, 7)
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        if any(rows):
            cases.append((BinaryMatrix(m, n, rows), None))
    optima = [value or solve(build_master(
        a, enumerate_all_bicliques(a), PARTITION)).objective for a, value in cases]
    calls = fallback_calls(monkeypatch)
    for (a, _), optimum in zip(cases, optima):
        report = run(a, ColGenConfig())
        assert report.converged and report.value == optimum
        assert_is_fractional_partition(a, report.support)
        assert sum((w for _, w in report.support), rat(0)) == report.value
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# Kronecker powers
# ---------------------------------------------------------------------------

def test_power_one_is_the_plain_run(d):
    report = solve_power(d, 1, ColGenConfig())
    assert report.converged and report.value == FIVE_HALVES


def in_the_full_space(patch):
    """Make the orbit master fall back, as it does when it cannot
    finish, so that `run` goes on in the full space."""
    import fracbp.orbits as orbits

    patch.setattr(orbits, "orbit_master", lambda *args: None)


def test_power_two_in_the_full_space(d, monkeypatch):
    in_the_full_space(monkeypatch)
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


def test_ladder_builds_no_edge_tables_below_the_top(monkeypatch):
    import fracbp.colgen as colgen

    levels = []
    product = colgen.kronecker

    def recording(*args):
        out = product(*args)
        levels.append(out)
        return out

    monkeypatch.setattr(colgen, "kronecker", recording)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 4, ColGenConfig())
    assert report.converged and report.matrix == levels[-1]
    assert len(levels) == 3
    for level in levels[:-1]:
        assert "edges" not in vars(level) and "edge_index" not in vars(level)


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


# The full-space value where the full-space run takes most of a test
# run: D^3's takes ~16 s (test_acceptance's test_03 asserts the same
# value).
FULL_SPACE_VALUES = {"domino^3": rat(2059, 149)}


def orbit_report(monkeypatch, base, k, config=None, progress=None):
    """solve_power on the orbit path, failing if it reaches the full
    space."""
    import fracbp.colgen as colgen

    def refusing(*args, **kwargs):
        raise AssertionError("the orbit master fell back to the full space")

    with monkeypatch.context() as patch:
        patch.setattr(colgen, "_FloatBuffer", refusing)
        return solve_power(base, k, config or ColGenConfig(), progress=progress)


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
    if name in FULL_SPACE_VALUES:
        assert report.value == FULL_SPACE_VALUES[name]
        return
    with monkeypatch.context() as patch:
        in_the_full_space(patch)
        full = solve_power(base, k, ColGenConfig())
    assert full.converged and report.value == full.value


def test_orbit_records_count_orbit_columns_and_new_profiles(d, monkeypatch):
    seen = []
    report = orbit_report(monkeypatch, d, 3, ColGenConfig())
    again = solve_power(d, 3, ColGenConfig(), progress=seen.append)
    assert report.value == again.value == rat(2059, 149)
    assert seen == report.records == again.records
    assert report.support == again.support and report.dual == again.dual
    # The records count the carried columns, as in the full space.
    for before, rec in zip(report.records, report.records[1:]):
        assert rec.pool_size == before.pool_size + rec.added - rec.pruned
    assert report.records[0].pruned == 0
    assert 0 < report.records[0].added == report.records[0].pool_size
    assert {"total", "master", "pricing", "float"} == set(report.timings)


@pytest.mark.parametrize("space", ["full", "orbit"])
def test_both_spaces_keep_one_loop_contract(space, d, m5, monkeypatch, tmp_path,
                                            one_inner_round):
    # M5 from the stars in the full space, D^3 in the orbit space, each
    # cut to one float round so that it takes several iterations.
    import shutil

    import fracbp.colgen as colgen

    def solve(path, progress):
        if space == "full":
            return run(m5, ColGenConfig(init_strategy="stars", checkpoint_path=path),
                       progress=progress)
        return orbit_report(monkeypatch, d, 3, ColGenConfig(checkpoint_path=path), progress)

    saved = []
    write = colgen.write_checkpoint

    def keeping(path, mhash, iteration, bicliques):
        write(path, mhash, iteration, bicliques)
        saved.append(str(tmp_path / f"{len(saved)}.json"))
        shutil.copy(path, saved[-1])

    monkeypatch.setattr(colgen, "write_checkpoint", keeping)

    def check(report, seen, written, carried):
        """The records against the checkpoints written after each
        iteration, from `carried`, the columns carried before the first."""
        assert seen == report.records
        written = [load_checkpoint(path, report.matrix_hash) for path in written]
        assert [it for it, _ in written] == [rec.iteration for rec in report.records]
        for rec, (_, now) in zip(report.records, written):
            assert rec.pool_size == len(now)
            assert rec.added == len(set(now) - set(carried))
            assert rec.pruned == len(set(carried) - set(now))
            carried = now

    seen = []
    report = solve(str(tmp_path / "state.json"), seen.append)
    assert report.converged and len(report.records) >= 2
    check(report, seen, list(saved), [])
    # A resume from the first checkpoint goes on at the next iteration,
    # its columns carried before it, to the same value.
    iteration, carried = load_checkpoint(saved[0], report.matrix_hash)
    path = str(tmp_path / "resumed.json")
    shutil.copy(saved[0], path)
    del saved[:]
    seen = []
    resumed = solve(path, seen.append)
    assert resumed.records[0].iteration == iteration + 1
    assert resumed.converged and resumed.value == report.value
    check(resumed, seen, list(saved), carried)


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


def test_orbit_master_falls_back_to_the_full_space(d, monkeypatch):
    import fracbp.colgen as colgen
    import fracbp.lp as lp
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
        patch.setattr(lp, "_solves", lambda matrix, x, rhs: False)
        patch.setattr(lp, "_bareiss_solve", lambda matrix, rhs: None)

    fallbacks = [
        ("HiGHS fails", lambda patch: patch.setattr(
            colgen, "_linprog", lambda *, A_eq, presolve: None)),
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
        # Progress shows the full space's records only, none of the
        # orbit master's it gave up on.
        assert seen == report.records, name
        assert_is_fractional_partition(report.matrix, report.support)
        # One run, on the power only.
        assert [a.num_rows for a in runs] == [9], name


def test_a_power_takes_the_orbit_master_with_its_constructed_group(monkeypatch):
    import fracbp.symmetry as symmetry

    # A seeded random base whose square has 10 edge orbits for 36 edges:
    # `run` on the square alone keeps it in the full space.
    rng = random.Random(0)
    base = BinaryMatrix(3, 3, tuple(rng.getrandbits(3) for _ in range(3)))
    square = kronecker_power(base, 2)
    calls = spied(monkeypatch)
    full = run(square, ColGenConfig())
    assert calls["orbit_master"] == 0
    # solve_power hands run the power's generators, which take it to
    # the orbit master past the quarter rule and the colour refinement.
    args = []
    generators = symmetry.power_generators

    def recording(*given):
        args.append(given)
        return generators(*given)

    def refusing(*given):
        raise AssertionError("edge_orbit_bounds ran on a power")

    monkeypatch.setattr(symmetry, "power_generators", recording)
    monkeypatch.setattr(symmetry, "edge_orbit_bounds", refusing)
    report = solve_power(base, 2, ColGenConfig())
    assert args == [(base, 2)]
    assert calls["orbit_master"] == 1
    assert report.converged and full.converged and report.value == full.value
    assert_is_fractional_partition(square, report.support)


def test_a_given_up_orbit_master_is_resumed_in_the_full_space(d, monkeypatch, tmp_path):
    import dataclasses

    import fracbp.colgen as colgen
    import fracbp.orbits as orbits

    path = str(tmp_path / "state.json")
    master = orbits.orbit_master
    written = []

    def giving_up(a, maximals, config, gens, orbits_):
        # One orbit iteration writes its checkpoint, then it gives up.
        master(a, maximals, dataclasses.replace(config, max_iterations=1), gens, orbits_)
        written.append(load_checkpoint(path, matrix_hash(a)))
        return None

    runs, resumed = [], []
    run_, resume = colgen.run, colgen._resume

    def counting_run(*args, **kwargs):
        runs.append(args[0])
        return run_(*args, **kwargs)

    def recording_resume(*args):
        resumed.append(resume(*args))
        return resumed[-1]

    monkeypatch.setattr(orbits, "orbit_master", giving_up)
    monkeypatch.setattr(colgen, "run", counting_run)
    monkeypatch.setattr(colgen, "_resume", recording_resume)
    seen = []
    report = solve_power(d, 2, ColGenConfig(checkpoint_path=path), progress=seen.append)
    assert report.converged and report.value == SIX
    assert runs == [kronecker_power(d, 2)]
    # The orbit master starts afresh, the full space resumes its
    # checkpoint, and progress shows only the full space's records,
    # which go on from it.
    assert len(written) == 1 and written[0][0] == 1
    assert resumed == [None, written[0]]
    assert seen == report.records and report.records[0].iteration == 2
    assert_is_fractional_partition(report.matrix, report.support)


def test_orbit_master_refuses_a_generator_that_maps_a_one_to_a_zero(d, monkeypatch):
    import fracbp.symmetry as symmetry
    from fracbp.symmetry import Symmetry, power_generators

    # Swapping rows 0 and 1 of the first factor alone moves the zero at
    # (0, 2) of the domino onto the one at (1, 2).
    swap = list(range(9))
    swap[0:6] = [3, 4, 5, 0, 1, 2]
    bad = Symmetry(tuple(swap), tuple(range(9)))
    monkeypatch.setattr(symmetry, "power_generators",
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


# The refinement gives this matrix three classes of ones, (rows 0-1,
# column 0), (rows 0-1, columns 1-2) and (row 2, columns 1-2), and its
# transpose joins the first and the last: 2 edge orbits, a quarter of
# its 8 ones, which only the halved bound lets through.
JOINED_BY_TRANSPOSE = BinaryMatrix.from_dense([[1, 1, 1], [1, 1, 1], [0, 1, 1]])


def spied(patch):
    """Count the calls of `symmetry.power_generators` and of
    `orbits.orbit_master`, which still run."""
    import fracbp.orbits as orbits
    import fracbp.symmetry as symmetry

    calls = {}
    for module, name in ((symmetry, "power_generators"), (orbits, "orbit_master")):
        calls[name] = 0

        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        patch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("a", [kronecker(crown(3), crown(4)), crown(5),
                               kronecker(crown(3), crown(3)), JOINED_BY_TRANSPOSE],
                         ids=["crown3xcrown4", "crown5", "crown3xcrown3", "joined"])
def test_symmetric_matrices_take_the_orbit_master(a, monkeypatch):
    full = run(a, ColGenConfig(init_strategy="all"))
    calls = spied(monkeypatch)
    seen = []
    report = run(a, ColGenConfig(), progress=seen.append)
    assert calls == {"power_generators": 1, "orbit_master": 1}
    assert report.converged and report.value == full.value
    assert seen == report.records
    assert_is_fractional_partition(a, report.support)
    assert sum((w for _, w in report.support), rat(0)) == report.value
    assert sum(report.dual, rat(0)) == report.value
    alpha, _ = price_all(enumerate_maximal(a), EdgeWeights(a, report.dual), rat(2))
    assert alpha == report.final_alpha <= 1 + ColGenConfig().epsilon
    # Only the union strategy takes it.
    run(a, ColGenConfig(init_strategy="stars"))
    assert calls == {"power_generators": 1, "orbit_master": 1}


def random6(seed):
    """The seeded random 6 x 6 matrices of 22 ones that the benchmark's
    random6_sweep solves."""
    rng = random.Random(seed)
    mats = []
    for _ in range(64):
        rows = [0] * 6
        for cell in rng.sample(range(36), 22):
            rows[cell // 6] |= 1 << (cell % 6)
        mats.append(BinaryMatrix(6, 6, tuple(rows)))
    return mats


def test_matrices_with_few_symmetries_stay_in_the_full_space(d, m5, monkeypatch):
    calls = spied(monkeypatch)
    for a in (d, m5):
        run(a, ColGenConfig())
    assert calls == {"power_generators": 0, "orbit_master": 0}
    # Their refinement refuses all but one of these before any search,
    # and no edge orbits come to a quarter of the ones; half of them
    # would let some through.
    for a in random6(1) + random6(2):
        run(a, ColGenConfig())
    assert calls == {"power_generators": 1, "orbit_master": 0}


def test_bareiss_solve_is_exact(rng):
    from fracbp.lp import _bareiss_solve

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
    in_the_full_space(monkeypatch)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 3, ColGenConfig())
    assert report.converged and report.value == 8
    # One iteration: the float mirror prices once, and the certified
    # exact dual equals its dual, so the exact pass reuses it.
    assert len(report.records) == 1
    assert calls[0] == 1


def test_orbit_exact_pass_reuses_the_float_pricing(d, monkeypatch):
    # Each HiGHS solve of the orbit LP is priced once; the exact pass
    # finds its orbit values equal to the last round's and reuses that
    # pricing rather than pricing again.
    import fracbp.colgen as colgen

    calls = counted_pricing(monkeypatch)
    solves = [0]
    linprog = colgen._linprog

    def counting(**kwargs):
        solves[0] += 1
        return linprog(**kwargs)

    monkeypatch.setattr(colgen, "_linprog", counting)
    for base, k, value in ((BinaryMatrix.from_dense([[1, 1], [0, 1]]), 3, 8),
                           (d, 2, 6), (d, 3, rat(2059, 149))):
        calls[0] = solves[0] = 0
        report = solve_power(base, k, ColGenConfig())
        assert report.converged and report.value == value
        assert calls[0] == solves[0] > 0


def test_orbit_columns_count_each_cell_once(d, rng):
    # The batched profiles equal a cell-by-cell count, duplicates of a
    # profile are dropped, and both refusals stand.
    from fracbp.orbits import _OrbitColumns
    from fracbp.symmetry import edge_orbits, gather_table, power_generators

    a = kronecker_power(d, 2)
    gens = power_generators(d, 2)
    orbits = edge_orbits(a, gens)
    orbit_of = {}
    for t, orbit in enumerate(orbits):
        for e in orbit:
            orbit_of[a.edges[int(e)]] = t
    bicliques = []
    for b in enumerate_maximal(a):
        for _ in range(4):
            rows = [i for i in bit_indices(b.row_set) if rng.random() < 0.7]
            cols = [j for j in bit_indices(b.col_set) if rng.random() < 0.7]
            if rows and cols:
                bicliques.append(Biclique(sum(1 << i for i in rows), sum(1 << j for j in cols)))
    pool = _OrbitColumns(a, orbits, gather_table(gens, a.num_rows, a.num_cols))
    added = pool.extend(bicliques + bicliques[:5])
    expected = {}
    for b in bicliques:
        profile = [0] * len(orbits)
        for i in bit_indices(b.row_set):
            for j in bit_indices(b.col_set):
                profile[orbit_of[(i, j)]] += 1
        expected.setdefault(tuple(profile), b)
    assert added == len(pool) == len(expected)
    assert pool.bicliques == list(expected.values())
    assert [tuple(p.tolist()) for p in pool.profiles] == list(expected)
    assert pool.extend([]) == 0 and pool.extend(bicliques) == 0
    with pytest.raises(ContractViolation):
        pool.extend([Biclique(1, 1 << a.num_cols)])
    zero = next((i, j) for i in range(a.num_rows) for j in range(a.num_cols)
                if not (a.rows[i] >> j) & 1)
    with pytest.raises(ContractViolation):
        pool.extend([Biclique(1 << zero[0], 1 << zero[1])])
    assert len(pool) == added


def test_nearest_is_limit_denominator(monkeypatch):
    # The integer loop rounds every float as Fraction.limit_denominator
    # does: negatives, subnormals, integers, halves, and values past
    # 2^53, where every float is an integer.
    import math
    import random
    import struct
    from fractions import Fraction

    import fracbp.colgen as colgen
    from fracbp.colgen import _ROUNDING_DEN, _nearest

    gen = random.Random(11)
    values = [0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324, 2.0 ** 53 + 2, 1e300]
    for _ in range(10_000):
        kind = gen.randrange(7)
        if kind == 0:
            v = gen.uniform(-2, 2)
        elif kind == 1:
            v = float(gen.randint(-10 ** 12, 10 ** 12))
        elif kind == 2:
            v = gen.randint(-10 ** 6, 10 ** 6) + 0.5
        elif kind == 3:
            v = math.ldexp(gen.random(), gen.randint(-1074, -1022))
        elif kind == 4:
            v = gen.choice((-1, 1)) * math.ldexp(gen.random(), gen.randint(54, 1000))
        elif kind == 5:
            v = gen.randint(-10 ** 9, 10 ** 9) / gen.randint(1, 10 ** 9)
        else:
            v = struct.unpack("<d", struct.pack("<Q", gen.getrandbits(64)))[0]
        if math.isfinite(v):
            values.append(v)
    for v in values:
        got = _nearest(v)
        assert type(got) is Fraction
        assert got == Fraction(v).limit_denominator(_ROUNDING_DEN), v
    # A float never lies midway between the two candidates under 10^9;
    # under a power of two it can, and the convergent must win the tie.
    for den in (1, 2, 1 << 10):
        monkeypatch.setattr(colgen, "_ROUNDING_DEN", den)
        for v in values[:2000] + [n + s / (2 * den) for n in range(-3, 4) for s in (1, -1)]:
            assert _nearest(v) == Fraction(v).limit_denominator(den), (v, den)


def test_solves_in_int64_and_in_python_ints(rng):
    # The product check agrees with rational arithmetic on both sides of
    # the int64 bound.
    from fractions import Fraction

    from fracbp.lp import _solves

    for trial in range(60):
        n = rng.randint(1, 6)
        big = 1 << rng.choice((0, 20, 40, 61))
        matrix = np.array([[rng.randint(-3, 3) * big for _ in range(n)] for _ in range(n)],
                          dtype=np.int64 if big < 1 << 61 else object)
        x = [Fraction(rng.randint(-9, 9) * (1 << rng.choice((0, 30))), rng.randint(1, 7))
             for _ in range(n)]
        rhs = [sum((int(c) * v for c, v in zip(row, x)), Fraction(0)) for row in matrix]
        assert _solves(matrix, x, rhs)
        if trial % 2:
            rhs[rng.randrange(n)] += Fraction(1, 7)
            assert not _solves(matrix, x, rhs)


def test_bareiss_path_gives_the_rounded_answers(crown5, m5, monkeypatch, one_inner_round):
    import fracbp.lp as lp

    # With the rounded values refused, every basis is solved by
    # elimination, which must find the same exact solution.
    cases = [(crown5, ColGenConfig()), (m5, ColGenConfig(init_strategy="stars"))]
    expected = [run(a, config) for a, config in cases]
    assert len(expected[1].records) == 3
    eliminations = [0]
    bareiss = lp._bareiss_solve

    def counting(matrix, rhs):
        eliminations[0] += 1
        return bareiss(matrix, rhs)

    monkeypatch.setattr(lp, "_solves", lambda matrix, x, rhs: False)
    monkeypatch.setattr(lp, "_bareiss_solve", counting)
    calls = fallback_calls(monkeypatch)
    for (a, config), want in zip(cases, expected):
        got = run(a, config)
        assert got.converged and got.value == want.value
        assert got.support == want.support and got.dual == want.dual
        assert got.records == want.records
    assert eliminations[0] == 2 * (1 + 3) and calls[0] == 0


def test_exact_fallback_converges_to_the_same_value(d, crown5, m5, monkeypatch,
                                                   one_inner_round):
    import fracbp.colgen as colgen

    # From the stars with one float round, each matrix takes several
    # iterations.
    cases = [d, m5, crown5]
    config = ColGenConfig(init_strategy="stars")
    expected = [run(a, config) for a in cases]
    assert all(len(r.records) > 1 for r in expected)
    float_phase = colgen._float_phase

    def stale(*args):
        # The second float phase returns the first one's basis again:
        # its dual prices only columns the mirror holds, so the
        # iteration adds none, and the next one must solve the mirror.
        if len(phases) == 1:
            phases.append(phases[0])
        else:
            phases.append(float_phase(*args))
        return phases[-1]

    scenarios = [
        ("refused", lambda patch: patch.setattr(colgen, "solve_basis",
                                                lambda *args: None)),
        ("stalled", lambda patch: patch.setattr(colgen, "_float_phase", stale)),
    ]
    for name, patching in scenarios:
        for a, want in zip(cases, expected):
            phases = []
            with monkeypatch.context() as patch:
                patching(patch)
                calls = fallback_calls(patch)
                report = run(a, config)
            assert report.converged and report.value == want.value, name
            assert_is_fractional_partition(a, report.support)
            assert sum(report.dual, rat(0)) == report.value
            if name == "refused":
                assert calls[0] == report.iterations
            else:
                assert calls[0] >= 1 and report.iterations >= 3


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


def test_float_buffer_columns_are_the_incidence_columns(d, rng):
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
    view = buffer.csc()
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
        for presolve in (True, False):
            got = _linprog(A_eq=buffer.csc(), presolve=presolve)
            want = highs_ds_vertex(a, bicliques, presolve)
            # Every biclique is there, stars included, so the LP is
            # feasible.
            assert got is not None and want is not None
            x, duals, basic = got
            assert np.array_equal(x, want[0]) and np.array_equal(duals, want[1])
            # One basic variable per row: a column j >= 0 or row r's
            # slack as -1 - r, never the same one twice.
            m = a.num_edges
            assert len(basic) == len(set(basic.tolist())) == m
            assert ((-m <= basic) & (basic < len(bicliques))).all()


def recorded_presolve(patch):
    """The `presolve` that each float solve gets, in order, as colgen's
    _linprog is called."""
    import fracbp.colgen as colgen

    seen = []
    linprog = colgen._linprog

    def recording(*, A_eq, presolve):
        seen.append(presolve)
        return linprog(A_eq=A_eq, presolve=presolve)

    patch.setattr(colgen, "_linprog", recording)
    return seen


def test_only_a_mirror_that_can_grow_is_presolved(d, m5, monkeypatch, tmp_path):
    seen = recorded_presolve(monkeypatch)
    # Union seeds these mirrors with every biclique, and the orbit LP
    # is never presolved.
    for a in random6(1)[:16]:
        assert run(a, ColGenConfig()).converged
    assert seen and not any(seen)
    seen.clear()
    assert solve_power(d, 2, ColGenConfig()).value == SIX
    assert seen and not any(seen)
    # The stars seed and a resumed checkpoint leave pricing columns to
    # add, so HiGHS presolves.
    seen.clear()
    assert run(m5, ColGenConfig(init_strategy="stars")).value == 4
    assert seen and all(seen)
    path = str(tmp_path / "state.json")
    run(m5, ColGenConfig(checkpoint_path=path))
    seen.clear()
    assert run(m5, ColGenConfig(checkpoint_path=path)).value == 4
    assert seen and all(seen)


def test_a_growing_mirror_keeps_presolve(monkeypatch):
    seen = recorded_presolve(monkeypatch)
    in_the_full_space(monkeypatch)
    triangle = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    report = solve_power(triangle, 5, ColGenConfig())
    assert report.converged and report.value == 32
    # P^5 has too many bicliques for union, so its mirror starts from
    # the stars and grows.  With presolve its first vertex prices no
    # new column; without it the float phase takes 7 HiGHS solves.
    assert seen == [True]


def test_float_failure_only_loses_steering(d, m5, monkeypatch):
    import fracbp.colgen as colgen

    # Every float solve reports no optimum (append returns None), and
    # each iteration solves the mirror exactly instead.
    calls = []
    monkeypatch.setattr(colgen, "_linprog",
                        lambda *, A_eq, presolve: calls.append(A_eq.shape))
    fallbacks = fallback_calls(monkeypatch)
    report = run(d, ColGenConfig())
    assert report.converged and report.value == FIVE_HALVES
    assert_is_fractional_partition(d, report.support)
    report = run(m5, ColGenConfig(init_strategy="stars"))
    assert report.converged and report.value == 4
    assert_is_fractional_partition(m5, report.support)
    report = solve_power(d, 2, ColGenConfig())
    assert report.converged and report.value == SIX
    assert calls and fallbacks[0] > 0


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
