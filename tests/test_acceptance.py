"""Acceptance: known values, oracle sweeps, certificates, and resume.

One test per acceptance item, in order.  Frozen constants are the
published values for the domino matrix and its Kronecker powers; every
derived expectation was independently confirmed by the brute-force
oracles next to this file.
"""

import os
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
import random

import pytest

from fracbp._rational import rat
from fracbp.bounds import (
    decimal_root,
    fractional_cover_number,
    integer_cover_number,
    integer_partition_number,
    power_root_lower_bound,
    quantize6,
    sandwich_report,
)
from fracbp.colgen import ColGenConfig, run, solve_power
from fracbp.core import (
    Biclique,
    EdgeWeights,
    domino,
    enumerate_all_bicliques,
    is_valid_biclique,
    kronecker,
)
from fracbp.errors import NodeCapExceeded
from fracbp.lp import COVER, PARTITION, build_master, solve
from fracbp.maximal import enumerate_maximal
from fracbp.pricing import price_all, price_maximal

from conftest import SEED
from oracles import random_binary_matrix, random_rationals

ONE = rat(1)

# Half-weight decomposition of the domino square: twelve bicliques that
# cover each of the 49 edges exactly twice.
TWELVE_HALF_WEIGHT = [
    ({0, 1, 3, 4}, {0, 1, 3}),
    ({1, 2, 4, 5}, {1, 2, 4, 5}),
    ({0, 1}, {0, 3, 4}),
    ({1, 2}, {2, 5}),
    ({4, 6, 7}, {3, 4, 6}),
    ({4, 5, 7, 8}, {5, 7, 8}),
    ({3, 6, 7}, {3, 6, 7}),
    ({7, 8}, {4, 5, 8}),
    ({3, 4}, {0, 6}),
    ({4, 5}, {2, 7, 8}),
    ({0, 2, 3, 5}, {1, 4}),
    ({3, 6, 8}, {4, 7}),
]


def exact_partition_value(a):
    sol = solve(build_master(a, enumerate_all_bicliques(a, 100_000), PARTITION))
    assert sol.status == "optimal"
    return sol.objective


def assert_solution_certificates(a, bicliques, sense):
    """Exact strong duality, dual feasibility, complementary slackness."""
    sol = solve(build_master(a, bicliques, sense))
    assert sol.status == "optimal"
    assert sum(sol.dual, rat(0)) == sol.objective
    for b, weight in zip(bicliques, sol.primal):
        covered = sum(
            (sol.dual[a.edge_index[(i, j)]]
             for i in b.row_indices() for j in b.col_indices()),
            rat(0))
        assert covered <= 1
        if weight != 0:
            assert covered == 1
    if sense == COVER:
        for y in sol.dual:
            assert y >= 0
    return sol


def assert_rescaled_report(a, report, maximals):
    """The report's final dual, scaled by 1/alpha, prices out globally."""
    assert report.converged
    scale = report.final_alpha if report.final_alpha > 1 else ONE
    rescaled = EdgeWeights(a, [y / scale for y in report.dual])
    alpha, _ = price_all(maximals, rescaled, rat(2))
    assert alpha <= 1 + rat(1, 1_000_000)
    assert sum(report.dual, rat(0)) == report.value


# ---------------------------------------------------------------------------
# 1-4: partition values of the domino and its powers
# ---------------------------------------------------------------------------

def test_01_domino_partition_value_from_both_inits(d):
    for strategy in ("all", "stars"):
        t0 = time.perf_counter()
        report = run(d, ColGenConfig(init_strategy=strategy))
        elapsed = time.perf_counter() - t0
        assert report.converged
        assert report.value == rat(5, 2)
        assert elapsed < 1.0


def test_02_square_partition_value_and_half_weight_decomposition(d):
    t0 = time.perf_counter()
    report = solve_power(d, 2, ColGenConfig())
    elapsed = time.perf_counter() - t0
    assert report.converged and report.value == rat(6)
    assert elapsed < 30.0

    dd = kronecker(d, d)
    cover_count = {e: Fraction(0) for e in dd.edges}
    for rows, cols in TWELVE_HALF_WEIGHT:
        b = Biclique.from_indices(rows, cols)
        assert is_valid_biclique(dd, b)
        for i in rows:
            for j in cols:
                cover_count[(i, j)] += Fraction(1, 2)
    assert all(total == 1 for total in cover_count.values())
    assert Fraction(len(TWELVE_HALF_WEIGHT), 2) == report.value


def test_03_cube_partition_value_to_six_decimals(d):
    t0 = time.perf_counter()
    report = solve_power(d, 3, ColGenConfig())
    elapsed = time.perf_counter() - t0
    assert report.converged
    decimal = Decimal(int(report.value.numerator)) / Decimal(
        int(report.value.denominator))
    assert abs(decimal - Decimal("13.818792")) <= Decimal("0.00001")
    warnings.warn(
        f"informational: third power value is exactly {report.value}; "
        f"equals 2059/149: {report.value == rat(2059, 149)}; "
        f"solved in {elapsed:.1f}s over {report.iterations} iterations")
    assert elapsed < 1800.0


@pytest.mark.skipif(
    not os.environ.get("FRACBP_STRETCH"),
    reason="fourth power needs hours; set FRACBP_STRETCH=1 to attempt it")
def test_04_fourth_power_partition_value_stretch(d):
    t0 = time.perf_counter()
    report = solve_power(
        d, 4, ColGenConfig(max_iterations=4000),
        progress=lambda rec: print(
            f"  iter {rec.iteration}: {float(rec.objective):.6f}", flush=True))
    elapsed = time.perf_counter() - t0
    if not report.converged:
        warnings.warn(
            f"fourth power did not certify within {elapsed:.0f}s; best "
            f"bracket [{report.best_lower_bound}, {report.value}]")
        return
    decimal = Decimal(int(report.value.numerator)) / Decimal(
        int(report.value.denominator))
    assert abs(decimal - Decimal("32.040389")) <= Decimal("0.001")


# ---------------------------------------------------------------------------
# 5-6: cover values and integer variants
# ---------------------------------------------------------------------------

def test_05_fractional_cover_values(d, crown5):
    assert fractional_cover_number(d) == rat(2)
    assert fractional_cover_number(crown5) == rat(10, 3)


def test_06_integer_partition_and_cover_of_domino(d):
    cover_value, cover_parts, _ = integer_cover_number(d)
    assert cover_value == 2
    covered = set()
    for b in cover_parts:
        assert is_valid_biclique(d, b)
        covered.update(
            (i, j) for i in b.row_indices() for j in b.col_indices())
    assert covered == set(d.edges)

    partition_value, parts, _ = integer_partition_number(d)
    assert partition_value == 3
    seen = set()
    for b in parts:
        cells = {(i, j) for i in b.row_indices() for j in b.col_indices()}
        assert not cells & seen
        seen |= cells
    assert seen == set(d.edges)


# ---------------------------------------------------------------------------
# 7-8: lower-bound roots and the asymptotic interval
# ---------------------------------------------------------------------------

def test_07_lower_bound_root_table():
    expected = ["2.500", "2.236", "2.154", "2.115", "2.091"]
    for k, text in enumerate(expected, start=1):
        bound = power_root_lower_bound(rat(5, 2), rat(2), k)
        assert str(bound.root.quantize(Decimal("0.001"))) == text


def test_08_asymptotic_interval_brackets(d):
    through3 = sandwich_report(
        d, {1: rat(5, 2), 2: rat(6), 3: rat(2059, 149)})
    assert through3.interval_lower == rat(2)
    assert through3.interval_upper == Decimal("2.399699")
    assert through3.interval_upper <= Decimal("2.399700")

    injected = sandwich_report(d, {
        1: rat(5, 2), 2: rat(6), 3: rat(2059, 149),
        5: rat(75_201_302, 1_000_000)})
    assert injected.interval_lower == rat(2)
    assert injected.interval_upper == Decimal("2.372713")
    # Cross-check both endpoints against a direct root computation.
    assert quantize6(decimal_root(rat(2059, 149), 3), ceiling=True) \
        == Decimal("2.399699")
    assert quantize6(decimal_root(rat(75_201_302, 1_000_000), 5),
                     ceiling=True) == Decimal("2.372713")


# ---------------------------------------------------------------------------
# 9-10: randomized oracle sweeps
# ---------------------------------------------------------------------------

def test_09_column_generation_agrees_with_full_enumeration():
    rng = random.Random(SEED ^ 0x5EED9)
    for _ in range(200):
        a = random_binary_matrix(rng, max_rows=4, max_cols=4)
        report = run(a, ColGenConfig(init_strategy="stars"))
        assert report.converged
        assert report.value == exact_partition_value(a)

        all_b = enumerate_all_bicliques(a, 100_000)
        cover_all = solve(build_master(a, all_b, COVER))
        assert cover_all.status == "optimal"
        assert fractional_cover_number(a) == cover_all.objective


def test_10_pricing_agrees_with_brute_force(d):
    rng = random.Random(SEED ^ 0x5EED10)
    dd = kronecker(d, d)

    def brute_best(b, weights):
        rows, cols = list(b.row_indices()), list(b.col_indices())
        best = None
        for rsize in range(1, len(rows) + 1):
            for rsub in combinations(rows, rsize):
                for csize in range(1, len(cols) + 1):
                    for csub in combinations(cols, csize):
                        total = sum(
                            weights.at(i, j) for i in rsub for j in csub)
                        if best is None or total > best:
                            best = total
        return best

    for a in (d, dd):
        maximals = enumerate_maximal(a)
        for _ in range(100):
            values = random_rationals(rng, a.num_edges)
            weights = EdgeWeights(a, tuple(values))
            for b in maximals:
                found, _ = price_maximal(b, weights, rat(10 ** 9))
                assert found.value == brute_best(b, weights)


# ---------------------------------------------------------------------------
# 11-13: infeasibility, certificates, resume
# ---------------------------------------------------------------------------

def test_11_maximal_bicliques_alone_admit_no_partition(d):
    maximals = enumerate_maximal(d)
    assert len(maximals) == 4
    sol = solve(build_master(d, maximals, PARTITION))
    assert sol.status == "infeasible"
    ray = sol.dual
    assert sum(ray, rat(0)) > 0
    for b in maximals:
        assert sum(
            (ray[d.edge_index[(i, j)]]
             for i in b.row_indices() for j in b.col_indices()),
            rat(0)) <= 0


def test_12_certificates_on_every_optimal_solve(d, crown5):
    assert_solution_certificates(d, enumerate_all_bicliques(d, 1000), PARTITION)
    assert_solution_certificates(d, enumerate_maximal(d), COVER)
    assert_solution_certificates(crown5, enumerate_maximal(crown5), COVER)

    rng = random.Random(SEED ^ 0x5EED12)
    for _ in range(25):
        a = random_binary_matrix(rng, max_rows=4, max_cols=4)
        all_b = enumerate_all_bicliques(a, 100_000)
        assert_solution_certificates(a, all_b, PARTITION)
        assert_solution_certificates(a, all_b, COVER)

    assert_rescaled_report(d, run(d, ColGenConfig()), enumerate_maximal(d))
    dd = kronecker(d, d)
    assert_rescaled_report(
        dd, run(dd, ColGenConfig(init_strategy="stars")),
        enumerate_maximal(dd))


def test_13_interrupted_resume_reproduces_the_value(tmp_path, d):
    uninterrupted = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", stabilize=False))
    assert uninterrupted.converged

    path = str(tmp_path / "resume.json")
    partial = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", max_iterations=1, checkpoint_path=path,
        stabilize=False))
    assert not partial.converged

    resumed = solve_power(d, 2, ColGenConfig(
        init_strategy="stars", checkpoint_path=path, stabilize=False))
    assert resumed.converged
    assert resumed.value == uninterrupted.value == rat(6)
