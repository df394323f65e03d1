"""Acceptance gate: the headline claims, one test per criterion.

Each test prints ``criterion N: PASS/FAIL - <measured detail>`` (visible with
``pytest -s``); ``pytest -v`` shows one PASSED/FAILED line per criterion via
the test names.  Tolerances are pinned in the assertions, not recomputed.
"""

import time

import numpy as np
import pytest

from helpers import (
    brute_force_oracle,
    dyadic_weights,
    grid_uniform_samples,
    integer_samples,
    near_uniform_500_atoms,
    random_dyadic_atoms,
)
from varsplit import (
    NInsufficient,
    OverheadSchedule,
    atoms,
    build_partition,
    decompose,
    empirical,
    es_of_tranche,
    expected_shortfall,
    intervals_from_cuts,
    min_subsidiaries,
    randomized_assign,
    randomized_unit_price,
    sample,
    solve_tranche_dp,
    solve_with_overhead,
    uniform,
    var,
)
from varsplit.cli import _substream, main

U01 = uniform(0.0, 1.0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_zero_capital_construction():
    """uniform(0,1): summed tranche VaR is exactly zero at three levels."""
    details = []
    ok = True
    for alpha in (0.90, 0.95, 0.99):
        start = time.perf_counter()
        _, tranche_vars, _ = decompose(U01, build_partition(U01, alpha), alpha)
        analytic = var(U01, alpha)
        emp = var(empirical(sample(U01, seed=42, n=10**5)), alpha)
        elapsed = time.perf_counter() - start
        ok &= sum(tranche_vars.tolist()) == 0.0
        ok &= abs(analytic - alpha) <= 1e-12
        ok &= abs(emp - alpha) <= 0.01
        ok &= elapsed < 1.0
        details.append(
            f"alpha={alpha}: sum=0 exact, |emp-alpha|={abs(emp - alpha):.1e}, "
            f"{elapsed * 1000:.0f}ms"
        )
    _report(1, ok, "; ".join(details))


def test_criterion_2_minimal_tranche_counts():
    """Pigeonhole floor: 11 / 21 / 101 units, and N-1 is refused."""
    ok = True
    details = []
    for alpha, expected in ((0.90, 11), (0.95, 21), (0.99, 101)):
        got = min_subsidiaries(alpha)
        ok &= got == expected
        try:
            build_partition(U01, alpha, expected - 1)
            ok = False
            refused = False
        except NInsufficient:
            refused = True
        details.append(f"alpha={alpha}: N={got}, N-1 {'refused' if refused else 'ACCEPTED'}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_randomized_subsidiaries():
    """X = 100 routed to 21 units: every unit VaR is zero; 20 units pay the cap."""
    start = time.perf_counter()
    book = atoms([100.0], [1.0])
    losses = sample(book, seed=_substream(42, 0), n=10**5)
    idx = randomized_assign(21, _substream(42, 1), losses)
    columns = [np.where(idx == j, losses, 0.0) for j in range(21)]
    unit_vars = [var(empirical(col), 0.95) for col in columns]
    coverage_exact = bool(np.array_equal(np.sum(columns, axis=0), losses))
    n_min = min_subsidiaries(0.95)
    analytic = (randomized_unit_price(book, 21, 0.95)[1], randomized_unit_price(book, 20, 0.95)[1])
    # The count reads the model: half the mass at 0 is free from 11 units.
    half_at_0 = randomized_unit_price(atoms([0.0, 100.0], [0.5, 0.5]), 11, 0.95)[1]
    elapsed = time.perf_counter() - start
    ok = (
        all(v == 0.0 for v in unit_vars)
        and coverage_exact
        and n_min == 21
        and analytic == (0.0, 100.0)
        and half_at_0 == 0.0
        and elapsed < 2.0
    )
    _report(
        3,
        ok,
        f"21 unit VaRs all zero: {all(v == 0.0 for v in unit_vars)}, "
        f"coverage exact: {coverage_exact}, least N: {n_min}, "
        f"unit VaR at N=21 and N=20: {analytic}, half at 0 with N=11: {half_at_0}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_comonotonic_additivity():
    """100 random weight vectors: proportional slices add back exactly."""
    rng = np.random.default_rng(20250819)
    worst = 0.0
    checked = 0
    for samples in (grid_uniform_samples(rng, 2048), integer_samples(rng, 2048)):
        whole = var(empirical(samples), 0.95)
        for _ in range(100):
            weights = dyadic_weights(rng, int(rng.integers(2, 7)))
            parts = sum(var(empirical(w * samples), 0.95) for w in weights)
            worst = max(worst, abs(parts - whole))
            checked += 1
    ok = worst == 0.0
    _report(4, ok, f"{checked} weight vectors, worst |sum - VaR| = {worst!r}")


def test_criterion_5_solver_matches_oracle():
    """The solver equals exhaustive enumeration on 200 small instances, exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    mismatches = 0
    for _ in range(200):
        model = random_dyadic_atoms(rng, max_atoms=8)
        alpha = float(rng.choice([0.9, 0.95, 0.99]))
        n = int(rng.integers(1, 5))
        if brute_force_oracle(model, alpha, n) != solve_tranche_dp(model, alpha, n).capital:
            mismatches += 1
    worked = solve_tranche_dp(atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2]), 0.95, 2)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and worked.capital == 10.0 and elapsed < 5.0
    _report(
        5,
        ok,
        f"200 instances, {mismatches} mismatches, worked instance capital "
        f"{worked.capital}, {elapsed:.2f}s",
    )


def test_criterion_6_overhead_crossover():
    """Cheap desks stop at 21 units; desks dearer than VaR collapse to one."""
    model = near_uniform_500_atoms()
    cheap = solve_with_overhead(model, 0.95, 30, OverheadSchedule(rate=0.001))
    dear = solve_with_overhead(model, 0.95, 30, OverheadSchedule(rate=2.0))
    ok = (
        cheap.best_n == 21
        and abs(cheap.objective - 0.021) <= 1e-9
        and dear.best_n == 1
    )
    _report(
        6,
        ok,
        f"c=0.001: best_n={cheap.best_n}, objective={cheap.objective!r}; "
        f"c=2: best_n={dear.best_n}",
    )


def test_criterion_7_expected_shortfall_resists():
    """Tranche ES keeps the whole charge: sums stay above ES(X) > 0."""
    ok = True
    details = []
    for alpha in (0.90, 0.95, 0.99):
        partition = build_partition(U01, alpha)
        total = sum(
            es_of_tranche(U01, iv, alpha) for iv in intervals_from_cuts(partition.cuts)
        )
        book = expected_shortfall(U01, alpha)
        ok &= book > 0.0 and total >= book
        details.append(f"alpha={alpha}: sum ES={total:.3f} >= ES(X)={book:.3f}")
    total_21 = sum(
        es_of_tranche(U01, iv, 0.95)
        for iv in intervals_from_cuts(build_partition(U01, 0.95).cuts)
    )
    ok &= abs(total_21 - 10.0) <= 1e-9
    details.append(f"21-tranche sum ES = {total_21!r} (target 10 +- 1e-9)")
    _report(7, ok, "; ".join(details))


def test_criterion_8_deterministic_reports(capsys):
    """Identical command lines produce byte-identical reports."""
    commands = (
        ["simulate", "--dist", "uniform:0,1", "--seed", "42"],
        ["randomize", "--dist", "atoms:100:1.0", "--subsidiaries", "21"],
        ["solve", "--dist", "atoms:0:0.5,5:0.3,10:0.2", "--max-desks", "2",
         "--format", "csv"],
    )
    ok = True
    for argv in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        ok &= capsys.readouterr().out == first
    _report(8, ok, f"{len(commands)} command lines, two runs each, byte-identical: {ok}")
