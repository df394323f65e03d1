"""Tests for the tranche DP solver, the enumeration oracle, and overhead search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_oracle,
    near_uniform_500_atoms,
    random_dyadic_atoms,
    reference_solve,
)
from varsplit import (
    InvalidBounds,
    OverheadSchedule,
    TooManyAtoms,
    atoms,
    decompose,
    distinct_atoms,
    empirical,
    solve_tranche_dp,
    solve_with_overhead,
    uniform,
    var,
    var_of_tranche,
)
from varsplit import capital_solver

A3 = atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2])


def flat_64_atoms():
    return atoms(np.arange(1.0, 65.0), np.full(64, 1.0 / 64.0))


class TestSolveTrancheDp:
    def test_worked_instance(self):
        """Two desks cannot beat 10: the {5, 10} side keeps 0.5 of the mass."""
        res = solve_tranche_dp(A3, 0.95, 2)
        assert res.capital == 10.0
        assert res.best_n == 1
        assert res.partition.cuts == (0.0, 10.0)

    def test_single_tranche_is_whole_book_var(self):
        for model in (
            A3,
            flat_64_atoms(),
            near_uniform_500_atoms(),
            empirical([1.0, 2.0, 2.0, 4.0]),
        ):
            res = solve_tranche_dp(model, 0.95, 1)
            assert res.best_n == 1
            assert res.capital == var(model, 0.95)

    def test_500_atom_discretization_zeroes_out_at_21(self):
        model = near_uniform_500_atoms()
        res = solve_tranche_dp(model, 0.95, 21)
        assert res.capital == 0.0
        assert res.best_n == 21

    def test_500_atom_discretization_pays_at_20(self):
        model = near_uniform_500_atoms()
        res = solve_tranche_dp(model, 0.95, 20)
        assert res.capital == 0.012
        assert res.best_n == 20

    def test_prefers_fewer_groups_on_ties(self):
        """Once capital hits its floor, extra desks are never reported."""
        res = solve_tranche_dp(flat_64_atoms(), 0.95, 30)
        assert res.capital == 0.0
        assert res.best_n == 22
        assert res.partition.n_tranches == 22

    def test_deterministic_cuts(self):
        first = solve_tranche_dp(flat_64_atoms(), 0.95, 25)
        second = solve_tranche_dp(flat_64_atoms(), 0.95, 25)
        assert first.partition.cuts == second.partition.cuts

    def test_monotone_in_n(self):
        rng = np.random.default_rng(601)
        for _ in range(10):
            model = random_dyadic_atoms(rng)
            alpha = float(rng.choice([0.9, 0.95, 0.99]))
            caps = [solve_tranche_dp(model, alpha, n).capital for n in range(1, 7)]
            assert all(a >= b for a, b in zip(caps, caps[1:]))
            assert all(c >= 0.0 for c in caps)
            assert caps[0] == var(model, alpha)

    def test_zero_floor_attained_with_enough_desks(self):
        """Whenever a feasible partition exists, the solver finds cost zero."""
        model = flat_64_atoms()
        assert solve_tranche_dp(model, 0.95, 22).capital == 0.0
        assert solve_tranche_dp(model, 0.95, 21).capital > 0.0

    def test_partition_reprices_to_the_reported_capital(self):
        """Decomposing the returned cuts reproduces the DP value exactly."""
        rng = np.random.default_rng(602)
        for _ in range(25):
            model = random_dyadic_atoms(rng)
            alpha = float(rng.choice([0.9, 0.95, 0.99]))
            n = int(rng.integers(1, 5))
            res = solve_tranche_dp(model, alpha, n)
            total = sum(
                var_of_tranche(model, iv, alpha)
                for iv in res.partition.intervals()
            )
            assert total == res.capital
            assert res.partition.n_tranches == res.best_n <= n
        res20 = solve_tranche_dp(near_uniform_500_atoms(), 0.95, 20)
        dec = decompose(near_uniform_500_atoms(), res20.partition, 0.95)
        assert dec.total_capital == res20.capital == 0.012

    def test_empirical_route_matches_atoms_route(self):
        """Duplicated samples and explicit atoms price identically."""
        rng = np.random.default_rng(603)
        for _ in range(10):
            model = random_dyadic_atoms(rng)
            values, probs = distinct_atoms(model)
            samples = np.repeat(values, np.round(probs * 256).astype(int))
            emp = empirical(samples)
            for n in (1, 2, 3):
                a = solve_tranche_dp(model, 0.95, n).capital
                b = solve_tranche_dp(emp, 0.95, n).capital
                assert a == b

    def test_input_validation(self):
        with pytest.raises(InvalidBounds, match="at least one tranche"):
            solve_tranche_dp(A3, 0.95, 0)
        with pytest.raises(InvalidBounds, match="at least one unit"):
            solve_with_overhead(A3, 0.95, 0)
        with pytest.raises(InvalidBounds, match="no finite atom support"):
            solve_tranche_dp(uniform(0.0, 1.0), 0.95, 2)
        with pytest.raises(InvalidBounds, match="mass sits at zero"):
            solve_tranche_dp(atoms([0.0], [1.0]), 0.95, 1)

    def test_atom_budget_enforced(self):
        values = np.arange(5001, dtype=float)
        model = atoms(values, np.full(5001, 1.0 / 5001.0))
        with pytest.raises(TooManyAtoms):
            solve_tranche_dp(model, 0.95, 2)


class TestBruteForceOracle:
    def test_worked_instance(self):
        assert brute_force_oracle(A3, 0.95, 2) == 10.0

    def test_single_atom(self):
        for n in (1, 2, 5):
            assert brute_force_oracle(atoms([7.0], [1.0]), 0.95, n) == 7.0

    def test_agrees_with_dp(self):
        """Independent enumeration and the DP cannot disagree on small inputs."""
        rng = np.random.default_rng(604)
        for _ in range(50):
            model = random_dyadic_atoms(rng)
            alpha = float(rng.choice([0.9, 0.95, 0.99]))
            n = int(rng.integers(1, 5))
            assert brute_force_oracle(model, alpha, n) == solve_tranche_dp(
                model, alpha, n
            ).capital

    def test_size_guard(self):
        big = atoms(np.arange(13, dtype=float) + 1.0, np.full(13, 1.0 / 13.0))
        with pytest.raises(TooManyAtoms, match="oracle bound"):
            brute_force_oracle(big, 0.95, 2)

    def test_atoms_only(self):
        with pytest.raises(InvalidBounds, match="explicit atom lists"):
            brute_force_oracle(uniform(0.0, 1.0), 0.95, 2)
        with pytest.raises(InvalidBounds, match="at least one group"):
            brute_force_oracle(A3, 0.95, 0)


class TestOverheadSchedule:
    def test_none_is_free(self):
        sched = OverheadSchedule.none()
        assert sched.cost(1) == 0.0 and sched.cost(100) == 0.0

    def test_linear_cost(self):
        assert OverheadSchedule.linear(0.001).cost(21) == 0.021

    def test_table_lookup(self):
        sched = OverheadSchedule.table((0.0, 0.5, 0.5, 2.0))
        assert sched.cost(1) == 0.0 and sched.cost(4) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidBounds, match=">= 0"):
            OverheadSchedule.linear(-0.5)
        with pytest.raises(InvalidBounds, match="nondecreasing"):
            OverheadSchedule.table((1.0, 0.5))
        with pytest.raises(InvalidBounds, match="at least one entry"):
            OverheadSchedule.table(())
        with pytest.raises(InvalidBounds, match="entries must be finite"):
            OverheadSchedule.table((0.0, -1.0))
        with pytest.raises(InvalidBounds, match="a rate or a table, not both"):
            OverheadSchedule(rate=1.0, costs=(0.0, 1.0))
        with pytest.raises(InvalidBounds, match="covers 1..3 units, asked for 0"):
            OverheadSchedule.table((1.0, 2.0, 3.0)).cost(0)
        with pytest.raises(InvalidBounds, match="asked for -1"):
            OverheadSchedule.linear(2.0).cost(-1)

    def test_table_must_cover_the_request(self):
        sched = OverheadSchedule.table((0.0, 0.1))
        assert sched.units == 2
        assert OverheadSchedule.none().units == OverheadSchedule.linear(0.5).units == math.inf
        with pytest.raises(InvalidBounds, match="covers 1..2 units, asked for 3"):
            sched.cost(3)


class TestSolveWithOverhead:
    def test_no_penalty_reaches_the_dp_floor(self):
        model = flat_64_atoms()
        res = solve_with_overhead(model, 0.95, 25, None)
        assert res.capital == solve_tranche_dp(model, 0.95, 25).capital
        assert res.objective == res.capital
        assert res.best_n == 22

    def test_cheap_desks_buy_the_full_split(self):
        model = near_uniform_500_atoms()
        res = solve_with_overhead(model, 0.95, 30, OverheadSchedule.linear(0.001))
        assert res.best_n == 21
        assert res.capital == 0.0
        assert res.objective == 0.021

    def test_expensive_desks_collapse_to_one(self):
        model = near_uniform_500_atoms()
        res = solve_with_overhead(model, 0.95, 30, OverheadSchedule.linear(2.0))
        assert res.best_n == 1
        assert res.objective == pytest.approx(0.95 + 2.0, abs=1e-12)

    def test_interior_optimum(self):
        """A mid-range rate stops the split where marginal desks stop paying."""
        model = near_uniform_500_atoms()
        caps = {n: solve_tranche_dp(model, 0.95, n).capital for n in range(1, 31)}
        for rate in (0.0005, 0.002, 0.01):
            res = solve_with_overhead(model, 0.95, 30, OverheadSchedule.linear(rate))
            best = min(caps[n] + rate * n for n in range(1, 31))
            assert res.objective == pytest.approx(best, abs=1e-15)

    def test_tie_break_toward_smaller_n(self):
        """Zero-cost desks with a capital plateau report the smallest count."""
        res = solve_with_overhead(A3, 0.95, 3, OverheadSchedule.table((0.0, 0.0, 0.0)))
        assert res.best_n == 1
        assert res.capital == 10.0

    def test_table_shorter_than_n_max_rejected(self):
        with pytest.raises(InvalidBounds, match="covers 1..2 units, need 5"):
            solve_with_overhead(A3, 0.95, 5, OverheadSchedule.table((0.0, 0.1)))

    def test_objective_never_below_capital(self):
        rng = np.random.default_rng(605)
        for _ in range(10):
            model = random_dyadic_atoms(rng)
            rate = float(rng.uniform(0.0, 1.0))
            res = solve_with_overhead(model, 0.95, 4, OverheadSchedule.linear(rate))
            assert res.objective >= res.capital >= 0.0


@st.composite
def solver_cases(draw):
    """A finite law with integer weights over their (non-dyadic) sum, as atoms
    or as samples; a level; a unit budget 1..m + 1; and an overhead schedule.
    A heavy top atom outweighs 1 - alpha, so capital never reaches 0."""
    m = draw(st.integers(1, 12))
    values = sorted(draw(st.sets(st.integers(0, 60), min_size=m, max_size=m)))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    if draw(st.booleans()):
        weights[-1] *= draw(st.integers(10, 60))
    if draw(st.booleans()):
        model = atoms(values, np.array(weights) / sum(weights))
    else:
        model = empirical(np.repeat(np.array(values, dtype=float), weights))
    alpha = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97]))
    n_max = draw(st.integers(1, m + 1))
    variant = draw(st.sampled_from(["none", "linear", "table"]))
    if variant == "none":
        sched = OverheadSchedule.none()
    elif variant == "linear":
        sched = OverheadSchedule.linear(draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 40.0])))
    else:
        costs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0]),
                              min_size=n_max, max_size=n_max + 2))
        sched = OverheadSchedule.table(sorted(costs))
    return model, alpha, n_max, sched


def outcome(solve, case):
    """The solve's numbers as exact float bit patterns, or its error."""
    try:
        res = solve(*case)
    except InvalidBounds as exc:
        return type(exc), str(exc)
    return (
        res.best_n,
        [float(c).hex() for c in res.partition.cuts],
        float(res.capital).hex(),
        float(res.objective).hex(),
    )


@settings(max_examples=400)
@given(solver_cases())
@example((atoms([27, 28, 58], np.array([7, 1, 6]) / 14), 0.5, 2, OverheadSchedule.linear(1.0)))
@example((atoms([0, 3, 7, 12], np.array([1, 4, 2, 7]) / 14), 0.8, 4, OverheadSchedule.none()))
@example((atoms([0, 1, 2], [0.97, 0.01, 0.02]), 0.95, 3, OverheadSchedule.none()))
def test_solver_matches_the_exact_row_reference(case):
    """The at-most-r rows, both stops and the checkpointed walk report
    exactly what the exact-r table that kept every row reports. The
    reference groups the positive atoms only, so a law with an atom at 0,
    light or heavy, shows that the solver's one table over every atom
    prices and cuts it alike."""
    assert outcome(solve_with_overhead, case) == outcome(reference_solve, case)


@pytest.mark.parametrize(
    ("model", "alpha", "rows", "capital"),
    [
        # a top atom heavier than 1 - alpha: row 2 equals row 1
        (atoms(np.arange(1.0, 201.0), np.append(np.full(199, 0.5 / 199), 0.5)), 0.95, 1, 200.0),
        # 64 atoms of 1/64 at 0.95: groups of at most 3 atoms, capital 0 at row 22
        (atoms(np.arange(1.0, 65.0), np.full(64, 1.0 / 64.0)), 0.95, 22, 0.0),
    ],
)
def test_the_pass_stops_early(monkeypatch, model, alpha, rows, capital):
    """At a row equal to the one before, or at capital 0, whatever the budget."""
    seen = []
    real = capital_solver._dp_rows

    def spy(*args):
        caps, marks, step = real(*args)
        seen.append(len(caps) - 1)
        return caps, marks, step

    monkeypatch.setattr(capital_solver, "_dp_rows", spy)
    res = solve_tranche_dp(model, alpha, model.law.values.size)
    assert (res.capital, res.best_n, seen) == (capital, rows, [rows])


def test_many_rows_in_bounded_memory():
    """5000 equal atoms at 0.999 need 1250 groups of 4 atoms (mass 0.0008) for
    capital 0. Keeping all 1250 rows of 5002 floats would peak near 50 MB."""
    m = 5000
    model = atoms(np.arange(1.0, m + 1.0), np.full(m, 1.0 / m))
    tracemalloc.start()
    try:
        res = solve_tranche_dp(model, 0.999, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.best_n == 1250
    assert res.capital == 0.0
    assert res.partition.cuts[:4] == (0.0, 4.5, 8.5, 12.5)
    assert res.partition.cuts == (0.0, *(4.0 * k + 0.5 for k in range(1, 1250)), 5000.0)
    assert peak < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MB"
