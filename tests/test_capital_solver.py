"""Tests for the tranche solver (the free-group walk that ``solve_tranche_dp``
runs), the exact oracles it is held to, and overhead search."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    OracleTooLarge,
    bits,
    brute_force_oracle,
    exact_walk,
    near_uniform_500_atoms,
    random_dyadic_atoms,
    random_dyadic_law,
)
from varsplit import (
    AtomTooHeavy,
    InvalidBounds,
    NInsufficient,
    OverheadSchedule,
    atoms,
    build_partition,
    decompose,
    empirical,
    randomized_unit_price,
    solve_tranche_dp,
    solve_with_overhead,
    uniform,
    var,
)
from varsplit.structuring import _mass_ok

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
        """Decomposing the returned cuts reproduces the solver's capital exactly."""
        rng = np.random.default_rng(602)
        cases = [
            (random_dyadic_atoms(rng), float(rng.choice([0.9, 0.95, 0.99])),
             int(rng.integers(1, 5)))
            for _ in range(25)
        ]
        # 0.1 * 7 is the float just above 0.7, so the midpoint of the two is 0.7
        cases.append((atoms([0.7, 0.1 * 7, 5.0], [0.3, 0.3, 0.4]), 0.5, 3))
        for model, alpha, n in cases:
            res = solve_tranche_dp(model, alpha, n)
            _, tranche_vars, _ = decompose(model, res.partition, alpha)
            assert sum(tranche_vars.tolist()) == res.capital
            assert res.partition.n_tranches == res.best_n <= n
        res20 = solve_tranche_dp(near_uniform_500_atoms(), 0.95, 20)
        _, tranche_vars, _ = decompose(near_uniform_500_atoms(), res20.partition, 0.95)
        assert sum(tranche_vars.tolist()) == res20.capital == 0.012

    def test_empirical_route_matches_atoms_route(self):
        """Duplicated samples and explicit atoms price identically."""
        rng = np.random.default_rng(603)
        for _ in range(10):
            model = random_dyadic_atoms(rng)
            values, probs = model.law.values, model.law.weights
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

    @pytest.mark.parametrize("alpha, n", [(0.95, 30), (0.999, 30), (0.999, 2000)])
    def test_a_book_of_20_000_distinct_values(self, alpha, n):
        """No atom cap: the walk prices the book, ``decompose`` reprices its
        split to the same capital, and that capital is no less than what N
        randomized units would pay."""
        model = empirical(np.random.default_rng(23).lognormal(0.0, 1.0, size=20_000))
        assert model.law.values.size == 20_000
        res = solve_tranche_dp(model, alpha, n)
        _, tranche_vars, _ = decompose(model, res.partition, alpha)
        assert sum(tranche_vars.tolist()) == res.capital
        assert res.capital >= randomized_unit_price(model, res.best_n, alpha)[1]


class TestBruteForceOracle:
    def test_worked_instance(self):
        assert brute_force_oracle([0, 5, 10], [5, 3, 2], 0.95, 2) == (1, (0.0, 10.0), 10.0, 10.0)

    def test_single_atom(self):
        for n in (1, 2, 5):
            assert brute_force_oracle([7], [1], 0.95, n) == (1, (0.0, 7.0), 7.0, 7.0)

    def test_agrees_with_dp(self):
        """Independent enumeration and the solver cannot disagree on small inputs."""
        rng = np.random.default_rng(604)
        for _ in range(50):
            values, counts = random_dyadic_law(rng)
            alpha = float(rng.choice([0.9, 0.95, 0.99]))
            n = int(rng.integers(1, 5))
            res = solve_tranche_dp(atoms(values, np.array(counts) / 256), alpha, n)
            assert bits(res) == bits(brute_force_oracle(values, counts, alpha, n))

    def test_size_guard(self):
        with pytest.raises(OracleTooLarge, match="oracle bound"):
            brute_force_oracle(list(range(1, 14)), [1] * 13, 0.95, 2)


class TestOverheadSchedule:
    def test_none_is_free(self):
        sched = OverheadSchedule()
        assert sched.cost(1) == 0.0 and sched.cost(100) == 0.0

    def test_linear_cost(self):
        assert OverheadSchedule(rate=0.001).cost(21) == 0.021

    def test_table_lookup(self):
        sched = OverheadSchedule(costs=(0.0, 0.5, 0.5, 2.0))
        assert sched.cost(1) == 0.0 and sched.cost(4) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidBounds, match=">= 0"):
            OverheadSchedule(rate=-0.5)
        with pytest.raises(InvalidBounds, match="nondecreasing"):
            OverheadSchedule(costs=(1.0, 0.5))
        with pytest.raises(InvalidBounds, match="at least one entry"):
            OverheadSchedule(costs=())
        with pytest.raises(InvalidBounds, match="entries must be finite"):
            OverheadSchedule(costs=(0.0, -1.0))
        with pytest.raises(InvalidBounds, match="a rate or a table, not both"):
            OverheadSchedule(rate=1.0, costs=(0.0, 1.0))
        with pytest.raises(InvalidBounds, match="covers 1..3 units, asked for 0"):
            OverheadSchedule(costs=(1.0, 2.0, 3.0)).cost(0)
        with pytest.raises(InvalidBounds, match="asked for -1"):
            OverheadSchedule(rate=2.0).cost(-1)

    def test_table_must_cover_the_request(self):
        sched = OverheadSchedule(costs=(0.0, 0.1))
        assert sched.units == 2
        assert OverheadSchedule().units == OverheadSchedule(rate=0.5).units == math.inf
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
        res = solve_with_overhead(model, 0.95, 30, OverheadSchedule(rate=0.001))
        assert res.best_n == 21
        assert res.capital == 0.0
        assert res.objective == 0.021

    def test_expensive_desks_collapse_to_one(self):
        model = near_uniform_500_atoms()
        res = solve_with_overhead(model, 0.95, 30, OverheadSchedule(rate=2.0))
        assert res.best_n == 1
        assert res.objective == pytest.approx(0.95 + 2.0, abs=1e-12)

    def test_interior_optimum(self):
        """A mid-range rate stops the split where marginal desks stop paying."""
        model = near_uniform_500_atoms()
        caps = {n: solve_tranche_dp(model, 0.95, n).capital for n in range(1, 31)}
        for rate in (0.0005, 0.002, 0.01):
            res = solve_with_overhead(model, 0.95, 30, OverheadSchedule(rate=rate))
            best = min(caps[n] + rate * n for n in range(1, 31))
            assert res.objective == pytest.approx(best, abs=1e-15)

    def test_tie_break_toward_smaller_n(self):
        """Zero-cost desks with a capital plateau report the smallest count."""
        res = solve_with_overhead(A3, 0.95, 3, OverheadSchedule(costs=(0.0, 0.0, 0.0)))
        assert res.best_n == 1
        assert res.capital == 10.0

    def test_table_shorter_than_n_max_rejected(self):
        with pytest.raises(InvalidBounds, match="covers 1..2 units, need 5"):
            solve_with_overhead(A3, 0.95, 5, OverheadSchedule(costs=(0.0, 0.1)))

    def test_objective_never_below_capital(self):
        rng = np.random.default_rng(605)
        for _ in range(10):
            model = random_dyadic_atoms(rng)
            rate = float(rng.uniform(0.0, 1.0))
            res = solve_with_overhead(model, 0.95, 4, OverheadSchedule(rate=rate))
            assert res.objective >= res.capital >= 0.0


def model_of(law, as_samples: bool):
    """The law of integer weights on values as an atom list or as a sample."""
    values, weights = law
    if as_samples:
        return empirical(np.repeat(np.array(values, dtype=float), weights))
    return atoms(values, np.array(weights) / sum(weights))


@st.composite
def solver_cases(draw):
    """A law of at most 12 integer values with integer weights over their
    (non-dyadic) sum, with no atom at 0, a light one or a heavy one; whether
    to take it as atoms or as samples; a level; a unit budget 1..m + 1; and
    an overhead schedule. A heavy top atom outweighs 1 - alpha, so capital
    never reaches 0."""
    m = draw(st.integers(1, 11))
    values = sorted(draw(st.sets(st.integers(1, 60), min_size=m, max_size=m)))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    if draw(st.booleans()):
        weights[-1] *= draw(st.integers(10, 60))
    zero = draw(st.sampled_from([None, 1, 9 * sum(weights)]))
    if zero is not None:
        values, weights = [0, *values], [zero, *weights]
    as_samples = draw(st.booleans())
    alpha = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97]))
    n_max = draw(st.integers(1, len(values) + 1))
    variant = draw(st.sampled_from(["none", "linear", "table"]))
    if variant == "none":
        sched = OverheadSchedule()
    elif variant == "linear":
        sched = OverheadSchedule(rate=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 40.0])))
    else:
        costs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0]),
                              min_size=n_max, max_size=n_max + 2))
        sched = OverheadSchedule(costs=sorted(costs))
    return (values, weights), as_samples, alpha, n_max, sched


@settings(max_examples=400)
@given(solver_cases())
@example((([27, 28, 58], [7, 1, 6]), False, 0.5, 2, OverheadSchedule(rate=1.0)))
@example((([0, 3, 7, 12], [1, 4, 2, 7]), False, 0.8, 4, OverheadSchedule()))
@example((([0, 1, 2], [97, 1, 2]), False, 0.95, 3, OverheadSchedule()))
def test_solver_matches_the_exact_brute_force(case):
    """The walk over free groups, with its one costly group first, reports
    bit for bit what enumerating every split in exact arithmetic reports:
    the unit count, the cuts, the capital and the objective. The oracle
    prices each group by the exact quantile of its unit, so a law with an
    atom at 0, light or heavy, shows that the solver's guarded float table
    decides every group as exact arithmetic does."""
    law, as_samples, alpha, n_max, sched = case
    res = solve_with_overhead(model_of(law, as_samples), alpha, n_max, sched)
    assert bits(res) == bits(brute_force_oracle(*law, alpha, n_max, sched))


@settings(max_examples=400)
@given(solver_cases())
def test_the_exact_walk_matches_the_brute_force(case):
    """The lemma the solver rests on, checked in exact arithmetic: the walk
    over free groups on integer prefix sums finds what enumerating every
    split finds, zero atoms included."""
    law, _, alpha, n_max, sched = case
    assert exact_walk(*law, alpha, n_max, sched) == brute_force_oracle(*law, alpha, n_max, sched)


@st.composite
def floor_cases(draw):
    """A law as atoms or as samples, with no atom at 0, a light one or a heavy
    one, its weights dyadic (total a power of two) or not; a level; a budget."""
    m = draw(st.integers(1, 10))
    values = sorted(draw(st.sets(st.integers(1, 60), min_size=m, max_size=m)))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    zero = draw(st.sampled_from([None, 1, 9 * sum(weights)]))
    if zero is not None:
        values, weights = [0, *values], [zero, *weights]
    if draw(st.booleans()):
        weights[-1] += (1 << (sum(weights) - 1).bit_length()) - sum(weights)
    if draw(st.booleans()):
        model = atoms(values, np.array(weights) / sum(weights))
    else:
        model = empirical(np.repeat(np.array(values, dtype=float), weights))
    alpha = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97]))
    return model, alpha, draw(st.integers(1, len(values) + 2))


@settings(max_examples=300)
@given(floor_cases())
@example((atoms([0, 100], [0.5, 0.5]), 0.95, 11))  # floor 0.0, capital 100.0 at N = 11
@example((atoms([0, 1, 2], [0.97, 0.01, 0.02]), 0.95, 3))  # both 0
def test_capital_never_beats_the_unrestricted_floor(case):
    """No split into N interval tranches costs less than the least summed
    strict VaR of any N-unit split, q+(1 - N(1 - alpha)) (Embrechts, Liu and
    Wang, 2018), which is the charge on one of N randomized subsidiaries."""
    model, alpha, n = case
    for units in range(1, n + 1):
        floor = randomized_unit_price(model, units, alpha)[1]
        assert solve_tranche_dp(model, alpha, units).capital >= floor


@pytest.mark.parametrize(
    ("model", "alpha", "groups", "capital"),
    [
        # a top atom heavier than 1 - alpha: the walk cannot start
        (atoms(np.arange(1.0, 201.0), np.append(np.full(199, 0.5 / 199), 0.5)), 0.95, 1, 200.0),
        # 64 atoms of 1/64 at 0.95: groups of at most 3 atoms, capital 0 at 22
        (atoms(np.arange(1.0, 65.0), np.full(64, 1.0 / 64.0)), 0.95, 22, 0.0),
    ],
)
def test_the_pass_stops_early(model, alpha, groups, capital):
    """At a start the walk cannot lower, or at capital 0, whatever the budget."""
    m = model.law.values.size
    for budget in (m, 10 * m):
        res = solve_tranche_dp(model, alpha, budget)
        assert (res.capital, res.best_n) == (capital, groups)


def test_many_rows_in_bounded_memory():
    """5000 equal atoms at 0.999 need 1250 groups of 4 atoms (mass 0.0008) for
    capital 0. The walk keeps O(m) integers; a table of 1250 rows of 5002
    floats would peak near 50 MB."""
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
    assert peak < 2 * 2**20, f"peaked at {peak / 2**20:.1f} MB"


def test_the_walk_reads_the_table_in_place():
    """The free-group table holds one integer per distinct value; turning it
    into a Python list would add about 32 bytes per value (a 200 000-value
    book peaks near 62 bytes per value that way, 32 without)."""
    m = 200_000
    model = empirical(np.random.default_rng(7).lognormal(size=m))
    tracemalloc.start()
    try:
        res = solve_with_overhead(model, 0.95, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.best_n, res.capital) == (21, 0.0)
    assert peak < 48 * m, f"peaked at {peak / m:.1f} bytes per value"


def test_solver_matches_the_reference_on_larger_laws():
    """Bit for bit against the exact walk on 20 laws of 50 to 300 distinct
    atoms, each as atoms and as samples. Integer weights over a sum that is
    not a power of two make every atom probability non-dyadic."""
    rng = np.random.default_rng(2021)
    for _ in range(20):
        m = int(rng.integers(50, 301))
        values = np.sort(rng.choice(np.arange(1, 20 * m), size=m, replace=False)).astype(float)
        weights = rng.integers(1, 10, size=m)
        if (weights.sum() & (weights.sum() - 1)) == 0:
            weights[0] += 1
        alpha = float(rng.choice([0.9, 0.95, 0.99, 0.995]))
        n_max = int(rng.integers(1, m + 2))
        sched = OverheadSchedule(rate=float(rng.choice([0.0, 0.5, 3.0])))
        want = bits(exact_walk(values.tolist(), weights.tolist(), alpha, n_max, sched))
        for model in (atoms(values, weights / weights.sum()), empirical(np.repeat(values, weights))):
            assert bits(solve_with_overhead(model, alpha, n_max, sched)) == want


@settings(max_examples=200)
@given(solver_cases())
def test_one_costly_tranche_and_it_comes_first(case):
    """The lemma the solver rests on: at the fewest groups for its capital,
    every tranche but the first is free, and the first pays all of it."""
    law, as_samples, alpha, n_max, sched = case
    model = model_of(law, as_samples)
    res = solve_with_overhead(model, alpha, n_max, sched)
    _, tranche_vars, _ = decompose(model, res.partition, alpha)
    assert tranche_vars[0] == res.capital
    assert not np.any(tranche_vars[1:])


@st.composite
def top_pair_cases(draw):
    """A law of at most 12 atoms whose top atom is the float just above the
    one below it, as atoms or as samples; a level; a unit budget."""
    m = draw(st.integers(1, 11))
    values = sorted(draw(st.sets(st.integers(1, 60), min_size=m, max_size=m)))
    values = [*map(float, values), float(np.nextafter(values[-1], np.inf))]
    weights = draw(st.lists(st.integers(1, 9), min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        model = atoms(values, np.array(weights) / sum(weights))
    else:
        model = empirical(np.repeat(np.array(values), weights))
    alpha = draw(st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]))
    return model, alpha, draw(st.integers(1, m + 2))


def pair_splits(m: int, n: int):
    """Every split of m atoms into at most n groups that keeps the top two together."""
    return (
        (0, *inner, m)
        for r in range(1, min(n, m - 1) + 1)
        for inner in itertools.combinations(range(1, m - 1), r - 1)
    )


@settings(max_examples=300)
@given(top_pair_cases())
@example((atoms([2.5, 3.5, 6.5, 6.500000000000001], [0.254, 0.243, 0.257, 0.246]), 0.5, 2))
def test_a_top_float_pair_stays_together(case):
    """No float cut parts the top atom from its neighbour, so the solver
    prices the cheapest split that keeps the pair in one group: by
    enumeration, the least capital, then the fewest groups."""
    model, alpha, n = case
    law, m = model.law, model.law.values.size
    best = min(
        (sum(law.unit_var(a, b, alpha) for a, b in zip(s, s[1:])), len(s) - 1)
        for s in pair_splits(m, n)
    )
    res = solve_tranche_dp(model, alpha, n)
    assert (res.capital, res.best_n) == best
    _, tranche_vars, _ = decompose(model, res.partition, alpha)
    assert sum(tranche_vars.tolist()) == res.capital


TOP_PAIR_BOOK = atoms(
    [1.0, 3.0, 3.0000000000000004, 7.0, 8.0, 11.0, 11.000000000000002],
    [0.140625, 0.109375, 0.171875, 0.140625, 0.140625, 0.171875, 0.125],
)


@settings(max_examples=300)
@given(top_pair_cases())
@example((TOP_PAIR_BOOK, 0.5, 3))
@example((TOP_PAIR_BOOK, 0.5, 9))
def test_build_partition_packs_around_a_top_float_pair(case):
    """``build_partition`` refuses a book with a top float pair only when no
    split that keeps the pair together has every tranche free, needs no more
    tranches than the fewest such split, and every tranche it makes is free
    and passes the mass bound."""
    model, alpha, n = case
    law, m = model.law, model.law.values.size
    free = [
        len(s) - 1
        for s in pair_splits(m, m)
        if not any(law.unit_var(a, b, alpha) for a, b in zip(s, s[1:]))
    ]
    if not free:
        with pytest.raises((AtomTooHeavy, InvalidBounds, NInsufficient)):
            build_partition(model, alpha, n)
        return
    if n < min(free):
        with pytest.raises(NInsufficient, match=f"need >= {min(free)}$"):
            build_partition(model, alpha, n)
        return
    part = build_partition(model, alpha, n)
    masses, tranche_vars, _ = decompose(model, part, alpha)
    assert part.n_tranches == masses.size == n
    assert sum(tranche_vars.tolist()) == 0.0
    assert all(_mass_ok(mass, alpha) for mass in masses)
