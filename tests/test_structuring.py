"""Tests for partition building, tranche decomposition, and randomized routing."""

import re
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import reference_partition_cuts
from hypothesis import example, given, reject
from hypothesis import strategies as st

import varsplit.cli
from varsplit import (
    AtomTooHeavy,
    Interval,
    InvalidBounds,
    NInsufficient,
    Partition,
    PartitionMismatch,
    ProbsNotNormalized,
    atoms,
    build_partition,
    decompose,
    empirical,
    es_of_tranche,
    mass_in,
    min_subsidiaries,
    randomized_assign,
    randomized_unit_price,
    sample,
    solve_tranche_dp,
    solve_with_overhead,
    uniform,
    var,
    var_of_tranche,
)
from varsplit.cli import parse_cli, run_simulation
from varsplit.loss_model import PROB_TOL
from varsplit.structuring import MAX_UNITS, _mass_ok

U01 = uniform(0.0, 1.0)
SINGLE_ATOM_100 = atoms([100.0], [1.0])
FIVE_FIFTHS = atoms([1.0, 2.0, 3.0, 4.0, 5.0], [0.2] * 5)
EIGHTHS_FROM_0 = atoms(np.arange(8.0), np.full(8, 0.125))
SIXTEENTHS = atoms(np.arange(1.0, 17.0), np.full(16, 1 / 16))
TIED = empirical([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0])


def dirichlet_atoms(m: int, seed: int):
    """About m lognormal atoms with Dirichlet probabilities: a split has tranches
    of dozens of non-dyadic weights, whose sums round by how they are grouped."""
    rng = np.random.default_rng(seed)
    values = np.unique(rng.lognormal(0.0, 1.0, size=m))
    return atoms(values, rng.dirichlet(np.ones(values.size)))


DIRICHLET_400 = dirichlet_atoms(400, seed=3)


@st.composite
def near_edge_probs(draw):
    """3 to 39 positive probabilities whose sum is 1 up to about PROB_TOL."""
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=3, max_size=39)), float)
    return list(weights / weights.sum() * (1.0 + draw(st.floats(-PROB_TOL, PROB_TOL))))


@st.composite
def split_cases(draw):
    """A feasible atoms or empirical model, a level, a tranche count from the
    greedy one up to three past the atom count, and the integer weights the
    model's values carry."""
    m = draw(st.integers(1, 40))
    values = sorted(draw(st.sets(st.integers(0, 90), min_size=m, max_size=m)))
    weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    if draw(st.booleans()):
        model = atoms(values, np.array(weights) / sum(weights))
    else:
        model = empirical(np.repeat(np.array(values, dtype=float), weights))
    alpha = draw(st.sampled_from([0.3, 0.5, 0.75, 0.9, 0.95]))
    try:
        greedy = build_partition(model, alpha).n_tranches
    except AtomTooHeavy:
        reject()
    return model, alpha, draw(st.integers(greedy, m + 3)), weights


@st.composite
def priced_splits(draw):
    """A model, a level and a partition: a ``build_partition`` split of an
    atoms or empirical model (ties, an atom at 0, empty slivers), an
    equal-mass split of a uniform model, or one tranche over the support."""
    if draw(st.booleans()):
        model, alpha, n, _ = draw(split_cases())
        part = build_partition(model, alpha, n)
    else:
        lower = draw(st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 7.3]), st.floats(0.0, 10.0)))
        model = uniform(lower, lower + draw(st.floats(0.1, 50.0)))
        alpha = draw(st.sampled_from([0.5, 0.75, 0.9, 0.95]))
        part = build_partition(model, alpha, min_subsidiaries(alpha) + draw(st.integers(0, 3)))
    if draw(st.booleans()):
        part = Partition((0.0, model.max_loss))
    return model, alpha, part


def flat_64_atoms():
    """64 equally likely integer atoms; masses sit on the exact 1/64 grid."""
    return atoms(np.arange(1.0, 65.0), np.full(64, 1.0 / 64.0))


class TestMinSubsidiaries:
    @pytest.mark.parametrize(
        "alpha,expected", [(0.90, 11), (0.95, 21), (0.99, 101), (0.5, 3)]
    )
    def test_pigeonhole_floor(self, alpha, expected):
        assert min_subsidiaries(alpha) == expected

    def test_accepts_risk_level(self):
        """A level is any real number that float() reads."""
        for level in (0.95, np.float64(0.95), Fraction(19, 20)):
            assert min_subsidiaries(level) == 21

    def test_result_is_tight(self):
        """N units are free, N - 1 units cannot be, up to alpha = 1 - 1e-11: a
        single atom at 100 charges every unit 0 at N and 100 at N - 1. Past
        MAX_UNITS the unit VaR refuses the count, and the mass bound that
        zeroes it (each unit's mass 1/N) is checked instead."""
        for alpha in (0.9, 0.95, 0.99, 0.8, 0.5, *(1.0 - 10.0**-k for k in range(1, 12))):
            n = min_subsidiaries(alpha)
            if n <= MAX_UNITS:
                assert randomized_unit_price(SINGLE_ATOM_100, n, alpha)[1] == 0.0
                if n > 1:
                    assert randomized_unit_price(SINGLE_ATOM_100, n - 1, alpha)[1] == 100.0
                continue
            assert _mass_ok(1.0 / n, alpha) and not _mass_ok(1.0 / (n - 1), alpha)
            with pytest.raises(InvalidBounds, match=f"^{n} subsidiaries exceed the limit"):
                randomized_unit_price(SINGLE_ATOM_100, n, alpha)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-12, 0.9999999999995, 0.9999999999999999])
    def test_no_count_once_the_guarded_level_reaches_one(self, alpha):
        with pytest.raises(NInsufficient, match="no unit count"):
            min_subsidiaries(alpha)


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(InvalidBounds, match="at least two"):
            Partition((0.0,))
        with pytest.raises(InvalidBounds, match="start at 0"):
            Partition((0.1, 1.0))
        with pytest.raises(InvalidBounds, match="strictly increasing"):
            Partition((0.0, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cuts_rejected(self, bad):
        """A NaN cut fails every comparison, so only a finiteness check stops it."""
        for cuts in ((0.0, bad), (0.0, 0.5, bad), (0.0, bad, 1.0)):
            with pytest.raises(InvalidBounds, match="finite"):
                Partition(cuts)

    def test_tranche_count_and_closure(self):
        part = Partition((0.0, 0.5, 1.0))
        assert part.n_tranches == 2
        masses, _, _ = decompose(atoms([0.0, 0.5, 1.0], [0.25, 0.25, 0.5]), part, 0.5)
        assert masses.tolist() == [0.25, 0.75]


class TestBuildPartitionUniform:
    def test_minimal_count_and_equal_mass_cuts(self):
        part = build_partition(U01, 0.95)
        assert part.n_tranches == 21
        assert part.cuts[0] == 0.0 and part.cuts[-1] == 1.0
        for k in range(1, 21):
            assert part.cuts[k] == var(U01, k / 21)
        masses, _, _ = decompose(U01, part, 0.95)
        assert max(abs(m - 1.0 / 21.0) for m in masses.tolist()) < 1e-12

    def test_shifted_support(self):
        model = uniform(1.0, 3.0)
        part = build_partition(model, 0.9)
        assert part.n_tranches == 11
        assert part.cuts[0] == 0.0 and part.cuts[-1] == 3.0
        _, tranche_vars, _ = decompose(model, part, 0.9)
        assert sum(tranche_vars.tolist()) == 0.0

    def test_insufficient_count_rejected(self):
        with pytest.raises(NInsufficient, match="need >= 21"):
            build_partition(U01, 0.95, 10)
        for alpha in (0.90, 0.95, 0.99):
            n_min = min_subsidiaries(alpha)
            with pytest.raises(NInsufficient):
                build_partition(U01, alpha, n_min - 1)

    def test_extra_tranches_allowed(self):
        part = build_partition(U01, 0.95, 30)
        assert part.n_tranches == 30
        _, tranche_vars, _ = decompose(U01, part, 0.95)
        assert sum(tranche_vars.tolist()) == 0.0

    def test_nonpositive_count_rejected(self):
        with pytest.raises(NInsufficient, match=">= 1"):
            build_partition(U01, 0.95, 0)


class TestBuildPartitionDiscrete:
    def test_heavy_atom_is_fatal(self):
        with pytest.raises(AtomTooHeavy, match="never sit strictly below"):
            build_partition(atoms([0.0, 10.0], [0.5, 0.5]), 0.95)

    def test_heavy_zero_atom_is_fatal_though_the_solver_prices_it_at_zero(self):
        """An atom at 0 heavier than 1 - alpha fails the mass bound, yet the
        group that holds it pays values[0] = 0, so the solver reaches capital 0."""
        model = atoms([0.0, 1.0, 2.0], [0.97, 0.01, 0.02])
        with pytest.raises(AtomTooHeavy, match="an atom of mass 0.97 "):
            build_partition(model, 0.95)
        res = solve_tranche_dp(model, 0.95, 3)
        assert (res.capital, res.best_n, res.partition.cuts) == (0.0, 1, (0.0, 2.0))

    def test_greedy_packing_on_flat_grid(self):
        """64 atoms of 1/64 pack three per tranche: 21 full groups plus one."""
        model = flat_64_atoms()
        part = build_partition(model, 0.95)
        assert part.n_tranches == 22
        masses, tranche_vars, _ = decompose(model, part, 0.95)
        assert sum(tranche_vars.tolist()) == 0.0
        assert np.all(masses < 0.05)

    def test_insufficient_count_for_atoms(self):
        with pytest.raises(NInsufficient, match="need >= 22"):
            build_partition(flat_64_atoms(), 0.95, 21)

    def test_group_splitting_reaches_requested_count(self):
        model = flat_64_atoms()
        part = build_partition(model, 0.95, 30)
        assert part.n_tranches == 30
        _, tranche_vars, _ = decompose(model, part, 0.95)
        assert sum(tranche_vars.tolist()) == 0.0

    def test_sliver_fallback_when_atoms_run_out(self):
        """More tranches than atoms still works; the spares carry no mass."""
        model = atoms([1.0, 2.0, 3.0], [0.3, 0.4, 0.3])
        part = build_partition(model, 0.5, 6)
        assert part.n_tranches == 6
        masses, tranche_vars, _ = decompose(model, part, 0.5)
        assert sum(tranche_vars.tolist()) == 0.0
        assert np.sum(masses == 0.0) == 3

    def test_slivers_that_floats_cannot_hold_are_refused_by_count(self):
        """0.1 * 7 is the float just above 0.7, and the first cut lands on it:
        one empty tranche still fits, on 0.7 itself; two do not."""
        model = atoms([0.7, 0.1 * 7, 5.0], [0.3, 0.3, 0.4])
        assert build_partition(model, 0.5, 4).cuts == (0.0, 0.7, 0.1 * 7, 2.85, 5.0)
        message = (
            "cannot make 5 tranches: 2 empty ones do not fit "
            "between 0.7 and 0.7000000000000001 as distinct float cuts"
        )
        with pytest.raises(NInsufficient, match=f"^{re.escape(message)}$"):
            build_partition(model, 0.5, 5)

    @given(split_cases())
    @example((atoms(np.arange(1.0, 9.0), np.full(8, 0.125)), 0.1, 6, [1] * 8))
    def test_split_matches_the_pair_list_reference(self, case):
        """Every count from the greedy one to past the atom count cuts where
        the [start, end] pair-list split cut, ties on width included. The
        reference groups by exact mass on the integer weights, so a group the
        guarded float rule misjudged would show here."""
        model, alpha, n, weights = case
        want = reference_partition_cuts(model.law.values.tolist(), weights, alpha, n)
        assert build_partition(model, alpha, n).cuts == want

    # At 0.8 the greedy widths are 3,3,3,3,3,1: five groups tie, so counts 6
    # to 16 check the leftmost-first order at every split, and 17 to 19 the
    # slivers after it.
    for _n in range(6, 20):
        test_split_matches_the_pair_list_reference = example((SIXTEENTHS, 0.8, _n, [1] * 16))(
            test_split_matches_the_pair_list_reference
        )
    del _n

    def test_a_large_budget_halves_every_group_quickly(self):
        """20 000 atoms of 1/20 000 at 0.999 pack 19 to a group, 1 053 groups,
        halved down to single atoms. The 2 s bound catches a split loop that
        rescans every group width per split, which takes about 10 s here."""
        m = 20_000
        model = atoms(np.arange(1.0, m + 1.0), np.full(m, 1.0 / m))
        assert build_partition(model, 0.999).n_tranches == 1_053
        t0 = time.perf_counter()
        part = build_partition(model, 0.999, m)
        elapsed = time.perf_counter() - t0
        assert part.cuts == (0.0, *(k + 0.5 for k in range(1, m)), float(m))
        assert elapsed < 2.0, f"took {elapsed:.2f} s"

    def test_empirical_models_pack_too(self):
        rng = np.random.default_rng(52)
        model = empirical(rng.integers(1, 101, size=400).astype(float))
        part = build_partition(model, 0.9)
        masses, tranche_vars, _ = decompose(model, part, 0.9)
        assert sum(tranche_vars.tolist()) == 0.0
        assert np.all(masses < 0.1)
        # 0.1 * 7 is the float just above 0.7; the cut between them lands on it
        model = empirical([0.7] * 3 + [0.1 * 7] * 3 + [5.0] * 4)
        part = build_partition(model, 0.5)
        masses, _, _ = decompose(model, part, 0.5)
        assert part.cuts == (0.0, 0.1 * 7, 2.85, 5.0)
        assert np.all(masses < 0.5)

    @pytest.mark.parametrize("low", [0.7, 0.3])
    def test_no_float_cut_separates_the_top_atom_from_its_neighbour(self, low):
        """The pair is too heavy to be free, and no cut parts it: build_partition
        refuses it; the solver keeps it in one group."""
        top = float(np.nextafter(low, np.inf))
        model = atoms([low, top], [0.5, 0.5])
        message = re.escape(f"no float cut separates {low!r} from {top!r}")
        with pytest.raises(InvalidBounds, match=message):
            build_partition(model, 0.4)
        res = solve_tranche_dp(model, 0.4, 2)
        assert (res.best_n, res.capital, res.partition.cuts) == (1, low, (0.0, top))

    def test_a_midpoint_past_the_float_range_is_taken_by_halves(self):
        model = atoms([1e308, 1.7e308], [0.5, 0.5])
        assert build_partition(model, 0.3).cuts == (0.0, 1.35e308, 1.7e308)


class TestDecompose:
    def test_zero_capital_for_minimal_uniform_partition(self):
        _, tranche_vars, _ = decompose(U01, build_partition(U01, 0.95), 0.95)
        assert list(tranche_vars) == [0.0] * 21
        assert sum(tranche_vars.tolist()) == 0.0

    def test_two_heavy_tranches_both_pay(self):
        """Half-unit tranches each carry mass 0.5, far above the 0.05 budget."""
        _, tranche_vars, _ = decompose(U01, Partition((0.0, 0.5, 1.0)), 0.95)
        assert tranche_vars[0] == pytest.approx(0.45, abs=1e-12)
        assert tranche_vars[1] == pytest.approx(0.95, abs=1e-12)

    def test_single_tranche_is_whole_book(self):
        _, tranche_vars, _ = decompose(U01, Partition((0.0, 1.0)), 0.95)
        assert list(tranche_vars) == [var(U01, 0.95)]
        assert sum(tranche_vars.tolist()) == 0.95

    def test_masses_sum_to_one(self):
        masses, _, _ = decompose(U01, Partition((0.0, 0.2, 0.7, 1.0)), 0.95)
        assert float(np.sum(masses)) == pytest.approx(1.0, abs=1e-12)

    @given(probs=near_edge_probs(), alpha=st.sampled_from([0.5, 0.75, 0.9]))
    @example(
        probs=[0.1503170253143521, 0.1900380041473550, 0.1974383548446614,
               0.1325257473231537, 0.3296808683714777],
        alpha=0.5,
    )
    def test_near_edge_atoms_decompose(self, probs, alpha):
        """Probabilities accepted within PROB_TOL of 1 decompose under their own partition."""
        try:
            model = atoms(np.arange(1.0, len(probs) + 1.0), probs)
            part = build_partition(model, alpha)
        except (ProbsNotNormalized, AtomTooHeavy):
            return
        _, tranche_vars, _ = decompose(model, part, alpha)
        assert sum(tranche_vars.tolist()) == 0.0

    def test_partition_must_span_support(self):
        with pytest.raises(PartitionMismatch, match="ends at"):
            decompose(U01, Partition((0.0, 0.5)), 0.95)
        with pytest.raises(PartitionMismatch, match="ends at"):
            decompose(U01, Partition((0.0, 2.0)), 0.95)

    @given(priced_splits())
    @example((EIGHTHS_FROM_0, 0.5, build_partition(EIGHTHS_FROM_0, 0.5, 11)))
    @example((TIED, 0.6, build_partition(TIED, 0.6, 7)))
    @example((uniform(2.0, 3.0), 0.95, Partition((0.0, 3.0))))
    @example((FIVE_FIFTHS, 0.95, Partition((0.0, 5.0))))
    @example((DIRICHLET_400, 0.9, build_partition(DIRICHLET_400, 0.9, 15)))
    def test_columns_match_the_single_tranche_functions(self, case):
        """Each column equals its one-tranche function on every interval, bit for bit."""
        model, alpha, part = case
        got = zip(*decompose(model, part, alpha).tolist())
        cuts = part.cuts
        ivs = [Interval(lo, hi, closed_hi=hi == cuts[-1]) for lo, hi in zip(cuts, cuts[1:])]
        want = [
            (mass_in(model, iv), var_of_tranche(model, iv, alpha), es_of_tranche(model, iv, alpha))
            for iv in ivs
        ]
        assert [[float.hex(x) for x in row] for row in got] == [
            [float.hex(x) for x in row] for row in want
        ]


class TestSplitRealization:
    """``simulate`` with one trial splits that trial's loss: a unit's empirical
    VaR is then its own loss, so the report's rows are the split of the draw."""

    @staticmethod
    def split(monkeypatch, x, command=None):
        """The cuts and the report's per-unit split of the one draw ``x``."""
        if command is None:
            command = parse_cli(["simulate", "--dist", "uniform:0,1", "--alpha", "0.4",
                                 "--tranches", "2", "--trials", "1"])
        monkeypatch.setattr(varsplit.cli, "sample", lambda model, seed, n: np.array([x]))
        report = run_simulation(command)
        return report.cuts, [row["var_empirical"] for row in report.tranches]

    def test_boundary_goes_right(self, monkeypatch):
        """0.5 belongs to [0.5, 1], the lo-inclusive side."""
        assert self.split(monkeypatch, 0.5) == ((0.0, 0.5, 1.0), [0.0, 0.5])

    def test_max_loss_lands_in_last_tranche(self, monkeypatch):
        assert self.split(monkeypatch, 1.0)[1] == [0.0, 1.0]

    def test_interior_point(self, monkeypatch):
        assert self.split(monkeypatch, 0.2)[1] == [0.2, 0.0]

    def test_reconstruction_is_bitwise(self, monkeypatch):
        """Each draw lands in exactly one tranche of the 21-tranche split and
        sums back unchanged; a draw on an inner cut lands in the tranche above."""
        command = parse_cli(["simulate", "--dist", "uniform:0,1", "--alpha", "0.95", "--trials", "1"])
        cuts, _ = self.split(monkeypatch, 0.0, command)
        assert len(cuts) == 22
        for x in sample(U01, seed=21, n=10**4).tolist():
            pieces = self.split(monkeypatch, x, command)[1]
            assert np.count_nonzero(pieces) <= 1
            assert float(np.sum(pieces)) == x
        for k, cut in enumerate(cuts[1:-1], start=1):
            assert self.split(monkeypatch, cut, command)[1] == [cut if j == k else 0.0 for j in range(21)]


class TestRandomizedScheme:
    def test_subsidiary_count_validation(self):
        losses = np.array([1.0, 2.0])
        with pytest.raises(InvalidBounds, match="at least one subsidiary"):
            randomized_assign(0, 1, losses)
        np.testing.assert_array_equal(randomized_assign(1, 1, losses), [0, 0])

    def test_single_unit_takes_everything(self):
        losses = np.array([1.0, 0.0, 3.5])
        idx = randomized_assign(1, 9, losses)
        assert idx.shape == (3,)
        np.testing.assert_array_equal(np.where(idx == 0, losses, 0.0), losses)

    def test_rows_reconstruct_losses_bitwise(self):
        losses = sample(U01, seed=33, n=5000)
        idx = randomized_assign(21, 7, losses)
        assert idx.shape == (5000,) and np.issubdtype(idx.dtype, np.integer)
        columns = np.where(idx[:, None] == np.arange(21), losses[:, None], 0.0)
        np.testing.assert_array_equal(columns.sum(axis=1), losses)
        assert np.all(np.count_nonzero(columns, axis=1) <= 1)

    def test_assignment_is_deterministic(self):
        losses = sample(U01, seed=33, n=1000)
        a = randomized_assign(5, 11, losses)
        b = randomized_assign(5, 11, losses)
        np.testing.assert_array_equal(a, b)
        c = randomized_assign(5, 12, losses)
        assert not np.array_equal(a, c)

    def test_activation_frequency(self):
        """Each unit is hit about 1/N of the time, within three sigmas."""
        n_units, trials = 21, 10**5
        losses = np.ones(trials)
        idx = randomized_assign(n_units, 3, losses)
        freq = np.bincount(idx, minlength=n_units) / trials
        p = 1.0 / n_units
        band = 3.0 * np.sqrt(p * (1.0 - p) / trials)
        assert np.all(np.abs(freq - p) <= band)


class TestValidateScheme:
    """A scheme of N units is free at alpha when the ``randomize`` report prices
    every unit's VaR at 0. On a single atom at the cap that needs the activation
    probability 1/N strictly below the tail budget 1 - alpha; otherwise each
    unit pays the full cap."""

    @staticmethod
    def units(dist, n):
        """The report's per-unit activation masses and analytic VaRs, as sets."""
        argv = ["randomize", "--dist", dist, "--alpha", "0.95", "--subsidiaries", str(n)]
        rows = run_simulation(parse_cli([*argv, "--trials", "10"])).tranches
        assert len(rows) == n
        return {row["mass"] for row in rows}, {row["var_analytic"] for row in rows}

    def test_minimal_count_passes(self):
        (activation,), unit_vars = self.units("atoms:100:1", 21)
        assert activation == pytest.approx(1.0 / 21.0, abs=1e-15)
        assert unit_vars == {0.0}

    def test_boundary_count_fails(self):
        """1/20 = 0.05 only matches the tail budget; the bound is strict."""
        assert self.units("atoms:100:1", 20)[1] == {100.0}

    def test_small_count_fails(self):
        assert self.units("atoms:100:1", 10)[1] == {100.0}

    def test_the_verdict_reads_the_model(self):
        """Half the mass at 0 halves the units needed: 11 are free, 10 are not,
        though 1/11 is above the tail budget."""
        assert self.units("atoms:0:0.5,100:0.5", 11)[1] == {0.0}
        assert self.units("atoms:0:0.5,100:0.5", 10)[1] == {100.0}


class TestRandomizedUnitAnalytics:
    """``randomized_unit_price`` gives one subsidiary's mass, VaR and ES."""

    def test_valid_scheme_is_free(self):
        assert randomized_unit_price(SINGLE_ATOM_100, 21, 0.95)[1] == 0.0
        assert randomized_unit_price(U01, 21, 0.95)[1] == 0.0

    def test_boundary_and_small_schemes_pay_in_full(self):
        assert randomized_unit_price(SINGLE_ATOM_100, 20, 0.95)[1] == 100.0
        assert randomized_unit_price(SINGLE_ATOM_100, 10, 0.95)[1] == 100.0

    @pytest.mark.parametrize("units", [0, -1])
    @pytest.mark.parametrize("model", [U01, SINGLE_ATOM_100], ids=["uniform", "atom"])
    def test_fewer_than_one_subsidiary_rejected(self, model, units):
        """No division by zero, no false zero capital, no misleading level error."""
        with pytest.raises(InvalidBounds, match="at least one subsidiary"):
            randomized_unit_price(model, units, 0.95)

    def test_mass_is_the_chance_of_a_positive_loss(self):
        """A unit loses when it is drawn (1/N) and the loss is positive; an
        atom at 0 takes its weight out of every unit's mass."""
        assert randomized_unit_price(SINGLE_ATOM_100, 20, 0.95)[0] == 1.0 / 20
        assert randomized_unit_price(U01, 21, 0.95)[0] == 1.0 / 21
        assert randomized_unit_price(atoms([0.0, 100.0], [0.5, 0.5]), 10, 0.95)[0] == 0.05
        assert randomized_unit_price(TIED, 4, 0.5)[0] == 0.8 / 4

    def test_small_scheme_on_continuous_model(self):
        """With N = 10 the unit's tail reaches the median of the book."""
        assert randomized_unit_price(U01, 10, 0.95)[1] == pytest.approx(0.5, abs=1e-12)

    def test_unit_es_keeps_the_mean(self):
        """N units each hold ES = E[X] / (N (1 - alpha)): nothing is destroyed."""
        got = randomized_unit_price(U01, 21, 0.95)[2]
        assert got == pytest.approx(0.5 / 1.05, abs=1e-12)
        assert 21 * got == pytest.approx(10.0, abs=1e-9)
        assert randomized_unit_price(SINGLE_ATOM_100, 21, 0.95)[2] == pytest.approx(
            100.0 / 1.05, rel=1e-12
        )

    def test_unit_var_matches_mixture_quantile(self):
        """The closed form agrees with an explicitly built mixture law."""
        for n_units in (2, 3, 5, 10):
            mixture = atoms(
                [0.0, 100.0],
                [1.0 - 1.0 / n_units, 1.0 / n_units],
            )
            for alpha in (0.6, 0.9, 0.95, 0.99):
                got = randomized_unit_price(SINGLE_ATOM_100, n_units, alpha)[1]
                assert got == var(mixture, alpha)


class TestZeroCapitalProperty:
    """The headline theorem: a feasible partition erases the summed charge."""

    def test_uniform_models(self):
        rng = np.random.default_rng(501)
        for _ in range(10):
            a = float(rng.uniform(0.0, 5.0))
            model = uniform(a, a + float(rng.uniform(0.5, 10.0)))
            alpha = float(rng.choice([0.9, 0.95, 0.99]))
            n = min_subsidiaries(alpha) + int(rng.integers(0, 4))
            masses, tranche_vars, _ = decompose(model, build_partition(model, alpha, n), alpha)
            assert sum(tranche_vars.tolist()) == 0.0
            assert np.all(masses < 1.0 - alpha)

    def test_discrete_models(self):
        rng = np.random.default_rng(502)
        for _ in range(10):
            m = int(rng.integers(40, 120))
            values = np.sort(rng.choice(1000, size=m, replace=False)).astype(float)
            model = atoms(values, np.full(m, 1.0) / m)
            masses, tranche_vars, _ = decompose(model, build_partition(model, 0.9), 0.9)
            assert sum(tranche_vars.tolist()) == 0.0
            assert np.all(masses < 0.1)

    def test_monte_carlo_consistency(self):
        """Simulated tranche quantiles agree with the two analytic routes."""
        losses = sample(U01, seed=99, n=10**5)
        emp_model = empirical(losses)
        cuts = (0.0, 0.5, 1.0)
        for lo, hi, analytic in zip(cuts, cuts[1:], (0.45, 0.95)):
            iv = Interval(lo, hi, closed_hi=hi == cuts[-1])
            if iv.closed_hi:
                mask = (losses >= iv.lo) & (losses <= iv.hi)
            else:
                mask = (losses >= iv.lo) & (losses < iv.hi)
            column_var = var(empirical(np.where(mask, losses, 0.0)), 0.95)
            assert column_var == var_of_tranche(emp_model, iv, 0.95)
            assert column_var == pytest.approx(analytic, abs=0.01)


@pytest.mark.parametrize(
    ("count_into", "error"),
    [
        (lambda n: build_partition(FIVE_FIFTHS, 0.5, n), NInsufficient),
        (lambda n: solve_tranche_dp(FIVE_FIFTHS, 0.5, n), InvalidBounds),
        (lambda n: solve_with_overhead(FIVE_FIFTHS, 0.5, n), InvalidBounds),
        (lambda n: randomized_assign(n, 0, [1.0, 2.0]), InvalidBounds),
        (lambda n: randomized_unit_price(FIVE_FIFTHS, n, 0.5)[1], InvalidBounds),
        (lambda n: randomized_unit_price(FIVE_FIFTHS, n, 0.5)[2], InvalidBounds),
    ],
    ids=["partition", "solve_dp", "solve_overhead", "scheme", "unit_var", "unit_es"],
)
def test_unit_counts_must_be_integers(count_into, error):
    """A fractional, float, text or boolean count is refused by name, never
    truncated or fed to numpy; Python and numpy integers are both accepted."""
    for bad in (2.5, 3.0, np.float64(3.0), "3", True):
        with pytest.raises(error, match=re.escape(repr(bad))):
            count_into(bad)
    count_into(3)
    count_into(np.int64(3))


@pytest.mark.parametrize(
    "count_into",
    [
        lambda n: build_partition(FIVE_FIFTHS, 0.5, n),
        lambda n: build_partition(U01, 0.5, n),
        lambda n: randomized_assign(n, 0, [1.0, 2.0]),
        lambda n: randomized_unit_price(FIVE_FIFTHS, n, 0.5)[1],
        lambda n: randomized_unit_price(FIVE_FIFTHS, n, 0.5)[2],
    ],
    ids=["partition", "uniform_partition", "scheme", "unit_var", "unit_es"],
)
def test_unit_counts_stop_at_the_limit(count_into):
    """MAX_UNITS units are built or priced; one more is refused by name."""
    count_into(MAX_UNITS)
    with pytest.raises(InvalidBounds, match=f" exceed the limit of {MAX_UNITS} units$"):
        count_into(MAX_UNITS + 1)


def test_a_derived_unit_count_stops_at_the_limit():
    """The uniform tranche count that alpha asks for is checked as a given
    one is: 200 001 tranches at 1 - 5e-6, none at 1 - 1e-9."""
    assert build_partition(U01, 0.999995).n_tranches == 200_001
    with pytest.raises(InvalidBounds, match="^1001001063 tranches exceed the limit"):
        build_partition(U01, 0.999999999)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: sample(FIVE_FIFTHS, 1, x),
        lambda x: sample(FIVE_FIFTHS, x, 3),
        lambda x: randomized_assign(3, x, [1.0, 2.0]),
    ],
    ids=["sample_size", "sample_seed", "scheme_seed"],
)
def test_seeds_and_sample_sizes_must_be_integers(call):
    """A fractional, float, text, boolean or negative value is refused by name,
    never truncated or left to numpy's own errors; numpy integers are accepted."""
    for bad in (2.5, 3.0, np.float64(3.0), "3", -1, True, False):
        with pytest.raises(InvalidBounds, match=re.escape(repr(bad))):
            call(bad)
    call(3)
    call(np.int64(3))
