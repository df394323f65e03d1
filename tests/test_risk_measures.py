"""Tests for VaR, expected shortfall, tranche pricing, and the additivity gap."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dyadic_weights, grid_uniform_samples, integer_samples, random_dyadic_atoms
from varsplit import (
    Interval,
    InvalidBounds,
    InvalidLevel,
    Partition,
    PartitionMismatch,
    RiskLevel,
    additivity_gap,
    as_level,
    atoms,
    build_partition,
    decompose,
    empirical,
    es_of_tranche,
    expected_shortfall,
    intervals_from_cuts,
    quantile_strict,
    sample,
    tail_integral,
    uniform,
    var,
    var_of_tranche,
)

U01 = uniform(0.0, 1.0)
A3 = atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2])


class TestRiskLevel:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.5])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(InvalidLevel, match="strictly between 0 and 1"):
            RiskLevel(alpha)

    def test_as_level_accepts_floats_and_levels(self):
        assert as_level(0.95).alpha == 0.95
        lvl = RiskLevel(0.9)
        assert as_level(lvl) is lvl


class TestVar:
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
    def test_constant_loss(self, alpha):
        assert var(atoms([5.0], [1.0]), alpha) == 5.0

    def test_cdf_scan(self):
        assert var(A3, 0.95) == 10.0
        assert var(A3, 0.7) == 5.0
        assert var(A3, 0.4) == 0.0

    def test_uniform_quantile(self):
        assert var(U01, 0.95) == 0.95

    def test_matches_strict_quantile(self):
        for alpha in (0.1, 0.5, 0.9, 0.95):
            assert var(A3, alpha) == quantile_strict(A3, alpha)

    def test_monotone_in_level(self):
        """Raising alpha never lowers the capital charge."""
        rng = np.random.default_rng(404)
        models = [random_dyadic_atoms(rng) for _ in range(5)]
        models.append(empirical(integer_samples(rng, 400)))
        models.append(U01)
        for model in models:
            for _ in range(100):
                a1, a2 = np.sort(rng.uniform(0.01, 0.99, size=2))
                assert var(model, float(a1)) <= var(model, float(a2))

    def test_positive_homogeneity_exact(self):
        """Scaling the support scales VaR exactly, atom by atom."""
        rng = np.random.default_rng(405)
        model = random_dyadic_atoms(rng)
        values, probs = model.law.values, model.law.weights
        samples = integer_samples(rng, 300)
        emp = empirical(samples)
        for c in (0.5, 2.0, 3.0):
            scaled = atoms(c * values, probs)
            assert var(scaled, 0.95) == c * var(model, 0.95)
            scaled_emp = empirical(c * samples)
            assert var(scaled_emp, 0.95) == c * var(emp, 0.95)

    def test_comonotonic_additivity_exact(self):
        """Proportional slices w_i * X price back to VaR(X) with no residual."""
        rng = np.random.default_rng(406)
        for samples in (grid_uniform_samples(rng, 512), integer_samples(rng, 512)):
            whole = var(empirical(samples), 0.95)
            for _ in range(25):
                weights = dyadic_weights(rng, int(rng.integers(2, 7)))
                parts = sum(var(empirical(w * samples), 0.95) for w in weights)
                assert parts - whole == 0.0


class TestExpectedShortfall:
    def test_uniform_tail_average(self):
        assert expected_shortfall(U01, 0.95) == 0.975

    def test_constant_loss(self):
        assert expected_shortfall(atoms([5.0], [1.0]), 0.5) == 5.0

    def test_two_point_tail(self):
        assert expected_shortfall(atoms([0.0, 10.0], [0.5, 0.5]), 0.9) == 10.0

    def test_partial_atom_in_tail(self):
        """The tail window [0.7, 1) averages the 5 and 10 atoms by exposure."""
        assert expected_shortfall(A3, 0.7) == pytest.approx(25.0 / 3.0, abs=1e-12)
        assert expected_shortfall(A3, 0.95) == 10.0

    def test_dominates_mean(self):
        cases = [
            (U01, 0.5),
            (A3, 3.5),
            (empirical([1.0, 2.0, 2.0, 4.0]), 2.25),
        ]
        for model, mean in cases:
            for alpha in (0.05, 0.3, 0.6, 0.9, 0.99):
                assert expected_shortfall(model, alpha) >= mean - 1e-12

    def test_empirical_tail_average(self):
        """Four samples at alpha 0.5: the worst half is {2, 4}."""
        assert expected_shortfall(empirical([1.0, 2.0, 2.0, 4.0]), 0.5) == 3.0

    def test_tail_integral_consistency(self):
        assert tail_integral(U01, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert tail_integral(U01, 0.95) == pytest.approx(0.04875, abs=1e-12)
        assert tail_integral(atoms([0.0, 10.0], [0.5, 0.5]), 0.9) == pytest.approx(
            1.0, abs=1e-12
        )
        for alpha in (0.2, 0.5, 0.9):
            want = tail_integral(A3, alpha) / (1.0 - alpha)
            assert expected_shortfall(A3, alpha) == pytest.approx(want, abs=1e-12)

    def test_tail_integral_level_validation(self):
        with pytest.raises(InvalidLevel):
            tail_integral(U01, 1.0)
        with pytest.raises(InvalidLevel):
            tail_integral(U01, -0.1)


class TestVarOfTranche:
    def test_light_slice_is_free(self):
        assert var_of_tranche(U01, Interval(0.20, 0.24), 0.95) == 0.0

    def test_heavy_slice_pays_inside_the_interval(self):
        got = var_of_tranche(U01, Interval(0.2, 0.3), 0.95)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_empty_slice(self):
        assert var_of_tranche(A3, Interval(1.0, 2.0), 0.95) == 0.0

    def test_uniform_top_tranche_cut_at_the_quantile_pays_its_lower_edge(self):
        """Mass 1 - alpha leaves the zeros exactly at alpha: not free, VaR is lo.

        In floats 1 - mass reads 0.5300000000000002, two ulps above alpha and
        inside the boundary rule's guard, so it does not pass alpha.
        """
        model = uniform(4.723405475539687, 5.723405475539687)
        lo = quantile_strict(model, 0.53)
        assert lo == 5.2534054755396875
        iv = Interval(lo, model.max_loss, closed_hi=True)
        assert var_of_tranche(model, iv, 0.53) == lo

    def test_matches_explicit_tranche_law_atoms(self):
        """Closed form equals VaR of the tranche's own distribution, exactly."""
        middle = atoms([0.0, 5.0], [0.7, 0.3])
        top = atoms([0.0, 10.0], [0.8, 0.2])
        for alpha in (0.6, 0.7, 0.9, 0.95, 0.99):
            assert var_of_tranche(A3, Interval(2.5, 7.5), alpha) == var(middle, alpha)
            assert var_of_tranche(
                A3, Interval(7.5, 10.0, closed_hi=True), alpha
            ) == var(top, alpha)

    def test_matches_explicit_tranche_law_empirical(self):
        rng = np.random.default_rng(407)
        samples = grid_uniform_samples(rng, 997)
        model = empirical(samples)
        iv = Interval(0.2, 0.45)
        masked = empirical(np.where((samples >= iv.lo) & (samples < iv.hi), samples, 0.0))
        for alpha in (0.5, 0.8, 0.9, 0.95):
            assert var_of_tranche(model, iv, alpha) == var(masked, alpha)

    def test_matches_explicit_tranche_law_randomized(self):
        rng = np.random.default_rng(408)
        for _ in range(20):
            model = random_dyadic_atoms(rng)
            lo, hi = np.sort(rng.uniform(0.0, 100.0, size=2))
            iv = Interval(float(lo), float(hi) + 1.0)
            values, masses = model.law.values, model.law.weights
            inside = (values >= iv.lo) & (values < iv.hi)
            masked = np.where(inside, values, 0.0)
            vals, idx = np.unique(masked, return_inverse=True)
            probs = np.zeros(vals.size)
            np.add.at(probs, idx, masses)
            alpha = float(rng.uniform(0.5, 0.99))
            assert var_of_tranche(model, iv, alpha) == var(atoms(vals, probs), alpha)


class TestEsOfTranche:
    def test_uniform_middle_slice(self):
        """Hand integral: the tranche's own quantile is 0 until 0.9, then climbs."""
        got = es_of_tranche(U01, Interval(0.2, 0.3), 0.95)
        assert got == pytest.approx(0.275, abs=1e-12)

    def test_uniform_top_slice(self):
        got = es_of_tranche(U01, Interval(0.9, 1.0, closed_hi=True), 0.95)
        assert got == pytest.approx(0.975, abs=1e-12)

    def test_discrete_slices(self):
        mid = Interval(2.5, 7.5)
        top = Interval(7.5, 10.0, closed_hi=True)
        assert es_of_tranche(A3, mid, 0.95) == 5.0
        assert es_of_tranche(A3, mid, 0.7) == 5.0
        assert es_of_tranche(A3, mid, 0.6) == pytest.approx(3.75, abs=1e-12)
        assert es_of_tranche(A3, top, 0.95) == 10.0

    def test_empty_slice(self):
        assert es_of_tranche(A3, Interval(1.0, 2.0), 0.95) == 0.0

    def test_monte_carlo_cross_check(self):
        """Tail mean of simulated tranche losses approaches the closed form."""
        iv = Interval(0.2, 0.3)
        draws = sample(U01, seed=11, n=2 * 10**5)
        column = np.sort(np.where((draws >= iv.lo) & (draws < iv.hi), draws, 0.0))
        tail = column[int(0.95 * column.size):]
        assert float(np.mean(tail)) == pytest.approx(
            es_of_tranche(U01, iv, 0.95), abs=0.01
        )

    @settings(max_examples=300)
    @given(
        st.sampled_from(["atoms", "empirical", "uniform"]),
        st.floats(0.0, 10.0),
        st.floats(0.1, 50.0),
        st.floats(0.01, 0.999),
        st.integers(0, 2**32 - 1),
    )
    @example("uniform", 0.0, 37.00181710314244, 0.6072769181716363, 0)
    def test_whole_support_tranche_is_the_whole_book(self, kind, lower, width, alpha, seed):
        """One tranche over the whole support costs exactly the whole-book ES."""
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            model = uniform(lower, lower + width)
        elif kind == "atoms":
            values = np.unique(lower + width * rng.random(int(rng.integers(1, 9))))
            weights = rng.random(values.size) + 0.01
            model = atoms(values, weights / weights.sum())
        else:
            model = empirical(lower + width * rng.random(int(rng.integers(1, 60))))
        whole = Interval(0.0, model.max_loss, closed_hi=True)
        assert es_of_tranche(model, whole, alpha) == expected_shortfall(model, alpha)

    def test_never_below_tranche_var(self):
        rng = np.random.default_rng(409)
        for _ in range(20):
            model = random_dyadic_atoms(rng)
            lo, hi = np.sort(rng.uniform(0.0, 101.0, size=2))
            iv = Interval(float(lo), float(hi) + 0.5)
            alpha = float(rng.uniform(0.5, 0.99))
            assert es_of_tranche(model, iv, alpha) >= var_of_tranche(model, iv, alpha) - 1e-9


class TestAdditivityGap:
    def test_uniform_scheme_erases_the_charge(self):
        partition = build_partition(U01, 0.95)
        assert additivity_gap(U01, partition, 0.95) == -0.95

    def test_single_tranche_is_neutral(self):
        assert additivity_gap(U01, Partition((0.0, 1.0)), 0.95) == 0.0
        assert additivity_gap(A3, Partition((0.0, 10.0)), 0.95) == 0.0

    def test_two_atom_split_keeps_the_top(self):
        """Isolating the zero atom leaves all capital on the {5, 10} side."""
        assert additivity_gap(A3, Partition((0.0, 2.5, 10.0)), 0.95) == 0.0

    def test_accepts_raw_cut_sequences(self):
        assert additivity_gap(U01, (0.0, 0.5, 1.0), 0.95) == pytest.approx(
            -0.95 + 0.45 + 0.95, abs=1e-12
        )

    def test_refuses_cuts_that_do_not_cover_the_support(self):
        """Cuts that stop short drop the 10-atom's mass and read as -5.0, a
        false arbitrage; cuts past the top, or starting above 0, are refused too."""
        for cuts in ((0.0, 7.0), (0.0, 5.0, 20.0)):
            with pytest.raises(PartitionMismatch, match="ends at"):
                additivity_gap(A3, cuts, 0.95)
        with pytest.raises(InvalidBounds, match="must start at 0"):
            additivity_gap(A3, (1.0, 10.0), 0.95)

    def test_total_capital_is_the_reports_sum(self):
        """Summed VaR adds the tranches in order, as the report's
        ``sum_tranche_vars`` does; numpy's pairwise sum rounds differently here."""
        values = [k / 7 for k in range(1, 11)]
        model = atoms(values, [0.1] * 10)
        cuts = (0.0, *[(a + b) / 2 for a, b in zip(values, values[1:])], values[-1])
        dec = decompose(model, Partition(cuts), 0.95)
        assert dec.total_capital == sum(dec.tranche_vars.tolist()) == 7.857142857142857
        gap = additivity_gap(model, cuts, 0.95)
        assert gap == dec.total_capital - var(model, 0.95) == 6.428571428571428

    def test_subadditive_direction_for_es(self):
        """Tranche ES never undercuts whole-book ES on tested partitions."""
        for model, cuts in (
            (U01, build_partition(U01, 0.95).cuts),
            (U01, (0.0, 0.5, 1.0)),
            (A3, (0.0, 2.5, 7.5, 10.0)),
        ):
            total = sum(
                es_of_tranche(model, iv, 0.95) for iv in intervals_from_cuts(cuts)
            )
            assert total >= expected_shortfall(model, 0.95) - 1e-9
