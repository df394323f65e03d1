"""Tests for loss model construction, CDF/quantile machinery, and CSV input."""

import tracemalloc

import numpy as np
import pytest

from helpers import sorted_sample
from varsplit import (
    EmptySupport,
    Interval,
    InvalidBounds,
    InvalidLevel,
    CsvFormatError,
    NegativeLoss,
    ProbsNotNormalized,
    VarsplitError,
    atoms,
    build_model,
    cdf,
    empirical,
    intervals_from_cuts,
    load_losses_csv,
    mass_in,
    order_stat_rank,
    quantile_strict,
    sample,
    uniform,
)
from varsplit.loss_model import UniformLaw, _empirical_owned, discrete_law


class TestConstruction:
    def test_uniform_max_loss(self):
        model = uniform(0.0, 1.0)
        assert isinstance(model.law, UniformLaw)
        assert model.max_loss == 1.0

    def test_atoms_max_loss(self):
        model = atoms([0.0, 10.0], [0.5, 0.5])
        assert model.max_loss == 10.0

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ProbsNotNormalized, match="sum to 1"):
            atoms([1.0], [0.9])

    def test_probs_must_be_positive(self):
        with pytest.raises(ProbsNotNormalized, match="strictly positive"):
            atoms([0.0, 1.0], [0.0, 1.0])

    def test_values_strictly_increasing(self):
        with pytest.raises(InvalidBounds, match="strictly increasing"):
            atoms([1.0, 1.0], [0.5, 0.5])

    def test_negative_values_rejected(self):
        with pytest.raises(NegativeLoss):
            atoms([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(NegativeLoss):
            empirical([-0.5, 1.0])
        with pytest.raises(NegativeLoss):
            uniform(-0.2, 1.0)

    def test_empty_support_rejected(self):
        with pytest.raises(EmptySupport):
            atoms([], [])
        with pytest.raises(EmptySupport):
            empirical([])

    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(InvalidBounds):
            uniform(1.0, 1.0)
        with pytest.raises(InvalidBounds):
            uniform(2.0, 1.0)

    @pytest.mark.parametrize(
        ("build", "error", "match"),
        [
            (lambda: build_model({"kind": "pareto"}), InvalidBounds, "unknown model kind"),
            (lambda: atoms([1.0, 2.0], [1.0]), InvalidBounds, "must align"),
            (lambda: atoms([1.0, np.inf], [0.5, 0.5]), InvalidBounds, "must be finite"),
            (lambda: empirical([1.0, np.nan]), InvalidBounds, "must be finite"),
            (lambda: uniform(0.0, np.inf), InvalidBounds, "must be finite"),
            # Input that is not one-dimensional is rejected before any other check.
            (lambda: empirical(np.array([[1.0], [2.0], [2.0]])), InvalidBounds, "must be 1-D"),
            (
                lambda: atoms(np.array([[1.0], [2.0]]), np.array([[0.5], [0.5]])),
                InvalidBounds,
                "must be 1-D",
            ),
            (lambda: empirical(np.array([[3.0], [1.0], [2.0]])), InvalidBounds, "must be 1-D"),
            (lambda: empirical(5.0), InvalidBounds, "must be 1-D"),
        ],
    )
    def test_constructor_validation(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_empirical_sorts_samples(self):
        model = empirical([3.0, 1.0, 2.0])
        assert list(sorted_sample(model)) == [1.0, 2.0, 3.0]
        assert model.max_loss == 3.0

    def test_build_model_dispatch(self):
        u = build_model({"kind": "uniform", "lower": 0.0, "upper": 2.0})
        assert u.label == "uniform:0.0,2.0" and u.max_loss == 2.0
        a = build_model({"kind": "atoms", "values": [1.0], "probs": [1.0]})
        assert a.label == "atoms:1.0:1.0"
        e = build_model({"kind": "empirical", "samples": [1.0, 4.0]})
        assert e.label == "empirical:n=2"
        with pytest.raises(InvalidBounds, match="atoms model spec is missing 'values'"):
            build_model({"kind": "atoms"})
        with pytest.raises(InvalidBounds, match="missing 'upper'"):
            build_model({"kind": "uniform", "lower": 0.0})

    def test_describe_is_deterministic(self):
        assert uniform(0.0, 1.0).label == "uniform:0.0,1.0"
        assert atoms([0.0, 10.0], [0.5, 0.5]).label == "atoms:0.0:0.5,10.0:0.5"
        assert empirical([1.0, 2.0]).label == "empirical:n=2"


class TestNegativeZero:
    """A -0.0 loss is stored, priced and described as +0.0."""

    def test_constructors_store_positive_zero(self):
        for model in (
            atoms([-0.0, 2.0], [0.5, 0.5]),
            empirical([1.0, -0.0, 0.0]),
            uniform(-0.0, 1.0),
        ):
            law = model.law
            stored = [law.lower] if isinstance(law, UniformLaw) else law.values
            assert not np.signbit(stored).any()
            assert "-0.0" not in model.label

    def test_quantiles_are_positive_zero(self):
        for model in (atoms([-0.0, 2.0], [0.5, 0.5]), empirical([-0.0, -0.0, 2.0])):
            assert not np.signbit(quantile_strict(model, 0.25))


class TestEmpiricalLaw:
    """The law of a sample: its arrays and the memory that builds them."""

    @staticmethod
    def reference(sorted_x):
        values, counts = np.unique(sorted_x, return_counts=True)
        cum = np.concatenate(([0.0], np.cumsum(counts.astype(float))))
        return values, counts.astype(float), cum

    @staticmethod
    def peak(build):
        tracemalloc.start()
        try:
            model = build()
            return model, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("repeats", [False, True])
    def test_law_arrays_match_counts(self, repeats):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 50, 1000) / 4 if repeats else rng.random(1000)
        law = empirical(x).law
        for got, want in zip((law.values, law.weights, law.cum), self.reference(np.sort(x))):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_distinct_build_memory(self):
        """10^6 distinct floats: no copy of the sample beyond the sort."""
        x = np.random.default_rng(4).random(10**6)
        sorted_x = np.sort(x)
        model, peak = self.peak(lambda: _empirical_owned(sorted_x))
        assert peak <= 32 * 2**20, f"_empirical_owned peaked at {peak / 2**20:.1f} MB"
        assert np.shares_memory(model.law.values, sorted_x)
        for got, want in zip(
            (model.law.values, model.law.weights, model.law.cum), self.reference(sorted_x)
        ):
            assert got.tobytes() == want.tobytes()
        model, peak = self.peak(lambda: empirical(x))
        assert peak <= 48 * 2**20, f"empirical peaked at {peak / 2**20:.1f} MB"

    def test_model_keeps_only_the_law(self):
        """4000 distinct values, 100 copies each: the model holds the 4000-value
        law, not the 3.2 MB sample."""
        x = np.repeat(np.arange(4000.0), 100)
        np.random.default_rng(5).shuffle(x)
        tracemalloc.start()
        try:
            model = empirical(x)
            del x
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 0.5 * 2**20, f"the model keeps {kept / 2**20:.2f} MB"
        assert model.label == "empirical:n=400000"


class TestCdf:
    def test_atom_mass_at_zero(self):
        assert cdf(atoms([0.0, 10.0], [0.5, 0.5]), 0.0) == 0.5

    def test_uniform_cdf(self):
        assert cdf(uniform(0.0, 1.0), 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_empirical_counting(self):
        assert cdf(empirical([1.0, 2.0, 2.0, 4.0]), 2.0) == 0.75

    def test_total_mass_at_max_loss(self):
        for model in (
            uniform(0.0, 1.0),
            atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2]),
            empirical([1.0, 2.0, 2.0, 4.0]),
        ):
            assert cdf(model, model.max_loss) == 1.0
            assert cdf(model, -1e-9) == 0.0

    @pytest.mark.parametrize(
        "model",
        [uniform(0.0, 1.0), atoms([0.0, 10.0], [0.5, 0.5]), empirical([1.0, 2.0])],
        ids=["uniform", "atoms", "empirical"],
    )
    def test_nan_is_rejected_by_every_variant(self, model):
        with pytest.raises(InvalidBounds, match="nan"):
            cdf(model, float("nan"))

    def test_nondecreasing_on_probe_grid(self):
        """cdf must be monotone over a dense grid across the support for all
        three variants, and for atoms whose prefix sums pass the total."""
        grid = np.linspace(-0.1, 1.1, 10**4)
        for model in (
            uniform(0.0, 1.0),
            atoms([0.0, 0.25, 0.5, 1.0], [0.1, 0.4, 0.3, 0.2]),
            empirical([0.0, 0.2, 0.2, 0.7, 1.0]),
            atoms([1.0, 2.0, 3.0], [0.6, 0.4000000000005, 1e-15]),
        ):
            vals = np.array([cdf(model, float(x)) for x in grid * model.max_loss])
            assert np.all(np.diff(vals) >= 0.0)

    def test_right_continuous_at_atoms(self):
        """The jump at an atom is included at the atom itself."""
        model = atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2])
        assert cdf(model, 5.0) == 0.8
        assert cdf(model, 5.0 - 1e-12) == 0.5
        assert cdf(model, 5.0 + 1e-12) == 0.8


class TestQuantileStrict:
    def test_atom_scan_below_jump(self):
        assert quantile_strict(atoms([0.0, 10.0], [0.5, 0.5]), 0.4) == 0.0

    def test_atom_scan_above_jump(self):
        assert quantile_strict(atoms([0.0, 10.0], [0.5, 0.5]), 0.6) == 10.0

    def test_atom_boundary_uses_strict_inequality(self):
        """At p exactly on a CDF flat, the quantile moves to the next atom."""
        assert quantile_strict(atoms([0.0, 10.0], [0.5, 0.5]), 0.5) == 10.0

    def test_uniform_inverse(self):
        assert quantile_strict(uniform(0.0, 1.0), 0.95) == 0.95

    def test_empirical_order_statistic(self):
        model = empirical([1.0, 2.0, 2.0, 4.0])
        assert quantile_strict(model, 0.5) == 2.0
        assert quantile_strict(model, 0.74) == 2.0
        assert quantile_strict(model, 0.75) == 4.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_level_out_of_range(self, p):
        with pytest.raises(InvalidLevel):
            quantile_strict(uniform(0.0, 1.0), p)

    def test_order_stat_rank(self):
        assert order_stat_rank(4, 0.5) == 3
        assert order_stat_rank(4, 0.74) == 3
        assert order_stat_rank(4, 0.75) == 4
        assert order_stat_rank(100, 0.95) == 96
        assert order_stat_rank(4, 0.999) == 4

    def test_galois_pair(self):
        """q = inf{x : cdf(x) > p}: mass above q exceeds p, mass below never does."""
        discrete = (
            atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2]),
            empirical([1.0, 2.0, 2.0, 4.0, 7.0]),
        )
        levels = np.linspace(0.01, 0.99, 49)
        for model in discrete:
            for p in levels:
                q = quantile_strict(model, float(p))
                assert cdf(model, q) > p
                assert cdf(model, q - 1e-9) <= p
        continuous = uniform(0.0, 1.0)
        for p in levels:
            q = quantile_strict(continuous, float(p))
            assert cdf(continuous, q + 1e-9) > p
            assert cdf(continuous, q - 1e-9) <= p


class TestMassIn:
    def test_uniform_interval_length(self):
        got = mass_in(uniform(0.0, 1.0), Interval(0.2, 0.3))
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_half_open_convention_on_atoms(self):
        """[0, 10) keeps the atom at 0 and drops the atom at 10."""
        model = atoms([0.0, 10.0], [0.5, 0.5])
        assert mass_in(model, Interval(0.0, 10.0)) == 0.5
        assert mass_in(model, Interval(0.0, 10.0, closed_hi=True)) == 1.0

    def test_empirical_counts(self):
        model = empirical([1.0, 2.0, 2.0, 4.0])
        assert mass_in(model, Interval(2.0, 4.0)) == 0.5
        assert mass_in(model, Interval(2.0, 4.0, closed_hi=True)) == 0.75

    @pytest.mark.parametrize(
        "model",
        [
            uniform(0.0, 1.0),
            atoms([0.0, 0.3, 0.7, 1.0], [0.25, 0.25, 0.25, 0.25]),
            empirical([0.0, 0.1, 0.4, 0.4, 0.9, 1.0]),
        ],
    )
    def test_partition_masses_sum_to_one(self, model):
        cuts = [0.0, 0.15, 0.35, 0.55, 0.8, 1.0]
        total = sum(mass_in(model, iv) for iv in intervals_from_cuts(cuts))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestIntervals:
    def test_last_interval_is_closed(self):
        ivs = intervals_from_cuts([0.0, 0.5, 1.0])
        assert [iv.closed_hi for iv in ivs] == [False, True]
        assert ivs[0].contains(0.0) and not ivs[0].contains(0.5)
        assert ivs[1].contains(0.5) and ivs[1].contains(1.0)

    def test_every_point_lands_in_exactly_one(self):
        ivs = intervals_from_cuts([0.0, 0.25, 0.5, 1.0])
        for x in (0.0, 0.1, 0.25, 0.49999, 0.5, 0.75, 1.0):
            assert sum(iv.contains(x) for iv in ivs) == 1

    def test_interval_validation(self):
        with pytest.raises(InvalidBounds):
            Interval(0.5, 0.5)
        with pytest.raises(InvalidBounds):
            Interval(-0.1, 0.5)
        with pytest.raises(InvalidBounds, match="must be finite"):
            Interval(0.0, np.inf)
        with pytest.raises(InvalidBounds):
            intervals_from_cuts([0.0])


class TestSampling:
    def test_degenerate_distribution(self):
        got = sample(atoms([5.0], [1.0]), seed=7, n=3)
        assert list(got) == [5.0, 5.0, 5.0]

    def test_uniform_mean(self):
        got = sample(uniform(0.0, 1.0), seed=1, n=10**5)
        assert abs(float(np.mean(got)) - 0.5) < 0.01

    def test_determinism(self):
        model = atoms([0.0, 5.0, 10.0], [0.5, 0.3, 0.2])
        first = sample(model, seed=123, n=1000)
        second = sample(model, seed=123, n=1000)
        np.testing.assert_array_equal(first, second)
        assert set(np.unique(first)) <= {0.0, 5.0, 10.0}

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            sample(uniform(0.0, 1.0), seed=1, n=0)
        with pytest.raises(VarsplitError, match="must be >= 1"):
            sample(atoms([1.0], [1.0]), seed=1, n=0)

    def test_seed_changes_stream(self):
        a = sample(uniform(0.0, 1.0), seed=1, n=100)
        b = sample(uniform(0.0, 1.0), seed=2, n=100)
        assert not np.array_equal(a, b)

    def test_empirical_resampling_stays_in_support(self):
        model = empirical([1.0, 2.0, 4.0])
        got = sample(model, seed=5, n=500)
        assert set(np.unique(got)) <= {1.0, 2.0, 4.0}

    def test_empirical_cdf_converges(self):
        """10^5 draws land within the 0.02 sup-distance budget of the source law."""
        source = uniform(0.0, 1.0)
        emp = empirical(sample(source, seed=10, n=10**5))
        grid = np.linspace(0.0, 1.0, 201)
        worst = max(abs(cdf(emp, float(x)) - cdf(source, float(x))) for x in grid)
        assert worst <= 0.02


class TestDistinctAtoms:
    """A discrete model's law holds its distinct atoms and their weights over a total."""

    def test_atoms_passthrough(self):
        law = atoms([0.0, 2.0], [0.25, 0.75]).law
        assert list(law.values) == [0.0, 2.0]
        assert list(law.weights / law.total) == [0.25, 0.75]

    def test_empirical_collapses_ties(self):
        law = empirical([1.0, 2.0, 2.0, 4.0]).law
        assert list(law.values) == [1.0, 2.0, 4.0]
        assert list(law.weights / law.total) == [0.25, 0.5, 0.25]

    def test_uniform_has_no_atoms(self):
        with pytest.raises(InvalidBounds, match="no finite atom support"):
            discrete_law(uniform(0.0, 1.0))


class TestCsvIngestion:
    def _write(self, tmp_path, text):
        path = tmp_path / "losses.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "loss\n3.5\n1.25\n0\n")
        model = load_losses_csv(path)
        assert model.label == "empirical:n=3"
        assert list(sorted_sample(model)) == [0.0, 1.25, 3.5]

    def test_header_required(self, tmp_path):
        path = self._write(tmp_path, "value\n1.0\n")
        with pytest.raises(CsvFormatError, match="header must be 'loss'"):
            load_losses_csv(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="file is empty"):
            load_losses_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = self._write(tmp_path, "loss\n")
        with pytest.raises(EmptySupport, match="no loss rows"):
            load_losses_csv(path)

    def test_non_numeric_row_is_named(self, tmp_path):
        path = self._write(tmp_path, "loss\n1.0\nabc\n")
        with pytest.raises(CsvFormatError, match="row 3: not a number"):
            load_losses_csv(path)

    def test_negative_row_is_named(self, tmp_path):
        path = self._write(tmp_path, "loss\n1.0\n-3\n")
        with pytest.raises(NegativeLoss, match="row 3: negative loss"):
            load_losses_csv(path)

    def test_extra_column_rejected(self, tmp_path):
        path = self._write(tmp_path, "loss\n1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="row 2: expected one column"):
            load_losses_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self._write(tmp_path, "loss\ninf\n")
        with pytest.raises(CsvFormatError, match="row 2: non-finite"):
            load_losses_csv(path)
