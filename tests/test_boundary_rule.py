"""The one strict-quantile boundary rule, checked against exact arithmetic.

Unlike the dyadic suites, these laws carry integer weights over totals such
as 100 or 37, so cumulative masses are not exact in binary floating point and
levels like 0.99 or 0.29 land on ties in exact arithmetic. Every route that
prices the same law must still agree, and agree with ``fractions.Fraction``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import bits, brute_force_oracle, exact_quantile, group_table
from varsplit import (
    MASS_GUARD,
    Partition,
    atoms,
    decompose,
    empirical,
    solve_tranche_dp,
    solve_with_overhead,
    var,
)
from varsplit import loss_model

ALPHAS = (0.6, 0.7, 0.8, 0.9, 0.95)


@st.composite
def integer_laws(draw, max_atoms: int, equal_weights: bool = False):
    """Distinct increasing integer values with integer weights."""
    m = draw(st.integers(1, max_atoms))
    values = sorted(draw(st.sets(st.integers(0, 1000), min_size=m, max_size=m)))
    if equal_weights:
        return values, [1] * m
    return values, draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))


@st.composite
def zero_atom_laws(draw, max_atoms: int):
    """Positive integer laws with no atom at 0, a light one or a heavy one."""
    values, weights = draw(integer_laws(max_atoms))
    values = [v + 1 for v in values]
    zero = draw(st.sampled_from([None, 1, 9 * sum(weights)]))
    if zero is None:
        return values, weights
    return [0, *values], [zero, *weights]


def both_models(law):
    """The same law as an atom list and as an empirical sample."""
    values, weights = law
    total = sum(weights)
    return (
        atoms(values, [w / total for w in weights]),
        empirical(np.repeat(values, weights)),
    )


def probs(law) -> list[Fraction]:
    """The law's weights over their total, exactly."""
    total = sum(law[1])
    return [Fraction(w, total) for w in law[1]]


def unit_law(law, lo, hi, closed: bool) -> tuple[list, list[Fraction]]:
    """The law of X * 1{X in [lo, hi)}, or of [lo, hi] when ``closed`` (a
    partition's last tranche), its zeros first: they carry the rest of the weight."""
    inside = [lo <= v < hi or (closed and v == hi) for v in law[0]]
    hit = [(v, w) for v, w, x in zip(law[0], probs(law), inside) if v > 0 and x]
    return [0, *(v for v, _ in hit)], [1 - sum(w for _, w in hit), *(w for _, w in hit)]


@given(law=zero_atom_laws(max_atoms=30), alpha=st.sampled_from(ALPHAS))
@example(law=([0, 1, 2], [97, 1, 2]), alpha=0.95)
@example(law=([0, 3, 5], [1, 20, 20]), alpha=0.6)
def test_group_table_matches_the_definition(law, alpha):
    """One ``top`` call per end gives what a scan of every group gives."""
    for model in both_models(law):
        price, reach = model.law.groups(alpha)
        want_price, want_reach = group_table(model.law, alpha)
        assert price.tolist() == want_price.tolist()
        assert reach.tolist() == want_reach.tolist()


def test_hundred_equal_atoms_at_99_percent():
    assert var(atoms(range(1, 101), [0.01] * 100), 0.99) == 100.0


def test_hundred_samples_at_29_percent():
    assert var(empirical(range(1, 101)), 0.29) == 30.0


@pytest.mark.xfail(
    reason="ROADMAP item 8: the 1e-12 guard lifts 0.9499999999999 * 10**6 past "
    "the 950 000th sample, so var returns 950001.0"
)
def test_million_samples_just_below_95_percent():
    assert var(empirical(np.arange(1, 10**6 + 1)), 0.9499999999999) == 950000.0


@pytest.mark.xfail(
    reason="ROADMAP item 8: the 1e-12 guard holds the first atom's mass "
    "0.5000000000004 from passing level 0.5, so var returns 2.0"
)
def test_atom_just_above_half_at_50_percent():
    assert var(atoms([1, 2], [0.5000000000004, 0.4999999999996]), 0.5) == 1.0


@given(
    law=st.one_of(
        integer_laws(max_atoms=200, equal_weights=True), integer_laws(max_atoms=30)
    ),
    permille=st.integers(1, 999),
)
@example(law=(list(range(1, 101)), [1] * 100), permille=990)
@example(law=(list(range(1, 101)), [1] * 100), permille=290)
@example(law=(list(range(1, 21)), [1] * 20), permille=950)
def test_atoms_and_empirical_match_exact_quantile(law, permille):
    exact = exact_quantile(law[0], probs(law), Fraction(permille, 1000))
    for model in both_models(law):
        assert var(model, permille / 1000) == exact


@given(
    law=integer_laws(max_atoms=10),
    alpha=st.sampled_from(ALPHAS),
    n=st.integers(1, 10),
)
@example(law=([3, 7, 36, 43, 45], [2, 5, 5, 7, 1]), alpha=0.6, n=2)
@example(law=([10, 15, 28, 30, 35], [7, 8, 2, 1, 7]), alpha=0.6, n=3)
def test_solver_matches_repricing_and_oracle(law, alpha, n):
    """Solver capital == decompose repricing == exact repricing, and the whole
    solve == enumeration in exact arithmetic."""
    assume(law[0][-1] > 0)
    want = bits(brute_force_oracle(*law, alpha, n))
    for model in both_models(law):
        res = solve_tranche_dp(model, alpha, n)
        cuts = res.partition.cuts
        exact = sum(
            exact_quantile(*unit_law(law, lo, hi, hi == cuts[-1]), str(alpha))
            for lo, hi in zip(cuts, cuts[1:])
        )
        _, tranche_vars, _ = decompose(model, res.partition, alpha)
        assert sum(tranche_vars.tolist()) == res.capital
        assert bits(res) == want
        assert res.capital == exact


def decimal_laws(rng: np.random.Generator, count: int):
    """``count`` laws of 1 to 8 atoms, one at 0 now and then, whose
    probabilities are decimal texts of 1 to 12 places summing to exactly 1,
    each as an atom list and, where two places suffice, as a sample of 100;
    then ``count`` samples of 1 to 20 draws with ties. Yields each law's
    values, its exact probabilities and its models."""
    for _ in range(count):
        places = int(rng.integers(1, 13))
        ends = np.unique(rng.integers(1, 10**places, size=int(rng.integers(0, 8))))
        counts = np.diff([0, *ends.tolist(), 10**places])
        texts = [f"{c}e-{places}" for c in counts.tolist()]
        values = np.sort(rng.choice(60, size=counts.size, replace=False)).tolist()
        models = [atoms(values, [float(t) for t in texts])]
        if places <= 2:
            models.append(empirical(np.repeat(values, counts * 10 ** (2 - places))))
        yield values, [Fraction(t) for t in texts], models
    for _ in range(count):
        draws = rng.integers(0, 10, size=int(rng.integers(1, 21)))
        values, counts = np.unique(draws, return_counts=True)
        exact = [Fraction(c, draws.size) for c in counts.tolist()]
        yield values.tolist(), exact, [empirical(draws)]


def test_var_and_price_match_the_exact_decimal_quantile():
    """At each prefix sum of a decimal law or a small sample, and 1e-9 either
    side of it, ``var`` and every VaR cell of ``price`` (through ``decompose``
    over the whole support, one tranche per atom and a random split) equal
    the exact quantile of a level read as the decimal its text, the float's
    repr, denotes. The one miss allowed is the guard's known band (ROADMAP
    item 8): a level at most MASS_GUARD below a prefix weight of the unit's
    law, as the float nearest k/n lands when it rounds down. Of the 240
    laws' cells, 818 sample cells fell there, and no atom list missed."""
    rng = np.random.default_rng(8)
    misses = []
    for values, exact, models in decimal_laws(rng, 120):
        law, top = (values, exact), float(values[-1])
        mids = [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        splits = [] if top == 0.0 else [
            (0.0, top), (0.0, *mids, top), (0.0, *[c for c in mids if rng.random() < 0.5], top),
        ]
        prefixes = list(itertools.accumulate(exact))[:-1]
        steps = (0, Fraction(-1, 10**9), Fraction(1, 10**9))
        levels = {float(c + d) for c in prefixes for d in steps}
        for text in sorted(repr(a) for a in levels if 0.0 < a < 1.0):
            alpha = float(text)
            for model in models:
                cells = [(var(model, alpha), law)]
                for cuts in splits:
                    _, tranche_vars, _ = decompose(model, Partition(cuts), alpha)
                    units = [unit_law(law, lo, hi, hi == top) for lo, hi in zip(cuts, cuts[1:])]
                    cells += zip(tranche_vars.tolist(), units)
                for got, (vals, ps) in cells:
                    if got == exact_quantile(vals, ps, text):
                        continue
                    banded = any(
                        0 < c - Fraction(text) <= MASS_GUARD for c in itertools.accumulate(ps)
                    )
                    if not (banded and model.label.startswith("empirical")):
                        misses.append((model.label, text, vals, got))
    assert misses == []


def solver_sweep(count: int) -> tuple[list, int]:
    """Every solve of the laws of ``decimal_laws(rng, count)``, for N = 1..m,
    at each level 1 - g for g the mass of a run of atoms and 1e-9 either
    side of it, against the exact brute force. Returns the misses outside
    the guard's known band (ROADMAP item 8), and how many fell inside it:
    a sample law at a level at most MASS_GUARD below some 1 - g, as the
    float nearest k/n lands when it rounds down."""
    rng = np.random.default_rng(21)
    steps = (0, Fraction(-1, 10**9), Fraction(1, 10**9))
    outside, banded = [], 0
    for values, exact, models in decimal_laws(rng, count):
        if values[-1] == 0:
            continue
        den = math.lcm(*(p.denominator for p in exact))
        weights = [int(p * den) for p in exact]
        m = len(values)
        masses = {sum(exact[a:b]) for a in range(m) for b in range(a, m + 1)}
        levels = {float(1 - g + d) for g in masses for d in steps}
        for alpha in sorted(a for a in levels if 0.0 < a < 1.0):
            for n in range(1, m + 1):
                want = bits(brute_force_oracle(values, weights, alpha, n))
                for model in models:
                    if bits(solve_with_overhead(model, alpha, n)) == want:
                        continue
                    p = Fraction(repr(alpha))
                    band = any(0 < 1 - g - p <= MASS_GUARD for g in masses)
                    if band and model.label.startswith("empirical"):
                        banded += 1
                    else:
                        outside.append((model.label, repr(alpha), n))
    return outside, banded


def test_the_solver_matches_the_exact_brute_force_at_every_group_mass():
    """At 1 - g for every run of atoms' mass g, and 1e-9 either side of it,
    ``solve_with_overhead`` for every budget N = 1..m reports what exact
    enumeration reports, on decimal laws and small samples. The only misses
    allowed are the guard's known band on sample laws: of the 40 laws'
    10 507 solves, 227 sample solves fell there, and no atom list missed."""
    outside, banded = solver_sweep(20)
    assert outside == []
    assert banded == 227


@pytest.mark.parametrize("guard", [0.0, -1e-12, 1e-8])
def test_the_sweep_fails_a_mutated_guard(guard, monkeypatch):
    """A guard of 0 leaves exact ties to float dust, one subtracted frees a
    group whose mass is exactly 1 - alpha, and one of 1e-8 holds back a
    group 1e-9 clear of it: each misses outside the band on a few laws."""
    monkeypatch.setattr(loss_model, "MASS_GUARD", guard)
    outside, _ = solver_sweep(3)
    assert outside
