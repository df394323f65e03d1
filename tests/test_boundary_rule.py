"""The one strict-quantile boundary rule, checked against exact arithmetic.

Unlike the dyadic suites, these laws carry integer weights over totals such
as 100 or 37, so cumulative masses are not exact in binary floating point and
levels like 0.99 or 0.29 land on ties in exact arithmetic. Every route that
prices the same law must still agree, and agree with ``fractions.Fraction``.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import brute_force_oracle, group_table
from varsplit import (
    atoms,
    decompose,
    empirical,
    solve_tranche_dp,
    var,
)

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


def exact_quantile(law, p: Fraction) -> float:
    """inf {x : P(X <= x) > p}, in exact rational arithmetic."""
    values, weights = law
    total = sum(weights)
    cum = 0
    for v, w in zip(values, weights):
        cum += w
        if Fraction(cum, total) > p:
            return float(v)
    raise AssertionError("a level below 1 is always passed")


def exact_tranche_var(law, iv, alpha: Fraction) -> float:
    """Exact strict quantile of X * 1{X in iv}: zeros carry the rest of the weight."""
    values, weights = law
    hit = [(v, w) for v, w in zip(values, weights) if v > 0 and iv.contains(v)]
    rest = sum(weights) - sum(w for _, w in hit)
    zeros_first = ([0] + [v for v, _ in hit], [rest] + [w for _, w in hit])
    return exact_quantile(zeros_first, alpha)


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
    exact = exact_quantile(law, Fraction(permille, 1000))
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
    """DP capital == decompose repricing == enumeration == exact repricing."""
    assume(law[0][-1] > 0)
    for model in both_models(law):
        res = solve_tranche_dp(model, alpha, n)
        exact = sum(
            exact_tranche_var(law, iv, Fraction(str(alpha)))
            for iv in res.partition.intervals()
        )
        assert decompose(model, res.partition, alpha).total_capital == res.capital
        assert brute_force_oracle(model, alpha, n) == res.capital
        assert res.capital == exact
