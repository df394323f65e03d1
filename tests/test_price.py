"""``decompose`` prices every tranche of a split in one ``price`` call of the
law, one array pass over its atoms.

Where a per-tranche reference fixes a column to the bit, the column must equal
it bit for bit: every VaR, the masses of empirical laws (integer counts) and
the uniform law's three columns (Python's float closed forms). The masses of
atom lists and every discrete ES are segmented float sums, so they are held
instead to an exact rational evaluation of the same float inputs: within
``ULP_BOUND`` units in the last place, on fixed cases, on a derandomized
sweep of random atom and empirical laws, and on units of over 10^5 atoms.
The laws' masses are not dyadic, so a sum that rounds differently would show.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exact_mass,
    exact_tail,
    ulps,
    uniform_es_of_tranche,
    uniform_expected_shortfall,
    uniform_mass_in,
    uniform_var_of_tranche,
)
from varsplit import (
    MASS_GUARD,
    Interval,
    Partition,
    atoms,
    build_partition,
    decompose,
    empirical,
    expected_shortfall,
    randomized_unit_price,
    uniform,
)
from varsplit.loss_model import UniformLaw, level_weight

#: The worst error allowed, in ulps of the exact value, of every figure that
#: :func:`worst_ulps` measures, over the fixed cases, the sweep and the large
#: units. It is the worst error of the whole-book ES on the sweep's draws
#: before each unit's ES was summed by ``np.add.reduceat``. A tranche ES then
#: erred by up to 4.5e8 ulps: its atoms' weights were prefix weights shifted
#: by ``total - cum[b]``, which cancelled on light atoms.
ULP_BOUND = 34.0


def spans(law, cuts):
    """Each tranche's atom slice ``(a, b)``, the last tranche closed."""
    edges = np.searchsorted(law.values, cuts)
    edges[-1] = np.searchsorted(law.values, cuts[-1], side="right")
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def reference(model, cuts, alpha):
    """The columns of each tranche ``[cuts[k], cuts[k + 1])``, the last one
    closed, that a per-tranche reference fixes to the bit, priced one tranche
    at a time without the law's ``price``: a dict from column to values."""
    law = model.law
    if isinstance(law, UniformLaw):
        last = len(cuts) - 2
        rows = []
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            iv = Interval(lo, hi, k == last)
            mass = uniform_mass_in(model, iv)
            var = uniform_var_of_tranche(model, iv, alpha)
            if alpha < 1.0 - mass <= alpha + MASS_GUARD:  # not free under the guard
                var = max(lo, law.lower)
            if lo <= law.lower and hi >= law.upper:  # the whole book
                es = uniform_expected_shortfall(model, alpha)
            else:
                es = uniform_es_of_tranche(model, iv, alpha)
            rows.append((mass, var, es))
        return dict(zip(("mass", "var", "es"), map(list, zip(*rows))))
    masses, tranche_vars = [], []
    for a, b in spans(law, cuts):
        masses.append(float(np.sum(law.weights[a:b])) / law.total)
        # The unit's loss is 0 with weight total - (cum[b] - cum[a]); its
        # quantile is the first atom whose prefix passes the level.
        thr = law.cum[b] - law.total + level_weight(alpha, law.total)
        top = min(int(np.searchsorted(law.cum, thr, side="right")), b)
        tranche_vars.append(float(law.values[top - 1]) if a < top else 0.0)
    if model.label.startswith("empirical"):
        return {"mass": masses, "var": tranche_vars}
    return {"var": tranche_vars}


def worst_ulps(model, cuts, alpha, subsidiaries):
    """The worst error, in ulps, of each figure that ``ULP_BOUND`` bounds on one
    discrete law, by figure: the masses and ES of ``decompose`` over ``cuts``, the
    whole-book ES and the ES of one of ``subsidiaries`` randomized units."""
    law, a = model.law, Fraction(alpha)
    masses, _, es = decompose(model, Partition(cuts), alpha)
    parts = spans(law, cuts)
    budget = subsidiaries * (1 - a)
    whole = 0, law.values.size
    return {
        "mass": max(ulps(x, exact_mass(law, *s)) for x, s in zip(masses.tolist(), parts)),
        "decompose_es": max(
            ulps(x, exact_tail(law, *s, alpha) / (1 - a)) for x, s in zip(es.tolist(), parts)
        ),
        "expected_shortfall": ulps(
            expected_shortfall(model, alpha), exact_tail(law, *whole, alpha) / (1 - a)
        ),
        "randomized_unit_price_es": ulps(
            randomized_unit_price(model, subsidiaries, alpha)[2],
            exact_tail(law, *whole, max(0, 1 - budget)) / budget,
        ),
    }


def check_bound(worst):
    assert max(worst.values()) <= ULP_BOUND, worst


def dirichlet_atoms(m: int, seed: int):
    rng = np.random.default_rng(seed)
    values = np.unique(rng.lognormal(3.0, 1.0, size=m))
    return atoms(values, rng.dirichlet(np.ones(values.size)))


def tied_book(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return empirical(rng.integers(0, 4000, size=n) / 100.0)


def cases():
    dirichlet = dirichlet_atoms(3000, seed=5)
    on_atoms = (0.0, *dirichlet.law.values[1:-1:97].tolist(), dirichlet.max_loss)
    book = tied_book(200_000, seed=11)
    slivers = atoms([0.5, 1.0, 3.0], [0.3, 0.3, 0.4])
    shifted = uniform(2.0, 7.5)
    return {
        "dirichlet-0.99": (dirichlet, 0.99, build_partition(dirichlet, 0.99)),
        "dirichlet-cuts-on-atoms": (dirichlet, 0.9, Partition(on_atoms)),
        "tied-book-0.999": (book, 0.999, build_partition(book, 0.999)),
        "uniform": (shifted, 0.95, build_partition(shifted, 0.95)),
        "uniform-uneven": (shifted, 0.8, Partition((0.0, 1.0, 2.5, 2.6, 7.0, 7.5))),
        "slivers": (slivers, 0.5, build_partition(slivers, 0.5, 8)),
    }


CASES = cases()
DISCRETE = [name for name in CASES if not name.startswith("uniform")]


@pytest.mark.parametrize("name", CASES)
def test_decompose_equals_per_tranche_pricing_bit_for_bit(name):
    """Every VaR, empirical masses and the uniform law's three columns."""
    model, alpha, part = CASES[name]
    got = dict(zip(("mass", "var", "es"), decompose(model, part, alpha).tolist()))
    want = reference(model, part.cuts, alpha)
    assert {k: [x.hex() for x in got[k]] for k in want} == {
        k: [float(x).hex() for x in col] for k, col in want.items()
    }


@pytest.mark.parametrize("name", DISCRETE)
def test_discrete_masses_and_es_are_within_the_exact_bound(name):
    model, alpha, part = CASES[name]
    check_bound(worst_ulps(model, part.cuts, alpha, subsidiaries=7))


def test_the_cases_are_what_they_claim():
    """About 100 tranches on the Dirichlet law, over 1000 on the tied book,
    empty slivers in the last case, and non-dyadic masses throughout."""
    counts = {name: part.n_tranches for name, (_, _, part) in CASES.items()}
    assert 90 <= counts["dirichlet-0.99"] <= 130
    assert counts["tied-book-0.999"] > 1000
    model, alpha, part = CASES["slivers"]
    assert counts["slivers"] == 8
    masses, _, _ = decompose(model, part, alpha)
    assert (masses == 0.0).sum() >= 5
    book = CASES["tied-book-0.999"][0].law
    assert (book.weights > 1).all() and book.total == 200_000


def random_discrete(kind: str, m: int, seed: int, tranches: int):
    """A random atom list or tied sample on about ``m`` values, and random cuts
    for up to ``tranches`` tranches, some on atoms and some between them."""
    rng = np.random.default_rng(seed)
    shape = rng.integers(3)
    if shape == 0:
        values = rng.lognormal(0.0, 2.0, size=m)
    elif shape == 1:
        values = rng.integers(1, 10 * m + 2, size=m).astype(float)
    else:
        values = np.round(rng.uniform(0.001, 100.0, size=m), 2) + 0.01
    if rng.random() < 0.3:
        values = np.append(values, 0.0)
    values = np.unique(values)
    if kind == "atoms":
        weights = rng.random(values.size) ** rng.choice([1, 4, 12]) + 1e-9
        model = atoms(values, weights / weights.sum())
    else:
        sample = rng.choice(values, size=int(rng.integers(0, 4 * m + 1)))
        model = empirical(np.append(sample, values[-1]))
    top = model.max_loss
    inner = np.concatenate(
        (rng.uniform(0.0, top, size=tranches), rng.choice(model.law.values, size=tranches))
    )
    inner = np.unique(inner[(inner > 0.0) & (inner < top)])[: tranches - 1]
    return model, (0.0, *inner.tolist(), top)


@settings(max_examples=300)
@given(
    kind=st.sampled_from(["atoms", "empirical"]),
    m=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.one_of(st.floats(0.05, 0.995), st.sampled_from([0.5, 0.9, 0.95, 0.99])),
    at_prefix=st.booleans(),
    tranches=st.integers(1, 8),
    subsidiaries=st.integers(1, 40),
)
def test_es_is_within_the_exact_bound_on_random_laws(
    kind, m, seed, alpha, at_prefix, tranches, subsidiaries
):
    """Levels are drawn at random or set on a prefix weight, where the boundary
    atom's partial weight is 0."""
    model, cuts = random_discrete(kind, m, seed, tranches)
    law = model.law
    if at_prefix and law.values.size > 1:
        alpha = float(law.cum[1 + seed % (law.values.size - 1)]) / law.total
    check_bound(worst_ulps(model, cuts, alpha, subsidiaries))


def big_units():
    rng = np.random.default_rng(3)
    book = empirical(rng.lognormal(0.0, 1.0, size=120_000))
    values = np.unique(rng.lognormal(0.0, 1.0, size=101_000))
    weights = rng.random(values.size) + 0.01
    atom_list = atoms(values, weights / weights.sum())
    out = {}
    for name, model, alpha, k in (("empirical", book, 0.3, 110_000),
                                  ("atoms", atom_list, 0.5, 100_000)):
        vals = model.law.values
        out[name] = (model, alpha, (0.0, float(vals[k - 1] + vals[k]) / 2.0, model.max_loss))
    return out


@pytest.mark.parametrize("name", ["empirical", "atoms"])
def test_a_unit_of_over_10_5_atoms_is_within_the_exact_bound(name):
    model, alpha, cuts = big_units()[name]
    assert spans(model.law, cuts)[0][1] >= 100_000
    check_bound(worst_ulps(model, cuts, alpha, subsidiaries=3))


@pytest.mark.parametrize(
    "model",
    [empirical([1e308, 1.7e308, 1.7e308, 1.7e308]), atoms([1e308, 1.7e308], [0.25, 0.75])],
    ids=["empirical", "atoms"],
)
def test_es_near_the_top_float_stays_finite(model):
    """A sample whose values times counts overflow has the ES of its atom list:
    finite, at most the top loss, and with no overflow warning."""
    table = decompose(model, Partition((0.0, 1.2e308, model.max_loss)), 0.1)
    figures = [expected_shortfall(model, 0.1), randomized_unit_price(model, 2, 0.1)[2], *table[2]]
    assert all(np.isfinite(figures)) and max(figures) <= model.max_loss
    assert expected_shortfall(model, 0.1) == pytest.approx(1.583333333333333e308, rel=1e-15)
