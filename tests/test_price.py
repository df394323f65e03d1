"""``decompose`` prices every tranche of a split in one ``price`` call of the
law. Here it must equal, bit for bit, a reference that prices each tranche on
its own from slices of the law's arrays, on laws whose masses are not dyadic,
so that a segmented sum rounding differently would show."""

import numpy as np
import pytest

from varsplit import Partition, atoms, build_partition, decompose, empirical, uniform
from varsplit.loss_model import UniformLaw, level_weight


def reference(model, cuts, alpha):
    """(mass, VaR, ES) of each tranche ``[cuts[k], cuts[k + 1])``, the last
    one closed, priced one tranche at a time without the law's ``price``."""
    law = model.law
    last = len(cuts) - 2
    rows = []
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if isinstance(law, UniformLaw):
            lo, hi = max(lo, law.lower), min(hi, law.upper)
            rows.append((law.mass(lo, hi), law.unit_var(lo, hi, alpha), law.unit_es(lo, hi, alpha)))
            continue
        a = int(np.searchsorted(law.values, lo, side="left"))
        b = int(np.searchsorted(law.values, hi, side="right" if k == last else "left"))
        mass = float(np.sum(law.weights[a:b])) / law.total
        # The unit's loss is 0 with weight total - (cum[b] - cum[a]); its
        # quantile is the first atom whose prefix passes the level.
        thr = law.cum[b] - law.total + level_weight(alpha, law.total)
        top = min(int(np.searchsorted(law.cum, thr, side="right")), b)
        var = float(law.values[top - 1]) if a < top else 0.0
        shift = law.total - law.cum[b]
        start = np.maximum(law.cum[a:b] + shift, alpha * law.total)
        stop = np.minimum(law.cum[a + 1 : b + 1] + shift, law.total)
        tail = float(np.dot(law.values[a:b], np.clip(stop - start, 0.0, None))) / law.total
        rows.append((mass, var, tail / (1.0 - alpha)))
    return rows


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


@pytest.mark.parametrize("name", CASES)
def test_decompose_equals_per_tranche_pricing_bit_for_bit(name):
    model, alpha, part = CASES[name]
    got = zip(*decompose(model, part, alpha).tolist())
    assert [[x.hex() for x in row] for row in got] == [
        [x.hex() for x in row] for row in reference(model, part.cuts, alpha)
    ]


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
