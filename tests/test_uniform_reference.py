"""The uniform law reproduces its closed forms bit for bit.

Each public query on a ``uniform`` model is compared, as ``float.hex``
strings, with the closed form it had before every model held a law (kept
verbatim in ``helpers``), with two exceptions. A tranche over the whole
support is the whole book and reads the whole-book expected shortfall. A
tranche whose zero weight 1 - mass lies in (alpha, alpha + MASS_GUARD] does
not pass alpha under the package's boundary rule, so its VaR is its lower
edge, where the old unguarded comparison read 0. One edit to the kept
forms: a tranche's ES squares ``u0 - base`` with a multiply, as the
whole-book tail squares ``p * p``, not with ``** 2``, which CPython hands to
the C library's ``pow``. Bounds and levels are arbitrary floats, not dyadic
ones, so a reordered or refactored expression that rounds differently fails.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    uniform_cdf,
    uniform_es_of_tranche,
    uniform_expected_shortfall,
    uniform_mass_in,
    uniform_mean_tail,
    uniform_sample,
    uniform_var,
    uniform_var_of_tranche,
)
from varsplit import (
    MASS_GUARD,
    Interval,
    es_of_tranche,
    expected_shortfall,
    mass_in,
    sample,
    uniform,
    var,
    var_of_tranche,
)

LOWER = st.one_of(st.just(0.0), st.sampled_from([0.1, 1.0 / 3.0, 7.3]), st.floats(0.0, 1e3))
WIDTH = st.one_of(st.sampled_from([0.3, 1.0, 2.0 / 3.0, 99.9]), st.floats(1e-6, 1e3))
LEVEL = st.one_of(
    st.sampled_from([0.5, 0.9, 0.95, 0.975, 0.99, 0.999, 1.0 / 3.0]),
    st.floats(1e-9, 1.0 - 1e-9),
)
#: Interval ends as fractions of the support width from ``lower``: below the
#: support, on its ends, inside it and above it.
OFFSET = st.one_of(
    st.sampled_from([-1.0, -0.1, 0.0, 0.05, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.1, 2.0]),
    st.floats(-1.5, 2.5),
)


def bits(x) -> str:
    return float(x).hex()


@settings(max_examples=400)
@given(LOWER, WIDTH, LEVEL, OFFSET, OFFSET, st.booleans())
@example(2.0, 1.0, 0.95, -1.0, -0.5, False)  # below the support
@example(2.0, 1.0, 0.95, 0.2, 0.7, False)  # inside
@example(2.0, 1.0, 0.95, -0.5, 0.5, True)  # straddling the bottom
@example(2.0, 1.0, 0.95, 0.5, 1.5, True)  # straddling the top
@example(2.0, 1.0, 0.95, 1.0, 2.0, False)  # above: starts at the top
@example(0.1, 0.3, 0.975, -0.2, 1.0, True)  # the whole support, closed
@example(0.0, 432.8047507412732, 0.6801735741910424, 0.2, 0.7, False)  # p * p != p ** 2
@example(4.723405475539687, 1.0, 0.53, 0.53, 1.0, True)  # 1 - mass in the guard band
@example(2.0, 1.0, 0.969936094716991, 0.2, 0.7, False)  # (u0 - base) ** 2 != its product
def test_queries_match_the_closed_forms(lower, width, alpha, t1, t2, closed_hi):
    upper = lower + width
    assume(lower < upper)
    model = uniform(lower, upper)
    lo = max(0.0, lower + min(t1, t2) * width)
    hi = lower + max(t1, t2) * width
    assume(lo < hi)
    iv = Interval(lo, hi, closed_hi)
    # A tranche over the whole support is the whole book and reads its form.
    if lo <= lower and hi >= upper:
        es_want = uniform_expected_shortfall(model, alpha)
    else:
        es_want = uniform_es_of_tranche(model, iv, alpha)
    # Within the guard band the tranche is not free: its VaR is its lower edge.
    if alpha < 1.0 - uniform_mass_in(model, iv) <= alpha + MASS_GUARD:
        var_want = max(lo, lower)
    else:
        var_want = uniform_var_of_tranche(model, iv, alpha)
    pairs = [
        (var(model, alpha), uniform_var(model, alpha)),
        (mass_in(model, iv), uniform_mass_in(model, iv)),
        (var_of_tranche(model, iv, alpha), var_want),
        (es_of_tranche(model, iv, alpha), es_want),
        (model.law.tail(*model.law.whole, alpha), uniform_mean_tail(model, alpha)),
        (model.law.tail(*model.law.whole, 0.0), uniform_mean_tail(model, 0.0)),
        (expected_shortfall(model, alpha), uniform_expected_shortfall(model, alpha)),
    ]
    pairs += [(model.law.cdf(x), uniform_cdf(model, x)) for x in (lo, hi, lower, upper)]
    assert [bits(got) for got, _ in pairs] == [bits(want) for _, want in pairs]


@settings(max_examples=400)
@given(LOWER, WIDTH, st.floats(0.0, 1.0, exclude_max=True))
@example(0.0, 1.0, 0.9503546630566793)  # a C library pow that rounds p ** 2 off p * p
def test_a_tranche_over_the_support_has_the_mean_tail(lower, width, p):
    """``tail`` over the whole support is the kept whole-book tail bit for bit,
    at every p in [0, 1)."""
    upper = lower + width
    assume(lower < upper)
    model = uniform(lower, upper)
    law = model.law
    assert bits(law.tail(law.lower, law.upper, p)) == bits(uniform_mean_tail(model, p))


@settings(max_examples=100)
@given(LOWER, WIDTH, st.integers(0, 2**32), st.integers(1, 300))
def test_sample_draws_are_bit_identical(lower, width, seed, n):
    upper = lower + width
    assume(lower < upper)
    model = uniform(lower, upper)
    got, want = sample(model, seed, n), uniform_sample(model, seed, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
