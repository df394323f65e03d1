"""Deterministic builders shared across the test modules.

Everything here takes an explicit ``numpy.random.Generator`` (or returns a
fixed object), so each test freezes its own draws and reruns are bitwise
stable.  The dyadic constructions are deliberate: weights and masses that
are integer multiples of a power of two keep every product and partial sum
exact in binary floating point, which is what lets the additivity and
solver-agreement suites assert exact equality instead of tolerances.

The solver's references price in exact arithmetic on the integer law a
test drew, never through the package's guarded float rule:
``brute_force_oracle`` enumerates every split of at most 12 atoms, each
group priced by ``exact_quantile``, and ``exact_walk`` runs the solver's
free-group walk on integer prefix sums for laws of any size; both return
the whole solve outcome. ``reference_partition_cuts`` is the pair-list
split, grouped by exact mass, that ``build_partition`` must match cut for
cut. ``group_table`` is the scan that ``DiscreteLaw.groups`` must match, by
its guarded definition. ``csv_rows_oracle`` is the row-by-row CSV reader
the ingest suite checks ``load_losses_csv`` against, ``sorted_sample`` the
sample an empirical model's law counts, ``exact_mass`` and ``exact_tail``
the rational mass and tail integral of a unit of a discrete law that
``price``'s floats are measured against in ``ulps``, the ``uniform_*``
functions the closed forms the uniform law must reproduce bit for bit,
``exact_quantile`` the strict quantile of a decimal or rational law that
``var`` and ``price``'s VaR are held to, and ``order_statistic_p`` the
exact binomial law of a Monte Carlo order statistic that the empirical unit
VaRs are tested against.
"""

import csv
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from varsplit import (
    CsvFormatError,
    EmptySupport,
    LossModel,
    NegativeLoss,
    OverheadSchedule,
    Partition,
    SolveResult,
    atoms,
    empirical,
)
from varsplit import loss_model
from varsplit.loss_model import DiscreteLaw

#: Largest support the exhaustive oracle will enumerate.
MAX_ORACLE_ATOMS = 12


class OracleTooLarge(ValueError):
    """A law has more atoms than :func:`brute_force_oracle` enumerates."""


def dyadic_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    """k strictly positive weights summing to exactly 1.0.

    Each weight is m/8192 for an integer m >= 1, so the weights themselves,
    their products with grid-valued losses, and all partial sums stay exact.
    """
    counts = rng.multinomial(8192 - k, np.full(k, 1.0 / k)) + 1
    return counts / 8192.0


def sorted_sample(model: LossModel) -> np.ndarray:
    """The sorted sample whose distinct values and counts are ``model.law``."""
    return np.repeat(model.law.values, model.law.weights.astype(int))


def grid_uniform_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws from uniform(0, 1) snapped to the 2**-20 grid."""
    return np.floor(rng.random(n) * 2.0**20) / 2.0**20


def integer_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer-valued losses in 0..49, exact as floats."""
    return rng.integers(0, 50, size=n).astype(float)


def random_dyadic_law(rng: np.random.Generator, max_atoms: int = 8) -> tuple[list, list]:
    """2 to ``max_atoms`` distinct integer values in 0..100 and integer weights
    over a total of 256."""
    m = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.choice(101, size=m, replace=False))
    counts = rng.multinomial(256 - m, np.full(m, 1.0 / m)) + 1
    return values.tolist(), counts.tolist()


def random_dyadic_atoms(rng: np.random.Generator, max_atoms: int = 8) -> LossModel:
    """:func:`random_dyadic_law` as an atom list, its masses on the 1/256 grid.

    Integer values and dyadic masses make every cumulative mass exact, so
    the package decides each group as exact arithmetic does.
    """
    values, counts = random_dyadic_law(rng, max_atoms)
    return atoms(values, np.array(counts) / 256.0)


def near_uniform_500_atoms() -> LossModel:
    """500-point discretization of uniform(0, 1) with masses on the 1/512 grid.

    The first 12 atoms carry 2/512 and the rest 1/512.  Any consecutive run
    of 25 atoms then weighs at least 25/512 > 0.048, comfortably clear of
    the 0.05 tail budget in exact arithmetic, so the minimal zero-capital
    grouping needs ceil(512/25) = 21 desks and no float rounding can sneak
    a 20-desk split past the mass check.  The 0.95-quantile still lands on
    the atom at 0.95 exactly.
    """
    values = np.arange(1, 501) / 500.0
    masses = np.concatenate([np.full(12, 2.0 / 512.0), np.full(488, 1.0 / 512.0)])
    return atoms(values, masses)


def _decimal(level: float) -> Fraction:
    """The level as the decimal its ``repr`` denotes: 0.95 is 19/20, not the float nearest it."""
    return Fraction(repr(float(level)))


def _cuts(values, ends) -> tuple[float, ...]:
    """The cuts of a split with group ``ends``: 0, the midpoint of the atoms
    either side of each inner end, and the top atom. That midpoint is the
    package's cut wherever it lies strictly between the two atoms, as it
    does for the integer values the oracles are given."""
    return (0.0, *((values[e - 1] + values[e]) / 2 for e in ends[:-1]), float(values[-1]))


@functools.lru_cache(maxsize=16)
def _cheapest_splits(values: tuple, weights: tuple, level: Fraction) -> dict:
    """For each group count r, the least exact capital of a split into r
    contiguous groups and the lexicographically smallest ends that reach it.

    Each group is priced once, by :func:`exact_quantile` of its unit's law:
    the group's atoms after a zero that carries the rest of the weight, the
    weights and the level both scaled by the total. Prices are held as
    integers by :func:`_fixed`, so every capital is an exact integer sum.
    """
    m, total = len(values), sum(weights)
    price = {}
    for a, b in itertools.combinations(range(m + 1), 2):
        unit = [0, *values[a:b]], [total - sum(weights[a:b]), *weights[a:b]]
        price[a, b] = _fixed(exact_quantile(*unit, level * total))
    best = {}
    for r in range(1, m + 1):
        for inner in itertools.combinations(range(1, m), r - 1):
            ends = (*inner, m)
            capital = sum(price[a, b] for a, b in zip((0, *inner), ends))
            if r not in best or capital < best[r][0]:
                best[r] = capital, ends
    return best


def brute_force_oracle(values, weights, level: float, n_max: int, overhead=OverheadSchedule()):
    """``solve_with_overhead`` on the law with integer ``weights`` on ``values``,
    by full enumeration in exact arithmetic.

    The level is the decimal that ``repr(level)`` denotes. capital(N) is the
    least exact capital of any split into at most N contiguous groups, taken
    at the fewest groups and then the lexicographically smallest ends; the
    chosen N minimizes capital(N) + overhead(N) in floats, ties going to the
    smaller N. Returns ``(best_n, cuts, capital, objective)``. The group
    table is built once per law and level; enumeration is exponential in
    the atom count, so it is capped at :data:`MAX_ORACLE_ATOMS`.
    """
    if len(values) > MAX_ORACLE_ATOMS:
        raise OracleTooLarge(f"{len(values)} atoms exceed the oracle bound {MAX_ORACLE_ATOMS}")
    best = _cheapest_splits(tuple(values), tuple(weights), _decimal(level))
    splits = [best[1]]  # splits[N - 1]: capital(N) and its ends
    for n in range(2, n_max + 1):
        split = best.get(n, splits[-1])
        splits.append(split if split[0] < splits[-1][0] else splits[-1])
    caps = [float(Fraction(capital, _ONE)) for capital, _ in splits]
    objs = [capital + overhead.cost(n) for n, capital in enumerate(caps, 1)]
    n = objs.index(min(objs)) + 1
    return n, _cuts(values, splits[n - 1][1]), caps[n - 1], objs[n - 1]


def bits(outcome) -> tuple:
    """A solve's ``(best_n, cuts, capital, objective)``, read from a
    :class:`SolveResult` or an oracle's tuple, each float as its bit pattern."""
    if isinstance(outcome, SolveResult):
        outcome = outcome.best_n, outcome.partition.cuts, outcome.capital, outcome.objective
    best_n, cuts, capital, objective = outcome
    return best_n, [float(c).hex() for c in cuts], float(capital).hex(), float(objective).hex()


def exact_walk(values, weights, level: float, n_max: int, overhead=OverheadSchedule()):
    """What :func:`brute_force_oracle` returns, by the walk over free groups
    that the :mod:`varsplit.capital_solver` docstring derives, run on the
    integer prefix sums of the law: O(m) steps for the walk, and O(m) more
    for each budget it prices.

    A group is free when its exact VaR is 0: when the weight of its unit's
    zero (the rest of the law, and an atom at 0 in the group) exceeds the
    level times the total. ``starts[0]`` is m, and each step takes the least
    atom from which the group up to the last start is free; N groups cost 0
    when ``starts[N]`` is 0, and otherwise the exact VaR of the group that
    ends at ``starts[N - 1]``. The walk stops at 0, at a start it cannot
    lower, or at ``n_max``.
    """
    m, total = len(values), sum(weights)
    cum = [0, *itertools.accumulate(weights)]
    bar = _decimal(level) * total
    zero = int(values[0] == 0)  # an atom at 0 adds to the zero of a group that holds it

    def free(a: int, b: int) -> bool:
        return total - cum[b] + cum[max(a, zero)] > bar

    def costly(b: int):  # the strict quantile of the unit bearing values[0:b]
        return next(values[j] for j in range(b) if total - cum[b] + cum[j + 1] > bar)

    starts = [m]
    while len(starts) <= n_max:
        s = a = starts[-1]
        while a > 0 and free(a - 1, s):
            a -= 1
        starts.append(a)
        if a in (0, s):
            break
    caps = [0 if s == 0 else costly(t) for t, s in zip(starts, starts[1:])]
    objs = [float(capital) + overhead.cost(n) for n, capital in enumerate(caps, 1)]
    n = objs.index(min(objs)) + 1
    return n, _cuts(values, starts[n - 1 :: -1]), float(caps[n - 1]), objs[n - 1]


def csv_rows_oracle(path) -> LossModel:
    """A loss CSV read one csv record at a time, naming the first bad row.

    Independent of the fast line parser in ``load_losses_csv``: every record
    goes through ``csv.reader``, ``str.strip`` and ``float`` in Python. A
    ``csv.Error`` (such as a field over ``csv.field_size_limit()``) becomes a
    ``CsvFormatError`` naming the record it was raised in.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lineno = 1
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty, expected header 'loss'")
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: row {lineno}: {exc}") from None
        if len(header) != 1 or header[0].strip().lstrip("\ufeff") != "loss":
            raise CsvFormatError(f"{path}: header must be 'loss', got {header!r}")
        losses = []
        while True:
            lineno += 1
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise CsvFormatError(f"{path}: row {lineno}: {exc}") from None
            if not row:
                continue
            if len(row) != 1:
                raise CsvFormatError(
                    f"{path}: row {lineno}: expected one column, got {len(row)}"
                )
            text = row[0].strip()
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(f"{path}: row {lineno}: not a number: {text!r}")
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: row {lineno}: non-finite loss {text!r}")
            if value < 0.0:
                raise NegativeLoss(f"{path}: row {lineno}: negative loss {value}")
            losses.append(value)
    if not losses:
        raise EmptySupport(f"{path}: no loss rows found")
    return empirical(losses)


def reference_partition_cuts(values, weights, alpha: float, n: int) -> tuple[float, ...]:
    """Cuts of an n-tranche split of the law with integer ``weights`` on
    ``values``, kept as [start, end] pairs and grouped in exact arithmetic.

    The discrete branch of ``build_partition`` as it stood before the split
    held only its group ends, but for the checks, the inlined greedy packing
    and its rule: a group is free when its weight is below 1 - alpha times
    the total, alpha read as the decimal ``repr(alpha)`` denotes, where the
    package compares floats under its guard. Each group is the longest free
    run from the end of the last; groups are halved, the leftmost of the
    widest first, and cuts land midway between the groups' edge atoms.
    """
    bar = (1 - _decimal(alpha)) * sum(weights)
    groups = []
    start = 0
    while start < len(values):
        end, weight = start, 0
        while end < len(values) and weight + weights[end] < bar:
            weight += weights[end]
            end += 1
        if end == start:
            raise ValueError(f"atom {values[start]} alone weighs at least 1 - alpha")
        groups.append([start, end])
        start = end
    while len(groups) < n:
        sizes = [g[1] - g[0] for g in groups]
        widest = max(sizes)
        if widest == 1:
            break
        k = sizes.index(widest)
        start, end = groups[k]
        mid = start + widest // 2
        groups[k : k + 1] = [[start, mid], [mid, end]]
    cuts = [0.0]
    for g, nxt in zip(groups, groups[1:]):
        cuts.append((float(values[g[1] - 1]) + float(values[nxt[0]])) / 2.0)
    cuts.append(float(values[-1]))
    extra = n - len(groups)
    if extra > 0:
        # All groups are single atoms; spend the leftover tranche budget on
        # empty slivers between the first atom and the first cut above it.
        top0 = float(values[groups[0][1] - 1])
        slivers = np.linspace(top0, cuts[1], extra + 2)[1:-1]
        cuts = [cuts[0], *map(float, slivers), *cuts[1:]]
    return Partition(tuple(cuts)).cuts


def group_table(law: DiscreteLaw, alpha: float):
    """``DiscreteLaw.groups`` by definition, scanning every (a, b): O(m^2).

    The unit that bears atoms a..b-1 (0-based) loses 0 with weight W = total -
    their weight, so its quantile is 0 exactly when W passes alpha under the
    boundary rule W > (alpha + MASS_GUARD) * total. reach[a] is the first end
    b at which that fails, m + 1 if none does. A costly group ending at b is
    priced at the atom before the least start t whose group t..b-1 is free.
    """
    m = law.values.size
    bound = (alpha + loss_model.MASS_GUARD) * law.total

    def free(a: int, b: int) -> bool:
        return law.total - float(np.sum(law.weights[a:b])) > bound

    reach = [next((b for b in range(a + 1, m + 1) if not free(a, b)), m + 1) for a in range(m)]
    least = [next(t for t in range(b + 1) if free(t, b)) for b in range(1, m + 1)]
    price = [law.values[max(t, 1) - 1] for t in least]
    return np.array(price), np.array(reach)


# The closed forms of a uniform model as they stood before the model held a
# law, each body kept verbatim except that it reads the bounds from model.law;
# the level checks that ran before them are left to the callers.


def _fixed(x) -> int:
    """``x * 2**1074`` as an integer: every finite double is a whole multiple of ``2**-1074``."""
    n, d = float(x).as_integer_ratio()
    return n << (1075 - d.bit_length())


_ONE = 2**1074  # 1.0 in the units of _fixed


def exact_mass(law: DiscreteLaw, a: int, b: int) -> Fraction:
    """The weight of ``values[a:b]`` over ``total``, summed from the law's float weights exactly."""
    return Fraction(sum(map(_fixed, law.weights[a:b].tolist())), _fixed(law.total))


def exact_tail(law: DiscreteLaw, a: int, b: int, p) -> Fraction:
    """Integral over levels (p, 1) of the quantile of X * 1{X among values[a:b]}, exactly.

    The law's floats are read as the rationals they are. The unit's loss is
    0 with weight ``total - (cum[b] - cum[a])``, which fills the bottom of
    the level axis, and ``values[j]`` with weight ``cum[j + 1] - cum[j]``
    above it; ``p`` is a float or a Fraction.
    """
    cum = [_fixed(c) * _ONE for c in law.cum[a : b + 1].tolist()]
    total = _fixed(law.total) * _ONE
    shift = total - cum[-1]
    level = Fraction(p) * _fixed(law.total) * _ONE  # p * total, in the units of cum
    num, den = level.numerator, level.denominator
    acc = 0
    for v, lo, hi in zip(law.values[a:b].tolist(), cum, cum[1:]):
        w = (hi + shift) * den - max((lo + shift) * den, num)
        if w > 0:
            acc += _fixed(v) * w
    return Fraction(acc, den * _ONE) / total


def exact_quantile(values, probs, level) -> float:
    """The strict quantile ``inf {x : P(X <= x) > level}`` of the law with
    ``probs[k]`` on ``values[k]``, in exact arithmetic.

    Each probability and the level is read by ``Fraction``: a decimal text
    such as ``"0.35"`` as the decimal it denotes, not the float nearest it;
    an integer, a float or a Fraction as the number it holds.
    """
    p, cum = Fraction(level), Fraction(0)
    for v, w in zip(values, probs):
        cum += Fraction(w)
        if cum > p:
            return float(v)
    raise ValueError(f"level {level} is not below the total mass {cum}")


def ulps(got: float, exact: Fraction) -> float:
    """How many units in the last place of ``float(exact)`` separate ``got`` from ``exact``."""
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def uniform_cdf(model: LossModel, x: float) -> float:
    x = float(x)
    if x < model.law.lower:
        return 0.0
    if x >= model.law.upper:
        return 1.0
    return (x - model.law.lower) / (model.law.upper - model.law.lower)


def uniform_var(model: LossModel, p: float) -> float:
    return model.law.lower + p * (model.law.upper - model.law.lower)


def uniform_mass_in(model: LossModel, iv) -> float:
    lo = max(iv.lo, model.law.lower)
    hi = min(iv.hi, model.law.upper)
    if hi <= lo:
        return 0.0
    return (hi - lo) / (model.law.upper - model.law.lower)


def uniform_sample(model: LossModel, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(model.law.lower, model.law.upper, size=n)


def uniform_mean_tail(model: LossModel, p: float) -> float:
    a, b = model.law.lower, model.law.upper
    return a * (1.0 - p) + (b - a) * (1.0 - p * p) / 2.0


def uniform_expected_shortfall(model: LossModel, alpha: float) -> float:
    return model.law.lower + (model.law.upper - model.law.lower) * (1.0 + alpha) / 2.0


def uniform_var_of_tranche(model: LossModel, iv, alpha: float) -> float:
    lo = max(iv.lo, model.law.lower)
    hi = min(iv.hi, model.law.upper)
    if hi <= lo:
        return 0.0
    width = model.law.upper - model.law.lower
    q = (hi - lo) / width
    base = 1.0 - q
    if base > alpha:
        return 0.0
    return lo + (alpha - base) * width


def uniform_es_of_tranche(model: LossModel, iv, alpha: float) -> float:
    lo = max(iv.lo, model.law.lower)
    hi = min(iv.hi, model.law.upper)
    if hi <= lo:
        return 0.0
    width = model.law.upper - model.law.lower
    q = (hi - lo) / width
    base = 1.0 - q
    u0 = max(alpha, base)
    integral = lo * (1.0 - u0) + width * (q * q - (u0 - base) * (u0 - base)) / 2.0
    return integral / (1.0 - alpha)


@functools.lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """``log(k!)`` for k = 0..n, each from ``math.lgamma``."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def binomial_range(n: int, g: float, lo: int, hi: int) -> float:
    """P(lo <= Bin(n, g) <= hi), its terms summed in log space.

    Each term is ``C(n, k) g**k (1 - g)**(n - k)``, with ``C(n, k)`` read
    from :func:`math.lgamma`; the largest term is factored out before the
    sum, so a tail far below the smallest float reads 0, not NaN.
    """
    lo, hi = max(lo, 0), min(hi, n)
    if lo > hi:
        return 0.0
    if not 0.0 < g < 1.0:  # all the weight sits at k = 0 or k = n
        return float(lo <= (n if g >= 1.0 else 0) <= hi)
    k = np.arange(lo, hi + 1)
    lf = _log_factorials(n)
    logs = lf[n] - lf[k] - lf[n - k] + k * math.log(g) + (n - k) * math.log1p(-g)
    top = float(logs.max())
    return min(1.0, math.exp(top) * float(np.exp(logs - top).sum()))


def order_statistic_p(n: int, r: int, at_most: float, below: float) -> float:
    """Two-sided p-value of reading y as the r-th smallest of n independent draws.

    ``at_most`` is P(draw <= y) and ``below`` is P(draw < y) under the law
    the draws should follow. Then P(X_(r) <= y) = P(Bin(n, at_most) >= r)
    and P(X_(r) >= y) = P(Bin(n, below) <= r - 1), exactly, atoms or not;
    the p-value is twice the smaller, at most 1.
    """
    low = binomial_range(n, at_most, r, n)
    high = binomial_range(n, below, 0, r - 1)
    return min(1.0, 2.0 * min(low, high))
