"""Deterministic builders shared across the test modules.

Everything here takes an explicit ``numpy.random.Generator`` (or returns a
fixed object), so each test freezes its own draws and reruns are bitwise
stable.  The dyadic constructions are deliberate: weights and masses that
are integer multiples of a power of two keep every product and partial sum
exact in binary floating point, which is what lets the additivity and
solver-agreement suites assert exact equality instead of tolerances.

``brute_force_oracle`` is the exhaustive reference the solver suites check
the solver against, ``group_table`` the scan that
``DiscreteLaw.groups`` must match, ``reference_solve`` the exact-r suffix
table, over ``tranche_tables`` built from their definition, that the
solver's walk must match bit for bit, ``reference_partition_cuts`` the
pair-list split that ``build_partition`` must match cut for cut, ``csv_rows_oracle``
the row-by-row CSV reader the ingest suite checks ``load_losses_csv``
against, ``sorted_sample`` the sample an empirical model's law counts, ``exact_mass``
and ``exact_tail`` the rational mass and tail integral of a unit of a
discrete law that ``price``'s floats are measured against in ``ulps``, the
``uniform_*`` functions the closed forms the uniform law must reproduce
bit for bit, ``exact_quantile`` the strict quantile of a decimal or
rational law that ``var`` and ``price``'s VaR are held to, and
``order_statistic_p`` the exact binomial law of a Monte Carlo order
statistic that the empirical unit VaRs are tested against.
"""

import csv
import functools
import itertools
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from varsplit import (
    CsvFormatError,
    EmptySupport,
    InvalidBounds,
    LossModel,
    NegativeLoss,
    OverheadSchedule,
    Partition,
    SolveResult,
    atoms,
    empirical,
)
from varsplit.loss_model import MASS_GUARD, DiscreteLaw
from varsplit.risk_measures import _alpha

#: Largest support the exhaustive oracle will enumerate.
MAX_ORACLE_ATOMS = 12


class OracleTooLarge(ValueError):
    """A model has more atoms than :func:`brute_force_oracle` enumerates."""


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


def random_dyadic_atoms(rng: np.random.Generator, max_atoms: int = 8) -> LossModel:
    """Small atomic model with integer values and masses on the 1/256 grid.

    Integer values and dyadic masses make every cumulative mass exact, so
    the solver and the enumeration oracle see identical group feasibility
    decisions and their capitals must agree exactly, not approximately.
    """
    m = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.choice(101, size=m, replace=False)).astype(float)
    counts = rng.multinomial(256 - m, np.full(m, 1.0 / m)) + 1
    return atoms(values, counts / 256.0)


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


def brute_force_oracle(model: LossModel, level: float, n: int) -> float:
    """Minimal capital over at most n contiguous groups, by full enumeration.

    Exponential in the atom count, so capped hard; meant as an independent
    check on the solver, not for production use. Groups are priced
    by :meth:`DiscreteLaw.unit_var`, the rule every tranche quantile uses.
    """
    alpha = _alpha(level)
    law = model.law
    if not isinstance(law, DiscreteLaw):
        raise InvalidBounds("the oracle enumerates explicit atom lists only")
    m = law.values.size
    if m > MAX_ORACLE_ATOMS:
        raise OracleTooLarge(f"{m} atoms exceed the oracle bound {MAX_ORACLE_ATOMS}")
    if n < 1:
        raise InvalidBounds(f"need at least one group, got {n}")
    best = np.inf
    for r in range(1, min(n, m) + 1):
        for inner in itertools.combinations(range(1, m), r - 1):
            bounds = (0, *inner, m)
            total = 0.0
            for a, b in zip(bounds, bounds[1:]):
                total += law.unit_var(a, b, alpha)
            if total < best:
                best = total
    return float(best)


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


def reference_partition_cuts(model: LossModel, alpha: float, n: int) -> tuple[float, ...]:
    """Cuts of an n-tranche split of a discrete model, kept as [start, end] pairs.

    The discrete branch of ``build_partition`` as it stood before the split
    held only its group ends, verbatim but for the checks and the inlined
    greedy packing: groups are halved, the leftmost of the widest first, and
    cuts land midway between the groups' edge atoms.
    """
    law = model.law
    vals = law.values
    tops = law.top(np.arange(1, vals.size + 1), alpha)
    groups = []
    start = 0
    while start < tops.size:
        end = int(np.searchsorted(tops, start, side="right"))
        groups.append((start, end))
        start = end
    groups = [list(g) for g in groups]
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
        cuts.append((float(vals[g[1] - 1]) + float(vals[nxt[0]])) / 2.0)
    cuts.append(model.max_loss)
    extra = n - len(groups)
    if extra > 0:
        # All groups are single atoms; spend the leftover tranche budget on
        # empty slivers between the first atom and the first cut above it.
        top0 = float(vals[groups[0][1] - 1])
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
    bound = (alpha + MASS_GUARD) * law.total

    def free(a: int, b: int) -> bool:
        return law.total - float(np.sum(law.weights[a:b])) > bound

    reach = [next((b for b in range(a + 1, m + 1) if not free(a, b)), m + 1) for a in range(m)]
    least = [next(t for t in range(b + 1) if free(t, b)) for b in range(1, m + 1)]
    price = [law.values[max(t, 1) - 1] for t in least]
    return np.array(price), np.array(reach)


def tranche_tables(model: LossModel, alpha: float):
    """Positive atom values and per-right-edge threshold indices, by definition.

    An atom at 0 is in every group's zero mass, so groups hold positive atoms
    only. The unit that bears positive atoms k+1..j (1-based) loses 0 with
    weight W = total - their weight, so its quantile is 0 exactly when W
    passes alpha under the boundary rule W > (alpha + MASS_GUARD) * total.
    tstar[j - 1] is the least such k, found by scanning every (k, j): O(m^2),
    and independent of the solver's prefix-sum search.
    """
    law = model.law
    positive = law.values > 0.0
    pvals, pweights = law.values[positive], law.weights[positive]
    bound = (alpha + MASS_GUARD) * law.total
    tstar = [
        next(k for k in range(j + 1) if law.total - float(np.sum(pweights[k:j])) > bound)
        for j in range(1, pvals.size + 1)
    ]
    return pvals, np.array(tstar, dtype=np.int64)


# A suffix table whose row r covers each suffix with exactly r groups, built
# by a sliding-window loop over every (row, atom) state, with every row kept
# for the cut walk. ``reference_solve`` runs it as the reference that the
# vectorized at-most-r solver must match bit for bit.


def _dp_rows(tstar: np.ndarray, varpt: np.ndarray, rmax: int):
    """Suffix tables row by row: rows[r][i] covers atoms i..mp with r groups.

    Stops after the first row whose full-support capital rows[r][1] is 0.

    Both branches of the recurrence are amortized O(1) per state. Free groups
    ending before index tstar reach the previous row through a sliding-window
    minimum whose ends only move left as i decreases; costly groups share a
    per-row array B[j] = varpt[j] + prev[j+1] folded right to left.
    """
    mp = varpt.size
    jz = np.searchsorted(tstar, np.arange(1, mp + 1), side="left") + 1
    prev = np.full(mp + 2, np.inf)
    prev[mp + 1] = 0.0
    rows = [prev]
    for r in range(1, rmax + 1):
        cur = np.full(mp + 2, np.inf)
        bcost = np.full(mp + 2, np.inf)
        bcost[1 : mp + 1] = varpt + prev[2:]
        window: deque[int] = deque()
        ptr = mp + 1
        rmin = np.inf
        for i in range(mp, 0, -1):
            k = i + 1
            v = prev[k]
            while window and prev[window[0]] >= v:
                window.popleft()
            window.appendleft(k)
            hi = min(int(jz[i - 1]), mp + 1)
            while window and window[-1] > hi:
                window.pop()
            zmin = prev[window[-1]] if window else np.inf
            lo = int(jz[i - 1])
            while ptr > lo:
                ptr -= 1
                if bcost[ptr] < rmin:
                    rmin = bcost[ptr]
            cur[i] = zmin if zmin <= rmin else rmin
        rows.append(cur)
        prev = cur
        if cur[1] == 0.0:
            break
    return rows


def _walk_cuts(rows, tstar, varpt, pvals, gstar: int, max_loss: float) -> Partition:
    """Recover the lexicographically smallest cut vector achieving the optimum.

    Candidate values are recomputed with the same expressions the table used,
    so the equality test against the stored optimum is exact.
    """
    mp = varpt.size
    target = rows[gstar][1]
    cuts = [0.0]
    i = 1
    for r in range(gstar, 0, -1):
        nxt = rows[r - 1]
        for j in range(i, mp + 1):
            if tstar[j - 1] <= i - 1:
                cand = nxt[j + 1]
            else:
                cand = varpt[j - 1] + nxt[j + 1]
            if cand == target:
                if r > 1:
                    cuts.append((float(pvals[j - 1]) + float(pvals[j])) / 2.0)
                target = nxt[j + 1]
                i = j + 1
                break
        else:
            raise AssertionError("suffix table reconstruction lost the optimum")
    cuts.append(float(max_loss))
    return Partition(tuple(cuts))


def reference_solve(
    model: LossModel, level: float, n_max: int, sched: OverheadSchedule
) -> SolveResult:
    """``solve_with_overhead`` through the exact-r reference DP above, on
    tables built from their definition by :func:`tranche_tables`."""
    pvals, tstar = tranche_tables(model, _alpha(level))
    mp = pvals.size
    if mp == 0:
        raise InvalidBounds("all loss mass sits at zero; there is nothing to split")
    varpt = pvals[np.maximum(tstar, 1) - 1]
    rows = _dp_rows(tstar, varpt, min(n_max, mp))
    capital, groups = np.inf, 0
    best = None
    for n_units in range(1, len(rows)):
        if rows[n_units][1] < capital:
            capital, groups = float(rows[n_units][1]), n_units
        obj = capital + sched.cost(n_units)
        if best is None or obj < best[0]:
            best = (obj, capital, groups)
    obj, capital, groups = best
    partition = _walk_cuts(rows, tstar, varpt, pvals, groups, model.max_loss)
    return SolveResult(
        best_n=groups, partition=partition, capital=capital, objective=float(obj)
    )


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
