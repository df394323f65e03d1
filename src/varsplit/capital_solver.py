"""Minimal capital over contiguous interval tranches.

The search space here is deliberately narrow: cut the sorted support into at
most n contiguous groups and charge each group its strict quantile. Whether a
wider class of decompositions (randomized ones included) can do better is not
answered by this module, and every report built on it carries that caveat.

The dynamic program exploits one structural fact: the strict quantile of a
group of sorted atoms depends only on its right edge, once the group is not
free. :meth:`DiscreteLaw.groups` holds that fact as one table over every
distinct atom, an atom at 0 included: under the boundary rule of
:func:`level_weight`, the group starting at atom a is free up to the end
``reach[a]``, and a costly group ending at b pays ``price[b - 1]``.

Row r of its suffix table holds, at atom i, the cheapest cover of atoms
i..m by at most r groups, min(exactly r groups, row r - 1), with the empty
suffix at 0. Each row is a few numpy calls on the one before, and the pass
stops before the first row equal to the one before it. That one stop also
ends a pass that reaches capital 0: rows never rise with i and no cost is
negative, so a row with capital 0 is all zeros and the next row equals it.
For R rows over m atoms, time is O(R x m) in O(R) numpy calls. Memory is
O(m x sqrt(rmax)), where rmax = min(n, m) bounds R for a budget of n groups:
one row in every ceil(sqrt(rmax)) is kept as a checkpoint for the walk that
recovers the group ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds, TooManyAtoms
from .loss_model import LossModel, discrete_law
from .risk_measures import RiskLevel, as_level
from .structuring import Partition, _cuts_between

#: Largest finite support the dynamic program accepts.
MAX_SOLVER_ATOMS = 5000


@dataclass(frozen=True)
class OverheadSchedule:
    """Nondecreasing cost of running n units, charged on top of capital.

    A schedule charges ``rate * n`` or, given ``costs``, the table entry
    ``costs[n - 1]``; no overhead is rate 0. ``units`` is the largest unit
    count the schedule prices: the length of a table, and unbounded
    (``math.inf``) for a rate.
    """

    rate: float = 0.0
    costs: tuple[float, ...] | None = None

    def __post_init__(self):
        rate = float(self.rate)
        if not np.isfinite(rate) or rate < 0.0:
            raise InvalidBounds(f"overhead rate must be finite and >= 0, got {rate}")
        object.__setattr__(self, "rate", rate)
        if self.costs is None:
            return
        if rate != 0.0:
            raise InvalidBounds("an overhead takes a rate or a table, not both")
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        if not costs:
            raise InvalidBounds("table overhead needs at least one entry")
        if any(c < 0.0 or not np.isfinite(c) for c in costs):
            raise InvalidBounds("table overhead entries must be finite and >= 0")
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise InvalidBounds("table overhead must be nondecreasing")

    @classmethod
    def none(cls) -> "OverheadSchedule":
        return cls()

    @classmethod
    def linear(cls, rate: float) -> "OverheadSchedule":
        return cls(rate=rate)

    @classmethod
    def table(cls, costs) -> "OverheadSchedule":
        return cls(costs=tuple(costs))

    @property
    def units(self) -> int | float:
        return math.inf if self.costs is None else len(self.costs)

    def cost(self, n: int) -> float:
        if not 1 <= n <= self.units:
            raise InvalidBounds(
                f"overhead covers 1..{self.units} units, asked for {n}"
            )
        return self.rate * n if self.costs is None else self.costs[n - 1]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a tranche search: capital plus any overhead charged."""

    best_n: int
    partition: Partition
    capital: float
    objective: float


def _next_row(prev: np.ndarray, price: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Row r of the suffix table (index 1..m + 1) from row r - 1.

    A row never rises with i, since dropping a group's first atom never raises
    its price. So free groups i..j (j < reach[i - 1]) meet row r - 1 at
    prev[reach[i - 1]], and costly ones at the right-to-left minimum of
    price[j - 1] + prev[j + 1] read at reach[i - 1]. As reach[i - 1] >= i,
    prev[reach[i - 1]] <= prev[i] also covers "fewer than r groups".
    """
    costly = np.full(prev.size, np.inf)
    np.add(price, prev[2:], out=costly[1:-1])
    costly = np.minimum.accumulate(costly[::-1])[::-1]
    cur = prev.copy()
    np.minimum(prev[reach], costly[reach], out=cur[1:-1])
    return cur


def _dp_rows(reach: np.ndarray, price: np.ndarray, rmax: int):
    """Capitals caps[r] with at most r groups, plus every step-th row.

    Stops before the first row equal to the one before it: the recurrence is
    a fixed map, so every later row equals it too. A row with capital 0 is all
    zeros (rows never rise with i and no cost is negative), so the row after
    it repeats it and the same stop ends the pass there. Keeping one row in
    every step = ceil(sqrt(rmax)) bounds memory by O(m x sqrt(rmax)); time is
    O(rows x m) in numpy calls.
    """
    step = math.isqrt(rmax - 1) + 1
    row = np.append(np.full(price.size + 1, np.inf), 0.0)
    caps, marks = [np.inf], [row]
    for r in range(1, rmax + 1):
        cur = _next_row(row, price, reach)
        if np.array_equal(cur, row):
            break
        row = cur
        caps.append(float(row[1]))
        if r % step == 0:
            marks.append(row)
    return caps, marks, step


def _walk_ends(marks, step, reach, price, gstar, target) -> list[int]:
    """Group ends of the lexicographically smallest cut vector at the optimum.

    Group i..j is free when j < reach[i - 1], as in :func:`_next_row`. Rows
    gstar - 1 down to 0 are rebuilt one block of at most step rows at a time
    from their checkpoints: at most one more pass. Candidates reuse the
    table's own expressions, so the equality test is exact. No optimal cover
    has fewer than gstar groups, so each match spends exactly one.
    """
    ends, i, block = [], 1, []
    for r in range(gstar, 0, -1):
        if not block:
            block = [marks[(r - 1) // step]]
            for _ in range((r - 1) % step):
                block.append(_next_row(block[-1], price, reach))
        nxt = block.pop()
        for j in range(i, price.size + 1):
            cand = nxt[j + 1] if j < reach[i - 1] else price[j - 1] + nxt[j + 1]
            if cand == target:
                ends.append(j)
                target = nxt[j + 1]
                i = j + 1
                break
        else:
            raise AssertionError("suffix table reconstruction lost the optimum")
    return ends


def solve_tranche_dp(model: LossModel, level: RiskLevel | float, n: int) -> SolveResult:
    """Cheapest split of the support into at most n contiguous tranches.

    Ties break toward fewer groups first, then toward the lexicographically
    smallest cut vector, so the result is reproducible. Cuts land midway
    between adjacent support points.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidBounds(f"need at least one tranche, as an integer, got {n!r}")
    return solve_with_overhead(model, level, n)


def solve_with_overhead(
    model: LossModel,
    level: RiskLevel | float,
    n_max: int,
    overhead: OverheadSchedule | None = None,
) -> SolveResult:
    """Minimize capital(N) + overhead(N) over unit counts N = 1..n_max.

    capital(N) is the cheapest split into at most N tranches, caps[N] of one
    DP pass. Past its last row capital stays put and a nondecreasing schedule
    costs no less, so no larger N can win. Ties go to smaller N, so the
    winning N always equals the number of groups its partition uses.
    """
    if not isinstance(n_max, numbers.Integral) or n_max < 1:
        raise InvalidBounds(f"need at least one unit, as an integer, got {n_max!r}")
    sched = overhead if overhead is not None else OverheadSchedule.none()
    if sched.units < n_max:
        raise InvalidBounds(
            f"table overhead covers 1..{sched.units} units, need {n_max}"
        )
    lvl = as_level(level)
    law = discrete_law(model)
    if law.values.size > MAX_SOLVER_ATOMS:
        raise TooManyAtoms(
            f"{law.values.size} distinct support points exceed the solver bound "
            f"{MAX_SOLVER_ATOMS}"
        )
    if law.upper == 0.0:
        raise InvalidBounds("all loss mass sits at zero; there is nothing to split")
    price, reach = law.groups(lvl.alpha)
    caps, marks, step = _dp_rows(reach, price, min(n_max, price.size))
    objs = [caps[n] + sched.cost(n) for n in range(1, len(caps))]
    best = int(np.argmin(objs))  # the first minimum: ties go to smaller N
    capital = caps[best + 1]
    groups = caps.index(capital)
    ends = _walk_ends(marks, step, reach, price, groups, capital)
    partition = Partition(_cuts_between(law.values, ends, model.max_loss))
    return SolveResult(
        best_n=groups, partition=partition, capital=capital, objective=objs[best]
    )
