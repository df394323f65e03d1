"""Minimal capital over contiguous interval tranches.

The search space here is deliberately narrow: cut the sorted support into at
most n contiguous groups and charge each group its strict quantile. Whether a
wider class of decompositions (randomized ones included) can do better is not
answered by this module, and every report built on it carries that caveat.

:meth:`DiscreteLaw.groups` prices every group as one table over every
distinct atom, an atom at 0 included: under the boundary rule of
:func:`level_weight`, the group ``values[a:b]`` is free when
``b < reach[a]``, and a costly group ending at b pays ``price[b - 1]``,
whatever its start. ``reach`` and ``price`` never fall, so a part of a free
group is free.

That gives the optimum in closed form. The rightmost costly group of any
cover can take in every group to its left: the merged group is still
costly, pays the same and uses fewer groups. So a cover with the fewest
groups at its capital has at most one costly group, and that group comes
first. Let ``starts[c]`` be the least atom from which c free groups cover the
rest of the support: ``starts[0] = m``, and each step takes the least atom a
with ``starts[c] < reach[a]``. Then N groups cost 0 when ``starts[N]`` is 0,
and ``price[starts[N - 1] - 1]`` otherwise. In a cheapest cover with the
fewest groups g, every group after the first is free, so its i-th end is at
least ``starts[g - i]``; the ends ``starts[g - 1], ..., starts[0]`` meet every
such bound, so their cuts are the lexicographically smallest. The walk stops
at 0, at a start it cannot lower, or at the budget: O(m log m) time and O(m)
memory.

Where :meth:`DiscreteLaw.cut_at` has no cut below the top atom, the walk
keeps the top pair in one group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds
from .loss_model import LossModel, UniformLaw, _require_int
from .risk_measures import _alpha
from .structuring import Partition


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


def solve_tranche_dp(model: LossModel, level: float, n: int) -> SolveResult:
    """Cheapest split of the support into at most n contiguous tranches.

    Ties break toward fewer groups first, then toward the lexicographically
    smallest cut vector, so the result is reproducible. Each cut is
    :meth:`DiscreteLaw.cut_at`'s: the midpoint of the atoms on either side
    when it lies strictly between the lower atom and the top of the support,
    and otherwise the upper atom.
    """
    n = _require_int(n, 1, "need at least one tranche, as an integer")
    return solve_with_overhead(model, level, n)


def solve_with_overhead(
    model: LossModel,
    level: float,
    n_max: int,
    overhead: OverheadSchedule | None = None,
) -> SolveResult:
    """Minimize capital(N) + overhead(N) over unit counts N = 1..n_max.

    capital(N) is the cheapest split into at most N tranches, caps[N] of the
    walk over free groups. Past the walk's end capital stays put and a
    nondecreasing schedule costs no less, so no larger N can win. Ties go to
    smaller N, and capital never rises with N while the schedule never
    falls, so the winning N is the number of groups its partition uses. A
    uniform model has no atoms to group, and raises :class:`InvalidBounds`.
    """
    n_max = _require_int(n_max, 1, "need at least one unit, as an integer")
    sched = overhead if overhead is not None else OverheadSchedule()
    if sched.units < n_max:
        raise InvalidBounds(
            f"table overhead covers 1..{sched.units} units, need {n_max}"
        )
    alpha = _alpha(level)
    law = model.law
    if isinstance(law, UniformLaw):
        raise InvalidBounds("a uniform model has no finite atom support")
    if law.upper == 0.0:
        raise InvalidBounds("all loss mass sits at zero; there is nothing to split")
    price, reach = law.groups(alpha)
    m = price.size
    # first[s]: the least atom a whose group values[a:s] is free; s if none is
    first = np.searchsorted(reach, np.arange(1, m + 2))
    if first[m] == m - 1 and np.isnan(law.cut_at(m - 1)):
        first[m] = m  # no float cut parts the top atom from its neighbour
    starts = [m]
    for _ in range(n_max):
        starts.append(int(first[starts[-1]]))
        if starts[-1] in (0, starts[-2]):
            break
    caps = [math.inf]  # caps[N] = capital(N), the lemma's one costly group first
    caps += [0.0 if s == 0 else float(price[t - 1]) for t, s in zip(starts, starts[1:])]
    objs = [caps[n] + sched.cost(n) for n in range(1, len(caps))]
    best = int(np.argmin(objs))  # the first minimum: ties go to smaller N
    groups = best + 1
    ends = starts[groups - 1 :: -1]
    partition = Partition((0.0, *law.cut_at(ends[:-1]).tolist(), law.upper))
    return SolveResult(
        best_n=groups, partition=partition, capital=caps[groups], objective=objs[best]
    )
