"""Minimal capital over contiguous interval tranches.

The search space here is deliberately narrow: cut the sorted support into at
most n contiguous groups and charge each group its strict quantile. Whether a
wider class of decompositions (randomized ones included) can do better is not
answered by this module, and every report built on it carries that caveat.

The dynamic program exploits one structural fact: the strict quantile of a
group depends only on its right edge. Reading the group (k+1..j) against the
prefix masses S, its quantile is zero exactly when S[k] > S[j] - (1 - alpha),
and otherwise equals the value of the first atom t with S[t] > S[j] - (1 -
alpha). That atom is the same for every left edge k, so each right edge j
carries a single precomputed cost and a single threshold index
(:meth:`DiscreteLaw.top`, which also prices tranches).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBounds, TooManyAtoms
from .loss_model import LossModel
from .risk_measures import RiskLevel, as_level
from .structuring import Partition

#: Largest finite support the dynamic program accepts.
MAX_SOLVER_ATOMS = 5000


@dataclass(frozen=True)
class OverheadSchedule:
    """Nondecreasing cost of running n units, charged on top of capital."""

    variant: str
    rate: float = 0.0
    costs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.variant not in ("none", "linear", "table"):
            raise InvalidBounds(f"unknown overhead variant {self.variant!r}")
        rate = float(self.rate)
        if not np.isfinite(rate) or rate < 0.0:
            raise InvalidBounds(f"overhead rate must be finite and >= 0, got {rate}")
        object.__setattr__(self, "rate", rate)
        costs = tuple(float(c) for c in self.costs)
        object.__setattr__(self, "costs", costs)
        if self.variant == "table":
            if not costs:
                raise InvalidBounds("table overhead needs at least one entry")
            if any(c < 0.0 or not np.isfinite(c) for c in costs):
                raise InvalidBounds("table overhead entries must be finite and >= 0")
            if any(b < a for a, b in zip(costs, costs[1:])):
                raise InvalidBounds("table overhead must be nondecreasing")

    @classmethod
    def none(cls) -> "OverheadSchedule":
        return cls(variant="none")

    @classmethod
    def linear(cls, rate: float) -> "OverheadSchedule":
        return cls(variant="linear", rate=rate)

    @classmethod
    def table(cls, costs) -> "OverheadSchedule":
        return cls(variant="table", costs=tuple(costs))

    def cost(self, n: int) -> float:
        if self.variant == "none":
            return 0.0
        if self.variant == "linear":
            return self.rate * n
        if n > len(self.costs):
            raise InvalidBounds(
                f"table overhead covers 1..{len(self.costs)} units, asked for {n}"
            )
        return self.costs[n - 1]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a tranche search: capital plus any overhead charged."""

    best_n: int
    partition: Partition
    capital: float
    objective: float


def _tranche_tables(model: LossModel, alpha: float):
    """Positive atom values and per-right-edge threshold indices.

    For a right edge j (1-based), the group (k+1..j) has zero quantile if and
    only if k >= tstar[j-1]; otherwise its quantile is pvals[tstar[j-1] - 1].
    """
    law = model.law
    if law is None:
        raise TooManyAtoms(
            "continuous support has no finite atom list; discretize first"
        )
    if law.values.size > MAX_SOLVER_ATOMS:
        raise TooManyAtoms(
            f"{law.values.size} distinct support points exceed the solver bound "
            f"{MAX_SOLVER_ATOMS}"
        )
    s = int(law.values[0] == 0.0)  # the DP groups the positive atoms only
    tops = law.top(np.arange(s + 1, law.values.size + 1), alpha)
    return law.values[s:], np.maximum(tops - s, 0)


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


def _solve(
    model: LossModel, level: RiskLevel | float, n_max: int, sched: OverheadSchedule
) -> SolveResult:
    """Minimize capital(N) + overhead(N) over N = 1..n_max with one DP pass.

    capital(N) is the prefix minimum of rows[r][1] over r <= N, reached first
    at g(N) groups. Past the last row capital stays put and a nondecreasing
    schedule costs no less, so no larger N can win; ties go to smaller N.
    """
    lvl = as_level(level)
    pvals, tstar = _tranche_tables(model, lvl.alpha)
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


def solve_tranche_dp(model: LossModel, level: RiskLevel | float, n: int) -> SolveResult:
    """Cheapest split of the support into at most n contiguous tranches.

    Ties break toward fewer groups first, then toward the lexicographically
    smallest cut vector, so the result is reproducible. Cuts land midway
    between adjacent support points.
    """
    if n < 1:
        raise InvalidBounds(f"need at least one tranche, got {n}")
    return _solve(model, level, n, OverheadSchedule.none())


def solve_with_overhead(
    model: LossModel,
    level: RiskLevel | float,
    n_max: int,
    overhead: OverheadSchedule | None = None,
) -> SolveResult:
    """Minimize capital(N) + overhead(N) over unit counts N = 1..n_max.

    capital(N) is the cheapest split into at most N tranches; ties break
    toward smaller N. With a nondecreasing schedule the winning N always
    equals the number of groups its partition actually uses.
    """
    if n_max < 1:
        raise InvalidBounds(f"need at least one unit, got {n_max}")
    sched = overhead if overhead is not None else OverheadSchedule.none()
    if sched.variant == "table" and len(sched.costs) < n_max:
        raise InvalidBounds(
            f"table overhead covers 1..{len(sched.costs)} units, need {n_max}"
        )
    return _solve(model, level, n_max, sched)
