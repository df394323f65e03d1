"""Tranche partitions and randomized subsidiary schemes.

Both constructions aim at the same effect: give every unit a probability of
positive loss strictly below ``1 - alpha``, so the strict quantile of each
unit is zero even though the whole book is fully covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomTooHeavy,
    InvalidBounds,
    NInsufficient,
    OutOfSupport,
    PartitionMismatch,
)
from .loss_model import (  # MASS_GUARD stays importable from here
    MASS_GUARD,
    PROB_TOL,
    Interval,
    LossModel,
    UniformLaw,
    intervals_from_cuts,
    level_weight,
    mass_in,
    quantile_strict,
)
from .risk_measures import (
    RiskLevel,
    as_level,
    tail_integral,
    var_of_tranche,
)


def _require_units(subsidiaries: int) -> None:
    if int(subsidiaries) < 1:
        raise InvalidBounds(f"need at least one subsidiary, got {subsidiaries}")


def _mass_ok(mass: float, alpha: float) -> bool:
    """Strict mass bound ``mass < 1 - alpha``: the rest of the law passes alpha."""
    return 1.0 - mass > level_weight(alpha, 1.0)


@dataclass(frozen=True)
class Partition:
    """Increasing cut points from 0 up to the top of the support."""

    cuts: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(c) for c in self.cuts)
        object.__setattr__(self, "cuts", pts)
        if len(pts) < 2:
            raise InvalidBounds("a partition needs at least two cut points")
        if pts[0] != 0.0:
            raise InvalidBounds(f"partition must start at 0, got {pts[0]}")
        if not all(map(math.isfinite, pts)):
            raise InvalidBounds(f"partition cuts must be finite, got {pts}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidBounds("partition cuts must be strictly increasing")

    @property
    def n_tranches(self) -> int:
        return len(self.cuts) - 1

    def intervals(self) -> list[Interval]:
        return intervals_from_cuts(self.cuts)


@dataclass(frozen=True, eq=False)
class TrancheDecomposition:
    """A partition applied to a model: per-tranche masses and quantiles."""

    model: LossModel
    partition: Partition
    masses: np.ndarray
    tranche_vars: np.ndarray

    @property
    def total_capital(self) -> float:
        return float(np.sum(self.tranche_vars))


@dataclass(frozen=True)
class RandomizedScheme:
    """N subsidiaries, one of which is drawn uniformly to bear each loss."""

    subsidiaries: int
    seed: int

    def __post_init__(self):
        _require_units(self.subsidiaries)
        object.__setattr__(self, "subsidiaries", int(self.subsidiaries))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SchemeValidity:
    """Verdict for a randomized scheme at a given level.

    ``worst_var_fraction`` is the worst-case per-subsidiary quantile as a
    fraction of the maximum loss: 0.0 when the activation probability stays
    strictly below the tail budget, 1.0 otherwise (a constant loss at the cap
    then charges the full cap to every subsidiary).
    """

    ok: bool
    activation_probability: float
    tail_budget: float
    worst_var_fraction: float

    def __bool__(self) -> bool:
        return self.ok


def min_subsidiaries(level: RiskLevel | float) -> int:
    """Smallest N whose units can each stay strictly below mass 1 - alpha.

    Masses summing to one force N * (1 - alpha) > 1, so this is
    ``floor(1 / (1 - alpha)) + 1`` in exact arithmetic.
    """
    alpha = as_level(level).alpha
    n = max(1, math.floor(1.0 / (1.0 - alpha)))
    while n > 1 and _mass_ok(1.0 / (n - 1), alpha):
        n -= 1
    while not _mass_ok(1.0 / n, alpha):
        n += 1
    return n


def _greedy_groups(tops: np.ndarray) -> list[tuple[int, int]]:
    """Pack sorted atoms left to right into the fewest groups under the bound.

    ``tops[b - 1]`` is the pricing index of a group ending at b: the group
    ``[a, b)`` meets the bound exactly when ``a >= tops[b - 1]``. ``tops`` is
    nondecreasing, so each group runs to the last such b.
    """
    groups = []
    start = 0
    while start < tops.size:
        end = int(np.searchsorted(tops, start, side="right"))
        groups.append((start, end))
        start = end
    return groups


def build_partition(model: LossModel, level: RiskLevel | float, n: int | None = None) -> Partition:
    """Partition the support so every tranche mass is strictly below 1 - alpha.

    With ``n`` omitted the minimal feasible tranche count is used. Continuous
    models get equal-mass quantile cuts; discrete models are packed greedily
    so cuts never land on an atom.
    """
    lvl = as_level(level)
    alpha = lvl.alpha
    if n is not None and n < 1:
        raise NInsufficient(f"tranche count must be >= 1, got {n}")
    if isinstance(model.law, UniformLaw):
        n_min = min_subsidiaries(lvl)
        if n is None:
            n = n_min
        if n < n_min:
            raise NInsufficient(
                f"{n} tranches cannot all have mass below 1 - alpha; need >= {n_min}"
            )
        inner = [quantile_strict(model, k / n) for k in range(1, n)]
        return Partition((0.0, *inner, model.max_loss))

    law = model.law
    vals = law.values
    tops = law.top(np.arange(1, vals.size + 1), alpha)
    if np.any(tops > np.arange(vals.size)):
        heaviest = float(np.max(law.weights)) / law.total
        raise AtomTooHeavy(
            f"an atom of mass {heaviest} can never sit strictly below "
            f"1 - alpha = {1.0 - alpha}"
        )
    groups = _greedy_groups(tops)
    if n is None:
        n = len(groups)
    if n < len(groups):
        raise NInsufficient(
            f"{n} tranches cannot satisfy the mass bound; need >= {len(groups)}"
        )
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
    return Partition(tuple(cuts))


def decompose(model: LossModel, partition: Partition, level: RiskLevel | float) -> TrancheDecomposition:
    """Apply a partition to a model: masses and per-tranche strict quantiles."""
    lvl = as_level(level)
    cuts = partition.cuts
    if cuts[-1] != model.max_loss:
        raise PartitionMismatch(
            f"partition ends at {cuts[-1]} but the support ends at {model.max_loss}"
        )
    ivs = partition.intervals()
    masses = np.array([mass_in(model, iv) for iv in ivs])
    total = float(np.sum(masses))
    if abs(total - 1.0) > PROB_TOL:
        raise PartitionMismatch(
            f"tranche masses sum to {total!r}, the partition misses support"
        )
    tranche_vars = np.array([var_of_tranche(model, iv, lvl) for iv in ivs])
    masses.flags.writeable = False
    tranche_vars.flags.writeable = False
    return TrancheDecomposition(
        model=model, partition=partition, masses=masses, tranche_vars=tranche_vars
    )


def split_realization(decomposition: TrancheDecomposition, x: float) -> np.ndarray:
    """Route one realized loss to its tranche: one entry equals x, the rest 0."""
    x = float(x)
    cuts = decomposition.partition.cuts
    if not 0.0 <= x <= cuts[-1]:
        raise OutOfSupport(f"realization {x} lies outside [0, {cuts[-1]}]")
    n = decomposition.partition.n_tranches
    idx = int(np.searchsorted(cuts, x, side="right")) - 1
    if idx >= n:
        idx = n - 1
    out = np.zeros(n)
    out[idx] = x
    return out


def randomized_assign(scheme: RandomizedScheme, losses) -> np.ndarray:
    """Draw the subsidiary that bears each realized loss.

    Returns one unit index in ``0..N-1`` per loss. Unit j loses ``losses[i]``
    in trial i when ``idx[i] == j`` and nothing otherwise, so the units'
    losses sum back to the input bitwise.
    """
    rng = np.random.default_rng(scheme.seed)
    return rng.integers(0, scheme.subsidiaries, size=np.size(losses))


def validate_scheme(scheme: RandomizedScheme, level: RiskLevel | float) -> SchemeValidity:
    """Check the strict activation bound 1/N < 1 - alpha."""
    alpha = as_level(level).alpha
    activation = 1.0 / scheme.subsidiaries
    ok = _mass_ok(activation, alpha)
    return SchemeValidity(
        ok=ok,
        activation_probability=activation,
        tail_budget=1.0 - alpha,
        worst_var_fraction=0.0 if ok else 1.0,
    )


def randomized_unit_var(model: LossModel, subsidiaries: int, level: RiskLevel | float) -> float:
    """Strict quantile of one subsidiary's loss under uniform random routing.

    The unit loss is X when the unit is drawn (probability 1/N) and zero
    otherwise, so its quantile is a rescaled whole-book quantile once the
    activation probability eats into the tail budget.
    """
    _require_units(subsidiaries)
    alpha = as_level(level).alpha
    if _mass_ok(1.0 / subsidiaries, alpha):
        return 0.0
    p = 1.0 - subsidiaries * (1.0 - alpha)
    if p <= 0.0:
        return model.law.lower
    return quantile_strict(model, p)


def randomized_unit_es(model: LossModel, subsidiaries: int, level: RiskLevel | float) -> float:
    """Expected shortfall of one subsidiary's loss under uniform routing."""
    _require_units(subsidiaries)
    alpha = as_level(level).alpha
    w0 = max(0.0, 1.0 - subsidiaries * (1.0 - alpha))
    return tail_integral(model, w0) / (subsidiaries * (1.0 - alpha))
