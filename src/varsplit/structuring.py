"""Tranche partitions and randomized subsidiary schemes.

Both constructions aim at the same effect: give every unit a probability of
positive loss strictly below ``1 - alpha``, so the strict quantile of each
unit is zero even though the whole book is fully covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtomTooHeavy, InvalidBounds, NInsufficient, PartitionMismatch
from .loss_model import (
    LossModel,
    UniformLaw,
    _SEED,
    _require_int,
    level_weight,
    mass_in,  # unused here; perfbench/tracing.py wraps it
    quantile_strict,
)
from .risk_measures import (
    RiskLevel,
    as_level,
    tail_integral,
    var,
    var_of_tranche,  # unused here; perfbench/tracing.py wraps it
)


_SUBSIDIARIES = "need at least one subsidiary, as an integer"


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


@dataclass(frozen=True, eq=False)
class TrancheDecomposition:
    """A partition applied to a model: per-tranche masses, quantiles and ES."""

    model: LossModel
    partition: Partition
    masses: np.ndarray
    tranche_vars: np.ndarray
    tranche_es: np.ndarray

    @property
    def total_capital(self) -> float:
        """Summed tranche VaR, added in tranche order as the CLI report adds it."""
        return sum(self.tranche_vars.tolist())


@dataclass(frozen=True)
class RandomizedScheme:
    """N subsidiaries, one of which is drawn uniformly to bear each loss."""

    subsidiaries: int
    seed: int

    def __post_init__(self):
        units = _require_int(self.subsidiaries, 1, _SUBSIDIARIES)
        object.__setattr__(self, "subsidiaries", units)
        object.__setattr__(self, "seed", _require_int(self.seed, 0, _SEED))


def min_subsidiaries(level: RiskLevel | float) -> int:
    """Smallest N whose units can each stay strictly below mass 1 - alpha.

    Masses summing to one force N * (1 - alpha) > 1, so this is
    ``floor(1 / (1 - alpha)) + 1`` in exact arithmetic. In floats it is the
    smallest N passing ``_mass_ok(1 / N, alpha)``, which is monotone in N,
    found by doubling and bisecting. Once ``level_weight(alpha, 1)`` reaches
    1 no N passes, and this raises :class:`NInsufficient`.
    """
    alpha = as_level(level).alpha
    if level_weight(alpha, 1.0) >= 1.0:
        raise NInsufficient(f"no unit count keeps each mass below 1 - alpha = {1.0 - alpha}")
    lo, hi = 1, 2  # a single unit always fails
    while not _mass_ok(1.0 / hi, alpha):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _mass_ok(1.0 / mid, alpha) else (mid, hi)
    return hi


def build_partition(model: LossModel, level: RiskLevel | float, n: int | None = None) -> Partition:
    """Partition the support so every tranche mass is strictly below 1 - alpha.

    ``n`` must be an integer; omitted, the minimal feasible count is used.
    Continuous models get equal-mass quantile cuts. Discrete ones are packed
    greedily, each group to its last free end that :meth:`DiscreteLaw.cut_at`
    can cut, and the leftmost widest group is halved until there are ``n`` or
    none can be, then slivers above the first atom fill n.
    """
    lvl = as_level(level)
    alpha = lvl.alpha
    if n is not None:
        n = _require_int(n, 1, "tranche count must be an integer >= 1", NInsufficient)
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

    import heapq  # here, so `import varsplit` does not load it

    law = model.law
    vals = law.values
    m = vals.size
    _, reach = law.groups(alpha)
    uncut = m > 1 and math.isnan(law.cut_at(m - 1))  # no float cut parts the top pair
    heap, start = [], 0  # groups as (-width, start): the top is the leftmost widest
    while start < m:  # the fewest groups, each to its last free end with a cut
        end = int(reach[start]) - 1
        if end == m - 1 and uncut and reach[m - 2] > m:
            end = m - 2  # the top pair is free, and no cut parts it
        if end == start:  # the atom that starts this group is not free alone
            heaviest = float(np.max(law.weights)) / law.total
            raise AtomTooHeavy(
                f"an atom of mass {heaviest} can never sit strictly below "
                f"1 - alpha = {1.0 - alpha}"
            )
        heap.append((start - end, start))
        start = end
    if n is None:
        n = len(heap)
    if n < len(heap):
        raise NInsufficient(
            f"{n} tranches cannot satisfy the mass bound; need >= {len(heap)}"
        )
    heapq.heapify(heap)
    while len(heap) < n:
        w, start = -heap[0][0], heap[0][1]  # the leftmost of the widest groups
        if w == 1 or (uncut and start + w // 2 == m - 1):
            break  # single atoms, or the top pair that no cut parts
        heapq.heapreplace(heap, (-(w // 2), start))
        heapq.heappush(heap, (w // 2 - w, start + w // 2))
    ends = sorted([start - neg for neg, start in heap])
    cuts = [0.0, *law.cut_at(ends[:-1]).tolist(), law.upper]
    if math.isnan(cuts[-2]):
        raise InvalidBounds(
            f"no float cut separates {float(vals[-2])!r} from {law.upper!r}, the top loss"
        )
    extra = n - len(ends)
    if extra > 0:
        # No group can be halved; spend the leftover tranche budget on
        # empty slivers between the first atom and the first cut above it.
        # A sliver may land on the first atom when it is above 0; the cuts
        # from 0 up to the first cut must still rise strictly.
        lo, hi = float(vals[0]), cuts[1]
        slivers = np.linspace(lo, hi, extra + 2)[1:-1].tolist()
        if not all(a < b for a, b in zip([0.0, *slivers], [*slivers, hi])):
            raise NInsufficient(
                f"cannot make {n} tranches: {extra} empty ones do not fit "
                f"between {lo!r} and {hi!r} as distinct float cuts"
            )
        cuts = [cuts[0], *slivers, *cuts[1:]]
    return Partition(tuple(cuts))


def decompose(model: LossModel, partition: Partition, level: RiskLevel | float) -> TrancheDecomposition:
    """Price every tranche in one ``price`` call of the law: its mass, strict quantile and ES.

    A partition from 0 to ``max_loss`` covers the support, so the masses are
    not checked to sum to 1, which atoms need only within ``PROB_TOL``.
    """
    alpha = as_level(level).alpha
    cuts = partition.cuts
    if cuts[-1] != model.max_loss:
        raise PartitionMismatch(
            f"partition ends at {cuts[-1]} but the support ends at {model.max_loss}"
        )
    table = np.array(model.law.price(cuts, alpha))
    table.flags.writeable = False
    return TrancheDecomposition(model, partition, *table)


def additivity_gap(model: LossModel, partition, level: RiskLevel | float) -> float:
    """Summed tranche VaR of :func:`decompose` minus the whole-book VaR.

    ``partition`` is a :class:`Partition` or its bare cuts, which must run
    from 0 to the top of the support. A negative gap is the arbitrage: the
    parts are charged less than the whole.
    """
    lvl = as_level(level)
    dec = decompose(model, Partition(getattr(partition, "cuts", partition)), lvl)
    return dec.total_capital - var(model, lvl)


def randomized_assign(scheme: RandomizedScheme, losses) -> np.ndarray:
    """Draw the subsidiary that bears each realized loss.

    Returns one unit index in ``0..N-1`` per loss. Unit j loses ``losses[i]``
    in trial i when ``idx[i] == j`` and nothing otherwise, so the units'
    losses sum back to the input bitwise.
    """
    rng = np.random.default_rng(scheme.seed)
    return rng.integers(0, scheme.subsidiaries, size=np.size(losses))


def randomized_unit_var(model: LossModel, subsidiaries: int, level: RiskLevel | float) -> float:
    """Strict quantile of one subsidiary's loss under uniform random routing.

    The unit loss is X when the unit is drawn (probability 1/N) and zero
    otherwise, so its quantile is a rescaled whole-book quantile once the
    activation probability eats into the tail budget.
    """
    subsidiaries = _require_int(subsidiaries, 1, _SUBSIDIARIES)
    alpha = as_level(level).alpha
    if _mass_ok(1.0 / subsidiaries, alpha):
        return 0.0
    p = 1.0 - subsidiaries * (1.0 - alpha)
    if p <= 0.0:
        return model.law.lower
    return quantile_strict(model, p)


def randomized_unit_es(model: LossModel, subsidiaries: int, level: RiskLevel | float) -> float:
    """Expected shortfall of one subsidiary's loss under uniform routing."""
    subsidiaries = _require_int(subsidiaries, 1, _SUBSIDIARIES)
    alpha = as_level(level).alpha
    w0 = max(0.0, 1.0 - subsidiaries * (1.0 - alpha))
    return tail_integral(model, w0) / (subsidiaries * (1.0 - alpha))
