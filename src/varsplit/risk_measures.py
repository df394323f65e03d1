"""Quantile-based capital measures under the strict-inequality convention.

``var`` is the strict quantile of the loss law and is what a scenario-count
capital rule charges. ``expected_shortfall`` averages the quantile over the
upper tail and is the coherent comparison point: splitting a loss across
tranches can zero out summed ``var`` but never pushes summed ``expected_
shortfall`` below the whole-book value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidLevel
from .loss_model import Interval, LossModel, intervals_from_cuts, quantile_strict


@dataclass(frozen=True)
class RiskLevel:
    """Confidence level alpha, strictly between 0 and 1."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and 0.0 < a < 1.0):
            raise InvalidLevel(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        object.__setattr__(self, "alpha", a)


def as_level(level: RiskLevel | float) -> RiskLevel:
    """Coerce a bare float to a validated RiskLevel."""
    if isinstance(level, RiskLevel):
        return level
    return RiskLevel(float(level))


def var(model: LossModel, level: RiskLevel | float) -> float:
    """Value of the strict quantile at the requested level."""
    return quantile_strict(model, as_level(level).alpha)


def tail_integral(model: LossModel, p: float) -> float:
    """Integral of the strict quantile over the probability slab (p, 1).

    ``p`` may be 0, in which case this is the model mean.
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise InvalidLevel(f"tail integral needs p in [0, 1), got {p}")
    return model.law.mean_tail(p)


def expected_shortfall(model: LossModel, level: RiskLevel | float) -> float:
    """Average of the strict quantile over the upper tail (alpha, 1)."""
    return model.law.es(as_level(level).alpha)


def var_of_tranche(model: LossModel, iv: Interval, level: RiskLevel | float) -> float:
    """Strict quantile of the tranche loss X * 1{X in iv}, in closed form.

    Writing q for the probability that the tranche is hit with a positive
    loss, the tranche quantile is 0 whenever 1 - q > alpha; otherwise it is
    the smallest x in iv with (1 - q) + P(X in iv, 0 < X <= x) > alpha.
    """
    law = model.law
    return law.unit_var(*law.span(iv), as_level(level).alpha)


def es_of_tranche(model: LossModel, iv: Interval, level: RiskLevel | float) -> float:
    """Expected shortfall of the tranche loss X * 1{X in iv}.

    A tranche that spans the whole support is the whole book, so it reads
    :func:`expected_shortfall`'s closed form, which the uniform tranche
    formula does not reproduce to the last bit.
    """
    alpha = as_level(level).alpha
    law = model.law
    span = law.span(iv)
    if span == law.whole:
        return law.es(alpha)
    return law.tail(*span, alpha) / (1.0 - alpha)


def additivity_gap(model: LossModel, partition, level: RiskLevel | float) -> float:
    """Sum of tranche quantiles minus the whole-book quantile.

    ``partition`` is anything exposing increasing ``cuts`` (or a bare cut
    sequence). A negative gap is the arbitrage: the parts are charged less
    than the whole.
    """
    lvl = as_level(level)
    cuts = getattr(partition, "cuts", partition)
    pieces = [var_of_tranche(model, iv, lvl) for iv in intervals_from_cuts(cuts)]
    return sum(pieces) - var(model, lvl)
