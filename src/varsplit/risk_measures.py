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
from .loss_model import Interval, LossModel, quantile_strict


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
    """Average of the strict quantile over the upper tail (alpha, 1): the ES of
    the one tranche that holds the whole support."""
    return float(model.law.price((0.0, model.max_loss), as_level(level).alpha)[2][0])


def var_of_tranche(model: LossModel, iv: Interval, level: RiskLevel | float) -> float:
    """Strict quantile of the tranche loss X * 1{X in iv}, in closed form.

    Writing q for the probability that the tranche is hit with a positive
    loss, the tranche quantile is 0 whenever 1 - q > alpha; otherwise it is
    the smallest x in iv with (1 - q) + P(X in iv, 0 < X <= x) > alpha.
    """
    return float(model.law.price((iv.lo, iv.hi), as_level(level).alpha, iv.closed_hi)[1][0])


def es_of_tranche(model: LossModel, iv: Interval, level: RiskLevel | float) -> float:
    """Expected shortfall of the tranche loss X * 1{X in iv}.

    A tranche that spans the whole support is the whole book, so it costs
    exactly :func:`expected_shortfall`.
    """
    return float(model.law.price((iv.lo, iv.hi), as_level(level).alpha, iv.closed_hi)[2][0])
