"""Quantile-based capital measures under the strict-inequality convention.

``var`` is the strict quantile of the loss law and is what a scenario-count
capital rule charges. ``expected_shortfall`` averages the quantile over the
upper tail and is the coherent comparison point: splitting a loss across
tranches can zero out summed ``var`` but never pushes summed ``expected_
shortfall`` below the whole-book value.
"""

from __future__ import annotations

import math

from .errors import InvalidLevel
from .loss_model import Interval, LossModel


def _alpha(level: float) -> float:
    """The level as a float strictly between 0 and 1; else :class:`InvalidLevel`."""
    a = float(level)
    if not (math.isfinite(a) and 0.0 < a < 1.0):
        raise InvalidLevel(f"alpha must lie strictly between 0 and 1, got {a}")
    return a


def var(model: LossModel, level: float) -> float:
    """Strict-inequality quantile ``inf {x : cdf(x) > alpha}`` at the level.

    For the empirical variant this is the order statistic of rank
    :func:`order_stat_rank`.
    """
    return float(model.law.unit_var(*model.law.whole, _alpha(level)))


def expected_shortfall(model: LossModel, level: float) -> float:
    """Average of the strict quantile over the upper tail (alpha, 1): the ES of
    the one tranche that holds the whole support."""
    return float(model.law.price((0.0, model.max_loss), _alpha(level))[2][0])


def var_of_tranche(model: LossModel, iv: Interval, level: float) -> float:
    """Strict quantile of the tranche loss X * 1{X in iv}, in closed form.

    Writing q for the probability that the tranche is hit with a positive
    loss, the tranche quantile is 0 whenever 1 - q > alpha; otherwise it is
    the smallest x in iv with (1 - q) + P(X in iv, 0 < X <= x) > alpha.
    """
    return float(model.law.price((iv.lo, iv.hi), _alpha(level), iv.closed_hi)[1][0])


def es_of_tranche(model: LossModel, iv: Interval, level: float) -> float:
    """Expected shortfall of the tranche loss X * 1{X in iv}.

    A tranche that spans the whole support is the whole book, so it costs
    exactly :func:`expected_shortfall`.
    """
    return float(model.law.price((iv.lo, iv.hi), _alpha(level), iv.closed_hi)[2][0])
