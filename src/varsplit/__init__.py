"""Tranche and subsidiary structuring under quantile-based capital rules.

The library models a bounded nonnegative loss, prices it under a strict
quantile rule and under expected shortfall, and builds the two constructions
that drive summed quantile capital to zero: interval tranches and randomized
subsidiary assignment. A small solver finds the cheapest tranche structure
when the number of units is capped or penalized, and the CLI wraps the whole
pipeline with seeded Monte Carlo verification. The CLI is imported from
:mod:`varsplit.cli`, never from here, so ``python -m varsplit.cli`` runs a
single copy of that module.
"""

from .capital_solver import (
    OverheadSchedule,
    SolveResult,
    solve_tranche_dp,
    solve_with_overhead,
)
from .errors import (
    AtomTooHeavy,
    CsvFormatError,
    EmptySupport,
    InvalidBounds,
    InvalidLevel,
    NInsufficient,
    NegativeLoss,
    PartitionMismatch,
    ProbsNotNormalized,
    VarsplitError,
)
from .loss_model import (
    MASS_GUARD,
    Interval,
    LossModel,
    atoms,
    build_model,
    cdf,
    empirical,
    intervals_from_cuts,
    load_losses_csv,
    mass_in,
    order_stat_rank,
    quantile_strict,
    sample,
    uniform,
)
from .risk_measures import (
    RiskLevel,
    as_level,
    es_of_tranche,
    expected_shortfall,
    tail_integral,
    var,
    var_of_tranche,
)
from .structuring import (
    Partition,
    RandomizedScheme,
    TrancheDecomposition,
    additivity_gap,
    build_partition,
    decompose,
    min_subsidiaries,
    randomized_assign,
    randomized_unit_es,
    randomized_unit_var,
)

__version__ = "0.1.0"
