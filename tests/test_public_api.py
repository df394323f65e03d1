"""The package's public names are a fixed list: one a caller can import from
``varsplit`` is added or retired on purpose, with this list."""

import sys
import types

import varsplit

PUBLIC = [
    "AtomTooHeavy", "CsvFormatError", "EmptySupport", "Interval", "InvalidBounds",
    "InvalidLevel", "LossModel", "MASS_GUARD", "NInsufficient", "NegativeLoss",
    "OverheadSchedule", "Partition", "PartitionMismatch", "ProbsNotNormalized",
    "SolveResult", "VarsplitError", "atoms", "build_model",
    "build_partition", "decompose", "empirical", "es_of_tranche",
    "expected_shortfall", "load_losses_csv", "mass_in",
    "min_subsidiaries", "order_stat_rank", "randomized_assign", "randomized_unit_price",
    "sample", "solve_tranche_dp", "solve_with_overhead", "uniform", "var",
    "var_of_tranche",
]


def test_the_public_names_are_the_pinned_list():
    """Submodules are skipped: importing ``varsplit.cli`` elsewhere adds one."""
    names = sorted(
        name for name, value in vars(varsplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC == sorted(PUBLIC)


def test_each_public_name_resolves():
    """Each name imports, and each class or function is defined in a submodule."""
    for name in PUBLIC:
        obj = getattr(varsplit, name)
        if callable(obj):
            assert obj.__module__.startswith("varsplit."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
