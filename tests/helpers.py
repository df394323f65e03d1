"""Deterministic builders shared across the test modules.

Everything here takes an explicit ``numpy.random.Generator`` (or returns a
fixed object), so each test freezes its own draws and reruns are bitwise
stable.  The dyadic constructions are deliberate: weights and masses that
are integer multiples of a power of two keep every product and partial sum
exact in binary floating point, which is what lets the additivity and
solver-agreement suites assert exact equality instead of tolerances.

``brute_force_oracle`` is the exhaustive reference the solver suites check
the dynamic program against, and ``csv_rows_oracle`` the row-by-row CSV
reader the ingest suite checks ``load_losses_csv`` against.
"""

import csv
import itertools
import math
from pathlib import Path

import numpy as np

from varsplit import (
    CsvFormatError,
    EmptySupport,
    InvalidBounds,
    LossModel,
    NegativeLoss,
    RiskLevel,
    TooManyAtoms,
    as_level,
    atoms,
    empirical,
)

#: Largest support the exhaustive oracle will enumerate.
MAX_ORACLE_ATOMS = 12


def dyadic_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    """k strictly positive weights summing to exactly 1.0.

    Each weight is m/8192 for an integer m >= 1, so the weights themselves,
    their products with grid-valued losses, and all partial sums stay exact.
    """
    counts = rng.multinomial(8192 - k, np.full(k, 1.0 / k)) + 1
    return counts / 8192.0


def grid_uniform_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws from uniform(0, 1) snapped to the 2**-20 grid."""
    return np.floor(rng.random(n) * 2.0**20) / 2.0**20


def integer_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer-valued losses in 0..49, exact as floats."""
    return rng.integers(0, 50, size=n).astype(float)


def random_dyadic_atoms(rng: np.random.Generator, max_atoms: int = 8) -> LossModel:
    """Small atomic model with integer values and masses on the 1/256 grid.

    Integer values and dyadic masses make every cumulative mass exact, so
    the solver and the enumeration oracle see identical group feasibility
    decisions and their capitals must agree exactly, not approximately.
    """
    m = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.choice(101, size=m, replace=False)).astype(float)
    counts = rng.multinomial(256 - m, np.full(m, 1.0 / m)) + 1
    return atoms(values, counts / 256.0)


def near_uniform_500_atoms() -> LossModel:
    """500-point discretization of uniform(0, 1) with masses on the 1/512 grid.

    The first 12 atoms carry 2/512 and the rest 1/512.  Any consecutive run
    of 25 atoms then weighs at least 25/512 > 0.048, comfortably clear of
    the 0.05 tail budget in exact arithmetic, so the minimal zero-capital
    grouping needs ceil(512/25) = 21 desks and no float rounding can sneak
    a 20-desk split past the mass check.  The 0.95-quantile still lands on
    the atom at 0.95 exactly.
    """
    values = np.arange(1, 501) / 500.0
    masses = np.concatenate([np.full(12, 2.0 / 512.0), np.full(488, 1.0 / 512.0)])
    return atoms(values, masses)


def brute_force_oracle(model: LossModel, level: RiskLevel | float, n: int) -> float:
    """Minimal capital over at most n contiguous groups, by full enumeration.

    Exponential in the atom count, so capped hard; meant as an independent
    check on the dynamic program, not for production use. Groups are priced
    by :meth:`DiscreteLaw.unit_var`, the rule every tranche quantile uses.
    """
    alpha = as_level(level).alpha
    law = model.law
    if law is None:
        raise InvalidBounds("the oracle enumerates explicit atom lists only")
    m = law.values.size
    if m > MAX_ORACLE_ATOMS:
        raise TooManyAtoms(f"{m} atoms exceed the oracle bound {MAX_ORACLE_ATOMS}")
    if n < 1:
        raise InvalidBounds(f"need at least one group, got {n}")
    best = np.inf
    for r in range(1, min(n, m) + 1):
        for inner in itertools.combinations(range(1, m), r - 1):
            bounds = (0, *inner, m)
            total = 0.0
            for a, b in zip(bounds, bounds[1:]):
                total += law.unit_var(a, b, alpha)
            if total < best:
                best = total
    return float(best)


def csv_rows_oracle(path) -> LossModel:
    """A loss CSV read one csv record at a time, naming the first bad row.

    Independent of the fast line parser in ``load_losses_csv``: every record
    goes through ``csv.reader``, ``str.strip`` and ``float`` in Python.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty, expected header 'loss'")
        if len(header) != 1 or header[0].strip().lstrip("\ufeff") != "loss":
            raise CsvFormatError(f"{path}: header must be 'loss', got {header!r}")
        losses = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1:
                raise CsvFormatError(
                    f"{path}: row {lineno}: expected one column, got {len(row)}"
                )
            text = row[0].strip()
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(f"{path}: row {lineno}: not a number: {text!r}")
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}: row {lineno}: non-finite loss {text!r}")
            if value < 0.0:
                raise NegativeLoss(f"{path}: row {lineno}: negative loss {value}")
            losses.append(value)
    if not losses:
        raise EmptySupport(f"{path}: no loss rows found")
    return empirical(losses)
