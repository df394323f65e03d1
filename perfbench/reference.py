"""References for varsplit reports, computed apart from the program.

Every discrete law here is held as distinct values with integer weights, and
every level alpha as an exact fraction, so each quantile decision is an
integer comparison: the strict quantile inf {x : F(x) > alpha} is the first
value whose cumulative weight c satisfies c * den > num * W. For empirical
books the weights are sample counts, and that rule is the order statistic
of rank floor(n * alpha) + 1. Expected shortfall is a finite sum taken with
math.fsum and compared with a relative tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REPORT_KEYS = (
    "alpha", "model", "n_units", "cuts", "tranches", "var_total", "es_total",
    "sum_tranche_vars", "sum_tranche_es", "additivity_gap", "trials", "seed",
    "restriction_note",
)
ROW_KEYS = ("mass", "var_analytic", "var_empirical", "es_analytic")

#: Relative tolerance for quantities the program sums in floating point
#: (ES integrals, masses summed from decimal probabilities).
REL_TOL = 1e-9
#: Largest accepted chance that a Monte Carlo unit's empirical VaR is nonzero
#: by bad luck, per report.
MC_TAIL = 1e-6


def level(text: str) -> Fraction:
    """Exact alpha from the decimal text passed on the command line."""
    return Fraction(text)


def rank(n: int, alpha: Fraction) -> int:
    """1-based order-statistic rank of the strict quantile, in exact arithmetic."""
    return min(n, math.floor(n * alpha) + 1)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class DiscreteLaw:
    """Distinct nondecreasing values with positive integer weights."""

    def __init__(self, texts, weights):
        self.texts = list(texts)
        self.values = np.array([float(t) for t in self.texts])
        self.weights = np.asarray(weights, dtype=np.int64)
        if np.any(self.weights <= 0) or np.any(np.diff(self.values) <= 0):
            raise ValueError("a law needs increasing values and positive weights")
        self.cum = np.concatenate(([0], np.cumsum(self.weights)))
        self.total = int(self.cum[-1])

    @property
    def max_loss(self) -> float:
        return float(self.values[-1])

    def with_zero_mass(self, units: int) -> "DiscreteLaw":
        """Law of one of ``units`` randomized subsidiaries: X w.p. 1/units, else 0."""
        zero = (units - 1) * self.total
        return DiscreteLaw(["0"] + self.texts, np.concatenate(([zero], self.weights)))

    def span(self, lo: float, hi: float, closed: bool) -> tuple[int, int]:
        """Index range of the values inside [lo, hi), or [lo, hi] when closed."""
        a = int(np.searchsorted(self.values, lo, side="left"))
        b = int(np.searchsorted(self.values, hi, side="right" if closed else "left"))
        return a, max(a, b)

    def _positive(self, a: int) -> int:
        """First index at or after a whose value is above 0."""
        return max(a, int(np.searchsorted(self.values, 0.0, side="right")))

    def tranche_var(self, a: int, b: int, alpha: Fraction) -> float:
        """Strict quantile of X * 1{X among values[a:b]}."""
        a = self._positive(a)
        if a >= b:
            return 0.0
        num, den = alpha.numerator, alpha.denominator
        base = self.total - int(self.cum[b] - self.cum[a])
        reach = base + (self.cum[a + 1 : b + 1] - self.cum[a])
        if base * den > num * self.total:
            return 0.0
        j = int(np.searchsorted(reach * den, num * self.total, side="right"))
        return float(self.values[a + j])

    def tranche_es(self, a: int, b: int, alpha: Fraction) -> float:
        """Expected shortfall of X * 1{X among values[a:b]}."""
        a = self._positive(a)
        if a >= b:
            return 0.0
        num, den = alpha.numerator, alpha.denominator
        base = self.total - int(self.cum[b] - self.cum[a])
        lo = (base + self.cum[a:b] - self.cum[a]) * den
        hi = (base + self.cum[a + 1 : b + 1] - self.cum[a]) * den
        overlap = np.clip(hi - np.maximum(lo, num * self.total), 0, None)
        integral = math.fsum(float(v) * int(w) for v, w in zip(self.values[a:b], overlap))
        return integral / (self.total * (den - num))

    def quantile(self, alpha: Fraction) -> float:
        return self.tranche_var(0, self.values.size, alpha)

    def es(self, alpha: Fraction) -> float:
        return self.tranche_es(0, self.values.size, alpha)

    def mass(self, a: int, b: int) -> Fraction:
        return Fraction(int(self.cum[b] - self.cum[a]), self.total)


@dataclass(frozen=True)
class UniformLaw:
    """Flat law on [lower, upper], held exactly."""

    lower: Fraction
    upper: Fraction

    @property
    def max_loss(self) -> float:
        return float(self.upper)

    def _piece(self, lo: float, hi: float):
        lo_, hi_ = max(Fraction(lo), self.lower), min(Fraction(hi), self.upper)
        width = self.upper - self.lower
        return lo_, (max(hi_ - lo_, Fraction(0)) / width), width

    def tranche_var(self, lo: float, hi: float, alpha: Fraction) -> float:
        start, q, width = self._piece(lo, hi)
        if q == 0 or 1 - q > alpha:
            return 0.0
        return float(start + (alpha - (1 - q)) * width)

    def tranche_es(self, lo: float, hi: float, alpha: Fraction) -> float:
        start, q, width = self._piece(lo, hi)
        if q == 0:
            return 0.0
        base = 1 - q
        u0 = max(alpha, base)
        integral = start * (1 - u0) + width * (q * q - (u0 - base) ** 2) / 2
        return float(integral / (1 - alpha))

    def quantile(self, alpha: Fraction) -> float:
        return float(self.lower + alpha * (self.upper - self.lower))

    def es(self, alpha: Fraction) -> float:
        return float(self.lower + (self.upper - self.lower) * (1 + alpha) / 2)

    def mass(self, lo: float, hi: float) -> Fraction:
        return self._piece(lo, hi)[1]


def chernoff_tail(trials: int, q: Fraction | float, above: int) -> float:
    """Upper bound on P(Binomial(trials, q) > above), by the Chernoff bound."""
    x = (above + 1) / trials
    q = float(q)
    if q <= 0.0:
        return 0.0
    if x <= q:
        return 1.0
    if x >= 1.0:
        return q**trials
    kl = x * math.log(x / q) + (1 - x) * math.log((1 - x) / (1 - q))
    return math.exp(-trials * kl)


def mc_threshold(trials: int, alpha: Fraction) -> int:
    """Most hits a unit may take while its empirical VaR stays 0."""
    return trials - rank(trials, alpha)


@dataclass
class Case:
    """One command line of a workload and what its report must satisfy.

    ``shape`` is ``whole`` (var, es), ``tranche`` (decompose, simulate,
    solve) or ``randomized``. Optional expectations: ``units`` is the
    required ``n_units``; ``sum_vars`` the required summed tranche VaR;
    ``below_budget`` requires every tranche's exact mass to stay below
    1 - alpha; ``mc`` requires every empirical VaR to be 0 and the units to
    be sized so that this holds except with chance below ``MC_TAIL``.
    """

    argv: list[str]
    law: DiscreteLaw | UniformLaw
    alpha: str
    seed: int
    shape: str
    trials: int = 0
    units: int | None = None
    sum_vars: float | None = None
    below_budget: bool = False
    mc: bool = False
    model_prefix: str = ""

    @property
    def action(self) -> str:
        return self.argv[0]


def _tranche_refs(case: Case, cuts, alpha: Fraction):
    """(mass, var, es) references for each tranche given by the report's cuts."""
    law = case.law
    last = len(cuts) - 2
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        closed = k == last
        if isinstance(law, DiscreteLaw):
            a, b = law.span(lo, hi, closed)
            yield law.mass(a, b), law.tranche_var(a, b, alpha), law.tranche_es(a, b, alpha)
        else:
            yield law.mass(lo, hi), law.tranche_var(lo, hi, alpha), law.tranche_es(lo, hi, alpha)


def check_report(case: Case, text: str) -> list[str]:
    """Every way the report breaks its references; empty when it is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(doc, dict) or tuple(doc) != REPORT_KEYS:
        return [f"report keys {list(doc) if isinstance(doc, dict) else doc!r} "
                f"differ from {list(REPORT_KEYS)}"]
    errs = []

    def need(ok: bool, what: str):
        if not ok:
            errs.append(what)

    alpha = level(case.alpha)
    rows = doc["tranches"]
    if not isinstance(rows, list) or any(
        not isinstance(r, dict) or tuple(r) != ROW_KEYS for r in rows
    ):
        return ["tranche rows are malformed or keyed out of order"]
    need(doc["alpha"] == float(case.alpha), f"alpha {doc['alpha']} != {case.alpha}")
    need(doc["seed"] == case.seed, f"seed {doc['seed']} != {case.seed}")
    need(doc["trials"] == case.trials, f"trials {doc['trials']} != {case.trials}")
    need(str(doc["model"]).startswith(case.model_prefix),
         f"model {str(doc['model'])[:40]!r} lacks prefix {case.model_prefix!r}")
    need(isinstance(doc["restriction_note"], str) and doc["restriction_note"] != "",
         "restriction note missing")
    n_units = doc["n_units"]
    need(n_units == len(rows), f"n_units {n_units} != {len(rows)} rows")
    if case.units is not None:
        need(n_units == case.units, f"n_units {n_units} != expected {case.units}")

    masses = [r["mass"] for r in rows]
    need(abs(math.fsum(masses) - 1.0) <= REL_TOL, f"masses sum to {math.fsum(masses)!r}")
    vars_ = [r["var_analytic"] for r in rows]
    need(doc["sum_tranche_vars"] == sum(vars_), "sum_tranche_vars != sum of rows")
    need(close(doc["sum_tranche_es"], math.fsum(r["es_analytic"] for r in rows)),
         "sum_tranche_es != sum of rows")
    need(doc["additivity_gap"] == doc["sum_tranche_vars"] - doc["var_total"],
         "additivity_gap != sum_tranche_vars - var_total")
    need(doc["sum_tranche_es"] >= doc["es_total"] - REL_TOL * max(1.0, doc["es_total"]),
         f"sum_tranche_es {doc['sum_tranche_es']} < es_total {doc['es_total']}")
    exact = isinstance(case.law, DiscreteLaw)
    ref_var = case.law.quantile(alpha)
    need(doc["var_total"] == ref_var if exact else close(doc["var_total"], ref_var, 1e-12),
         f"var_total {doc['var_total']} != reference {ref_var}")
    ref_es = case.law.es(alpha)
    need(close(doc["es_total"], ref_es), f"es_total {doc['es_total']} != reference {ref_es}")
    if case.sum_vars is not None:
        need(doc["sum_tranche_vars"] == case.sum_vars,
             f"sum_tranche_vars {doc['sum_tranche_vars']} != expected {case.sum_vars}")

    if case.shape == "randomized":
        need(doc["cuts"] == [], "randomized report carries cuts")
        units = max(n_units, 1)
        unit = case.law.with_zero_mass(units)
        active = Fraction(unit.total - int(unit.weights[0]), unit.total)
        refs = [(active, unit.quantile(alpha), unit.es(alpha))] * len(rows)
    else:
        cuts = doc["cuts"]
        ok = (
            len(cuts) == n_units + 1 and n_units >= 1 and cuts[0] == 0.0
            and cuts[-1] == case.law.max_loss
            and all(b > a for a, b in zip(cuts, cuts[1:]))
        )
        need(ok, "cuts do not run strictly upward from 0 to the top of the support")
        if not ok:
            return errs
        if case.shape == "whole":
            need(n_units == 1, "whole-book report has more than one unit")
        refs = list(_tranche_refs(case, cuts, alpha))

    budget = 1 - alpha
    hits = mc_threshold(case.trials, alpha) if case.mc else 0
    tail = 0.0
    for k, (row, (mass, v, es)) in enumerate(zip(rows, refs)):
        need(close(row["mass"], float(mass)), f"unit {k}: mass {row['mass']} != reference {float(mass)}")
        need(row["var_analytic"] == v if exact else close(row["var_analytic"], v, 1e-12),
             f"unit {k}: var_analytic {row['var_analytic']} != reference {v}")
        need(close(row["es_analytic"], es), f"unit {k}: es_analytic {row['es_analytic']} != {es}")
        if case.below_budget:
            need(mass < budget, f"unit {k}: mass {float(mass)} not below 1 - alpha")
        if case.mc:
            need(row["var_empirical"] == 0.0, f"unit {k}: var_empirical {row['var_empirical']} != 0")
            tail += chernoff_tail(case.trials, mass, hits)
        else:
            need(row["var_empirical"] is None, f"unit {k}: unexpected var_empirical")
    if case.mc:
        need(tail < MC_TAIL, f"units too heavy for {case.trials} trials: tail bound {tail:.3g}")
    return errs


def judge(case: Case, code: int, text: str) -> str | None:
    """Why one command counts as failed (nonzero exit or wrong report), or None."""
    if code != 0:
        return f"{case.action} exited {code}"
    try:
        errs = check_report(case, text)
    except (TypeError, KeyError, IndexError, ValueError, AttributeError) as exc:
        errs = [f"malformed report field: {exc!r}"]
    return f"{case.action} report wrong: {errs[0]}" if errs else None
