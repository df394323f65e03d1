"""Bounded nonnegative loss distributions and their elementary queries.

Three model variants cover everything the rest of the package needs:

* ``atoms``: a finite discrete law given by strictly increasing values and
  strictly positive probabilities,
* ``empirical``: equally weighted observations, kept as their distinct
  values and counts, so a model holds O(distinct values), not the sample,
* ``uniform``: a flat density on ``[lower, upper]``.

All losses live on ``[0, max_loss]``. Quantiles follow the strict-inequality
convention ``inf {x : P(X <= x) > p}``, which is what makes mass-starved
tranches carry a quantile of exactly zero.

Every model is a law (a :class:`DiscreteLaw` or a :class:`UniformLaw`) and
a report label; each public query below is one call to the law. Every
comparison of a prefix weight with a level goes through :func:`level_weight`,
so both discrete variants decide boundary cases alike.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    EmptySupport,
    InvalidBounds,
    NegativeLoss,
    ProbsNotNormalized,
)

#: Absolute tolerance for "probabilities sum to one".
PROB_TOL = 1e-12

#: Slack on the strict comparison "prefix weight > level". Levels like 0.95
#: are decimal constants whose float image lands a few ulps off the intended
#: value, and atom probabilities carry the same dust; raising every level by
#: this margin puts exact ties, such as a cumulative mass of exactly 0.95 at
#: level 0.95, on the side the strict inequality puts them.
MASS_GUARD = 1e-12

#: The most draws one :func:`sample` call takes, and so the most Monte Carlo
#: trials a command runs. Each trial holds a few trial-length arrays: at the
#: limit a ``randomize`` that sorts its trials takes about 2.3 s and 316 MB
#: peak RSS, and a uniform ``simulate`` 0.4 s and 111 MB, on a 2-core VM. A
#: count past the limit raises :class:`InvalidBounds` before anything is drawn.
MAX_TRIALS = 10_000_000


def _readonly(values) -> np.ndarray:
    """A frozen float copy of ``values``, with any -0.0 turned into +0.0."""
    arr = np.array(values, dtype=float)
    arr += 0.0
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Interval:
    """A slice ``[lo, hi)`` of the loss axis.

    ``closed_hi`` marks the final tranche of a partition, which also absorbs
    ``hi`` itself so that every realization lands in exactly one tranche.
    """

    lo: float
    hi: float
    closed_hi: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidBounds(
                f"interval bounds must be finite, got [{self.lo}, {self.hi})"
            )
        if self.lo < 0.0:
            raise InvalidBounds(f"interval must start at or above 0, got lo={self.lo}")
        if not self.lo < self.hi:
            raise InvalidBounds(f"interval needs lo < hi, got [{self.lo}, {self.hi})")


def _unit_sums(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of each ``x[a[k]:b[k]]`` for consecutive units, each ``a`` the previous
    ``b``; ``np.add.reduceat`` sums each unit alone, whatever units lie beside it."""
    sums, full = np.zeros(a.shape), a < b
    sums[full] = np.add.reduceat(x[a[0] : b[-1]], (a - a[0])[full])
    return sums


def level_weight(p: float, total: float) -> float:
    """The weight a prefix must strictly exceed to pass level ``p`` of ``total``.

    This is the package's one boundary rule: a prefix weight W exceeds level
    p exactly when ``W > level_weight(p, total)``.
    """
    return (p + MASS_GUARD) * total


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Distinct increasing values with positive weights over a common total.

    Atom lists carry their probabilities over a total of 1; empirical data
    carries integer counts over a total of n, so every prefix weight of a
    sample is exact. ``cum[k]`` is the weight of ``values[:k]``; ``cum[0]``
    is 0, no prefix exceeds ``total`` and ``cum[-1]`` is pinned to it, so
    that the top of the support absorbs any rounding dust.
    """

    values: np.ndarray
    weights: np.ndarray
    cum: np.ndarray
    total: float

    @classmethod
    def of(cls, values: np.ndarray, weights: np.ndarray, total: float) -> DiscreteLaw:
        cum = np.concatenate(([0.0], np.cumsum(weights)))
        np.minimum(cum, total, out=cum)
        cum[-1] = total
        return cls(values, weights, _readonly(cum), float(total))

    @property
    def whole(self) -> tuple[int, int]:
        return 0, self.values.size

    @property
    def lower(self) -> float:
        """inf {x : cdf(x) > 0}, the bottom of the support."""
        return float(self.values[0])

    @property
    def upper(self) -> float:
        """The top of the support."""
        return float(self.values[-1])

    def top(self, b, alpha: float):
        """Pricing index of a unit that bears the loss on ``values[a:b]``.

        The unit's loss is 0 with weight ``total - (cum[b] - cum[a])``, so its
        strict quantile at ``alpha`` is 0 when ``a >= top`` and
        ``values[top - 1]`` otherwise, whatever ``a`` is. Accepts an array of
        right edges ``b``.
        """
        thr = self.cum[b] - self.total + level_weight(alpha, self.total)
        return np.minimum(np.searchsorted(self.cum, thr, side="right"), b)

    def groups(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The free-group table ``(price, reach)`` of the atoms at level ``alpha``.

        The group ``values[a:b]`` is free (its unit VaR is 0) exactly when
        ``b < reach[a]``, so ``reach[a]`` is the first end at which the group
        starting at atom a stops being free; a costly group ending at b pays
        ``price[b - 1]``, whatever its start. Both come from one :meth:`top`
        call over every end b.
        """
        m = self.values.size
        tops = self.top(np.arange(1, m + 1), alpha)
        reach = np.searchsorted(tops, np.arange(m), side="right") + 1
        return self.values[np.maximum(tops, 1) - 1], reach

    def cut_at(self, ends) -> np.ndarray:
        """The cut at each group end e, between atoms a = ``values[e - 1]`` and b = ``values[e]``.

        It is their midpoint when that lies strictly between a and the top,
        taken by halves where a + b overflows, else b, which a value on a cut
        routes up into its group. The one end with no cut is m - 1 when b is
        the top and the midpoint rounds onto a or b: NaN there.
        """
        ends = np.asarray(ends, dtype=np.intp)
        a, b = self.values[ends - 1], self.values[ends]
        with np.errstate(over="ignore"):
            mid = (a + b) / 2.0
        mid = np.where(np.isfinite(mid), mid, a / 2.0 + b / 2.0)
        cut = np.where((a < mid) & (mid < self.upper), mid, b)
        return np.where(cut < self.upper, cut, np.nan)

    def unit_var(self, a, b, alpha: float) -> np.ndarray:
        """Strict quantile of X * 1{X among values[a:b]} at level alpha; a and b may be arrays."""
        t = self.top(b, alpha)
        return np.where(a < t, self.values[t - 1], 0.0)

    def tail(self, a, b, p: float) -> np.ndarray:
        """Integral over levels (p, 1) of the quantile of X * 1{X among values[a:b]}.

        ``a`` and ``b`` are one unit's edges or arrays of consecutive units'. The
        tail weight ``(1 - p) * total`` fills from the top atom down, each atom
        taking ``cum[j + 1] - cum[j]`` or what is left, scaled by ``total`` so no
        term exceeds its value, and no BLAS call sums the terms."""
        shape = np.shape(b)
        a, b = np.atleast_1d(a, b)
        first, last = int(a[0]), int(b[-1])
        cum = self.cum[first : last + 1]
        left = (1.0 - p) * self.total - (np.repeat(self.cum[b], b - a) - cum[1:])
        share = np.clip(np.minimum(np.diff(cum), left), 0.0, None) / self.total
        return _unit_sums(self.values[first:last] * share, a - first, b - first).reshape(shape)

    def price(self, cuts, alpha: float, closed: bool = True) -> tuple[np.ndarray, ...]:
        """Mass, VaR and ES at ``alpha`` of each tranche ``[cuts[k], cuts[k + 1])``, the
        last closed when ``closed``, in one array pass over the atoms."""
        edges = np.searchsorted(self.values, cuts)
        edges[-1] = np.searchsorted(self.values, cuts[-1], side="right" if closed else "left")
        a, b = edges[:-1], edges[1:]
        with np.errstate(over="ignore"):  # no unit's ES exceeds the top atom
            es = np.minimum(self.tail(a, b, alpha) / (1.0 - alpha), self.upper)
        return _unit_sums(self.weights, a, b) / self.total, self.unit_var(a, b, alpha), es

    def cdf(self, x: float) -> float:
        return float(self.cum[np.searchsorted(self.values, x, side="right")]) / self.total

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF draws from one uniform stream, never off the support.

        The uniforms are scaled in place, and each draw is gathered back into
        their buffer by its atom index, clamped onto the top atom, so the draw
        peaks at two trial-length arrays: the uniforms and their indices.
        """
        draws = rng.random(n)
        draws *= self.total
        idx = np.searchsorted(self.cum[1:], draws, side="right")
        return self.values.take(idx, mode="clip", out=draws)


@dataclass(frozen=True, eq=False)
class UniformLaw:
    """Flat density on ``[lower, upper]``; a tranche prices its part ``(lo, hi)`` inside it."""

    lower: float
    upper: float

    @property
    def whole(self) -> tuple[float, float]:
        return self.lower, self.upper

    def mass(self, lo, hi) -> np.ndarray:
        return np.where(lo < hi, (hi - lo) / (self.upper - self.lower), 0.0)

    def unit_var(self, lo, hi, alpha) -> np.ndarray:
        """Strict quantile of X * 1{X in [lo, hi)} at level alpha, elementwise: 0 when the
        zero weight ``1 - mass`` passes alpha under :func:`level_weight`, as for atoms."""
        base = 1.0 - self.mass(lo, hi)
        costly = (lo < hi) & (base <= level_weight(alpha, 1.0))
        return np.where(costly, lo + np.maximum(alpha - base, 0.0) * (self.upper - self.lower), 0.0)

    def tail(self, lo, hi, p: float) -> np.ndarray:
        """Integral over levels (p, 1) of the quantile of X * 1{X in [lo, hi)}, elementwise."""
        width = self.upper - self.lower
        q = (hi - lo) / width
        base = 1.0 - q
        u0 = np.maximum(p, base)
        area = lo * (1.0 - u0) + width * (q * q - (u0 - base) * (u0 - base)) / 2.0
        return np.where(lo < hi, area, 0.0)

    def price(self, cuts, alpha: float, closed: bool = True) -> tuple[np.ndarray, ...]:
        """:meth:`DiscreteLaw.price` on the density, each tranche clipped to the
        support; a tranche over the whole support reads the book's closed form."""
        lo, hi = np.maximum(cuts[:-1], self.lower), np.minimum(cuts[1:], self.upper)
        whole = (lo == self.lower) & (hi == self.upper)
        book = self.lower + (self.upper - self.lower) * (1.0 + alpha) / 2.0
        es = np.where(whole, book, self.tail(lo, hi, alpha) / (1.0 - alpha))
        return self.mass(lo, hi), self.unit_var(lo, hi, alpha), es

    def cdf(self, x: float) -> float:
        if self.lower <= x < self.upper:
            return (x - self.lower) / (self.upper - self.lower)
        return 0.0 if x < self.lower else 1.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=n)


def intervals_from_cuts(cuts: Sequence[float]) -> list[Interval]:
    """Turn increasing cut points into consecutive intervals.

    All intervals are half-open except the last, which is closed on the right
    so the top of the support is covered.
    """
    pts = [float(c) for c in cuts]
    if len(pts) < 2:
        raise InvalidBounds("need at least two cut points to form an interval")
    last = len(pts) - 2
    return [
        Interval(pts[k], pts[k + 1], closed_hi=(k == last)) for k in range(len(pts) - 1)
    ]


@dataclass(frozen=True, eq=False)
class LossModel:
    """A bounded loss distribution on ``[0, max_loss]``: its law and its label.

    Instances are immutable and should be built through :func:`atoms`,
    :func:`empirical`, :func:`uniform` or :func:`build_model`, which validate
    their input; ``label`` is the descriptor a report prints.
    """

    #: The law every query delegates to; a :class:`DiscreteLaw` unless uniform.
    law: DiscreteLaw | UniformLaw
    label: str

    @property
    def max_loss(self) -> float:
        return self.law.upper

    # Read-only views that only perfbench/tracing.py reads, until the package traces itself.
    @property
    def kind(self) -> str:
        return self.label.partition(":")[0]

    @property
    def values(self) -> np.ndarray:
        return self.law.values

    @property
    def samples(self) -> np.ndarray:
        return np.repeat(self.law.values, self.law.weights.astype(np.intp))


def atoms(values: Sequence[float], probs: Sequence[float]) -> LossModel:
    """Discrete loss law on strictly increasing nonnegative values."""
    values, probs = _readonly(values), _readonly(probs)
    if values.ndim != 1 or probs.ndim != 1:
        raise InvalidBounds(f"atom values and probs must be 1-D, got {values.shape}, {probs.shape}")
    if values.size == 0:
        raise EmptySupport("atoms model needs at least one support point")
    if values.shape != probs.shape:
        raise InvalidBounds(
            f"values and probs must align, got {values.size} vs {probs.size}"
        )
    if not np.all(np.isfinite(values)):
        raise InvalidBounds("atom values must be finite")
    if np.any(values < 0.0):
        raise NegativeLoss(f"atom values must be >= 0, got min {values.min()}")
    if values.size > 1 and not np.all(np.diff(values) > 0.0):
        raise InvalidBounds("atom values must be strictly increasing")
    if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
        raise ProbsNotNormalized("atom probabilities must be strictly positive")
    total = float(np.sum(probs))
    if abs(total - 1.0) > PROB_TOL:
        raise ProbsNotNormalized(
            f"atom probabilities must sum to 1 within {PROB_TOL}, got {total!r}"
        )
    pairs = ",".join(f"{v}:{p}" for v, p in zip(values.tolist(), probs.tolist()))
    return LossModel(DiscreteLaw.of(values, probs, 1.0), f"atoms:{pairs}")


def empirical(samples: Sequence[float]) -> LossModel:
    """Equally weighted observations; -0.0 counts as +0.0."""
    return _empirical_owned(np.array(samples, dtype=float))


def _empirical_owned(samples: np.ndarray) -> LossModel:
    """:func:`empirical` on a float array the caller hands over; sorts it in place."""
    if samples.ndim != 1:
        raise InvalidBounds(f"samples must be 1-D, got shape {samples.shape}")
    if samples.size == 0:
        raise EmptySupport("empirical model needs at least one sample")
    samples.sort()
    samples += 0.0
    samples.flags.writeable = False
    if not np.all(np.isfinite(samples)):
        raise InvalidBounds("samples must be finite")
    if np.any(samples < 0.0):
        raise NegativeLoss(f"samples must be >= 0, got min {samples.min()}")
    # cum[k] counts the samples below the k-th distinct value, so it is
    # the start index of that value's run; weights are the run lengths.
    fresh = samples[1:] != samples[:-1]
    if fresh.all():
        values, cum = samples.view(), np.arange(samples.size + 1.0)
    else:
        starts = np.flatnonzero(fresh)
        del fresh
        starts += 1
        values = np.empty(starts.size + 1)
        values[0] = samples[0]
        np.take(samples, starts, out=values[1:])
        cum = np.concatenate(([0.0], starts, [samples.size]))
        del starts
    return _empirical_runs(values, cum)


def _empirical_runs(values: np.ndarray, cum: np.ndarray) -> LossModel:
    """The empirical model of a sorted sample given as its runs: ``values[k]``
    fills positions ``cum[k]`` to ``cum[k + 1]``. Takes both arrays as they
    are and freezes them; the caller vouches that they describe a sample."""
    law = DiscreteLaw(values, np.diff(cum), cum, float(cum[-1]))
    for arr in (law.values, law.weights, law.cum):
        arr.flags.writeable = False
    return LossModel(law, f"empirical:n={int(cum[-1])}")


def uniform(lower: float, upper: float) -> LossModel:
    """Flat density on ``[lower, upper]`` with ``0 <= lower < upper``."""
    lo, hi = float(lower) + 0.0, float(upper) + 0.0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidBounds("uniform bounds must be finite")
    if lo < 0.0:
        raise NegativeLoss(f"uniform lower bound must be >= 0, got {lo}")
    if not lo < hi:
        raise InvalidBounds(f"uniform needs lower < upper, got [{lo}, {hi}]")
    return LossModel(UniformLaw(lo, hi), f"uniform:{lo},{hi}")


def build_model(spec: dict) -> LossModel:
    """Build a model from a descriptor dict with a ``kind`` key.

    Accepted shapes: ``{"kind": "atoms", "values": [...], "probs": [...]}``,
    ``{"kind": "empirical", "samples": [...]}`` and
    ``{"kind": "uniform", "lower": a, "upper": b}``.
    """
    kind = spec.get("kind")

    def entry(key: str):
        if key not in spec:
            raise InvalidBounds(f"{kind} model spec is missing {key!r}")
        return spec[key]

    if kind == "atoms":
        return atoms(entry("values"), entry("probs"))
    if kind == "empirical":
        return empirical(entry("samples"))
    if kind == "uniform":
        return uniform(entry("lower"), entry("upper"))
    raise InvalidBounds(f"unknown model kind: {kind!r}")


def order_stat_rank(n: int, p: float) -> int:
    """1-based order-statistic rank backing the strict quantile for samples."""
    return min(n, math.floor(level_weight(p, n)) + 1)


def mass_in(model: LossModel, iv: Interval) -> float:
    """Probability that a loss falls inside ``iv`` under its closure rule. The
    mass is the same at every level, so the one-row ``price`` call uses 0.5."""
    return float(model.law.price((iv.lo, iv.hi), 0.5, iv.closed_hi)[0][0])


_SEED = "seed must be >= 0, as an integer"


def _require_int(value, least: int, what: str, error=InvalidBounds) -> int:
    """``int(value)`` for a non-bool integer >= ``least``; anything else raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{what}, got {value!r}")
    return int(value)


def sample(model: LossModel, seed: int, n: int) -> np.ndarray:
    """Draw ``n <= MAX_TRIALS`` losses; identical (model, seed, n) gives identical output."""
    n = _require_int(n, 1, "sample size must be >= 1, as an integer")
    if n > MAX_TRIALS:
        raise InvalidBounds(f"sample size must be <= {MAX_TRIALS}, got {n}")
    seed = _require_int(seed, 0, _SEED)
    return model.law.sample(np.random.default_rng(seed), n)


def load_losses_csv(path) -> LossModel:
    """Read an empirical model from a single-column UTF-8 CSV.

    The file must carry the header ``loss`` followed by one nonnegative
    decimal per row. Errors name the offending row.

    A file whose every row is a plain number is parsed in one pass by
    numpy's chunked C text reader, which converts each field with the
    routine behind ``float``, so the samples are the same bit for bit.
    Anything else (blank or quoted rows, underscores, non-ASCII digits or
    whitespace, extra columns, bad values, or a name ending in a compression
    suffix) is read again row by row, and that loop alone accepts the file
    or raises the error. A file that is not a regular one, such as a pipe,
    is read by the row loop alone.
    """
    path = Path(path)
    try:
        losses = _parse_lines(path)
        if losses is None:
            losses = _parse_rows(path)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex()
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc.reason} 0x{bad}") from None
    return _empirical_owned(np.asarray(losses, dtype=float))


def _records(path: Path, fh):
    """Numbered csv records; a csv error (a field over the size limit, say)
    is a :class:`CsvFormatError` that names the row it stopped in."""
    reader = csv.reader(fh)
    lineno = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: row {lineno}: {exc}") from None
        yield lineno, row
        lineno += 1


def _read_header(path: Path, fh):
    """Check the ``loss`` header and return the numbered records after it."""
    records = _records(path, fh)
    try:
        _, header = next(records)
    except StopIteration:
        raise CsvFormatError(f"{path}: file is empty, expected header 'loss'")
    if len(header) != 1 or header[0].strip().lstrip("\ufeff") != "loss":
        raise CsvFormatError(f"{path}: header must be 'loss', got {header!r}")
    return records


def _parse_lines(path: Path) -> np.ndarray | None:
    """Every body row through numpy's C text reader in one chunked pass.

    Given a path rather than a handle, ``np.loadtxt`` reads the file in C
    and converts each field with ``PyOS_string_to_double``, as ``float``
    does after stripping whitespace. Returns None unless the row loop would
    accept the file and read the same values: every row is one ASCII field
    that both parse alike (quotes, underscores, non-ASCII text and
    whitespace-only rows make the reader raise), and no row exceeds the csv
    field size limit. A name ending in ``.gz``, ``.bz2``, ``.xz`` or
    ``.lzma`` makes numpy open the file through a decompressor, which fails
    on text (an archive never passes the header check). Any exception or
    warning from the reader means the row loop decides.

    The header and the body are read on separate opens, so only a regular
    file is read here: a pipe gives its bytes once, and the row loop reads
    it on one handle.
    """
    if not path.is_file():
        return None
    with path.open(encoding="utf-8", newline="") as fh:
        _read_header(path, fh)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses = np.loadtxt(
                path, float, delimiter=",", comments=None,
                skiprows=1, encoding="utf-8", ndmin=2,
            )
    except Exception:
        return None
    if losses.shape[1] == 1 and losses.size and np.isfinite(losses).all():
        if not (losses < 0.0).any() and _fields_fit(path):
            return losses.reshape(-1)
    return None


def _fields_fit(path: Path) -> bool:
    """Whether every line is shorter than the csv field size limit.

    A file smaller than the limit holds no such line. Otherwise a run of
    bytes without a line break that reaches the limit covers a whole aligned
    block of half the limit, so it suffices that each block holds one.
    """
    limit = csv.field_size_limit()
    if path.stat().st_size < limit:
        return True
    step = max(limit // 2, 1)
    with path.open("rb") as fh:
        return all(
            len(block) < step or b"\n" in block or b"\r" in block
            for block in iter(lambda: fh.read(step), b"")
        )


def _parse_rows(path: Path) -> list[float]:
    """The row loop: one csv record at a time, naming the first bad row."""
    with path.open(encoding="utf-8", newline="") as fh:
        losses = []
        for lineno, row in _read_header(path, fh):
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
    return losses
