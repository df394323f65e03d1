"""Command-line harness: build a model, run a construction, emit a report.

Every report uses the same schema regardless of subcommand, so downstream
tooling can treat all outputs alike. Analytic quantities come from the
library; empirical per-unit quantiles come from seeded Monte Carlo and are
reproducible byte for byte for a fixed command line.

The ``varsplit`` console script and ``python -m varsplit.cli`` both go
through :func:`run`. It freezes the objects that exist once the imports are
done (modules, functions, numpy's internals), so the garbage collector's
final passes at interpreter exit skip them, then runs :func:`main`. ``main``
itself leaves the collector alone: tests and library callers run it in
their own process, where frozen objects would stay out of collection for
the rest of that process. ``run`` also flushes stdout itself, so a reader
that closes the pipe early gives exit status 1 and one ``error:`` line.

An ``--input`` book is parsed once per file content: :func:`_load_book`
keeps its law in the user's cache directory, and a later command on the
same bytes reads it back instead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capital_solver import OverheadSchedule, solve_with_overhead
from .errors import VarsplitError
from .loss_model import (
    MAX_TRIALS,
    DiscreteLaw,
    LossModel,
    _empirical_runs,
    build_model,
    empirical,  # unused here; perfbench/tracing.py wraps varsplit.cli.empirical
    load_losses_csv,
    order_stat_rank,
    sample,
)
from .risk_measures import _alpha, expected_shortfall, var
from .risk_measures import es_of_tranche  # unused here; perfbench/tracing.py wraps it
from .structuring import (
    MAX_UNITS,
    build_partition,
    decompose,
    min_subsidiaries,
    randomized_assign,
    randomized_unit_price,
)

#: Embedded in every report so no output overstates what was optimized.
RESTRICTION_NOTE = (
    "capital minimization searches the interval-tranche class only; "
    "randomized subsidiary structures are reported separately and the "
    "unrestricted minimum is not claimed"
)


#: The keys of a report row, one row per tranche or subsidiary, in report order.
#: ``var_empirical`` is None when no Monte Carlo ran.
UNIT_COLUMNS = ("mass", "var_analytic", "var_empirical", "es_analytic")


def _row(*values) -> dict:
    return dict(zip(UNIT_COLUMNS, values))


@dataclass(frozen=True)
class CapitalReport:
    """Full outcome of one CLI run, in stable field order."""

    alpha: float
    model: str
    n_units: int
    cuts: tuple[float, ...]
    tranches: tuple[dict, ...]
    var_total: float
    es_total: float
    sum_tranche_vars: float
    sum_tranche_es: float
    additivity_gap: float
    trials: int
    seed: int
    restriction_note: str = RESTRICTION_NOTE


#: The CSV's last columns, after UNIT_COLUMNS; only the totals row fills them.
REPORT_COLUMNS = (
    "var_total", "es_total", "additivity_gap", "alpha", "trials", "seed",
    "restriction_note",
)


def _parse_dist(text: str) -> dict:
    kind, _, rest = text.partition(":")
    if kind == "uniform":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError("uniform takes exactly two endpoints: uniform:a,b")
        return {"kind": "uniform", "lower": float(parts[0]), "upper": float(parts[1])}
    if kind == "atoms":
        values = []
        probs = []
        for item in rest.split(","):
            bits = item.split(":")
            if len(bits) != 2:
                raise ValueError(f"atom {item!r} is not of the form value:prob")
            values.append(float(bits[0]))
            probs.append(float(bits[1]))
        return {"kind": "atoms", "values": values, "probs": probs}
    raise ValueError(f"unknown distribution {kind!r}; use uniform:a,b or atoms:v:p,...")


def _parse_overhead(text: str) -> OverheadSchedule:
    if text == "none":
        return OverheadSchedule()
    kind, _, rest = text.partition(":")
    if kind == "linear":
        return OverheadSchedule(rate=float(rest))
    if kind == "table":
        return OverheadSchedule(costs=tuple(float(c) for c in rest.split(",")))
    raise ValueError(
        f"unknown overhead {kind!r}; use none, linear:c or table:c1,c2,..."
    )


#: Each command's help line and the flags it reads besides --dist or --input,
#: --alpha, --seed, --format and --out, which every command takes.
COMMANDS = {
    "var": ("whole-book quantile capital", ()),
    "es": ("whole-book expected shortfall", ()),
    "decompose": ("tranche the support and price each piece", ("--tranches",)),
    "randomize": ("route losses to uniformly drawn subsidiaries", ("--subsidiaries", "--trials")),
    "solve": ("cheapest tranche structure under a unit budget", ("--max-desks", "--overhead")),
    "simulate": ("decompose plus Monte Carlo verification", ("--tranches", "--trials")),
}

#: argparse's keywords for each flag in COMMANDS.
FLAGS = {
    "--tranches": {"type": int, "help": "tranche count"},
    "--subsidiaries": {"type": int, "help": "subsidiary count"},
    "--max-desks": {"type": int, "required": True, "help": "largest unit count the solver may use"},
    "--overhead": {"default": "none", "help": "none, linear:c or table:c1,c2,..."},
    "--trials": {"type": int, "default": 100000, "help": "Monte Carlo draws"},
}


def parse_cli(argv=None) -> argparse.Namespace:
    """Parse argv into a validated argparse namespace; exits 2 on misuse.

    A command takes only the flags it reads (:data:`COMMANDS`); any other is
    a usage error. ``model_spec`` holds the parsed ``--dist`` (None with
    ``--input``), and for ``solve`` alone ``overhead`` holds the parsed
    :class:`OverheadSchedule`.
    """
    parser = argparse.ArgumentParser(
        prog="varsplit",
        description="Tranche and subsidiary structuring under quantile capital rules",
    )
    sub = parser.add_subparsers(dest="action", required=True, metavar="command")
    for name, (text, own) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--dist", help="model descriptor: uniform:a,b or atoms:v1:p1,v2:p2,...")
        src.add_argument(
            "--input", dest="input_path", metavar="INPUT", help="CSV file with a single 'loss' column"
        )
        p.add_argument("--alpha", type=float, default=0.95, help="risk level in (0,1)")
        for flag in own:
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("--seed", type=int, default=42, help="base RNG seed")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report here, not stdout")
    ns, extras = parser.parse_known_args(argv)
    error = sub.choices[ns.action].error
    if extras:
        error(f"unrecognized arguments: {' '.join(extras)}")

    try:
        _alpha(ns.alpha)
    except VarsplitError as exc:
        error(f"--alpha: {exc}")
    ns.model_spec = None
    if ns.dist is not None:
        try:
            ns.model_spec = _parse_dist(ns.dist)
        except ValueError as exc:
            error(f"--dist: {exc}")
    if ns.action == "solve":
        try:
            ns.overhead = _parse_overhead(ns.overhead)
        except ValueError as exc:
            error(f"--overhead: {exc}")
    for flag, least, most in (
        ("--tranches", 1, MAX_UNITS), ("--subsidiaries", 1, MAX_UNITS),
        ("--max-desks", 1, math.inf), ("--trials", 1, MAX_TRIALS), ("--seed", 0, math.inf),
    ):
        value = getattr(ns, flag[2:].replace("-", "_"), None)  # None: unset, or not this command's
        if value is not None and value < least:
            error(f"{flag}: must be >= {least}, got {value}")
        if value is not None and value > most:
            error(f"{flag}: must be <= {most}, got {value}")
    if ns.action == "solve" and ns.overhead.units < ns.max_desks:
        error(
            f"--overhead: table covers 1..{ns.overhead.units} units, "
            f"--max-desks asks for {ns.max_desks}"
        )
    return ns


def _substream(seed: int, stream: int) -> int:
    """Child seed for one named stream, so draws never share a generator."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def _unit_vars(ranked: np.ndarray, hits: np.ndarray, alpha: float) -> list[float]:
    """Empirical VaR of each unit's loss: its own hits, zero in other trials.

    ``ranked`` holds every trial's loss grouped by unit, increasing within
    each group, and ``hits`` the group sizes. A unit's column sorts as its
    n - hits zeros followed by its sorted hits, so its VaR is the entry of
    rank :func:`order_stat_rank` in that sequence, and 0 when that rank falls
    among the zeros, as it does for a unit hit at most n - rank times.
    """
    ends = np.cumsum(hits)
    ranks = order_stat_rank(ranked.size, alpha) - (ranked.size - hits)
    return [
        float(ranked[end - hit + rank - 1]) if rank > 0 else 0.0
        for end, hit, rank in zip(ends, hits, ranks)
    ]


#: Leads every book key; a new tag (after a change to the CSV rules or to the
#: entry layout) makes every older entry miss.
BOOK_FORMAT = b"varsplit empirical law: float64 values then run starts, v1\n"


def _book_key(path: str) -> str | None:
    """SHA-256 of the format tag, the csv field size limit and the file's
    bytes, read through one 64 KiB block; None when the file cannot be read.

    A 1 MiB block hashes a 2.9 MB book no faster (3.7 ms either way) and
    costs a zero-filled buffer of its size.
    """
    import hashlib  # here, so only --input pays the ~4 ms of loading OpenSSL

    digest = hashlib.sha256(BOOK_FORMAT + b"%d\n" % csv.field_size_limit())
    block = bytearray(1 << 16)
    try:
        with open(path, "rb") as fh:
            while size := fh.readinto(block):
                digest.update(memoryview(block)[:size])
    except OSError:
        return None
    return digest.hexdigest()


def _read_entry(entry: Path) -> LossModel | None:
    """The model a cache entry stores, or None when it is missing or unsound.

    A sound entry is one float64 vector holding no negative number and no
    -0.0: m finite, strictly increasing values, then their m + 1 run
    starts, integers rising strictly from 0 to the sample size n < 2**53.
    """
    try:
        with entry.open("rb") as fh:
            arr = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if not (
        isinstance(arr, np.ndarray) and arr.dtype == np.float64
        and arr.ndim == 1 and arr.size >= 3 and arr.size % 2 == 1
    ):
        return None
    values, cum = np.split(arr, [arr.size // 2])
    sound = (
        not np.signbit(arr).any() and np.isfinite(values).all()
        and (np.diff(values) > 0.0).all()
        and cum[0] == 0.0 and (np.diff(cum) > 0.0).all()
        and (np.floor(cum) == cum).all() and cum[-1] < 2.0**53
    )
    return _empirical_runs(values, cum) if sound else None


def _write_entry(entry: Path, law: DiscreteLaw) -> None:
    """Store the law's values and run starts at ``entry``: a temp file beside
    it, then a rename, so a reader never sees half an entry. Any OS error
    leaves the cache as it was."""
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.concatenate((law.values, law.cum)), allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _load_book(path: str) -> LossModel:
    """:func:`load_losses_csv` of ``path``, read once per file content.

    A regular file's law is kept under its :func:`_book_key` in
    ``varsplit/books`` of the user's cache directory (``$XDG_CACHE_HOME``,
    or ``~/.cache`` when that is unset or relative), so a later command on
    the same bytes rebuilds the model without parsing. An entry is written
    only after a parse that succeeds, and only when the file hashes alike
    after the parse; a pipe, an unreadable file or a cache that cannot be
    written just parses, with the same output.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    key = _book_key(path) if os.path.isfile(path) and os.path.isabs(base) else None
    if key is None:
        return load_losses_csv(path)
    entry = Path(base, "varsplit", "books", f"{key}.npy")
    model = _read_entry(entry)
    if model is None:
        model = load_losses_csv(path)
        if _book_key(path) == key:
            _write_entry(entry, model.law)
    return model


def run_simulation(command: argparse.Namespace) -> CapitalReport:
    """Execute the argparse namespace from :func:`parse_cli`; gather the report.

    Every command yields its cuts, one row per unit and its Monte Carlo trial
    count; the whole-book totals and the sums over the rows are shared.
    """
    spec = command.model_spec
    model = build_model(spec) if spec is not None else _load_book(command.input_path)
    alpha = _alpha(command.alpha)
    var_total = var(model, alpha)
    es_total = expected_shortfall(model, alpha)
    trials = 0
    if command.action in ("var", "es"):
        cuts = (0.0, model.max_loss)
        rows = [_row(1.0, var_total, None, es_total)]
    elif command.action == "randomize":
        n_subs = command.subsidiaries
        if n_subs is None:
            n_subs = min_subsidiaries(alpha)
        # Priced first, so n_subs is checked before any trial-length array.
        mass, unit_var, unit_es = randomized_unit_price(model, n_subs, alpha)
        trials = command.trials
        losses = sample(model, _substream(command.seed, 0), trials)
        idx = randomized_assign(n_subs, _substream(command.seed, 1), losses)
        hits = np.bincount(idx, minlength=n_subs)
        if hits.max() <= trials - order_stat_rank(trials, alpha):
            emp = [0.0] * n_subs  # each unit's rank falls among its zeros
        else:
            order = np.lexsort((losses, idx))
            del idx  # so the gather below is the third trial-length array, not the fourth
            emp = _unit_vars(losses[order], hits, alpha)
        cuts = ()
        rows = [_row(mass, unit_var, e, unit_es) for e in emp]
    else:
        if command.action == "solve":
            partition = solve_with_overhead(
                model, alpha, command.max_desks, command.overhead
            ).partition
        else:
            partition = build_partition(model, alpha, command.tranches)
        emp = [None] * partition.n_tranches
        if command.action == "simulate":
            trials = command.trials
            losses = sample(model, _substream(command.seed, 0), trials)
            losses.sort()
            below = np.searchsorted(losses, partition.cuts[1:-1])  # a draw on a cut goes up
            emp = _unit_vars(losses, np.diff(below, prepend=0, append=trials), alpha)
        masses, tranche_vars, tranche_es = decompose(model, partition, alpha).tolist()
        cuts = partition.cuts
        rows = [_row(*row) for row in zip(masses, tranche_vars, emp, tranche_es)]
    sum_vars = float(sum(row["var_analytic"] for row in rows))
    sum_es = float(sum(row["es_analytic"] for row in rows))
    return CapitalReport(
        alpha=alpha,
        model=model.label,
        n_units=len(rows),
        cuts=tuple(float(c) for c in cuts),
        tranches=tuple(rows),
        var_total=var_total,
        es_total=es_total,
        sum_tranche_vars=sum_vars,
        sum_tranche_es=sum_es,
        additivity_gap=sum_vars - var_total,
        trials=trials,
        seed=command.seed,
    )


def _to_json(report: CapitalReport) -> str:
    doc = vars(report)  # json writes the tuples as lists
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:  # JSON has no inf or nan: name the field that holds one
        cells = [*doc.items()] + [
            (f"tranches[{i}].{k}", v) for i, row in enumerate(doc["tranches"]) for k, v in row.items()
        ]
        name, value = next((k, v) for k, v in cells if isinstance(v, float) and not np.isfinite(v))
        raise VarsplitError(f"report field {name} is {value}, which JSON cannot hold") from None


def _to_csv(report: CapitalReport) -> str:
    """Unit rows, then a totals row; csv.writer writes None as "" and a float by repr."""
    mass = float(sum(row["mass"] for row in report.tranches))
    emp = [row["var_empirical"] for row in report.tranches]
    emp_total = float(sum(emp)) if emp and None not in emp else None
    total = (mass, report.sum_tranche_vars, emp_total, report.sum_tranche_es)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tranche", *UNIT_COLUMNS, *REPORT_COLUMNS])
    for i, row in enumerate(report.tranches, start=1):
        writer.writerow([i, *(row[c] for c in UNIT_COLUMNS), *[None] * len(REPORT_COLUMNS)])
    writer.writerow(["total", *total, *(getattr(report, c) for c in REPORT_COLUMNS)])
    return buf.getvalue()


def emit_report(
    report: CapitalReport, fmt: str = "json", out: str | None = None
) -> str:
    """Serialize a report as "json" or "csv" (else ValueError); write to ``out`` or stdout."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; use json or csv")
    text = _to_json(report) if fmt == "json" else _to_csv(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def main(argv=None) -> int:
    """Entry point: 0 on success, 1 on runtime failure, 2 on usage error."""
    command = parse_cli(argv)
    try:
        report = run_simulation(command)
        emit_report(report, command.format, command.out)
    except (VarsplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    """Process entry point: freeze the import-time objects, then run :func:`main`.

    Called once per process, by the ``varsplit`` console script and by
    ``python -m varsplit.cli``. The frozen objects live until exit anyway;
    without the freeze, the collector's passes over them at exit cost about
    35 ms of a cold command. Objects the command creates are still
    collected, and every normal exit step (atexit handlers, the final stdio
    flush, module teardown) still runs. :func:`main` does not freeze, so an
    in-process caller keeps its own collector as it was.

    Stdout is flushed here, inside the error handling. If the reader has
    closed the pipe, stdout is pointed at ``os.devnull`` so the flush at
    exit cannot fail again, and the exit status is 1 with one ``error:``
    line.
    """
    gc.freeze()
    try:
        code = main()
    except SystemExit as exc:  # argparse: a usage error or --help
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
