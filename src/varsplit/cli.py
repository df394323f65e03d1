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
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .capital_solver import OverheadSchedule, solve_with_overhead
from .errors import VarsplitError
from .loss_model import (
    LossModel,
    build_model,
    cdf,
    describe,
    empirical,  # unused here; perfbench/tracing.py wraps varsplit.cli.empirical
    load_losses_csv,
    order_stat_rank,
    sample,
)
from .risk_measures import RiskLevel, es_of_tranche, expected_shortfall, var
from .structuring import (
    RandomizedScheme,
    build_partition,
    decompose,
    min_subsidiaries,
    randomized_assign,
    randomized_unit_es,
    randomized_unit_var,
)

#: Embedded in every report so no output overstates what was optimized.
RESTRICTION_NOTE = (
    "capital minimization searches the interval-tranche class only; "
    "randomized subsidiary structures are reported separately and the "
    "unrestricted minimum is not claimed"
)


@dataclass(frozen=True)
class TrancheRow:
    """Per-unit slice of a report: one tranche or one subsidiary."""

    mass: float
    var_analytic: float
    var_empirical: float | None
    es_analytic: float


@dataclass(frozen=True)
class CapitalReport:
    """Full outcome of one CLI run, in stable field order."""

    alpha: float
    model: str
    n_units: int
    cuts: tuple[float, ...]
    tranches: tuple[TrancheRow, ...]
    var_total: float
    es_total: float
    sum_tranche_vars: float
    sum_tranche_es: float
    additivity_gap: float
    trials: int
    seed: int
    restriction_note: str = RESTRICTION_NOTE


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
        return OverheadSchedule.none()
    kind, _, rest = text.partition(":")
    if kind == "linear":
        return OverheadSchedule.linear(float(rest))
    if kind == "table":
        return OverheadSchedule.table(float(c) for c in rest.split(","))
    raise ValueError(
        f"unknown overhead {kind!r}; use none, linear:c or table:c1,c2,..."
    )


def _add_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--dist", help="model descriptor: uniform:a,b or atoms:v1:p1,v2:p2,..."
    )
    src.add_argument(
        "--input", dest="input_path", metavar="INPUT",
        help="CSV file with a single 'loss' column",
    )
    p.add_argument("--alpha", type=float, default=0.95, help="risk level in (0,1)")
    p.add_argument("--tranches", type=int, default=None, help="tranche count")
    p.add_argument("--subsidiaries", type=int, default=None, help="subsidiary count")
    p.add_argument(
        "--max-desks", dest="max_desks", type=int, default=None,
        help="largest unit count the solver may use",
    )
    p.add_argument(
        "--overhead", default="none", help="none, linear:c or table:c1,c2,..."
    )
    p.add_argument("--trials", type=int, default=100000, help="Monte Carlo draws")
    p.add_argument("--seed", type=int, default=42, help="base RNG seed")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here, not stdout")


def parse_cli(argv=None) -> argparse.Namespace:
    """Parse argv into a validated argparse namespace; exits 2 on misuse.

    ``model_spec`` holds the parsed ``--dist`` (None with ``--input``) and
    ``overhead`` the parsed :class:`OverheadSchedule`.
    """
    parser = argparse.ArgumentParser(
        prog="varsplit",
        description="Tranche and subsidiary structuring under quantile capital rules",
    )
    sub = parser.add_subparsers(dest="action", required=True, metavar="command")
    helps = {
        "var": "whole-book quantile capital",
        "es": "whole-book expected shortfall",
        "decompose": "tranche the support and price each piece",
        "randomize": "route losses to uniformly drawn subsidiaries",
        "solve": "cheapest tranche structure under a unit budget",
        "simulate": "decompose plus Monte Carlo verification",
    }
    for name, text in helps.items():
        _add_flags(sub.add_parser(name, help=text))
    ns = parser.parse_args(argv)

    try:
        RiskLevel(ns.alpha)
    except VarsplitError as exc:
        parser.error(f"--alpha: {exc}")
    ns.model_spec = None
    if ns.dist is not None:
        try:
            ns.model_spec = _parse_dist(ns.dist)
        except ValueError as exc:
            parser.error(f"--dist: {exc}")
    try:
        ns.overhead = _parse_overhead(ns.overhead)
    except ValueError as exc:
        parser.error(f"--overhead: {exc}")
    for flag, value in (
        ("--tranches", ns.tranches),
        ("--subsidiaries", ns.subsidiaries),
        ("--max-desks", ns.max_desks),
    ):
        if value is not None and value < 1:
            parser.error(f"{flag}: must be >= 1, got {value}")
    if ns.trials < 1:
        parser.error(f"--trials: must be >= 1, got {ns.trials}")
    if ns.seed < 0:
        parser.error(f"--seed: must be >= 0, got {ns.seed}")
    if ns.action == "solve" and ns.max_desks is None:
        parser.error("solve requires --max-desks")
    if ns.action == "solve" and ns.overhead.units < ns.max_desks:
        parser.error(
            f"--overhead: table covers 1..{ns.overhead.units} units, "
            f"--max-desks asks for {ns.max_desks}"
        )
    return ns


def _substream(seed: int, stream: int) -> int:
    """Child seed for one named stream, so draws never share a generator."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def _load_model(command: argparse.Namespace) -> LossModel:
    if command.model_spec is not None:
        return build_model(command.model_spec)
    return load_losses_csv(command.input_path)


def _unit_vars(ranked: np.ndarray, hits: np.ndarray, level: RiskLevel) -> list[float]:
    """Empirical VaR of each unit's loss: its own hits, zero in other trials.

    ``ranked`` holds every trial's loss grouped by unit, increasing within
    each group, and ``hits`` the group sizes. A unit's column sorts as its
    n - hits zeros followed by its sorted hits, so its VaR is the entry of
    rank :func:`order_stat_rank` in that sequence.
    """
    ends = np.cumsum(hits)
    ranks = order_stat_rank(ranked.size, level.alpha) - (ranked.size - hits)
    return [
        float(ranked[end - hit + rank - 1]) if rank > 0 else 0.0
        for end, hit, rank in zip(ends, hits, ranks)
    ]


def run_simulation(command: argparse.Namespace) -> CapitalReport:
    """Execute the argparse namespace from :func:`parse_cli`; gather the report.

    Every command yields its cuts, one row per unit and its Monte Carlo trial
    count; the whole-book totals and the sums over the rows are shared.
    """
    model = _load_model(command)
    level = RiskLevel(command.alpha)
    var_total = var(model, level)
    es_total = expected_shortfall(model, level)
    trials = 0
    if command.action in ("var", "es"):
        cuts = (0.0, model.max_loss)
        rows = [TrancheRow(1.0, var_total, None, es_total)]
    elif command.action == "randomize":
        n_subs = command.subsidiaries
        if n_subs is None:
            n_subs = min_subsidiaries(level)
        scheme = RandomizedScheme(n_subs, seed=_substream(command.seed, 1))
        trials = command.trials
        losses = sample(model, _substream(command.seed, 0), trials)
        idx = randomized_assign(scheme, losses)
        order, hits = np.lexsort((losses, idx)), np.bincount(idx, minlength=n_subs)
        del idx  # so the gather below is the third trial-length array, not the fourth
        emp = _unit_vars(losses[order], hits, level)
        unit_var = randomized_unit_var(model, n_subs, level)
        unit_es = randomized_unit_es(model, n_subs, level)
        activation = (1.0 - cdf(model, 0.0)) / n_subs
        cuts = ()
        rows = [TrancheRow(activation, unit_var, e, unit_es) for e in emp]
    else:
        if command.action == "solve":
            partition = solve_with_overhead(
                model, level, command.max_desks, command.overhead
            ).partition
        else:
            partition = build_partition(model, level, command.tranches)
        intervals = partition.intervals()
        emp = [None] * len(intervals)
        if command.action == "simulate":
            trials = command.trials
            losses = sample(model, _substream(command.seed, 0), trials)
            losses.sort()
            below = np.searchsorted(losses, partition.cuts[1:-1])  # a draw on a cut goes up
            emp = _unit_vars(losses, np.diff(below, prepend=0, append=trials), level)
        dec = decompose(model, partition, level)
        cuts = partition.cuts
        rows = [
            TrancheRow(float(mass), float(v), e, es_of_tranche(model, iv, level))
            for mass, v, e, iv in zip(dec.masses, dec.tranche_vars, emp, intervals)
        ]
    sum_vars = float(sum(row.var_analytic for row in rows))
    sum_es = float(sum(row.es_analytic for row in rows))
    return CapitalReport(
        alpha=level.alpha,
        model=describe(model),
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
    fields = {**vars(report), "tranches": [vars(row) for row in report.tranches]}
    return json.dumps(fields, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(report: CapitalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "tranche", "mass", "var_analytic", "var_empirical", "es_analytic",
            "var_total", "es_total", "additivity_gap", "alpha", "trials",
            "seed", "restriction_note",
        ]
    )
    emp_values = [row.var_empirical for row in report.tranches]
    for i, row in enumerate(report.tranches, start=1):
        writer.writerow(
            [
                i, _cell(row.mass), _cell(row.var_analytic),
                _cell(row.var_empirical), _cell(row.es_analytic),
                "", "", "", "", "", "", "",
            ]
        )
    emp_total = (
        float(sum(emp_values))
        if emp_values and all(v is not None for v in emp_values)
        else None
    )
    writer.writerow(
        [
            "total",
            _cell(float(sum(row.mass for row in report.tranches))),
            _cell(report.sum_tranche_vars),
            _cell(emp_total),
            _cell(report.sum_tranche_es),
            _cell(report.var_total),
            _cell(report.es_total),
            _cell(report.additivity_gap),
            _cell(report.alpha),
            report.trials,
            report.seed,
            report.restriction_note,
        ]
    )
    return buf.getvalue()


def emit_report(
    report: CapitalReport, fmt: str = "json", out: str | None = None
) -> str:
    """Serialize a report to JSON or CSV; write to ``out`` or stdout."""
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
