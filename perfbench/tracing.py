"""In-process traced run: per-layer self time and counts for one workload.

Each public function the CLI pipeline calls is wrapped from outside, at the
module attribute where its caller looks it up, so the program itself is not
edited. Spans stay in memory; a span's self time is its duration minus the
time its child spans (and the tracer's own bookkeeping for them) cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from reference import judge

#: Per-layer metrics in report order, with units.
PER_LAYER = (
    ("process.import_s", "s"),
    ("loss_model.load_csv_s", "s"),
    ("loss_model.rows_ingested", "count"),
    ("loss_model.build_model_s", "s"),
    ("loss_model.sample_s", "s"),
    ("loss_model.draws", "count"),
    ("loss_model.empirical_s", "s"),
    ("loss_model.mass_in_s", "s"),
    ("loss_model.mass_in_calls", "count"),
    ("risk_measures.var_s", "s"),
    ("risk_measures.var_calls", "count"),
    ("risk_measures.es_s", "s"),
    ("risk_measures.var_of_tranche_s", "s"),
    ("risk_measures.es_of_tranche_s", "s"),
    ("risk_measures.tranche_calls", "count"),
    ("structuring.build_partition_s", "s"),
    ("structuring.decompose_s", "s"),
    ("structuring.randomized_assign_s", "s"),
    ("structuring.assign_bytes", "bytes"),
    ("capital_solver.solve_with_overhead_s", "s"),
    ("capital_solver.solve_tranche_dp_s", "s"),
    ("capital_solver.solve_tranche_dp_calls", "count"),
    ("capital_solver.dp_rows", "count"),
    ("capital_solver.useful_solve_ratio", "ratio"),
    ("capital_solver.dp_peak_mb", "MB"),
    ("cli.parse_s", "s"),
    ("cli.run_simulation_self_s", "s"),
    ("cli.emit_report_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.mc_columns_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    request: int
    parent: int
    start: float
    end: float = 0.0
    covered: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


@dataclass
class Tracer:
    """Spans and counters of one traced round, plus the wrappers that feed them."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    request: int = 0
    solves: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _atoms: dict = field(default_factory=dict)
    _results: set = field(default_factory=set)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.request, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            if parent >= 0:
                # The parent's self time excludes this span and its bookkeeping.
                self.spans[parent].covered += time.perf_counter() - span.start
            return result

        self._installed.append((module, attr, orig))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def positive_atoms(self, model) -> int:
        """Distinct positive support points of a discrete model, cached per model."""
        key = id(model)
        if key not in self._atoms:
            # The entry holds the model too, so its id is not reused meanwhile.
            pts = model.values if model.kind == "atoms" else np.unique(model.samples)
            self._atoms[key] = (model, int(np.count_nonzero(pts > 0.0)))
        return self._atoms[key][1]

    def note_dp(self, args, kwargs, res) -> None:
        model, n = args[0], (args[2] if len(args) > 2 else kwargs["n"])
        self.counts["capital_solver.solve_tranche_dp_calls"] += 1
        rows = res.best_n if res.capital == 0.0 else min(n, self.positive_atoms(model))
        self.counts["capital_solver.dp_rows"] += rows
        self._results.add((self.request, res.best_n, res.capital, res.partition.cuts))

    def note_solve(self, args, kwargs, res) -> None:
        model, lvl, n_max = args[:3]
        pts = model.values if model.kind == "atoms" else model.samples
        key = (model.kind, pts.size, model.max_loss, float(getattr(lvl, "alpha", lvl)), n_max)
        self.solves.setdefault(key, (model, lvl, n_max))

    @property
    def distinct_results(self) -> int:
        return len(self._results)


def _count(metric: str, size=None):
    def after(tracer, args, kwargs, result):
        tracer.counts[metric] += 1 if size is None else size(args, result)

    return after


def _columns(tracer, args, kwargs, report):
    if args[0].action == "simulate":
        tracer.counts["cli.mc_columns_bytes"] += report.trials * len(report.tranches) * 8


#: (module, attribute, span name, counter hook). Span names double as the
#: metric names with ``_s`` appended.
WRAPS = (
    ("varsplit.cli", "parse_cli", "cli.parse", None),
    ("varsplit.cli", "run_simulation", "cli.run_simulation_self", _columns),
    ("varsplit.cli", "emit_report", "cli.emit_report",
     _count("cli.report_bytes", lambda a, text: len(text.encode()))),
    ("varsplit.cli", "load_losses_csv", "loss_model.load_csv",
     _count("loss_model.rows_ingested", lambda a, model: model.samples.size)),
    ("varsplit.cli", "build_model", "loss_model.build_model", None),
    ("varsplit.cli", "sample", "loss_model.sample",
     _count("loss_model.draws", lambda a, draws: draws.size)),
    ("varsplit.cli", "empirical", "loss_model.empirical", None),
    ("varsplit.structuring", "mass_in", "loss_model.mass_in", _count("loss_model.mass_in_calls")),
    ("varsplit.cli", "var", "risk_measures.var", _count("risk_measures.var_calls")),
    ("varsplit.cli", "expected_shortfall", "risk_measures.es", None),
    ("varsplit.structuring", "var_of_tranche", "risk_measures.var_of_tranche",
     _count("risk_measures.tranche_calls")),
    ("varsplit.cli", "es_of_tranche", "risk_measures.es_of_tranche",
     _count("risk_measures.tranche_calls")),
    ("varsplit.cli", "build_partition", "structuring.build_partition", None),
    ("varsplit.cli", "decompose", "structuring.decompose", None),
    ("varsplit.cli", "randomized_assign", "structuring.randomized_assign",
     _count("structuring.assign_bytes", lambda a, matrix: matrix.nbytes)),
    ("varsplit.cli", "solve_with_overhead", "capital_solver.solve_with_overhead",
     Tracer.note_solve),
    ("varsplit.capital_solver", "solve_tranche_dp", "capital_solver.solve_tranche_dp",
     Tracer.note_dp),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    try:
        for module, attr, name, after in WRAPS:
            tracer.wrap(importlib.import_module(module), attr, name, after)
        yield tracer
    finally:
        tracer.uninstall()


def run_inprocess(cases, tracer: Tracer | None = None):
    """Run every case through varsplit.cli.main in this process.

    Returns (seconds inside the CLI, failed, wrong): failed counts nonzero
    exits and failed checks, wrong only failed checks of exit-0 commands.
    """
    import varsplit.cli

    wall, failed, wrong = 0.0, 0, 0
    for i, case in enumerate(cases):
        buf = io.StringIO()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = varsplit.cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code
        wall += time.perf_counter() - t0
        why = judge(case, code, buf.getvalue())
        if why:
            failed += 1
            wrong += code == 0
            print(f"perfbench: {why}", file=sys.stderr)
    return wall, failed, wrong


def dp_peak_mb(solves: dict) -> float:
    """Largest tracemalloc peak, in MB, over one DP call per distinct solve.

    tracemalloc slows the DP about twentyfold, so this runs once per
    distinct (model, level, max desks) after the timed rounds, on
    solve_tranche_dp(model, level, max_desks): the largest DP a solve makes.
    """
    from varsplit.capital_solver import solve_tranche_dp

    peak = 0
    for model, lvl, n_max in solves.values():
        tracemalloc.start()
        try:
            solve_tranche_dp(model, lvl, n_max)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer: Tracer) -> dict:
    """Self-time sums per span name plus the round's counters."""
    out = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    for span in tracer.spans:
        out[span.name + "_s"] += span.self_s
    for name, unit in PER_LAYER:
        if unit != "s":
            out[name] = tracer.counts.get(name, 0)
    calls = tracer.counts["capital_solver.solve_tranche_dp_calls"]
    out["capital_solver.useful_solve_ratio"] = tracer.distinct_results / calls if calls else 0.0
    return out


def traced_run(cases, seconds: float, import_s: float, trace_path=None):
    """Alternate untraced and traced in-process rounds until ``seconds`` pass.

    Returns (metrics, attempted, failed, wrong). Timings are medians over the
    traced rounds of per-round sums; counts are from the last traced round.
    """
    plain, traced, layers = [], [], []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which of the pair runs first, so drift favours neither.
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                last = Tracer()
                with installed(last):
                    wall, f, w = run_inprocess(cases, last)
                traced.append(wall)
                layers.append(layer_metrics(last))
            else:
                wall, f, w = run_inprocess(cases)
                plain.append(wall)
            attempted += len(cases)
            failed, wrong = failed + f, wrong + w

    metrics = {
        name: statistics.median(m[name] for m in layers) if unit == "s" else layers[-1][name]
        for name, unit in PER_LAYER
    }
    metrics["process.import_s"] = import_s
    metrics["capital_solver.dp_peak_mb"] = dp_peak_mb(last.solves)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for span in last.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    units = dict(PER_LAYER)
    return {k: {"value": metrics[k], "unit": units[k]} for k, _ in PER_LAYER}, attempted, failed, wrong
