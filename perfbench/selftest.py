"""Self-test of the benchmark: its checker, its smoke-size workloads, its contract.

Usage, from the repository root: python3 perfbench/selftest.py

1. Runs every workload once at smoke size, as cold subprocesses and in
   process with tracing, and requires zero failed commands.
2. Corrupts real reports (a tranche VaR moved to the next atom, one
   empirical VaR made nonzero, a solve capital raised by one atom, a wrong
   n_units) and requires each to be counted as failed.
3. Checks the exact references on the tie cases the program gets wrong.
4. Checks that BENCHMARK.json names exactly the metrics the runs print, and
   that the benchmark fails without printing a result outside a checkout.

Exits 0 when every check passes. Takes about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import DiscreteLaw, check_report, judge  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def reports(wl, root, env, work):
    """Exit code and report text of every command of a workload, run cold."""
    out = []
    for i, case in enumerate(wl.cases):
        path = work / f"cmd{i}.out"
        code, _, _ = run.run_command(case.argv, root, env, path)
        out.append((code, path.read_text()))
    return out


def corrupt(wl, texts, pick, edit, caught_by: str) -> None:
    """Require report ``pick``, after ``edit``, to be failed by the ``caught_by`` check.

    The edits keep the report's own sums consistent, so only a reference
    check can catch them.
    """
    case = wl.cases[pick]
    code, text = texts[pick]
    doc = json.loads(text)
    edit(case, doc)
    text = json.dumps(doc, indent=2)
    errs = check_report(case, text)
    hit = [e for e in errs if caught_by in e]
    expect(judge(case, code, text) is not None and bool(hit),
           f"{edit.__doc__}: counted failed by {hit[:1]}")


def raise_tranche(doc, k: int, value: float) -> None:
    """Set tranche k's VaR, keeping the report's own sums consistent."""
    doc["tranches"][k]["var_analytic"] = value
    doc["sum_tranche_vars"] = sum(r["var_analytic"] for r in doc["tranches"])
    doc["additivity_gap"] = doc["sum_tranche_vars"] - doc["var_total"]


def next_atom(case, doc, k: int) -> float:
    """Smallest support point inside tranche k: the atom above a VaR of 0."""
    lo, hi = doc["cuts"][k], doc["cuts"][k + 1]
    a, b = case.law.span(lo, hi, k == len(doc["cuts"]) - 2)
    return float(case.law.values[a])


def smoke_and_corruptions(root: Path, env: dict, base: Path) -> None:
    built = {}
    for name in workloads.NAMES:
        work = base / name
        wl = workloads.build(name, 7, work, size="smoke")
        texts = reports(wl, root, env, work)
        whys = [judge(c, code, t) for c, (code, t) in zip(wl.cases, texts)]
        expect(not any(whys), f"{name} smoke: {len(wl.cases)} cold commands pass "
                              f"{[w for w in whys if w]}")
        metrics, attempted, failed, wrong = tracing.traced_run(wl.cases, 0.0, 0.1)
        expect(failed == 0 and attempted == 2 * len(wl.cases),
               f"{name} smoke: traced in-process run, {attempted} attempted, {failed} failed")
        expect([k for k in metrics] == [k for k, _ in tracing.PER_LAYER],
               f"{name} smoke: traced run prints every per-layer metric")
        built[name] = (wl, texts)

    wl, texts = built["price-book"]
    dec = next(i for i, c in enumerate(wl.cases) if c.action == "decompose")

    def moved_var(case, doc):
        """a tranche VaR moved to the next atom"""
        raise_tranche(doc, 3, next_atom(case, doc, 3))

    corrupt(wl, texts, dec, moved_var, "unit 3: var_analytic")
    solve = next(i for i, c in enumerate(wl.cases) if c.action == "solve")

    def raised_capital(case, doc):
        """a solve capital raised by one atom"""
        raise_tranche(doc, 0, next_atom(case, doc, 0))

    corrupt(wl, texts, solve, raised_capital, "unit 0: var_analytic")

    wl, texts = built["verify-mc"]
    sim = next(i for i, c in enumerate(wl.cases) if c.action == "simulate")

    def nonzero_empirical(case, doc):
        """one empirical VaR made nonzero"""
        doc["tranches"][5]["var_empirical"] = doc["cuts"][5]

    corrupt(wl, texts, sim, nonzero_empirical, "unit 5: var_empirical")

    wl, texts = built["solve-hard"]

    def wrong_units(case, doc):
        """a wrong n_units"""
        doc["n_units"] = 2

    corrupt(wl, texts, 0, wrong_units, "n_units 2")
    code, text = texts[0]
    expect(judge(wl.cases[0], code, text) is None, "the same report untouched passes")


def tie_references() -> None:
    """The exact references decide the tie cases that float code gets wrong."""
    for m, alpha in ((100, "0.99"), (20, "0.95"), (50, "0.98"), (1000, "0.999")):
        law = DiscreteLaw([str(v) for v in range(1, m + 1)], [1] * m)
        expect(law.quantile(Fraction(alpha)) == float(m),
               f"{m} equal atoms at {alpha}: strict quantile is {m}")


def contract(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = dict(tracing.PER_LAYER)
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
           "BENCHMARK.json per_layer matches the traced run's metrics")
    expect([m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"],
           "BENCHMARK.json end_to_end matches the untraced run's metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads match the benchmark's")
    expect(len(units) == len(tracing.PER_LAYER), "per-layer names are unique")

    with tempfile.TemporaryDirectory(dir=HERE / ".work") as bare:
        bare = Path(bare)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        done = subprocess.run(
            [*spec["command"], "--workload", "verify-mc", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"outside a checkout the benchmark exits {done.returncode} without a result")


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "varsplit").is_dir():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = run._env(src)
    base = HERE / ".work" / "selftest"
    base.mkdir(parents=True, exist_ok=True)
    try:
        tie_references()
        smoke_and_corruptions(root, env, base)
        contract(root)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
