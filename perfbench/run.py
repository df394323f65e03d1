"""Benchmark of the varsplit CLI over seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <solve-hard|verify-mc|price-book> \
        --seed <n> --seconds <s> --trace <0|1>

With --trace 0 each workload's command list runs in rounds, each command a
cold ``python3 -m varsplit.cli`` subprocess, one at a time, for about
--seconds; every report is checked against references computed apart from
the program. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics. With --trace 1 the
same commands run in this process, alternately untraced and traced, and the
JSON carries the per-layer metrics instead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import judge  # noqa: E402

SETUP_REPEATS = 7


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(root: Path, env: dict, spec: Path) -> tuple[float, float]:
    """Median wall time of the set-up probe in a fresh interpreter, and its import time."""
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def run_command(argv, root: Path, env: dict, out: Path) -> tuple[int, float, float]:
    """Run one CLI command cold; return (exit code, wall seconds, peak RSS in MB)."""
    with out.open("wb") as stdout, out.with_suffix(".err").open("wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "varsplit.cli", *argv],
            cwd=root, env=env, stdout=stdout, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_round(cases, root: Path, env: dict, work: Path):
    """One pass over the command list: (wall, peak RSS MB, failed, wrong)."""
    wall, peak, failed, wrong = 0.0, 0.0, 0, 0
    for i, case in enumerate(cases):
        out = work / f"cmd{i}.out"
        code, secs, rss = run_command(case.argv, root, env, out)
        wall += secs
        peak = max(peak, rss)
        why = judge(case, code, out.read_text())
        if why:
            failed += 1
            wrong += code == 0
            err = out.with_suffix(".err").read_text().strip().splitlines() if code else []
            print(f"perfbench: {why}" + (f"; stderr: {err[-1]}" if err else ""), file=sys.stderr)
    return wall, peak, failed, wrong


def untraced_run(cases, root, env, work, seconds):
    """Whole rounds until ``seconds`` have passed; the last round may overrun."""
    walls, peaks = [], []
    failed = wrong = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, peak, f, w = run_round(cases, root, env, work)
        walls.append(wall)
        peaks.append(peak)
        failed, wrong = failed + f, wrong + w
    print(f"perfbench: {len(walls)} rounds, run_s {[round(x, 3) for x in walls]}",
          file=sys.stderr)
    metrics = {
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }
    return metrics, len(walls) * len(cases), failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "varsplit" / "cli.py").is_file():
        print(f"perfbench: no varsplit source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = _env(src)
    base = HERE / ".work"
    work = base / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work)
        setup_s, import_s = measure_setup(root, env, work / "setup.json")
        if args.trace:
            sys.path.insert(0, str(src))
            traces = base / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            metrics, attempted, failed, wrong = tracing.traced_run(
                wl.cases, args.seconds, import_s,
                traces / f"{args.workload}-seed{args.seed}.jsonl",
            )
        else:
            metrics, attempted, failed, wrong = untraced_run(
                wl.cases, root, env, work, args.seconds
            )
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
