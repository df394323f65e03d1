"""A seeded corpus of command lines over all six commands, and a comparer
that runs it on two source trees.

    python tests/cli_corpus.py compare PARENT_SRC CHANGE_SRC --seed S --count N

runs every line of ``lines(S, N)`` through ``varsplit.cli.main`` in process
on each tree: first with an empty book cache, then again with the cache the
first run left. It prints each line whose stdout, stderr or exit code
differs between the trees, with both outputs, then how many cells differ
per report field (a JSON key or CSV column; ``exit``, ``stderr`` or
``stdout`` for the rest) and model kind (``atoms``, ``uniform`` or ``book``),
and exits 1 if any line differs.

The lines cover ``var``, ``es``, ``decompose``, ``simulate``, ``randomize``
and ``solve``; atom lists with and without an atom at 0, non-dyadic decimal
probabilities, float-neighbour atoms (often at the top), atoms whose sums
overflow, uniform models (a few with empty support), small CSV books with
ties and zeros (some with a single row, CRLF line ends, a ``-0.0`` row, an
underscore inside a number or one bad row), every overhead form, tranche
and subsidiary counts (a few at 0, a usage error), Monte Carlo runs of at
most 2 000 trials with and without ``--seed``, and JSON and CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np

#: Stands for the line's book file in its argv until a runner writes it.
BOOK = "<book>"

#: The six commands, in the order :func:`lines` draws them.
ACTIONS = ("var", "es", "decompose", "simulate", "randomize", "solve")


def _atoms(rng: np.random.Generator) -> str:
    m = int(rng.integers(1, 13)) if rng.random() < 0.8 else int(rng.integers(13, 41))
    kind = rng.choice(["ints", "decimals", "reals", "huge"], p=[0.35, 0.35, 0.25, 0.05])
    if kind == "ints":
        values = rng.choice(np.arange(1, 10 * m + 2), size=m, replace=False).astype(float)
    elif kind == "decimals":
        values = np.round(rng.uniform(0.001, 100.0, size=m), int(rng.integers(1, 4)))
    elif kind == "reals":
        values = rng.lognormal(0.0, 1.0, size=m)
    else:
        values = rng.uniform(1e307, 1.7e308, size=m)
    values = np.unique(values)
    if rng.random() < 0.35:  # a float-neighbour pair, at the top more often than not
        k = values.size - 1 if rng.random() < 0.6 else int(rng.integers(0, values.size))
        values = np.unique(np.append(values, np.nextafter(values[k], np.inf)))
    weights = rng.integers(1, 10, size=values.size)
    if rng.random() < 0.3:  # a heavy top atom
        weights[-1] *= int(rng.integers(5, 40))
    zero = rng.random()
    if zero < 0.35:  # an atom at 0, light or heavy
        heavy = zero < 0.15
        values = np.append(0.0, values)
        weights = np.append(weights.sum() * int(rng.integers(1, 20)) if heavy else 1, weights)
    if rng.random() < 0.5:  # three-place decimals summing to exactly 1
        thousandths = np.maximum(np.floor(1000 * weights / weights.sum()), 1).astype(int)
        thousandths[np.argmax(thousandths)] += 1000 - thousandths.sum()
        probs = [f"{t / 1000:.3f}" for t in thousandths]
    else:
        probs = [repr(float(w)) for w in weights / weights.sum()]
    return "atoms:" + ",".join(f"{v!r}:{p}" for v, p in zip(values.tolist(), probs))


def _uniform(rng: np.random.Generator) -> str:
    lower = 0.0 if rng.random() < 0.5 else round(float(rng.uniform(0.0, 50.0)), 2)
    width = 0.0 if rng.random() < 0.05 else round(float(rng.uniform(0.01, 100.0)), 2)
    return f"uniform:{lower!r},{lower + width!r}"


def _book(rng: np.random.Generator) -> str:
    n = 1 if rng.random() < 0.1 else int(rng.integers(1, 41))
    pool = np.round(rng.uniform(0.0, 50.0, size=int(rng.integers(1, 12))), int(rng.integers(0, 3)))
    losses = rng.choice(np.append(pool, 0.0) if rng.random() < 0.4 else pool, size=n)
    rows = [repr(x) for x in losses.tolist()]
    k, shape = int(rng.integers(0, n)), rng.random()
    if shape < 0.1:
        rows[k] = "-0.0"
    elif shape < 0.2:  # "12.5_0" is 12.5 to float, not to numpy's fast reader
        rows[k] += "_0"
    elif shape < 0.3:
        rows[k] = str(rng.choice(["n/a", "-1.5", "inf", "1,2", '"3"x']))
    eol = "\r\n" if rng.random() < 0.15 else "\n"
    return "loss" + eol + "".join(row + eol for row in rows)


def _count(rng: np.random.Generator, stop: int) -> str:
    """A count flag's value in 1..stop-1, or now and then 0, a usage error."""
    return "0" if rng.random() < 0.03 else str(int(rng.integers(1, stop)))


def _overhead(rng: np.random.Generator, desks: int) -> list[str]:
    form = rng.choice(["default", "none", "linear", "table"])
    if form == "default":
        return []
    if form == "none":
        return ["--overhead", "none"]
    if form == "linear":
        return ["--overhead", f"linear:{rng.choice([0, 0.001, 0.05, 0.5, 2.5, 40])}"]
    size = desks + int(rng.integers(-1, 3))  # one short of the budget now and then
    costs = np.sort(rng.choice([0.0, 0.01, 0.5, 1.0, 3.0, 10.0], size=max(size, 1)))
    return ["--overhead", "table:" + ",".join(f"{c!r}" for c in costs.tolist())]


def lines(seed: int, count: int) -> list[tuple[list[str], str | None]]:
    """``count`` seeded (argv, book) pairs. ``book`` is the CSV text that an
    ``--input`` line reads, its path given in argv as :data:`BOOK`; None for a
    ``--dist`` line."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        action = str(rng.choice(ACTIONS, p=[0.1, 0.1, 0.25, 0.1, 0.1, 0.35]))
        book, source = None, rng.random()
        if source < 0.2:
            book = _book(rng)
            argv = [action, "--input", BOOK]
        else:
            argv = [action, "--dist", _uniform(rng) if source < 0.35 else _atoms(rng)]
        alpha = rng.choice(["0.3", "0.5", "0.6", "0.9", "0.95", "0.99", "0.999", "random"])
        argv += ["--alpha", f"{rng.uniform(0.05, 0.995):.4f}" if alpha == "random" else alpha]
        if action == "solve":
            desks = int(_count(rng, 45))
            argv += ["--max-desks", str(desks), *_overhead(rng, desks)]
        elif action in ("decompose", "simulate") and rng.random() < 0.5:
            argv += ["--tranches", _count(rng, 45)]
        elif action == "randomize" and rng.random() < 0.5:
            argv += ["--subsidiaries", _count(rng, 45)]
        if action in ("simulate", "randomize"):
            argv += ["--trials", _count(rng, 2001)]
        if rng.random() < 0.3:
            argv += ["--seed", str(int(rng.integers(0, 2**32)))]
        if rng.random() < 0.5:
            argv += ["--format", str(rng.choice(["json", "csv"]))]
        out.append((argv, book))
    return out


def _run_one(main, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error
                code = exc.code
            except Exception as exc:  # a crash is an outcome to compare too
                code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def run_tree(src: str, seed: int, count: int, books: str) -> list:
    """Each line's cold and warm outcomes on the varsplit under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from varsplit import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported {cli.__file__}, not the tree under {src}")
    results = []
    for i, (argv, book) in enumerate(lines(seed, count)):
        argv = [os.path.join(books, f"{i}.csv") if a == BOOK else a for a in argv]
        os.environ["XDG_CACHE_HOME"] = os.path.join(books, "cache", str(i))
        results.append([_run_one(cli.main, argv), _run_one(cli.main, argv)])
    return results


def _kind(argv: list[str]) -> str:
    """The line's model kind: ``book`` for a CSV ``--input``, else the ``--dist`` kind."""
    return "book" if "--input" in argv else argv[argv.index("--dist") + 1].partition(":")[0]


def _cells(text: str) -> dict[str, list]:
    """A report's cells by field: JSON keys, each tranche row's keys among them,
    or CSV columns; any other output is one ``stdout`` cell."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        cells = {key: [value] for key, value in doc.items() if key != "tranches"}
        for row in doc.get("tranches", []):
            for key, value in row.items():
                cells.setdefault(key, []).append(value)
        return cells
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows):
        return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}
    return {"stdout": [text]}


def cell_counts(argv: list[str], before: list, after: list) -> Counter:
    """Differing cells of one line by (field, model kind). ``before`` and
    ``after`` are its [cold, warm] outcomes; a warm run that differs as the
    cold one does is counted once."""
    counts, kind = Counter(), _kind(argv)
    pairs = {json.dumps(pair) for pair in zip(before, after) if pair[0] != pair[1]}
    for (code0, out0, err0), (code1, out1, err1) in map(json.loads, sorted(pairs)):
        counts["exit", kind] += code0 != code1
        counts["stderr", kind] += err0 != err1
        cells0, cells1 = _cells(out0), _cells(out1)
        for field in cells0.keys() | cells1.keys():
            col0, col1 = cells0.get(field, []), cells1.get(field, [])
            counts[field, kind] += sum(repr(x) != repr(y) for x, y in zip(col0, col1))
            counts[field, kind] += abs(len(col0) - len(col1))
    return +counts


def compare(parent: str, change: str, seed: int, count: int) -> int:
    with tempfile.TemporaryDirectory() as books:
        for i, (_, book) in enumerate(lines(seed, count)):
            if book is not None:
                path = os.path.join(books, f"{i}.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(book)
        outcomes = []
        for src in (parent, change):
            cmd = [sys.executable, __file__, "run", src, "--seed", str(seed),
                   "--count", str(count), "--books", books]
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
            outcomes.append(json.loads(done.stdout))
    differ, cells = 0, Counter()
    for (argv, _), before, after in zip(lines(seed, count), *outcomes):
        if before != after:
            differ += 1
            cells += cell_counts(argv, before, after)
            print(json.dumps({"argv": argv, "parent": before, "change": after}, indent=1))
    if cells:
        print(f"differing cells by field and model kind (seed {seed}):")
        for (field, kind), n in sorted(cells.items()):
            print(f"  {field:<20} {kind:<8} {n}")
    print(f"{differ} of {count} lines differ (seed {seed})", file=sys.stderr)
    return 1 if differ else 0


def _cli() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    cmp = sub.add_parser("compare", help="print every line whose outcome differs")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    run = sub.add_parser("run", help="one tree's outcomes as JSON (the comparer's worker)")
    run.add_argument("src")
    run.add_argument("--books", required=True)
    for p in (cmp, run):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=1000)
    ns = parser.parse_args()
    if ns.action == "run":
        json.dump(run_tree(ns.src, ns.seed, ns.count, ns.books), sys.stdout)
        return 0
    return compare(ns.parent, ns.change, ns.seed, ns.count)


if __name__ == "__main__":
    sys.exit(_cli())
