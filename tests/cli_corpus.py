"""A seeded corpus of command lines over all six commands, and a comparer
that runs it on two source trees.

    python tests/cli_corpus.py compare PARENT_SRC CHANGE_SRC --seed S --count N

runs every line of ``lines(S, N)`` through ``varsplit.cli.main`` in process
on each tree: first with an empty book cache, then again with the cache the
first run left. It prints each line whose stdout, stderr or exit code
differs between the trees, with both outputs, and exits 1 if any does.

The lines cover ``var``, ``es``, ``decompose``, ``simulate``, ``randomize``
and ``solve``; atom lists with and without an atom at 0, non-dyadic decimal
probabilities, float-neighbour atoms (often at the top), atoms whose sums
overflow, uniform models (a few with empty support), small CSV books with
ties and zeros, every overhead form, tranche and subsidiary counts, Monte
Carlo runs of at most 2 000 trials with and without ``--seed``, and JSON
and CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

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
    n = int(rng.integers(1, 41))
    pool = np.round(rng.uniform(0.0, 50.0, size=int(rng.integers(1, 12))), int(rng.integers(0, 3)))
    losses = rng.choice(np.append(pool, 0.0) if rng.random() < 0.4 else pool, size=n)
    return "loss\n" + "".join(f"{x!r}\n" for x in losses.tolist())


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
            desks = int(rng.integers(1, 45))
            argv += ["--max-desks", str(desks), *_overhead(rng, desks)]
        elif action in ("decompose", "simulate") and rng.random() < 0.5:
            argv += ["--tranches", str(int(rng.integers(1, 45)))]
        elif action == "randomize" and rng.random() < 0.5:
            argv += ["--subsidiaries", str(int(rng.integers(1, 45)))]
        if action in ("simulate", "randomize"):
            argv += ["--trials", str(int(rng.integers(1, 2001)))]
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


def compare(parent: str, change: str, seed: int, count: int) -> int:
    with tempfile.TemporaryDirectory() as books:
        for i, (_, book) in enumerate(lines(seed, count)):
            if book is not None:
                with open(os.path.join(books, f"{i}.csv"), "w", encoding="utf-8") as fh:
                    fh.write(book)
        outcomes = []
        for src in (parent, change):
            cmd = [sys.executable, __file__, "run", src, "--seed", str(seed),
                   "--count", str(count), "--books", books]
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
            outcomes.append(json.loads(done.stdout))
    differ = 0
    for (argv, _), before, after in zip(lines(seed, count), *outcomes):
        if before != after:
            differ += 1
            print(json.dumps({"argv": argv, "parent": before, "change": after}, indent=1))
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
