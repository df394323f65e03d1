"""Seeded inputs and command lists of the benchmark workloads.

Every input comes from the benchmark's ``--seed`` and integer weights. The
levels and sizes keep every exact tie out of the inputs: no group of atoms
weighs exactly 1 - alpha, no cumulative weight equals alpha, and n * alpha
is never an integer for an empirical book. The program decides such ties in
floating point, and wrongly; that fault is recorded apart and kept out of
the workloads so that each failure here means a new fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from reference import (
    MC_TAIL,
    Case,
    DiscreteLaw,
    UniformLaw,
    chernoff_tail,
    level,
    mc_threshold,
    rank,
)

NAMES = ("solve-hard", "verify-mc", "price-book")

#: Full and smoke sizes of every input. See README.md for what each means.
SIZES = {
    "full": {
        "hard_atoms": 800, "hard_rows": 50_010, "hard_desks": 30,
        "mc_trials": 100_000, "mc_units": 200, "small_rows": 4050, "small_tranches": 250,
        "book_values": 4000, "book_counts": (40, 160), "book_desks": 22,
    },
    "smoke": {
        "hard_atoms": 60, "hard_rows": 2010, "hard_desks": 6,
        "mc_trials": 20_000, "mc_units": 200, "small_rows": 1050, "small_tranches": 250,
        "book_values": 2500, "book_counts": (1, 3), "book_desks": 22,
    },
}

#: Atom-list total weight; probabilities are w / 10**6, exact 6-place decimals.
ATOM_TOTAL = 10**6
HARD_ALPHA = "0.95"
MC_ALPHA = "0.99"
BOOK_ALPHA = "0.999"
EASY_ALPHA = "0.95"


@dataclass
class Workload:
    cases: list[Case]
    #: Models the set-up probe builds: {"csv": path} or {"spec": build_model dict}.
    setup: list[dict]


def require(ok: bool, what: str) -> None:
    """Stop input generation when a construction invariant fails."""
    if not ok:
        raise RuntimeError(f"input construction broke: {what}")


def cents(k) -> str:
    """Exact decimal text of k / 100."""
    k = int(k)
    return f"{k // 100}.{k % 100:02d}"


def distinct_cents(rng, count: int, top: int = 200_000) -> list[str]:
    """``count`` distinct increasing positive 2-decimal values below top / 100."""
    picks = np.sort(rng.choice(top, size=count, replace=False) + 1)
    return [cents(k) for k in picks]


def write_book(path: Path, texts, counts, rng) -> None:
    """A ``loss`` CSV holding texts[i] counts[i] times, rows shuffled."""
    idx = np.repeat(np.arange(len(texts)), counts)
    rng.shuffle(idx)
    table = np.array(texts, dtype=object)
    with path.open("w", newline="") as fh:
        fh.write("loss\n")
        fh.write("\n".join(table[idx].tolist()))
        fh.write("\n")


def fix_rows(counts: np.ndarray, rng, modulus: int, residue: int) -> np.ndarray:
    """Add one row to a few values so that the row total is residue mod modulus."""
    short = (residue - int(counts.sum())) % modulus
    counts = counts.copy()
    counts[rng.choice(counts.size, size=short, replace=False)] += 1
    return counts


def greedy_groups(counts, bound: int) -> int:
    """Fewest contiguous groups with each total at most ``bound`` (greedy is optimal)."""
    groups, acc = 1, 0
    for c in counts:
        c = int(c)
        if c > bound:
            raise ValueError(f"a single value holds {c} rows, above {bound}")
        if acc + c > bound:
            groups, acc = groups + 1, c
        else:
            acc += c
    return groups


def free_rows(n: int, alpha: str) -> int:
    """Most rows a tranche of an n-row book may hold and still have VaR 0."""
    return n - rank(n, level(alpha))


def hard_atoms(rng, m: int) -> tuple[list[str], np.ndarray]:
    """m atoms whose top atom outweighs 1 - 0.95, tie-free by divisibility.

    All weights but the top one are multiples of 7 and the top weight is
    1 mod 7 (the total 10**6 is 1 mod 7). A run of atoms then weighs 0 or 1
    mod 7, never 50_000 (6 mod 7) and never 950_000 (2 mod 7), so no group
    mass equals 1 - alpha and no cumulative mass equals alpha.
    """
    t = int(rng.integers(7143, 12858))
    top = 7 * t + 1
    rest = (ATOM_TOTAL - top) // 7
    k = rng.multinomial(rest - (m - 1), np.full(m - 1, 1.0 / (m - 1))) + 1
    weights = np.append(7 * k, top)
    require(weights.sum() == ATOM_TOTAL and top > ATOM_TOTAL // 20, "hard atom weights")
    return distinct_cents(rng, m), weights


def _solve_hard(rng, work: Path, size: dict, seed_of) -> Workload:
    m, desks = size["hard_atoms"], size["hard_desks"]
    texts, weights = hard_atoms(rng, m)
    atoms_law = DiscreteLaw(texts, weights)
    dist = "atoms:" + ",".join(f"{v}:0.{w:06d}" for v, w in zip(texts, weights))

    n = size["hard_rows"]
    require(n % 20 == 10, "hard book rows must be 10 mod 20")
    top = int(rng.integers(n // 20 * 6 // 5, n // 20 * 8 // 5))
    rest = rng.multinomial(n - top - (m - 1), np.full(m - 1, 1.0 / (m - 1))) + 1
    counts = np.append(rest, top)
    csv_texts = distinct_cents(rng, m)
    require(top > free_rows(n, HARD_ALPHA), "hard book top value too light")
    path = work / "hard.csv"
    write_book(path, csv_texts, counts, rng)
    csv_law = DiscreteLaw(csv_texts, counts)

    rate = cents(rng.integers(1, 500))
    table = ",".join(cents(c) for c in np.cumsum(rng.integers(1, 300, size=desks)))
    cases = []
    for source, law, prefix in (
        (["--dist", dist], atoms_law, "atoms:"),
        (["--input", str(path)], csv_law, f"empirical:n={n}"),
    ):
        for overhead in (f"linear:{rate}", f"table:{table}"):
            seed = seed_of()
            argv = ["solve", *source, "--alpha", HARD_ALPHA, "--max-desks", str(desks),
                    "--overhead", overhead, "--seed", str(seed)]
            # Any group holding the top atom is charged its value and one desk
            # already pays exactly that, so the optimum is one desk.
            cases.append(Case(argv, law, HARD_ALPHA, seed, "tranche", units=1,
                              sum_vars=law.max_loss, model_prefix=prefix))
    spec = {"kind": "atoms", "values": [float(v) for v in texts],
            "probs": [w / ATOM_TOTAL for w in weights.tolist()]}
    return Workload(cases, [{"spec": spec}, {"csv": str(path)}])


def _verify_mc(rng, work: Path, size: dict, seed_of) -> Workload:
    trials, units = size["mc_trials"], size["mc_units"]
    alpha = level(MC_ALPHA)
    # Uniform tranches and randomized units each take a loss with chance
    # 1/units; the Chernoff bound on that binomial tail sizes them.
    tail = units * chernoff_tail(trials, Fraction(1, units), mc_threshold(trials, alpha))
    require(tail < MC_TAIL, f"{units} units at {trials} trials: tail bound {tail:.3g}")

    rows = size["small_rows"]
    require(rows % 100 == 50, "small book rows must be 50 mod 100")
    small = distinct_cents(rng, rows)
    path = work / "small.csv"
    write_book(path, small, np.ones(rows, dtype=np.int64), rng)
    common = ["--alpha", MC_ALPHA, "--trials", str(trials)]

    cases = []
    seed = seed_of()
    cases.append(Case(
        ["simulate", "--dist", "uniform:0,1", "--tranches", str(units), *common,
         "--seed", str(seed)],
        UniformLaw(Fraction(0), Fraction(1)), MC_ALPHA, seed, "tranche", trials=trials,
        units=units, sum_vars=0.0, below_budget=True, mc=True, model_prefix="uniform:0.0,1.0"))
    seed = seed_of()
    cases.append(Case(
        ["simulate", "--input", str(path), "--tranches", str(size["small_tranches"]),
         *common, "--seed", str(seed)],
        DiscreteLaw(small, np.ones(rows, dtype=np.int64)), MC_ALPHA, seed, "tranche",
        trials=trials, units=size["small_tranches"], sum_vars=0.0, below_budget=True,
        mc=True, model_prefix=f"empirical:n={rows}"))
    seed = seed_of()
    cases.append(Case(
        ["randomize", "--dist", "atoms:100:1", "--subsidiaries", str(units), *common,
         "--seed", str(seed)],
        DiscreteLaw(["100"], [1]), MC_ALPHA, seed, "randomized", trials=trials,
        units=units, sum_vars=0.0, mc=True, model_prefix="atoms:"))
    setup = [
        {"spec": {"kind": "uniform", "lower": 0.0, "upper": 1.0}},
        {"csv": str(path)},
        {"spec": {"kind": "atoms", "values": [100.0], "probs": [1.0]}},
    ]
    return Workload(cases, setup)


def _price_book(rng, work: Path, size: dict, seed_of) -> Workload:
    texts = distinct_cents(rng, size["book_values"])
    lo, hi = size["book_counts"]
    counts = rng.integers(lo, hi, size=len(texts))
    # n = 10 mod 20 keeps n * 0.95 and n * 0.999 off the integers.
    counts = fix_rows(counts, rng, 20, 10)
    n = int(counts.sum())
    path = work / "book.csv"
    write_book(path, texts, counts, rng)
    law = DiscreteLaw(texts, counts)
    tranches = greedy_groups(counts, free_rows(n, BOOK_ALPHA))
    desks = greedy_groups(counts, free_rows(n, EASY_ALPHA))
    require(desks <= size["book_desks"], f"easy solve needs {desks} desks")
    prefix = f"empirical:n={n}"
    cases = []
    for action in ("var", "es", "decompose"):
        seed = seed_of()
        argv = [action, "--input", str(path), "--alpha", BOOK_ALPHA, "--seed", str(seed)]
        if action == "decompose":
            cases.append(Case(argv, law, BOOK_ALPHA, seed, "tranche", units=tranches,
                              sum_vars=0.0, below_budget=True, model_prefix=prefix))
        else:
            cases.append(Case(argv, law, BOOK_ALPHA, seed, "whole", units=1,
                              model_prefix=prefix))
    seed = seed_of()
    cases.append(Case(
        ["solve", "--input", str(path), "--alpha", EASY_ALPHA, "--max-desks",
         str(size["book_desks"]), "--seed", str(seed)],
        law, EASY_ALPHA, seed, "tranche", units=desks, sum_vars=0.0, model_prefix=prefix))
    return Workload(cases, [{"csv": str(path)}])


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Write the inputs of workload ``name`` under ``work`` and list its commands."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    seeds = np.random.default_rng([seed, NAMES.index(name), 1])
    maker = {"solve-hard": _solve_hard, "verify-mc": _verify_mc, "price-book": _price_book}
    wl = maker[name](rng, work, SIZES[size], lambda: int(seeds.integers(0, 2**31)))
    (work / "setup.json").write_text(json.dumps(wl.setup))
    return wl
