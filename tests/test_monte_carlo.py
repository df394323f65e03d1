"""Monte Carlo verification in the CLI: empirical unit VaRs and their memory.

``simulate`` and ``randomize`` read every unit's empirical VaR without
building the units' loss columns. These tests build each column explicitly,
from the same seeded draws, and price it as a sample of its own.
"""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from helpers import order_statistic_p
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varsplit import (
    VarsplitError,
    build_model,
    empirical,
    intervals_from_cuts,
    load_losses_csv,
    order_stat_rank,
    randomized_assign,
    sample,
    var,
)
from varsplit.cli import _substream, parse_cli, run_simulation

ALPHAS = ("0.5", "0.75", "0.9", "0.95", "0.99", "0.999", "0.9999999999995")


@st.composite
def sources(draw):
    """A --dist or CSV source: uniform, atoms (maybe one at 0), or repeated samples."""
    kind = draw(st.sampled_from(("uniform", "atoms", "csv")))
    if kind == "uniform":
        lo = draw(st.integers(0, 5))
        return ("dist", f"uniform:{lo},{lo + draw(st.integers(1, 5))}")
    if kind == "atoms":
        m = draw(st.integers(1, 40))
        values = sorted(draw(st.sets(st.integers(0, 50), min_size=m, max_size=m)))
        weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        total = sum(weights)
        pairs = ",".join(f"{v}:{w / total!r}" for v, w in zip(values, weights))
        return ("dist", f"atoms:{pairs}")
    rows = draw(st.lists(st.integers(0, 39), min_size=1, max_size=200))
    return ("csv", "".join(f"{v / 4}\n" for v in rows))


def columns(command, report, losses):
    """Each unit's loss in every trial, one full-length column per unit."""
    if command.action == "simulate":
        return [
            np.where(
                (losses >= iv.lo) & ((losses < iv.hi) | (iv.closed_hi & (losses == iv.hi))),
                losses,
                0.0,
            )
            for iv in intervals_from_cuts(report.cuts)
        ]
    idx = randomized_assign(report.n_units, _substream(command.seed, 1), losses)
    return [np.where(idx == j, losses, 0.0) for j in range(report.n_units)]


@settings(max_examples=120)
@given(
    action=st.sampled_from(("simulate", "randomize")),
    source=sources(),
    alpha=st.sampled_from(ALPHAS),
    trials=st.sampled_from((1, 2, 3, 10, 20, 100, 200, 1000)),
    units=st.one_of(st.none(), st.integers(1, 30)),
    seed=st.integers(0, 2**16),
)
@example(action="simulate", source=("dist", "uniform:0,1"), alpha="0.99",
         trials=100, units=None, seed=42)
@example(action="simulate", source=("dist", "uniform:0,1"), alpha="0.99",
         trials=1000, units=None, seed=42)
@example(action="simulate", source=("dist", "atoms:" + ",".join(f"{v}:0.01" for v in range(100))),
         alpha="0.95", trials=100, units=None, seed=3)
@example(action="simulate", source=("csv", "1\n2\n3\n4\n5\n"), alpha="0.75",
         trials=3, units=None, seed=1)
@example(action="randomize", source=("dist", "atoms:0:0.5,5:0.3,10:0.2"),
         alpha="0.99", trials=100, units=3, seed=42)
@example(action="randomize", source=("csv", "0\n0\n1\n1\n1\n2\n"), alpha="0.95",
         trials=20, units=2, seed=7)
@example(action="randomize", source=("dist", "atoms:0:0.5,5:0.3,10:0.2"),
         alpha="0.9999999999995", trials=20, units=3, seed=5)
# Hot and cold subsidiaries side by side, where a hot one is hit more than
# trials - rank times and can read above 0: 5 of 10 are hot and read 1.0;
# 8 of 9 are hot; with an atom at 0, 7 of 9 are hot and 5 of them read 1.0.
@example(action="randomize", source=("dist", "atoms:1:0.5,2:0.3,3:0.2"), alpha="0.9",
         trials=1000, units=10, seed=3)
@example(action="randomize", source=("dist", "atoms:1:0.5,2:0.3,3:0.2"), alpha="0.9",
         trials=1000, units=9, seed=1)
@example(action="randomize", source=("dist", "atoms:0:0.1,1:0.5,2:0.4"), alpha="0.9",
         trials=1000, units=9, seed=2)
# One trial: the subsidiary it lands on is hit trials - rank + 1 = 1 time,
# the fewest hits that read above 0, and reads that trial's loss.
@example(action="randomize", source=("dist", "uniform:0,1"), alpha="0.5",
         trials=1, units=3, seed=0)
def test_empirical_vars_match_explicit_columns(action, source, alpha, trials, units, seed):
    """``units`` is the subsidiary count, or the tranches added to the minimum."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [action, "--alpha", alpha, "--trials", str(trials), "--seed", str(seed)]
        if source[0] == "dist":
            argv += ["--dist", source[1]]
        else:
            path = Path(tmp) / "book.csv"
            path.write_text("loss\n" + source[1])
            argv += ["--input", str(path)]
        if units is not None and action == "randomize":
            argv += ["--subsidiaries", str(units)]
        command = parse_cli(argv)
        try:
            report = run_simulation(command)
        except VarsplitError:
            return  # an atom too heavy to tranche
        if units is not None and action == "simulate":
            command = parse_cli([*argv, "--tranches", str(report.n_units + units)])
            report = run_simulation(command)
        if command.model_spec is not None:
            model = build_model(command.model_spec)
        else:
            model = load_losses_csv(command.input_path)
    losses = sample(model, _substream(seed, 0), trials)
    cols = columns(command, report, losses)
    assert len(cols) == len(report.tranches)
    for col, row in zip(cols, report.tranches):
        assert row["var_empirical"] == var(empirical(col), float(alpha))


def test_a_draw_on_a_cut_goes_to_the_tranche_above():
    """A float-neighbour pair below the top has the upper atom itself as its cut,
    so 40% of the draws land exactly on it. Routed up, each tranche holds at
    most 60% of the trials and both empirical VaRs at 0.3 are 0; routed down,
    the lower tranche would hold 80% and read 1.0."""
    pair = math.nextafter(1.0, 2.0)
    command = parse_cli([
        "simulate", "--dist", f"atoms:1:0.4,{pair!r}:0.4,5:0.2", "--alpha", "0.3",
        "--trials", "1000", "--seed", "4",
    ])
    report = run_simulation(command)
    assert report.cuts == (0.0, pair, 5.0)
    losses = sample(build_model(command.model_spec), _substream(4, 0), 1000)
    assert np.count_nonzero(losses == pair) > 300
    want = [var(empirical(col), 0.3) for col in columns(command, report, losses)]
    assert [row["var_empirical"] for row in report.tranches] == want == [0.0, 0.0]


def test_monte_carlo_memory_is_bounded_by_trials():
    """10^5 trials over about a thousand units never hold a trials x units array."""
    for argv in (
        ["simulate", "--dist", "uniform:0,1", "--alpha", "0.999", "--trials", "100000"],
        ["randomize", "--dist", "atoms:100:1", "--alpha", "0.999", "--trials", "100000"],
    ):
        command = parse_cli(argv)
        tracemalloc.start()
        try:
            report = run_simulation(command)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.tranches) == 1001
        assert peak < 64 * 2**20, f"{argv[0]} peaked at {peak / 2**20:.1f} MB"


def traced_peak(argv, trials):
    """The report of one run at ``trials`` and its tracemalloc peak, in units
    of one float64 per trial.

    A first run imports what numpy's seeding needs: about 0.7 MB, once per process.
    """
    run_simulation(parse_cli([*argv, "--trials", "10"]))
    command = parse_cli([*argv, "--trials", str(trials)])
    tracemalloc.start()
    try:
        report = run_simulation(command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak / (8 * trials)


def test_simulate_keeps_one_trial_length_array():
    """``simulate`` sorts its draws in place and builds no book from them; a
    discrete draw gathers into its uniforms, so it peaks at two arrays."""
    trials = 100000
    uniform = ["simulate", "--dist", "uniform:0,1", "--alpha", "0.99", "--tranches", "200"]
    report, peak = traced_peak(uniform, trials)
    assert len(report.tranches) == 200
    assert peak < 1.25
    atoms = ["simulate", "--dist", "atoms:1:0.5,2:0.3,3:0.2", "--alpha", "0.3"]
    report, peak = traced_peak(atoms, trials)
    assert len(report.tranches) == 2
    assert peak < 2.1


def test_randomize_with_no_hot_unit_sorts_nothing():
    """200 subsidiaries at 0.99 each take about trials / 200 hits, fewer than
    the trials / 100 a unit needs to read above 0: the draws and the unit
    index are all that ``randomize`` holds."""
    trials = 100000
    argv = ["randomize", "--dist", "atoms:100:1", "--subsidiaries", "200", "--alpha", "0.99"]
    report, peak = traced_peak(argv, trials)
    assert len(report.tranches) == 200
    assert peak < 2.25


def test_randomize_keeps_three_trial_length_arrays():
    """Once any unit is hit more than trials - rank times, every trial is
    sorted by (unit, loss): at 0.9, about half of 10 subsidiaries and both of
    2 are. The unit index goes before the gather, so the draws, their order
    and the gathered draws are the three arrays held."""
    trials = 100000
    dist = ["randomize", "--dist", "atoms:1:0.5,2:0.3,3:0.2", "--alpha", "0.9"]
    for units in (10, 2):
        report, peak = traced_peak([*dist, "--subsidiaries", str(units)], trials)
        assert len(report.tranches) == units
        assert peak < 3.1


#: Book rows for the oracle sweep: 24 distinct values, five of them twice.
ORACLE_BOOK = [k / 4 for k in range(1, 25)] + [1.0, 2.5, 3.0, 4.75, 6.0]

#: Fixed Monte Carlo lines and the law each one samples: ``("uniform", a, b)``
#: or a list of (value, probability) pairs. A randomize line with few
#: subsidiaries has a positive unit VaR, inside a law with many values or on
#: its top atom; every simulate unit VaR is 0 by construction, so those lines
#: put a tranche's mass a few percent below 1 - alpha, where a sampler that
#: is off by 10% would push the empirical VaR above 0.
ORACLE_LINES = [
    (["randomize", "--dist", "atoms:1:0.5,2:0.3,3:0.2", "--alpha", "0.95", "--subsidiaries", "2"],
     [(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]),
    (["randomize", "--dist", "atoms:" + ",".join(f"{v}:0.025" for v in range(1, 41)),
      "--alpha", "0.91", "--subsidiaries", "3"],
     [(float(v), 0.025) for v in range(1, 41)]),
    (["randomize", "--dist", "uniform:2,7", "--alpha", "0.8", "--subsidiaries", "2"], ("uniform", 2.0, 7.0)),
    (["randomize", "--input", "BOOK", "--alpha", "0.9", "--subsidiaries", "2"], ORACLE_BOOK),
    (["randomize", "--input", "BOOK", "--alpha", "0.99", "--subsidiaries", "1"], ORACLE_BOOK),
    (["simulate", "--dist", "uniform:0,1", "--alpha", "0.47", "--tranches", "2"], ("uniform", 0.0, 1.0)),
    (["simulate", "--dist", "atoms:" + ",".join(f"{v}:0.1" for v in range(1, 11)), "--alpha", "0.58"],
     [(float(v), 0.1) for v in range(1, 11)]),
    (["simulate", "--input", "BOOK", "--alpha", "0.6"], ORACLE_BOOK),
]

#: The sweep fails when a cell's p-value falls below this rate over the cell
#: count (Bonferroni), so a correct sampler fails it with probability below 1e-7.
FAMILY_RATE = 1e-7


def law_below(law, x: float, strict: bool, lo: float = 0.0, hi: float = math.inf,
              closed: bool = True) -> float:
    """P(lo <= X < hi, or X == hi when ``closed``, and X < x (``strict``) or X <= x)."""
    if law[0] == "uniform":
        _, a, b = law
        return max(0.0, min(x, hi, b) - max(lo, a)) / (b - a)
    pairs = [(v, p) for v, p in law if lo <= v < hi or (closed and v == hi)]
    return math.fsum(p for v, p in pairs if v < x or (not strict and v == x))


def unit_law(law, action: str, n_units: int, cuts, k: int):
    """``below(y, strict)``: P(U < y) when ``strict``, else P(U <= y), for unit k's loss U."""
    if action == "randomize":
        def below(y, strict):  # U is X with probability 1/N, else 0
            if strict and y <= 0.0:
                return 0.0
            return 1.0 - 1.0 / n_units + law_below(law, y, strict) / n_units
    else:
        lo, hi, closed = cuts[k], cuts[k + 1], k == n_units - 1
        mass = law_below(law, math.inf, False, lo, hi, closed)

        def below(y, strict):  # U is X when X falls in the tranche, else 0
            if strict and y <= 0.0:
                return 0.0
            return 1.0 - mass + law_below(law, y, strict, lo, hi, closed)
    return below


def oracle_cells(tmp_path, trials=100000):
    """One (line, unit, y, p-value) per unit row of every line."""
    book = tmp_path / "oracle_book.csv"
    book.write_text("loss\n" + "".join(f"{v!r}\n" for v in ORACLE_BOOK))
    book_law = [(v, ORACLE_BOOK.count(v) / len(ORACLE_BOOK)) for v in sorted(set(ORACLE_BOOK))]
    cells = []
    for i, (argv, law) in enumerate(ORACLE_LINES):
        argv = [str(book) if a == "BOOK" else a for a in argv]
        law = book_law if law is ORACLE_BOOK else law
        report = run_simulation(parse_cli([*argv, "--trials", str(trials), "--seed", str(i)]))
        r = order_stat_rank(trials, report.alpha)
        for k, row in enumerate(report.tranches):
            below = unit_law(law, argv[0], report.n_units, report.cuts, k)
            y = row["var_empirical"]
            cells.append((i, k, y, order_statistic_p(trials, r, below(y, False), below(y, True))))
    return cells


def test_empirical_unit_vars_follow_their_exact_order_statistic_law(tmp_path):
    """Each unit's empirical VaR is the rank-r order statistic of ``trials``
    independent draws of the unit's own loss U, so P(X_(r) <= y) is the
    binomial tail P(Bin(trials, P(U <= y)) >= r). No cell of the sweep may be
    less likely than the Bonferroni threshold, and some must read above 0."""
    cells = oracle_cells(tmp_path)
    threshold = FAMILY_RATE / len(cells)
    worst = min(cells, key=lambda cell: cell[3])
    assert worst[3] >= threshold, f"line {worst[0]}, unit {worst[1]}: {worst[2]} has p = {worst[3]:.3g}"
    assert sum(y > 0.0 for _, _, y, _ in cells) >= 10
