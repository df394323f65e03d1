"""The CLI corpus tool: its lines are seeded and cover what it promises, and
its comparer finds no difference between a tree and itself and counts the
cells that differ by field and model kind."""

import json
import math
from pathlib import Path

from cli_corpus import ACTIONS, BOOK, cell_counts, compare, lines

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_lines_are_seeded_and_cover_every_shape():
    first = lines(5, 400)
    assert first == lines(5, 400) != lines(6, 400)
    assert {argv[0] for argv, _ in first} == set(ACTIONS)
    text = [" ".join(argv) for argv, _ in first]
    for shape in (
        f"--input {BOOK}", "atoms:0.0:", "--dist uniform:0.0,", "--dist uniform:",
        "--overhead none", "--overhead linear:", "--overhead table:", "--format csv",
        "--format json", "--tranches ", "--subsidiaries ", "--seed ", "e+308:",
    ):
        assert any(shape in t for t in text), shape
    trials = [int(argv[argv.index("--trials") + 1]) for argv, _ in first if "--trials" in argv]
    assert trials and max(trials) <= 2000
    assert all(("--trials" in argv) == (argv[0] in ("simulate", "randomize")) for argv, _ in first)
    assert all((book is not None) == (BOOK in argv) for argv, book in first)
    books = [book for _, book in first if book is not None]
    rows = [book.split()[1:] for book in books]
    assert any("\r\n" in book for book in books)
    assert any("_" in book for book in books)
    assert any(len(r) == 1 for r in rows)
    assert any("-0.0" in r for r in rows)
    assert any(not all(map(_loss, r)) for r in rows)
    zero = {argv[i - 1] for argv, _ in first for i, a in enumerate(argv) if a == "0"}
    assert {"--tranches", "--max-desks", "--trials"} <= zero  # a usage error each


def _loss(text: str) -> bool:
    """Whether a book row reads as a finite loss >= 0."""
    try:
        return 0.0 <= float(text) < math.inf
    except ValueError:
        return False


def test_a_tree_compared_with_itself_differs_nowhere(capsys):
    assert compare(SRC, SRC, seed=3, count=40) == 0
    assert capsys.readouterr().err == "0 of 40 lines differ (seed 3)\n"


def test_cell_counts_name_each_differing_field_and_model_kind():
    """A JSON line counts its top-level keys and each tranche row's keys, a CSV
    line its columns, any other text one ``stdout`` cell, and a report that
    vanishes each of its cells; exit code and stderr count once each, and a
    warm run that differs as the cold one did counts once."""
    doc = {"es_total": 2.0, "tranches": [{"mass": 0.5, "es_analytic": 1.0}] * 2}
    moved = {**doc, "tranches": [{"mass": 0.5, "es_analytic": 1.0}, {"mass": 0.5, "es_analytic": 1.5}]}
    before = [0, json.dumps(doc), ""]
    after = [0, json.dumps(moved), ""]
    atoms_line = ["es", "--dist", "atoms:1:1"]
    assert cell_counts(atoms_line, [before, before], [after, after]) == {("es_analytic", "atoms"): 1}
    csv0 = "tranche,mass,es_analytic\n1,0.5,1.0\ntotal,1.0,1.0\n"
    csv1 = "tranche,mass,es_analytic\n1,0.5,1.25\ntotal,1.0,1.25\n"
    book_line = ["es", "--input", BOOK]
    assert cell_counts(book_line, [[0, csv0, ""]] * 2, [[0, csv1, ""]] * 2) == {
        ("es_analytic", "book"): 2
    }
    uniform_line = ["var", "--dist", "uniform:0,1"]
    assert cell_counts(uniform_line, [[1, "", "a\n"]] * 2, [[2, "usage\n", "b\n"]] * 2) == {
        ("exit", "uniform"): 1, ("stderr", "uniform"): 1, ("stdout", "uniform"): 1
    }
    gone = cell_counts(atoms_line, [before, before], [[1, "", "error\n"], before])
    assert gone == {("exit", "atoms"): 1, ("stderr", "atoms"): 1, ("stdout", "atoms"): 1,
                    ("es_total", "atoms"): 1, ("mass", "atoms"): 2, ("es_analytic", "atoms"): 2}
