"""The CLI corpus tool: its lines are seeded and cover what it promises, and
its comparer finds no difference between a tree and itself."""

from pathlib import Path

from cli_corpus import ACTIONS, BOOK, compare, lines

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


def test_a_tree_compared_with_itself_differs_nowhere(capsys):
    assert compare(SRC, SRC, seed=3, count=40) == 0
    assert capsys.readouterr().err == "0 of 40 lines differ (seed 3)\n"
