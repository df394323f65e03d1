"""The README's examples stay true: its commands and its Library snippet,
run here, give what the README shows next to them."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from varsplit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

COMMANDS = {
    "decompose": "varsplit decompose --dist uniform:0,1 --alpha 0.6 --tranches 3",
    "simulate": "varsplit simulate --dist uniform:0,1 --alpha 0.95 --tranches 21 "
    "--trials 100000 --seed 42",
    "randomize": "varsplit randomize --dist atoms:100:1 --alpha 0.95 --subsidiaries 21",
    "solve": "varsplit solve --dist atoms:0:0.5,5:0.3,10:0.2 --alpha 0.95 "
    "--max-desks 2 --format csv",
}

#: The Library snippet's checked statements and the value each one's comment shows.
LIBRARY = {
    "var(book, 0.95)": "0.95",
    "expected_shortfall(book, 0.95)": "0.975",
    "n = min_subsidiaries(0.95)": "21",
    "sum(tranche_vars)": "0.0",
}


def fenced_blocks() -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.M | re.S)


def command_examples() -> dict[str, list[str]]:
    """Each ``$ varsplit ...`` block: its command, continuation lines joined,
    and the lines it shows as output."""
    examples = {}
    for block in fenced_blocks():
        if block.startswith("$ varsplit"):
            lines = block.splitlines()
            command = lines.pop(0)
            while command.endswith("\\"):
                command = command[:-1].rstrip() + " " + lines.pop(0).strip()
            examples[command.removeprefix("$ ")] = lines
    return examples


def run(command: str, capsys) -> str:
    assert main(shlex.split(command)[1:]) == 0
    return capsys.readouterr().out


def test_the_readme_shows_every_command_tested_here():
    assert sorted(command_examples()) == sorted(COMMANDS.values())


def test_decompose_example(capsys):
    doc = json.loads(run(COMMANDS["decompose"], capsys))
    shown = "\n".join(command_examples()[COMMANDS["decompose"]])
    fields = dict(re.findall(r'^  "(\w+)": (.*?),?$', shown, re.M))
    for key in (
        "alpha", "model", "n_units", "cuts", "var_total", "es_total",
        "sum_tranche_vars", "sum_tranche_es", "additivity_gap", "trials", "seed",
    ):
        assert json.loads(fields[key]) == doc[key], key
    first = re.search(r'"tranches": \[\s*(\{.*?\}),', shown, re.S).group(1)
    assert json.loads(first) == doc["tranches"][0]
    note = re.search(r'"restriction_note": "(.*?)"', shown, re.S).group(1)
    assert " ".join(note.split()) == doc["restriction_note"]


@pytest.mark.parametrize("name", ["simulate", "randomize"])
def test_commented_examples(name, capsys):
    """``key value`` pairs in the comment: a report field, or a field every
    row has; ``95.238...`` shows the leading digits."""
    doc = json.loads(run(COMMANDS[name], capsys))
    comment = " ".join(line.lstrip("# ") for line in command_examples()[COMMANDS[name]])
    pairs = re.findall(r"(\w+) (-?\d+(?:\.\d+)?)(\.\.\.)?", comment)
    assert len(pairs) >= 5
    for key, value, cut in pairs:
        got = [doc[key]] if key in doc else [row[key] for row in doc["tranches"]]
        for v in got:
            assert str(v).startswith(value) if cut else str(v) == value, (key, v)


def test_solve_csv_example(capsys):
    """Every line as shown; a line ending in ``...`` up to there."""
    got = run(COMMANDS["solve"], capsys).splitlines()
    shown = command_examples()[COMMANDS["solve"]]
    assert len(got) == len(shown) == 3
    for want, line in zip(shown, got):
        assert line.startswith(want[:-3]) if want.endswith("...") else line == want


def test_library_snippet():
    """Run the snippet statement by statement; each numeric comment is the
    value of its statement (or of the name it assigns)."""
    snippet = next(b for b in fenced_blocks() if "from varsplit import" in b)
    lines = snippet.splitlines()
    scope: dict = {}
    checked = {}
    for stmt in ast.parse(snippet).body:
        source = ast.get_source_segment(snippet, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else None
            value = scope[target.id] if isinstance(target, ast.Name) else None
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
        shown = re.match(r"\s*#\s*(-?\d+(?:\.\d+)?)", comment)
        if shown is None:
            continue
        assert str(value) == shown.group(1), source
        checked[source] = shown.group(1)
    assert checked == LIBRARY
