"""Properties every CLI report keeps, whatever its numbers, checked on 200
lines of the seeded corpus run in process. Each line runs twice, once with
``--format json`` and once with ``--format csv``. Beyond the report's own
arithmetic, a split's tranche masses pass the mass bound, and a solved split
pays no less than as many randomized units would."""

import csv
import io
import json

import pytest

from cli_corpus import BOOK, lines
from varsplit import build_model, load_losses_csv, randomized_unit_var
from varsplit.cli import main, parse_cli
from varsplit.structuring import _mass_ok

LINES = lines(17, 200)

#: A CSV row's unit columns, and the numeric report columns its totals row fills.
UNIT_COLUMNS = ("mass", "var_analytic", "var_empirical", "es_analytic")
REPORT_COLUMNS = ("var_total", "es_total", "additivity_gap", "alpha", "trials", "seed")


def _refuse(token: str):
    raise ValueError(f"{token} is not JSON")


def outcome(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: a usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def max_loss(argv: list[str], book: str | None) -> float:
    """The top of the line's support, read from its own text."""
    if book is not None:
        return max(float(x) for x in book.split()[1:])
    kind, _, rest = argv[argv.index("--dist") + 1].partition(":")
    if kind == "uniform":
        return float(rest.split(",")[1])
    return max(float(item.split(":")[0]) for item in rest.split(","))


def cell(text: str) -> float | None:
    return None if text == "" else float(text)


@pytest.mark.parametrize("index", range(len(LINES)))
def test_report_invariants(index, tmp_path, capsys):
    argv, book = LINES[index]
    if book is not None:
        path = tmp_path / "book.csv"
        path.write_text(book, encoding="utf-8", newline="")
        argv = [str(path) if a == BOOK else a for a in argv]
    code, out, err = outcome([*argv, "--format", "json"], capsys)
    csv_code, csv_out, csv_err = outcome([*argv, "--format", "csv"], capsys)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if "which JSON cannot hold" in err:  # CSV writes inf or nan
            assert csv_code == 0 and csv_err == ""
            return
    if code != 0:
        assert (csv_code, csv_out, csv_err) == (code, out, err)
        return
    assert err == ""
    doc = json.loads(out, parse_constant=_refuse)
    rows = doc["tranches"]
    assert doc["n_units"] == len(rows)
    assert doc["sum_tranche_vars"] == sum(row["var_analytic"] for row in rows)
    assert doc["additivity_gap"] == doc["sum_tranche_vars"] - doc["var_total"]
    cuts = doc["cuts"]
    if argv[0] in ("decompose", "simulate", "solve"):
        assert cuts[0] == 0.0 and cuts[-1] == max_loss(argv, book)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert len(cuts) == len(rows) + 1
    if argv[0] in ("decompose", "simulate"):
        assert all(_mass_ok(row["mass"], doc["alpha"]) for row in rows)
    if argv[0] == "solve":
        spec = parse_cli(argv).model_spec
        model = build_model(spec) if spec is not None else load_losses_csv(path)
        floor = randomized_unit_var(model, doc["n_units"], doc["alpha"])
        assert doc["sum_tranche_vars"] >= floor

    assert (csv_code, csv_err) == (0, "")
    table = list(csv.DictReader(io.StringIO(csv_out)))
    *units, total = table
    assert [unit["tranche"] for unit in units] == [str(k) for k in range(1, len(rows) + 1)]
    assert [[cell(unit[c]) for c in UNIT_COLUMNS] for unit in units] == [
        [row[c] for c in UNIT_COLUMNS] for row in rows
    ]
    assert total["tranche"] == "total"
    assert float(total["mass"]) == sum(row["mass"] for row in rows)
    assert float(total["var_analytic"]) == doc["sum_tranche_vars"]
    assert float(total["es_analytic"]) == doc["sum_tranche_es"]
    assert [cell(total[c]) for c in REPORT_COLUMNS] == [doc[c] for c in REPORT_COLUMNS]
    assert total["restriction_note"] == doc["restriction_note"]
