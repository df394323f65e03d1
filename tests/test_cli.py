"""End-to-end tests for the command line: parsing, reports, serialization."""

import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varsplit import OverheadSchedule
from varsplit.cli import (
    CapitalReport,
    RESTRICTION_NOTE,
    UNIT_COLUMNS,
    emit_report,
    main,
    parse_cli,
    run_simulation,
)

UNIFORM = ["--dist", "uniform:0,1"]
THREE_ATOMS = ["--dist", "atoms:0:0.5,5:0.3,10:0.2"]


def run(argv):
    return run_simulation(parse_cli(argv))


class TestParseCli:
    def test_var_command(self):
        cmd = parse_cli(["var", "--alpha", "0.95", *UNIFORM])
        assert cmd.action == "var"
        assert cmd.model_spec == {"kind": "uniform", "lower": 0.0, "upper": 1.0}
        assert cmd.input_path is None
        assert cmd.alpha == 0.95

    def test_defaults(self):
        cmd = parse_cli(["var", *UNIFORM])
        assert (cmd.alpha, cmd.seed, cmd.format, cmd.out) == (0.95, 42, "json", None)
        for action in ("simulate", "randomize"):
            cmd = parse_cli([action, *UNIFORM])
            assert (cmd.alpha, cmd.trials, cmd.seed, cmd.format) == (0.95, 100000, 42, "json")
            assert cmd.out is None
        assert parse_cli(
            ["solve", *UNIFORM, "--max-desks", "2"]
        ).overhead == OverheadSchedule()

    def test_atoms_descriptor(self):
        cmd = parse_cli(["solve", *THREE_ATOMS, "--max-desks", "2"])
        assert cmd.model_spec == {
            "kind": "atoms",
            "values": [0.0, 5.0, 10.0],
            "probs": [0.5, 0.3, 0.2],
        }
        assert cmd.max_desks == 2

    def test_input_path_command(self):
        cmd = parse_cli(["decompose", "--input", "losses.csv", "--tranches", "21"])
        assert cmd.input_path == "losses.csv"
        assert cmd.model_spec is None
        assert cmd.tranches == 21

    def test_overhead_forms(self):
        solve = ["solve", *UNIFORM, "--max-desks", "2"]
        assert parse_cli(
            [*solve, "--overhead", "none"]
        ).overhead == OverheadSchedule()
        assert parse_cli(
            [*solve, "--overhead", "linear:0.001"]
        ).overhead == OverheadSchedule(rate=0.001)
        assert parse_cli(
            [*solve, "--overhead", "table:0,0.1,0.5"]
        ).overhead == OverheadSchedule(costs=(0.0, 0.1, 0.5))

    def test_each_command_takes_only_the_flags_it_reads(self, capsys):
        """Each command's --help lists its own flags, 43 slots in all, and a
        flag of another command, or a stray word, is a usage error under the
        command's own usage line."""
        common = {"--dist", "--input", "--alpha", "--seed", "--format", "--out"}
        own_flags = {
            "var": set(),
            "es": set(),
            "decompose": {"--tranches"},
            "simulate": {"--tranches", "--trials"},
            "randomize": {"--subsidiaries", "--trials"},
            "solve": {"--max-desks", "--overhead"},
        }
        slots = 0
        for action, own in own_flags.items():
            with pytest.raises(SystemExit) as exc:
                parse_cli([action, "--help"])
            assert exc.value.code == 0
            shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
            assert shown - {"--help"} == common | own
            slots += len(common | own)
        assert slots == 43
        for argv, extras in (
            (["randomize", *UNIFORM, "--tranches", "3"], "--tranches 3"),
            (["decompose", *UNIFORM, "--trials", "10"], "--trials 10"),
            (["var", *UNIFORM, "--overhead", "none"], "--overhead none"),
            (["var", "--dist", "atoms:1:1", "stray"], "stray"),
        ):
            with pytest.raises(SystemExit) as exc:
                parse_cli(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: varsplit {argv[0]} "), err
            assert err.endswith(f"varsplit {argv[0]}: error: unrecognized arguments: {extras}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["var", *UNIFORM, "--alpha", "1.5"],
            ["var", *UNIFORM, "--alpha", "0"],
            ["var"],
            ["var", *UNIFORM, "--input", "x.csv"],
            ["var", "--dist", "gamma:1,2"],
            ["var", "--dist", "uniform:1"],
            ["var", "--dist", "atoms:1;0.5"],
            ["solve", *UNIFORM, "--max-desks", "2", "--overhead", "cubic:1"],
            ["simulate", *UNIFORM, "--trials", "0"],
            ["var", *UNIFORM, "--seed", "-1"],
            ["decompose", *UNIFORM, "--tranches", "0"],
            ["randomize", *UNIFORM, "--subsidiaries", "0"],
            ["solve", *UNIFORM],
            ["frobnicate", *UNIFORM],
            ["solve", *THREE_ATOMS, "--max-desks", "2", "--overhead", "linear:-1"],
            ["solve", *THREE_ATOMS, "--max-desks", "2", "--overhead", "table:0.2,0.1"],
            ["solve", *THREE_ATOMS, "--max-desks", "3", "--overhead", "table:1,2"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        """Each for its own fault, none for a flag its command does not read."""
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" not in capsys.readouterr().err

    def test_short_overhead_table_names_the_flag(self, capsys):
        """A table shorter than --max-desks is a usage error, not a run-time one."""
        argv = ["solve", *THREE_ATOMS, "--max-desks", "3", "--overhead", "table:1,2"]
        with pytest.raises(SystemExit):
            parse_cli(argv)
        assert "--overhead: table covers 1..2 units, --max-desks asks for 3" in (
            capsys.readouterr().err
        )
        assert parse_cli(
            ["solve", *THREE_ATOMS, "--max-desks", "2", "--overhead", "table:1,2"]
        ).overhead == OverheadSchedule(costs=(1.0, 2.0))

    def test_usage_error_names_the_flag(self, capsys):
        """A check after parsing reports under its command's usage, as argparse does."""
        for argv, message in (
            (["var", *UNIFORM, "--alpha", "1.5"], "--alpha: "),
            (["decompose", *UNIFORM, "--tranches", "0"], "--tranches: must be >= 1, got 0"),
            (["simulate", *UNIFORM, "--tranches", "250001"],
             "--tranches: must be <= 250000, got 250001"),
            (["randomize", *UNIFORM, "--subsidiaries", "10000000000"],
             "--subsidiaries: must be <= 250000, got 10000000000"),
            (["simulate", *UNIFORM, "--trials", "10000001"],
             "--trials: must be <= 10000000, got 10000001"),
            (["solve", "--dist", "atoms:1:1", "--max-desks", "2", "--overhead", "cubic:1"],
             "--overhead: unknown overhead 'cubic'"),
        ):
            with pytest.raises(SystemExit):
                parse_cli(argv)
            err = capsys.readouterr().err
            assert err.startswith(f"usage: varsplit {argv[0]} [-h]")
            assert f"\nvarsplit {argv[0]}: error: {message}" in err
        assert parse_cli(["simulate", *UNIFORM, "--tranches", "250000"]).tranches == 250000
        assert parse_cli(["randomize", *UNIFORM, "--subsidiaries", "250000"]).subsidiaries == 250000
        assert parse_cli(["simulate", *UNIFORM, "--trials", "10000000"]).trials == 10**7


class TestReports:
    def test_whole_book_var(self):
        report = run(["var", *UNIFORM])
        assert report.n_units == 1
        assert report.cuts == (0.0, 1.0)
        assert report.var_total == 0.95
        assert report.es_total == 0.975
        assert report.additivity_gap == 0.0
        assert report.trials == 0
        row, = report.tranches
        assert row["mass"] == 1.0
        assert row["var_analytic"] == 0.95
        assert row["var_empirical"] is None
        assert report.restriction_note == RESTRICTION_NOTE

    def test_decompose_is_analytic_only(self):
        report = run(["decompose", *UNIFORM])
        assert report.n_units == 21
        assert len(report.tranches) == 21
        assert report.trials == 0
        assert all(row["var_empirical"] is None for row in report.tranches)
        assert report.sum_tranche_vars == 0.0
        assert report.additivity_gap == -0.95

    def test_simulate_erases_the_charge(self):
        report = run(["simulate", *UNIFORM])
        assert report.trials == 100000
        assert report.sum_tranche_vars == 0.0
        assert report.var_total == 0.95
        assert all(row["var_empirical"] == 0.0 for row in report.tranches)
        assert sum(row["mass"] for row in report.tranches) == pytest.approx(1.0, abs=1e-12)

    def test_randomize_single_atom_book(self):
        report = run(["randomize", "--dist", "atoms:100:1.0", "--subsidiaries", "21"])
        assert report.n_units == 21
        assert report.cuts == ()
        assert report.var_total == 100.0
        assert report.sum_tranche_vars == 0.0
        assert report.additivity_gap == -100.0
        for row in report.tranches:
            assert row["var_analytic"] == 0.0
            assert row["var_empirical"] == 0.0
            assert row["mass"] == pytest.approx(1.0 / 21.0, abs=1e-15)

    def test_solve_worked_instance(self):
        report = run(["solve", *THREE_ATOMS, "--max-desks", "2"])
        assert report.n_units == 1
        assert report.cuts == (0.0, 10.0)
        assert report.sum_tranche_vars == 10.0
        assert report.var_total == 10.0
        assert report.additivity_gap == 0.0
        assert report.trials == 0

    def test_csv_input_round_trip(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + "\n".join(["1.0"] * 30 + ["9.0"] * 10) + "\n")
        report = run(["var", "--input", str(path), "--alpha", "0.9"])
        assert report.model == "empirical:n=40"
        assert report.var_total == 9.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["var", *THREE_ATOMS],
            ["es", *UNIFORM, "--alpha", "0.9"],
            ["decompose", *UNIFORM],
            ["simulate", *THREE_ATOMS, "--alpha", "0.4", "--trials", "1000"],
            ["solve", "--dist", "atoms:1:0.25,2:0.25,3:0.25,4:0.25", "--alpha", "0.5",
             "--max-desks", "4"],
            ["randomize", *THREE_ATOMS, "--trials", "1000"],
        ],
    )
    def test_report_shape(self, argv):
        """One row per unit; a partition has one more cut than units."""
        report = run(argv)
        assert report.n_units == len(report.tranches)
        if argv[0] == "randomize":
            assert report.cuts == ()
        else:
            assert len(report.cuts) == report.n_units + 1
        if argv[0] in ("var", "es"):
            row, = report.tranches
            assert row["var_analytic"] == report.var_total
            assert row["es_analytic"] == report.es_total

    def test_self_consistency(self):
        """Stored aggregates must recompute exactly from the rows."""
        for argv in (
            ["simulate", *UNIFORM],
            ["decompose", *THREE_ATOMS, "--alpha", "0.4", "--tranches", "3"],
            ["solve", *THREE_ATOMS, "--max-desks", "3"],
            ["randomize", "--dist", "atoms:100:1.0"],
        ):
            report = run(argv)
            assert report.sum_tranche_vars == float(
                sum(row["var_analytic"] for row in report.tranches)
            )
            assert report.sum_tranche_es == float(
                sum(row["es_analytic"] for row in report.tranches)
            )
            assert report.additivity_gap == report.sum_tranche_vars - report.var_total


class TestEmitReport:
    def _small_report(self, rows):
        return CapitalReport(
            alpha=0.95,
            model="atoms:5.0:1.0",
            n_units=len(rows),
            cuts=(),
            tranches=tuple(rows),
            var_total=5.0,
            es_total=5.0,
            sum_tranche_vars=0.0,
            sum_tranche_es=5.0,
            additivity_gap=-5.0,
            trials=0,
            seed=42,
        )

    def test_json_key_order(self):
        text = emit_report(run(["var", *UNIFORM]), fmt="json", out="/dev/null")
        doc = json.loads(text)
        assert list(doc) == [
            "alpha", "model", "n_units", "cuts", "tranches", "var_total",
            "es_total", "sum_tranche_vars", "sum_tranche_es", "additivity_gap",
            "trials", "seed", "restriction_note",
        ]
        assert list(doc["tranches"][0]) == [
            "mass", "var_analytic", "var_empirical", "es_analytic",
        ]
        assert doc["tranches"][0]["var_empirical"] is None

    def test_empty_tranche_list(self):
        text = emit_report(self._small_report([]), fmt="json", out="/dev/null")
        assert json.loads(text)["tranches"] == []

    def test_csv_row_count(self):
        rows = [
            {"mass": 0.5, "var_analytic": 0.0, "var_empirical": 0.0, "es_analytic": 2.5},
            {"mass": 0.5, "var_analytic": 0.0, "var_empirical": 0.0, "es_analytic": 2.5},
        ]
        text = emit_report(self._small_report(rows), fmt="csv", out="/dev/null")
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("tranche,mass,var_analytic")
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        assert lines[3].startswith("total,")

    @pytest.mark.parametrize(
        "source, body",
        [
            (
                ["simulate", *UNIFORM, "--alpha", "0.5", "--trials", "4", "--seed", "12"],
                "1,0.3333333333333333,0.0,0.004028527819599059,0.1111111111111111,,,,,,,\n"
                "2,0.3333333333333333,0.0,0.4716858339284439,0.33333333333333326,,,,,,,\n"
                "3,0.33333333333333337,0.0,0.0,0.5555555555555556,,,,,,,\n"
                "total,1.0,0.0,0.47571436174804294,1.0,0.5,0.75,-0.5,0.5,4,12,",
            ),
            (
                ["randomize", *UNIFORM, "--alpha", "0.5", "--subsidiaries", "2",
                 "--trials", "8", "--seed", "1"],
                "1,0.5,0.0,0.15048132893400756,0.5,,,,,,,\n"
                "2,0.5,0.0,0.02567608527090859,0.5,,,,,,,\n"
                "total,1.0,0.0,0.17615741420491615,1.0,0.5,0.75,-0.5,0.5,8,1,",
            ),
            ((), "total,0.0,0.0,,5.0,5.0,5.0,-5.0,0.95,0,42,"),
            (
                (dict(zip(UNIT_COLUMNS, np.array([0.5, 0.0, 0.5, 2.5]))),),
                "1,0.5,0.0,0.5,2.5,,,,,,,\ntotal,0.5,0.0,0.5,5.0,5.0,5.0,-5.0,0.95,0,42,",
            ),
        ],
        ids=["simulate", "randomize", "no-rows", "numpy-floats"],
    )
    def test_csv_bytes(self, source, body):
        """The whole CSV text; every float reads back bit for bit, numpy's too."""
        report = run(source) if isinstance(source, list) else self._small_report(source)
        header = (
            "tranche,mass,var_analytic,var_empirical,es_analytic,var_total,es_total,"
            "additivity_gap,alpha,trials,seed,restriction_note\n"
        )
        text = emit_report(report, fmt="csv", out="/dev/null")
        assert text == header + body + RESTRICTION_NOTE + "\n"

    def test_csv_blank_cells_for_missing_empirical(self):
        report = run(["solve", *THREE_ATOMS, "--max-desks", "2"])
        lines = emit_report(report, fmt="csv", out="/dev/null").strip().split("\n")
        first_row = lines[1].split(",")
        assert first_row[3] == ""

    def test_out_file_matches_return_value(self, tmp_path):
        target = tmp_path / "report.json"
        text = emit_report(run(["var", *UNIFORM]), fmt="json", out=str(target))
        assert target.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("fmt", ["JSON", "xml", "", None])
    def test_unknown_format_is_refused_before_writing(self, fmt, tmp_path, capsys):
        target = tmp_path / "report.out"
        report = self._small_report([])
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            emit_report(report, fmt=fmt, out=str(target))
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            emit_report(report, fmt=fmt)
        assert not target.exists()
        assert capsys.readouterr().out == ""

    def test_serialization_is_deterministic(self):
        report = run(["simulate", *UNIFORM])
        assert emit_report(report, out="/dev/null") == emit_report(report, out="/dev/null")

    def test_floats_round_trip(self):
        """Parsing the JSON back reproduces every float bit for bit."""
        report = run(["decompose", *THREE_ATOMS, "--alpha", "0.4", "--tranches", "3"])
        doc = json.loads(emit_report(report, fmt="json", out="/dev/null"))
        assert doc["var_total"] == report.var_total
        assert doc["additivity_gap"] == report.additivity_gap
        for row, got in zip(report.tranches, doc["tranches"]):
            assert got["mass"] == row["mass"]
            assert got["var_analytic"] == row["var_analytic"]
            assert got["es_analytic"] == row["es_analytic"]


class TestMain:
    def test_success_writes_json(self, capsys):
        assert main(["var", *UNIFORM]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["var_total"] == 0.95

    def test_csv_format(self, capsys):
        assert main(["var", *UNIFORM, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tranche,mass,")

    def test_repeated_runs_are_byte_identical(self, capsys):
        assert main(["simulate", *UNIFORM, "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", *UNIFORM, "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_missing_input_file_is_a_runtime_error(self, capsys):
        assert main(["var", "--input", "/no/such/file.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "file.csv" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_var_and_es_print_the_same_report(self, fmt, tmp_path, capsys):
        """Both reports carry var_total and es_total, so the two commands agree."""
        book = tmp_path / "book.csv"
        book.write_text("loss\n0\n1.5\n1.5\n4\n9.25\n")
        for source in (
            ["--dist", "atoms:1:0.5,3:0.5", "--alpha", "0.9", "--seed", "5"],
            [*UNIFORM, "--alpha", "0.6"],
            ["--input", str(book), "--alpha", "0.5"],
        ):
            shown = []
            for action in ("var", "es"):
                assert main([action, *source, "--format", fmt]) == 0
                shown.append(capsys.readouterr().out)
            assert shown[0] == shown[1]
            assert "var_total" in shown[0] and "es_total" in shown[0]

    def test_negative_zero_is_reported_as_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("loss\n-0.0\n")
        for argv in (
            ["var", "--input", str(path)],
            ["es", "--dist", "atoms:-0.0:0.5,2:0.5", "--alpha", "0.4"],
            ["var", "--dist", "uniform:-0.0,1"],
        ):
            assert main(argv) == 0
            assert "-0.0" not in capsys.readouterr().out

    def test_near_edge_atoms_decompose(self, capsys):
        """Probabilities summing to 1 + 1e-12 decompose and simulate, as they price."""
        pairs = (
            "atoms:1:0.1503170253143521,2:0.1900380041473550,3:0.1974383548446614,"
            "4:0.1325257473231537,5:0.3296808683714777"
        )
        for argv in (["var"], ["decompose"], ["simulate", "--trials", "100"]):
            assert main([*argv, "--dist", pairs, "--alpha", "0.5"]) == 0
            assert capsys.readouterr().err == ""

    def test_solve_keeps_a_top_float_pair_in_one_tranche(self, capsys):
        """No float cut parts 6.5 from the float above it, so the cheapest
        split that keeps them together is the whole book at its VaR."""
        dist = "atoms:2.5:0.254,3.5:0.243,6.5:0.257,6.500000000000001:0.246"
        assert main(["solve", "--dist", dist, "--alpha", "0.5", "--max-desks", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n_units"], doc["sum_tranche_vars"], doc["var_total"]) == (1, 6.5, 6.5)

    def test_decompose_ends_a_group_below_a_top_float_pair(self, capsys):
        """The greedy group that would end between 11.0 and the float above it,
        where no cut exists, ends below the pair, which is free as one tranche."""
        dist = (
            "atoms:1.0:0.140625,3.0:0.109375,3.0000000000000004:0.171875,7.0:0.140625,"
            "8.0:0.140625,11.0:0.171875,11.000000000000002:0.125"
        )
        assert main(["decompose", "--dist", dist, "--alpha", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["mass"] for row in doc["tranches"]] == [0.421875, 0.28125, 0.296875]
        assert doc["sum_tranche_vars"] == 0.0

    @pytest.mark.parametrize("action", [["solve", "--max-desks", "2"], ["decompose"]])
    def test_cut_between_atoms_whose_sum_overflows(self, action):
        """Read from the report object: its summed tranche ES overflows, which JSON refuses."""
        report = run([*action, "--dist", "atoms:1e308:0.5,1.7e308:0.5", "--alpha", "0.3"])
        assert (report.cuts, report.sum_tranche_vars) == ((0.0, 1.35e308, 1.7e308), 0.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--dist", "atoms:1e308:0.3,1.2e308:0.3,1.3e308:0.2,1.7e308:0.2"],
            ["solve", "--dist", "atoms:1e308:0.5,1.7e308:0.5", "--max-desks", "2"],
        ],
    )
    def test_json_refuses_an_infinite_field_that_csv_writes(self, argv, tmp_path, capsys):
        """The tranche ES sum overflows to inf. JSON has no such number, so the
        JSON report is one error line naming the field, with nothing on stdout
        and no --out file; the CSV report writes inf, which float() reads back."""
        argv = [*argv, "--alpha", "0.3"]
        target = tmp_path / "r.json"
        for out in ([], ["--out", str(target)]):
            assert main([*argv, *out]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not target.exists()
            assert captured.err == (
                "error: report field sum_tranche_es is inf, which JSON cannot hold\n"
            )
        assert main([*argv, "--format", "csv"]) == 0
        total = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[-1]
        assert (total["tranche"], float(total["es_analytic"])) == ("total", math.inf)

    def test_level_too_close_to_one_for_any_unit_count(self, capsys):
        """A default unit count at alpha 1 - 5e-13 is an error, not an endless search."""
        for argv in (
            ["randomize", *UNIFORM],
            ["decompose", *UNIFORM],
            ["simulate", *UNIFORM, "--tranches", "5"],
        ):
            assert main([*argv, "--alpha", "0.9999999999995"]) == 1
            assert "no unit count" in capsys.readouterr().err

    def test_module_errors_exit_1(self, capsys):
        assert main(["var", "--dist", "atoms:1:0.9"]) == 1
        assert "sum to 1" in capsys.readouterr().err
        assert main(["decompose", "--dist", "atoms:0:0.5,10:0.5"]) == 1
        assert "never sit strictly below" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", *UNIFORM])
        assert exc.value.code == 2

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        assert main(["var", *UNIFORM, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["var_total"] == 0.95

    def test_module_entry_point_is_quiet(self):
        """``python -m varsplit.cli`` runs one copy of the module: no warning."""
        proc = _run_module(["var", "--dist", "atoms:1:1"])
        assert proc.returncode == 0
        assert proc.stderr == ""


def _child_env(**overrides):
    """This process's environment with ``src`` on PYTHONPATH; None unsets."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {key: value for key, value in env.items() if value is not None}


def _run_module(argv, stdout=subprocess.PIPE, **env):
    return subprocess.run(
        [sys.executable, "-m", "varsplit.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=_child_env(**env), timeout=60,
    )


def test_es_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A 50 000-value book prints the same ES under one and two OpenBLAS
    threads: each unit's ES is summed by ``np.add.reduceat``, which no BLAS
    splits. When ``np.dot`` summed it, this seed's book printed two ES values
    on a two-core machine; one core cannot split a dot, so there this passes
    either way."""
    rng = np.random.default_rng(0)
    book = tmp_path / "book.csv"
    book.write_text("loss\n" + "".join(f"{x!r}\n" for x in rng.lognormal(0.0, 1.0, 50_000).tolist()))
    runs = [
        _run_module(["es", "--input", str(book), "--alpha", "0.01"],
                    OPENBLAS_NUM_THREADS=threads, XDG_CACHE_HOME=str(tmp_path / threads))
        for threads in ("1", "2")
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout


def test_a_book_near_the_top_float_has_the_es_of_its_atom_list(tmp_path, capsys):
    """Its values times its counts overflow, so an ES that weighed values by
    counts before dividing printed inf; now it prints its atom list's ES."""
    book = tmp_path / "book.csv"
    book.write_text("loss\n1e308\n1.7e308\n1.7e308\n1.7e308\n")
    totals = []
    for source in (["--input", str(book)], ["--dist", "atoms:1e308:0.25,1.7e308:0.75"]):
        assert main(["es", *source, "--alpha", "0.1"]) == 0
        totals.append(json.loads(capsys.readouterr().out)["es_total"])
    assert totals[0] == pytest.approx(totals[1], rel=1e-15) and max(totals) <= 1.7e308


def _cap_address_space():
    """Runs in the child before exec: 1 GiB of address space holds the CLI's
    ~140 MB after imports, and a request that allocates per unit past the
    limit meets MemoryError there instead of the machine's memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, code, last",
    [
        (["randomize", "--dist", "atoms:1:1", "--alpha", "0.99999999999"], 1,
         "error: 111111513113 subsidiaries exceed the limit of 250000 units"),
        (["decompose", *UNIFORM, "--alpha", "0.999999999"], 1,
         "error: 1001001063 tranches exceed the limit of 250000 units"),
        (["simulate", *UNIFORM, "--alpha", "0.999999999"], 1,
         "error: 1001001063 tranches exceed the limit of 250000 units"),
        (["decompose", *UNIFORM, "--tranches", "250001"], 2,
         "varsplit decompose: error: --tranches: must be <= 250000, got 250001"),
        (["randomize", "--dist", "atoms:1:1", "--subsidiaries", "111111513113"], 2,
         "varsplit randomize: error: --subsidiaries: must be <= 250000, got 111111513113"),
        (["randomize", "--dist", "atoms:1:1", "--trials", "10000000000"], 2,
         "varsplit randomize: error: --trials: must be <= 10000000, got 10000000000"),
        (["simulate", *UNIFORM, "--trials", "200000000"], 2,
         "varsplit simulate: error: --trials: must be <= 10000000, got 200000000"),
    ],
    ids=[
        "derived-subsidiaries", "derived-tranches", "derived-simulate", "tranches", "subsidiaries",
        "trials", "simulate-trials",
    ],
)
def test_an_oversized_unit_count_fails_before_allocating(argv, code, last):
    """A unit count past MAX_UNITS, given or derived from alpha, or a trial
    count past MAX_TRIALS, is refused by name. The child's address space is
    capped, so a check that came too late would print a MemoryError
    traceback rather than exhaust memory."""
    proc = subprocess.run(
        [sys.executable, "-m", "varsplit.cli", *argv],
        capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS="1"),
        timeout=60, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.splitlines()[-1] == last
    assert proc.stderr.count("error:") == 1


class TestEntryPoint:
    """``run`` freezes the import-time objects; ``main`` never touches the GC."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["var", *UNIFORM],
            ["var", "--input", "/no/such/file.csv"],
            ["var", *UNIFORM, "--alpha", "2"],
        ],
    )
    def test_main_freezes_nothing(self, argv):
        assert gc.get_freeze_count() == 0
        try:
            main(argv)
        except SystemExit:
            pass
        assert gc.get_freeze_count() == 0

    def test_module_entry_freezes_the_imports(self):
        """At exit, the objects frozen by ``python -m varsplit.cli`` remain."""
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['varsplit', 'var', '--dist', 'atoms:1:1']\n"
            "runpy.run_module('varsplit.cli', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert int(proc.stderr) > 1000

    def test_deferred_imports_load_only_when_used(self):
        """``hashlib`` loads only for an ``--input`` book and ``heapq`` only for
        an atoms ``build_partition``, so importing the package loads neither.

        A fresh process, since pytest itself loads ``hashlib``. The last step
        loads ``heapq``, which shows the probe sees a module when it loads.
        """
        probe = (
            "import sys\n"
            "loaded = lambda: [m for m in ('hashlib', 'heapq') if m in sys.modules]\n"
            "import varsplit, varsplit.cli\n"
            "print(loaded(), file=sys.stderr)\n"
            "varsplit.cli.main(['var', '--dist', 'atoms:1:1'])\n"
            "print(loaded(), file=sys.stderr)\n"
            "varsplit.build_partition(varsplit.atoms([1.0, 2.0], [0.5, 0.5]), 0.3)\n"
            "print(loaded(), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == ["[]", "[]", "['heapq']"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", *THREE_ATOMS, "--alpha", "0.95", "--max-desks", "2"], 0),
            (["var", "--input", "/no/such/file.csv"], 1),
            (["var", "--dist", "atoms:1:1", "--alpha", "2"], 2),
        ],
    )
    def test_module_entry_matches_main(self, argv, code, capsys):
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        in_process = capsys.readouterr()
        proc = _run_module(argv)
        assert got == proc.returncode == code
        assert (proc.stdout, proc.stderr) == (in_process.out, in_process.err)

    @pytest.mark.parametrize("unbuffered", [None, "1"])
    @pytest.mark.parametrize(
        "argv",
        [["var", "--dist", "atoms:1:1"], ["decompose", *UNIFORM, "--tranches", "2000"]],
    )
    def test_closed_stdout_is_one_error_line(self, argv, unbuffered):
        """A reader that closed the pipe early: exit 1, one ``error:`` line.

        Buffered stdout fails only at the last flush and unbuffered stdout
        at the write, so both are run whatever the caller's environment.
        """
        proc = _run_into_closed_pipe(argv, unbuffered)
        assert proc.returncode == 1
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"

    def test_closed_stdout_after_help(self):
        """``--help`` exits through SystemExit and still reports the pipe.

        Only buffered stdout is run: argparse ignores a failed write of its
        own, so unbuffered ``--help`` has nothing left to fail.
        """
        proc = _run_into_closed_pipe(["--help"], None)
        assert proc.returncode == 1
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"


def _run_into_closed_pipe(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_module(argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
