"""End-to-end tests for the command line: parsing, reports, serialization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from varsplit import OverheadSchedule
from varsplit.cli import (
    CapitalReport,
    RESTRICTION_NOTE,
    TrancheRow,
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
        assert (cmd.alpha, cmd.trials, cmd.seed, cmd.format) == (0.95, 100000, 42, "json")
        assert cmd.overhead == OverheadSchedule.none()
        assert cmd.out is None

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
        assert parse_cli(
            ["var", *UNIFORM, "--overhead", "none"]
        ).overhead == OverheadSchedule.none()
        assert parse_cli(
            ["var", *UNIFORM, "--overhead", "linear:0.001"]
        ).overhead == OverheadSchedule.linear(0.001)
        assert parse_cli(
            ["var", *UNIFORM, "--overhead", "table:0,0.1,0.5"]
        ).overhead == OverheadSchedule.table((0.0, 0.1, 0.5))

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
            ["var", *UNIFORM, "--overhead", "cubic:1"],
            ["var", *UNIFORM, "--trials", "0"],
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
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2

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
        ).overhead == OverheadSchedule.table((1.0, 2.0))

    def test_usage_error_names_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            parse_cli(["var", *UNIFORM, "--alpha", "1.5"])
        assert "--alpha" in capsys.readouterr().err


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
        assert row.mass == 1.0
        assert row.var_analytic == 0.95
        assert row.var_empirical is None
        assert report.restriction_note == RESTRICTION_NOTE

    def test_decompose_is_analytic_only(self):
        report = run(["decompose", *UNIFORM])
        assert report.n_units == 21
        assert len(report.tranches) == 21
        assert report.trials == 0
        assert all(row.var_empirical is None for row in report.tranches)
        assert report.sum_tranche_vars == 0.0
        assert report.additivity_gap == -0.95

    def test_simulate_erases_the_charge(self):
        report = run(["simulate", *UNIFORM])
        assert report.trials == 100000
        assert report.sum_tranche_vars == 0.0
        assert report.var_total == 0.95
        assert all(row.var_empirical == 0.0 for row in report.tranches)
        assert sum(row.mass for row in report.tranches) == pytest.approx(1.0, abs=1e-12)

    def test_randomize_single_atom_book(self):
        report = run(["randomize", "--dist", "atoms:100:1.0", "--subsidiaries", "21"])
        assert report.n_units == 21
        assert report.cuts == ()
        assert report.var_total == 100.0
        assert report.sum_tranche_vars == 0.0
        assert report.additivity_gap == -100.0
        for row in report.tranches:
            assert row.var_analytic == 0.0
            assert row.var_empirical == 0.0
            assert row.mass == pytest.approx(1.0 / 21.0, abs=1e-15)

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
            assert row.var_analytic == report.var_total
            assert row.es_analytic == report.es_total

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
                sum(row.var_analytic for row in report.tranches)
            )
            assert report.sum_tranche_es == float(
                sum(row.es_analytic for row in report.tranches)
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
            TrancheRow(mass=0.5, var_analytic=0.0, var_empirical=0.0, es_analytic=2.5),
            TrancheRow(mass=0.5, var_analytic=0.0, var_empirical=0.0, es_analytic=2.5),
        ]
        text = emit_report(self._small_report(rows), fmt="csv", out="/dev/null")
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("tranche,mass,var_analytic")
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        assert lines[3].startswith("total,")

    def test_csv_blank_cells_for_missing_empirical(self):
        report = run(["solve", *THREE_ATOMS, "--max-desks", "2"])
        lines = emit_report(report, fmt="csv", out="/dev/null").strip().split("\n")
        first_row = lines[1].split(",")
        assert first_row[3] == ""

    def test_out_file_matches_return_value(self, tmp_path):
        target = tmp_path / "report.json"
        text = emit_report(run(["var", *UNIFORM]), fmt="json", out=str(target))
        assert target.read_text(encoding="utf-8") == text

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
            assert got["mass"] == row.mass
            assert got["var_analytic"] == row.var_analytic
            assert got["es_analytic"] == row.es_analytic


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
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "varsplit.cli", "var", "--dist", "atoms:1:1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
