import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from frqme import PulseSpec, single_qubit_scenario
from frqme.cli import _FLOAT_CELL, _write_csv, default_config, main


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def as_complex_matrix(doc):
    return np.array([[complex(cell["re"], cell["im"]) for cell in row] for row in doc])


def csv_writer_bytes(header, rows):
    """Reference CSV: csv.writer rows with float cells formatted one by one."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{cell:.17g}" if isinstance(cell, float) else cell for cell in row])
    return buffer.getvalue().encode("utf-8")


class TestRun:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out)) == 0
        doc = read_json(out / "result.json")
        assert doc["comparison"]["verdict"] == "pass"
        assert doc["scenario"] == "single_qubit"
        assert doc["version"]
        assert (out / "timeseries.csv").exists()

    def test_polar_initial_state_lands_on_maximally_mixed(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("run", "--out", str(out), "--set", "theta=0", "--set", "phi=0")
        assert code == 0
        doc = read_json(out / "result.json")
        final = as_complex_matrix(doc["matrices"]["final"])
        np.testing.assert_allclose(final, np.eye(2) / 2.0, atol=1e-9)
        assert doc["comparison"]["verdict"] == "pass"

    def test_two_qubit_probability_table(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "scenario=two_qubit") == 0
        doc = read_json(out / "result.json")
        table = doc["comparison"]["probability_table"]
        assert [row["predicted_probability"] for row in table] == [0.5, 0.5]
        for row in table:
            assert row["simulated_weight"] == pytest.approx(0.5, abs=1e-9)
        groups = doc["degeneracy_groups"]
        assert [g["indices"] for g in groups] == [[0, 1], [2, 3]]
        assert [g["eigenvalue"] for g in groups] == [-0.5, 0.5]

    def test_custom_identity_drive_passes_trivially(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "tau_c": 1.5,
            "custom": {
                "hamiltonian": [[1.0, 0.0], [0.0, 1.0]],
                "rho0": [[{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": -0.5}],
                         [{"re": 0.0, "im": 0.5}, {"re": 0.5, "im": 0.0}]],
                "t_max": 2.0,
            },
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        doc = read_json(out / "result.json")
        assert doc["comparison"]["verdict"] == "pass"
        assert doc["convergence_time"] is None
        assert doc["matrices"]["final"] == doc["matrices"]["initial"]
        assert doc["parameters"]["kappa"] is None

    def test_artifacts_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--out", str(first)) == 0
        assert run_cli("run", "--out", str(second)) == 0
        assert (first / "result.json").read_bytes() == (second / "result.json").read_bytes()
        assert (first / "timeseries.csv").read_bytes() == (second / "timeseries.csv").read_bytes()

    def test_result_document_details(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out)) == 0
        doc = read_json(out / "result.json")
        # default drive: unit gap between the two levels, so the reported
        # horizon is -ln(eps)/(tau_c * gap^2)
        assert doc["convergence_time"] == pytest.approx(-math.log(1e-14), rel=1e-12)
        groups = doc["degeneracy_groups"]
        assert [g["eigenvalue"] for g in groups] == [-0.5, 0.5]
        p_upper = 0.5 * (1.0 + math.sin(math.pi / 2) * math.sin(math.pi / 4))
        assert groups[1]["probability"] == pytest.approx(p_upper, abs=1e-12)
        assert groups[1]["simulated_weight"] == pytest.approx(p_upper, abs=1e-8)
        initial = as_complex_matrix(doc["matrices"]["initial"])
        assert initial[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert doc["matrices"]["asymptotic"] == doc["matrices"]["born_post_state"]

    def test_eps_converge_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--eps-converge", "1e-4") == 0
        doc = read_json(out / "result.json")
        assert doc["convergence_time"] == pytest.approx(-math.log(1e-4), rel=1e-12)

    def test_timeseries_format(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "grid_points=50") == 0
        raw = (out / "timeseries.csv").read_bytes()
        assert raw.count(b"\r\n") == 51
        with (out / "timeseries.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "purity", "max_cross_group_coherence",
                           "trace_distance_to_born"]
        assert len(rows) == 51
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)

    def test_timeseries_bytes_match_csv_writer(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "grid_points=600") == 0
        series = single_qubit_scenario(math.pi / 2.0, math.pi / 4.0, PulseSpec(),
                                       grid_points=600).time_series
        expected = csv_writer_bytes(
            ("t", "purity", "max_cross_group_coherence", "trace_distance_to_born"),
            series.tolist(),
        )
        assert (out / "timeseries.csv").read_bytes() == expected

    def test_csv_cells_match_csv_writer(self, tmp_path):
        header = ("name", "a", "b", "c")
        rows = [
            ["kappa", -0.0, 0.0, 5e-324],
            ["tau_c", 1e-300, -2.5e-17, 1e16],
            ["theta", 0.1, 1.0 / 3.0, 123456789.123456789],
            ["phi", math.nan, math.inf, -math.inf],
        ]
        path = tmp_path / "cells.csv"
        _write_csv(path, header, ("%s",) + (_FLOAT_CELL,) * 3, rows)
        assert path.read_bytes() == csv_writer_bytes(header, rows)

    def test_short_pulse_fails_comparison(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "kappa=1") == 3
        doc = read_json(out / "result.json")
        assert doc["comparison"]["verdict"] == "fail"

    def test_zero_trace_tolerance_is_numerical_failure(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "tolerances.trace=0") == 2
        assert not (out / "result.json").exists()


class TestAtomicArtifacts:
    @staticmethod
    def failing_writer(handle, *args, **kwargs):
        handle.write("t,purity\r\n0,")
        raise OSError("disk full")

    def test_failed_series_write_keeps_old_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out)) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(csv, "writer", self.failing_writer)
        with pytest.raises(OSError, match="disk full"):
            run_cli("run", "--out", str(out), "--set", "kappa=25")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    def test_failed_sweep_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(csv, "writer", self.failing_writer)
        with pytest.raises(OSError, match="disk full"):
            run_cli("sweep", "--out", str(out), "--set", "sweep.parameter=kappa",
                    "--set", "sweep.values=[5]")
        assert list(out.iterdir()) == []


class TestConfigErrors:
    @pytest.mark.parametrize("assignment", [
        "kappa=-3", "omega1=0", "omega1=-1", "tau_c=-1",
        "tolerances.psd=-1", 'tolerances.herm="tight"', "tolerances.trace=true",
        # a missing key, which Tolerances would fill from its default
        "tolerances={}",
        "compare_tol=-1",
    ])
    def test_rejected_value(self, tmp_path, assignment):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", assignment) == 1
        assert not (out / "result.json").exists()

    def test_unknown_scenario(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "scenario=blah") == 1

    def test_unknown_key(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "kapa=5") == 1

    def test_bad_set_syntax(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "kappa") == 1

    def test_non_integer_grid(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "grid_points=2.5") == 1
        assert run_cli("run", "--out", str(tmp_path), "--set", "grid_points=1") == 1

    def test_eps_out_of_range(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "eps_converge=2") == 1

    @pytest.mark.parametrize("key", ["herm", "compare"])
    def test_infinite_tolerance(self, tmp_path, key):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", f"tolerances.{key}=Infinity") == 1
        assert not (out / "result.json").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 1

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("run", "--config", str(bad)) == 1

    def test_custom_requires_block(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "scenario=custom") == 1

    def test_custom_rejects_ragged_matrix(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[1.0, 0.0], [0.0]],
                       "rho0": [[1.0, 0.0], [0.0, 0.0]], "t_max": 1.0},
        }), encoding="utf-8")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 1

    def test_custom_non_hermitian_drive_is_numerical_failure(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[0.0, 1.0], [0.0, 0.0]],
                       "rho0": [[1.0, 0.0], [0.0, 0.0]], "t_max": 1.0},
        }), encoding="utf-8")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2

    def test_custom_nan_state_is_numerical_failure(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[1.0, 0.0], [0.0, -1.0]],
                       "rho0": [[math.nan, 0.0], [0.0, 0.5]], "t_max": 1.0},
        }), encoding="utf-8")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2
        assert "hermiticity defect nan" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 1

    def test_defaults_are_self_consistent(self):
        config = default_config()
        assert config["scenario"] == "single_qubit"
        assert config["kappa"] == 20.0
        assert config["omega1"] == 1.0
        assert config["tau_c"] == 1.0


class TestSweep:
    def test_kappa_sweep_distances_decrease(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out),
                       "--set", "sweep.parameter=kappa",
                       "--set", "sweep.values=[1, 5, 10, 20]")
        assert code == 0
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["parameter", "value", "omega1_tau_c_kappa",
                           "trace_distance_to_born", "purity", "born_prob_max_group"]
        assert [row[0] for row in rows[1:]] == ["kappa"] * 4
        assert [float(row[1]) for row in rows[1:]] == [1.0, 5.0, 10.0, 20.0]
        distances = [float(row[3]) for row in rows[1:]]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_theta_sweep_probability_column(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out),
                       "--set", "phi=1.5707963267948966",
                       "--set", "sweep.parameter=theta",
                       "--set", "sweep.values=[0, 0.7853981633974483, 1.5707963267948966]")
        assert code == 0
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        probabilities = [float(row[5]) for row in rows[1:]]
        expected = [0.5, 0.5 * (1 + math.sin(math.pi / 4)), 1.0]
        np.testing.assert_allclose(probabilities, expected, atol=1e-12)

    def test_empty_values_writes_header_only(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out),
                       "--set", "sweep.parameter=tau_c", "--set", "sweep.values=[]")
        assert code == 0
        raw = (out / "sweep.csv").read_bytes()
        assert raw == (b"parameter,value,omega1_tau_c_kappa,trace_distance_to_born,"
                       b"purity,born_prob_max_group\r\n")

    def test_two_qubit_kappa_sweep_allowed(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out), "--set", "scenario=two_qubit",
                       "--set", "sweep.parameter=kappa", "--set", "sweep.values=[20]")
        assert code == 0
        with (out / "sweep.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert float(rows[1][5]) == pytest.approx(0.5, abs=1e-12)

    def test_unknown_parameter(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path),
                       "--set", "sweep.parameter=zeta",
                       "--set", "sweep.values=[1]") == 1

    def test_angle_sweep_needs_single_qubit(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path),
                       "--set", "scenario=two_qubit",
                       "--set", "sweep.parameter=theta",
                       "--set", "sweep.values=[1]") == 1

    def test_custom_scenario_not_sweepable(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[1.0]], "rho0": [[1.0]], "t_max": 1.0},
            "sweep": {"parameter": "tau_c", "values": [1.0]},
        }), encoding="utf-8")
        assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("parameter, values", [("kappa", "[5, -1]"), ("omega1", "[1, 0]")])
    def test_invalid_sweep_value_rejected_before_any_run(self, tmp_path, parameter, values):
        out = tmp_path / "out"
        code = run_cli("sweep", "--out", str(out),
                       "--set", f"sweep.parameter={parameter}",
                       "--set", f"sweep.values={values}")
        assert code == 1
        assert not (out / "sweep.csv").exists()

    def test_missing_sweep_block(self, tmp_path):
        assert run_cli("sweep", "--out", str(tmp_path)) == 1


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run_cli("verify") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "9/9 checks passed"
        assert sum(1 for line in lines if "  PASS  " in line) == 9

    def test_output_is_deterministic(self, capsys):
        assert run_cli("verify") == 0
        first = capsys.readouterr().out
        assert run_cli("verify") == 0
        assert capsys.readouterr().out == first

    def test_corrupted_tolerance_reports_failures(self, capsys):
        assert run_cli("verify", "--set", "tolerances.trace=0") == 2
        output = capsys.readouterr().out
        assert "FAIL" in output
        assert "9/9 checks passed" not in output


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "frqme.cli", "run", "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict pass" in proc.stdout

    def test_reserved_seed_variable_has_no_effect(self, tmp_path):
        env = dict(os.environ)
        env["FRQME_SEED"] = "12345"
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert subprocess.run(
            [sys.executable, "-m", "frqme.cli", "run", "--out", str(first)],
            capture_output=True, env=env,
        ).returncode == 0
        env["FRQME_SEED"] = "99999"
        assert subprocess.run(
            [sys.executable, "-m", "frqme.cli", "run", "--out", str(second)],
            capture_output=True, env=env,
        ).returncode == 0
        assert (first / "result.json").read_bytes() == (second / "result.json").read_bytes()
