import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import PulseSpec, Tolerances, _kernels, compare_to_prediction, single_qubit_scenario
from frqme.cli import (
    _FLOAT_CELL,
    _execute,
    _merge,
    _result_document,
    _validate_config,
    _write_csv,
    _write_result,
    default_config,
    main,
)


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def as_complex_matrix(doc):
    return np.array([[complex(cell["re"], cell["im"]) for cell in row] for row in doc])


def matrix_json(m):
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in np.asarray(m, dtype=np.complex128)]


def indented_dumps_bytes(document):
    """Reference result.json: the plain nested-dict document through json.dumps."""
    plain = dict(document, matrices={key: matrix_json(m)
                                     for key, m in document["matrices"].items()})
    return (json.dumps(plain, indent=2, sort_keys=True) + "\n").encode("utf-8")


def reference_result_bytes(overrides):
    """The bytes ``frqme run`` should write for a config, built by the library."""
    config = _validate_config(_merge(default_config(), copy.deepcopy(overrides)))
    tol = Tolerances(**config["tolerances"])
    result = _execute(config, tol)
    report = compare_to_prediction(result.final_numeric, result.born, tol,
                                   config["compare_tol"])
    return indented_dumps_bytes(_result_document(config, result, report))


def lattice_custom_config(dim, seed):
    """A custom config whose drive has four degenerate levels with unit gaps.

    At tau_c = 1 and t_max = 40 every cross-group coherence decays by
    e^-40, so the verdict passes.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = np.linalg.qr(g)[0]
    levels = np.repeat(np.arange(4.0) - 1.5, dim // 4)
    h = (u * levels) @ u.conj().T
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return {
        "scenario": "custom",
        "tau_c": 1.0,
        "custom": {"hamiltonian": matrix_json(0.5 * (h + h.conj().T)),
                   "rho0": matrix_json(np.outer(v, v.conj())), "t_max": 40.0},
    }


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

    def test_eps_converge_key(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "eps_converge=1e-4") == 0
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


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, -2.5e-17, 1e16, 1.0 / 3.0,
               math.nan, math.inf, -math.inf]
FLOAT_PARTS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def complex_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(st.tuples(FLOAT_PARTS, FLOAT_PARTS),
                          min_size=rows * cols, max_size=rows * cols))
    return np.array([complex(re, im) for re, im in parts]).reshape(rows, cols)


class TestResultWriter:
    @pytest.mark.parametrize("overrides", [
        {"scenario": "single_qubit"},
        {"scenario": "two_qubit"},
        lattice_custom_config(16, seed=3),
    ], ids=["single_qubit", "two_qubit", "custom_d16"])
    def test_bytes_match_indented_dumps(self, tmp_path, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        assert (out / "result.json").read_bytes() == reference_result_bytes(overrides)

    @settings(deadline=None, max_examples=80)
    @given(first=complex_matrices(), second=complex_matrices())
    def test_edge_floats_match_indented_dumps(self, tmp_path_factory, first, second):
        # NaN and Infinity come out as json spells them; one array under two
        # keys is written twice
        document = {
            "version": "0", "scenario": "custom", "convergence_time": None,
            "matrices": {"asymptotic": second, "born_post_state": second,
                         "final": first, "initial": -first},
        }
        path = tmp_path_factory.mktemp("writer") / "result.json"
        _write_result(path, document)
        assert path.read_bytes() == indented_dumps_bytes(document)

    def test_d64_run_matches_indented_dumps_and_repeats(self, tmp_path):
        # two samples, and t_max = 40 keeps the Gaussian average at m = 19
        # baby steps, so the five 64 x 64 matrices dominate the output
        overrides = dict(lattice_custom_config(64, seed=5), grid_points=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
        written = (first / "result.json").read_bytes()
        assert written == (second / "result.json").read_bytes()
        assert written == reference_result_bytes(overrides)


class TestEndpointLimits:
    @pytest.mark.parametrize("kappa", ["1e6", "1e8", "1e10", "1e12", "1e13"])
    @pytest.mark.parametrize("scenario", ["single_qubit", "two_qubit"])
    def test_long_pulse_passes(self, tmp_path, scenario, kappa):
        # far past the decay horizon; the endpoint's trace must stay within
        # 1e-10 of 1
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", f"scenario={scenario}",
                       "--set", f"kappa={kappa}") == 0
        assert read_json(out / "result.json")["comparison"]["verdict"] == "pass"

    def test_offset_far_past_the_horizon_passes(self, tmp_path):
        # kappa = 1e12 leaves the offset unitary off by 4e-5 before its
        # Newton-Schulz steps; one step left the trace 1.2e-9 off
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "kappa=1e12") == 0
        assert read_json(out / "result.json")["comparison"]["verdict"] == "pass"

    def test_width_past_the_limit_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "kappa=1e20") == 2
        assert "more than its limit _GAUSS_MAX_STEPS = 4096" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("scenario", ["single_qubit", "two_qubit"])
    def test_pulse_at_the_float_edge_runs(self, tmp_path, scenario):
        # span omega1 = 1e308 and mean 0 are in range, so the drive is admitted;
        # with tau_c = 0 nothing decays and the verdict fails
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", f"scenario={scenario}",
                       "--set", "omega1=1e308", "--set", "tau_c=0") == 3
        assert read_json(out / "result.json")["comparison"]["verdict"] == "fail"

    def test_tiny_drive_evolves(self, tmp_path):
        # omega1 = 1e-162: the drive's squared entries underflow, which once
        # gave span bound 0 and a final state that never left rho0
        out = tmp_path / "out"
        run_cli("run", "--out", str(out), "--set", "omega1=1e-162")
        matrices = read_json(out / "result.json")["matrices"]
        final = as_complex_matrix(matrices["final"])
        assert np.abs(final - as_complex_matrix(matrices["final_analytic"])).max() <= 1e-9

    @staticmethod
    def nothing_decayed(out):
        """Check the run in ``out`` wrote a finite series and verdict fail; return its result."""
        series = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
        assert np.isfinite(series).all()
        doc = read_json(out / "result.json")
        assert doc["comparison"]["verdict"] == "fail"
        return doc

    @pytest.mark.parametrize("argv", [
        ("--set", "scenario=two_qubit", "--set", "kappa=0", "--set", "omega1=1e200"),
        ("--set", "kappa=0", "--set", "omega1=10", "--set", "tau_c=1e307"),
    ], ids=["strong_drive", "overflowing_rate"])
    def test_zero_length_pulse_keeps_the_state(self, tmp_path, capsys, argv):
        # tau_c * omega1^2 overflows at t = 0, where nothing has decayed; the
        # series used to turn inf * 0 into nan and exit 2 after two warnings
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), *argv) == 3
        assert capsys.readouterr().err == ""
        matrices = self.nothing_decayed(out)["matrices"]
        np.testing.assert_allclose(as_complex_matrix(matrices["final_analytic"]),
                                   as_complex_matrix(matrices["initial"]), rtol=0, atol=1e-15)

    def test_rate_below_the_float_range_decays_nothing(self, tmp_path, capsys):
        # tau_c * omega1^2 = 5e-324 * 0.25 rounds to 0, so the run is the
        # tau_c = 0 run; the decay horizon used to divide by that 0
        out, reference = tmp_path / "out", tmp_path / "reference"
        assert run_cli("run", "--out", str(out), "--set", "tau_c=5e-324",
                       "--set", "omega1=0.5") == 3
        assert capsys.readouterr().err == ""
        doc = self.nothing_decayed(out)
        assert doc["convergence_time"] is None
        assert run_cli("run", "--out", str(reference), "--set", "tau_c=0",
                       "--set", "omega1=0.5") == 3
        assert doc["matrices"]["final_analytic"] == read_json(
            reference / "result.json")["matrices"]["final_analytic"]
        assert ((out / "timeseries.csv").read_bytes()
                == (reference / "timeseries.csv").read_bytes())

    @staticmethod
    def write_custom(tmp_path, levels, rho0, tau_c, t_max):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "tau_c": tau_c,
            "custom": {"hamiltonian": np.diag(levels).tolist(), "rho0": rho0, "t_max": t_max},
        }), encoding="utf-8")
        return config

    def test_pure_state_series_without_decay_stays_valid(self, tmp_path, capsys):
        # three levels, tau_c = 0 and span * t = 2.5e8: rounding each phase
        # (l_i - l_j) t on its own left sample 47 with eigenvalue -1.4e-9
        config = self.write_custom(tmp_path, [0.0, 1.0, 2.5], [[1 / 3] * 3] * 3, 0.0, 1e8)
        out = tmp_path / "out"
        # nothing decays, so the verdict fails, but every sample is a state
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 3
        assert "numerical validation failure" not in capsys.readouterr().err
        assert read_json(out / "result.json")["comparison"]["verdict"] == "fail"

    @pytest.mark.parametrize("t_max", [1e14, 1e16, 1e17, 1e18, 1e20])
    def test_phase_past_the_limit_is_numerical_failure(self, tmp_path, capsys, t_max):
        # U(t) keeps no correct digits there; these runs used to fail on a
        # trace of 0.998, 1.2e20 or 0
        config = self.write_custom(tmp_path, [0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], 0.0, t_max)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "eps * span * t" in err
        assert "past its limit _GAUSS_MAX_PHASE = 0.0025; lower kappa, or custom.t_max" in err

    def test_step_count_past_the_limit_is_short_and_names_its_keys(self, tmp_path, capsys):
        # m = isqrt(2K) + 1 is a 76-digit integer here; the message gives it
        # to four digits and names the keys that shrink it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "tau_c": 1.0,
            "custom": {"hamiltonian": [[0, 1], [1, 0]], "rho0": [[1, 0], [0, 0]], "t_max": 1e300},
        }), encoding="utf-8")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "needs 2.783e+75 baby steps" in err
        assert "custom.t_max" in err
        assert not re.search(r"\d{21}", err)

    def test_overflowing_custom_run_exits(self, tmp_path):
        # tau_c * t_max overflows the Gaussian width; run in a subprocess
        # so that a hang fails the test instead of stalling the suite
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "tau_c": 1e200,
            "custom": {"hamiltonian": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 100.0]],
                       "rho0": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                       "t_max": 1e200},
        }), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "frqme.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "needs inf baby steps" in proc.stderr

    @pytest.mark.parametrize("case", [
        ([0.0, 1.0, 100.0], 1e200, 1e200),
        ([0.0, 1e10], 0.0, 1e300),
        ([0.0, 1.0], 0.0, 1e300),
        ("--set", "omega1=1e300", "--set", "kappa=1e10"),
        ([1e308, 1e308], 0.0, 1.0),
        ([1e308, -1e308], 0.0, 1e-300),
    ], ids=["width", "offset", "squarings", "span", "edge_mean", "edge_span"])
    def test_overflow_exits_without_a_warning(self, tmp_path, case):
        # a subprocess, so that numpy's RuntimeWarnings print as they would
        # for a user instead of raising; the "span" case is a qubit drive with
        # entries near 1e300, whose Frobenius span bound overflows, and the
        # "edge" drives have an eigenvalue mean or span past the float range
        if case[0] == "--set":
            args = list(case)
        else:
            levels, tau_c, t_max = case
            rho0 = np.zeros((len(levels),) * 2)
            rho0[0, 0] = 1.0
            config = self.write_custom(tmp_path, levels, rho0.tolist(), tau_c, t_max)
            args = ["--config", str(config)]
        proc = subprocess.run(
            [sys.executable, "-m", "frqme.cli", "run", *args, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "numerical validation failure" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestOutputDirectoryOnFailure:
    SWEEP = ("sweep", "--set", "sweep.parameter=kappa")

    @pytest.mark.parametrize("argv", [
        ("run", "--set", "scenario=custom", "--set", "tau_c=0", "--set",
         'custom={"hamiltonian": [[1e308, 0], [0, -1e308]], "rho0": [[1, 0], [0, 0]], '
         '"t_max": 1e-300}'),
        ("run", "--set", "kappa=1e20"),
        SWEEP + ("--set", "sweep.values=[1e20]"),
    ], ids=["run_edge_span", "run_width", "sweep_width"])
    def test_numerical_failure_makes_no_output_directory(self, tmp_path, capsys, argv):
        # the directory is made with the first artifact, after the run computes
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert "numerical validation failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", [10 ** 11, 10 ** 400], ids=["1e11", "past_float"])
    def test_oversized_series_is_refused_before_any_work(self, tmp_path, capsys, points):
        # 1e11 points would take 3.2 TB; the run is refused before the drive is diagonalized
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = run_cli("run", "--set", f"grid_points={points}", "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert (f"grid_points {points} needs a {32 * points}-byte series, past the "
                "33554432-byte limit") in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("argv", [
        ("run", "--set", "kappa=1e308"),
        SWEEP + ("--set", "sweep.values=[5, 1e308]"),
    ], ids=["run", "sweep"])
    def test_overflowing_pulse_duration_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--set", "omega1=1e-10", "--out", str(out)) == 1
        assert ("error: the pulse duration kappa / omega1 overflows: kappa 1e+308, "
                "omega1 1e-10") in capsys.readouterr().err
        assert not out.exists()


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


class TestOutputPathErrors:
    COMMANDS = {
        "run": (("run",), "result.json"),
        "sweep": (("sweep", "--set", "sweep.parameter=kappa", "--set", "sweep.values=[5]"),
                  "sweep.csv"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("case", ["out_is_a_file", "out_below_a_file"])
    def test_unusable_output_directory_is_a_usage_error(self, tmp_path, capsys, command, case):
        blocker = tmp_path / "file"
        blocker.write_text("keep", encoding="utf-8")
        out = blocker if case == "out_is_a_file" else blocker / "out"
        argv, _ = self.COMMANDS[command]
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_artifact_is_a_usage_error(self, tmp_path, capsys, command):
        # a directory where the artifact goes cannot be replaced by a file
        argv, artifact = self.COMMANDS[command]
        (tmp_path / artifact / "inner").mkdir(parents=True)
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and artifact in err
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


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

    def test_integer_past_the_float_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "kappa=1" + "0" * 400) == 1
        assert "error: kappa is an integer too large for a float" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("cell", [10 ** 400, {"re": 0.0, "im": -10 ** 400}],
                             ids=["bare", "im_part"])
    def test_custom_matrix_integer_past_the_float_range(self, tmp_path, capsys, cell):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[1.0, 0.0], [0.0, -1.0]],
                       "rho0": [[1.0, cell], [0.0, 0.0]], "t_max": 1.0},
        }), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: custom.rho0 entry is an integer too large for a float" in err
        assert not (out / "result.json").exists()

    def test_unknown_scenario(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "scenario=blah") == 1

    def test_unknown_key(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "kapa=5") == 1

    def test_bad_set_syntax(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "kappa") == 1

    # a sweep runs its points at two grid times, but its own grid_points is still checked
    @pytest.mark.parametrize("command", [("run",), ("sweep", "--set", "sweep.parameter=kappa",
                                                    "--set", "sweep.values=[1]")])
    @pytest.mark.parametrize("points", ["2.5", "1", "true"])
    def test_non_integer_grid(self, tmp_path, command, points):
        out = tmp_path / "out"
        assert run_cli(*command, "--out", str(out), "--set", f"grid_points={points}") == 1
        assert not out.exists()

    def test_eps_out_of_range(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path), "--set", "eps_converge=2") == 1

    def test_eps_converge_is_a_key_not_a_flag(self, tmp_path):
        assert run_cli("run", "--out", str(tmp_path / "out"), "--eps-converge", "1e-4") == 1
        assert not (tmp_path / "out").exists()

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

    def test_custom_matrix_error_makes_no_output_directory(self, tmp_path, capsys):
        # the matrices are parsed with the rest of the config, before --out is made
        out = tmp_path / "o"
        assert run_cli("run", "--out", str(out), "--set", "scenario=custom", "--set",
                       'custom={"hamiltonian": "x", "rho0": [[1]], "t_max": 1}') == 1
        assert "custom.hamiltonian must be a non-empty list of rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", [
        {"re": True}, {"re": "0.5"}, {"im": False}, {"im": "0.5"},
        {"re": None}, {"re": [0.5]}, "x",
    ], ids=["re_bool", "re_string", "im_bool", "im_string", "re_null", "re_list", "bare"])
    def test_custom_rejects_non_number_part(self, tmp_path, capsys, cell):
        # a part of an {"re", "im"} entry obeys the bare-cell rule
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[cell, 0.0], [0.0, 1.0]],
                       "rho0": [[1.0, 0.0], [0.0, 0.0]], "t_max": 1.0},
        }), encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
        assert f"custom.hamiltonian entry {cell!r} is not numeric" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_custom_non_hermitian_drive_is_numerical_failure(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[0.0, 1.0], [0.0, 0.0]],
                       "rho0": [[1.0, 0.0], [0.0, 0.0]], "t_max": 1.0},
        }), encoding="utf-8")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 2

    @staticmethod
    def write_off_hermitian_drive(tmp_path):
        """A custom config whose drive is 1e-8 away from Hermitian."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "custom",
            "custom": {"hamiltonian": [[1.0, 0.5], [0.5 + 1e-8, -1.0]],
                       "rho0": [[1.0, 0.0], [0.0, 0.0]], "t_max": 40.0},
        }), encoding="utf-8")
        return config

    def test_custom_drive_passes_under_the_run_hermiticity_tolerance(self, tmp_path):
        # a looser trace tolerance as well is harmless; the test below shows
        # that the hermiticity one alone suffices
        config = self.write_off_hermitian_drive(tmp_path)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--set", "tolerances.herm=1e-6", "--set", "tolerances.trace=1e-6") == 0

    def test_custom_drive_endpoints_use_its_hermitian_part(self, tmp_path):
        # both endpoints evolve under the drive's Hermitian part, so the
        # average keeps the trace and agrees with the closed form
        config = self.write_off_hermitian_drive(tmp_path)
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(config), "--out", str(out),
                       "--set", "tolerances.herm=1e-6") == 0
        matrices = read_json(out / "result.json")["matrices"]
        final = as_complex_matrix(matrices["final"])
        assert np.abs(final - as_complex_matrix(matrices["final_analytic"])).max() <= 1e-12

    def test_custom_drive_fails_under_a_tighter_hermiticity_tolerance(self, tmp_path, capsys):
        config = self.write_off_hermitian_drive(tmp_path)
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--set", "tolerances.herm=1e-12") == 2
        assert "hermiticity defect 1.000e-08 exceeds 1.000e-12" in capsys.readouterr().err

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


class TestConfigBlocks:
    # each block as a valid config holds it, and the command that reads it
    VALID = {
        "tolerances": default_config()["tolerances"],
        "custom": {"hamiltonian": [[1.0]], "rho0": [[1.0]], "t_max": 1.0},
        "sweep": {"parameter": "kappa", "values": [1.0]},
    }
    READER = {"tolerances": ["run"], "custom": ["run", "--set", "scenario=custom"],
              "sweep": ["sweep"]}

    @pytest.mark.parametrize("block, case", [
        *((block, "unknown") for block in ("configuration", "tolerances", "custom", "sweep")),
        *((block, "missing") for block in ("tolerances", "custom", "sweep")),
        *((block, "not_object") for block in ("configuration", "tolerances", "custom", "sweep")),
    ])
    def test_every_block_is_checked(self, tmp_path, capsys, block, case):
        if block == "configuration":  # the top level, from a config file
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"bogus": 1} if case == "unknown" else [1]),
                              encoding="utf-8")
            argv = ["run", "--config", str(config)]
        else:  # --set replaces the whole block
            value = dict(self.VALID[block])
            if case == "unknown":
                value["bogus"] = 1
            elif case == "missing":
                value.popitem()
            else:
                value = 5
            argv = [*self.READER[block], "--set", f"{block}={json.dumps(value)}"]
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        if case == "unknown":
            assert f"unknown {block} keys: ['bogus']" in err
        elif case == "missing":
            assert f"{block} block is missing keys: " in err
        assert not out.exists()


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

    @pytest.mark.parametrize("parameter", ["zeta", "[1]", "null", "grid_points"])
    def test_unknown_parameter(self, tmp_path, parameter):
        assert run_cli("sweep", "--out", str(tmp_path),
                       "--set", f"sweep.parameter={parameter}",
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

    KAPPA_SWEEP = ("sweep", "--set", "scenario=two_qubit", "--set", "sweep.parameter=kappa",
                   "--set", "sweep.values=[1, 5, 20]")

    def test_sweep_evolves_only_the_endpoints(self, tmp_path, monkeypatch):
        # sweep.csv reads only each point's endpoints, so no point computes a series
        times = []
        evolve = _kernels.evolve_coefficients

        def spy(a0, eigenvalues, tau_c, t):
            times.append(np.size(t))
            return evolve(a0, eigenvalues, tau_c, t)

        monkeypatch.setattr(_kernels, "evolve_coefficients", spy)
        assert run_cli(*self.KAPPA_SWEEP, "--set", "grid_points=5000",
                       "--out", str(tmp_path)) == 0
        assert times == [2, 2, 2]

    def test_sweep_csv_does_not_depend_on_grid_points(self, tmp_path):
        # 10**11 points would be a 3.2 TB series, which run refuses
        written = []
        for points in (200, 10 ** 11):
            out = tmp_path / str(points)
            assert run_cli(*self.KAPPA_SWEEP, "--set", f"grid_points={points}",
                           "--out", str(out)) == 0
            written.append((out / "sweep.csv").read_bytes())
        assert written[0] == written[1]


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

    @pytest.mark.parametrize("degeneracy", ["0.5", "1", "1e300"])
    def test_one_group_drives_report_instead_of_crashing(self, capsys, degeneracy):
        # every drive is one group, so no coherence is left to fit a decay slope to
        assert run_cli("verify", "--set", f"tolerances.degeneracy={degeneracy}") == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 10 and lines[-1] == "6/9 checks passed"
        decay = next(line for line in lines if line.startswith("dissipative_decay "))
        assert "  FAIL  " in decay and "log-slope nan vs -1" in decay and "on 0 points" in decay
        assert captured.err == ""


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
