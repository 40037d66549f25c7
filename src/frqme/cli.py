"""Command-line interface: run scenarios, sweep parameters, self-check.

Subcommands:

* ``run``    evolve one scenario, write ``result.json`` + ``timeseries.csv``
* ``sweep``  repeat a scenario over a list of parameter values, write ``sweep.csv``
* ``verify`` run the built-in self-check suite and print a pass/fail table

Configuration is JSON (UTF-8); any value can be overridden on the command
line with ``--set dotted.key=value``.  Complex matrix entries are objects
``{"re": x, "im": y}`` (bare numbers are accepted as real entries).  Output
tables are RFC-4180 CSV with float cells printed to 17 significant digits.
Identical configuration produces byte-identical artifacts; the package
version is stamped in the result document, never a timestamp.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
validation failure, 3 comparison failure against the measurement
prediction.

The environment variable ``FRQME_SEED`` is reserved for future stochastic
features (e.g. sampled measurement records); it is currently read by
nothing and documented here so scripts can set it today without effect.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .born import compare_to_prediction
from .operators import Tolerances, ValidationError, purity, trace_distance
from .scenarios import (
    PulseSpec,
    TIME_SERIES_COLUMNS,
    custom_scenario,
    single_qubit_scenario,
    two_qubit_scenario,
)
from .spectral import convergence_time
from .verify import run_checks

SCENARIOS = ("single_qubit", "two_qubit", "custom")
SWEEP_PARAMETERS = ("kappa", "tau_c", "omega1", "theta", "phi")
ANGLE_SWEEPS = ("theta", "phi")
_TOLERANCE_KEYS = ("herm", "trace", "psd", "compare", "degeneracy")
_TOP_LEVEL_KEYS = frozenset({
    "scenario", "theta", "phi", "kappa", "omega1", "tau_c", "grid_points",
    "eps_converge", "compare_tol", "out", "tolerances", "custom", "sweep",
})
_CUSTOM_KEYS = frozenset({"hamiltonian", "rho0", "t_max"})
_SWEEP_KEYS = frozenset({"parameter", "values"})
# 17 significant digits round-trip every float64.
_FLOAT_CELL = "%.17g"


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def default_config() -> dict:
    return {
        "scenario": "single_qubit",
        "theta": math.pi / 2.0,
        "phi": math.pi / 4.0,
        "kappa": 20.0,
        "omega1": 1.0,
        "tau_c": 1.0,
        "grid_points": 200,
        "eps_converge": 1e-14,
        "compare_tol": 1e-6,
        "out": "frqme-out",
        "tolerances": {
            "herm": 1e-10,
            "trace": 1e-10,
            "psd": 1e-9,
            "compare": 1e-9,
            "degeneracy": 1e-9,
        },
    }


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_set(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _require_number(config: dict, key: str) -> float:
    value = config.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value!r}")
    return value


def _validate_config(config: dict) -> dict:
    unknown = set(config) - _TOP_LEVEL_KEYS
    if unknown:
        raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise UsageError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    for key in ("theta", "phi", "compare_tol"):
        config[key] = _require_number(config, key)
    if config["compare_tol"] < 0.0:
        raise UsageError(f"compare_tol must be >= 0, got {config['compare_tol']}")
    if _require_number(config, "kappa") < 0.0:
        raise UsageError(f"kappa must be >= 0, got {config['kappa']}")
    if _require_number(config, "omega1") <= 0.0:
        raise UsageError(f"omega1 must be > 0, got {config['omega1']}")
    if _require_number(config, "tau_c") < 0.0:
        raise UsageError(f"tau_c must be >= 0, got {config['tau_c']}")
    for key in ("kappa", "omega1", "tau_c"):
        config[key] = float(config[key])

    grid_points = config.get("grid_points")
    if isinstance(grid_points, bool) or not isinstance(grid_points, int) or grid_points < 2:
        raise UsageError(f"grid_points must be an integer >= 2, got {grid_points!r}")

    eps = _require_number(config, "eps_converge")
    if not (0.0 < eps < 1.0):
        raise UsageError(f"eps_converge must lie in (0, 1), got {eps}")
    config["eps_converge"] = eps

    if not isinstance(config.get("out"), str) or not config["out"]:
        raise UsageError(f"out must be a non-empty path, got {config.get('out')!r}")

    tols = config.get("tolerances")
    if not isinstance(tols, dict):
        raise UsageError(f"tolerances must be an object, got {tols!r}")
    unknown = set(tols) - set(_TOLERANCE_KEYS)
    if unknown:
        raise UsageError(f"unknown tolerance keys: {sorted(unknown)}")
    for key in _TOLERANCE_KEYS:
        value = tols.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not (float(value) >= 0.0):
            raise UsageError(f"tolerances.{key} must be a number >= 0, got {value!r}")
        tols[key] = float(value)

    if scenario == "custom":
        block = config.get("custom")
        if not isinstance(block, dict):
            raise UsageError("custom scenario requires a 'custom' object with "
                             "hamiltonian, rho0 and t_max")
        unknown = set(block) - _CUSTOM_KEYS
        if unknown:
            raise UsageError(f"unknown custom keys: {sorted(unknown)}")
        missing = _CUSTOM_KEYS - set(block)
        if missing:
            raise UsageError(f"custom block is missing keys: {sorted(missing)}")
        t_max = block.get("t_max")
        if isinstance(t_max, bool) or not isinstance(t_max, (int, float)) \
                or not math.isfinite(float(t_max)) or float(t_max) < 0.0:
            raise UsageError(f"custom.t_max must be a number >= 0, got {t_max!r}")
        block["t_max"] = float(t_max)

    sweep = config.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise UsageError(f"sweep must be an object, got {sweep!r}")
        unknown = set(sweep) - _SWEEP_KEYS
        if unknown:
            raise UsageError(f"unknown sweep keys: {sorted(unknown)}")
    return config


def _parse_complex_matrix(node, name: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        raise UsageError(f"{name} must be a non-empty list of rows")
    rows = []
    for row in node:
        parsed = []
        for cell in row:
            if isinstance(cell, dict):
                extra = set(cell) - {"re", "im"}
                if extra:
                    raise UsageError(f"{name} entries allow only 're' and 'im', got {sorted(extra)}")
                try:
                    parsed.append(complex(float(cell.get("re", 0.0)), float(cell.get("im", 0.0))))
                except (TypeError, ValueError):
                    raise UsageError(f"{name} entry {cell!r} is not numeric")
            elif isinstance(cell, bool):
                raise UsageError(f"{name} entry {cell!r} is not numeric")
            elif isinstance(cell, (int, float)):
                parsed.append(complex(float(cell), 0.0))
            else:
                raise UsageError(f"{name} entry {cell!r} is not numeric")
        rows.append(parsed)
    if any(len(r) != len(rows) for r in rows):
        raise UsageError(f"{name} must be square, got row lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=np.complex128)


def _execute(config: dict, tol: Tolerances):
    """Run the configured scenario; returns (result, t_max)."""
    scenario = config["scenario"]
    if scenario == "custom":
        block = config["custom"]
        h = _parse_complex_matrix(block["hamiltonian"], "custom.hamiltonian")
        rho0 = _parse_complex_matrix(block["rho0"], "custom.rho0")
        t_max = block["t_max"]
        result = custom_scenario(h, rho0, config["tau_c"], t_max,
                                 config["grid_points"], tol)
        return result, t_max
    pulse = PulseSpec(kappa=config["kappa"], omega1=config["omega1"], tau_c=config["tau_c"])
    if scenario == "single_qubit":
        result = single_qubit_scenario(config["theta"], config["phi"], pulse,
                                       config["grid_points"], tol)
    else:
        result = two_qubit_scenario(pulse, config["grid_points"], tol)
    return result, pulse.duration


def _matrix_doc(m) -> list:
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row]
        for row in np.asarray(m, dtype=np.complex128)
    ]


def _result_document(config: dict, tol: Tolerances, result, t_max: float, report) -> dict:
    scenario = config["scenario"]
    spectrum = result.spectrum
    ct = convergence_time(spectrum, config["tau_c"], config["eps_converge"])
    groups = []
    for k, members in enumerate(spectrum.groups):
        projector = spectrum.projector(k)
        groups.append({
            "eigenvalue": spectrum.group_eigenvalue(k),
            "indices": list(members),
            "probability": float(result.born.probabilities[k]),
            "simulated_weight": float(np.trace(projector @ result.final_numeric).real),
        })
    pulse_like = scenario in ("single_qubit", "two_qubit")
    parameters = {
        "theta": config["theta"] if scenario == "single_qubit" else None,
        "phi": config["phi"] if scenario == "single_qubit" else None,
        "kappa": config["kappa"] if pulse_like else None,
        "omega1": config["omega1"] if pulse_like else None,
        "tau_c": config["tau_c"],
        "t_max": t_max,
        "grid_points": config["grid_points"],
        "eps_converge": config["eps_converge"],
        "compare_tol": config["compare_tol"],
        "tolerances": dict(config["tolerances"]),
    }
    return {
        "version": __version__,
        "scenario": scenario,
        "parameters": parameters,
        "matrices": {
            "initial": _matrix_doc(result.initial),
            "final": _matrix_doc(result.final_numeric),
            "final_analytic": _matrix_doc(result.final_analytic),
            "asymptotic": _matrix_doc(result.asymptotic),
            "born_post_state": _matrix_doc(result.born.post_state),
        },
        "degeneracy_groups": groups,
        "convergence_time": None if math.isinf(ct) else ct,
        "comparison": {
            "trace_distance": report.trace_distance,
            "max_entry_deviation": report.max_entry_deviation,
            "threshold": report.tol,
            "verdict": report.verdict,
            "probability_table": [
                {"label": label, "simulated_weight": weight, "predicted_probability": prob}
                for label, weight, prob in report.probability_table
            ],
        },
    }


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, cell_formats, rows) -> None:
    """Write the header, then each row in one %-format pass over ``cell_formats``.

    No cell needs CSV quoting: floats print as bare numbers and the only
    string cells are sweep parameter names.
    """
    line = ",".join(cell_formats) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(line % tuple(row) for row in rows)


def cmd_run(config: dict) -> int:
    tol = Tolerances(**config["tolerances"])
    try:
        result, t_max = _execute(config, tol)
        report = compare_to_prediction(result.final_numeric, result.born, tol,
                                       config["compare_tol"])
    except ValidationError as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "result.json", _result_document(config, tol, result, t_max, report))
    _write_csv(
        out_dir / "timeseries.csv",
        TIME_SERIES_COLUMNS,
        (_FLOAT_CELL,) * len(TIME_SERIES_COLUMNS),
        result.time_series.tolist(),
    )
    print(f"scenario {config['scenario']}: verdict {report.verdict} "
          f"(trace distance {report.trace_distance:.17g}, "
          f"threshold {report.tol:.17g})")
    print(f"wrote {out_dir / 'result.json'} and {out_dir / 'timeseries.csv'}")
    return 0 if report.passed else 3


def cmd_sweep(config: dict) -> int:
    sweep = config.get("sweep")
    if not isinstance(sweep, dict):
        raise UsageError("sweep requires a 'sweep' object with 'parameter' and 'values'")
    parameter = sweep.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        raise UsageError(f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {parameter!r}")
    if config["scenario"] == "custom":
        raise UsageError("custom scenarios cannot be swept")
    if parameter in ANGLE_SWEEPS and config["scenario"] != "single_qubit":
        raise UsageError(f"sweep parameter {parameter!r} applies only to the "
                         f"single_qubit scenario")
    values = sweep.get("values")
    if not isinstance(values, list):
        raise UsageError(f"sweep values must be a list, got {values!r}")
    point_configs = []
    for value in values:
        point = copy.deepcopy(config)
        point.pop("sweep", None)
        point[parameter] = value
        point_configs.append(_validate_config(point))

    tol = Tolerances(**config["tolerances"])
    rows = []
    for point in point_configs:
        try:
            result, _ = _execute(point, tol)
        except ValidationError as exc:
            print(f"numerical validation failure at {parameter}={point[parameter]}: {exc}",
                  file=sys.stderr)
            return 2
        final = result.final_numeric
        top_group = int(np.argmax(result.born.group_eigenvalues))
        rows.append([
            parameter,
            float(point[parameter]),
            point["omega1"] * point["tau_c"] * point["kappa"],
            trace_distance(final, result.born.post_state),
            purity(final, tol),
            float(result.born.probabilities[top_group]),
        ])

    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep.csv",
        ("parameter", "value", "omega1_tau_c_kappa", "trace_distance_to_born",
         "purity", "born_prob_max_group"),
        ("%s",) + (_FLOAT_CELL,) * 5,
        rows,
    )
    print(f"swept {parameter} over {len(rows)} value(s); wrote {out_dir / 'sweep.csv'}")
    return 0


def cmd_verify(config: dict) -> int:
    tol = Tolerances(**config["tolerances"])
    results = run_checks(tol)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if not failed:
        return 0
    return 2 if any(r.kind == "validation" for r in failed) else 3


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="frqme",
        description="Driven-dissipative evolution with measurement-prediction checks.",
        epilog="FRQME_SEED is reserved for future stochastic features and is "
               "currently unused.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "evolve one scenario and write result.json + timeseries.csv"),
        ("sweep", "run a scenario across a list of parameter values"),
        ("verify", "run the built-in self-check suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides", help="dotted-path configuration override")
        p.add_argument("--eps-converge", metavar="FLOAT", type=float,
                       help="decay factor defining the reported convergence time")
    return parser


def _load_config(args) -> dict:
    config = default_config()
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError(f"config {args.config} must hold a JSON object")
        config = _merge(config, loaded)
    for assignment in args.overrides:
        _apply_set(config, assignment)
    if args.eps_converge is not None:
        config["eps_converge"] = args.eps_converge
    if args.out is not None:
        config["out"] = args.out
    return _validate_config(config)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_verify(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
