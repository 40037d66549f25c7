"""Command-line interface: run scenarios, sweep parameters, self-check.

Subcommands:

* ``run``    evolve one scenario, write ``result.json`` + ``timeseries.csv``
* ``sweep``  repeat a scenario over a list of parameter values, write ``sweep.csv``
* ``verify`` run the built-in self-check suite and print a pass/fail table

Configuration is JSON (UTF-8); any value can be overridden on the command
line with ``--set dotted.key=value``.  Complex matrix entries are objects
``{"re": x, "im": y}`` (bare numbers are accepted as real entries).
``result.json`` is laid out exactly as ``json.dumps(document, indent=2,
sort_keys=True)`` plus a newline.  Output tables are RFC-4180 CSV with
float cells printed to 17 significant digits.
Identical configuration produces byte-identical artifacts; the package
version is stamped in the result document, never a timestamp.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
validation failure, 3 comparison failure against the measurement
prediction.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .born import compare_to_prediction
from .operators import DEFAULT_TOLS, Tolerances, ValidationError, purity, trace_distance
from .scenarios import (
    PulseSpec,
    ScenarioResult,
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
_TOLERANCE_KEYS = tuple(field.name for field in dataclasses.fields(Tolerances))
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
    """The run configuration; pulse and tolerance defaults are the library's."""
    return {
        "scenario": "single_qubit",
        "theta": math.pi / 2.0,
        "phi": math.pi / 4.0,
        **dataclasses.asdict(PulseSpec()),
        "grid_points": 200,
        "eps_converge": 1e-14,
        "compare_tol": 1e-6,
        "out": "frqme-out",
        "tolerances": dataclasses.asdict(DEFAULT_TOLS),
    }


_TOP_LEVEL_KEYS = frozenset(default_config()) | {"custom", "sweep"}


def _merge(base: dict, override: dict) -> dict:
    """Merge override into base in place (nested dicts key by key); return base."""
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


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


def _to_float(value, name: str) -> float:
    """A JSON number as a float; an integer past the float range is a UsageError."""
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{name} is an integer too large for a float") from None


def _require_number(value, name: str) -> float:
    """A present, non-bool, finite JSON number as a float, or UsageError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{name} must be a number, got {value!r}")
    value = _to_float(value, name)
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return value


def _reject_unknown(block: dict, allowed, what: str) -> None:
    if unknown := set(block) - set(allowed):
        raise UsageError(f"unknown {what} keys: {sorted(unknown)}")


def _validate_config(config: dict) -> dict:
    _reject_unknown(config, _TOP_LEVEL_KEYS, "configuration")
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise UsageError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    for key in ("theta", "phi", "compare_tol", "kappa", "omega1", "tau_c"):
        config[key] = _require_number(config.get(key), key)
    if config["compare_tol"] < 0.0:
        raise UsageError(f"compare_tol must be >= 0, got {config['compare_tol']}")
    # the ranges are PulseSpec's, checked for every scenario
    try:
        PulseSpec(config["kappa"], config["omega1"], config["tau_c"])
    except ValueError as exc:
        raise UsageError(str(exc))

    grid_points = config.get("grid_points")
    if isinstance(grid_points, bool) or not isinstance(grid_points, int) or grid_points < 2:
        raise UsageError(f"grid_points must be an integer >= 2, got {grid_points!r}")

    eps = _require_number(config.get("eps_converge"), "eps_converge")
    if not (0.0 < eps < 1.0):
        raise UsageError(f"eps_converge must lie in (0, 1), got {eps}")
    config["eps_converge"] = eps

    if not isinstance(config.get("out"), str) or not config["out"]:
        raise UsageError(f"out must be a non-empty path, got {config.get('out')!r}")

    tols = config.get("tolerances")
    if not isinstance(tols, dict):
        raise UsageError(f"tolerances must be an object, got {tols!r}")
    _reject_unknown(tols, _TOLERANCE_KEYS, "tolerance")
    # every key is required: Tolerances would fill a missing one from its default
    for key in _TOLERANCE_KEYS:
        tols[key] = _require_number(tols.get(key), f"tolerances.{key}")
    try:
        Tolerances(**tols)
    except ValueError as exc:
        raise UsageError(str(exc))

    if scenario == "custom":
        block = config.get("custom")
        if not isinstance(block, dict):
            raise UsageError("custom scenario requires a 'custom' object with "
                             "hamiltonian, rho0 and t_max")
        _reject_unknown(block, _CUSTOM_KEYS, "custom")
        missing = _CUSTOM_KEYS - set(block)
        if missing:
            raise UsageError(f"custom block is missing keys: {sorted(missing)}")
        for key in ("hamiltonian", "rho0"):
            block[key] = _parse_complex_matrix(block[key], f"custom.{key}")
        block["t_max"] = _require_number(block["t_max"], "custom.t_max")
        if block["t_max"] < 0.0:
            raise UsageError(f"custom.t_max must be >= 0, got {block['t_max']}")

    sweep = config.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise UsageError(f"sweep must be an object, got {sweep!r}")
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
    return config


def _parse_complex_matrix(node, name: str) -> np.ndarray:
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        raise UsageError(f"{name} must be a non-empty list of rows")

    def part(value, cell) -> float:
        # a non-bool JSON number; a non-finite one fails validation later
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"{name} entry {cell!r} is not numeric")
        return _to_float(value, f"{name} entry")

    rows = []
    for row in node:
        parsed = []
        for cell in row:
            if isinstance(cell, dict):
                extra = set(cell) - {"re", "im"}
                if extra:
                    raise UsageError(f"{name} entries allow only 're' and 'im', got {sorted(extra)}")
                parsed.append(complex(part(cell.get("re", 0.0), cell),
                                      part(cell.get("im", 0.0), cell)))
            else:
                parsed.append(complex(part(cell, cell), 0.0))
        rows.append(parsed)
    if any(len(r) != len(rows) for r in rows):
        raise UsageError(f"{name} must be square, got row lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=np.complex128)


def _execute(config: dict, tol: Tolerances) -> ScenarioResult:
    """Run the configured scenario."""
    scenario = config["scenario"]
    if scenario == "custom":
        block = config["custom"]
        return custom_scenario(block["hamiltonian"], block["rho0"], config["tau_c"],
                               block["t_max"], config["grid_points"], tol)
    pulse = PulseSpec(kappa=config["kappa"], omega1=config["omega1"], tau_c=config["tau_c"])
    if scenario == "single_qubit":
        return single_qubit_scenario(config["theta"], config["phi"], pulse,
                                     config["grid_points"], tol)
    return two_qubit_scenario(pulse, config["grid_points"], tol)


def _result_document(config: dict, result: ScenarioResult, report) -> dict:
    """The result document; its "matrices" hold the complex arrays themselves."""
    scenario = config["scenario"]
    spectrum = result.spectrum
    ct = convergence_time(spectrum, config["tau_c"], config["eps_converge"])
    groups = [
        {
            "eigenvalue": float(spectrum.group_eigenvalues[k]),
            "indices": list(members),
            "probability": float(result.born.probabilities[k]),
            "simulated_weight": report.probability_table[k][1],
        }
        for k, members in enumerate(spectrum.groups)
    ]
    pulse_like = scenario in ("single_qubit", "two_qubit")
    parameters = {
        "theta": config["theta"] if scenario == "single_qubit" else None,
        "phi": config["phi"] if scenario == "single_qubit" else None,
        "kappa": config["kappa"] if pulse_like else None,
        "omega1": config["omega1"] if pulse_like else None,
        "tau_c": config["tau_c"],
        "t_max": result.t_max,
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
            "initial": result.initial,
            "final": result.final_numeric,
            "final_analytic": result.final_analytic,
            "asymptotic": result.born.post_state,
            "born_post_state": result.born.post_state,
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


@contextlib.contextmanager
def _replacing(path: Path):
    """Yield a temp path beside ``path``; move it over ``path`` once the body succeeds.

    The directory is made here, so a run that fails before its first
    artifact leaves none.  A reader never sees a half-written artifact, and
    a failed write leaves the old file in place and no temp file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _matrix_text(m: np.ndarray) -> str:
    """``m`` as json.dumps(indent=2) writes it as a value of result.json's "matrices".

    Rows of {"im": y, "re": x} objects fill one %-template.  The floats'
    text comes from one json.dumps of the flat (im, re) list, whose C
    encoder writes them as the indented one does: float.__repr__, NaN, Infinity.
    """
    cell = '        {\n          "im": %s,\n          "re": %s\n        }'
    row = "      [\n" + ",\n".join((cell,) * m.shape[1]) + "\n      ]"
    template = "[\n" + ",\n".join((row,) * m.shape[0]) + "\n    ]"
    floats = np.stack([m.imag, m.real], axis=-1).ravel().tolist()
    return template % tuple(json.dumps(floats)[1:-1].split(", "))


def _write_result(path: Path, document: dict) -> None:
    """Write a result document as json.dumps(indent=2, sort_keys=True) plus a newline.

    json's indented encoder is pure Python and would walk every matrix
    entry, so only the rest of the document goes through it, with a NUL
    string (which nothing else in a result holds) in each matrix's place.
    The slots come out in sorted key order, and each takes its matrix's
    text, formatted once per array even when two keys hold the same one.
    """
    matrices = document["matrices"]
    skeleton = dict(document, matrices=dict.fromkeys(matrices, "\0"))
    pieces = json.dumps(skeleton, indent=2, sort_keys=True).split(json.dumps("\0"))
    arrays = {id(m): m for m in matrices.values()}
    texts = {ident: _matrix_text(m) for ident, m in arrays.items()}
    slots = [texts[id(matrices[key])] for key in sorted(matrices)] + ["\n"]
    with _replacing(path) as tmp:
        tmp.write_text("".join(p + s for p, s in zip(pieces, slots)), encoding="utf-8")


def _write_csv(path: Path, header, cell_formats, rows) -> None:
    """Write the header, then each row in one %-format pass over ``cell_formats``.

    No cell needs CSV quoting: floats print as bare numbers and the only
    string cells are sweep parameter names.
    """
    line = ",".join(cell_formats) + "\r\n"
    with _replacing(path) as tmp, tmp.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        handle.writelines(line % tuple(row) for row in rows)


def cmd_run(config: dict) -> int:
    out_dir = Path(config["out"])
    tol = Tolerances(**config["tolerances"])
    result = _execute(config, tol)
    report = compare_to_prediction(result.final_numeric, result.born, tol,
                                   config["compare_tol"])
    # the series first, so a failed run never leaves a new result.json
    # beside an old series
    _write_csv(
        out_dir / "timeseries.csv",
        TIME_SERIES_COLUMNS,
        (_FLOAT_CELL,) * len(TIME_SERIES_COLUMNS),
        result.time_series.tolist(),
    )
    _write_result(out_dir / "result.json", _result_document(config, result, report))
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

    out_dir = Path(config["out"])
    tol = Tolerances(**config["tolerances"])
    rows = []
    for point in point_configs:
        try:
            result = _execute(point, tol)
        except ValidationError as exc:
            print(f"numerical validation failure at {parameter}={point[parameter]}: {exc}",
                  file=sys.stderr)
            return 2
        final = result.final_numeric
        top_group = int(np.argmax(result.born.group_eigenvalues))
        rows.append([
            parameter,
            float(point[parameter]),
            PulseSpec(point["kappa"], point["omega1"], point["tau_c"]).decay_product,
            trace_distance(final, result.born.post_state, tol),
            purity(final, tol),
            float(result.born.probabilities[top_group]),
        ])

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
    except OSError as exc:
        # a path that cannot be made or written (the output directory, an
        # artifact) is the user's to fix; an I/O failure that names no path
        # (a full disk mid-write) propagates, the old artifacts intact
        if exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
