#!/usr/bin/env python3
"""Compare the artifacts of a fixed list of CLI commands between a revision and this tree.

Usage, from anywhere inside the repository:

    python3 tools/battery.py REV

REV (any git revision) is extracted with ``git archive`` into a temporary
directory, so no worktree is made.  Each command of ``commands()`` runs once
from REV's ``src/`` and once from this checkout's ``src/``, in a fresh
``python -m frqme.cli`` process with BLAS and OpenMP pinned to one thread.
For each artifact (and for ``verify``'s stdout) one line says "identical",
or the largest absolute difference over its numbers.

Exit status: 1 when an exit code differs between the trees, an artifact
is missing on one side, two artifacts differ in anything but their
numbers, or a number moves by more than ``TOLERANCE``; otherwise 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import dense_config, matrix_json  # noqa: E402

# A decimal number as the artifacts print it; the text between numbers must match exactly.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# The largest absolute move of an artifact number that still passes: last-bit
# reorderings of a formula move results by a few 1e-16, a real change by far more.
TOLERANCE = 1e-15
_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _custom(h, rho0, tau_c: float, t_max: float) -> dict:
    return {"scenario": "custom", "tau_c": tau_c,
            "custom": {"hamiltonian": matrix_json(np.asarray(h, dtype=complex)),
                       "rho0": matrix_json(np.asarray(rho0, dtype=complex)), "t_max": t_max}}


def _random_custom(dim: int, seed: int, t_max: float = 50.0) -> dict:
    # a rotated drive with distinct levels and a full-rank mixed state
    rng = np.random.default_rng(seed)
    g, w = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    w = w @ w.conj().T
    return _custom(0.5 * (g + g.conj().T), w / np.trace(w).real, 1.0, t_max)


def commands() -> list:
    """(name, argv, config or None, exit code expected at this tree) for each command."""
    uniform = np.full((3, 3), 1.0 / 3.0)
    return [
        ("default", ["run"], None, 0),
        ("two_qubit", ["run", "--set", "scenario=two_qubit"], None, 0),
        ("two_qubit_fine", ["run", "--set", "scenario=two_qubit", "--set", "grid_points=5000",
                            "--set", "kappa=33.3"], None, 0),
        ("kappa_1e12", ["run", "--set", "kappa=1e12"], None, 0),
        ("omega1_1e-162", ["run", "--set", "omega1=1e-162"], None, 3),
        ("sweep_kappa", ["sweep", "--set", "sweep.parameter=kappa",
                         "--set", "sweep.values=[0, 5, 20, 40]"], None, 0),
        ("sweep_theta", ["sweep", "--set", "sweep.parameter=theta",
                         "--set", "sweep.values=[0, 0.5, 1.5]"], None, 0),
        ("sweep_tau_c", ["sweep", "--set", "scenario=two_qubit", "--set", "sweep.parameter=tau_c",
                         "--set", "sweep.values=[0, 0.25, 2]"], None, 0),
        ("sweep_omega1", ["sweep", "--set", "sweep.parameter=omega1",
                          "--set", "sweep.values=[0.5, 1, 4]"], None, 0),
        ("sweep_phi", ["sweep", "--set", "sweep.parameter=phi",
                       "--set", "sweep.values=[0, 1, 3]"], None, 0),
        ("sweep_custom", ["sweep", "--set", "sweep.parameter=tau_c", "--set", "sweep.values=[1]"],
         _custom(np.diag([0.0, 1.0]), np.full((2, 2), 0.5), 1.0, 50.0), 1),
        *((f"dense_{seed}", ["run"], dense_config(np.random.default_rng(seed)), 0)
          for seed in range(4)),
        ("custom_d3", ["run"], _random_custom(3, 3), 0),
        ("custom_d8", ["run"], _random_custom(8, 8), 0),
        ("custom_d24", ["run"], _random_custom(24, 24), 3),
        # m = 1749 baby steps at d = 32: the Gaussian average folds its
        # weighted sums in several blocks of _kernels.block_rows(32) columns
        ("custom_d32_wide", ["run"], _random_custom(32, 32, 3e8), 0),
        ("one_group", ["run"], _custom(2.0 * np.eye(3), uniform, 1.0, 50.0), 0),
        ("diag_001", ["run"], _custom(np.diag([0.0, 0.0, 1.0]), uniform, 0.5, 200.0), 0),
        ("verify", ["verify"], None, 0),
    ]


def _extract(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the extraction filters arrived in 3.10.12; without them the archive is our own
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def _run(tree: Path, argv: list, out: Path) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **_THREADS)
    proc = subprocess.run([sys.executable, "-m", "frqme.cli", *argv, "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def largest_difference(a: str, b: str):
    """The largest absolute difference between the numbers of two texts.

    None when the texts differ in anything but their numbers.  Equal
    numbers (infinities included) differ by 0.
    """
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    pairs = zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b)))
    return max((0.0 if x == y else abs(x - y) for x, y in pairs), default=0.0)


def verdict(a, b) -> tuple:
    """(line to print, whether it passes) for one artifact's text on each side (None: missing)."""
    if a is None or b is None:
        return "missing on one side", False
    if (diff := largest_difference(a, b)) is None:
        return "differs in text", False
    if a == b:
        return "identical", True
    return f"largest absolute difference {diff:.3g}", diff <= TOLERANCE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    args = parser.parse_args(argv)
    passed = True
    with tempfile.TemporaryDirectory(prefix="frqme-battery-") as tmp:
        tmp = Path(tmp)
        trees = {args.rev: _extract(args.rev, tmp / "rev"), "tree": ROOT}
        for name, cmd, config, _ in commands():
            if config is not None:
                path = tmp / f"{name}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                cmd = [*cmd, "--config", str(path)]
            outs = {side: tmp / f"{name}.{i}" for i, side in enumerate(trees)}
            runs = [_run(tree, cmd, outs[side]) for side, tree in trees.items()]
            (code_a, _), (code_b, _) = runs
            if cmd[0] == "verify":
                texts = [{"stdout": stdout} for _, stdout in runs]
            else:
                texts = [{p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("*"))}
                         for out in outs.values()]
            print(f"{name}: exit {code_a} -> {code_b}" + (" DIFFERS" if code_a != code_b else ""))
            passed &= code_a == code_b
            for artifact in sorted(set(texts[0]) | set(texts[1])):
                line, ok = verdict(texts[0].get(artifact), texts[1].get(artifact))
                print(f"  {artifact}: {line}" + ("" if ok else " FAILS"))
                passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
