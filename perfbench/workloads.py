"""Seeded inputs and per-operation output checks for the three workloads.

An operation is one ``frqme.cli.main(argv)`` call.  Each workload turns a
seed into a short list of argv lists (writing any config files first) and
checks every operation's exit code, stdout and artifacts.  The program
only ever sees the generated argv and config files.

Ops inside one workload are kept homogeneous in cost: every ``run`` op of
a workload has the same dimension and grid size, so the median does not
jump with the mix of inputs a seed happens to draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Distinct argv lists per run; ops cycle through them, so every list is
# repeated several times in a run and each repeat is checked for
# byte-identical artifacts.
CONFIGS_PER_RUN = 8

# pulse_fine_grid: two_qubit run on a fine grid.  kappa >= 20 gives a
# decay product of at least 20, so the verdict passes at compare_tol 1e-6.
PULSE_GRID_POINTS = 5000
PULSE_KAPPA_RANGE = (20.0, 40.0)

# custom_dense: d = 16 drive whose eigenvalues all come from a fixed
# lattice.  Every lattice level is used at least once and the remaining
# DENSE_DIM - len(lattice) levels repeat lattice points, so each input has
# degenerate groups, the same spectral span and the same smallest gap.
DENSE_DIM = 16
DENSE_LATTICE = np.linspace(-2.0, 2.0, 12)
DENSE_RANK = 4
DENSE_TAU_C = 1.0
DENSE_GRID_POINTS = 200
DENSE_EPS = 1e-14
# t_max sits this factor past the eps decay horizon of the smallest gap,
# so every cross-group coherence is below eps and the verdict passes.
DENSE_HORIZON_FACTOR = 1.25

# A run's numeric endpoint must match the closed-form endpoint this well.
ENDPOINT_TOL = 1e-9
VERIFY_SUMMARY = "9/9 checks passed"


def dense_t_max() -> float:
    gap = float(np.diff(DENSE_LATTICE).min())
    horizon = -math.log(DENSE_EPS) / (DENSE_TAU_C * gap * gap)
    return DENSE_HORIZON_FACTOR * horizon


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def dense_drive(rng: np.random.Generator) -> np.ndarray:
    extra = rng.choice(DENSE_LATTICE, size=DENSE_DIM - DENSE_LATTICE.size)
    levels = np.concatenate([DENSE_LATTICE, extra])
    u = random_unitary(rng, DENSE_DIM)
    h = (u * levels) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def dense_state(rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((DENSE_DIM, DENSE_RANK))
         + 1j * rng.standard_normal((DENSE_DIM, DENSE_RANK)))
    w = g @ g.conj().T
    w = 0.5 * (w + w.conj().T)
    return w / np.trace(w).real


def matrix_json(m: np.ndarray) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(c["re"], c["im"]) for c in row] for row in rows])


def dense_config(rng: np.random.Generator) -> dict:
    return {
        "scenario": "custom",
        "tau_c": DENSE_TAU_C,
        "grid_points": DENSE_GRID_POINTS,
        "eps_converge": DENSE_EPS,
        "custom": {
            "hamiltonian": matrix_json(dense_drive(rng)),
            "rho0": matrix_json(dense_state(rng)),
            "t_max": dense_t_max(),
        },
    }


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """A list of argv lists plus the check each op's output must pass.

    ``check(index, rc, stdout)`` returns ``(ok, bytes_written)``.  The first
    output seen for each argv index becomes that index's reference, and
    later repeats must reproduce it byte for byte.
    """

    def __init__(self, argvs: list):
        self.argvs = argvs
        self._reference = {}

    def _same_as_first(self, index: int, digest: str) -> bool:
        return self._reference.setdefault(index, digest) == digest


class RunWorkload(Workload):
    """``frqme run`` ops, each writing into its own output directory."""

    def __init__(self, argvs: list, out_dirs: list, grid_points: int):
        super().__init__(argvs)
        self.out_dirs = out_dirs
        self.grid_points = grid_points

    def check(self, index: int, rc: int, stdout: str):
        out = self.out_dirs[index]
        result_path, series_path = out / "result.json", out / "timeseries.csv"
        if rc != 0 or not result_path.is_file() or not series_path.is_file():
            return False, 0
        written = result_path.stat().st_size + series_path.stat().st_size
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        matrices = doc["matrices"]
        deviation = float(np.abs(matrix_from_json(matrices["final"])
                                 - matrix_from_json(matrices["final_analytic"])).max())
        with series_path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        finite = all(math.isfinite(float(cell)) for row in rows for cell in row)
        ok = (doc["comparison"]["verdict"] == "pass"
              and deviation <= ENDPOINT_TOL
              and len(rows) == self.grid_points
              and finite
              and self._same_as_first(index, _digest(result_path, series_path)))
        return ok, written


class VerifyWorkload(Workload):
    """``frqme verify`` ops; the report must be 9/9 and identical every time."""

    def check(self, index: int, rc: int, stdout: str):
        lines = stdout.splitlines()
        ok = (rc == 0 and bool(lines) and lines[-1] == VERIFY_SUMMARY
              and self._same_as_first(index, hashlib.sha256(stdout.encode()).hexdigest()))
        return ok, 0


def pulse_fine_grid(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    argvs, outs = [], []
    for i in range(CONFIGS_PER_RUN):
        kappa = float(rng.uniform(*PULSE_KAPPA_RANGE))
        out = workdir / f"out{i}"
        argvs.append(["run", "--set", "scenario=two_qubit",
                      "--set", f"grid_points={PULSE_GRID_POINTS}",
                      "--set", f"kappa={kappa!r}", "--out", str(out)])
        outs.append(out)
    return RunWorkload(argvs, outs, PULSE_GRID_POINTS)


def custom_dense(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    argvs, outs = [], []
    for i in range(CONFIGS_PER_RUN):
        path = workdir / f"config{i}.json"
        path.write_text(json.dumps(dense_config(rng)), encoding="utf-8")
        out = workdir / f"out{i}"
        argvs.append(["run", "--config", str(path), "--out", str(out)])
        outs.append(out)
    return RunWorkload(argvs, outs, DENSE_GRID_POINTS)


def verify_suite(seed: int, workdir: Path) -> Workload:
    # verify draws its random instances from a fixed internal seed, so the
    # workload seed has nothing to vary.
    return VerifyWorkload([["verify"]])


WORKLOADS = {
    "pulse_fine_grid": pulse_fine_grid,
    "custom_dense": custom_dense,
    "verify_suite": verify_suite,
}
