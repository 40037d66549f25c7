"""Ready-made driven-qubit scenarios and the runner they share, ``custom_scenario``.

Each scenario evolves a fixed initial state under a resonant drive for a
dimensionless pulse area kappa = omega1 * t, sampling a uniform time grid,
and packages the numeric endpoint, the closed-form endpoint, the
infinite-time limit and the measurement prediction for later comparison.

A run checks each input once, under its tolerances, in order:
grid_points, t_max, the drive (``eigendecompose``), tau_c, then rho0
(``born_predict``).  The time series comes from the closed-form eigenbasis
solution, on blocks of ``_kernels.block_rows`` grid times.  The numeric
endpoint, an independent check on it that never diagonalises the drive, is
the Milburn Gaussian average over evolution times (``gaussian_average``); a
Gaussian width past its fixed step limit raises ValidationError.  The
Liouville exponential is not on this path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels
from .born import BornPrediction, born_predict
from .milburn import gaussian_average
from .operators import (
    DEFAULT_TOLS,
    SIGMA_Y,
    Tolerances,
    ValidationError,
    _require_nonnegative,
    as_square_matrix,
    bell_amplitudes,
    pure_density,
    purity,
    qubit_state,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from .spectral import Spectrum, eigendecompose, from_eigenbasis, to_eigenbasis

TIME_SERIES_COLUMNS = ("t", "purity", "max_cross_group_coherence", "trace_distance_to_born")


@dataclasses.dataclass(frozen=True)
class PulseSpec:
    """Resonant-drive pulse parameters.

    ``kappa`` is the dimensionless pulse area omega1 * t; the dissipative
    attenuation of a coherence oscillating at the full Rabi splitting is
    exp(-decay_product) with decay_product = omega1 * tau_c * kappa.
    """

    kappa: float = 20.0
    omega1: float = 1.0
    tau_c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kappa", _require_nonnegative(self.kappa, "kappa"))
        object.__setattr__(self, "omega1", float(self.omega1))
        if not (math.isfinite(self.omega1) and self.omega1 > 0.0):
            raise ValidationError(f"omega1 must be finite and > 0, got {self.omega1}")
        if not math.isfinite(self.duration):
            raise ValidationError("the pulse duration kappa / omega1 overflows: "
                                  f"kappa {self.kappa:g}, omega1 {self.omega1:g}")
        object.__setattr__(self, "tau_c", _require_nonnegative(self.tau_c, "tau_c"))

    @property
    def duration(self) -> float:
        return self.kappa / self.omega1

    @property
    def decay_product(self) -> float:
        return self.omega1 * self.tau_c * self.kappa


@dataclasses.dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Everything a scenario run produces.

    ``time_series`` is a (grid_points, 4) float array with the columns named
    by TIME_SERIES_COLUMNS, computed from the entrywise eigenbasis solution
    with every sample validated as a density matrix.  ``final_numeric``
    comes from d x d unitaries averaged over Gaussian-distributed evolution
    times, ``final_analytic`` is the series' last sample, at ``t_max``.  The
    infinite-time limit, the projector sum, is ``born.post_state``.
    """

    initial: np.ndarray
    final_numeric: np.ndarray
    final_analytic: np.ndarray
    born: BornPrediction
    spectrum: Spectrum
    t_max: float
    time_series: np.ndarray


def custom_scenario(h, rho0, tau_c: float, t_max: float, grid_points: int = 200,
                    tol: Tolerances = DEFAULT_TOLS) -> ScenarioResult:
    """Run an arbitrary Hermitian drive and initial state through the pipeline."""
    if not (grid_points >= 2 and grid_points % 1 == 0):  # no float(): 10**400 is refused below
        raise ValidationError(f"grid_points must be an integer >= 2, got {grid_points}")
    grid_points = int(grid_points)
    # a series shares propagate's one-array byte budget: 1048576 points of four float64s
    if (size := 8 * len(TIME_SERIES_COLUMNS) * grid_points) > _kernels._MAX_ARRAY_BYTES:
        raise ValidationError(f"grid_points {grid_points} needs a {size}-byte series, past "
                              f"the {_kernels._MAX_ARRAY_BYTES}-byte limit")
    t_max = _require_nonnegative(t_max, "t_max")
    h = as_square_matrix(h)
    spectrum = eigendecompose(h, tol)  # the one hermiticity check of the drive
    tau_c = _require_nonnegative(tau_c, "tau_c")
    born = born_predict(spectrum, rho0, tol)  # the one density-matrix check of rho0
    rho0 = as_square_matrix(rho0)
    cross = spectrum.labels[:, None] != spectrum.labels[None, :]

    # The average refuses a width or phase past its limits, so a run it
    # refuses fails before the series work.
    final_numeric = validate_density_matrix(
        gaussian_average(h, tau_c, rho0, t_max), tol)

    # Closed form in the eigenbasis: a_ij(t) = a_ij(0) exp((-i D_ij - tau_c D_ij^2) t).
    # Purity and trace distance are unitarily invariant, so they are taken
    # on the coefficients directly.
    a0 = to_eigenbasis(spectrum, rho0)
    # not a0 * same: its tiny decayed entries made trace_distance 2x slower at d = 64 (ROADMAP 4)
    born_coeffs = to_eigenbasis(spectrum, born.post_state)

    series = np.empty((grid_points, len(TIME_SERIES_COLUMNS)), dtype=np.float64)
    series[:, 0] = np.linspace(0.0, t_max, grid_points)
    block = _kernels.block_rows(len(a0))
    for start in range(0, grid_points, block):
        rows = series[start:start + block]
        coeffs = _kernels.evolve_coefficients(
            a0, spectrum.eigenvalues, tau_c, rows[:, 0, None, None]
        )
        rows[:, 1] = purity(coeffs, tol)
        rows[:, 2] = np.abs(coeffs[:, cross]).max(axis=1, initial=0.0)
        rows[:, 3] = trace_distance(coeffs, born_coeffs, tol)

    return ScenarioResult(
        initial=rho0,
        final_numeric=final_numeric,
        final_analytic=from_eigenbasis(spectrum, coeffs[-1]),  # the grid ends at t_max
        born=born,
        spectrum=spectrum,
        t_max=t_max,
        time_series=series,
    )


def single_qubit_scenario(theta: float, phi: float, pulse: PulseSpec = PulseSpec(),
                          grid_points: int = 200,
                          tol: Tolerances = DEFAULT_TOLS) -> ScenarioResult:
    """One qubit at Bloch angles (theta, phi) driven by omega1 * sigma_y / 2."""
    h = 0.5 * pulse.omega1 * SIGMA_Y
    rho0 = pure_density(qubit_state(float(theta), float(phi)), tol)
    return custom_scenario(h, rho0, pulse.tau_c, pulse.duration, grid_points, tol)


def two_qubit_scenario(pulse: PulseSpec = PulseSpec(), grid_points: int = 200,
                       tol: Tolerances = DEFAULT_TOLS) -> ScenarioResult:
    """Entangled pair (|00> + |11>)/sqrt(2) with the drive on the first qubit.

    The drive omega1 * (sigma_y kron I) / 2 has two doubly degenerate
    levels, so the measurement it models is coarse-grained and the
    asymptotic state keeps its intra-group entanglement structure.
    """
    eye = np.eye(2, dtype=np.complex128)
    h = 0.5 * pulse.omega1 * tensor_product(SIGMA_Y, eye)
    rho0 = pure_density(bell_amplitudes(), tol)
    return custom_scenario(h, rho0, pulse.tau_c, pulse.duration, grid_points, tol)
