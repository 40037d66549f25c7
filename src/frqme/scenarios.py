"""Ready-made driven-qubit scenarios and the shared evolution runner.

Each scenario evolves a fixed initial state under a resonant drive for a
dimensionless pulse area kappa = omega1 * t, sampling a uniform time grid,
and packages the numeric endpoint, the closed-form endpoint, the
infinite-time limit and the measurement prediction for later comparison.

The time series comes from the closed-form eigenbasis solution, evaluated
on blocks of grid times; the d^2 x d^2 Liouville exponential runs once, for
the numeric endpoint that serves as an independent check.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .born import BornPrediction, born_predict
from .liouville import GeneratorSpec, build_generator, devectorize, matrix_exponential, vectorize
from .operators import (
    DEFAULT_TOLS,
    SIGMA_Y,
    Tolerances,
    ValidationError,
    bell_amplitudes,
    pure_density,
    purity,
    qubit_state,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from .spectral import Spectrum, analytic_evolve, asymptotic_state, eigendecompose, to_eigenbasis

TIME_SERIES_COLUMNS = ("t", "purity", "max_cross_group_coherence", "trace_distance_to_born")

# Grid times per closed-form block: bounds the (block, d, d) temporaries,
# since holding a whole fine grid at once raises peak memory for no speed.
_BLOCK = 512


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
        if not (float(self.kappa) >= 0.0):
            raise ValidationError(f"kappa must be >= 0, got {self.kappa}")
        if not (float(self.omega1) > 0.0):
            raise ValidationError(f"omega1 must be > 0, got {self.omega1}")
        if not (float(self.tau_c) >= 0.0):
            raise ValidationError(f"tau_c must be >= 0, got {self.tau_c}")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "omega1", float(self.omega1))
        object.__setattr__(self, "tau_c", float(self.tau_c))

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
    comes from one full-interval matrix exponential, ``final_analytic`` from
    the entrywise eigenbasis solution, ``asymptotic`` from the projector sum.
    """

    initial: np.ndarray
    final_numeric: np.ndarray
    final_analytic: np.ndarray
    asymptotic: np.ndarray
    born: BornPrediction
    spectrum: Spectrum
    generator: GeneratorSpec
    t_max: float
    time_series: np.ndarray


def _cross_group_mask(spectrum: Spectrum) -> np.ndarray:
    labels = spectrum.group_labels()
    return labels[:, None] != labels[None, :]


def _run_scenario(h, rho0, tau_c: float, t_max: float, grid_points: int,
                  tol: Tolerances) -> ScenarioResult:
    if int(grid_points) < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    grid_points = int(grid_points)
    if not (float(t_max) >= 0.0):
        raise ValidationError(f"t_max must be >= 0, got {t_max}")
    t_max = float(t_max)

    rho0 = validate_density_matrix(rho0, tol)
    spec = GeneratorSpec(drive=h, tau_c=tau_c)
    spectrum = eigendecompose(spec.drive, tol)
    born = born_predict(spectrum, rho0, tol)
    cross = _cross_group_mask(spectrum)

    # Closed form in the eigenbasis: a_ij(t) = a_ij(0) exp((-i D_ij - tau_c D_ij^2) t).
    # Purity and trace distance are unitarily invariant, so they are taken
    # on the coefficients directly.
    d = spectrum.dim
    a0 = to_eigenbasis(spectrum, rho0)
    born_coeffs = to_eigenbasis(spectrum, born.post_state)
    dl = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    rates = (-1j * dl - spec.tau_c * dl * dl).reshape(-1)

    series = np.empty((grid_points, len(TIME_SERIES_COLUMNS)), dtype=np.float64)
    series[:, 0] = np.linspace(0.0, t_max, grid_points)
    for start in range(0, grid_points, _BLOCK):
        rows = series[start:start + _BLOCK]
        coeffs = np.exp(np.outer(rows[:, 0], rates)).reshape(-1, d, d) * a0
        rows[:, 1] = purity(coeffs, tol)
        rows[:, 2] = np.abs(coeffs[:, cross]).max(axis=1) if cross.any() else 0.0
        rows[:, 3] = trace_distance(coeffs, born_coeffs)

    final_numeric = devectorize(
        matrix_exponential(build_generator(spec, tol), t_max) @ vectorize(rho0)
    )
    final_numeric = validate_density_matrix(final_numeric, tol)
    final_analytic = analytic_evolve(spectrum, rho0, spec.tau_c, t_max, tol)
    asymptotic = asymptotic_state(spectrum, rho0, tol)

    return ScenarioResult(
        initial=rho0,
        final_numeric=final_numeric,
        final_analytic=final_analytic,
        asymptotic=asymptotic,
        born=born,
        spectrum=spectrum,
        generator=spec,
        t_max=t_max,
        time_series=series,
    )


def single_qubit_scenario(theta: float, phi: float, pulse: PulseSpec = PulseSpec(),
                          grid_points: int = 200,
                          tol: Tolerances = DEFAULT_TOLS) -> ScenarioResult:
    """One qubit at Bloch angles (theta, phi) driven by omega1 * sigma_y / 2."""
    h = 0.5 * pulse.omega1 * SIGMA_Y
    rho0 = pure_density(qubit_state(float(theta), float(phi)), tol)
    return _run_scenario(h, rho0, pulse.tau_c, pulse.duration, grid_points, tol)


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
    return _run_scenario(h, rho0, pulse.tau_c, pulse.duration, grid_points, tol)


def custom_scenario(h, rho0, tau_c: float, t_max: float, grid_points: int = 200,
                    tol: Tolerances = DEFAULT_TOLS) -> ScenarioResult:
    """Run an arbitrary Hermitian drive and initial state through the pipeline."""
    return _run_scenario(h, rho0, float(tau_c), float(t_max), grid_points, tol)
