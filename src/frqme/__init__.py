"""Driven-dissipative quantum evolution whose long-time states realize
projective-measurement statistics.

The generator combines coherent driving with a double-commutator dissipator
scaled by the drive correlation time,

    d rho / dt = -i [H, rho] - tau_c [H, [H, rho]],

so every coherence between distinct drive eigenvalues decays while each
degenerate subspace is left untouched.  The package evolves states in closed
form and numerically, extracts the asymptotic state, and compares it against
the projective prediction sum_k P_k rho P_k with outcome weights Tr(P_k rho).
The numeric endpoint of a scenario comes from the Milburn form, an average
of d x d unitary evolutions over Gaussian-distributed times
(frqme.milburn); the d^2 x d^2 Liouville exponential (frqme.liouville,
``propagate``) is the oracle behind the self-checks.  The exports are the
pieces of that pipeline: states and their validation, the generator and its
exponential, the eigenbasis solution, the prediction and its comparison, the
packaged scenarios and the self-checks.

numpy is the only runtime dependency; the kernels in frqme._kernels are one
plain numpy function each: the matrix exponential and the entrywise
eigenbasis evolution on the production path, and grid propagation, which
only the tests use as the reference for the scenario time series.
"""

from .born import BornPrediction, ComparisonReport, born_predict, compare_to_prediction
from .liouville import (
    GeneratorSpec,
    build_generator,
    choi_matrix,
    commutator_superop,
    devectorize,
    double_commutator_superop,
    matrix_exponential,
    propagate,
    vectorize,
)
from .operators import (
    DEFAULT_TOLS,
    SIGMA_Y,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
    Tolerances,
    TraceDeviationError,
    ValidationError,
    bell_amplitudes,
    project_to_physical,
    pure_density,
    purity,
    qubit_state,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from .scenarios import (
    TIME_SERIES_COLUMNS,
    PulseSpec,
    ScenarioResult,
    custom_scenario,
    single_qubit_scenario,
    two_qubit_scenario,
)
from .spectral import (
    Spectrum,
    analytic_evolve,
    asymptotic_state,
    convergence_time,
    eigendecompose,
    from_eigenbasis,
    to_eigenbasis,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BornPrediction",
    "CheckResult",
    "ComparisonReport",
    "DEFAULT_TOLS",
    "DimensionMismatchError",
    "GeneratorSpec",
    "NegativeEigenvalueError",
    "NonHermitianError",
    "PulseSpec",
    "ScenarioResult",
    "SIGMA_Y",
    "Spectrum",
    "TIME_SERIES_COLUMNS",
    "Tolerances",
    "TraceDeviationError",
    "ValidationError",
    "analytic_evolve",
    "asymptotic_state",
    "bell_amplitudes",
    "born_predict",
    "build_generator",
    "choi_matrix",
    "commutator_superop",
    "compare_to_prediction",
    "convergence_time",
    "custom_scenario",
    "devectorize",
    "double_commutator_superop",
    "eigendecompose",
    "from_eigenbasis",
    "matrix_exponential",
    "project_to_physical",
    "propagate",
    "pure_density",
    "purity",
    "qubit_state",
    "run_checks",
    "single_qubit_scenario",
    "tensor_product",
    "to_eigenbasis",
    "trace_distance",
    "two_qubit_scenario",
    "validate_density_matrix",
    "vectorize",
    "__version__",
]
