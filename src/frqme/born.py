"""Projective-measurement predictions and comparison against simulated states.

For an observable sharing the drive's eigenbasis, measuring outcome k has
probability Tr(P_k rho) with P_k the projector onto the k-th degenerate
subspace, and the unconditioned post-measurement state is
sum_k P_k rho P_k.  The comparison helpers quantify how close a simulated
long-time state comes to that prediction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .operators import (
    DEFAULT_TOLS,
    Tolerances,
    TraceDeviationError,
    ValidationError,
    _require_nonnegative,
    trace_distance,
    validate_density_matrix,
)
from .spectral import Spectrum


@dataclasses.dataclass(frozen=True, eq=False)
class BornPrediction:
    """Outcome probabilities and post-measurement state; ``projectors`` is the spectrum's."""

    projectors: np.ndarray
    probabilities: np.ndarray
    post_state: np.ndarray
    group_eigenvalues: np.ndarray


def _weights(projectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(P_k rho) for each projector P_k of the (k, d, d) stack."""
    return np.trace(projectors @ rho, axis1=-2, axis2=-1).real


def born_predict(spectrum: Spectrum, rho0, tol: Tolerances = DEFAULT_TOLS) -> BornPrediction:
    """Probabilities Tr(P_k rho) and the dephased state sum_k P_k rho P_k."""
    rho = spectrum.validate_state(rho0, tol)
    probabilities = _weights(spectrum.projectors, rho)
    total = float(probabilities.sum())
    if abs(total - 1.0) > tol.trace:
        raise TraceDeviationError(f"probabilities sum to {total:.17g}, not 1")
    probabilities = np.clip(probabilities, 0.0, 1.0)
    probabilities /= probabilities.sum()
    return BornPrediction(
        projectors=spectrum.projectors,
        probabilities=probabilities,
        post_state=spectrum.dephase(rho),
        group_eigenvalues=spectrum.group_eigenvalues,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Distance between a simulated state and a measurement prediction.

    ``probability_table`` rows are (group label, simulated weight,
    predicted probability); the simulated weight is Tr(P_k rho_sim).
    """

    trace_distance: float
    max_entry_deviation: float
    probability_table: tuple
    tol: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def compare_to_prediction(rho_sim, prediction: BornPrediction,
                          tol: Tolerances = DEFAULT_TOLS,
                          compare_tol: float = None) -> ComparisonReport:
    """Measure how far a simulated state sits from the predicted one.

    ``compare_tol`` defaults to tol.compare; the report passes when both
    the trace distance and the largest entrywise deviation stay below it.
    """
    rho = validate_density_matrix(rho_sim, tol)
    if rho.shape != prediction.post_state.shape:
        raise ValidationError(
            f"state shape {rho.shape} differs from prediction {prediction.post_state.shape}"
        )
    threshold = _require_nonnegative(tol.compare if compare_tol is None else compare_tol,
                                     "comparison tolerance")
    td = trace_distance(rho, prediction.post_state, tol)
    entry = float(np.abs(rho - prediction.post_state).max())
    weights = _weights(prediction.projectors, rho)
    rows = tuple(
        (f"group_{k}", float(w), float(p))
        for k, (w, p) in enumerate(zip(weights, prediction.probabilities))
    )
    passed = bool(td <= threshold and entry <= threshold)
    return ComparisonReport(
        trace_distance=td,
        max_entry_deviation=entry,
        probability_table=rows,
        tol=threshold,
        passed=passed,
    )
