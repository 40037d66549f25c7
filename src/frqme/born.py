"""Projective-measurement predictions and comparison against simulated states.

For an observable sharing the drive's eigenbasis, measuring outcome k has
probability Tr(P_k rho) with P_k the projector onto the k-th degenerate
subspace, and the unconditioned post-measurement state is
sum_k P_k rho P_k.  The comparison helpers quantify how close a simulated
long-time state comes to that prediction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .operators import (
    DEFAULT_TOLS,
    Tolerances,
    TraceDeviationError,
    ValidationError,
    trace_distance,
    validate_density_matrix,
)
from .spectral import Spectrum


@dataclasses.dataclass(frozen=True, eq=False)
class BornPrediction:
    """Outcome probabilities and post-measurement state for one input state."""

    projectors: tuple
    probabilities: np.ndarray
    post_state: np.ndarray
    group_eigenvalues: np.ndarray


def born_predict(spectrum: Spectrum, rho0, tol: Tolerances = DEFAULT_TOLS) -> BornPrediction:
    """Probabilities Tr(P_k rho) and the dephased state sum_k P_k rho P_k."""
    rho = spectrum.validate_state(rho0, tol)
    projectors = tuple(spectrum.projector(k) for k in range(len(spectrum.groups)))
    probabilities = np.array([np.trace(p @ rho).real for p in projectors], dtype=np.float64)
    total = float(probabilities.sum())
    if abs(total - 1.0) > tol.trace:
        raise TraceDeviationError(f"probabilities sum to {total:.17g}, not 1")
    probabilities = np.clip(probabilities, 0.0, 1.0)
    probabilities /= probabilities.sum()
    eigs = np.array(
        [spectrum.group_eigenvalue(k) for k in range(len(spectrum.groups))],
        dtype=np.float64,
    )
    return BornPrediction(
        projectors=projectors,
        probabilities=probabilities,
        post_state=spectrum.dephase(rho),
        group_eigenvalues=eigs,
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
    threshold = tol.compare if compare_tol is None else float(compare_tol)
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValidationError(f"comparison tolerance must be finite and >= 0, got {threshold}")
    td = trace_distance(rho, prediction.post_state)
    entry = float(np.abs(rho - prediction.post_state).max())
    rows = []
    for k, p in enumerate(prediction.projectors):
        weight = float(np.trace(p @ rho).real)
        rows.append((f"group_{k}", weight, float(prediction.probabilities[k])))
    passed = bool(td <= threshold and entry <= threshold)
    return ComparisonReport(
        trace_distance=td,
        max_entry_deviation=entry,
        probability_table=tuple(rows),
        tol=threshold,
        passed=passed,
    )
