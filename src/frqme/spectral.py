"""Eigenbasis analysis: degeneracy grouping, closed-form evolution, limits.

In the drive eigenbasis the generator acts entrywise on coefficients
a_ij = <v_i| rho |v_j>:

    a_ij(t) = a_ij(0) * exp(-i (l_i - l_j) t) * exp(-tau_c (l_i - l_j)^2 t)

Coefficients inside a degenerate group are untouched; every cross-group
coefficient decays, so the long-time state is the sum of projections onto
the degenerate subspaces.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels
from .operators import (
    DEFAULT_TOLS,
    Tolerances,
    ValidationError,
    as_square_matrix,
    require_hermitian,
    validate_density_matrix,
)


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian drive with degeneracy groups.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds the matching
    orthonormal columns, and ``groups`` partitions the index range into
    runs of (near-)equal eigenvalues, each run ascending and the runs
    ordered by eigenvalue.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def group_eigenvalue(self, k: int) -> float:
        return float(np.mean(self.eigenvalues[list(self.groups[k])]))

    def projector(self, k: int) -> np.ndarray:
        cols = self.eigenvectors[:, list(self.groups[k])]
        return cols @ cols.conj().T

    def group_labels(self) -> np.ndarray:
        """Label array mapping each eigenvector index to its group number."""
        labels = np.empty(self.dim, dtype=np.intp)
        for k, members in enumerate(self.groups):
            for i in members:
                labels[i] = k
        return labels


def eigendecompose(h, tol: Tolerances = DEFAULT_TOLS) -> Spectrum:
    """Diagonalize a Hermitian drive and cluster near-equal eigenvalues.

    Adjacent eigenvalues closer than tol.degeneracy_threshold(eigenvalues)
    fall into the same group, so exact degeneracies survive roundoff.
    """
    hm = require_hermitian(as_square_matrix(h), tol)
    eigenvalues, eigenvectors = np.linalg.eigh(hm)
    threshold = tol.degeneracy_threshold(eigenvalues)
    groups = []
    current = [0]
    for i in range(1, eigenvalues.size):
        if eigenvalues[i] - eigenvalues[i - 1] <= threshold:
            current.append(i)
        else:
            groups.append(tuple(current))
            current = [i]
    groups.append(tuple(current))
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, groups=tuple(groups))


def to_eigenbasis(spectrum: Spectrum, matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
    v = spectrum.eigenvectors
    return v.conj().T @ a @ v


def from_eigenbasis(spectrum: Spectrum, coeffs) -> np.ndarray:
    a = np.asarray(coeffs, dtype=np.complex128)
    v = spectrum.eigenvectors
    return v @ a @ v.conj().T


def analytic_evolve(spectrum: Spectrum, rho0, tau_c: float, t: float,
                    tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Closed-form state at time t from the entrywise eigenbasis solution."""
    rho = validate_density_matrix(as_square_matrix(rho0), tol)
    if rho.shape[0] != spectrum.dim:
        raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {spectrum.dim}")
    if not (float(tau_c) >= 0.0):
        raise ValidationError(f"tau_c must be >= 0, got {tau_c}")
    if not (float(t) >= 0.0):
        raise ValidationError(f"time must be >= 0, got {t}")
    a0 = to_eigenbasis(spectrum, rho)
    at = _kernels.evolve_coefficients(a0, spectrum.eigenvalues, float(tau_c), float(t))
    return from_eigenbasis(spectrum, at)


def asymptotic_state(spectrum: Spectrum, rho0, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Long-time limit: sum of projections onto each degenerate subspace.

    Independent of tau_c > 0 and of every drive detail except the
    eigenvector grouping; equals rho0 itself when the drive is fully
    degenerate (a single group).
    """
    rho = validate_density_matrix(as_square_matrix(rho0), tol)
    if rho.shape[0] != spectrum.dim:
        raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {spectrum.dim}")
    out = np.zeros_like(rho)
    for k in range(len(spectrum.groups)):
        p = spectrum.projector(k)
        out += p @ rho @ p
    return out


def convergence_time(spectrum: Spectrum, tau_c: float, eps: float) -> float:
    """Time for every cross-group coefficient to shrink by a factor eps.

    Solves exp(-tau_c gap^2 t) = eps for the smallest cross-group gap.
    Returns inf when nothing decays: a fully degenerate drive or tau_c = 0.
    """
    if not (0.0 < float(eps) < 1.0):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if not (float(tau_c) >= 0.0):
        raise ValidationError(f"tau_c must be >= 0, got {tau_c}")
    if len(spectrum.groups) < 2 or float(tau_c) == 0.0:
        return math.inf
    gaps = [
        spectrum.group_eigenvalue(k + 1) - spectrum.group_eigenvalue(k)
        for k in range(len(spectrum.groups) - 1)
    ]
    gap = min(gaps)
    return -math.log(float(eps)) / (float(tau_c) * gap * gap)
