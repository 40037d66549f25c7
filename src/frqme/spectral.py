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
    ordered by eigenvalue.  ``labels`` maps each eigen-index to its group
    number, ``group_eigenvalues[k]`` is the mean eigenvalue of group k and
    ``projectors[k]`` projects onto its subspace; these three are computed
    once by :func:`eigendecompose` and are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    labels: np.ndarray
    group_eigenvalues: np.ndarray
    projectors: tuple

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def dephase(self, rho: np.ndarray) -> np.ndarray:
        """The projector sum sum_k P_k rho P_k over the degenerate groups."""
        out = np.zeros_like(rho)
        for p in self.projectors:
            out += p @ rho @ p
        return out

    def validate_state(self, rho0, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """Check rho0 is a density matrix of the drive's dimension; return it."""
        return self._require_dim(validate_density_matrix(as_square_matrix(rho0), tol))

    def _require_dim(self, rho) -> np.ndarray:
        """Check rho is one matrix of the drive's dimension; return it as complex128."""
        rho = as_square_matrix(rho)
        if rho.shape[0] != self.dim:
            raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {self.dim}")
        return rho


def eigendecompose(h, tol: Tolerances = DEFAULT_TOLS) -> Spectrum:
    """Diagonalize a Hermitian drive and cluster near-equal eigenvalues.

    Adjacent eigenvalues closer than tol.degeneracy_threshold(eigenvalues)
    fall into the same group, so exact degeneracies survive roundoff.
    """
    hm = require_hermitian(as_square_matrix(h), tol)
    eigenvalues, eigenvectors = np.linalg.eigh(hm)
    threshold = tol.degeneracy_threshold(eigenvalues)
    # a new group starts after every gap wider than the threshold
    starts = (np.flatnonzero(np.diff(eigenvalues) > threshold) + 1).tolist()
    bounds = [0, *starts, eigenvalues.size]
    groups = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    labels = np.repeat(np.arange(len(groups), dtype=np.intp), np.diff(bounds))
    group_eigenvalues = np.array([np.mean(eigenvalues[list(g)]) for g in groups])
    columns = [eigenvectors[:, list(g)] for g in groups]
    projectors = tuple(c @ c.conj().T for c in columns)
    for a in (labels, group_eigenvalues, *projectors):
        a.flags.writeable = False
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors, groups=groups,
                    labels=labels, group_eigenvalues=group_eigenvalues,
                    projectors=projectors)


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
    rho = spectrum.validate_state(rho0, tol)
    if not (0.0 <= float(tau_c) < math.inf):
        raise ValidationError(f"tau_c must be finite and >= 0, got {tau_c}")
    if not (0.0 <= float(t) < math.inf):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    a0 = to_eigenbasis(spectrum, rho)
    at = _kernels.evolve_coefficients(a0, spectrum.eigenvalues, float(tau_c), float(t))
    return from_eigenbasis(spectrum, at)


def asymptotic_state(spectrum: Spectrum, rho0, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Long-time limit: sum of projections onto each degenerate subspace.

    Independent of tau_c > 0 and of every drive detail except the
    eigenvector grouping; equals rho0 itself when the drive is fully
    degenerate (a single group).
    """
    return spectrum.dephase(spectrum.validate_state(rho0, tol))


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
    gap = float(np.diff(spectrum.group_eigenvalues).min())
    return -math.log(float(eps)) / (float(tau_c) * gap * gap)
