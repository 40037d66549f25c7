"""Eigenbasis analysis: degeneracy grouping, closed-form evolution, limits.

In the drive eigenbasis the generator acts entrywise on coefficients
a_ij = <v_i| rho |v_j>:

    a_ij(t) = a_ij(0) * exp(-i (l_i - l_j) t) * exp(-tau_c (l_i - l_j)^2 t)

Coefficients inside a degenerate group keep their values (to an ulp, as
products of per-level phases); every cross-group coefficient decays, so the
long-time state is the sum of projections onto the degenerate subspaces.
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
    _require_nonnegative,
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
    ``projectors`` is the (k, d, d) stack whose k-th matrix projects onto
    group k's subspace; these three are computed once by
    :func:`eigendecompose` and are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    labels: np.ndarray
    group_eigenvalues: np.ndarray
    projectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def dephase(self, rho: np.ndarray) -> np.ndarray:
        """The projector sum sum_k P_k rho P_k over the degenerate groups."""
        return (self.projectors @ rho @ self.projectors).sum(axis=0)

    def validate_state(self, rho0, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """Check rho0 is a density matrix of the drive's dimension; return it."""
        rho = validate_density_matrix(as_square_matrix(rho0), tol)
        if rho.shape[0] != self.dim:
            raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {self.dim}")
        return rho


def eigendecompose(h, tol: Tolerances = DEFAULT_TOLS) -> Spectrum:
    """Diagonalize a Hermitian drive and cluster near-equal eigenvalues.

    Adjacent eigenvalues closer than tol.degeneracy_threshold(eigenvalues)
    fall into the same group, so exact degeneracies survive roundoff.  A
    drive within tol.herm of Hermitian is replaced by its Hermitian part, as
    in the Gaussian average and the Liouville oracle.  A drive whose
    eigenvalue span or mean overflows the float range raises ValidationError.
    """
    hm = require_hermitian(as_square_matrix(h), tol)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * hm + 0.5 * hm.conj().T)
    with np.errstate(over="ignore"):
        edges = np.array([eigenvalues[-1] - eigenvalues[0], eigenvalues.mean()])
    if not np.isfinite(edges).all():
        raise ValidationError("the eigenvalue span or mean of the drive overflows the "
                              "float range; scale custom.hamiltonian down")
    threshold = tol.degeneracy_threshold(eigenvalues)
    # a group starts after each gap past the threshold; members[k, i]: index i is in group k
    labels = np.concatenate(([0], np.cumsum(np.diff(eigenvalues) > threshold)))
    members = labels == np.arange(labels[-1] + 1)[:, None]
    groups = tuple(tuple(np.flatnonzero(m).tolist()) for m in members)
    group_eigenvalues = np.array([eigenvalues[m].mean() for m in members])
    projectors = (eigenvectors * members[:, None, :]) @ eigenvectors.conj().T
    for a in (labels, group_eigenvalues, projectors):
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
    """Closed-form state at time t from the entrywise eigenbasis solution.

    A decay exponent past the float range gives exactly 0; phases past it
    raise.  At t = 0 the coefficients stay as they are, even where
    tau_c D_ij^2 is inf.
    """
    rho = spectrum.validate_state(rho0, tol)
    tau_c = _require_nonnegative(tau_c, "tau_c")
    t = _require_nonnegative(t, "time")
    a0 = to_eigenbasis(spectrum, rho)
    with np.errstate(over="ignore", invalid="ignore"):
        at = _kernels.evolve_coefficients(a0, spectrum.eigenvalues, tau_c, t) if t else a0
    if not np.isfinite(at).all():
        raise ValidationError(f"the eigenbasis solution overflows at time {t}")
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
    tau_c = _require_nonnegative(tau_c, "tau_c")
    if len(spectrum.groups) < 2 or tau_c == 0.0:
        return math.inf
    gap = float(np.diff(spectrum.group_eigenvalues).min())
    return -math.log(float(eps)) / (tau_c * gap * gap)
