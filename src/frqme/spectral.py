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
    _first_failure,
    _require_nonnegative,
    _sample,
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
    :func:`eigendecompose` and are read-only.  A Spectrum from a stacked
    call holds views into arrays shared with the rest of the stack.  No run
    multiplies a state by the stack; ``verify`` sums P_k rho P_k as the
    oracle of :meth:`dephase`.
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
        """sum_k P_k rho P_k as V (a * same) V^H: a = V^H rho V, cross-group entries zeroed."""
        same = self.labels[:, None] == self.labels[None, :]
        return from_eigenbasis(self, to_eigenbasis(self, rho) * same)

    def validate_state(self, rho0, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
        """Check rho0 is a density matrix of the drive's dimension; return it."""
        rho = validate_density_matrix(as_square_matrix(rho0), tol)
        if rho.shape[0] != self.dim:
            raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {self.dim}")
        return rho


def eigendecompose(h, tol: Tolerances = DEFAULT_TOLS) -> Spectrum | tuple[Spectrum, ...]:
    """Diagonalize Hermitian drives and cluster near-equal eigenvalues.

    ``h`` is one drive, which gives one Spectrum, or an (n, d, d) stack of
    drives of one dimension, which gives a tuple of n, each equal field by
    field to the Spectrum of a call on that drive alone.  Adjacent
    eigenvalues closer than tol.degeneracy_threshold(eigenvalues) fall into
    the same group, so exact degeneracies survive roundoff.  A drive within
    tol.herm of Hermitian is replaced by its Hermitian part, as in the
    Gaussian average and the Liouville oracle.  A drive whose eigenvalue
    span or mean overflows the float range raises ValidationError; on a
    stack, every error names the first failing sample.
    """
    hm = require_hermitian(h, tol)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * hm + 0.5 * hm.conj().swapaxes(-1, -2))
    with np.errstate(over="ignore"):
        span = eigenvalues[..., -1] - eigenvalues[..., 0]
        finite = np.isfinite(span) & np.isfinite(eigenvalues.mean(axis=-1))
    if (i := _first_failure(finite)) is not None:
        raise ValidationError(f"the eigenvalue span or mean of the drive overflows the "
                              f"float range{_sample(i)}; scale custom.hamiltonian down")
    d = hm.shape[-1]
    values, vectors = eigenvalues.reshape(-1, d), eigenvectors.reshape(-1, d, d)
    # a group starts after each gap past its sample's threshold
    gaps = values[:, 1:] - values[:, :-1] > tol.degeneracy_threshold(values)[:, None]
    labels = np.zeros(values.shape, dtype=np.intp)
    np.cumsum(gaps, axis=-1, out=labels[:, 1:])
    # members[j, k, i]: index i of sample j is in group k, for as many groups
    # as the sample with the most has; sample j keeps its first k_j projectors
    members = labels[:, None, :] == np.arange(labels[:, -1].max(initial=0) + 1)[:, None]
    adjoints = vectors.conj().swapaxes(-1, -2)
    projectors = (vectors[:, None] * members[..., None, :]) @ adjoints[:, None]
    for a in (labels, projectors):
        a.flags.writeable = False
    spectra = []
    for j, split in enumerate(gaps.tolist()):
        edges = [0, *(i + 1 for i, gap in enumerate(split) if gap), d]
        runs = tuple(zip(edges, edges[1:]))
        group_eigenvalues = np.array([values[j, a:b].mean() for a, b in runs])
        group_eigenvalues.flags.writeable = False
        spectra.append(Spectrum(eigenvalues=values[j], eigenvectors=vectors[j],
                                groups=tuple(tuple(range(a, b)) for a, b in runs),
                                labels=labels[j], group_eigenvalues=group_eigenvalues,
                                projectors=projectors[j, :len(runs)]))
    return tuple(spectra) if hm.ndim == 3 else spectra[0]


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
    """Closed-form state at time t, under ``_kernels.evolve_coefficients``'s float-range rules."""
    rho = spectrum.validate_state(rho0, tol)
    tau_c = _require_nonnegative(tau_c, "tau_c")
    t = _require_nonnegative(t, "time")
    a = _kernels.evolve_coefficients(to_eigenbasis(spectrum, rho), spectrum.eigenvalues, tau_c, t)
    return from_eigenbasis(spectrum, a)


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
    Returns inf when nothing decays: a fully degenerate drive, or a rate
    tau_c gap^2 of 0 (tau_c = 0, or a product below the float range).
    """
    if not (0.0 < float(eps) < 1.0):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    tau_c = _require_nonnegative(tau_c, "tau_c")
    if len(spectrum.groups) < 2:
        return math.inf
    gap = float(np.diff(spectrum.group_eigenvalues).min())
    rate = tau_c * gap * gap  # not gap ** 2, which raises OverflowError at gap = 1e308
    return -math.log(float(eps)) / rate if rate else math.inf
