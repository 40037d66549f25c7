"""Superoperator construction and propagation in column-stacked form.

Vectorization follows the column-stacking convention: matrix entry (i, j)
lands at flat index j*d + i, so vec(A rho B) = (B^T kron A) vec(rho).  The
evolution generator combines the coherent commutator with double-commutator
dissipation whose strength is the drive correlation time:

    d rho / dt = -i [H, rho] - tau_c [H, [H, rho]]

Optional extra double-commutator channels model additional fluctuating
fields with their own strengths.

This module is the oracle: ``propagate`` applies the complex d^2 x d^2
exponential of the generator, at cost O(d^6), and serves the self-checks
and drives with extra channels.  The scenario endpoints come from the
Milburn form instead (``milburn.gaussian_average``).
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
    project_to_physical,
    require_hermitian,
    validate_density_matrix,
)


def vectorize(rho) -> np.ndarray:
    """Column-stack a d x d matrix into a length d^2 vector."""
    a = as_square_matrix(rho)
    return a.T.reshape(-1).copy()


def devectorize(vec) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValidationError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d).T.copy()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron for two d x d matrices, as one broadcast product: the same
    # entrywise products without np.kron's per-call overhead.
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def commutator_superop(h, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix of rho -> [H, rho] in column-stacked form: I kron H - H^T kron I."""
    hm = require_hermitian(as_square_matrix(h), tol)
    eye = np.eye(hm.shape[0], dtype=np.complex128)
    return _kron(eye, hm) - _kron(hm.T, eye)


def double_commutator_superop(h, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix of rho -> [H, [H, rho]]."""
    l1 = commutator_superop(h, tol)
    return l1 @ l1


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    """A drive Hamiltonian plus dissipation strengths.

    ``extra_dissipators`` is a tuple of (hermitian operator, strength) pairs,
    each contributing -strength * [A, [A, .]] to the generator.
    """

    drive: np.ndarray
    tau_c: float = 0.0
    extra_dissipators: tuple = ()

    def __post_init__(self):
        drive = require_hermitian(as_square_matrix(self.drive))
        object.__setattr__(self, "drive", drive)
        if not (0.0 <= float(self.tau_c) < math.inf):
            raise ValidationError(f"tau_c must be finite and >= 0, got {self.tau_c}")
        object.__setattr__(self, "tau_c", float(self.tau_c))
        checked = []
        for op, strength in self.extra_dissipators:
            om = require_hermitian(as_square_matrix(op))
            if om.shape != drive.shape:
                raise ValidationError(
                    f"dissipator shape {om.shape} differs from drive {drive.shape}"
                )
            if not (float(strength) >= 0.0):
                raise ValidationError(f"dissipator strength must be >= 0, got {strength}")
            checked.append((om, float(strength)))
        object.__setattr__(self, "extra_dissipators", tuple(checked))

    @property
    def dim(self) -> int:
        return self.drive.shape[0]


def build_generator(spec: GeneratorSpec, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Full d^2 x d^2 generator: -i L1(H) - tau_c L1(H)^2 - sum_k s_k L1(A_k)^2."""
    l1 = commutator_superop(spec.drive, tol)
    gen = -1j * l1
    gen -= spec.tau_c * (l1 @ l1)
    for op, strength in spec.extra_dissipators:
        gen -= strength * double_commutator_superop(op, tol)
    return gen


def matrix_exponential(m, t: float = 1.0) -> np.ndarray:
    """exp(m * t) via scaling-and-squaring with a Taylor core, as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    t = float(t)
    if not (t >= 0.0) or not np.isfinite(t):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * t  # the kernel refuses a non-finite product
    return _kernels.expm(a)


def propagate(spec: GeneratorSpec, rho0, t: float, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Evolve rho0 for time t under the generator and return a tidied state."""
    rho = validate_density_matrix(rho0, tol)
    if rho.shape[0] != spec.dim:
        raise ValidationError(f"state dim {rho.shape[0]} differs from drive dim {spec.dim}")
    out = devectorize(matrix_exponential(build_generator(spec, tol), t) @ vectorize(rho))
    return project_to_physical(out, tol)


def choi_matrix(superop) -> np.ndarray:
    """Reshuffle a column-stacked superoperator into its Choi matrix.

    The map is completely positive iff the result is positive semidefinite;
    trace preservation shows up as Choi trace d together with
    superop^dagger vec(I) = vec(I).
    """
    p = np.asarray(superop, dtype=np.complex128)
    d2 = p.shape[0]
    d = int(round(np.sqrt(d2)))
    if p.ndim != 2 or p.shape != (d2, d2) or d * d != d2:
        raise ValidationError(f"expected a d^2 x d^2 matrix, got shape {p.shape}")
    return p.reshape(d, d, d, d).swapaxes(0, 3).reshape(d2, d2).copy()
