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
and drives with extra channels.  It takes one state or an (n, d, d) stack
with one spec and time or n of each, and exponentiates the scaled
generators a batch at a time within a fixed byte budget, so one call
covers a whole loop of instances.  It refuses a generator past the
one-array budget ``_kernels._MAX_ARRAY_BYTES`` (d > 38).  The scenario
endpoints come from the Milburn form instead (``milburn.gaussian_average``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels
from .operators import (
    DEFAULT_TOLS,
    DimensionMismatchError,
    Tolerances,
    ValidationError,
    _as_square_stack,
    _first_failure,
    _require_nonnegative,
    _sample,
    as_square_matrix,
    project_to_physical,
    require_hermitian,
    validate_density_matrix,
)

# A batch's stack of scaled generators stays within this many bytes (3
# samples at d = 6), so the stacked exponential's working set stays small.
_BATCH_BYTES = 64 * 1024


def vectorize(rho) -> np.ndarray:
    """Column-stack a d x d matrix into a length d^2 vector.

    An (n, d, d) stack gives an (n, d^2) array, one vector per sample.
    """
    a = _as_square_stack(rho)
    return a.swapaxes(-1, -2).copy().reshape(a.shape[:-2] + (-1,))


def devectorize(vec) -> np.ndarray:
    """Inverse of :func:`vectorize`: a length d^2 vector, or an (n, d^2) stack."""
    v = np.asarray(vec, dtype=np.complex128)
    if v.ndim not in (1, 2):
        raise ValidationError(f"expected a vector or a stack of them, got shape {v.shape}")
    d = math.isqrt(v.shape[-1])
    if d * d != v.shape[-1]:
        raise ValidationError(f"vector length {v.shape[-1]} is not a perfect square")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2).copy()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron for two d x d matrices, as one broadcast product: the same
    # entrywise products without np.kron's per-call overhead.
    d = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def commutator_superop(h, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix of rho -> [(H + H^H)/2, rho], column-stacked: I kron H - H^T kron I."""
    hm = require_hermitian(as_square_matrix(h), tol)
    hm = 0.5 * hm + 0.5 * hm.conj().T
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
        drive = as_square_matrix(self.drive)
        object.__setattr__(self, "drive", drive)
        object.__setattr__(self, "tau_c", _require_nonnegative(self.tau_c, "tau_c"))
        checked = []
        for op, strength in self.extra_dissipators:
            om = as_square_matrix(op)
            if om.shape != drive.shape:
                raise ValidationError(f"dissipator shape {om.shape} differs from drive "
                                      f"{drive.shape}")
            checked.append((om, _require_nonnegative(strength, "dissipator strength")))
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
    a = as_square_matrix(m)
    t = _require_nonnegative(t, "time")
    with np.errstate(over="ignore", invalid="ignore"):
        a = a * t  # the kernel refuses a non-finite product
    return _kernels.expm(a)


def propagate(spec, rho0, t, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Evolve states under the generator, check them and return their Hermitian parts.

    ``rho0`` is one state or an (n, d, d) stack, ``spec`` one GeneratorSpec
    or a sequence of n specs of one dimension, and ``t`` one time or n
    times; a single one is shared by all n samples, and the result is one
    state only when all three are single.  The scaled generators are
    exponentiated a batch at a time, each batch's stack within
    ``_BATCH_BYTES``, and each sample comes out as a call on it alone would
    return it.  A generator past ``_kernels._MAX_ARRAY_BYTES`` is refused before
    anything of its size is allocated.  A sample outside the density-matrix
    tolerances raises; one inside keeps its trace and eigenvalue defects.
    """
    shared = isinstance(spec, GeneratorSpec)
    specs = (spec,) if shared else tuple(spec)
    if not specs or len({s.dim for s in specs}) != 1:
        raise DimensionMismatchError(
            f"expected specs of one dimension, got {sorted({s.dim for s in specs})}")
    d = specs[0].dim
    if (size := 16 * d ** 4) > _kernels._MAX_ARRAY_BYTES:
        raise ValidationError(
            f"the Liouville generator of a d = {d} drive takes {size} bytes, past the "
            f"{_kernels._MAX_ARRAY_BYTES}-byte limit of propagate; custom scenarios use the "
            "Gaussian average instead")
    rho = validate_density_matrix(rho0, tol)
    if rho.shape[-1] != d:
        raise ValidationError(f"state dim {rho.shape[-1]} differs from drive dim {d}")
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise DimensionMismatchError(f"expected one time or a vector, got shape {times.shape}")
    if (i := _first_failure((times >= 0.0) & np.isfinite(times))) is not None:
        raise ValidationError(f"time must be finite and >= 0, got {times[i]}{_sample(i)}")
    counts = {len(a) for a, many in ((specs, not shared), (rho, rho.ndim == 3),
                                     (times, times.ndim == 1)) if many}
    if len(counts) > 1:
        raise DimensionMismatchError(f"specs, states and times give sample counts {sorted(counts)}")
    stacked = bool(counts)
    n = max(counts, default=1)
    times = np.broadcast_to(times, (n,))
    vecs = np.broadcast_to(vectorize(rho), (n, d * d))
    gen = build_generator(spec, tol) if shared else None
    out = np.empty((n, d * d), dtype=np.complex128)
    step = max(1, _BATCH_BYTES // size)
    for start in range(0, n, step):
        batch = slice(start, start + step)
        try:
            gens = gen if shared else np.array([build_generator(s, tol) for s in specs[batch]])
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = gens * times[batch, None, None]  # expm refuses a non-finite product
            props = _kernels.expm(scaled if stacked else scaled[0])
        except ValidationError as exc:
            if not stacked:
                raise
            raise type(exc)(f"{exc} of the batch that starts at sample {start}") from None
        out[batch] = np.matmul(props, vecs[batch, :, None])[..., 0]
    return project_to_physical(devectorize(out if stacked else out[0]), tol)


def choi_matrix(superop) -> np.ndarray:
    """Reshuffle a column-stacked superoperator into its Choi matrix.

    ``superop`` is one d^2 x d^2 matrix or an (n, d^2, d^2) stack, reshuffled
    sample by sample.  The map is completely positive iff the result is
    positive semidefinite; trace preservation shows up as Choi trace d
    together with superop^dagger vec(I) = vec(I).
    """
    p = _as_square_stack(superop)
    d = math.isqrt(p.shape[-1])
    if d * d != p.shape[-1]:
        raise ValidationError(f"expected d^2 x d^2 matrices, got shape {p.shape}")
    return p.reshape(p.shape[:-2] + (d,) * 4).swapaxes(-4, -1).copy().reshape(p.shape)
