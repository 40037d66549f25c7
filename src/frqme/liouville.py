"""Superoperator construction and propagation in column-stacked form.

Vectorization follows the column-stacking convention: matrix entry (i, j)
lands at flat index j*d + i, so vec(A rho B) = (B^T kron A) vec(rho).  The
evolution generator combines the coherent commutator with double-commutator
dissipation whose strength is the drive correlation time:

    d rho / dt = -i [H, rho] - tau_c [H, [H, rho]]

Optional extra double-commutator channels model additional fluctuating
fields with their own strengths.

The generator maps Hermitian matrices to Hermitian matrices, so states are
propagated in the real coordinates x = (rho_ii, Re rho_ij, Im rho_ij for
i < j), where its exponential is a real matrix.

Without extra channels the evolution also has an exact Milburn form, an
average of unitary evolutions over Gaussian-distributed times:

    exp(t L) rho = E_xi[U(t + xi) rho U(t + xi)^H],  xi ~ N(0, 2 tau_c t),

with U(s) = exp(-i H s).  It needs only d x d exponentials, where the
Liouville exponential costs O(d^6), and it alone gives a scenario's numeric
endpoint (``_gaussian_average``).
"""

from __future__ import annotations

import dataclasses
import functools
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
    """exp(m * t) via scaling-and-squaring with a Taylor core.

    A real ``m`` gives a float64 result, anything else complex128.
    """
    a = np.asarray(m)
    a = a.astype(np.float64 if np.isrealobj(a) else np.complex128, copy=False)
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
    out = _propagate_hermitian(build_generator(spec, tol), rho, t)
    return project_to_physical(out, tol)


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int):
    """Index arrays that pass between vec(rho) and the real coordinates x.

    The k = d(d+1)/2 entries (i, j), i <= j, diagonal first, sit at vec
    indices ``upper``; their mirror images (j, i) at ``lower``.  Coordinate
    c of x reads vec index ``cols[c]`` (and ``mirror[c]``): the diagonal,
    then the off-diagonal pairs twice, once for Re and once for Im.
    ``sign`` is 0, +1, -1 on those three runs.
    """
    off_i, off_j = np.triu_indices(d, 1)
    i = np.concatenate((np.arange(d), off_i))
    j = np.concatenate((np.arange(d), off_j))
    upper = j * d + i
    lower = i * d + j
    cols = np.concatenate((upper, upper[d:]))
    mirror = np.concatenate((lower, lower[d:]))
    m = off_i.size
    sign = np.concatenate((np.zeros(d), np.ones(m), -np.ones(m)))
    arrays = (upper, lower, cols, mirror, sign)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _propagate_hermitian(gen: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(gen * t) applied to a Hermitian rho, with a float64 exponential.

    With T the map x -> vec(rho) (entries 0, +-1, +-i), the generator in
    real coordinates is G_r = T^-1 gen T.  The columns of gen T are gen[:, ij]
    for rho_ii, gen[:, ij] + gen[:, ji] for Re rho_ij and
    i (gen[:, ij] - gen[:, ji]) for Im rho_ij; since their images are
    Hermitian, T^-1 only reads the upper triangle: its real part, and the
    imaginary part off the diagonal.  Every factor is a power of two, so
    the change of coordinates itself is exact.
    """
    d = rho.shape[0]
    k = d * (d + 1) // 2
    upper, lower, cols, mirror, sign = _hermitian_coordinates(d)
    gt = gen[upper[:, None], cols]
    gt += sign * gen[upper[:, None], mirror]
    gt[:, k:] *= 1j
    g_real = np.concatenate((gt.real, gt.imag[d:]))
    v = vectorize(rho)[upper]
    x = matrix_exponential(g_real, t) @ np.concatenate((v.real, v.imag[d:]))
    z = x[:k] + 0j
    z.imag[d:] = x[k:]
    out = np.empty(d * d, dtype=np.complex128)
    out[lower] = z.conj()
    out[upper] = z
    return devectorize(out)


# Reach of the trapezoid rule in units of sigma.  Its step keeps the same
# margin, 8.6 / sigma, above the drive's span, so the weight tail and the
# aliasing error are both about exp(-8.6**2 / 2) = e^-37.
_GAUSS_REACH = 8.6


def _span_bound(h: np.ndarray) -> float:
    """Upper bound on l_max - l_min of a Hermitian h, without diagonalising it.

    The smaller of the Gershgorin span and sqrt(2) ||h - (tr h / d) I||_F;
    the second holds because (l_max - c)^2 + (l_min - c)^2 >= span^2 / 2
    for the mean eigenvalue c.
    """
    centres = h.diagonal().real
    radii = np.abs(h).sum(axis=1) - np.abs(h.diagonal())
    gershgorin = float((centres + radii).max() - (centres - radii).min())
    shifted = h - centres.mean() * np.eye(h.shape[0])
    return min(gershgorin, math.sqrt(2.0) * float(np.linalg.norm(shifted)))


# The most baby steps m the Gaussian average takes: d^2 at the target scale
# d = 64, where its (m, d, d) stacks stay within the d^2 x d^2 generator.
_GAUSS_MAX_STEPS = 64 ** 2


def _gaussian_grid(h: np.ndarray, tau_c: float, t: float):
    """Trapezoid rule for the Gaussian average: (step, spacing, K, m).

    The nodes are xi = k * step for |k| <= K, step = spacing * sigma, where
    the spacing 2 pi / (span sigma + 8.6) keeps the aliasing margin 8.6 /
    sigma above the span; m = ceil(sqrt(2K + 1)) is the number of baby
    steps.  A zero width span * sigma (sigma = 0, or h a multiple of I)
    gives K = 0, m = 1 and step 0; m is inf when the width overflows.
    """
    sigma = math.sqrt(2.0 * tau_c * t)
    span = _span_bound(h)
    width = span * sigma if span else 0.0
    if not math.isfinite(width):
        return math.inf, 0.0, 0, math.inf
    spacing = 2.0 * math.pi / (width + _GAUSS_REACH)
    k = math.ceil(_GAUSS_REACH / spacing) if width else 0
    return (spacing * sigma if k else 0.0), spacing, k, math.isqrt(2 * k) + 1


def _unitarize(x: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step towards the unitary polar factor of x.

    For x = W (1 + E), W unitary, it returns W (1 - E^2) when E is
    Hermitian (a norm error) and W (1 + O(E^2)) when E is anti-Hermitian
    (a phase error).
    """
    return x @ (1.5 * np.eye(x.shape[0]) - 0.5 * (x.conj().T @ x))


def _gaussian_average(h: np.ndarray, tau_c: float, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) rho for L = -i ad_h - tau_c ad_h^2, from the Milburn form.

    The trapezoid rule of ``_gaussian_grid`` over xi_n = (n - K) step,
    n < N = 2K + 1, with weights exp(-xi^2 / 2 sigma^2) normalised to sum
    to 1, is summed by baby and giant steps: writing n = i m + j,
    U(t + xi_n) = P_j G^i V with P_j = U(step)^j, G = U(step)^m and
    V = U(t - K step).  So the sum is sum_j P_j Y_j P_j^H with
    Y_j = sum_i w_(i m + j) G^i V rho V^H G^-i: two d x d exponentials and
    O(m) products.  When sigma = 0 it is the plain conjugation
    U(t) rho U(t)^H.  The result is exactly Hermitian.  A grid of more than
    ``_GAUSS_MAX_STEPS`` baby steps raises ValidationError.
    """
    d = h.shape[0]
    step, spacing, k, m = _gaussian_grid(h, tau_c, t)
    if m > _GAUSS_MAX_STEPS:
        raise ValidationError(f"the Gaussian average needs {m} baby steps, more than "
                              f"its limit _GAUSS_MAX_STEPS = {_GAUSS_MAX_STEPS}")
    # the average is blind to a shift of h by a multiple of the identity
    h0 = h - (np.trace(h).real / d) * np.eye(d)
    # Roundoff leaves V (from its squarings) and G (from m products) off
    # unitary by about eps times their phase or product count, and the m
    # conjugations by G carry that norm error into the populations, which
    # the average never dephases (left in, it reaches 1e-10 at d = 64).
    # Each Newton-Schulz step squares the norm error.  G gets one; V gets
    # two, because far past the decay horizon its squarings leave it off by
    # up to 4e-5 (t = 1e12 at d = 2), which one step only brings to 1e-9.
    # The phase error that remains cancels as the coherences decay.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = -1j * (t - k * step) * h0  # expm refuses a non-finite one
    v = _unitarize(_unitarize(_kernels.expm(offset)))
    out = v @ rho @ v.conj().T
    if k:
        u = _kernels.expm(-1j * step * h0)
        powers = np.empty((m, d, d), dtype=np.complex128)
        powers[0] = np.eye(d)
        for j in range(1, m):
            powers[j] = powers[j - 1] @ u
        giant = _unitarize(powers[-1] @ u)
        terms = np.empty_like(powers)
        terms[0] = out
        for i in range(1, m):
            terms[i] = giant @ terms[i - 1] @ giant.conj().T
        # Y = W^T T for the m x m weights W[i, j] = w_(i m + j), formed d^2
        # baby-step columns at a time: a block holds half as many floats as
        # the terms stack, so no m^2 array (98 MB at d = 2, m = 3500) exists
        # while m > d^2, and each block of Y is one matrix product, on T's
        # real view.
        flat = terms.view(np.float64).reshape(m, -1)
        y = np.empty_like(flat)
        row_offsets = np.arange(m)[:, None] * m - k
        total = 0.0
        for first in range(0, m, d * d):
            n = row_offsets + np.arange(first, min(first + d * d, m))  # node - K
            w = np.where(n <= k, np.exp(-0.5 * (n * spacing) ** 2), 0.0)
            total += w.sum()
            np.matmul(w.T, flat, out=y[first:first + w.shape[1]])
        y /= total
        y = y.view(np.complex128).reshape(m, d, d)
        out = (powers @ y @ powers.conj().transpose(0, 2, 1)).sum(axis=0)
    return 0.5 * (out + out.conj().T)


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
