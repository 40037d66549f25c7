"""Dense complex-matrix primitives: validation, state metrics, tensor algebra.

Conventions used throughout the package: hbar = 1, Hamiltonian entries are
angular frequencies, multi-qubit basis ordering is big-endian (the first
qubit is the most significant index).  Storage is dense complex128; the
target scale is Hilbert dimension <= 64.  The validation and metric
functions take one matrix or an (n, d, d) stack of them, check every
sample and name the first failing one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


class ValidationError(ValueError):
    """An operator or state failed one of its structural invariants."""


class NonHermitianError(ValidationError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class TraceDeviationError(ValidationError):
    """Trace differs from 1 beyond tolerance."""


class NegativeEigenvalueError(ValidationError):
    """Smallest eigenvalue is below the positivity tolerance."""


class DimensionMismatchError(ValidationError):
    """Operands do not share a Hilbert-space dimension."""


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    ``degeneracy`` is a relative scale: the absolute eigenvalue-clustering
    threshold is ``degeneracy * (span + 1)`` where span is the spectral
    range, see :meth:`degeneracy_threshold`.  Zero values are accepted (they
    turn every check into a hard failure, which the self-check command uses
    to demonstrate its failure path); negative and non-finite values are
    rejected.
    """

    herm: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-9
    compare: float = 1e-9
    degeneracy: float = 1e-9

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"tolerance {field.name} must be finite and >= 0, got {value}"
                )

    def degeneracy_threshold(self, eigenvalues):
        """``degeneracy * (span + 1)``, span the range of the eigenvalues (0 for none).

        A float for one vector; an (n,) array for an (n, d) stack, one per row.
        """
        ev = np.asarray(eigenvalues, dtype=np.float64)
        span = np.ptp(ev, axis=-1) if ev.shape[-1] else np.zeros(ev.shape[:-1])
        threshold = self.degeneracy * (span + 1.0)
        return float(threshold) if threshold.ndim == 0 else threshold


DEFAULT_TOLS = Tolerances()

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


def _require_nonnegative(value, name: str) -> float:
    """``value`` as a float, or ValidationError unless it is finite and >= 0."""
    value = float(value)
    if not (0.0 <= value < math.inf):
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a complex128 square 2-D array, or raise DimensionMismatchError."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_square_stack(m) -> np.ndarray:
    """Coerce to complex128: one square matrix or an (n, d, d) stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    return a


def _first_failure(ok):
    """Index of the first failed check, or None when every check passed.

    ``ok`` is a numpy bool for one matrix (failure index ``()``) or an (n,)
    bool array for a stack; the scalar case skips a reduction, because
    single-matrix validation is on every hot path.
    """
    if ok.ndim == 0:
        return None if ok else ()
    return None if ok.all() else (int(np.argmin(ok)),)


def _sample(index: tuple) -> str:
    return f" in sample {index[0]}" if index else ""


def _hermiticity_defects(a: np.ndarray) -> np.ndarray:
    # inf - inf is nan, which the callers' `not (defect <= tol)` rejects
    with np.errstate(invalid="ignore"):
        return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def require_hermitian(m, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Check ``m == m^H`` within tol.herm and return it as complex128.

    ``m`` is one matrix or an (n, d, d) stack; every sample is checked and
    the first failing one is reported.  A non-finite entry always fails.
    """
    a = _as_square_stack(m)
    defect = _hermiticity_defects(a)
    i = _first_failure(defect <= tol.herm)
    if i is not None:
        raise NonHermitianError(
            f"hermiticity defect {defect[i]:.3e}{_sample(i)} exceeds {tol.herm:.3e}"
        )
    return a


def _require_unit_trace(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    tr = np.trace(a, axis1=-2, axis2=-1)
    i = _first_failure(np.abs(tr - 1.0) <= tol.trace)
    if i is not None:
        raise TraceDeviationError(
            f"trace {tr[i]:.17g}{_sample(i)} deviates from 1 beyond {tol.trace:.3e}"
        )
    return a


def _require_psd(smallest, tol: Tolerances) -> None:
    """Check the smallest eigenvalue (one per sample) against -tol.psd."""
    i = _first_failure(smallest >= -tol.psd)
    if i is not None:
        raise NegativeEigenvalueError(
            f"smallest eigenvalue {smallest[i]:.3e}{_sample(i)} is below -{tol.psd:.3e}"
        )


def validate_density_matrix(m, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Check the density-matrix invariants and return the array unchanged.

    ``m`` is one matrix or an (n, d, d) stack, each sample checked on its
    own.  Raises NonHermitianError, TraceDeviationError or
    NegativeEigenvalueError depending on which invariant fails first; the
    checks are NaN-safe, so a non-finite state never passes.

    Positivity is decided by one Cholesky factorisation of a + psd * I
    (every sample at once): it succeeds only if each smallest eigenvalue
    exceeds -tol.psd, up to a backward error of about d * eps, since a
    factor that exists is bounded by the unit trace.  Only when it fails
    does the eigenvalue solver run, to decide within that roundoff and to
    report the first sample below -tol.psd with its smallest eigenvalue.
    """
    a = _require_unit_trace(require_hermitian(m, tol), tol)
    shifted = a.copy()
    d = a.shape[-1]
    shifted.reshape(a.shape[:-2] + (d * d,))[..., ::d + 1] += tol.psd
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        _require_psd(np.linalg.eigvalsh(a)[..., 0], tol)
    return a


def project_to_physical(m, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Check states with :func:`validate_density_matrix`; return their Hermitian parts.

    Nothing is repaired: a trace defect or a negative eigenvalue within the
    tolerances comes back as it was.  One matrix or an (n, d, d) stack.
    """
    a = validate_density_matrix(m, tol)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def purity(rho, tol: Tolerances = DEFAULT_TOLS):
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state.

    ``rho`` is validated as a density matrix (every sample of a stack), so
    Tr(rho^2) equals the sum of ``|rho_ij|^2``, which is what is computed.
    A float for one state, an (n,) array for an (n, d, d) stack.
    """
    a = validate_density_matrix(rho, tol)
    p = (a.real ** 2 + a.imag ** 2).sum(axis=(-2, -1))
    return float(p) if a.ndim == 2 else p


def trace_distance(a, b, tol: Tolerances = DEFAULT_TOLS):
    """Half the nuclear norm of a - b; a metric in [0, 1] for valid states.

    The norm is the sum of the absolute eigenvalues of ``a - b``, whose
    solver reads only one triangle, so ``a - b`` must be Hermitian within
    tol.herm; NonHermitianError names the first failing sample otherwise.
    Either operand may be an (n, d, d) stack; a single matrix broadcasts
    against a stack.  A float for two matrices, an (n,) array otherwise.
    """
    am, bm = _as_square_stack(a), _as_square_stack(b)
    if am.shape[-1] != bm.shape[-1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {sorted({am.shape[-1], bm.shape[-1]})}"
        )
    diff = require_hermitian(am - bm, tol)
    d = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def tensor_product(*operators) -> np.ndarray:
    """Kronecker product, left factor most significant (big-endian qubits)."""
    if not operators:
        raise ValueError("tensor_product needs at least one operator")
    out = as_square_matrix(operators[0])
    for op in operators[1:]:
        out = np.kron(out, as_square_matrix(op))
    return out


def require_unit_norm(amplitudes, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Check unit norm within the trace tolerance and return the amplitudes."""
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm_sq = float(np.vdot(v, v).real)
    if not (abs(norm_sq - 1.0) <= tol.trace):
        raise TraceDeviationError(f"squared norm {norm_sq:.17g} deviates from 1")
    return v


def pure_density(amplitudes, tol: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Projector |psi><psi| for a normalized amplitude vector."""
    v = require_unit_norm(amplitudes, tol)
    return np.outer(v, v.conj())


def qubit_state(theta: float, phi: float) -> np.ndarray:
    """Bloch-angle amplitudes cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)],
        dtype=np.complex128,
    )


def bell_amplitudes() -> np.ndarray:
    """The entangled two-qubit state (|00> + |11>)/sqrt(2), big-endian order."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v
