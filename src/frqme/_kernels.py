"""Hot numeric kernels, each one plain numpy function.

* ``expm``                -- Paterson-Stockmeyer Taylor exponential of one
  matrix or an (n, d, d) stack, for the d x d unitaries of the Gaussian
  average and for the Liouville propagators, a batch at a time
* ``propagate_grid``      -- repeated application of one step propagator
* ``evolve_coefficients`` -- the entrywise eigenbasis solution
  ``a_ij(0) exp((-i D_ij - tau_c D_ij^2) t)`` with ``D_ij = l_i - l_j``

The matrices handled here are small: Hilbert dimension up to about 64, and
Liouville dimension d^2 only where the Liouville exponential still runs
(``propagate``, extra channels and the self-checks).
"""

import numpy as np

from .operators import ValidationError, _first_failure, _sample

# Taylor truncation order for the exponential core.  After the argument is
# scaled to 1-norm <= 0.5 the remainder past 20 terms is below 1e-25, far
# under double-precision roundoff.  The core folds Paterson-Stockmeyer chunks
# by Horner in B^5: row j holds 1 / (5 j + p)! against B^4, ..., B, I, so each
# chunk sums its smallest term first; the constant term I is added last.
TAYLOR_TERMS = 20
NORM_CUTOFF = 0.5
_CHUNKS = np.array([[1.0 / np.prod(np.arange(1.0, k + 1)) if 0 < k <= TAYLOR_TERMS else 0.0
                     for k in range(5 * j + 4, 5 * j - 1, -1)] for j in range(5)])


def expm(a):
    """exp(a) by scaling-and-squaring with a Paterson-Stockmeyer Taylor core.

    ``a`` is one d x d matrix or an (n, d, d) stack, computed and returned as
    complex128.  Each sample is halved ``s`` times, the least count that
    brings its 1-norm to NORM_CUTOFF or under, read in closed form from the
    norm's binary exponent; one core (8 batched products) runs on the whole
    stack, and each sample is then squared its own ``s`` times, so it comes
    out bit for bit as a call on that sample alone would return it.  No
    count scales a non-finite 1-norm down, so it raises ValidationError, as
    it does when the squarings overflow; on a stack the message names the
    first failing sample.
    """
    a = np.asarray(a, dtype=np.complex128)
    norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)  # one per sample
    if not np.isfinite(norms).all():
        i = _first_failure(np.isfinite(norms))
        raise ValidationError(f"cannot exponentiate a matrix with 1-norm {norms[i]}{_sample(i)}")
    squarings = _squarings(norms)
    b = a * np.ldexp(1.0, -squarings)[..., None, None]  # exact powers of two
    powers = np.empty((6, *a.shape), dtype=np.complex128)  # B^5, B^4, ..., B, I
    powers[5], powers[4] = np.eye(a.shape[-1]), b
    for p in (3, 2, 1, 0):
        powers[p] = powers[p + 1] @ b
    chunks = (_CHUNKS @ powers[1:].view(np.float64).reshape(5, -1)).view(np.complex128)
    r = chunks[4].reshape(a.shape)
    for chunk in chunks[3::-1]:
        r = chunk.reshape(a.shape) + powers[0] @ r
    r += powers[5]  # the constant term I, the largest, added last
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(int(squarings.max(initial=0))):
            if a.ndim == 2:
                r = r @ r
            else:  # each sample stops at its own count
                live = squarings > s
                r[live] = r[live] @ r[live]
    if not np.isfinite(r).all():
        i = _first_failure(np.isfinite(r).all(axis=(-2, -1)))
        raise ValidationError(f"the exponential overflowed in {squarings[i]} squarings{_sample(i)}")
    return r


def _squarings(norms):
    """The least s >= 0 with norm * 2^-s <= NORM_CUTOFF = 1/2, per 1-norm.

    The count of the loop ``while norm > 0.5: norm *= 0.5``, in closed form:
    norm = f * 2^e with 1/2 <= f < 1 (f = e = 0 for a zero norm), so the
    bound first holds at s = e, or at s = e + 1 when f > 1/2.
    """
    fraction, exponent = np.frexp(norms)
    return np.maximum(exponent + (fraction > 0.5), 0)


def propagate_grid(step, v0, count):
    """Stack ``v0, step@v0, ..., step^count @ v0`` as rows of one array."""
    out = np.empty((count + 1, len(v0)), dtype=np.complex128)
    out[0] = v0
    for k in range(count):
        out[k + 1] = step @ out[k]
    return out


def evolve_coefficients(a0, eigenvalues, tau_c, t):
    """Apply ``exp((-i*dl - tau_c*dl^2) * t)`` entrywise, dl = lam_i - lam_j.

    Each level's phase exp(-i (lam - mean lam) t) is rounded once, so a rank-1
    ``a0`` stays rank-1 at any t.  ``t`` is a scalar for one (d, d) result, or
    an (n, 1, 1) array of times for an (n, d, d) stack.
    """
    dl = eigenvalues[:, None] - eigenvalues[None, :]
    p = np.exp(-1j * (eigenvalues - eigenvalues.mean())[:, None] * t)  # (d, 1) or (n, d, 1)
    return a0 * (p * np.swapaxes(p, -1, -2).conj()) * np.exp(-tau_c * dl * dl * t)
