"""Hot numeric kernels, each one plain numpy function.

* ``expm``                -- matrix exponential, for the d x d unitaries of
  the Gaussian average and for the Liouville propagator
* ``propagate_grid``      -- repeated application of one step propagator
* ``evolve_coefficients`` -- the entrywise eigenbasis solution
  ``a_ij(0) exp((-i D_ij - tau_c D_ij^2) t)`` with ``D_ij = l_i - l_j``

The matrices handled here are small: Hilbert dimension up to about 64, and
Liouville dimension d^2 only where the Liouville exponential still runs
(``propagate``, extra channels and the self-checks).
"""

import numpy as np

from .operators import ValidationError

# Taylor truncation order for the exponential core.  After the argument is
# scaled to 1-norm <= 0.5 the remainder past 20 terms is below 1e-25, far
# under double-precision roundoff.
TAYLOR_TERMS = 20
NORM_CUTOFF = 0.5


def expm(a):
    """exp(a) by scaling-and-squaring with a Horner-evaluated Taylor core.

    Real input is computed and returned as float64, anything else as
    complex128.  No squaring count scales a non-finite 1-norm down, so it
    raises ValidationError, as it does when the squarings overflow.
    """
    a = np.asarray(a)
    a = a.astype(np.float64 if np.isrealobj(a) else np.complex128, copy=False)
    norm = np.abs(a).sum(axis=0).max() if a.size else 0.0
    if not np.isfinite(norm):
        raise ValidationError(f"cannot exponentiate a matrix with 1-norm {norm}")
    squarings = 0
    while norm > NORM_CUTOFF:
        norm *= 0.5
        squarings += 1
    b = a * (0.5 ** squarings)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    r = eye.copy()
    for k in range(TAYLOR_TERMS, 0, -1):
        r = eye + (b @ r) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r = r @ r
    if not np.isfinite(r).all():
        raise ValidationError(f"the exponential overflowed in {squarings} squarings")
    return r


def propagate_grid(step, v0, count):
    """Stack ``v0, step@v0, ..., step^count @ v0`` as rows of one array."""
    out = np.empty((count + 1, len(v0)), dtype=np.complex128)
    out[0] = v0
    for k in range(count):
        out[k + 1] = step @ out[k]
    return out


def evolve_coefficients(a0, eigenvalues, tau_c, t):
    """Apply ``exp((-i*dl - tau_c*dl^2) * t)`` entrywise, dl = lam_i - lam_j.

    ``t`` is a scalar for one (d, d) result, or an (n, 1, 1) array of times
    for an (n, d, d) stack.
    """
    dl = eigenvalues[:, None] - eigenvalues[None, :]
    return a0 * np.exp((-1j * dl - tau_c * dl * dl) * t)
