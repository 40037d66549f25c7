"""The Milburn form of the evolution: the production path of every endpoint.

Without extra channels, the generator L = -i ad_H - tau_c ad_H^2 has an
exact Milburn form, an average of unitary evolutions over
Gaussian-distributed times:

    exp(t L) rho = E_xi[U(t + xi) rho U(t + xi)^H],  xi ~ N(0, 2 tau_c t),

with U(s) = exp(-i H s).  ``gaussian_average`` evaluates it by a trapezoid
rule with two d x d exponentials and O(sqrt(nodes)) d x d products, where
the d^2 x d^2 Liouville exponential (``liouville.propagate``, the oracle)
costs O(d^6).  It gives every scenario's numeric endpoint and never
diagonalises the drive.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .operators import ValidationError

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


def gaussian_average(h: np.ndarray, tau_c: float, rho: np.ndarray, t: float) -> np.ndarray:
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
