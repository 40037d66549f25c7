"""The Milburn form of the evolution: the production path of every endpoint.

Without extra channels, the generator L = -i ad_H - tau_c ad_H^2 has an
exact Milburn form, an average of unitary evolutions over
Gaussian-distributed times:

    exp(t L) rho = E_xi[U(t + xi) rho U(t + xi)^H],  xi ~ N(0, 2 tau_c t),

with U(s) = exp(-i H s).  ``gaussian_average`` evaluates it by a trapezoid
rule, summed by baby and giant steps and folded by Horner: two d x d
exponentials, O(sqrt(nodes)) d x d products, one stack of O(sqrt(nodes))
d x d matrices and weighted sums in blocks of ``_kernels.block_rows``, where
the d^2 x d^2 Liouville exponential (``liouville.propagate``, the oracle)
costs O(d^6).  It gives every scenario's numeric endpoint and never diagonalises H.
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
    for the mean eigenvalue c.  The norm is of (h - c I) / 2^k with 2^k near
    its largest entry, exact and free of underflow, so it is 0 only for c I.
    """
    centres = h.diagonal().real
    # entries near 1e300 overflow a sum (or leave inf - inf): min keeps the finite bound
    with np.errstate(over="ignore", invalid="ignore"):
        radii = np.abs(h).sum(axis=1) - np.abs(h.diagonal())
        gershgorin = float((centres + radii).max() - (centres - radii).min())
        shifted = h - centres.mean() * np.eye(h.shape[0])
        scale = math.ldexp(1.0, int(np.frexp(np.abs(shifted).max())[1]) - 1)  # 2^1024 overflows
        return min(gershgorin, math.sqrt(2.0) * float(np.linalg.norm(shifted / scale)) * scale)


# The most baby steps m the Gaussian average takes: d^2 at the target scale
# d = 64, where its (m, d, d) stack of T_i takes 268 MB and its m x m weight table,
# half the work, 16.8 M weights.  Its largest phase budget eps * span * t: past it
# the two Newton-Schulz steps on V let the trace of random tau_c = 0 endpoints
# drift past 1e-10 (the packaged pulses reach 2.2e-3 at kappa = 1e13).
_GAUSS_MAX_STEPS = 64 ** 2
_GAUSS_MAX_PHASE = 2.5e-3


def _gaussian_grid(span: float, tau_c: float, t: float):
    """Trapezoid rule for the Gaussian average: (step, spacing, K, m).

    The nodes are xi = k * step for |k| <= K, step = spacing * sigma, where
    the spacing 2 pi / (span sigma + 8.6) keeps the aliasing margin 8.6 /
    sigma above the span; m = ceil(sqrt(2K + 1)) is the number of baby
    steps.  The span is > 0; a zero width span * sigma (sigma = 0) gives
    K = 0, m = 1 and step 0; m is inf when the width overflows.
    """
    sigma = math.sqrt(2.0 * tau_c * t)
    width = span * sigma
    if not math.isfinite(width):
        return math.inf, 0.0, 0, math.inf
    spacing = 2.0 * math.pi / (width + _GAUSS_REACH)
    k = math.ceil(_GAUSS_REACH / spacing) if width else 0
    return spacing * sigma, spacing, k, math.isqrt(2 * k) + 1


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
    U(t + xi_n) = u^j G^i V with u = U(step), G = u^m and V = U(t - K step).
    So the sum is sum_j u^j Y_j u^-j with Y_j = sum_i w_(i m + j) T_i and
    T_i = G^i V rho V^H G^-i, folded by Horner as out <- Y_j + u out u^H
    for j = m - 1 down to 0: two d x d exponentials and O(m) products.
    The (m, d, d) stack of T_i is its one array that grows with m; the Y_j
    are formed and folded min(d^2, ``_kernels.block_rows(d)``) at a time.
    When sigma = 0 the rule has one node, the conjugation U(t) rho U(t)^H.
    A drive of span bound 0 is c I, whose every U(s) is a global phase, so
    the Hermitian part of rho returns before any check or exponential.
    The result is exactly Hermitian.  Past ``_GAUSS_MAX_STEPS`` baby steps, or
    eps * span * t past ``_GAUSS_MAX_PHASE``, it raises ValidationError before
    any exponential.  A drive not exactly Hermitian is replaced by its Hermitian
    part, as ``spectral.eigendecompose`` does, so the average stays trace-preserving.
    """
    h = 0.5 * h + 0.5 * h.conj().T  # halves first: entries near 1e308 do not overflow
    d = h.shape[0]
    span = _span_bound(h)
    if span == 0.0:
        return 0.5 * rho + 0.5 * rho.conj().T
    step, spacing, k, m = _gaussian_grid(span, tau_c, t)
    if m > _GAUSS_MAX_STEPS:
        raise ValidationError(f"the Gaussian average needs {m:.4g} baby steps, more than its"
                              f" limit _GAUSS_MAX_STEPS = {_GAUSS_MAX_STEPS}; lower tau_c, kappa"
                              " or omega1, or custom.t_max or the span of custom.hamiltonian")
    if (phase := np.finfo(np.float64).eps * span * t) > _GAUSS_MAX_PHASE:
        raise ValidationError(f"the phase budget eps * span * t = {phase:.3g} is past its limit"
                              f" _GAUSS_MAX_PHASE = {_GAUSS_MAX_PHASE}; lower kappa, or"
                              " custom.t_max or the span of custom.hamiltonian")
    # the average is blind to a shift of h by a multiple of the identity
    h0 = h - (np.trace(h).real / d) * np.eye(d)
    # Roundoff leaves V (from its squarings) and G (from its products) off
    # unitary by about eps times their phase or product count, and the m
    # conjugations by G carry that norm error into the populations, which
    # the average never dephases (left in, it reaches 1e-10 at d = 64).
    # Each Newton-Schulz step squares the norm error.  G gets one; V gets
    # two, because far past the decay horizon its squarings leave it off by
    # up to 4e-5 (t = 1e12 at d = 2), which one step only brings to 1e-9.
    # The phase error that remains cancels as the coherences decay.
    v = _unitarize(_unitarize(_kernels.expm(-1j * (t - k * step) * h0)))
    u = _kernels.expm(-1j * step * h0)
    giant = _unitarize(np.linalg.matrix_power(u, m))
    terms = np.empty((m, d, d), dtype=np.complex128)
    terms[0] = v @ rho @ v.conj().T
    for i in range(1, m):
        terms[i] = giant @ terms[i - 1] @ giant.conj().T
    # Y = W^T T for the m x m weights W[i, j] = w_(i m + j), formed `width`
    # baby-step columns at a time, the last first: each block of Y is one
    # matrix product on T's real view, folded in at once.  No m^2 array (98 MB
    # at d = 2, m = 3500) exists while m > d^2, nor a block of Y past the budget.
    width = min(d * d, _kernels.block_rows(d))
    flat = terms.view(np.float64).reshape(m, -1)
    row_offsets = np.arange(m)[:, None] * m - k
    out = np.zeros((d, d), dtype=np.complex128)
    total = 0.0
    for first in reversed(range(0, m, width)):
        n = row_offsets + np.arange(first, min(first + width, m))  # node - K
        w = np.where(n <= k, np.exp(-0.5 * (n * spacing) ** 2), 0.0)
        total += w.sum()
        for y in (w.T @ flat).view(np.complex128).reshape(-1, d, d)[::-1]:
            out = y + u @ out @ u.conj().T
    out /= total
    return 0.5 * (out + out.conj().T)
