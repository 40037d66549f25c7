"""Built-in self-check suite.

Nine deterministic checks exercise the package end to end: closed-form
single- and two-qubit pulse endpoints, the projective-measurement limit on
randomized instances, complete positivity of the propagator, algebraic
identities of the generator, monotonic purity loss with exponential
coherence decay and a scenario endpoint that matches the closed form, and
idempotence of a completed pulse.  Randomized checks use a fixed seed, so
two runs produce identical reports.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import _kernels
from .born import born_predict
from .liouville import (
    GeneratorSpec,
    build_generator,
    choi_matrix,
    devectorize,
    double_commutator_superop,
    matrix_exponential,
    propagate,
    vectorize,
)
from .operators import (
    DEFAULT_TOLS,
    SIGMA_Y,
    Tolerances,
    ValidationError,
    bell_amplitudes,
    pure_density,
    qubit_state,
    tensor_product,
)
from .scenarios import PulseSpec, single_qubit_scenario
from .spectral import analytic_evolve, convergence_time, eigendecompose

RNG_SEED = 20260819


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one named self-check.

    ``kind`` is "comparison" when a numeric threshold was exceeded and
    "validation" when a state or operator invariant failed outright;
    ``elapsed`` (seconds) is informational and never printed, so reports
    stay byte-identical across runs.
    """

    name: str
    passed: bool
    detail: str
    kind: str = "comparison"
    elapsed: float = 0.0


def _single_qubit_pulse_matrix(theta: float, phi: float, kappa: float, decay: float) -> np.ndarray:
    # closed-form endpoint of the driven qubit, normalized to unit trace;
    # decay = inf gives its long-time limit, the Born mixture
    a = np.sin(theta) * np.sin(kappa) * np.cos(phi) - np.cos(kappa) * np.cos(theta)
    b = np.cos(kappa) * np.cos(phi) * np.sin(theta) + np.cos(theta) * np.sin(kappa)
    s = np.sin(phi) * np.sin(theta)
    e = np.exp(-decay)
    return 0.5 * np.array(
        [
            [1.0 - e * a, -1j * s + e * b],
            [1j * s + e * b, 1.0 + e * a],
        ],
        dtype=np.complex128,
    )


def _two_qubit_pulse_matrix(kappa: float, decay: float) -> np.ndarray:
    # closed-form endpoint for the driven-first-qubit entangled pair (its
    # long-time limit at decay = inf); oscillating entries decay as exp(-decay)
    s = np.exp(-decay) * np.sin(kappa)
    c = np.exp(-decay) * np.cos(kappa)
    return 0.25 * np.array(
        [
            [1 + c, -s, s, 1 + c],
            [-s, 1 - c, -1 + c, -s],
            [s, -1 + c, 1 - c, s],
            [1 + c, -s, s, 1 + c],
        ],
        dtype=np.complex128,
    )


def _max_entry_error(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _check_single_qubit_asymptotic(tol: Tolerances):
    angles = [(theta, phi) for theta in np.linspace(0.0, np.pi, 9)
              for phi in np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)]
    spec = GeneratorSpec(drive=0.5 * SIGMA_Y, tau_c=1.0)
    rho0 = np.array([pure_density(qubit_state(theta, phi), tol) for theta, phi in angles])
    expected = np.array([_single_qubit_pulse_matrix(theta, phi, 0.0, np.inf)
                         for theta, phi in angles])
    worst = _max_entry_error(propagate(spec, rho0, 40.0, tol), expected)
    return worst <= 1e-9, f"max entry error {worst:.3e} over 81 Bloch angles (limit 1e-09)"


def _check_single_qubit_finite_pulse(tol: Tolerances):
    angles = (0.0, np.pi / 3.0, np.pi / 2.0)
    spec = GeneratorSpec(drive=0.5 * SIGMA_Y, tau_c=1.0)
    spectrum = eigendecompose(spec.drive, tol)
    pulses = [(theta, phi, kappa) for kappa in angles for theta in angles for phi in angles]
    states = np.array([pure_density(qubit_state(theta, phi), tol) for theta, phi, _ in pulses])
    numerics = propagate(spec, states, [kappa for _, _, kappa in pulses], tol)
    oracles = [analytic_evolve(spectrum, rho0, 1.0, p[2], tol) for p, rho0 in zip(pulses, states)]
    closed = [_single_qubit_pulse_matrix(theta, phi, kappa, kappa) for theta, phi, kappa in pulses]
    worst_numeric = _max_entry_error(numerics, oracles)
    worst_closed_form = _max_entry_error(closed, oracles)
    passed = worst_numeric <= 1e-9 and worst_closed_form <= 1e-9
    return passed, (
        f"27 pulses: numeric vs eigenbasis {worst_numeric:.3e}, "
        f"closed form vs eigenbasis {worst_closed_form:.3e} (limit 1e-09)"
    )


def _check_two_qubit_pulse_oracles(tol: Tolerances):
    eye = np.eye(2, dtype=np.complex128)
    drive = 0.5 * tensor_product(SIGMA_Y, eye)
    spec = GeneratorSpec(drive=drive, tau_c=1.0)
    spectrum = eigendecompose(drive, tol)
    rho0 = pure_density(bell_amplitudes(), tol)
    kappa = np.pi / 3.0
    late, finite = propagate(spec, np.array([rho0, rho0]), [20.0, kappa], tol)
    err_late = _max_entry_error(late, _two_qubit_pulse_matrix(0.0, np.inf))
    oracle = analytic_evolve(spectrum, rho0, 1.0, kappa, tol)
    err_finite = _max_entry_error(finite, oracle)
    err_pattern = _max_entry_error(_two_qubit_pulse_matrix(kappa, kappa), oracle)

    passed = err_late <= 1e-8 and err_finite <= 1e-9 and err_pattern <= 1e-9
    return passed, (
        f"long pulse vs limit {err_late:.3e} (limit 1e-08); short pulse numeric "
        f"{err_finite:.3e} and closed form {err_pattern:.3e} vs eigenbasis (limit 1e-09)"
    )


def _distinct_levels(rng, count: int) -> np.ndarray:
    # spacing floor keeps decay gaps honest: nothing is almost-degenerate
    while True:
        values = np.sort(rng.uniform(-2.0, 2.0, size=count))
        if count == 1 or float(np.diff(values).min()) >= 0.2:
            return values


def _random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_hermitian(rng, dim: int, forced_degeneracy: bool) -> np.ndarray:
    if forced_degeneracy:
        n_distinct = int(rng.integers(2, dim))
        levels = _distinct_levels(rng, n_distinct)
        multiplicity = np.ones(n_distinct, dtype=np.intp)
        for _ in range(dim - n_distinct):
            multiplicity[int(rng.integers(0, n_distinct))] += 1
        diag = np.repeat(levels, multiplicity)
        u = _random_unitary(rng, dim)
        h = (u * diag) @ u.conj().T
    else:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (g + g.conj().T)
    return 0.5 * (h + h.conj().T)


def _random_state(rng, dim: int, mixed: bool) -> np.ndarray:
    if mixed:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = g @ g.conj().T
        return w / np.trace(w).real
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _check_born_equivalence_random(tol: Tolerances):
    rng = np.random.default_rng(RNG_SEED)
    dims = (2, 3, 4, 6)
    # per dimension: one (drive, state, tau_c) per instance, drawn in instance order
    draws = {dim: [] for dim in dims}
    for i in range(200):
        dim = dims[i % 4]
        h = _random_hermitian(rng, dim, forced_degeneracy=(i % 3 == 1 and dim >= 3))
        rho0 = _random_state(rng, dim, mixed=(i % 2 == 1))
        draws[dim].append((h, rho0, float(rng.uniform(0.05, 5.0))))
    worst_limit = 0.0
    worst_finite = 0.0
    for batch in draws.values():
        drives, states, taus = zip(*batch)
        limits, predictions, times = [], [], []
        for spectrum, rho0, tau_c in zip(eigendecompose(np.array(drives), tol), states, taus):
            # independent of the prediction's coefficient mask: the projector sum
            p = spectrum.projectors
            limits.append((p @ rho0 @ p).sum(axis=0))
            predictions.append(born_predict(spectrum, rho0, tol).post_state)
            times.append(convergence_time(spectrum, tau_c, 1e-14))
        worst_limit = max(worst_limit, _max_entry_error(limits, predictions))
        specs = [GeneratorSpec(drive=h, tau_c=tau_c) for h, tau_c in zip(drives, taus)]
        rho_t = propagate(specs, np.array(states), times, tol)
        worst_finite = max(worst_finite, _max_entry_error(rho_t, limits),
                           _max_entry_error(rho_t, predictions))
    passed = worst_limit <= 1e-10 and worst_finite <= 1e-8
    return passed, (
        f"200 instances: projector sum vs prediction {worst_limit:.3e} (limit 1e-10), "
        f"propagated state vs both {worst_finite:.3e} (limit 1e-08)"
    )


def _check_born_probability_formulas(tol: Tolerances):
    worst_single = 0.0
    spectrum = eigendecompose(0.5 * SIGMA_Y, tol)
    for theta in np.linspace(0.0, np.pi, 9):
        for phi in np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False):
            rho0 = pure_density(qubit_state(theta, phi), tol)
            prediction = born_predict(spectrum, rho0, tol)
            # probability of the upper level, matched by eigenvalue
            p_upper = prediction.probabilities[int(np.argmax(prediction.group_eigenvalues))]
            expected = 0.5 * (1.0 + np.sin(theta) * np.sin(phi))
            worst_single = max(worst_single, abs(float(p_upper) - expected))

    eye = np.eye(2, dtype=np.complex128)
    spectrum2 = eigendecompose(0.5 * tensor_product(SIGMA_Y, eye), tol)
    bell = pure_density(bell_amplitudes(), tol)
    weights = born_predict(spectrum2, bell, tol).probabilities
    worst_pair = float(np.abs(weights - 0.5).max())

    passed = worst_single <= 1e-12 and worst_pair <= 1e-12
    return passed, (
        f"single-qubit formula error {worst_single:.3e}, "
        f"entangled-pair weight error {worst_pair:.3e} (limit 1e-12)"
    )


def _check_complete_positivity(tol: Tolerances):
    rng = np.random.default_rng(RNG_SEED + 1)
    dims = (2, 3, 4)
    # per dimension: the generators, built in instance order
    generators = {dim: [] for dim in dims}
    for i in range(50):
        dim = dims[i % 3]
        tau_c = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 3.0))
        extras = tuple(
            (_random_hermitian(rng, dim, False), float(rng.uniform(0.0, 2.0)))
            for _ in range(i % 3)
        )
        spec = GeneratorSpec(drive=_random_hermitian(rng, dim, False), tau_c=tau_c,
                             extra_dissipators=extras)
        generators[dim].append(build_generator(spec, tol))
    worst_choi = 0.0
    worst_tp = 0.0
    for dim, gens in generators.items():
        gens = np.array(gens)
        ident = vectorize(np.eye(dim, dtype=np.complex128))
        for t in (0.1, 1.0, 10.0):  # one stack per time keeps the working set small
            props = _kernels.expm(gens * t)
            smallest = float(np.linalg.eigvalsh(choi_matrix(props))[:, 0].min())
            worst_choi = min(worst_choi, smallest)
            defect = np.abs(props.conj().swapaxes(-1, -2) @ ident - ident).max()
            worst_tp = max(worst_tp, float(defect))
    passed = worst_choi >= -1e-9 and worst_tp <= 1e-10
    return passed, (
        f"150 propagators: min Choi eigenvalue {worst_choi:.3e} (limit -1e-09), "
        f"trace-preservation defect {worst_tp:.3e} (limit 1e-10)"
    )


def _superop_from_action(apply_map, dim: int) -> np.ndarray:
    # column k is the vectorized image of the k-th column-stacked basis matrix
    basis = devectorize(np.eye(dim * dim, dtype=np.complex128))
    return vectorize(apply_map(basis)).T


def _check_structural_identities(tol: Tolerances):
    rng = np.random.default_rng(RNG_SEED + 2)

    worst_l2 = 0.0
    for dim in (2, 3, 4):
        h = _random_hermitian(rng, dim, False)
        direct = _superop_from_action(lambda m: h @ h @ m - 2.0 * h @ m @ h + m @ h @ h, dim)
        worst_l2 = max(worst_l2, _max_entry_error(double_commutator_superop(h, tol), direct))

    h3 = _random_hermitian(rng, 3, False)
    gen = build_generator(GeneratorSpec(drive=h3, tau_c=0.7), tol)
    combined = matrix_exponential(gen, 1.4)
    split = matrix_exponential(gen, 1.1) @ matrix_exponential(gen, 0.3)
    worst_semigroup = _max_entry_error(combined, split)

    worst_scaling = 0.0
    rho0 = pure_density(qubit_state(np.pi / 3.0, np.pi / 5.0), tol)
    rho3 = _random_state(rng, 3, mixed=True)
    baselines = (
        (0.5 * SIGMA_Y, rho0, 1.0, 2.0),
        (h3, rho3, 0.7, 1.3),
    )
    scales = (1.0, 0.1, 3.0, 17.0)  # the unscaled reference first
    for h, rho, tau_c, t in baselines:
        specs = [GeneratorSpec(drive=s * h, tau_c=tau_c / s) for s in scales]
        reference, *rescaled = propagate(specs, rho, [t / s for s in scales], tol)
        worst_scaling = max(worst_scaling, _max_entry_error(rescaled, reference))

    passed = worst_l2 <= 1e-12 and worst_semigroup <= 1e-10 and worst_scaling <= 1e-10
    return passed, (
        f"double commutator vs squared commutator {worst_l2:.3e} (limit 1e-12); "
        f"semigroup composition {worst_semigroup:.3e}, drive rescaling {worst_scaling:.3e} "
        f"(limit 1e-10)"
    )


def _check_dissipative_decay(tol: Tolerances):
    result = single_qubit_scenario(
        np.pi / 2.0, np.pi / 4.0, PulseSpec(kappa=20.0, omega1=1.0, tau_c=1.0),
        grid_points=200, tol=tol,
    )
    series = result.time_series
    rise = float(np.diff(series[:, 1]).max())
    usable = series[:, 2] > 1e-12
    # a line needs two points; with fewer (one group: no coherence) the slope is nan
    slope = (float(np.polyfit(series[usable, 0], np.log(series[usable, 2]), 1)[0])
             if usable.sum() >= 2 else math.nan)
    slope_error = abs(slope - (-1.0))
    # the production endpoint (the Gaussian average) against the closed form
    endpoint = _max_entry_error(result.final_numeric, result.final_analytic)
    passed = rise <= 1e-12 and slope_error <= 0.01 and endpoint <= 1e-10
    return passed, (
        f"max purity increase {rise:.3e} (limit 1e-12); coherence log-slope {slope:.6f} "
        f"vs -1 (relative limit 0.01) on {int(usable.sum())} points; "
        f"endpoint vs closed form {endpoint:.3e} (limit 1e-10)"
    )


def _check_repeated_pulse_fixed_point(tol: Tolerances):
    eye = np.eye(2, dtype=np.complex128)
    cases = (
        (0.5 * SIGMA_Y, pure_density(qubit_state(np.pi / 2.0, np.pi / 4.0), tol)),
        (
            0.5 * tensor_product(SIGMA_Y, eye),
            pure_density(bell_amplitudes(), tol),
        ),
    )
    worst = 0.0
    for h, rho0 in cases:
        spec = GeneratorSpec(drive=h, tau_c=1.0)
        once = propagate(spec, rho0, 40.0, tol)
        twice = propagate(spec, once, 40.0, tol)
        worst = max(worst, _max_entry_error(twice, once))
    return worst <= 1e-9, f"second pulse moved the state by {worst:.3e} (limit 1e-09)"


CHECKS = (
    ("single_qubit_asymptotic", _check_single_qubit_asymptotic),
    ("single_qubit_finite_pulse", _check_single_qubit_finite_pulse),
    ("two_qubit_pulse_oracles", _check_two_qubit_pulse_oracles),
    ("born_equivalence_random", _check_born_equivalence_random),
    ("born_probability_formulas", _check_born_probability_formulas),
    ("complete_positivity", _check_complete_positivity),
    ("structural_identities", _check_structural_identities),
    ("dissipative_decay", _check_dissipative_decay),
    ("repeated_pulse_fixed_point", _check_repeated_pulse_fixed_point),
)


def run_checks(tol: Tolerances = DEFAULT_TOLS) -> tuple:
    """Run every self-check and return one CheckResult per check.

    A ValidationError inside a check becomes a failed result of kind
    "validation" instead of an exception, so a deliberately broken
    tolerance produces a readable report.
    """
    results = []
    for name, func in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = func(tol)
            kind = "comparison"
        except ValidationError as exc:
            passed, detail, kind = False, f"validation failure: {exc}", "validation"
        results.append(CheckResult(
            name=name, passed=bool(passed), detail=detail, kind=kind,
            elapsed=time.perf_counter() - start,
        ))
    return tuple(results)
