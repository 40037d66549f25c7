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
import time

import numpy as np

from .born import born_predict
from .liouville import (
    GeneratorSpec,
    build_generator,
    choi_matrix,
    commutator_superop,
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
from .scenarios import PulseSpec, single_qubit_scenario, two_qubit_scenario
from .spectral import (
    analytic_evolve,
    convergence_time,
    eigendecompose,
    from_eigenbasis,
    to_eigenbasis,
)

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


def _single_qubit_expected(theta: float, phi: float) -> np.ndarray:
    s = np.sin(theta) * np.sin(phi)
    return 0.5 * np.array([[1.0, -1j * s], [1j * s, 1.0]], dtype=np.complex128)


def _single_qubit_pulse_matrix(theta: float, phi: float, kappa: float, decay: float) -> np.ndarray:
    # closed-form endpoint of the driven qubit, normalized to unit trace
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


def _two_qubit_expected() -> np.ndarray:
    return 0.25 * np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [0, -1, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=np.complex128,
    )


def _two_qubit_pulse_matrix(kappa: float, decay: float) -> np.ndarray:
    # closed-form endpoint for the driven-first-qubit entangled pair; the
    # attenuation of every oscillating entry is exp(-omega1*tau_c*kappa)
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
    expected = np.array([_single_qubit_expected(theta, phi) for theta, phi in angles])
    worst = _max_entry_error(propagate(spec, rho0, 40.0, tol), expected)
    return worst <= 1e-9, f"max entry error {worst:.3e} over 81 Bloch angles (limit 1e-09)"


def _check_single_qubit_finite_pulse(tol: Tolerances):
    angles = (0.0, np.pi / 3.0, np.pi / 2.0)
    spec = GeneratorSpec(drive=0.5 * SIGMA_Y, tau_c=1.0)
    spectrum = eigendecompose(spec.drive, tol)
    pairs = [(theta, phi) for theta in angles for phi in angles]
    states = np.array([pure_density(qubit_state(theta, phi), tol) for theta, phi in pairs])
    worst_numeric = 0.0
    worst_closed_form = 0.0
    for kappa in angles:
        numerics = propagate(spec, states, kappa, tol)
        for (theta, phi), rho0, numeric in zip(pairs, states, numerics):
            oracle = analytic_evolve(spectrum, rho0, 1.0, kappa, tol)
            closed = _single_qubit_pulse_matrix(theta, phi, kappa, kappa)
            worst_numeric = max(worst_numeric, _max_entry_error(numeric, oracle))
            worst_closed_form = max(worst_closed_form, _max_entry_error(closed, oracle))
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

    late = propagate(spec, rho0, 20.0, tol)
    err_late = _max_entry_error(late, _two_qubit_expected())

    kappa = np.pi / 3.0
    finite = propagate(spec, rho0, kappa, tol)
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
    # per dimension: specs, initial states, times, projector sums, predictions
    batches = {dim: ([], [], [], [], []) for dim in dims}
    worst_limit = 0.0
    worst_finite = 0.0
    for i in range(200):
        dim = dims[i % 4]
        h = _random_hermitian(rng, dim, forced_degeneracy=(i % 3 == 1 and dim >= 3))
        rho0 = _random_state(rng, dim, mixed=(i % 2 == 1))
        tau_c = float(rng.uniform(0.05, 5.0))

        spectrum = eigendecompose(h, tol)
        # independent of the projector sum: zero the cross-group coefficients
        labels = spectrum.labels
        coeffs = to_eigenbasis(spectrum, rho0)
        coeffs[labels[:, None] != labels[None, :]] = 0.0
        limit = from_eigenbasis(spectrum, coeffs)
        predicted = born_predict(spectrum, rho0, tol).post_state
        worst_limit = max(worst_limit, _max_entry_error(limit, predicted))

        specs, states, times, limits, predictions = batches[dim]
        specs.append(GeneratorSpec(drive=h, tau_c=tau_c))
        states.append(rho0)
        times.append(convergence_time(spectrum, tau_c, 1e-14))
        limits.append(limit)
        predictions.append(predicted)
    for specs, states, times, limits, predictions in batches.values():
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
    worst_choi = 0.0
    worst_tp = 0.0
    for i in range(50):
        dim = dims[i % 3]
        tau_c = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 3.0))
        extras = tuple(
            (_random_hermitian(rng, dim, False), float(rng.uniform(0.0, 2.0)))
            for _ in range(i % 3)
        )
        spec = GeneratorSpec(drive=_random_hermitian(rng, dim, False), tau_c=tau_c,
                             extra_dissipators=extras)
        gen = build_generator(spec, tol)
        ident = vectorize(np.eye(dim, dtype=np.complex128))
        for t in (0.1, 1.0, 10.0):
            prop = matrix_exponential(gen, t)
            smallest = float(np.linalg.eigvalsh(choi_matrix(prop))[0])
            worst_choi = min(worst_choi, smallest)
            worst_tp = max(worst_tp, float(np.abs(prop.conj().T @ ident - ident).max()))
    passed = worst_choi >= -1e-9 and worst_tp <= 1e-10
    return passed, (
        f"150 propagators: min Choi eigenvalue {worst_choi:.3e} (limit -1e-09), "
        f"trace-preservation defect {worst_tp:.3e} (limit 1e-10)"
    )


def _superop_from_action(apply_map, dim: int) -> np.ndarray:
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for j in range(dim):
        for i in range(dim):
            basis = np.zeros((dim, dim), dtype=np.complex128)
            basis[i, j] = 1.0
            out[:, j * dim + i] = vectorize(apply_map(basis))
    return out


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
    for h, rho, tau_c, t in baselines:
        reference = propagate(GeneratorSpec(drive=h, tau_c=tau_c), rho, t, tol)
        for s in (0.1, 3.0, 17.0):
            rescaled = propagate(GeneratorSpec(drive=s * h, tau_c=tau_c / s), rho, t / s, tol)
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
    slope = float(np.polyfit(series[usable, 0], np.log(series[usable, 2]), 1)[0])
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
