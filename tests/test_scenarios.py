import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    DEFAULT_TOLS,
    PulseSpec,
    TIME_SERIES_COLUMNS,
    ValidationError,
    build_generator,
    custom_scenario,
    devectorize,
    matrix_exponential,
    maximally_mixed,
    partial_trace,
    pure_density,
    purity,
    qubit_state,
    single_qubit_scenario,
    to_eigenbasis,
    trace_distance,
    two_qubit_scenario,
    vectorize,
)
from frqme import _kernels
from helpers import random_density, random_hermitian


def driven_qubit_endpoint(theta, phi, kappa, decay_product):
    """Frozen closed-form endpoint of the resonantly driven qubit.

    The oscillating part rotates with the pulse angle kappa while its
    amplitude shrinks by exp(-omega1*tau_c*kappa); the surviving part is set
    by the drive-axis component sin(theta)sin(phi) of the initial state.
    """
    a = np.sin(theta) * np.sin(kappa) * np.cos(phi) - np.cos(kappa) * np.cos(theta)
    b = np.cos(kappa) * np.cos(phi) * np.sin(theta) + np.cos(theta) * np.sin(kappa)
    s = np.sin(phi) * np.sin(theta)
    e = np.exp(-decay_product)
    return 0.5 * np.array(
        [[1.0 - e * a, -1j * s + e * b], [1j * s + e * b, 1.0 + e * a]],
        dtype=np.complex128,
    )


def entangled_pair_endpoint(kappa, decay_product):
    """Frozen closed-form endpoint for the Bell pair driven on qubit one.

    Every oscillating entry carries exp(-omega1*tau_c*kappa): the two levels
    differ by omega1, so each cross coherence dephases at rate tau_c*omega1^2
    over a duration kappa/omega1.  Verified against the entrywise eigenbasis
    solution, which this expression reproduces to roundoff.
    """
    s = np.exp(-decay_product) * np.sin(kappa)
    c = np.exp(-decay_product) * np.cos(kappa)
    return 0.25 * np.array(
        [
            [1 + c, -s, s, 1 + c],
            [-s, 1 - c, -1 + c, -s],
            [s, -1 + c, 1 - c, s],
            [1 + c, -s, s, 1 + c],
        ],
        dtype=np.complex128,
    )


ENTANGLED_PAIR_LIMIT = 0.25 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1, 0],
        [0, -1, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=np.complex128,
)


def stepped_time_series(result, tol=DEFAULT_TOLS):
    """Reference time series from grid propagation and per-sample operators.

    Iterates one Liouville step propagator over the grid, then measures each
    state on its own; the scenario runner must reproduce this from the
    closed form.
    """
    grid_points = result.time_series.shape[0]
    step = matrix_exponential(build_generator(result.generator, tol),
                              result.t_max / (grid_points - 1))
    grid = _kernels.propagate_grid(step, vectorize(result.initial), grid_points - 1)
    labels = result.spectrum.group_labels()
    cross = labels[:, None] != labels[None, :]
    rows = []
    for t, vec in zip(np.linspace(0.0, result.t_max, grid_points), grid):
        rho = devectorize(vec)
        coeffs = to_eigenbasis(result.spectrum, rho)
        rows.append([
            t,
            purity(rho, tol),
            float(np.abs(coeffs[cross]).max()) if cross.any() else 0.0,
            trace_distance(rho, result.born.post_state),
        ])
    return np.array(rows)


def near_degenerate_drive(seed):
    """d = 8 drive with a 1e-3 gap, above the degeneracy threshold."""
    rng = np.random.default_rng(seed)
    levels = np.array([-1.0, -0.5, 0.2, 0.201, 0.9, 1.4, 2.0, 2.6])
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    h = (q * levels) @ q.conj().T
    return 0.5 * (h + h.conj().T), random_density(rng, 8)


@pytest.mark.parametrize("make, groups", [
    (lambda: single_qubit_scenario(0.8, 1.9, PulseSpec(kappa=12.0, tau_c=0.3),
                                   grid_points=200), 2),
    (lambda: two_qubit_scenario(PulseSpec(kappa=27.0), grid_points=1100), 2),
    (lambda: custom_scenario(*near_degenerate_drive(5), tau_c=0.5, t_max=30.0,
                             grid_points=700), 8),
], ids=["single_qubit", "two_qubit", "custom_d8_near_degenerate"])
def test_time_series_matches_stepped_propagation(make, groups):
    result = make()
    assert len(result.spectrum.groups) == groups
    np.testing.assert_allclose(result.time_series, stepped_time_series(result),
                               rtol=0, atol=1e-12)


class TestPulseSpec:
    def test_defaults(self):
        pulse = PulseSpec()
        assert pulse.kappa == 20.0
        assert pulse.omega1 == 1.0
        assert pulse.tau_c == 1.0
        assert pulse.duration == 20.0
        assert pulse.decay_product == 20.0

    def test_duration_and_decay_product(self):
        pulse = PulseSpec(kappa=6.0, omega1=3.0, tau_c=0.5)
        assert pulse.duration == pytest.approx(2.0)
        assert pulse.decay_product == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PulseSpec(kappa=-1.0)
        with pytest.raises(ValidationError):
            PulseSpec(omega1=0.0)
        with pytest.raises(ValidationError):
            PulseSpec(tau_c=-0.5)


class TestSingleQubitScenario:
    def test_long_pulse_reaches_known_limit(self):
        theta, phi = 0.9, 2.2
        result = single_qubit_scenario(theta, phi, PulseSpec(kappa=40.0))
        s = np.sin(theta) * np.sin(phi)
        expected = 0.5 * np.array([[1.0, -1j * s], [1j * s, 1.0]])
        np.testing.assert_allclose(result.final_numeric, expected, atol=1e-9)
        np.testing.assert_allclose(result.asymptotic, expected, atol=1e-12)
        np.testing.assert_allclose(result.born.post_state, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2])
    @pytest.mark.parametrize("phi", [0.0, np.pi / 3, np.pi / 2])
    @pytest.mark.parametrize("kappa", [0.0, np.pi / 3, np.pi / 2])
    def test_finite_pulse_matches_closed_form(self, theta, phi, kappa):
        result = single_qubit_scenario(theta, phi, PulseSpec(kappa=kappa),
                                       grid_points=2)
        expected = driven_qubit_endpoint(theta, phi, kappa, kappa)
        np.testing.assert_allclose(result.final_numeric, expected, atol=1e-12)
        np.testing.assert_allclose(result.final_analytic, expected, atol=1e-12)

    def test_born_probabilities(self):
        theta, phi = 1.3, 0.4
        result = single_qubit_scenario(theta, phi, PulseSpec(kappa=2.0), grid_points=2)
        upper = int(np.argmax(result.born.group_eigenvalues))
        expected = 0.5 * (1.0 + np.sin(theta) * np.sin(phi))
        assert result.born.probabilities[upper] == pytest.approx(expected, abs=1e-13)

    def test_time_series_columns_and_grid(self):
        pulse = PulseSpec(kappa=4.0, omega1=2.0)
        result = single_qubit_scenario(0.7, 0.3, pulse, grid_points=9)
        assert TIME_SERIES_COLUMNS == (
            "t", "purity", "max_cross_group_coherence", "trace_distance_to_born"
        )
        assert result.time_series.shape == (9, 4)
        np.testing.assert_allclose(result.time_series[:, 0],
                                   np.linspace(0.0, pulse.duration, 9), atol=1e-15)

    def test_coherence_column_follows_decay_envelope(self):
        theta, phi = np.pi / 2, np.pi / 4
        tau_c, omega1 = 0.5, 2.0
        result = single_qubit_scenario(
            theta, phi, PulseSpec(kappa=8.0, omega1=omega1, tau_c=tau_c),
            grid_points=60,
        )
        t = result.time_series[:, 0]
        coherence = result.time_series[:, 2]
        initial = coherence[0]
        assert initial == pytest.approx(
            np.sqrt(0.5 * (1 + np.sin(theta) * np.sin(phi))
                    * 0.5 * (1 - np.sin(theta) * np.sin(phi))),
            abs=1e-12,
        )
        np.testing.assert_allclose(
            coherence, initial * np.exp(-tau_c * omega1 ** 2 * t), rtol=1e-10, atol=1e-13
        )

    def test_purity_starts_pure_and_never_rises(self):
        result = single_qubit_scenario(1.0, 1.0, PulseSpec(kappa=10.0), grid_points=120)
        purity_column = result.time_series[:, 1]
        assert purity_column[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(purity_column) <= 1e-12)

    def test_distance_column_endpoint_matches_final_state(self):
        result = single_qubit_scenario(0.8, 1.9, PulseSpec(kappa=3.0), grid_points=40)
        endpoint = trace_distance(result.final_numeric, result.born.post_state)
        assert result.time_series[-1, 3] == pytest.approx(endpoint, abs=1e-11)

    def test_analytic_and_numeric_endpoints_agree(self):
        result = single_qubit_scenario(2.0, 5.5, PulseSpec(kappa=7.0, tau_c=0.2),
                                       grid_points=2)
        np.testing.assert_allclose(result.final_numeric, result.final_analytic,
                                   atol=1e-12)


class TestTwoQubitScenario:
    def test_long_pulse_reaches_known_limit(self):
        result = two_qubit_scenario(PulseSpec(kappa=40.0), grid_points=2)
        np.testing.assert_allclose(result.final_numeric, ENTANGLED_PAIR_LIMIT, atol=1e-9)
        np.testing.assert_allclose(result.asymptotic, ENTANGLED_PAIR_LIMIT, atol=1e-12)
        np.testing.assert_allclose(result.born.post_state, ENTANGLED_PAIR_LIMIT,
                                   atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, np.pi / 3, 1.0, 2.5])
    def test_finite_pulse_matches_closed_form(self, kappa):
        result = two_qubit_scenario(PulseSpec(kappa=kappa), grid_points=2)
        expected = entangled_pair_endpoint(kappa, kappa)
        np.testing.assert_allclose(result.final_numeric, expected, atol=1e-12)
        np.testing.assert_allclose(result.final_analytic, expected, atol=1e-12)

    def test_subspace_weights_are_even(self):
        result = two_qubit_scenario(PulseSpec(kappa=1.0), grid_points=2)
        np.testing.assert_allclose(result.born.probabilities, [0.5, 0.5], atol=1e-13)
        assert result.spectrum.groups == ((0, 1), (2, 3))

    def test_limit_purity_and_reduced_states(self):
        result = two_qubit_scenario(PulseSpec(kappa=40.0), grid_points=2)
        limit = result.asymptotic
        # even mixture of two orthogonal pure states: purity (1/2)^2 + (1/2)^2
        assert np.trace(limit @ limit).real == pytest.approx(0.5, abs=1e-12)
        # the undriven qubit stays maximally mixed throughout
        np.testing.assert_allclose(
            partial_trace(result.final_numeric, (2, 2), keep=[1]),
            maximally_mixed(2), atol=1e-9,
        )

    def test_intra_group_coherence_survives(self):
        result = two_qubit_scenario(PulseSpec(kappa=40.0), grid_points=2)
        # corners of the limit matrix witness surviving entanglement
        assert abs(result.final_numeric[0, 3]) == pytest.approx(0.25, abs=1e-9)
        assert result.time_series[-1, 2] <= 1e-9


class TestCustomScenario:
    def test_identity_drive_freezes_everything(self):
        rho = random_density(np.random.default_rng(0), 3)
        result = custom_scenario(np.eye(3), rho, tau_c=2.0, t_max=4.0, grid_points=5)
        np.testing.assert_allclose(result.final_numeric, rho, atol=1e-12)
        np.testing.assert_allclose(result.asymptotic, rho, atol=1e-13)
        np.testing.assert_allclose(result.born.post_state, rho, atol=1e-13)
        assert len(result.spectrum.groups) == 1
        np.testing.assert_allclose(result.time_series[:, 2], 0.0, atol=0)
        np.testing.assert_allclose(result.time_series[:, 3], 0.0, atol=1e-12)

    def test_reproduces_builtin_scenario(self):
        theta, phi = 1.2, 0.8
        pulse = PulseSpec(kappa=3.0, omega1=1.5, tau_c=0.6)
        builtin = single_qubit_scenario(theta, phi, pulse, grid_points=11)
        h = 0.5 * pulse.omega1 * np.array([[0.0, -1j], [1j, 0.0]])
        rho0 = pure_density(qubit_state(theta, phi))
        custom = custom_scenario(h, rho0, pulse.tau_c, pulse.duration, grid_points=11)
        np.testing.assert_allclose(custom.final_numeric, builtin.final_numeric, atol=1e-14)
        np.testing.assert_allclose(custom.time_series, builtin.time_series, atol=1e-14)

    def test_rejects_tiny_grid(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValidationError):
            custom_scenario(np.eye(2), rho, 1.0, 1.0, grid_points=1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            custom_scenario(np.eye(2), maximally_mixed(2), 1.0, -1.0)

    def test_rejects_non_hermitian_drive(self):
        with pytest.raises(ValidationError):
            custom_scenario(np.array([[0.0, 1.0], [0.0, 0.0]]), maximally_mixed(2),
                            1.0, 1.0)


@settings(deadline=None, max_examples=25)
@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi),
       kappa=st.floats(0.1, 15.0), tau_c=st.floats(0.0, 2.0))
def test_single_qubit_time_series_properties(theta, phi, kappa, tau_c):
    result = single_qubit_scenario(theta, phi, PulseSpec(kappa=kappa, tau_c=tau_c),
                                   grid_points=40)
    series = result.time_series
    assert np.all(np.diff(series[:, 1]) <= 1e-11)
    assert np.all(series[:, 2] >= -1e-15)
    assert np.all(np.diff(series[:, 2]) <= 1e-11)
    assert np.all(series[:, 3] >= -1e-15)
    assert np.all(np.diff(series[:, 3]) <= 1e-11)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4]),
       tau_c=st.floats(0.1, 2.0), t_max=st.floats(0.0, 8.0))
def test_custom_scenario_endpoints_always_agree(seed, dim, tau_c, t_max):
    rng = np.random.default_rng(seed)
    result = custom_scenario(random_hermitian(rng, dim), random_density(rng, dim),
                             tau_c, t_max, grid_points=7)
    np.testing.assert_allclose(result.final_numeric, result.final_analytic, atol=1e-10)
    assert np.trace(result.final_numeric).real == pytest.approx(1.0, abs=1e-11)
