import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    SIGMA_Y,
    Tolerances,
    TraceDeviationError,
    ValidationError,
    asymptotic_state,
    bell_amplitudes,
    born_predict,
    compare_to_prediction,
    eigendecompose,
    pure_density,
    qubit_state,
    tensor_product,
)
from helpers import maximally_mixed, random_density, random_hermitian, random_pure_density


class TestBornPredict:
    def test_probabilities_are_a_distribution(self):
        rng = np.random.default_rng(0)
        spectrum = eigendecompose(random_hermitian(rng, 5))
        prediction = born_predict(spectrum, random_density(rng, 5))
        assert np.all(prediction.probabilities >= 0.0)
        assert prediction.probabilities.sum() == pytest.approx(1.0, abs=1e-14)
        assert len(prediction.projectors) == len(spectrum.groups)

    def test_single_qubit_formula(self):
        spectrum = eigendecompose(0.5 * SIGMA_Y)
        for theta in np.linspace(0.0, np.pi, 7):
            for phi in np.linspace(0.0, 2 * np.pi, 7):
                prediction = born_predict(spectrum, pure_density(qubit_state(theta, phi)))
                upper = int(np.argmax(prediction.group_eigenvalues))
                expected = 0.5 * (1.0 + np.sin(theta) * np.sin(phi))
                assert prediction.probabilities[upper] == pytest.approx(expected, abs=1e-12)

    def test_entangled_pair_weights_are_even(self):
        spectrum = eigendecompose(0.5 * tensor_product(SIGMA_Y, np.eye(2)))
        prediction = born_predict(spectrum, pure_density(bell_amplitudes()))
        np.testing.assert_allclose(prediction.probabilities, [0.5, 0.5], atol=1e-14)

    def test_post_state_is_valid_and_fixed(self):
        rng = np.random.default_rng(1)
        spectrum = eigendecompose(random_hermitian(rng, 4))
        prediction = born_predict(spectrum, random_density(rng, 4))
        post = prediction.post_state
        assert np.trace(post).real == pytest.approx(1.0, abs=1e-13)
        assert np.abs(post - post.conj().T).max() <= 1e-13
        assert np.linalg.eigvalsh(post)[0] >= -1e-13
        again = born_predict(spectrum, post)
        np.testing.assert_allclose(again.post_state, post, atol=1e-13)
        np.testing.assert_allclose(again.probabilities, prediction.probabilities,
                                   atol=1e-13)

    def test_eigenstate_input_is_deterministic_outcome(self):
        spectrum = eigendecompose(np.diag([-1.0, 0.0, 2.0]))
        rho = np.zeros((3, 3), dtype=np.complex128)
        rho[2, 2] = 1.0
        prediction = born_predict(spectrum, rho)
        np.testing.assert_allclose(prediction.probabilities, [0.0, 0.0, 1.0], atol=0)
        np.testing.assert_allclose(prediction.post_state, rho, atol=0)

    def test_group_eigenvalues_reported(self):
        spectrum = eigendecompose(np.diag([3.0, -1.0, 3.0]))
        prediction = born_predict(spectrum, maximally_mixed(3))
        np.testing.assert_allclose(prediction.group_eigenvalues, [-1.0, 3.0], atol=0)
        np.testing.assert_allclose(prediction.probabilities, [1.0 / 3.0, 2.0 / 3.0],
                                   atol=1e-14)

    def test_dimension_mismatch(self):
        spectrum = eigendecompose(0.5 * SIGMA_Y)
        with pytest.raises(ValidationError):
            born_predict(spectrum, maximally_mixed(3))

    def test_zero_trace_tolerance_rejects_roundoff(self):
        spectrum = eigendecompose(0.5 * SIGMA_Y)
        rho = pure_density(qubit_state(0.7, 1.9))
        with pytest.raises(TraceDeviationError):
            born_predict(spectrum, rho, Tolerances(trace=0.0))


class TestCompareToPrediction:
    def _prediction(self, rng, dim=3):
        spectrum = eigendecompose(random_hermitian(rng, dim))
        rho = random_density(rng, dim)
        return rho, born_predict(spectrum, rho), spectrum

    def test_exact_match_passes(self):
        rng = np.random.default_rng(2)
        rho, prediction, spectrum = self._prediction(rng)
        report = compare_to_prediction(asymptotic_state(spectrum, rho), prediction)
        assert report.passed and report.verdict == "pass"
        assert report.trace_distance <= 1e-12
        assert report.max_entry_deviation <= 1e-12

    def test_far_state_fails(self):
        rng = np.random.default_rng(3)
        rho, prediction, _ = self._prediction(rng)
        report = compare_to_prediction(maximally_mixed(3), prediction)
        assert not report.passed and report.verdict == "fail"
        assert report.trace_distance > report.tol

    def test_threshold_override(self):
        rng = np.random.default_rng(4)
        rho, prediction, spectrum = self._prediction(rng)
        limit = asymptotic_state(spectrum, rho)
        perturbed = limit.copy()
        perturbed[0, 0] += 1e-6
        perturbed[1, 1] -= 1e-6
        strict = compare_to_prediction(perturbed, prediction, compare_tol=1e-8)
        loose = compare_to_prediction(perturbed, prediction, compare_tol=1e-3)
        assert not strict.passed
        assert loose.passed
        assert strict.tol == 1e-8

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1e-3])
    def test_rejects_invalid_threshold(self, bad):
        rng = np.random.default_rng(8)
        rho, prediction, _ = self._prediction(rng)
        with pytest.raises(ValidationError):
            compare_to_prediction(rho, prediction, compare_tol=bad)

    def test_probability_table_rows(self):
        rng = np.random.default_rng(5)
        rho, prediction, spectrum = self._prediction(rng)
        report = compare_to_prediction(asymptotic_state(spectrum, rho), prediction)
        assert len(report.probability_table) == len(spectrum.groups)
        for k, (label, simulated, predicted) in enumerate(report.probability_table):
            assert label == f"group_{k}"
            assert simulated == pytest.approx(predicted, abs=1e-12)
            assert predicted == pytest.approx(float(prediction.probabilities[k]), abs=0)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(6)
        _, prediction, _ = self._prediction(rng, dim=3)
        with pytest.raises(ValidationError):
            compare_to_prediction(maximally_mixed(2), prediction)

    def test_validates_simulated_state(self):
        rng = np.random.default_rng(7)
        _, prediction, _ = self._prediction(rng)
        with pytest.raises(ValidationError):
            compare_to_prediction(np.eye(3), prediction)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4, 6]),
       mixed=st.booleans())
def test_projection_sum_equals_measurement_prediction(seed, dim, mixed):
    # the central identity: the dephasing limit IS the unconditioned
    # post-measurement state, for pure and mixed inputs alike
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    rho = random_density(rng, dim) if mixed else random_pure_density(rng, dim)
    spectrum = eigendecompose(h)
    prediction = born_predict(spectrum, rho)
    np.testing.assert_allclose(asymptotic_state(spectrum, rho), prediction.post_state,
                               atol=1e-12)
    weights = [float(np.trace(p @ rho).real) for p in prediction.projectors]
    np.testing.assert_allclose(weights, prediction.probabilities, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1))
def test_prediction_is_basis_of_projectors(seed):
    # post state reconstructed from projector blocks matches the packaged one
    rng = np.random.default_rng(seed)
    h = np.diag(np.sort(rng.integers(-2, 3, size=4)).astype(float))
    rho = random_density(rng, 4)
    prediction = born_predict(eigendecompose(h), rho)
    rebuilt = sum(p @ rho @ p for p in prediction.projectors)
    np.testing.assert_allclose(rebuilt, prediction.post_state, atol=1e-13)
