import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    DEFAULT_TOLS,
    DimensionMismatchError,
    GeneratorSpec,
    NegativeEigenvalueError,
    NonHermitianError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerances,
    TraceDeviationError,
    bell_amplitudes,
    born_predict,
    eigendecompose,
    hermiticity_defect,
    maximally_mixed,
    partial_trace,
    project_to_physical,
    pure_density,
    purity,
    qubit_state,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from helpers import random_density, random_hermitian


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOLS.herm == 1e-10
        assert DEFAULT_TOLS.trace == 1e-10
        assert DEFAULT_TOLS.psd == 1e-9
        assert DEFAULT_TOLS.compare == 1e-9
        assert DEFAULT_TOLS.degeneracy == 1e-9

    def test_zero_allowed_negative_rejected(self):
        Tolerances(trace=0.0)
        with pytest.raises(ValueError):
            Tolerances(psd=-1e-12)
        with pytest.raises(ValueError):
            Tolerances(herm=float("nan"))

    def test_degeneracy_threshold_scales_with_span(self):
        tol = Tolerances()
        assert tol.degeneracy_threshold(np.array([0.0])) == pytest.approx(1e-9)
        assert tol.degeneracy_threshold(np.array([-2.0, 2.0])) == pytest.approx(5e-9)


class TestPauliConstants:
    def test_algebra(self):
        np.testing.assert_array_equal(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_array_equal(sigma @ sigma, np.eye(2))
            assert hermiticity_defect(sigma) == 0.0


class TestValidation:
    def test_accepts_physical_state(self):
        rho = random_density(np.random.default_rng(0), 4)
        np.testing.assert_array_equal(validate_density_matrix(rho), rho)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            validate_density_matrix(np.array([[0.5, 1e-3], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceDeviationError):
            validate_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_density_matrix(np.ones((2, 3)))

    def test_tolerance_widening_admits_blemishes(self):
        off_trace = np.diag([1.0 + 5e-7, 0.0])
        with pytest.raises(TraceDeviationError):
            validate_density_matrix(off_trace)
        validate_density_matrix(off_trace, Tolerances(trace=1e-5))
        slightly_negative = np.diag([1.0 + 5e-7, -5e-7])
        with pytest.raises(NegativeEigenvalueError):
            validate_density_matrix(slightly_negative)
        validate_density_matrix(slightly_negative, Tolerances(psd=1e-5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(NonHermitianError):
            validate_density_matrix(np.full((2, 2), bad))
        for index in ((0, 0), (0, 1)):
            rho = maximally_mixed(2)
            rho[index] = bad
            with pytest.raises(NonHermitianError):
                validate_density_matrix(rho)


class TestStacks:
    """An (n, d, d) stack behaves like a loop over its samples."""

    @staticmethod
    def states(seed, n=7, dim=3):
        rng = np.random.default_rng(seed)
        return np.array([random_density(rng, dim) for _ in range(n)])

    def test_stacked_results_equal_per_matrix_loop(self):
        stack, others = self.states(21), self.states(22)
        np.testing.assert_array_equal(validate_density_matrix(stack), stack)
        np.testing.assert_array_equal(purity(stack), [purity(rho) for rho in stack])
        np.testing.assert_array_equal(
            trace_distance(stack, others),
            [trace_distance(a, b) for a, b in zip(stack, others)],
        )
        np.testing.assert_array_equal(
            trace_distance(stack, others[0]),
            [trace_distance(a, others[0]) for a in stack],
        )

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0.5, 1e-3], [0.0, 0.5]]), NonHermitianError),
        (np.eye(2), TraceDeviationError),
        (np.diag([1.5, -0.5]), NegativeEigenvalueError),
        (np.full((2, 2), np.nan), NonHermitianError),
    ])
    def test_one_bad_sample_fails_the_stack_as_it_fails_alone(self, bad, error):
        with pytest.raises(error):
            validate_density_matrix(bad)
        stack = np.array([maximally_mixed(2)] * 5)
        stack[3] = bad
        for check in (validate_density_matrix, purity):
            with pytest.raises(error, match="in sample 3"):
                check(stack)

    def test_single_matrix_entry_points_reject_stacks(self):
        stack = self.states(23, n=3)
        spectrum = eigendecompose(np.diag([0.0, 1.0, 2.0]))
        for call in (
            lambda: eigendecompose(stack),
            lambda: GeneratorSpec(drive=stack),
            lambda: born_predict(spectrum, stack),
            lambda: project_to_physical(stack),
        ):
            with pytest.raises(DimensionMismatchError):
                call()

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatchError):
            validate_density_matrix(np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.ones((2, 3, 3)), np.eye(2))


class TestProjectToPhysical:
    def test_clamps_small_negative_eigenvalue(self):
        rho = np.diag([1.0 + 2e-10, -2e-10])
        fixed = project_to_physical(rho)
        evals = np.linalg.eigvalsh(fixed)
        assert evals[0] >= 0.0
        assert np.trace(fixed).real == pytest.approx(1.0, abs=1e-15)

    def test_leaves_clean_state_untouched(self):
        rho = pure_density(qubit_state(0.3, 1.1))
        np.testing.assert_allclose(project_to_physical(rho), rho, rtol=0, atol=1e-15)

    def test_rejects_genuinely_broken_state(self):
        with pytest.raises(NegativeEigenvalueError):
            project_to_physical(np.diag([1.5, -0.5]))


class TestMetrics:
    def test_purity_bounds(self):
        assert purity(maximally_mixed(4)) == pytest.approx(0.25, abs=1e-15)
        assert purity(pure_density(qubit_state(1.0, 2.0))) == pytest.approx(1.0, abs=1e-12)

    def test_purity_validates_input(self):
        with pytest.raises(TraceDeviationError):
            purity(np.eye(3))

    def test_trace_distance_orthogonal_pure_states(self):
        a = pure_density([1.0, 0.0])
        b = pure_density([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
        assert trace_distance(a, a) == 0.0

    def test_trace_distance_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2), np.eye(3))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4, 6]))
    def test_trace_distance_is_a_bounded_metric(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(rng, dim) for _ in range(3))
        dab, dbc, dac = trace_distance(a, b), trace_distance(b, c), trace_distance(a, c)
        assert 0.0 <= dab <= 1.0 + 1e-12
        assert dac <= dab + dbc + 1e-12
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-14)


class TestTensorAlgebra:
    def test_tensor_product_order(self):
        # big-endian: left factor indexes the most significant qubit
        zz = tensor_product(SIGMA_Z, np.eye(2))
        np.testing.assert_array_equal(np.diagonal(zz), [1, 1, -1, -1])

    def test_tensor_product_three_factors(self):
        out = tensor_product(np.eye(2), SIGMA_Z, np.eye(2))
        assert out.shape == (8, 8)
        np.testing.assert_array_equal(np.diagonal(out), [1, 1, -1, -1, 1, 1, -1, -1])

    def test_partial_trace_recovers_marginals(self):
        rng = np.random.default_rng(5)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        joint = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=[0]), a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=[1]), b, atol=1e-14)

    def test_partial_trace_of_entangled_pair_is_mixed(self):
        rho = pure_density(bell_amplitudes())
        reduced = partial_trace(rho, (2, 2), keep=[0])
        np.testing.assert_allclose(reduced, maximally_mixed(2), atol=1e-14)

    def test_partial_trace_keep_everything(self):
        rho = random_density(np.random.default_rng(6), 4)
        np.testing.assert_allclose(partial_trace(rho, (2, 2), keep=[0, 1]), rho, atol=0)

    def test_partial_trace_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4) / 4.0, (2, 3), keep=[0])


class TestStateBuilders:
    def test_qubit_state_poles(self):
        np.testing.assert_allclose(qubit_state(0.0, 0.7), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(qubit_state(np.pi, 0.0)), [0.0, 1.0], atol=1e-15)

    def test_qubit_state_is_normalized(self):
        for theta, phi in [(0.1, 0.2), (2.0, 5.0), (np.pi / 2, np.pi)]:
            v = qubit_state(theta, phi)
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-15)

    def test_bell_amplitudes(self):
        v = bell_amplitudes()
        np.testing.assert_allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2.0), atol=1e-15)

    def test_pure_density_rejects_unnormalized(self):
        with pytest.raises(TraceDeviationError):
            pure_density([1.0, 1.0])

    def test_hermiticity_defect_measures_asymmetry(self):
        assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
        rho = random_density(np.random.default_rng(9), 3)
        assert hermiticity_defect(rho) <= 1e-15


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4]))
def test_random_hermitian_fixture_is_hermitian(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert hermiticity_defect(h) <= 1e-14 * max(1.0, float(np.abs(h).max()))
