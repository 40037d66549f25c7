import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frqme import (
    DEFAULT_TOLS,
    DimensionMismatchError,
    GeneratorSpec,
    NegativeEigenvalueError,
    NonHermitianError,
    Tolerances,
    TraceDeviationError,
    bell_amplitudes,
    born_predict,
    eigendecompose,
    project_to_physical,
    pure_density,
    purity,
    qubit_state,
    tensor_product,
    trace_distance,
    validate_density_matrix,
)
from helpers import SIGMA_Z, maximally_mixed, random_density, random_hermitian


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
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Tolerances(herm=bad)

    @pytest.mark.parametrize("field", ["herm", "trace", "psd", "compare", "degeneracy"])
    def test_every_field_rejects_non_finite(self, field):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=field):
                Tolerances(**{field: bad})

    def test_degeneracy_threshold_scales_with_span(self):
        tol = Tolerances()
        assert tol.degeneracy_threshold(np.array([0.0])) == pytest.approx(1e-9)
        assert tol.degeneracy_threshold(np.array([-2.0, 2.0])) == pytest.approx(5e-9)


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
        for check in (validate_density_matrix, purity, project_to_physical):
            with pytest.raises(error, match="in sample 3"):
                check(stack)

    def test_single_matrix_entry_points_reject_stacks(self):
        stack = self.states(23, n=3)
        spectrum = eigendecompose(np.diag([0.0, 1.0, 2.0]))
        for call in (
            lambda: eigendecompose(stack),
            lambda: GeneratorSpec(drive=stack),
            lambda: born_predict(spectrum, stack),
        ):
            with pytest.raises(DimensionMismatchError):
                call()

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatchError):
            validate_density_matrix(np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.ones((2, 3, 3)), np.eye(2))


class TestPositivityDecision:
    """Positivity is decided by a Cholesky factorisation of a + psd * I.

    It must agree with the eigenvalue test eigvalsh(a)[..., 0] >= -psd
    everywhere but within roundoff of -psd, and report what it reports.
    """

    @staticmethod
    def expected_message(smallest, psd, stacked):
        i = int(np.argmax(smallest < -psd))
        where = f" in sample {i}" if stacked else ""
        return f"smallest eigenvalue {smallest[i]:.3e}{where} is below -{psd:.3e}"

    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 16),
           psd=st.sampled_from([DEFAULT_TOLS.psd, 1e-6]),
           scaled=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
           stacked=st.booleans())
    def test_fails_exactly_below_minus_psd(self, seed, dim, psd, scaled, stacked):
        rng = np.random.default_rng(seed)
        samples = []
        for s in scaled:
            rest = rng.uniform(0.5, 1.0, dim - 1)
            levels = np.concatenate(([s * psd], (1.0 - s * psd) * rest / rest.sum()))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            rho = (q * levels) @ q.conj().T
            samples.append(0.5 * (rho + rho.conj().T))
        a = np.array(samples) if stacked or len(samples) > 1 else samples[0]
        smallest = np.atleast_1d(np.linalg.eigvalsh(a)[..., 0])
        assume(np.all(np.abs(smallest + psd) > 1e-12))
        tol = Tolerances(psd=psd)
        if np.all(smallest >= -psd):
            assert validate_density_matrix(a, tol) is a
        else:
            message = self.expected_message(smallest, psd, a.ndim == 3)
            with pytest.raises(NegativeEigenvalueError) as failure:
                validate_density_matrix(a, tol)
            assert str(failure.value) == message

    def test_reports_a_failing_sample_in_the_middle(self):
        stack = np.array([maximally_mixed(3)] * 9)
        stack[4] = np.diag([0.5, 0.5 + 2e-9, -2e-9])
        with pytest.raises(NegativeEigenvalueError) as failure:
            validate_density_matrix(stack)
        assert str(failure.value) == (
            "smallest eigenvalue -2.000e-09 in sample 4 is below -1.000e-09")

    def test_passing_stack_needs_no_eigendecomposition(self, monkeypatch):
        stack = TestStacks.states(31, n=50, dim=4)
        stack[7] = np.diag([0.5, 0.5 + 5e-10, 0.0, -5e-10])

        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert validate_density_matrix(stack) is stack

    def test_overflowing_factor_still_fails(self):
        # finite, Hermitian and of unit trace, but the Cholesky factor overflows
        a = np.array([[0.5, 1e300], [1e300, 0.5]], dtype=np.complex128)
        with pytest.raises(NegativeEigenvalueError, match="smallest eigenvalue -1.000e\\+300"):
            validate_density_matrix(a)


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

    def test_rejects_trace_deviation(self):
        with pytest.raises(TraceDeviationError):
            project_to_physical(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        rho = maximally_mixed(2)
        rho[0, 0] = bad
        with pytest.raises(NonHermitianError):
            project_to_physical(rho)

    def test_stack_equals_per_sample_calls(self):
        rng = np.random.default_rng(24)
        stack = np.array([random_density(rng, 2) for _ in range(5)])
        stack[2] = np.diag([1.0 + 2e-10, -2e-10])  # the one sample that is clamped
        out = project_to_physical(stack)
        np.testing.assert_array_equal(out, [project_to_physical(m) for m in stack])
        assert np.linalg.eigvalsh(out[2])[0] >= 0.0

    def test_one_eigendecomposition(self, monkeypatch):
        # the positivity check reads the eigh that the repair needs
        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        project_to_physical(np.diag([1.0 + 2e-10, -2e-10]))


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


class TestMetricFormulas:
    """The metrics against their textbook formulas: the nuclear norm from an
    SVD and Tr(rho^2) from a matrix product."""

    @staticmethod
    def svd_trace_distance(a, b):
        return 0.5 * np.linalg.svd(a - b, compute_uv=False).sum(axis=-1)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([1, 2, 3, 4, 8, 16]),
           n=st.integers(1, 6))
    def test_trace_distance_equals_svd_formula(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        a, b = (random_hermitian(rng, dim) for _ in range(2))
        stack = np.array([random_hermitian(rng, dim) for _ in range(n)])
        others = np.array([random_hermitian(rng, dim) for _ in range(n)])
        for x, y in ((a, b), (stack, others), (stack, b), (a, stack)):
            np.testing.assert_allclose(trace_distance(x, y), self.svd_trace_distance(x, y),
                                       rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([1, 2, 3, 4, 8, 16]))
    def test_purity_equals_trace_of_square(self, seed, dim):
        rng = np.random.default_rng(seed)
        stack = np.array([random_density(rng, dim) for _ in range(5)])
        reference = np.trace(stack @ stack, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(purity(stack), reference, rtol=0, atol=1e-14)
        assert purity(stack[0]) == pytest.approx(reference[0], rel=0, abs=1e-14)

    def test_trace_distance_rejects_non_hermitian_difference(self):
        stack = np.array([maximally_mixed(2)] * 6)
        stack[2, 0, 1] = stack[4, 1, 0] = 1e-3
        with pytest.raises(NonHermitianError, match="1.000e-03 in sample 2 exceeds"):
            trace_distance(stack, maximally_mixed(2))
        with pytest.raises(NonHermitianError, match="in sample 2"):
            trace_distance(maximally_mixed(2), stack)
        with pytest.raises(NonHermitianError):
            trace_distance(stack[4], maximally_mixed(2))

    def test_trace_distance_uses_the_given_herm_tolerance(self):
        a = np.array([[0.5, 1e-8], [0.0, 0.5]])
        with pytest.raises(NonHermitianError):
            trace_distance(a, maximally_mixed(2))
        # within the looser tolerance the defect bounds the error
        assert trace_distance(a, maximally_mixed(2), Tolerances(herm=1e-6)) == pytest.approx(
            self.svd_trace_distance(a, maximally_mixed(2)), abs=1e-8)


class TestTensorAlgebra:
    def test_tensor_product_order(self):
        # big-endian: left factor indexes the most significant qubit
        zz = tensor_product(SIGMA_Z, np.eye(2))
        np.testing.assert_array_equal(np.diagonal(zz), [1, 1, -1, -1])

    def test_tensor_product_three_factors(self):
        out = tensor_product(np.eye(2), SIGMA_Z, np.eye(2))
        assert out.shape == (8, 8)
        np.testing.assert_array_equal(np.diagonal(out), [1, 1, -1, -1, 1, 1, -1, -1])


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

    @pytest.mark.parametrize("amplitudes", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]],
                             ids=["norm2", "nan", "inf"])
    def test_pure_density_rejects_unnormalized(self, amplitudes):
        with pytest.raises(TraceDeviationError):
            pure_density(amplitudes)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4]))
def test_random_hermitian_fixture_is_hermitian(seed, dim):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert np.abs(h - h.conj().T).max() <= 1e-14 * max(1.0, float(np.abs(h).max()))
