import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    DimensionMismatchError,
    GeneratorSpec,
    NonHermitianError,
    SIGMA_Y,
    Tolerances,
    ValidationError,
    analytic_evolve,
    build_generator,
    choi_matrix,
    commutator_superop,
    convergence_time,
    devectorize,
    double_commutator_superop,
    eigendecompose,
    matrix_exponential,
    propagate,
    pure_density,
    qubit_state,
    vectorize,
)
from frqme import _kernels, liouville
from helpers import (SIGMA_X, maximally_mixed, random_density, random_hermitian,
                     random_pure_density)


class TestVectorization:
    def test_column_stacking_convention(self):
        m = np.array([[1, 2], [3, 4]], dtype=np.complex128)
        # entry (i, j) lands at flat index j*d + i
        np.testing.assert_array_equal(vectorize(m), [1, 3, 2, 4])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        np.testing.assert_array_equal(devectorize(vectorize(m)), m)

    def test_devectorize_rejects_non_square_length(self):
        with pytest.raises(ValidationError):
            devectorize(np.ones(5))

    def test_stack_is_one_vector_per_sample(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
        vecs = vectorize(stack)
        np.testing.assert_array_equal(vecs, [vectorize(m) for m in stack])
        np.testing.assert_array_equal(devectorize(vecs), stack)

    def test_devectorize_rejects_higher_rank(self):
        with pytest.raises(ValidationError):
            devectorize(np.ones((2, 2, 4)))

    def test_product_identity(self):
        # vec(A rho B) = (B^T kron A) vec(rho)
        rng = np.random.default_rng(1)
        a, b, rho = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                     for _ in range(3))
        lhs = vectorize(a @ rho @ b)
        rhs = np.kron(b.T, a) @ vectorize(rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestSuperoperators:
    def test_commutator_action(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        out = devectorize(commutator_superop(h) @ vectorize(rho))
        np.testing.assert_allclose(out, h @ rho - rho @ h, atol=1e-13)

    def test_double_commutator_action(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        out = devectorize(double_commutator_superop(h) @ vectorize(rho))
        expected = h @ (h @ rho - rho @ h) - (h @ rho - rho @ h) @ h
        np.testing.assert_allclose(out, expected, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_commutator_equals_kron_form_bit_for_bit(self, dim):
        h = random_hermitian(np.random.default_rng(20 + dim), dim)
        eye = np.eye(dim, dtype=np.complex128)
        np.testing.assert_array_equal(
            commutator_superop(h), np.kron(eye, h) - np.kron(h.T, eye)
        )

    def test_commutator_requires_hermitian(self):
        with pytest.raises(NonHermitianError):
            commutator_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_commutator_kills_functions_of_h(self):
        h = random_hermitian(np.random.default_rng(4), 3)
        for power in (np.eye(3), h, h @ h):
            np.testing.assert_allclose(
                commutator_superop(h) @ vectorize(power), 0.0, atol=1e-12
            )


class TestGeneratorSpec:
    def test_rejects_negative_tau_c(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(drive=SIGMA_Y, tau_c=-0.1)

    @pytest.mark.parametrize("tau_c", [np.inf, np.nan])
    def test_rejects_non_finite_tau_c(self, tau_c):
        with pytest.raises(ValidationError, match="tau_c must be finite"):
            GeneratorSpec(drive=SIGMA_Y, tau_c=tau_c)

    def test_rejects_mismatched_dissipator(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(drive=SIGMA_Y, tau_c=1.0,
                          extra_dissipators=((np.eye(3), 0.5),))

    @pytest.mark.parametrize("strength", [-0.5, np.inf, np.nan])
    def test_rejects_bad_strength(self, strength):
        with pytest.raises(ValidationError, match="dissipator strength must be finite and >= 0"):
            GeneratorSpec(drive=SIGMA_Y, tau_c=1.0,
                          extra_dissipators=((SIGMA_X, strength),))

    def test_dim(self):
        assert GeneratorSpec(drive=np.eye(3), tau_c=0.0).dim == 3


class TestBuildGenerator:
    def test_rejects_non_hermitian_drive(self):
        with pytest.raises(NonHermitianError):
            build_generator(GeneratorSpec(drive=np.array([[0.0, 1.0], [0.5, 0.0]])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_drive(self, bad):
        drive = SIGMA_Y.copy()
        drive[0, 1] = bad
        with pytest.raises(NonHermitianError):
            build_generator(GeneratorSpec(drive=drive))
        with pytest.raises(NonHermitianError):
            build_generator(GeneratorSpec(drive=np.full((2, 2), bad)))

    def test_rejects_non_hermitian_channel(self):
        spec = GeneratorSpec(drive=SIGMA_Y, tau_c=1.0,
                             extra_dissipators=((np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5),))
        with pytest.raises(NonHermitianError):
            build_generator(spec)

    def test_checks_the_drive_under_the_given_tolerances(self):
        # a hermiticity defect of 1e-8: past the default 1e-10, within 1e-6
        spec = GeneratorSpec(drive=np.array([[1.0, 0.5], [0.5 + 1e-8, -1.0]]), tau_c=0.3)
        with pytest.raises(NonHermitianError,
                           match="hermiticity defect 1.000e-08 exceeds 1.000e-10"):
            build_generator(spec)
        build_generator(spec, Tolerances(herm=1e-6))

    def test_equation_of_motion(self):
        # d rho/dt at t=0 must equal -i[H,rho] - tau_c[H,[H,rho]]
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        spec = GeneratorSpec(drive=h, tau_c=0.37)
        rhs = devectorize(build_generator(spec) @ vectorize(rho))
        comm = h @ rho - rho @ h
        expected = -1j * comm - 0.37 * (h @ comm - comm @ h)
        np.testing.assert_allclose(rhs, expected, atol=1e-13)

    def test_extra_dissipators_add_channels(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 2)
        a = random_hermitian(rng, 2)
        rho = random_density(rng, 2)
        spec = GeneratorSpec(drive=h, tau_c=0.0, extra_dissipators=((a, 0.8),))
        rhs = devectorize(build_generator(spec) @ vectorize(rho))
        comm_h = h @ rho - rho @ h
        comm_a = a @ rho - rho @ a
        expected = -1j * comm_h - 0.8 * (a @ comm_a - comm_a @ a)
        np.testing.assert_allclose(rhs, expected, atol=1e-13)

    def test_coherent_part_only_when_tau_c_zero(self):
        h = random_hermitian(np.random.default_rng(7), 3)
        gen = build_generator(GeneratorSpec(drive=h, tau_c=0.0))
        np.testing.assert_allclose(gen, -1j * commutator_superop(h), atol=0)


class TestMatrixExponential:
    def test_time_zero_is_identity(self):
        gen = build_generator(GeneratorSpec(drive=SIGMA_Y, tau_c=1.0))
        np.testing.assert_allclose(matrix_exponential(gen, 0.0), np.eye(4), atol=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.eye(2), -1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(DimensionMismatchError,
                           match=rf"expected a square matrix, got shape \({shape[0]}"):
            matrix_exponential(np.ones(shape))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            matrix_exponential(np.eye(2), np.inf)

    def test_rejects_overflowing_product(self):
        # m and t are finite, m * t is not, and no squaring count scales it down
        with pytest.raises(ValidationError, match="1-norm inf"):
            matrix_exponential(np.diag([1e300, 0.0]), 1e10)

    def test_real_input_gives_complex128(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((6, 6))
        out = matrix_exponential(m, 0.7)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, scipy.linalg.expm(0.7 * m), rtol=0, atol=1e-13)

    def test_time_scaling(self):
        gen = build_generator(GeneratorSpec(drive=0.5 * SIGMA_X, tau_c=0.3))
        np.testing.assert_allclose(
            matrix_exponential(gen, 2.5),
            matrix_exponential(2.5 * gen, 1.0),
            atol=1e-13,
        )


class TestPropagate:
    def test_unitary_limit(self):
        # tau_c = 0 reduces to Hamiltonian conjugation
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        spec = GeneratorSpec(drive=h, tau_c=0.0)
        t = 1.7
        u = matrix_exponential(-1j * h, t)
        np.testing.assert_allclose(
            propagate(spec, rho, t), u @ rho @ u.conj().T, atol=1e-12
        )

    def test_evolves_the_hermitian_part_of_a_nearly_hermitian_drive(self):
        # a defect of 1e-8, admitted under herm = 1e-6: the raw drive's
        # non-unitary part would grow a hermiticity defect of about 5e-6 in
        # the state by t = 1000, while the closed form evolves (H + H^H)/2
        rng = np.random.default_rng(2104)
        tol = Tolerances(herm=1e-6)
        for _ in range(20):
            perturbation = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = random_hermitian(rng, 3) + 1e-8 * perturbation / np.abs(perturbation).max()
            rho = random_pure_density(rng, 3)
            rho_t = propagate(GeneratorSpec(drive=h, tau_c=0.0), rho, 1000.0, tol)
            expected = analytic_evolve(eigendecompose(h, tol), rho, 0.0, 1000.0, tol)
            np.testing.assert_allclose(rho_t, expected, atol=1e-11)

    def test_validates_initial_state(self):
        spec = GeneratorSpec(drive=SIGMA_Y, tau_c=1.0)
        with pytest.raises(ValidationError):
            propagate(spec, np.eye(2), 1.0)

    def test_dimension_mismatch(self):
        spec = GeneratorSpec(drive=SIGMA_Y, tau_c=1.0)
        with pytest.raises(ValidationError):
            propagate(spec, maximally_mixed(3), 1.0)

    def test_fixed_point_of_pure_dephasing(self):
        # a state diagonal in the drive eigenbasis never moves
        rho = pure_density(qubit_state(0.0, 0.0))
        spec = GeneratorSpec(drive=np.diag([1.0, -1.0]).astype(np.complex128), tau_c=2.0)
        np.testing.assert_allclose(propagate(spec, rho, 5.0), rho, atol=1e-13)

    def test_rejects_overflowing_time(self):
        # the generator's entries times t overflow
        spec = GeneratorSpec(drive=np.diag([0.0, 1.0, 100.0]), tau_c=1e200)
        with pytest.raises(ValidationError, match="cannot exponentiate a matrix with 1-norm inf$"):
            propagate(spec, maximally_mixed(3), 1e200)

    def test_admits_a_drive_within_the_given_tolerances(self):
        # the drive is checked once, when its generator is built, under the
        # call's tolerances; the closed form evolves its Hermitian part
        drive = np.array([[1.0, 0.5], [0.5 + 1e-8, -1.0]])
        rho = pure_density(qubit_state(0.4, 1.1))
        tol = Tolerances(herm=1e-6)
        out = propagate(GeneratorSpec(drive=drive, tau_c=0.3), rho, 40.0, tol)
        expected = analytic_evolve(eigendecompose(drive, tol), rho, 0.3, 40.0)
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, -1.0])
    def test_rejects_a_bad_time_naming_no_sample(self, t):
        with pytest.raises(ValidationError, match=f"time must be finite and >= 0, got {t}$"):
            propagate(GeneratorSpec(drive=SIGMA_Y), maximally_mixed(2), t)

    @pytest.mark.parametrize("t", [0.3, 25.0])
    @pytest.mark.parametrize("extras", [0, 2])
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_matches_complex_liouville_exponential(self, dim, extras, t):
        # scipy's Pade exponential of the generator is the oracle; random
        # extra dissipators do not commute with the drive
        rng = np.random.default_rng(100 * dim + extras)
        spec = GeneratorSpec(
            drive=random_hermitian(rng, dim), tau_c=0.4,
            extra_dissipators=tuple((random_hermitian(rng, dim), 0.3) for _ in range(extras)),
        )
        rho = random_density(rng, dim)
        oracle = devectorize(scipy.linalg.expm(t * build_generator(spec)) @ vectorize(rho))
        assert np.abs(propagate(spec, rho, t) - oracle).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_output_is_exactly_hermitian(self, dim):
        rng = np.random.default_rng(30 + dim)
        spec = GeneratorSpec(drive=random_hermitian(rng, dim), tau_c=0.8)
        out = propagate(spec, random_density(rng, dim), 1.9)
        np.testing.assert_array_equal(out, out.conj().T)

    def test_output_is_the_unrepaired_hermitian_part(self):
        # levels {0, 0.01, 0.6, 1} in a random basis at the 1e-14 horizon:
        # the raw output's trace is 1 - 2.53e-11, which comes back as it is
        # (a renormalised trace once moved the state by 6.8e-12)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        h = (q * np.array([0.0, 0.01, 0.6, 1.0])) @ q.conj().T
        spec = GeneratorSpec(drive=0.5 * (h + h.conj().T), tau_c=1.0)
        rho = random_density(rng, 4)
        t = convergence_time(eigendecompose(spec.drive), 1.0, 1e-14)
        raw = devectorize(_kernels.expm(build_generator(spec) * t) @ vectorize(rho))
        out = propagate(spec, rho, t)
        np.testing.assert_array_equal(out, 0.5 * (raw + raw.conj().T))
        assert np.trace(out).real == pytest.approx(1.0 - 2.53e-11, abs=1e-13)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4]),
           tau_c=st.floats(0.0, 3.0), t=st.floats(0.0, 5.0))
    def test_output_is_always_physical(self, seed, dim, tau_c, t):
        rng = np.random.default_rng(seed)
        spec = GeneratorSpec(drive=random_hermitian(rng, dim), tau_c=tau_c)
        out = propagate(spec, random_density(rng, dim), t)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out - out.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(out)[0] >= -1e-9


class TestPropagateStacks:
    """Stacked specs, states and times give what per-sample calls give."""

    @staticmethod
    def instances(seed, dim, n):
        rng = np.random.default_rng(seed)
        specs = [GeneratorSpec(
            drive=random_hermitian(rng, dim), tau_c=float(rng.uniform(0.0, 2.0)),
            extra_dissipators=((random_hermitian(rng, dim), 0.3),) if i % 2 else (),
        ) for i in range(n)]
        states = np.array([random_density(rng, dim) for _ in range(n)])
        return specs, states, rng.uniform(0.0, 30.0, size=n)

    @pytest.mark.parametrize("dim, n", [(6, 7), (4, 17)])
    def test_specs_states_and_times_across_batches(self, dim, n):
        assert liouville._BATCH_BYTES // (16 * dim ** 4) < n  # more than one batch
        specs, states, times = self.instances(dim, dim, n)
        times[1] = 0.0
        out = propagate(specs, states, times)
        assert out.shape == states.shape
        np.testing.assert_array_equal(
            out, [propagate(*args) for args in zip(specs, states, times)])

    def test_one_spec_equals_repeated_single_calls(self):
        specs, states, times = self.instances(40, 6, 5)
        spec = specs[1]
        np.testing.assert_array_equal(
            propagate(spec, states, 2.5), [propagate(spec, rho, 2.5) for rho in states])
        np.testing.assert_array_equal(
            propagate(spec, states, times),
            [propagate(spec, rho, t) for rho, t in zip(states, times)])
        np.testing.assert_array_equal(
            propagate(specs, states[0], 2.5), [propagate(s, states[0], 2.5) for s in specs])

    def test_names_the_first_failing_sample(self):
        specs, states, times = self.instances(41, 3, 6)
        times[3] = np.nan
        times[5] = -1.0
        with pytest.raises(ValidationError, match="got nan in sample 3$"):
            propagate(specs, states, times)
        states[4] = np.eye(3)
        with pytest.raises(ValidationError, match="in sample 4"):
            propagate(specs[0], states, 1.0)

    def test_names_an_overflowing_sample_by_its_batch(self):
        # at d = 6 a batch holds 3 generators: sample 4 is the second of the second
        spec = GeneratorSpec(drive=np.diag([0.0, 1.0, 2.0, 3.0, 4.0, 100.0]), tau_c=1e200)
        times = np.array([1.0, 2.0, 3.0, 4.0, 1e200])
        with pytest.raises(ValidationError,
                           match="1-norm inf in sample 1 of the batch that starts at sample 3"):
            propagate(spec, maximally_mixed(6), times)

    def test_names_a_bad_drive_by_its_batch(self):
        # at d = 6 a batch holds 3 generators: spec 4 is in the second
        specs, states, times = self.instances(43, 6, 5)
        drive = specs[4].drive.copy()
        drive[0, 1] += 1e-3
        specs[4] = GeneratorSpec(drive=drive, tau_c=specs[4].tau_c)
        with pytest.raises(NonHermitianError,
                           match="defect 1.000e-03 exceeds 1.000e-10 of the batch that "
                                 "starts at sample 3$"):
            propagate(specs, states, times)

    def test_rejects_mismatched_counts_and_dimensions(self):
        specs, states, times = self.instances(42, 2, 4)
        for args in ((specs, states[:3], 1.0), (specs[0], states, times[:3]),
                     (specs, states, times[:, None]),
                     (specs + [GeneratorSpec(drive=np.eye(3))], states[0], 1.0), ([], states, 1.0)):
            with pytest.raises(DimensionMismatchError):
                propagate(*args)

    def test_refuses_an_oversized_generator_before_allocating(self):
        # a d = 128 generator would take 4.3 GB
        spec = GeneratorSpec(drive=np.diag(np.arange(128.0)), tau_c=1.0)
        rho = maximally_mixed(128)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="4294967296 bytes.*Gaussian average"):
                propagate(spec, rho, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_admits_a_d_32_generator(self):
        # d = 32 is under the limit (the call is refused later, for its state)
        spec = GeneratorSpec(drive=np.diag(np.arange(32.0)))
        with pytest.raises(ValidationError, match="state dim 2"):
            propagate(spec, maximally_mixed(2), 1.0)
        assert 16 * 32 ** 4 <= _kernels._MAX_ARRAY_BYTES < 16 * 64 ** 4


class TestChoiMatrix:
    def test_identity_map(self):
        choi = choi_matrix(np.eye(9, dtype=np.complex128))
        # the Choi state of the identity map: rank one, trace d
        np.testing.assert_allclose(np.trace(choi).real, 3.0, atol=1e-14)
        evals = np.linalg.eigvalsh(choi)
        np.testing.assert_allclose(evals[:-1], 0.0, atol=1e-14)
        assert evals[-1] == pytest.approx(3.0, abs=1e-14)

    def test_unitary_conjugation_is_completely_positive(self):
        h = random_hermitian(np.random.default_rng(9), 3)
        u = matrix_exponential(-1j * h, 1.0)
        superop = np.kron(u.conj(), u)
        evals = np.linalg.eigvalsh(choi_matrix(superop))
        assert evals[0] >= -1e-12
        assert np.trace(choi_matrix(superop)).real == pytest.approx(3.0, abs=1e-12)

    def test_transpose_map_is_not_completely_positive(self):
        d = 2
        superop = np.zeros((4, 4), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                superop[i * d + j, j * d + i] = 1.0
        assert np.linalg.eigvalsh(choi_matrix(superop))[0] < -0.5

    def test_rejects_non_square_superoperator_dimension(self):
        with pytest.raises(ValidationError):
            choi_matrix(np.eye(5))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_equals_per_matrix_calls(self, d):
        parts = np.random.default_rng(d).standard_normal((2, 4, d * d, d * d))
        stack = parts[0] + 1j * parts[1]
        np.testing.assert_array_equal(choi_matrix(stack), [choi_matrix(p) for p in stack])
