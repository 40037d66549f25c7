import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    GeneratorSpec,
    NonHermitianError,
    SIGMA_X,
    SIGMA_Y,
    ValidationError,
    build_generator,
    choi_matrix,
    commutator_superop,
    devectorize,
    double_commutator_superop,
    matrix_exponential,
    maximally_mixed,
    propagate,
    pure_density,
    qubit_state,
    vectorize,
)
from helpers import random_density, random_hermitian


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

    def test_rejects_non_hermitian_drive(self):
        with pytest.raises(NonHermitianError):
            GeneratorSpec(drive=np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_drive(self, bad):
        drive = SIGMA_Y.copy()
        drive[0, 1] = bad
        with pytest.raises(NonHermitianError):
            GeneratorSpec(drive=drive)
        with pytest.raises(NonHermitianError):
            GeneratorSpec(drive=np.full((2, 2), bad))

    def test_rejects_mismatched_dissipator(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(drive=SIGMA_Y, tau_c=1.0,
                          extra_dissipators=((np.eye(3), 0.5),))

    def test_rejects_negative_strength(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(drive=SIGMA_Y, tau_c=1.0,
                          extra_dissipators=((SIGMA_X, -0.5),))

    def test_dim(self):
        assert GeneratorSpec(drive=np.eye(3), tau_c=0.0).dim == 3


class TestBuildGenerator:
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

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValidationError):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            matrix_exponential(np.eye(2), np.inf)

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
