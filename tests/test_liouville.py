import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    GeneratorSpec,
    NonHermitianError,
    SIGMA_Y,
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
from frqme import liouville
from frqme.liouville import _final_state, _gaussian_average, _gaussian_grid, _span_bound
from helpers import SIGMA_X, maximally_mixed, random_density, random_hermitian


def drive_with_levels(rng, levels):
    """Hermitian drive with the given eigenvalues in a random basis."""
    dim = len(levels)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (q * np.asarray(levels, dtype=np.float64)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@contextlib.contextmanager
def liouville_refused():
    def refuse(*args, **kwargs):
        raise AssertionError("Liouville exponential used for a Gaussian-average endpoint")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liouville, "build_generator", refuse)
        yield


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

    def test_real_input_stays_float64(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((6, 6))
        out = matrix_exponential(m, 0.7)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, matrix_exponential(m.astype(np.complex128), 0.7),
                                   rtol=0, atol=1e-13)

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

    @pytest.mark.parametrize("t", [0.3, 25.0])
    @pytest.mark.parametrize("extras", [0, 2])
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_matches_complex_liouville_exponential(self, dim, extras, t):
        # the complex matrix-unit propagator is the oracle; random extra
        # dissipators do not commute with the drive
        rng = np.random.default_rng(100 * dim + extras)
        spec = GeneratorSpec(
            drive=random_hermitian(rng, dim), tau_c=0.4,
            extra_dissipators=tuple((random_hermitian(rng, dim), 0.3) for _ in range(extras)),
        )
        rho = random_density(rng, dim)
        oracle = devectorize(matrix_exponential(build_generator(spec), t) @ vectorize(rho))
        assert np.abs(propagate(spec, rho, t) - oracle).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_output_is_exactly_hermitian(self, dim):
        rng = np.random.default_rng(30 + dim)
        spec = GeneratorSpec(drive=random_hermitian(rng, dim), tau_c=0.8)
        out = propagate(spec, random_density(rng, dim), 1.9)
        np.testing.assert_array_equal(out, out.conj().T)

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


class TestGaussianAverage:
    """The Milburn form of exp(t L) rho as a trapezoid rule over evolution times."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4, 6]),
           tau_c=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    def test_matches_closed_form_and_liouville_exponential(self, seed, dim, tau_c, frac):
        # gaps of at least 0.5, and t up to 1.5x the 1e-14 decay horizon of
        # the smallest one, but with span * t <= 2e3, where all three
        # evaluations agree to roundoff (they all lose digits as span * t grows)
        rng = np.random.default_rng(seed)
        levels = np.cumsum(rng.uniform(0.5, 1.5, dim))
        h = drive_with_levels(rng, levels - levels.mean())
        rho = random_density(rng, dim)
        spectrum = eigendecompose(h)
        span = _span_bound(h)
        assert span >= np.ptp(spectrum.eigenvalues) - 1e-12
        t = frac * min(1.5 * convergence_time(spectrum, tau_c, 1e-14), 2e3 / span)
        out = _gaussian_average(h, rho, t, _gaussian_grid(h, tau_c, t))
        np.testing.assert_array_equal(out, out.conj().T)
        spec = GeneratorSpec(drive=h, tau_c=tau_c)
        oracle = devectorize(matrix_exponential(build_generator(spec), t) @ vectorize(rho))
        assert np.abs(out - analytic_evolve(spectrum, rho, tau_c, t)).max() <= 1e-12
        assert np.abs(out - oracle).max() <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 4, 6, 16]),
           frac=st.floats(1e-3, 1.0), t=st.floats(1e-3, 1.0))
    def test_wide_average_matches_closed_form(self, seed, dim, frac, t):
        # sigma far beyond t, up to the widest average the size rule admits
        # (m = d^2), where a giant step left off unitary puts 3e-12 of norm
        # drift into the populations at d = 16
        rng = np.random.default_rng(seed)
        h, rho = random_hermitian(rng, dim), random_density(rng, dim)
        sigma = frac * (dim ** 4 - 26) / 2.75 / _span_bound(h)
        tau_c = sigma ** 2 / (2.0 * t)
        assert _gaussian_grid(h, tau_c, t)[3] <= dim * dim
        with liouville_refused():
            out = _final_state(GeneratorSpec(drive=h, tau_c=tau_c), rho, t)
        expected = analytic_evolve(eigendecompose(h), rho, tau_c, t)
        assert np.abs(out - expected).max() <= 1e-12

    def test_wide_average_at_d64_matches_closed_form(self):
        # span * sigma = 6.1e5, so m = 1295, where steps left off unitary
        # put 3.8e-12 of norm drift into the populations
        rng = np.random.default_rng(0)
        h, rho = random_hermitian(rng, 64), random_density(rng, 64)
        tau_c = 0.5 * (6.12e5 / _span_bound(h)) ** 2
        assert _gaussian_grid(h, tau_c, 1.0)[3] == 1295
        with liouville_refused():
            out = _final_state(GeneratorSpec(drive=h, tau_c=tau_c), rho, 1.0)
        expected = analytic_evolve(eigendecompose(h), rho, tau_c, 1.0)
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("tau_c, t", [(0.0, 3.7), (1.5, 0.0), (0.0, 0.0)])
    def test_zero_width_is_plain_conjugation(self, tau_c, t):
        rng = np.random.default_rng(4)
        h, rho = random_hermitian(rng, 3), random_density(rng, 3)
        assert _gaussian_grid(h, tau_c, t)[2:] == (0, 1)
        u = matrix_exponential(-1j * h, t)
        out = _gaussian_average(h, rho, t, _gaussian_grid(h, tau_c, t))
        assert np.abs(out - u @ rho @ u.conj().T).max() <= 1e-13
        np.testing.assert_array_equal(out, out.conj().T)

    @pytest.mark.parametrize("h, tau_c, t", [
        (2.5 * np.eye(3), 1e308, 1e308),
        (np.diag([0.0, 0.5, 2.0]), 2.2250738585072014e-308, 5e-324),
    ], ids=["width_overflows", "width_underflows"])
    def test_extreme_widths_leave_the_state_unchanged(self, h, tau_c, t):
        rho = random_density(np.random.default_rng(9), 3)
        out = _final_state(GeneratorSpec(drive=h, tau_c=tau_c), rho, t)
        assert np.abs(out - rho).max() <= 1e-15

    @pytest.mark.parametrize("basis", ["diagonal", "rotated"])
    @pytest.mark.parametrize("levels, t, rotated_tol", [
        ([0.0, 1.0, 100.0], 1e3, 1e-8),
        ([-1.0, -0.5, 0.2, 0.201, 0.9, 1.4, 2.0, 2.6], 3.2e7, 2e-7),
    ], ids=["stiff", "near_degenerate"])
    def test_stiff_and_long_horizon_take_the_liouville_path(self, monkeypatch, basis,
                                                             levels, t, rotated_tol):
        # span * sigma is so wide that the average would need more than d^2
        # baby steps.  The exponential matches the closed form exactly for
        # a diagonal drive; in a rotated basis its 20-odd squarings amplify
        # roundoff, to 0.4-2.2e-9 (stiff) and 0.7-5.3e-8 (near-degenerate)
        # over seeds 0-7: the fallback's accuracy pinned here.
        rng = np.random.default_rng(7)
        if basis == "diagonal":
            h, tol = np.diag(levels).astype(np.complex128), 1e-12
        else:
            h, tol = drive_with_levels(rng, levels), rotated_tol
        rho = random_density(rng, len(levels))
        assert _gaussian_grid(h, 1.0, t)[3] > len(levels) ** 2

        def refuse(*args):
            raise AssertionError("Gaussian average used past its size limit")

        monkeypatch.setattr(liouville, "_gaussian_average", refuse)
        out = _final_state(GeneratorSpec(drive=h, tau_c=1.0), rho, t)
        expected = analytic_evolve(eigendecompose(h), rho, 1.0, t)
        assert np.abs(out - expected).max() <= tol

    def test_extra_dissipators_take_the_liouville_path(self):
        rng = np.random.default_rng(12)
        spec = GeneratorSpec(drive=random_hermitian(rng, 3), tau_c=0.5,
                             extra_dissipators=((random_hermitian(rng, 3), 0.4),))
        rho = random_density(rng, 3)
        oracle = devectorize(matrix_exponential(build_generator(spec), 2.0) @ vectorize(rho))
        assert np.abs(_final_state(spec, rho, 2.0) - oracle).max() <= 1e-12


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
