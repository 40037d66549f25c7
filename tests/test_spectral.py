import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    DEFAULT_TOLS,
    GeneratorSpec,
    NonHermitianError,
    SIGMA_Y,
    Spectrum,
    Tolerances,
    ValidationError,
    analytic_evolve,
    asymptotic_state,
    born_predict,
    compare_to_prediction,
    convergence_time,
    eigendecompose,
    from_eigenbasis,
    propagate,
    pure_density,
    qubit_state,
    to_eigenbasis,
    tensor_product,
)
from helpers import maximally_mixed, random_density, random_hermitian, random_pure_density


class TestEigendecompose:
    def test_reconstruction_and_ordering(self):
        h = random_hermitian(np.random.default_rng(0), 5)
        spectrum = eigendecompose(h)
        assert np.all(np.diff(spectrum.eigenvalues) >= 0)
        v = spectrum.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-13)
        np.testing.assert_allclose(
            (v * spectrum.eigenvalues) @ v.conj().T, h, atol=1e-13
        )

    def test_distinct_eigenvalues_make_singleton_groups(self):
        spectrum = eigendecompose(np.diag([0.0, 1.0, 3.0]))
        assert spectrum.groups == ((0,), (1,), (2,))

    def test_exact_degeneracy_is_grouped(self):
        spectrum = eigendecompose(np.diag([1.0, -1.0, 1.0]))
        assert spectrum.groups == ((0,), (1, 2))
        assert spectrum.group_eigenvalues[0] == -1.0
        assert spectrum.group_eigenvalues[1] == 1.0

    def test_near_degeneracy_within_threshold_is_grouped(self):
        split = 1e-13
        spectrum = eigendecompose(np.diag([0.0, split, 1.0]))
        assert spectrum.groups == ((0, 1), (2,))

    def test_gap_above_threshold_stays_split(self):
        spectrum = eigendecompose(np.diag([0.0, 1e-6, 1.0]))
        assert spectrum.groups == ((0,), (1,), (2,))

    def test_threshold_scales_with_spectral_span(self):
        # the same absolute splitting is degenerate next to a huge span
        split = 1e-7
        wide = eigendecompose(np.diag([0.0, split, 1e3]), Tolerances(degeneracy=1e-9))
        assert wide.groups[0] == (0, 1)

    def test_projectors_resolve_identity(self):
        h = np.diag([2.0, 2.0, -1.0, 0.5])
        spectrum = eigendecompose(h)
        total = sum(spectrum.projectors)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-13)
        for p in spectrum.projectors:
            np.testing.assert_allclose(p @ p, p, atol=1e-13)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-14)

    def test_labels_number_the_groups(self):
        spectrum = eigendecompose(np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_array_equal(spectrum.labels, [0, 1, 1])

    def test_group_data_is_read_only(self):
        spectrum = eigendecompose(np.diag([1.0, -1.0, 1.0]))
        for a in (spectrum.labels, spectrum.group_eigenvalues, *spectrum.projectors):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("levels", [[1e308, 1e308], [1e308, -1e308]],
                             ids=["mean", "span"])
    def test_rejects_a_drive_whose_span_or_mean_overflows(self, levels):
        with pytest.raises(ValidationError, match="span or mean of the drive overflows"):
            eigendecompose(np.diag(levels))

    def test_single_qubit_drive_structure(self):
        spectrum = eigendecompose(0.5 * SIGMA_Y)
        np.testing.assert_allclose(spectrum.eigenvalues, [-0.5, 0.5], atol=1e-15)
        upper = spectrum.projectors[1]
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        np.testing.assert_allclose(upper, expected, atol=1e-14)

    def test_driven_first_qubit_is_doubly_degenerate(self):
        drive = 0.5 * tensor_product(SIGMA_Y, np.eye(2))
        spectrum = eigendecompose(drive)
        np.testing.assert_allclose(spectrum.eigenvalues, [-0.5, -0.5, 0.5, 0.5],
                                   atol=1e-12)
        assert spectrum.groups == ((0, 1), (2, 3))


def _mixed_drive_stack(rng, d):
    """Distinct-level, degenerate and one-group drives of dimension d, in turn."""
    stack = []
    for j in range(9):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        if j % 3 == 0:
            stack.append(random_hermitian(rng, d))
        elif j % 3 == 1:  # level -1 taken d // 2 + 1 times, then level 2
            stack.append((q * np.where(np.arange(d) < d // 2 + 1, -1.0, 2.0)) @ q.conj().T)
        else:
            stack.append(0.3 * np.eye(d) + 0j)
    return np.array(stack)


class TestStackedEigendecompose:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_each_sample_is_the_single_call(self, d):
        stack = _mixed_drive_stack(np.random.default_rng(d), d)
        spectra = eigendecompose(stack)
        assert isinstance(spectra, tuple) and len(spectra) == len(stack)
        counts = set()
        for h, stacked in zip(stack, spectra):
            single = eigendecompose(h)
            assert isinstance(stacked, Spectrum)
            assert stacked.groups == single.groups
            counts.add(len(single.groups))
            for field in ("eigenvalues", "eigenvectors", "labels", "group_eigenvalues",
                          "projectors"):
                a, b = getattr(stacked, field), getattr(single, field)
                assert a.shape == b.shape and a.dtype == b.dtype
                assert np.array_equal(a, b), field
                assert a.flags.writeable == b.flags.writeable, field
        # the stack mixes group counts, so its projectors are padded for some samples
        assert len(counts) == min(d, 3)

    def test_non_hermitian_sample_is_named(self):
        stack = _mixed_drive_stack(np.random.default_rng(0), 3)
        stack[2, 0, 1] += 1e-3
        with pytest.raises(NonHermitianError, match="in sample 2"):
            eigendecompose(stack)

    def test_overflowing_sample_is_named(self):
        stack = np.array([np.diag([0.0, 1.0]), np.diag([1e308, -1e308]), np.diag([1e308, 1e308])])
        with pytest.raises(ValidationError, match="overflows the float range in sample 1"):
            eigendecompose(stack)


# Gaps straddling the default clustering threshold (about 1e-9 to 1e-8 here).
_GAPS = st.sampled_from([0.0, 1e-13, 4e-10, 9e-10, 2e-8, 1e-6, 0.3, 1.0])


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), gaps=st.lists(_GAPS, max_size=7))
def test_grouping_partitions_the_spectrum(seed, gaps):
    rng = np.random.default_rng(seed)
    levels = np.concatenate(([0.0], np.cumsum(gaps)))
    g = rng.standard_normal((levels.size,) * 2) + 1j * rng.standard_normal((levels.size,) * 2)
    q, _ = np.linalg.qr(g)
    spectrum = eigendecompose((q * levels) @ q.conj().T, DEFAULT_TOLS)
    ev, labels = spectrum.eigenvalues, spectrum.labels

    # single linkage on the computed eigenvalues
    threshold = DEFAULT_TOLS.degeneracy_threshold(ev)
    np.testing.assert_array_equal(np.diff(labels) == 0, np.diff(ev) <= threshold)
    assert labels.dtype == np.intp
    assert labels[0] == 0 and set(np.diff(labels).tolist()) <= {0, 1}
    runs = tuple(tuple(np.flatnonzero(labels == k).tolist()) for k in range(labels[-1] + 1))
    assert spectrum.groups == runs
    for k, members in enumerate(spectrum.groups):
        assert spectrum.group_eigenvalues[k] == np.mean(ev[list(members)])
    np.testing.assert_allclose(sum(spectrum.projectors), np.eye(ev.size), atol=1e-12)
    for p in spectrum.projectors:
        np.testing.assert_allclose(p @ p, p, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**31 - 1), low=st.floats(-2.0, -1.0),
       gaps=st.lists(st.floats(0.05, 1.0), max_size=3),
       multiplicities=st.lists(st.integers(1, 3), min_size=4, max_size=4),
       exponents=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7))
def test_grouping_is_invariant_under_drive_rescaling(seed, low, gaps, multiplicities,
                                                     exponents):
    # Exactly degenerate levels in [-2, 2] with distinct gaps >= 0.05.  The
    # scale stays within 1e-3..1e3: the threshold degeneracy * (span + 1)
    # keeps an absolute floor of 1e-9, which merges distinct levels once
    # s * gap nears it (s near 2e-8 here).
    levels = np.concatenate(([low], low + np.cumsum(gaps)))
    diagonal = np.repeat(levels, multiplicities[:levels.size])
    g = np.random.default_rng(seed).standard_normal((2, diagonal.size, diagonal.size))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    h = (q * diagonal) @ q.conj().T
    groups = eigendecompose(h).groups
    bounds = np.cumsum([0, *multiplicities[:levels.size]])
    assert groups == tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    for e in exponents:
        assert eigendecompose(10.0 ** e * h).groups == groups


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**31 - 1),
       multiplicities=st.lists(st.integers(1, 4), min_size=1, max_size=8),
       pure=st.booleans())
def test_projector_stack_matches_the_per_group_products(seed, multiplicities, pure):
    # forced degeneracies: level k repeated multiplicities[k] times, d <= 8
    rng = np.random.default_rng(seed)
    diagonal = np.repeat(np.arange(len(multiplicities), dtype=float), multiplicities)[:8]
    d = diagonal.size
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spectrum = eigendecompose((q * diagonal) @ q.conj().T)
    rho = (random_pure_density if pure else random_density)(rng, d)
    v, p = spectrum.eigenvectors, spectrum.projectors
    assert isinstance(p, np.ndarray) and p.shape == (len(spectrum.groups), d, d)
    assert not p.flags.writeable
    for k, members in enumerate(spectrum.groups):
        columns = v[:, list(members)]
        np.testing.assert_allclose(p[k], columns @ columns.conj().T, rtol=0, atol=1e-15)
    np.testing.assert_allclose(spectrum.dephase(rho), sum(pk @ rho @ pk for pk in p),
                               rtol=0, atol=1e-15)
    prediction = born_predict(spectrum, rho)
    assert prediction.projectors is spectrum.projectors
    traces = np.array([np.trace(pk @ rho).real for pk in p])
    weights = [row[1] for row in compare_to_prediction(rho, prediction).probability_table]
    np.testing.assert_allclose(weights, traces, rtol=0, atol=1e-15)
    # born_predict clips the weights to [0, 1] and renormalises them
    clipped = np.clip(traces, 0.0, 1.0)
    np.testing.assert_allclose(prediction.probabilities, clipped / clipped.sum(),
                               rtol=0, atol=1e-15)


def test_chained_sub_threshold_ladder_is_one_group():
    # single linkage merges a ladder whose span is ~47 thresholds wide
    tol = Tolerances(degeneracy=1e-3)
    levels = 5e-4 * np.arange(100)
    threshold = tol.degeneracy_threshold(levels)
    assert levels[-1] > 40 * threshold
    spectrum = eigendecompose(np.diag(levels), tol)
    assert spectrum.groups == (tuple(range(100)),)
    np.testing.assert_array_equal(spectrum.labels, np.zeros(100))
    assert spectrum.group_eigenvalues[0] == np.mean(levels)
    np.testing.assert_allclose(spectrum.projectors[0], np.eye(100), atol=1e-15)


class TestBasisChange:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        spectrum = eigendecompose(random_hermitian(rng, 4))
        rho = random_density(rng, 4)
        np.testing.assert_allclose(
            from_eigenbasis(spectrum, to_eigenbasis(spectrum, rho)), rho, atol=1e-13
        )

    def test_drive_is_diagonal_in_its_eigenbasis(self):
        h = random_hermitian(np.random.default_rng(2), 4)
        spectrum = eigendecompose(h)
        coeffs = to_eigenbasis(spectrum, h)
        np.testing.assert_allclose(coeffs, np.diag(spectrum.eigenvalues), atol=1e-13)


class TestAnalyticEvolve:
    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        spectrum = eigendecompose(h)
        np.testing.assert_allclose(analytic_evolve(spectrum, rho, 1.0, 0.0), rho,
                                   atol=1e-14)

    def test_matches_numeric_propagation(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 4, 6):
            h = random_hermitian(rng, dim)
            rho = random_density(rng, dim)
            spectrum = eigendecompose(h)
            for tau_c, t in ((0.0, 1.3), (0.4, 0.7), (2.0, 3.1)):
                closed = analytic_evolve(spectrum, rho, tau_c, t)
                numeric = propagate(GeneratorSpec(drive=h, tau_c=tau_c), rho, t)
                np.testing.assert_allclose(closed, numeric, atol=1e-11)

    def test_diagonal_entries_never_move(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        spectrum = eigendecompose(h)
        before = np.diagonal(to_eigenbasis(spectrum, rho))
        after = np.diagonal(to_eigenbasis(spectrum, analytic_evolve(spectrum, rho, 0.9, 7.0)))
        np.testing.assert_allclose(after, before, atol=1e-13)

    def test_rejects_bad_arguments(self):
        spectrum = eigendecompose(0.5 * SIGMA_Y)
        rho = maximally_mixed(2)
        with pytest.raises(ValidationError):
            analytic_evolve(spectrum, rho, -0.1, 1.0)
        with pytest.raises(ValidationError):
            analytic_evolve(spectrum, rho, 1.0, -1.0)
        with pytest.raises(ValidationError):
            analytic_evolve(spectrum, maximally_mixed(3), 1.0, 1.0)

    @pytest.mark.parametrize("tau_c", [0.0, 1.0])
    def test_rejects_overflowing_phases(self, tau_c):
        # (l - mean l) * t = 5e309 is past the float range; RuntimeWarnings
        # are errors in this suite, so one that escaped would fail the match
        with pytest.raises(ValidationError, match="solution overflows at time 1e[+]300$"):
            analytic_evolve(eigendecompose(np.diag([0.0, 1e10])), np.full((2, 2), 0.5),
                            tau_c, 1e300)

    def test_time_zero_keeps_the_state_with_an_infinite_decay_exponent(self):
        # tau_c * gap^2 = 1e320 is inf, and inf * 0 would be nan
        rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        out = analytic_evolve(eigendecompose(np.diag([0.0, 1e10])), rho, 1e300, 0.0)
        np.testing.assert_array_equal(out, rho)

    def test_decay_past_overflow_is_exactly_zero(self):
        # tau_c * gap^2 * t = 1e310 overflows, and the coherence is gone
        rho = np.full((2, 2), 0.5)
        out = analytic_evolve(eigendecompose(np.diag([0.0, 1.0])), rho, 1e300, 1e10)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("argument", ["tau_c", "t"])
    def test_rejects_non_finite_arguments(self, argument, value):
        args = {"tau_c": 1.0, "t": 1.0, argument: value}
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            analytic_evolve(eigendecompose(0.5 * SIGMA_Y), maximally_mixed(2), **args)


class TestSpectrumStateMethods:
    def test_dephase_zeroes_cross_group_blocks_only(self):
        rng = np.random.default_rng(12)
        spectrum = eigendecompose(np.diag([2.0, -1.0, 2.0, 0.5]))
        rho = random_density(rng, 4)
        before = to_eigenbasis(spectrum, rho)
        after = to_eigenbasis(spectrum, spectrum.dephase(rho))
        labels = spectrum.labels
        same_group = labels[:, None] == labels[None, :]
        np.testing.assert_allclose(after[same_group], before[same_group], atol=1e-13)
        np.testing.assert_allclose(after[~same_group], 0.0, atol=1e-13)

    def test_dephase_is_idempotent_and_matches_asymptotic_state(self):
        rng = np.random.default_rng(13)
        spectrum = eigendecompose(random_hermitian(rng, 5))
        rho = random_density(rng, 5)
        once = spectrum.dephase(rho)
        np.testing.assert_allclose(spectrum.dephase(once), once, atol=1e-13)
        np.testing.assert_array_equal(asymptotic_state(spectrum, rho), once)

    def test_validate_state_returns_complex_matrix(self):
        spectrum = eigendecompose(np.diag([0.0, 1.0]))
        rho = spectrum.validate_state([[0.25, 0.0], [0.0, 0.75]])
        assert rho.dtype == np.complex128
        np.testing.assert_array_equal(rho, np.diag([0.25, 0.75]))

    def test_validate_state_rejects_wrong_dimension_and_invalid_state(self):
        spectrum = eigendecompose(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError):
            spectrum.validate_state(maximally_mixed(3))
        with pytest.raises(ValidationError):
            spectrum.validate_state(np.diag([0.5, 0.6]))


class TestAsymptoticState:
    def test_is_projection_sum_fixed_point(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        spectrum = eigendecompose(h)
        limit = asymptotic_state(spectrum, rho)
        np.testing.assert_allclose(asymptotic_state(spectrum, limit), limit, atol=1e-13)
        assert np.trace(limit).real == pytest.approx(1.0, abs=1e-13)

    def test_fully_degenerate_drive_changes_nothing(self):
        rho = random_density(np.random.default_rng(7), 3)
        spectrum = eigendecompose(np.eye(3))
        np.testing.assert_allclose(asymptotic_state(spectrum, rho), rho, atol=0)

    def test_nondegenerate_drive_keeps_only_diagonal(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        spectrum = eigendecompose(h)
        coeffs = to_eigenbasis(spectrum, asymptotic_state(spectrum, rho))
        off_diagonal = coeffs - np.diag(np.diagonal(coeffs))
        np.testing.assert_allclose(off_diagonal, 0.0, atol=1e-13)

    def test_degenerate_drive_keeps_intra_group_coherence(self):
        h = np.diag([1.0, 1.0, -1.0])
        rho = np.full((3, 3), 1.0 / 3.0, dtype=np.complex128)
        spectrum = eigendecompose(h)
        limit = asymptotic_state(spectrum, rho)
        assert abs(limit[0, 1]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(limit[0, 2], 0.0, atol=1e-12)


class TestConvergenceTime:
    def test_formula(self):
        spectrum = eigendecompose(np.diag([0.0, 0.5]))
        t = convergence_time(spectrum, 2.0, 1e-6)
        assert t == pytest.approx(-math.log(1e-6) / (2.0 * 0.25), rel=1e-12)

    def test_smallest_adjacent_gap_dominates(self):
        spectrum = eigendecompose(np.diag([0.0, 0.1, 5.0]))
        t = convergence_time(spectrum, 1.0, 1e-8)
        assert t == pytest.approx(-math.log(1e-8) / 0.01, rel=1e-12)

    def test_unbounded_cases(self):
        assert convergence_time(eigendecompose(np.eye(3)), 1.0, 1e-10) == math.inf
        assert convergence_time(eigendecompose(np.diag([0.0, 1.0])), 0.0, 1e-10) == math.inf

    def test_eps_validation(self):
        spectrum = eigendecompose(np.diag([0.0, 1.0]))
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                convergence_time(spectrum, 1.0, eps)

    @pytest.mark.parametrize("tau_c", [-0.5, np.inf, np.nan])
    def test_rejects_a_bad_tau_c(self, tau_c):
        with pytest.raises(ValidationError, match="tau_c must be finite and >= 0"):
            convergence_time(eigendecompose(np.diag([0.0, 1.0])), tau_c, 1e-10)

    def test_actually_converges_to_that_factor(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        spectrum = eigendecompose(h)
        eps = 1e-6
        t = convergence_time(spectrum, 0.8, eps)
        coeffs0 = to_eigenbasis(spectrum, rho)
        coeffs = to_eigenbasis(spectrum, analytic_evolve(spectrum, rho, 0.8, t))
        labels = spectrum.labels
        cross = labels[:, None] != labels[None, :]
        bound = eps * float(np.abs(coeffs0[cross]).max())
        assert float(np.abs(coeffs[cross]).max()) <= bound * (1.0 + 1e-9)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4, 6]),
       tau_c=st.floats(0.05, 5.0))
def test_long_time_evolution_reaches_projection_sum(seed, dim, tau_c):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    rho = random_density(rng, dim)
    spectrum = eigendecompose(h)
    t = convergence_time(spectrum, tau_c, 1e-13)
    evolved = analytic_evolve(spectrum, rho, tau_c, t)
    np.testing.assert_allclose(evolved, asymptotic_state(spectrum, rho), atol=1e-10)


def test_pure_state_bloch_angles_reach_known_limit():
    theta, phi = 1.1, 2.4
    rho = pure_density(qubit_state(theta, phi))
    spectrum = eigendecompose(0.5 * SIGMA_Y)
    s = math.sin(theta) * math.sin(phi)
    expected = 0.5 * np.array([[1.0, -1j * s], [1j * s, 1.0]])
    np.testing.assert_allclose(asymptotic_state(spectrum, rho), expected, atol=1e-13)
