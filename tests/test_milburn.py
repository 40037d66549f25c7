import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import (
    GeneratorSpec,
    ValidationError,
    analytic_evolve,
    build_generator,
    convergence_time,
    devectorize,
    eigendecompose,
    matrix_exponential,
    vectorize,
)
from frqme.milburn import _GAUSS_MAX_STEPS, _gaussian_grid, _span_bound, gaussian_average
from helpers import random_density, random_hermitian


def drive_with_levels(rng, levels):
    """Hermitian drive with the given eigenvalues in a random basis."""
    dim = len(levels)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (q * np.asarray(levels, dtype=np.float64)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


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
        out = gaussian_average(h, tau_c, rho, t)
        np.testing.assert_array_equal(out, out.conj().T)
        spec = GeneratorSpec(drive=h, tau_c=tau_c)
        oracle = devectorize(matrix_exponential(build_generator(spec), t) @ vectorize(rho))
        assert np.abs(out - analytic_evolve(spectrum, rho, tau_c, t)).max() <= 1e-12
        assert np.abs(out - oracle).max() <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 4, 6, 16]),
           frac=st.floats(1e-3, 1.0), t=st.floats(1e-3, 1.0))
    def test_wide_average_matches_closed_form(self, seed, dim, frac, t):
        # sigma far beyond t, up to m = d^2 baby steps, where a giant step
        # left off unitary puts 3e-12 of norm drift into the populations at
        # d = 16
        rng = np.random.default_rng(seed)
        h, rho = random_hermitian(rng, dim), random_density(rng, dim)
        sigma = frac * (dim ** 4 - 26) / 2.75 / _span_bound(h)
        tau_c = sigma ** 2 / (2.0 * t)
        assert _gaussian_grid(h, tau_c, t)[3] <= dim * dim
        out = gaussian_average(h, tau_c, rho, t)
        expected = analytic_evolve(eigendecompose(h), rho, tau_c, t)
        assert np.abs(out - expected).max() <= 1e-12

    def test_wide_average_at_d64_matches_closed_form(self):
        # span * sigma = 6.1e5, so m = 1295, where steps left off unitary
        # put 3.8e-12 of norm drift into the populations
        rng = np.random.default_rng(0)
        h, rho = random_hermitian(rng, 64), random_density(rng, 64)
        tau_c = 0.5 * (6.12e5 / _span_bound(h)) ** 2
        assert _gaussian_grid(h, tau_c, 1.0)[3] == 1295
        out = gaussian_average(h, tau_c, rho, 1.0)
        expected = analytic_evolve(eigendecompose(h), rho, tau_c, 1.0)
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("tau_c, t", [(0.0, 3.7), (1.5, 0.0), (0.0, 0.0)])
    def test_zero_width_is_plain_conjugation(self, tau_c, t):
        rng = np.random.default_rng(4)
        h, rho = random_hermitian(rng, 3), random_density(rng, 3)
        assert _gaussian_grid(h, tau_c, t)[2:] == (0, 1)
        u = matrix_exponential(-1j * h, t)
        out = gaussian_average(h, tau_c, rho, t)
        assert np.abs(out - u @ rho @ u.conj().T).max() <= 1e-13
        np.testing.assert_array_equal(out, out.conj().T)

    @pytest.mark.parametrize("h, tau_c, t", [
        (2.5 * np.eye(3), 1e308, 1e308),
        (np.diag([0.0, 0.5, 2.0]), 2.2250738585072014e-308, 5e-324),
    ], ids=["width_overflows", "width_underflows"])
    def test_extreme_widths_leave_the_state_unchanged(self, h, tau_c, t):
        rho = random_density(np.random.default_rng(9), 3)
        out = gaussian_average(h, tau_c, rho, t)
        assert np.abs(out - rho).max() <= 1e-15

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(3, 8),
           stiff=st.booleans(), rotated=st.booleans(),
           scale=st.floats(0.0, 1.0), tau_c=st.floats(0.1, 3.0),
           factor=st.floats(1.0, 3.0))
    def test_stiff_and_near_degenerate_drives_match_closed_form(
            self, seed, dim, stiff, rotated, scale, tau_c, factor):
        # Gaps of 0.5-1.5 with one gap replaced: by 30-1000 (stiff) or by
        # 1e-3-1e-2 (near-degenerate), and t from 1x to 3x the 1e-14 decay
        # horizon of the smallest gap, up to 1e9.  Worst of 1500 draws
        # 2.3e-13, in both bases.  The d^2 x d^2 exponential is no oracle
        # here: in 300 draws, propagate matched the closed form to 1.1e-16
        # on all 137 diagonal drives, but refused 139 of 163 rotated ones
        # (trace or hermiticity defect past tolerance) and was up to
        # 1.5e-10 off on the rest.
        rng = np.random.default_rng(seed)
        gaps = rng.uniform(0.5, 1.5, dim - 1)
        gaps[rng.integers(dim - 1)] = 30.0 * 33.4 ** scale if stiff else 1e-3 * 10.0 ** scale
        levels = np.concatenate(([0.0], np.cumsum(gaps)))
        h = drive_with_levels(rng, levels) if rotated else np.diag(levels).astype(np.complex128)
        rho = random_density(rng, dim)
        spectrum = eigendecompose(h)
        t = factor * convergence_time(spectrum, tau_c, 1e-14)
        out = gaussian_average(h, tau_c, rho, t)
        np.testing.assert_array_equal(out, out.conj().T)
        assert np.abs(out - analytic_evolve(spectrum, rho, tau_c, t)).max() <= 1e-12

    def test_width_past_the_limit_is_refused(self):
        # levels 0 and 1, so m = isqrt(2K) + 1 with K = ceil(8.6 (sigma + 8.6) / 2 pi)
        h, rho = np.diag([0.0, 1.0]).astype(np.complex128), np.eye(2) / 2
        tau_c = 0.5 * (2.0 * np.pi * (_GAUSS_MAX_STEPS ** 2 / 2 + 1) / 8.6) ** 2
        assert _gaussian_grid(h, tau_c, 1.0)[3] == _GAUSS_MAX_STEPS + 1
        with pytest.raises(ValidationError, match=(
                f"needs {_GAUSS_MAX_STEPS + 1} baby steps, more than its limit "
                f"_GAUSS_MAX_STEPS = {_GAUSS_MAX_STEPS}")):
            gaussian_average(h, tau_c, rho, 1.0)
        with pytest.raises(ValidationError, match="needs inf baby steps"):
            gaussian_average(h, 1e308, rho, 1e308)
