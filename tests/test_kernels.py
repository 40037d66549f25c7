import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from frqme import ValidationError, _kernels


def random_complex(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 16, 36])
def test_expm_matches_scipy(dim):
    rng = np.random.default_rng(dim)
    a = random_complex(rng, dim)
    expected = scipy.linalg.expm(a)
    np.testing.assert_allclose(_kernels.expm(a), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 50.0, 200.0])
def test_expm_matches_scipy_across_norms(scale):
    # scaling-and-squaring must stay accurate from tiny to heavily squared inputs
    rng = np.random.default_rng(7)
    a = random_complex(rng, 5, scale)
    expected = scipy.linalg.expm(a)
    tolerance = 1e-12 * max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(_kernels.expm(a), expected, rtol=1e-11, atol=tolerance)


def test_expm_zero_matrix_is_identity():
    np.testing.assert_array_equal(
        _kernels.expm(np.zeros((3, 3), dtype=np.complex128)),
        np.eye(3, dtype=np.complex128),
    )


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_expm_rejects_non_finite_norm(entry):
    # no number of halvings brings an infinite norm under the cutoff
    a = np.zeros((2, 2), dtype=np.complex128)
    a[0, 0] = entry
    with pytest.raises(ValidationError, match="1-norm"):
        _kernels.expm(a)


def test_expm_overflowing_squarings_raise():
    # a finite 1-norm of 1e300 takes 998 squarings, which roundoff drives
    # to overflow
    a = np.array([[0.0, 1e300], [-1e300, 0.0]])
    with pytest.raises(ValidationError, match="overflowed in 998 squarings"):
        _kernels.expm(a)


def test_expm_diagonal():
    d = np.diag(np.array([0.3 - 2.0j, -1.0 + 0.4j, 5.0]))
    np.testing.assert_allclose(
        _kernels.expm(d), np.diag(np.exp(np.diagonal(d))), rtol=1e-14, atol=1e-14
    )


def test_expm_accepts_non_contiguous_float_input():
    base = np.arange(32, dtype=np.float64).reshape(8, 4) / 40.0
    view = base[::2]
    np.testing.assert_allclose(
        _kernels.expm(view), scipy.linalg.expm(view.astype(np.complex128)),
        rtol=1e-13, atol=1e-13,
    )


@pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0])
def test_expm_real_input_gives_complex128(scale):
    rng = np.random.default_rng(13)
    a = scale * rng.standard_normal((7, 7))
    out = _kernels.expm(a)
    assert out.dtype == np.complex128
    expected = scipy.linalg.expm(a)
    tolerance = 1e-12 * max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(out, expected, rtol=1e-11, atol=tolerance)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 6))
def test_expm_inverse_property(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim)
    product = _kernels.expm(a) @ _kernels.expm(-a)
    np.testing.assert_allclose(product, np.eye(dim), rtol=0, atol=1e-11)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 5))
def test_expm_doubling_property(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim)
    np.testing.assert_allclose(
        _kernels.expm(2.0 * a), _kernels.expm(a) @ _kernels.expm(a),
        rtol=1e-10, atol=1e-10,
    )


def test_propagate_grid_matches_matrix_powers():
    rng = np.random.default_rng(11)
    step = random_complex(rng, 4, 0.5)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    grid = _kernels.propagate_grid(step, v0, 6)
    assert grid.shape == (7, 4)
    for k in range(7):
        np.testing.assert_allclose(
            grid[k], np.linalg.matrix_power(step, k) @ v0, rtol=1e-12, atol=1e-12
        )


def test_propagate_grid_zero_steps_returns_initial_row():
    v0 = np.array([1.0, 2.0j, -3.0])
    grid = _kernels.propagate_grid(np.eye(3, dtype=np.complex128), v0, 0)
    assert grid.shape == (1, 3)
    np.testing.assert_array_equal(grid[0], v0.astype(np.complex128))


def test_evolve_coefficients_matches_direct_formula():
    rng = np.random.default_rng(3)
    a0 = random_complex(rng, 5)
    eigenvalues = np.sort(rng.standard_normal(5))
    tau_c, t = 0.7, 2.3
    gaps = eigenvalues[:, None] - eigenvalues[None, :]
    expected = a0 * np.exp((-1j * gaps - tau_c * gaps * gaps) * t)
    np.testing.assert_allclose(
        _kernels.evolve_coefficients(a0, eigenvalues, tau_c, t),
        expected, rtol=1e-14, atol=1e-14,
    )

    # an (n, 1, 1) time array gives the (n, d, d) stack of per-time results
    times = np.array([0.0, 0.4, t, 11.0])
    stack = _kernels.evolve_coefficients(a0, eigenvalues, tau_c, times[:, None, None])
    assert stack.shape == (4, 5, 5)
    for k, tk in enumerate(times):
        np.testing.assert_array_equal(
            stack[k], _kernels.evolve_coefficients(a0, eigenvalues, tau_c, tk)
        )


def test_evolve_coefficients_diagonal_is_invariant():
    rng = np.random.default_rng(4)
    a0 = random_complex(rng, 6)
    eigenvalues = np.linspace(-2.0, 2.0, 6)
    out = _kernels.evolve_coefficients(a0, eigenvalues, 3.0, 100.0)
    np.testing.assert_allclose(np.diagonal(out), np.diagonal(a0), rtol=0, atol=1e-15)
