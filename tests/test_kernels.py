import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frqme import (
    GeneratorSpec,
    ValidationError,
    _kernels,
    build_generator,
    validate_density_matrix,
)
from helpers import random_hermitian, random_pure_density


def random_complex(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def horner_expm(a):
    """Reference: the same scaling and squaring around a Horner-evaluated
    Taylor core, 20 d x d products plus one per squaring."""
    a = np.asarray(a, dtype=np.complex128)
    norm = np.abs(a).sum(axis=0).max()
    squarings = 0
    while norm > _kernels.NORM_CUTOFF:
        norm *= 0.5
        squarings += 1
    b = a * (0.5 ** squarings)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    r = eye.copy()
    for k in range(_kernels.TAYLOR_TERMS, 0, -1):
        r = eye + (b @ r) / k
    for _ in range(squarings):
        r = r @ r
    return r


def unitarity_defect(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


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


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 8),
       log_norm=st.floats(-8.0, 3.0), generator=st.booleans())
@example(seed=1, dim=3, log_norm=-0.3, generator=True)
@example(seed=2, dim=8, log_norm=0.0, generator=False)
def test_expm_matches_horner_reference(seed, dim, log_norm, generator):
    # dissipative inputs, i H - G G^H, or a Liouville generator times t, at
    # 1-norms from 1e-8 to 1e3; measured worst 2 eps * max(1, norm) over
    # 3000 draws
    rng = np.random.default_rng(seed)
    if generator:
        spec = GeneratorSpec(drive=random_hermitian(rng, 2 + dim % 2), tau_c=rng.uniform(0.0, 2.0))
        a = build_generator(spec)
    else:
        g = random_complex(rng, dim)
        a = 1j * random_hermitian(rng, dim) - rng.uniform(0.0, 1.0) * (g @ g.conj().T)
    norm = 10.0 ** log_norm
    a *= norm / np.abs(a).sum(axis=0).max()
    tolerance = 16 * np.finfo(np.float64).eps * max(1.0, norm)
    assert np.abs(_kernels.expm(a) - horner_expm(a)).max() <= tolerance


def test_expm_reaches_every_taylor_term():
    # exp(c N) for the 21 x 21 shift matrix N holds c^k / k! on its k-th
    # superdiagonal, so each of the 21 Taylor terms lands in its own entry
    c = _kernels.NORM_CUTOFF
    out = _kernels.expm(c * np.eye(21, k=1))
    expected = [c ** k / math.factorial(k) for k in range(21)]
    np.testing.assert_allclose(out[0], expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim", [2, 4, 9, 16])
def test_expm_keeps_anti_hermitian_inputs_unitary(dim):
    # the sizes the self-checks exponentiate, at 1-norms where the Taylor
    # core alone runs; no worse than the Horner reference on the same draws
    rng = np.random.default_rng(dim)
    draws = [1j * random_hermitian(rng, dim) for _ in range(300)]
    draws = [a * (rng.uniform(0.05, 0.5) / np.abs(a).sum(axis=0).max()) for a in draws]
    reference = max(unitarity_defect(horner_expm(a)) for a in draws)
    assert max(unitarity_defect(_kernels.expm(a)) for a in draws) <= reference


def halving_count(norm):
    squarings = 0
    while norm > _kernels.NORM_CUTOFF:
        norm *= 0.5
        squarings += 1
    return squarings


@pytest.mark.parametrize("norm", [
    0.0, 5e-324, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0, 1.5, np.nextafter(2.0**20, 0.0),
    2.0**20, np.nextafter(2.0**20, np.inf), 1e300, np.finfo(np.float64).max,
])
def test_squaring_count_equals_the_halving_loop(norm):
    assert _kernels._squarings(np.array([norm]))[0] == halving_count(norm)


@settings(deadline=None, max_examples=200)
@given(norm=st.floats(0.0, np.finfo(np.float64).max) | st.integers(-1074, 1023).map(
    lambda e: math.ldexp(1.0, e)))
def test_squaring_count_equals_the_halving_loop_everywhere(norm):
    assert _kernels._squarings(np.array([norm]))[0] == halving_count(norm)


def anti_hermitian_with_norm(rng, dim, norm):
    a = -1j * random_hermitian(rng, dim)
    return a * (norm / np.abs(a).sum(axis=0).max())


@pytest.mark.parametrize("norms", [
    (3.0, 0.0, 2.0**19 + 1.0, 0.5, 7.0, 1.0),  # 2, 0, 20, 0, 4 and 1 squarings
    (5.0, 5.0, 5.0),
])
@pytest.mark.parametrize("dim", [4, 9, 36])
def test_expm_stack_equals_per_sample_calls(dim, norms):
    rng = np.random.default_rng(dim)
    stack = np.array([anti_hermitian_with_norm(rng, dim, norm) for norm in norms])
    counts = _kernels._squarings(np.abs(stack).sum(axis=1).max(axis=1))
    assert len(norms) == 3 or (counts.min() == 0 and counts.max() >= 19)
    out = _kernels.expm(stack)
    assert out.shape == stack.shape and out.dtype == np.complex128
    np.testing.assert_array_equal(out, [_kernels.expm(a) for a in stack])


def test_expm_names_the_first_failing_sample():
    stack = np.zeros((5, 3, 3), dtype=np.complex128)
    stack[2, 0, 1] = np.nan
    stack[4, 1, 1] = np.inf
    with pytest.raises(ValidationError, match="1-norm nan in sample 2$"):
        _kernels.expm(stack)
    overflowing = np.zeros((3, 2, 2))
    overflowing[1] = [[0.0, 1e300], [-1e300, 0.0]]
    with pytest.raises(ValidationError, match="overflowed in 998 squarings in sample 1$"):
        _kernels.expm(overflowing)


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


@pytest.mark.parametrize("d, rows", [(1, 512), (64, 512), (65, 496), (128, 128),
                                     (400, 13), (1449, 1)])
def test_block_rows_caps_rows_then_bytes(d, rows):
    assert _kernels.block_rows(d) == rows
    assert rows == 1 or 16 * d * d * rows <= _kernels._MAX_ARRAY_BYTES


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


def test_evolve_coefficients_float_range_rules():
    # tau_c * 10^2 = 1e309 is inf: at t = 0 nothing has decayed, and from
    # t = 1e-300 on every cross-group coefficient is exactly gone; RuntimeWarnings
    # are errors in this suite, so one that escaped would fail the test
    a0 = random_complex(np.random.default_rng(5), 3)
    eigenvalues = np.array([0.0, 0.0, 10.0])
    times = np.array([0.0, 1e-300, 1.0])[:, None, None]
    stack = _kernels.evolve_coefficients(a0, eigenvalues, 1e307, times)
    np.testing.assert_array_equal(stack[0], a0)
    cross = eigenvalues[:, None] != eigenvalues[None, :]
    assert (stack[1:, cross] == 0.0).all()
    np.testing.assert_allclose(stack[1:, ~cross], np.broadcast_to(a0[~cross], (2, 5)),
                               rtol=1e-15, atol=0)
    # (10 - 10/3) * 1e308 overflows the phase; the message names the largest time
    with pytest.raises(ValidationError, match=r"solution overflows at time 1e\+308$"):
        _kernels.evolve_coefficients(a0, eigenvalues, 0.0, times * 1e308)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(3, 8), log_width=st.floats(6.0, 12.0))
@example(seed=0, dim=3, log_width=8.0)
def test_evolve_coefficients_keeps_a_pure_state_a_state(seed, dim, log_width):
    # nothing decays at tau_c = 0, so a pure state must stay a density
    # matrix however far the phases (l_i - l_j) t wind, up to span * t = 1e12
    rng = np.random.default_rng(seed)
    eigenvalues = np.sort(rng.standard_normal(dim))
    t = 10.0 ** log_width / (eigenvalues[-1] - eigenvalues[0])
    out = _kernels.evolve_coefficients(random_pure_density(rng, dim), eigenvalues, 0.0, t)
    validate_density_matrix(out)
    stack = _kernels.evolve_coefficients(random_pure_density(rng, dim), eigenvalues, 0.0,
                                         t * np.linspace(0.5, 1.0, 50)[:, None, None])
    validate_density_matrix(stack)
