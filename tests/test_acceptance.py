"""End-to-end acceptance run.

Each test drives one check from the built-in verification suite and prints a
single pass/fail line, so ``pytest tests/test_acceptance.py -s`` doubles as a
human-readable report.  The first four checks also carry runtime budgets.
The tests after them break one piece of the package at a time and see only
the checks that read it fail, and pin the suite's table of limits and its
pass rule.
"""

import dataclasses
import math

import numpy as np
import pytest

from frqme import GeneratorSpec, Spectrum, born, scenarios, verify
from frqme.verify import run_checks


@pytest.fixture(scope="module")
def report():
    results = run_checks()
    assert len(results) == 9
    return {result.name: result for result in results}


def _assert_check(report, name, budget=None):
    result = report[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{name}: {status}  {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    if budget is not None:
        assert result.elapsed < budget, (
            f"{name} took {result.elapsed:.3f}s, budget {budget}s"
        )


def test_single_qubit_asymptotic_matches_closed_form(report):
    _assert_check(report, "single_qubit_asymptotic", budget=1.0)


def test_single_qubit_finite_pulse_matches_eigenbasis_solution(report):
    _assert_check(report, "single_qubit_finite_pulse", budget=1.0)


def test_two_qubit_pulse_matches_limit_and_oracle(report):
    _assert_check(report, "two_qubit_pulse_oracles", budget=1.0)


def test_random_generators_reach_born_mixture(report):
    _assert_check(report, "born_equivalence_random", budget=30.0)


def test_born_probability_formulas(report):
    _assert_check(report, "born_probability_formulas")


def test_channels_are_completely_positive_and_trace_preserving(report):
    _assert_check(report, "complete_positivity")


def test_structural_identities_hold(report):
    _assert_check(report, "structural_identities")


def test_decay_is_monotonic_with_predicted_rate(report):
    _assert_check(report, "dissipative_decay")


def test_repeated_pulse_is_fixed_point(report):
    _assert_check(report, "repeated_pulse_fixed_point")


def test_broken_gaussian_average_fails_dissipative_decay(monkeypatch):
    # an endpoint path that returns the initial state unchanged is caught,
    # and only by the check that reads the scenario endpoint
    monkeypatch.setattr(scenarios, "gaussian_average", lambda h, tau_c, rho, t: rho)
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["dissipative_decay"]
    assert failed[0].kind == "comparison"
    print(f"dissipative_decay with a broken average: FAIL  {failed[0].detail}")


def test_broken_liouville_oracle_fails_every_check_it_feeds(monkeypatch):
    # a propagate that returns its input states, one per spec as the real one
    # does, is caught by each check that compares a propagated state with a
    # limit or a closed form; the rescaling and fixed-point checks compare
    # propagated states only with each other, and they still pass
    def unchanged(spec, rho0, t, tol):
        if isinstance(spec, GeneratorSpec):
            return rho0
        return np.broadcast_to(rho0, (len(spec),) + np.shape(rho0)[-2:])

    monkeypatch.setattr(verify, "propagate", unchanged)
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == [
        "single_qubit_asymptotic", "single_qubit_finite_pulse",
        "two_qubit_pulse_oracles", "born_equivalence_random"]
    assert {result.kind for result in failed} == {"comparison"}


def test_broken_dephasing_fails_born_equivalence(monkeypatch):
    # a post-state that keeps the cross-group coefficients is caught by the
    # check that compares it with the projector sum
    monkeypatch.setattr(Spectrum, "dephase", lambda self, rho: rho)
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["born_equivalence_random"]
    assert failed[0].kind == "comparison"


def test_misplaced_stacked_spectra_fail_born_equivalence(monkeypatch):
    # a stacked decomposition that hands each drive another drive's spectrum
    # is caught where the propagated state meets the projector sum and the
    # prediction; single calls are left as they are
    eigendecompose = verify.eigendecompose

    def reversed_stack(h, tol):
        spectra = eigendecompose(h, tol)
        return spectra[::-1] if np.ndim(h) == 3 else spectra

    monkeypatch.setattr(verify, "eigendecompose", reversed_stack)
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["born_equivalence_random"]
    assert failed[0].kind == "comparison"
    print(f"born_equivalence_random with misplaced spectra: FAIL  {failed[0].detail}")


def test_reversed_weights_fail_born_probability_formulas(monkeypatch):
    # outcome weights assigned to the wrong groups are caught by the closed
    # form of the single-qubit probabilities
    weights = born._weights
    monkeypatch.setattr(born, "_weights", lambda projectors, rho: weights(projectors, rho)[::-1])
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["born_probability_formulas"]
    assert failed[0].kind == "comparison"


def test_negated_choi_matrices_fail_complete_positivity(monkeypatch):
    # the smallest Choi eigenvalue is judged by its lower bound
    choi_matrix = verify.choi_matrix
    monkeypatch.setattr(verify, "choi_matrix", lambda props: -choi_matrix(props))
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["complete_positivity"]
    assert failed[0].kind == "comparison"


def test_scaled_double_commutator_fails_structural_identities(monkeypatch):
    # a superoperator 1e-4 too large is caught against the squared commutator
    # built from its action; the generator builds its own and is unaffected
    superop = verify.double_commutator_superop
    monkeypatch.setattr(verify, "double_commutator_superop",
                        lambda h, tol: 1.0001 * superop(h, tol))
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["structural_identities"]
    assert failed[0].kind == "comparison"


def test_doubled_coherence_rate_fails_dissipative_decay(monkeypatch):
    # squaring the coherence column doubles its log-slope to about -2, while
    # the purity column and the endpoint are left as they are
    scenario = verify.single_qubit_scenario

    def squared_coherence(*args, **kwargs):
        result = scenario(*args, **kwargs)
        series = result.time_series.copy()
        series[:, 2] **= 2
        return dataclasses.replace(result, time_series=series)

    monkeypatch.setattr(verify, "single_qubit_scenario", squared_coherence)
    failed = [result for result in run_checks() if not result.passed]
    assert [result.name for result in failed] == ["dissipative_decay"]
    assert failed[0].kind == "comparison"
    assert "log-slope -2.0" in failed[0].detail


# every limit of the suite and the direction it bounds in, as the table must hold them
LIMITS = {
    "single_qubit_asymptotic": {"error": ("upper", 1e-9)},
    "single_qubit_finite_pulse": {"numeric": ("upper", 1e-9), "closed": ("upper", 1e-9)},
    "two_qubit_pulse_oracles": {"late": ("upper", 1e-8), "finite": ("upper", 1e-9),
                                "closed": ("upper", 1e-9)},
    "born_equivalence_random": {"sum": ("upper", 1e-10), "state": ("upper", 1e-8)},
    "born_probability_formulas": {"single": ("upper", 1e-12), "pair": ("upper", 1e-12)},
    "complete_positivity": {"choi": ("lower", -1e-9), "trace": ("upper", 1e-10)},
    "structural_identities": {"commutator": ("upper", 1e-12), "semigroup": ("upper", 1e-10),
                              "rescaling": ("upper", 1e-10)},
    "dissipative_decay": {"rise": ("upper", 1e-12), "slope": ("about -1", 0.01),
                          "endpoint": ("upper", 1e-10)},
    "repeated_pulse_fixed_point": {"moved": ("upper", 1e-9)},
}


def test_the_table_holds_every_limit_unchanged():
    # a limit that moves, in either direction, or changes its direction fails here
    table = {name: limits for name, _, limits, _ in verify.CHECKS}
    assert table == LIMITS
    assert sum(len(limits) for limits in table.values()) == 19


@pytest.mark.parametrize("direction, limit, inside, outside", [
    ("upper", 1e-9, 1e-9, np.nextafter(1e-9, 1.0)),
    ("lower", -1e-9, -1e-9, np.nextafter(-1e-9, -1.0)),
    ("about -1", 0.25, -0.75, np.nextafter(-0.75, 0.0)),
    ("about -1", 0.25, -1.25, np.nextafter(-1.25, -2.0)),
])
def test_pass_rule_is_inclusive_and_fails_values_that_are_not_finite(
        direction, limit, inside, outside):
    assert verify._within(inside, direction, limit)
    assert not verify._within(outside, direction, limit)
    for value in (math.nan, math.inf, -math.inf):
        assert not verify._within(value, direction, limit)
        assert not verify._within(np.float64(value), direction, limit)


def test_superop_from_action_matches_the_column_stacking_formula():
    # vec(A rho B) = (B^T kron A) vec(rho); each entry is one complex product
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    np.testing.assert_allclose(verify._superop_from_action(lambda m: a @ m @ b, 3),
                               np.kron(b.T, a), rtol=1e-15, atol=1e-15)
