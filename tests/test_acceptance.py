"""End-to-end acceptance run.

Each test drives one check from the built-in verification suite and prints a
single pass/fail line, so ``pytest tests/test_acceptance.py -s`` doubles as a
human-readable report.  The first four checks also carry runtime budgets.
"""

import pytest

from frqme import scenarios
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
