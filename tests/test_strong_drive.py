"""The paper's premise: the drive must be much stronger than the environment.

A qubit driven by ``omega1 * sigma_y / 2`` with ``tau_c = 1`` meets one
more channel, ``gamma [sigma_z, [sigma_z, rho]]``, and is propagated to the
horizon t* at which the drive has shrunk every coherence by 1e-14,
t* = ln(1e14) / (tau_c omega1^2).  Its trace distance from the Born mixture
is then linear in gamma t*, so it scales as gamma ln(1e14) / (tau_c
omega1^2), and it vanishes with gamma.
"""

import numpy as np
import pytest

from frqme import (
    SIGMA_Y,
    GeneratorSpec,
    born_predict,
    convergence_time,
    eigendecompose,
    propagate,
    pure_density,
    qubit_state,
    trace_distance,
)
from helpers import SIGMA_Z

RHO0 = pure_density(qubit_state(np.pi / 2.0, np.pi / 4.0))


def _distance_from_born(gamma, omega1=1.0):
    """Trace distance from the Born mixture at the 1e-14 horizon, and that horizon."""
    drive = 0.5 * omega1 * SIGMA_Y
    spectrum = eigendecompose(drive)
    horizon = convergence_time(spectrum, 1.0, 1e-14)
    spec = GeneratorSpec(drive=drive, tau_c=1.0, extra_dissipators=((SIGMA_Z, gamma),))
    rho_t = propagate(spec, RHO0, horizon)
    return trace_distance(rho_t, born_predict(spectrum, RHO0).post_state), horizon


def _spread(values):
    # relative spread of positive values: 0 when they are all equal
    return max(values) / min(values) - 1.0


def test_distance_is_linear_in_the_competing_rate():
    ratios = []
    for gamma in (1e-8, 1e-7, 1e-6, 1e-5):
        distance, horizon = _distance_from_born(gamma)
        ratios.append(distance / (gamma * horizon))
    assert _spread(ratios) <= 1e-2, ratios


def test_distance_falls_as_the_square_of_the_drive():
    products = [_distance_from_born(1e-6, omega1)[0] * omega1**2
                for omega1 in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert _spread(products) <= 1e-3, products


@pytest.mark.parametrize("omega1", [0.5, 1.0, 8.0])
def test_without_a_competing_channel_the_born_mixture_is_reached(omega1):
    distance, _ = _distance_from_born(0.0, omega1)
    assert distance <= 1e-8
