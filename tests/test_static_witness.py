"""A static detector's reduced line integral against its closed form.

For a static orbit (omega = 0) the reduced line integral of module
correlation is the distributional integral of
exp(-s^2/(4 gamma^2) + i k s)/(L^2 - s^2) over the real line. With
a = L/(2 gamma) and kappa = 2 gamma k its principal value is
Re[(F+ + F-)/2]/L, where

    F+ = -i pi exp(-kappa^2/4) w(a - i kappa/2),
    F- = +i pi exp(-kappa^2/4) w(-a + i kappa/2),

w is the Faddeeva function (scipy.special.wofz), which keeps the form
free of overflow at large L, and the half-residue pair adds
-pi exp(-L^2/(4 gamma^2)) sin(k L)/L. The form shares no code with the
engine's pole search, principal-value routine or far-pole branch.
"""

import math

import pytest
from scipy.special import wofz

from udwmi.correlation import _line_params, _reduced_line_integral
from udwmi.kinematics import detector_from_accel_radius


def static_line_integral(L, gamma, k):
    a, kappa = L / (2.0 * gamma), 2.0 * gamma * k
    damp = math.pi * math.exp(-0.25 * kappa * kappa)
    f_plus = -1j * damp * wofz(a - 0.5j * kappa)
    f_minus = 1j * damp * wofz(-a + 0.5j * kappa)
    return (0.5 * (f_plus + f_minus).real / L
            - math.pi * math.exp(-L * L / (4.0 * gamma * gamma))
            * math.sin(k * L) / L)


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("gap", [0.01, 0.1, 1.0, 3.0])
def test_reduced_line_integral_matches_closed_form(gap, tol):
    det = detector_from_accel_radius(gap, 0.0, 1.0)
    _, params = _line_params(det, det, tol)
    s_env, k = params[4], params[3]
    lengths = (0.05, 0.2, 1.0, 3.0, 7.0, 12.0, 20.0, 50.0, 100.0, 200.0)
    # the far-pole branch takes L beyond s_env + 2
    assert lengths[0] < s_env + 2.0 < lengths[-1]
    for L in lengths:
        line = _reduced_line_integral(L, *params)
        assert line.far_pole == (L > s_env + 2.0)
        exact = static_line_integral(L, det.gamma, k)
        assert abs(line.value - exact) <= line.abs_error_estimate + 1e-13, L
