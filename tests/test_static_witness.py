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
engine's pole search or principal-value routine.

With W(L, gamma, k) this closed form, a static detector (gamma = 1) of
gap g at height dz has

    P = [e^{-g^2} - sqrt(pi) g erfc(g)]/(4 pi) - W(2 dz, 1, g)/(4 pi^1.5),

a static pair of gaps g_a, g_b at heights dz and dz + sep has

    C = e^{-(g_b - g_a)^2/4}/(4 pi^1.5) [W(sep) - W(sep + 2 dz)]

at k = (g_a + g_b)/2, and I follows from the eigenvalues of the block
[[P_B, C], [C, P_A]], here taken from numpy's symmetric eigensolver.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import wofz

from udwmi.correlation import (PairConfig, _line_params,
                               _reduced_line_integral, correlation_equal,
                               correlation_general_result)
from udwmi.infomeasure import (PerturbativeRegimeWarning,
                               mutual_information_point)
from udwmi.kinematics import detector_from_accel_radius
from udwmi.response import (transition_probability,
                            transition_probability_oracle_result)


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


def static_response(gap, dz):
    """P of a static detector, without the mirror for dz = None."""
    inertial = (math.exp(-gap * gap)
                - math.sqrt(math.pi) * gap * math.erfc(gap)) / (4.0 * math.pi)
    if dz is None:
        return inertial
    return inertial - static_line_integral(2.0 * dz, 1.0, gap) / (
        4.0 * math.pi ** 1.5)


def static_correlation(gap_a, gap_b, sep, dz):
    """C of a static pair, without the mirror for dz = None."""
    k = 0.5 * (gap_a + gap_b)
    pref = math.exp(-0.25 * (gap_b - gap_a) ** 2) / (4.0 * math.pi ** 1.5)
    image = 0.0 if dz is None else static_line_integral(sep + 2.0 * dz,
                                                        1.0, k)
    return pref * (static_line_integral(sep, 1.0, k) - image)


def eigen_mutual_information(p_a, p_b, c):
    def xlogx(x):
        return x * math.log(x) if x > 0.0 else 0.0

    lam = np.linalg.eigvalsh(np.array([[p_b, c], [c, p_a]]))
    return sum(xlogx(float(x)) for x in lam) - xlogx(p_a) - xlogx(p_b)


TOL = 1e-12
SEPS = (0.1, 1.0, 5.0, 20.0)


@pytest.mark.parametrize("dz", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("ratio", [1.0, 1.5])
@pytest.mark.parametrize("gap", [0.01, 0.1, 1.0, 3.0])
def test_static_pair_matches_closed_form(gap, ratio, dz):
    # P, C and I of a static pair at tol 1e-12, each within its own
    # error estimate; sep 20 puts C's lines and P_B's image line on the
    # far-pole branch
    det_a = detector_from_accel_radius(gap, 0.0, 1.0)
    det_b = detector_from_accel_radius(ratio * gap, 0.0, 1.0)
    far = 0
    for sep in SEPS:
        pair = PairConfig(det_a=det_a, det_b=det_b, sep=sep, dz=dz)
        resp_a = transition_probability(det_a, dz, TOL)
        resp_b = transition_probability(det_b, dz + sep, TOL)
        corr = correlation_equal(pair, TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbativeRegimeWarning)
            point = mutual_information_point(pair, TOL)
        p_a, p_b = static_response(gap, dz), static_response(ratio * gap,
                                                              dz + sep)
        c = static_correlation(gap, ratio * gap, sep, dz)
        for value, exact, err in (
                (resp_a.total, p_a, resp_a.abs_error_estimate),
                (resp_b.total, p_b, resp_b.abs_error_estimate),
                (corr.c_total.real, c, corr.abs_error_estimate),
                (point.mutual_info, eigen_mutual_information(p_a, p_b, c),
                 point.abs_error_estimate)):
            assert abs(value - exact) <= err + 1e-13, (sep, value, exact)
        assert corr.c_total.imag == 0.0
        far += bool(resp_b.notes)
    assert far >= 1


# the definition-level oracle takes a static detector too: its error
# estimate must cover its distance from the closed form, for P and for
# C, equal and detuned, with and without the mirror
@pytest.mark.parametrize("gap, dz", [(0.1, 0.1), (1.0, 0.5), (3.0, 2.0),
                                     (0.5, None)])
def test_response_oracle_error_covers_closed_form(gap, dz):
    det = detector_from_accel_radius(gap, 0.0, 1.0)
    est = transition_probability_oracle_result(det, dz)
    assert abs(est.value - static_response(gap, dz)) <= est.error_estimate


@pytest.mark.parametrize("gap_a, gap_b, sep, dz", [
    (0.1, 0.1, 0.1, 0.1), (1.0, 1.5, 1.0, 0.5), (0.1, 0.3, 3.0, None),
    (3.0, 3.0, 1.0, None)])
def test_correlation_oracle_error_covers_closed_form(gap_a, gap_b, sep, dz):
    pair = PairConfig(det_a=detector_from_accel_radius(gap_a, 0.0, 1.0),
                      det_b=detector_from_accel_radius(gap_b, 0.0, 1.0),
                      sep=sep, dz=dz)
    est = correlation_general_result(pair)
    exact = static_correlation(gap_a, gap_b, sep, dz)
    assert abs(est.value - exact) <= est.error_estimate
