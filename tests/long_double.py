"""Long-double references for the float64 kernels of the oracles.

The defining formulas evaluated in np.longdouble (np.clongdouble for
complex values) from the same float64 inputs, taken as exact, so that
the float64 kernel's own roundoff can be measured against them:

* needs_long_double skips a test where long double is no wider than
  float64 (its eps not below 1e-18).
* worst_error(got, exact) is max |got - exact| over max |exact|.
* events, wightman and oracle_rows are the orbit's event at complex
  proper time, the unregulated Wightman function of two such events,
  and the rows of an oracle pass, each from the definition; the rows
  integrate over the mean proper time u on a grid of their own, U and
  U_WEIGHTS.
"""

import numpy as np
import pytest

from udwmi.correlation import _U_CUT

needs_long_double = pytest.mark.skipif(
    not np.finfo(np.longdouble).eps < 1e-18,
    reason="np.longdouble is no wider than float64 here")

LD, CLD = np.longdouble, np.clongdouble

# The trapezoid rule of step 0.1 on [-_U_CUT, _U_CUT], in long double.
# On exp(-u^2 - i d u) its aliasing error is about exp(-(2 pi / 0.1 -
# d)^2 / 4), nothing for any gap difference d below 50, and the
# truncation below exp(-_U_CUT^2) = e^{-42.25}.
U = np.arange(-65, 66, dtype=LD) * (LD(_U_CUT) / 65)
U_WEIGHTS = np.full(U.size, LD(_U_CUT) / 65)


def worst_error(got, exact) -> float:
    """The largest |got - exact| over the largest |exact|."""
    exact = np.asarray(exact)
    return float(np.max(np.abs(np.asarray(got, dtype=exact.dtype) - exact))
                 / np.max(np.abs(exact)))


def events(spec, tau):
    """(t, x, y) of the orbit at complex proper times tau: gamma tau,
    R cos(omega gamma tau), R sin(omega gamma tau), omega gamma formed
    in float64 as the orbit forms it."""
    tau = np.asarray(tau, dtype=CLD)
    phase = LD(spec.omega * spec.gamma) * tau
    radius = LD(spec.radius)
    return LD(spec.gamma) * tau, radius * np.cos(phase), radius * np.sin(phase)


def wightman(det_a, z_a, tau_a, det_b, z_b, tau_b, mirror):
    """The unregulated Wightman function between det_a at height z_a at
    proper times tau_a and det_b at z_b at tau_b, minus the image term
    when mirror."""
    (t_a, x_a, y_a), (t_b, x_b, y_b) = events(det_a, tau_a), events(det_b, tau_b)
    q = (t_a - t_b) ** 2 - (x_a - x_b) ** 2 - (y_a - y_b) ** 2
    two_pi_sq = 4 * LD("3.14159265358979323846264338327950288") ** 2
    w = -1 / (two_pi_sq * (q - (LD(z_a) - LD(z_b)) ** 2))
    if mirror:
        w += 1 / (two_pi_sq * (q - (LD(z_a) + LD(z_b)) ** 2))
    return w


def oracle_rows(det_a, det_b, z_a, z_b, mirror, eta, s):
    """The rows at real s of the oracle pass between det_a at z_a and
    det_b at z_b on the contour shifted by eta, from the definition:
    the Wightman function of the events at u + c and u - c at every
    node of the u grid. correlation._oracle_rows folds the rows at s
    and -s into one."""
    u, w = U, U_WEIGHTS
    gap_sum = LD(det_a.energy_gap) + LD(det_b.energy_gap)
    gap_diff = LD(det_a.energy_gap) - LD(det_b.energy_gap)
    ds = np.asarray(s, dtype=LD) - 1j * LD(eta)
    c = ds[:, None] / 2
    kernel = wightman(det_a, z_a, u + c, det_b, z_b, u - c, mirror)
    weights = w * np.exp(-u * u - 1j * gap_diff * u)
    return np.exp(-ds * ds / 4 - 1j * gap_sum * ds / 2) * (kernel @ weights)
