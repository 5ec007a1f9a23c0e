"""Single-detector transition probability on a circular orbit above a mirror.

With a Gaussian switching window exp(-tau^2/2), unit coupling, and the
image-construction Wightman function, the response splits into four
pieces after reducing the double time integral to one over the proper
time difference and rescaling to x = gamma*omega*s/2:

* term_bounded: the direct rotating-frame part with its x = 0
  singularity subtracted, an everywhere-regular integrand.
* term_inertial: the exact subtracted piece, the response of an
  inertial detector with the same switching (closed form in erfc).
* term_pv: the principal value of the image part across its lightlike
  pole.
* term_pole: the half-residue contribution of that pole pair, picked up
  with a plus sign on both poles by the regulator.

total = term_bounded + term_pv + term_inertial + term_pole. Free space
keeps only the first and third: the detector's free-space response,
which does not depend on dz, so transition_probability accepts it as
free= and then adds only the image part. The image part is the image channel of
the pair correlation for the pair (detector, detector) at zero
separation: minus its prefactor times the folded line integral of
correlation._reduced_line_integral at L_eff = 2 dz, whose half-residue
sum is term_pole and whose principal value is term_pv. Its pole s0, in
coordinate time, is reported as pole_location = omega s0 / 2, the unique
positive root of x^2 - v^2 sin^2 x - (omega dz)^2.

A static detector (omega = v = 0) takes the same route: term_bounded
vanishes with v, so its direct part is the inertial one, and its image
line integral has D = (2 dz)^2 - s^2, whose pole is on the light cone
at s0 = 2 dz.

transition_probability_oracle_result integrates the defining double
integral (finite regulator epsilon on the fixed ladder DEFAULT_EPSILONS,
extrapolated to zero) without any of the above reductions; it is
deliberately independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfc

from .correlation import (OracleEstimate, _epsilon_ladder, _line_params,
                          _reduced_line_integral, composite_gauss_legendre,
                          wightman_boundary, wightman_free)
from .kinematics import CircularDetectorSpec, DomainError, trajectory_point
from .quadrature import (gaussian_truncation_point, integrate_adaptive,
                         integrate_semiinfinite_gaussian)
# not called here; bench/tests/test_bench.py asserts this binding exists
from .quadrature import principal_value_integral  # noqa: F401

__all__ = [
    "ResponseBreakdown",
    "inertial_response",
    "transition_probability",
    "transition_probability_oracle_result",
]


@dataclass(frozen=True)
class ResponseBreakdown:
    """Transition probability and its four constituents.

    Without a mirror it is the free-space response: term_pv and
    term_pole are 0.0, and abs_error_estimate and converged are those
    of term_bounded. A mirror breakdown adds the image terms' error and
    convergence to these. pole_location is the image-pole position in
    the scaled time variable, omega s0 / 2: None in free space, and 0.0
    for a static detector, whose pole sits at coordinate time s0 = 2 dz.
    notes flags non-fatal substitutions, e.g. the pole lying beyond the
    switching support."""

    term_bounded: float
    term_pv: float
    term_inertial: float
    term_pole: float
    total: float
    abs_error_estimate: float
    pole_location: float | None
    converged: bool
    notes: tuple[str, ...] = ()


def inertial_response(energy_gap: float) -> float:
    """Gaussian-switched transition probability of an inertial detector."""
    g = energy_gap
    return (math.exp(-g * g) - math.sqrt(math.pi) * g * erfc(g)) / (4.0 * math.pi)


def _bounded_kernel(x, v_sq: float):
    """(x^2 - sin^2 x) / (x^2 (x^2 - v^2 sin^2 x)) with a series patch
    below x = 0.01 where the numerator cancels catastrophically."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x < 1e-2
    xl = x[~small]
    s2 = np.sin(xl) ** 2
    out[~small] = (xl * xl - s2) / (xl * xl * (xl * xl - v_sq * s2))
    xs = x[small]
    x2 = xs * xs
    num = 1.0 / 3.0 - 2.0 * x2 / 45.0 + x2 * x2 / 315.0
    den = (1.0 - v_sq) + v_sq * x2 / 3.0 - 2.0 * v_sq * x2 * x2 / 45.0
    out[small] = num / den
    return out


def transition_probability(spec: CircularDetectorSpec,
                           dz: float | None = None,
                           tol: float = 1e-8,
                           free: ResponseBreakdown | None = None
                           ) -> ResponseBreakdown:
    """Four-term transition probability of a rotating or static detector;
    dz = None drops the mirror.

    tol is an absolute tolerance budget on the total, split evenly over
    the quadrature terms. free, when given, must be this detector's
    free-space breakdown at the same tol, transition_probability(spec,
    None, tol): its term_bounded, term_inertial, error and convergence
    are taken as they are, so a mirror call only adds the image line
    integral, and the result is bit-identical to a call without it.
    dz = None returns free itself."""
    if dz is not None and (not math.isfinite(dz) or dz <= 0.0):
        raise DomainError(f"dz must be positive and finite, got {dz}")
    if free is None:
        free = _free_response(spec, tol)
    if dz is None:
        return free

    # the image Wightman term of one detector is that of the pair
    # (spec, spec) at zero separation: C's image line integral at
    # L_eff = 2 dz, with the opposite sign
    pref, shared = _line_params(spec, spec, tol / 4.0)
    line = _reduced_line_integral(2.0 * dz, *shared)
    term_pole = 0.0 - pref * line.residues  # +0.0 on the far branch
    term_pv = -pref * (line.value - line.residues)
    err = free.abs_error_estimate + pref * line.abs_error_estimate
    notes = ()
    if line.far_pole:
        notes = ("image pole beyond switching support; "
                 "principal value evaluated as a regular integral",)

    total = free.term_bounded + term_pv + free.term_inertial + term_pole
    return ResponseBreakdown(
        term_bounded=float(free.term_bounded), term_pv=float(term_pv),
        term_inertial=float(free.term_inertial), term_pole=float(term_pole),
        total=float(total), abs_error_estimate=float(err),
        pole_location=0.5 * spec.omega * line.pole,
        converged=free.converged and line.converged, notes=notes)


def _free_response(spec: CircularDetectorSpec,
                   tol: float) -> ResponseBreakdown:
    """The free-space breakdown for a budget tol: the singularity-
    subtracted rotating term, to a quarter of tol, plus the inertial
    term."""
    om, gamma, v = spec.omega, spec.gamma, spec.speed
    v_sq = v * v
    gap = spec.energy_gap
    term_tol = tol / 4.0

    err = 0.0
    converged = True
    k_bounded = v_sq * gamma * om / (4.0 * math.pi ** 1.5)
    if v < 1e-12:
        # includes the static detector, where alpha and beta are undefined
        term_bounded = 0.0
    else:
        alpha = 1.0 / (gamma * om) ** 2
        beta = 2.0 * gap / (gamma * om)

        def f_bounded(x):
            return np.exp(-alpha * x * x) * np.cos(beta * x) * _bounded_kernel(x, v_sq)

        x_max = gaussian_truncation_point(alpha, term_tol / max(k_bounded, 1e-300))
        n0 = min(int(x_max * (abs(beta) + 2.0) / (2.0 * math.pi) * 3.5) + 8, 4096)
        res = integrate_semiinfinite_gaussian(
            f_bounded, alpha, term_tol / max(k_bounded, 1e-300),
            initial_panels=n0)
        term_bounded = k_bounded * res.value
        err = k_bounded * res.abs_error_estimate
        converged = res.converged

    term_inertial = inertial_response(gap)
    return ResponseBreakdown(
        term_bounded=term_bounded, term_pv=0.0, term_inertial=term_inertial,
        term_pole=0.0, total=term_bounded + term_inertial,
        abs_error_estimate=err, pole_location=None, converged=converged)


def _response_single_epsilon(spec: CircularDetectorSpec, dz: float | None,
                             eps: float, tol: float):
    """One finite-epsilon pass over the defining double integral in
    proper-time mean and difference coordinates."""
    gap, gamma = spec.energy_gap, spec.gamma
    z = dz if dz is not None else 0.0
    wight = wightman_free if dz is None else wightman_boundary

    u_nodes, u_weights = composite_gauss_legendre(-6.5, 6.5, 96)

    def outer(s_flat):
        s = s_flat[:, None]
        tau = u_nodes[None, :] + 0.5 * s
        taup = u_nodes[None, :] - 0.5 * s
        p1 = trajectory_point(spec, z, tau)
        p2 = trajectory_point(spec, z, taup)
        w = wight(p1, p2, eps)
        f = np.exp(-0.5 * (tau * tau + taup * taup) - 1j * gap * s) * w
        # einsum, not BLAS, as in correlation._correlation_single_epsilon
        return np.einsum("ij,j->i", f, u_weights)

    reach = 2.0 * math.sqrt(spec.radius ** 2 + z * z) / gamma
    s_max = max(13.0, reach + 3.0)
    n0 = min(int(s_max * (abs(gap) + spec.omega * gamma + 1.0)) + 32, 4096)
    return integrate_adaptive(outer, -s_max, s_max, tol,
                              initial_panels=n0, max_panels=60000)


def transition_probability_oracle_result(spec: CircularDetectorSpec,
                                         dz: float | None = None,
                                         tol: float = 1e-6) -> OracleEstimate:
    """Definition-level response with error bookkeeping: finite-epsilon
    double quadrature, each pass to tol/4, at every epsilon of
    DEFAULT_EPSILONS, extrapolated to zero (correlation._epsilon_ladder).
    P is real, so the value is the real part of the limit and its
    imaginary part is added to the error estimate."""
    est = _epsilon_ladder(
        lambda eps: _response_single_epsilon(spec, dz, eps, tol / 4.0), tol)
    return replace(est, value=est.value.real,
                   error_estimate=est.error_estimate + abs(est.value.imag))
