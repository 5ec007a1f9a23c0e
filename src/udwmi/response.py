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
  pole, with the pole factored out of the denominator in closed form.
* term_pole: the half-residue contribution of that pole pair, picked up
  with a plus sign on both poles by the regulator.

total = term_bounded + term_pv + term_inertial + term_pole. Free space
keeps only the first and third. The image pole sits at the unique
positive root of x^2 - v^2 sin^2 x - (omega dz)^2, which is strictly
increasing in x, so root bracketing is safe and the pole is simple.

transition_probability_oracle integrates the defining double integral
(finite regulator epsilon, extrapolated to zero) without any of the
above reductions; it is deliberately independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .correlation import (DEFAULT_EPSILONS, OracleEstimate,
                          composite_gauss_legendre, wightman_boundary,
                          wightman_free)
from .kinematics import CircularDetectorSpec, DomainError, trajectory_point
from .quadrature import (epsilon_extrapolate, find_root_bracketed,
                         gaussian_truncation_point, integrate_adaptive,
                         integrate_semiinfinite_gaussian,
                         principal_value_integral)

__all__ = [
    "ResponseBreakdown",
    "inertial_response",
    "image_pole_location",
    "transition_probability",
    "transition_probability_free",
    "transition_probability_oracle",
    "transition_probability_oracle_result",
]


@dataclass(frozen=True)
class ResponseBreakdown:
    """Transition probability and its four constituents.

    pole_location is the image-pole position in the scaled time
    variable (None in free space). notes flags non-fatal substitutions,
    e.g. the pole lying beyond the switching support."""

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


def _pole_poly(spec: CircularDetectorSpec, dz: float):
    v_sq = spec.speed * spec.speed
    target = (spec.omega * dz) ** 2

    def h(x):
        return x * x - v_sq * np.sin(x) ** 2 - target

    return h


def image_pole_location(spec: CircularDetectorSpec, dz: float) -> float:
    """Unique positive root of x^2 - v^2 sin^2 x - (omega dz)^2.

    The cubic-free bracket [0, gamma*omega*dz + 1] always straddles it;
    a Newton polish after brentq keeps the defect near roundoff."""
    if not (dz > 0.0) or not math.isfinite(dz):
        raise DomainError(f"dz must be positive and finite, got {dz}")
    if spec.omega == 0.0:
        raise DomainError("orbit frequency is zero; the scaled pole "
                          "equation degenerates")
    v_sq = spec.speed * spec.speed
    if spec.speed < 1e-12:
        return spec.omega * dz
    h = _pole_poly(spec, dz)
    hi = spec.gamma * spec.omega * dz + 1.0
    root = find_root_bracketed(h, 0.0, hi)
    for _ in range(2):
        d1 = 2.0 * root - v_sq * math.sin(2.0 * root)
        if d1 == 0.0:
            break
        root = root - h(root) / d1
    return float(root)


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
                           tol: float = 1e-8) -> ResponseBreakdown:
    """Four-term transition probability; dz = None drops the mirror.

    tol is an absolute tolerance budget on the total, split evenly over
    the quadrature terms."""
    if spec.omega == 0.0:
        raise DomainError("transition_probability needs a rotating detector "
                          "(omega > 0); a static one has no scaled form")
    if dz is not None and (not math.isfinite(dz) or dz <= 0.0):
        raise DomainError(f"dz must be positive and finite, got {dz}")

    om, gamma, v = spec.omega, spec.gamma, spec.speed
    v_sq = v * v
    gap = spec.energy_gap
    alpha = 1.0 / (gamma * om) ** 2
    beta = 2.0 * gap / (gamma * om)
    notes: list[str] = []

    term_tol = tol / 4.0
    err = 0.0
    evals_ok = True

    # direct rotating part, singularity subtracted
    k_bounded = v_sq * gamma * om / (4.0 * math.pi ** 1.5)
    if v < 1e-12:
        term_bounded = 0.0
    else:
        def f_bounded(x):
            return np.exp(-alpha * x * x) * np.cos(beta * x) * _bounded_kernel(x, v_sq)

        x_max = gaussian_truncation_point(alpha, term_tol / max(k_bounded, 1e-300))
        n0 = min(int(x_max * (abs(beta) + 2.0) / (2.0 * math.pi) * 3.5) + 8, 4096)
        res = integrate_semiinfinite_gaussian(
            f_bounded, alpha, term_tol / max(k_bounded, 1e-300),
            initial_panels=n0)
        term_bounded = k_bounded * res.value
        err += k_bounded * res.abs_error_estimate
        evals_ok = evals_ok and res.converged

    term_inertial = inertial_response(gap)

    if dz is None:
        total = term_bounded + term_inertial
        return ResponseBreakdown(
            term_bounded=term_bounded, term_pv=0.0,
            term_inertial=term_inertial, term_pole=0.0, total=total,
            abs_error_estimate=err, pole_location=None,
            converged=evals_ok, notes=tuple(notes))

    pole = image_pole_location(spec, dz)
    k_image = om / (4.0 * math.pi ** 1.5 * gamma)
    h = _pole_poly(spec, dz)
    x_max = gaussian_truncation_point(alpha, term_tol / max(k_image, 1e-300))

    def f_image(x):
        return np.exp(-alpha * x * x) * np.cos(beta * x)

    pv_tol = term_tol / max(k_image, 1e-300)
    n0 = min(int(x_max * (abs(beta) + 2.0) / (2.0 * math.pi) * 3.5) + 8, 4096)
    if pole <= x_max + 2.0:
        # keep the pole comfortably interior by stretching the domain a
        # little past the Gaussian support when needed
        hi_dom = max(x_max, pole + 2.0)

        def q(x):
            # h(x)/(x - pole), factored with sin^2 a - sin^2 b = sin(a-b) sin(a+b)
            return (x + pole) - v_sq * np.sinc((x - pole) / math.pi) * np.sin(x + pole)

        res = principal_value_integral(lambda x: f_image(x) / q(x), pole,
                                       0.0, hi_dom, pv_tol)
        term_pv = k_image * res.value
        err += k_image * (res.abs_error_estimate + pv_tol / 10.0)
        evals_ok = evals_ok and res.converged
    else:
        # pole far beyond the Gaussian support: its neighborhood carries
        # less than the truncation error, integrate plainly
        res = integrate_adaptive(lambda x: f_image(x) / h(x), 0.0, x_max,
                                 pv_tol, initial_panels=max(n0, 8))
        term_pv = k_image * res.value
        err += k_image * (res.abs_error_estimate
                          + math.exp(-alpha * x_max * x_max)
                          / max(abs(h(x_max)), 1e-300))
        evals_ok = evals_ok and res.converged
        notes.append("image pole beyond switching support; "
                     "principal value evaluated as a regular integral")
    term_pv = float(term_pv)

    d1 = 2.0 * pole - v_sq * math.sin(2.0 * pole)
    term_pole = (om / (4.0 * math.sqrt(math.pi) * gamma)
                 * math.exp(-alpha * pole * pole)
                 * math.sin(beta * pole) / d1)

    total = term_bounded + term_pv + term_inertial + term_pole
    return ResponseBreakdown(
        term_bounded=float(term_bounded), term_pv=term_pv,
        term_inertial=float(term_inertial), term_pole=float(term_pole),
        total=float(total), abs_error_estimate=float(err),
        pole_location=pole, converged=evals_ok, notes=tuple(notes))


def transition_probability_free(spec: CircularDetectorSpec,
                                tol: float = 1e-8) -> ResponseBreakdown:
    """Free-space (no mirror) transition probability."""
    return transition_probability(spec, None, tol)


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
        return f @ u_weights

    reach = 2.0 * math.sqrt(spec.radius ** 2 + z * z) / gamma
    s_max = max(13.0, reach + 3.0)
    n0 = min(int(s_max * (abs(gap) + spec.omega * gamma + 1.0)) + 32, 4096)
    return integrate_adaptive(outer, -s_max, s_max, tol,
                              initial_panels=n0, max_panels=60000)


def transition_probability_oracle_result(spec: CircularDetectorSpec,
                                         dz: float | None = None,
                                         epsilon_schedule=DEFAULT_EPSILONS,
                                         tol: float = 1e-6) -> OracleEstimate:
    """Definition-level response with error bookkeeping: finite-epsilon
    double quadrature on an epsilon ladder, extrapolated to zero."""
    if len(epsilon_schedule) < 3:
        raise DomainError("epsilon schedule needs at least three entries")
    samples = []
    quad_err = 0.0
    for eps in sorted(epsilon_schedule, reverse=True):
        res = _response_single_epsilon(spec, dz, eps, tol / 4.0)
        samples.append((eps, complex(res.value)))
        quad_err = max(quad_err, res.abs_error_estimate)
    extrap = epsilon_extrapolate(samples)
    if not extrap.monotone and extrap.residual > 100.0 * max(tol, quad_err):
        raise RuntimeError("epsilon ladder did not converge "
                           f"(residual {extrap.residual:.3g})")
    value = complex(extrap.value)
    error = 3.0 * extrap.residual + quad_err + abs(value.imag)
    return OracleEstimate(
        value=value.real,
        error_estimate=float(error),
        samples=tuple(samples),
        monotone=extrap.monotone,
    )


def transition_probability_oracle(spec: CircularDetectorSpec,
                                  dz: float | None = None,
                                  epsilon_schedule=DEFAULT_EPSILONS,
                                  tol: float = 1e-6) -> float:
    """Definition-level transition probability (no closed-form pieces)."""
    return float(transition_probability_oracle_result(
        spec, dz, epsilon_schedule, tol).value)
