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
free= and then adds only the image part. _free_responses evaluates the
free-space responses of many detectors, their bounded terms as the
members of one batch, each on a mesh of its own up to its Gaussian
cutoff, with a closed-form bound on the remainder beyond it; a single
detector's is its batch of one. _reduced_batch runs those members and
the line integrals of correlation._line_batch as one lockstep batch, the
reduced terms of a point or a sweep. The image part is the image
channel of the pair correlation for the pair (detector, detector) at
zero separation: minus its prefactor times the folded line integral of
correlation._line_batch at L_eff = 2 dz, whose half-residue
sum is term_pole and whose principal value is term_pv; a caller that
evaluates many such lines in one batch passes each as line=. Its pole
s0, in coordinate time, is reported as pole_location = omega s0 / 2, the
unique positive root of x^2 - v^2 sin^2 x - (omega dz)^2.

A static detector (omega = v = 0) takes the same route: term_bounded
vanishes with v, so its direct part is the inertial one, and its image
line integral has D = (2 dz)^2 - s^2, whose pole is on the light cone
at s0 = 2 dz.

transition_probability_oracle_result integrates the defining double
integral without any of the above reductions; it is deliberately
independent of the closed form. It is the correlation oracle of the
detector with itself, at one height, on the proper-time contour tau -
tau' = s - i eta: the batch of one of correlation._oracle_batch, whose
key for a response is _response_oracle_key. The oracle suite puts the
keys of many responses in one batch. The detector's orbit is its own,
so the oracle folds the integrand at -s onto its conjugate at s, and
with the one gap the estimate's imaginary part is exactly 0:
_real_estimate takes the real part, its error estimate unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .correlation import (LineIntegral, OracleEstimate, _line_params,
                          _line_part, _Lines, _oracle_batch,
                          _reduced_line_integral)
from .kinematics import (CircularDetectorSpec, DomainError, _require_dz,
                         _require_tol)
from .quadrature import (_adaptive_parts, _checked, _Part, _results,
                         gaussian_truncation_point, integrate_adaptive,
                         integrate_adaptive_batch)
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
    convergence to these, and the rounding of the sum of its four terms
    to the error. pole_location is the image-pole position in
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
    return (math.exp(-g * g) - math.sqrt(math.pi) * g * math.erfc(g)) / (4.0 * math.pi)


def _bounded_kernel(x, v_sq):
    """(x^2 - sin^2 x) / (x^2 (x^2 - v^2 sin^2 x)) at x >= 0, v_sq
    broadcasting against x, with a series patch (in plain floats, at the
    few nodes there) below x = 0.01, where the numerator cancels."""
    x2 = x * x
    s2 = np.square(np.sin(x))
    out = (x2 - s2) / (x2 * (x2 - v_sq * s2))
    small = x < 1e-2
    at = small.nonzero()
    out[at] = [(1.0 / 3.0 - 2.0 * a / 45.0 + a * a / 315.0)
               / ((1.0 - v) + v * a / 3.0 - 2.0 * v * a * a / 45.0)
               for a, v in zip(x2[at].tolist(),
                               np.where(small, v_sq, 0.0)[at].tolist())]
    return out


def _image_line_args(spec: CircularDetectorSpec, dz: float,
                     tol: float) -> tuple[float, tuple]:
    """The prefactor and the line-integral key of the image part of
    spec's transition probability at height dz for a budget tol.

    The image Wightman term of one detector is that of the pair (spec,
    spec) at zero separation: C's image line integral at L_eff = 2 dz,
    with the opposite sign, here to a quarter of tol."""
    pref, shared = _line_params(spec, spec, tol, 0.25)
    return pref, (2.0 * dz, *shared)


def transition_probability(spec: CircularDetectorSpec,
                           dz: float | None = None,
                           tol: float = 1e-8,
                           free: ResponseBreakdown | None = None,
                           line: LineIntegral | None = None
                           ) -> ResponseBreakdown:
    """Four-term transition probability of a rotating or static detector;
    dz = None drops the mirror.

    tol is an absolute tolerance budget on the total, split evenly over
    the quadrature terms. free, when given, must be this detector's
    free-space breakdown at the same tol, transition_probability(spec,
    None, tol): its term_bounded, term_inertial, error and convergence
    are taken as they are, so a mirror call only adds the image line
    integral, and the result is bit-identical to a call without it.
    dz = None returns free itself. line, when given, must be the image
    line integral of the key _image_line_args(spec, dz, tol) names, as
    a batch of line integrals made it; it is taken as it is, again
    bit-identically."""
    _require_dz(dz)
    tol = _require_tol(tol)
    if free is None:
        free = _checked(_free_responses([(spec, tol)])[0])
    if dz is None:
        return free

    pref, key = _image_line_args(spec, dz, tol)
    if line is None:
        line = _reduced_line_integral(*key)
    term_pole = 0.0 - pref * line.residues  # +0.0 on the far branch
    term_pv = -pref * (line.value - line.residues)
    notes = ()
    if line.far_pole:
        notes = ("image pole beyond switching support; "
                 "principal value evaluated as a regular integral",)

    total = free.term_bounded + term_pv + free.term_inertial + term_pole
    # the rounding of this sum of four terms is at most 1.5 eps times the
    # sum of their magnitudes
    magnitude = (abs(free.term_bounded) + abs(term_pv)
                 + abs(free.term_inertial) + abs(term_pole))
    err = (free.abs_error_estimate + pref * line.abs_error_estimate
           + 1.5 * sys.float_info.epsilon * magnitude)
    return ResponseBreakdown(
        term_bounded=float(free.term_bounded), term_pv=float(term_pv),
        term_inertial=float(free.term_inertial), term_pole=float(term_pole),
        total=float(total), abs_error_estimate=float(err),
        pole_location=0.5 * spec.omega * line.pole,
        converged=free.converged and line.converged, notes=notes)


def _free_responses(keys) -> list:
    """The free-space breakdown of each (detector, tol) key, its tol
    checked by the public caller (kinematics._require_tol), or the
    exception it raises (a rotating term whose Gaussian cutoff is not
    finite, or whose quarter of tol the quadrature rejects): the
    singularity-subtracted rotating term, to a quarter of tol, plus the
    inertial term. Each key is set up on its own, so it fails alone.

    The rotating term integrates exp(-alpha x^2) cos(beta x) times
    _bounded_kernel over [0, inf), in x = gamma omega s / 2; a static
    detector (v = 0) has none. Each rotating detector's integral is cut
    off once, at gaussian_truncation_point, and starts on about one
    GK15 panel per period of its fastest oscillation, cos(beta x)
    against sin^2 x. The detectors are the members of one
    integrate_adaptive_batch call over [0, cutoff] (_free_part lowers
    them), each on a mesh of its own, so every breakdown equals its
    batch of one; the quadrature bounds the lockstep runs they take.
    The remainder beyond each cutoff X is bounded in closed form,
    exp(-alpha X^2) / (2 alpha X^3 (1 - v^2)), and added to that
    member's error estimate."""
    part, finish = _free_part(keys)
    if part.lo.size > 1:
        return finish(integrate_adaptive_batch(
            part.f, part.lo, part.hi, part.tol, initial_panels=part.n0))
    if not part.lo.size:
        return finish([])
    # a lone detector runs through integrate_adaptive, the batch of one,
    # whose calls the benchmark's tracer counts (bench/tracing.py)
    try:
        return finish([integrate_adaptive(
            lambda x: part.f(x, np.zeros(1, dtype=int)), part.lo[0],
            part.hi[0], part.tol[0], initial_panels=part.n0[0])])
    except DomainError as exc:
        return finish([exc])


def _free_part(keys):
    """The lowering of _free_responses: the quadrature _Part of the
    rotating terms of its moving detectors, and finish, which makes
    every key's breakdown or exception from the QuadratureResult or
    exception of each member of that part."""
    results: list = [None] * len(keys)
    moving = []
    for i, (spec, tol) in enumerate(keys):
        om, gamma, v = spec.omega, spec.gamma, spec.speed
        if v < 1e-12:
            # the static detector too: alpha and beta are undefined
            results[i] = _breakdown(spec, 0.0, 0.0, True)
            continue
        try:
            k_bounded = v * v * gamma * om / (4.0 * math.pi ** 1.5)
            alpha = 1.0 / (gamma * om) ** 2
            beta = 2.0 * spec.energy_gap / (gamma * om)
            tol_x = tol / 4.0 / max(k_bounded, 1e-300)
            x_max = gaussian_truncation_point(alpha, tol_x)
            if not math.isfinite(x_max):  # a subnormal alpha
                raise DomainError(f"the rotating term's cutoff is not "
                                  f"finite (alpha = {alpha:.3g})")
            n0 = int(x_max * (abs(beta) + 2.0) / (2.0 * math.pi)) + 8
        except Exception as exc:  # a key fails alone
            results[i] = exc
            continue
        moving.append((i, k_bounded, -alpha, beta, v * v, 0.0, x_max, tol_x,
                       n0))
    # the rows of the part's columns, lo (0), x_max, tol_x and n0, last
    columns = np.array(moving, dtype=float).reshape(-1, 9).T
    _, _, neg_alpha, beta, v_sq, _, x_max, tol_x, _ = columns

    def f_bounded(x, owner):
        # one gather of the rows -alpha, beta and v_sq
        neg_alpha_x, beta_x, v_sq_x = columns[2:5].take(owner, axis=1)
        return (np.exp(neg_alpha_x * x * x) * np.cos(beta_x * x)
                * _bounded_kernel(x, v_sq_x))

    def finish(batch) -> list:
        # beyond each cutoff X, 0 <= _bounded_kernel <= gamma^2/x^2 and
        # the Gaussian's tail is at most exp(-alpha X^2)/(2 alpha X):
        # with alpha X^2 formed first, no factor overflows
        ax2 = -neg_alpha * x_max * x_max
        tails = np.exp(-ax2) / (2.0 * ax2 * x_max * (1.0 - v_sq))
        for (i, k, *_), t, tail, res in zip(moving, tol_x.tolist(),
                                            tails.tolist(), batch):
            if isinstance(res, Exception):
                results[i] = res
                continue
            err = res.abs_error_estimate + tail
            results[i] = _breakdown(keys[i][0], k * res.value, k * err,
                                    err <= t)
        return results

    return _Part(f_bounded, *columns[5:]), finish


def _reduced_batch(free_keys, line_keys) -> tuple[list, _Lines]:
    """The free-space responses of free_keys, as _free_responses gives
    them, and the _Lines of line_keys, as correlation._line_batch gives
    them, from one lockstep batch: the members of both lowerings
    (_free_part, correlation._line_part) in one
    quadrature._adaptive_parts call, each bit-identical to its batch of
    one."""
    free, finish_free = _free_part(free_keys)
    lines, finish_lines = _line_part(line_keys)
    free_batch, line_batch = _adaptive_parts([free, lines])
    return finish_free(_results(free_batch)), finish_lines(line_batch)


def _breakdown(spec, term_bounded, err, converged) -> ResponseBreakdown:
    """The free-space ResponseBreakdown of spec from its rotating term,
    that term's error estimate and its convergence."""
    term_inertial = inertial_response(spec.energy_gap)
    return ResponseBreakdown(
        term_bounded=term_bounded, term_pv=0.0, term_inertial=term_inertial,
        term_pole=0.0, total=term_bounded + term_inertial,
        abs_error_estimate=err, pole_location=None, converged=converged)


def _response_oracle_key(spec: CircularDetectorSpec, dz: float | None,
                         tol: float) -> tuple:
    """The correlation._oracle_batch key of spec's response at height dz
    (0 in free space) for a tol its public caller checked: the detector
    with itself at one height, each pass to tol/4."""
    z = dz if dz is not None else 0.0
    return (spec, spec, z, z, dz is not None, tol / 4.0)


def _real_estimate(est: OracleEstimate) -> OracleEstimate:
    """A response oracle's estimate with its value as a real number: the
    folded oracle of one detector at one gap has an imaginary part of
    exactly 0."""
    return replace(est, value=est.value.real)


def transition_probability_oracle_result(spec: CircularDetectorSpec,
                                         dz: float | None = None,
                                         tol: float = 1e-6) -> OracleEstimate:
    """Definition-level response with error bookkeeping: the batch of one
    of correlation._oracle_batch, spec with itself at height dz (0 in
    free space), each pass to tol/4, as _real_estimate. dz is checked
    as transition_probability checks it."""
    _require_dz(dz)
    (est,) = _oracle_batch([_response_oracle_key(spec, dz, _require_tol(tol))])
    return _real_estimate(_checked(est))
