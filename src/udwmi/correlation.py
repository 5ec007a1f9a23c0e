"""Field-mediated correlation between two rotating detectors near a mirror.

The field is a massless scalar with a Dirichlet boundary on the z = 0
plane, treated by the image construction: the boundary Wightman function
is the free one minus its image partner. Both detectors switch on with
the same Gaussian window exp(-tau^2/2) in their own proper times, and
couple with unit strength (lambda = 1).

The pair correlation C (the single-excitation coherence of the joint
two-detector state, at leading order in the coupling) is computed on two
independent routes:

* correlation_equal: for detectors sharing one orbit kinematics the
  double time integral collapses to a single integral over the time
  difference; its integrand has one pair of simple real poles, at
  +-s0 where the detectors are lightlike separated. The denominator is
  even, so the integral folds onto s >= 0 as one principal value at s0
  plus the closed-form half residues, and C comes out real. s0 is found
  by a monotone Newton iteration in plain floats (_line_pole). The line
  integrals of a list are the members of one principal-value batch
  (_line_batch, the array core of the line stage, whose lowering
  _line_part lets them share one lockstep batch with the free-space
  responses), each started on about 1.5 panels per period of cos(k s)
  and of the orbit's ripple on D over its range; a pole beyond the
  switching envelope lies outside its member's range, which leaves the
  regular integral. Its results, residues and branches included, are
  arrays (_Lines) with failures by index, as quadrature's _Batch is; C
  is made from their records, and a LineIntegral only at the edge
  (_reduced_line_integrals) or for the image line a mirror P takes.
  The direct part gives c_free, the image part c_boundary, and
  C = c_free - c_boundary. The image denominator is the direct one with
  separation L replaced by L + 2 dz. At L = 0 the image line integral
  is also the image part of one detector's response (module response).
* correlation_general_result: definition-level double quadrature, the
  oracle for the reduced path, for a pair on one orbit as that path
  takes it; a pair on two orbits raises DomainError, as the engine
  refuses it. The Wightman
  function is the boundary value of a function analytic while the
  imaginary part of the separation lies in the past cone (Streater and
  Wightman; for the circular orbit's complex zeros, Bell and Leinaas,
  Nucl. Phys. B 212, 131 (1983)). So instead of a regulator epsilon,
  the proper-time difference is moved off the real axis by a finite
  eta, tau_A - tau_B = s - i eta, and the unregulated Wightman
  function is taken there with no limit. The response oracle of module
  response is the same routine: the response is the correlation of a
  detector with itself. eta comes from the orbit (_contours); the two
  passes of an oracle differ in eta alone, and their spread is the
  error. _oracle_batch takes many oracles, say the points of an oracle
  grid, and runs the passes of all of them as the members of one
  integrate_adaptive_batch call (_oracle_passes), so each estimate
  equals its batch of one and a single oracle is the batch of one. On
  one orbit the Wightman function does not depend on the mean proper
  time u, so the u integral is a closed form, and the integrand at -s
  is the conjugate of that at s, so a pass is integrated over s >= 0
  alone. Rows are evaluated in plain blocks of at most _BLOCK, each
  from its own pass's constants, the Wightman function from the
  squared interval alone (_wightman_kernel), whose orbit part comes
  from the law of cosines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import (CircularDetectorSpec, DomainError, _require_dz,
                         _require_sep, _require_tol)
from .quadrature import (QuadratureResult, _adaptive, _checked, _pv_part,
                         _scatter, integrate_adaptive_batch)

__all__ = [
    "PairConfig",
    "CorrelationResult",
    "OracleEstimate",
    "correlation_equal",
    "correlation_general_result",
]

_TWO_PI_SQ = 4.0 * math.pi * math.pi


@dataclass(frozen=True)
class PairConfig:
    """Two detectors, their vertical separation, and the boundary distance.

    Detector A sits at height dz above the mirror, detector B at dz + sep.
    dz = None means free space (no mirror). equal_kinematics is derived:
    True when both detectors share acceleration and radius exactly
    (hence the same orbit frequency and gamma), since the reduced path
    reads det_a's orbit for both (_line_params) and the oracle takes one
    orbit to the bit.
    """

    det_a: CircularDetectorSpec
    det_b: CircularDetectorSpec
    sep: float
    dz: float | None = None
    equal_kinematics: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sep", _require_sep(self.sep))
        object.__setattr__(self, "dz", _require_dz(self.dz))
        same_radius = self.det_a.radius == self.det_b.radius
        if self.sep == 0.0 and same_radius:
            raise DomainError("coincident detectors (sep = 0, equal radii) "
                              "put both worldlines on top of each other")
        object.__setattr__(self, "equal_kinematics",
                           same_radius and self.det_a.accel == self.det_b.accel)


@dataclass(frozen=True)
class CorrelationResult:
    """C split into its direct and image parts.

    c_free is the direct-Wightman contribution (what C would be with no
    mirror), c_boundary the image contribution, and
    c_total = c_free - c_boundary exactly as assembled.
    """

    c_total: complex
    c_free: complex
    c_boundary: complex
    abs_error_estimate: float
    converged: bool


@dataclass(frozen=True)
class OracleEstimate:
    """A definition-level oracle's value with its error bookkeeping:
    samples are the (eta, value) pairs of its passes on the two shifted
    contours, and evaluations counts the outer integrand evaluations of
    both."""

    value: complex
    error_estimate: float
    samples: tuple[tuple[float, complex], ...]
    evaluations: int


@dataclass(frozen=True)
class LineIntegral(QuadratureResult):
    """A reduced line integral and how it was made.

    pole is the positive zero s0 of D, residues the half-residue pair
    included in value, and far_pole records the branch: the poles lay
    beyond the switching envelope, so value is the regular integral and
    the residues were bounded in the error estimate instead of added."""

    pole: float
    residues: float = 0.0
    far_pole: bool = False


def _line_pole(L_eff: float, radius: float, omega: float,
               gamma: float) -> float:
    """The positive zero s0 of D(s) = L_eff^2 + 4 R^2 sin^2(omega s / 2)
    - s^2 on an orbit of Lorentz factor gamma, by Newton's method from
    min(sqrt(L_eff^2 + 4 R^2), gamma L_eff), where D <= 0 (sin^2 x <=
    x^2 gives the second). D is decreasing and concave on s > 0 (D'' =
    2 (v^2 cos(omega s) - 1) < 0), so the iterates fall monotonically
    onto s0; the first that does not fall is s0 to rounding. A static
    orbit starts, and stays, at s0 = L_eff exactly."""
    if not math.isfinite(L_eff):
        raise DomainError(f"effective separation must be finite, got {L_eff}")
    if L_eff <= 0.0:
        raise DomainError("effective separation must be positive")
    if L_eff * L_eff < sys.float_info.min:
        # D and the integrand scale as L_eff^2 and 1/L_eff^2
        raise DomainError(f"effective separation {L_eff} is too small: its "
                          f"square is below the normal float range")
    l_sq, four_r_sq = L_eff * L_eff, 4.0 * radius * radius
    half_omega = 0.5 * omega
    s = min(math.sqrt(l_sq + four_r_sq), gamma * L_eff)
    while True:
        sin_h, cos_h = math.sin(half_omega * s), math.cos(half_omega * s)
        d = l_sq + four_r_sq * sin_h * sin_h - s * s
        slope = four_r_sq * omega * sin_h * cos_h - 2.0 * s
        step = s - d / slope
        if not step < s:
            return s
        s = step


class _Lines(NamedTuple):
    """The reduced line integrals of a list of keys as arrays, one entry
    per key, in LineIntegral's field order: values, errors,
    evaluations, converged, poles, residues and far (the branch), then
    failures, the exception of each key that failed by index (its
    entries are no result)."""

    values: np.ndarray
    errors: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    far: np.ndarray
    failures: dict

    def records(self) -> list[tuple]:
        """Each key's entries as a tuple of plain floats, ints and bools
        in LineIntegral's field order."""
        return list(zip(*(column.tolist() for column in self[:7])))


# the entries of a key that failed, field by field
_NO_LINE = (math.nan, math.nan, 0, False, math.nan, math.nan, False)


def _line_batch(keys) -> _Lines:
    """Reduced line integrals of a list of argument tuples (L_eff, R,
    omega, gamma, k, s_env, tol), as _Lines: each the distributional
    integral of exp(-s^2/(4 gamma^2) + i k s)/D(s) over the real line
    with D(s) = L_eff^2 + 4 R^2 sin^2(omega s / 2) - s^2.

    D decreases strictly on s > 0 (since 2 R^2 omega sin(omega s) <=
    2 v^2 s < 2 s), so it has exactly one positive zero s0, a simple one,
    mirrored at -s0 and confined to L_eff <= s0 <= sqrt(L_eff^2 + 4 R^2).
    D is even, so the integral folds onto s >= 0 as the principal value
    of 2 exp(-s^2/(4 gamma^2)) cos(k s)/D(s). The regulator pushed the
    poles such that the half-residue sign is sign(s0); the pair sums to
    -2 pi exp(-s0^2/(4 gamma^2)) sin(k s0)/|D'(s0)|. The value is real.

    Every key whose pole was found is a member of one
    principal-value batch, g = 2 exp(-s^2/(4 gamma^2)) cos(k s)/q(s)
    with q = D/(s - s0) factored, so each equals its batch of one, and
    the quadrature bounds the lockstep runs a long list takes. Its
    range is [0, hi] with hi = max(s_env, sqrt(L_eff^2 + 4 R^2) + 2),
    and the half residues are added; a pole far beyond the switching
    envelope (L_eff > s_env + 2) lies outside the range [0, s_env] of
    its regular integral, and the residues are bounded in the error
    instead. A member starts on ceil(1.5 hi (|k| + omega w)/(2 pi)) + 3
    panels, split over the pole's sides by their lengths: 1.5 panels
    per period of cos(k s) and of the orbit's ripple on D, whose
    weight w = sqrt(min(1, 2 R^2 omega / max(L_eff, 1))) (0 for a static
    orbit) grows with its relative depth at the pole, but slower, since
    the GK15 error of a shallow ripple still falls steeply with the
    panel width; a ripple that is deep only within a unit of the origin
    is left to refinement there. A start much smaller than that costs
    extra refinement rounds, which dominate the cost of the few members
    of a single point. A key fails alone: with an L_eff that is not
    positive and finite or whose square is subnormal, or a tol that is
    not positive. The exponentials and sines of the residues and of the
    far branch's bound are math's, one key at a time, as in the scalar
    pole: NumPy's vector exp can round differently in the last bit."""
    part, finish = _line_part(keys)
    return finish(_adaptive(part.f, np.array(part[1:])))


def _line_part(keys):
    """The lowering of _line_batch: the quadrature _Part of the members
    of its principal values, and finish, which makes the keys' _Lines
    from that part's _Batch. q(s0), D's factor at each pole, is made
    once, for both g(s0) and the residues."""
    failures, found, rows = {}, [], []
    for i, key in enumerate(keys):
        try:
            rows.append((*key, _line_pole(*key[:4])))
        except Exception as exc:  # a member fails alone
            failures[i] = exc
        else:
            found.append(i)
    L_eff, radius, omega, gamma, k, s_env, tol, s0 = np.array(
        rows, dtype=float).reshape(-1, 8).T
    r_sq = radius * radius
    neg_inv = -1.0 / (4.0 * gamma * gamma)  # s s neg_inv is -s s/(4 g^2)
    amp, half_omega = 2.0 * r_sq * omega, 0.5 * omega
    table = np.array([s0, amp, omega, half_omega, neg_inv, k])

    def g(s, j):
        # one gather of g's constants; q = D(s)/(s - s0) = amp sinc(omega
        # (s - s0)/(2 pi)) sin(omega (s + s0)/2) - (s + s0), from sin^2 a
        # - sin^2 b = sin(a - b) sin(a + b), the sinc as np.sinc makes it
        pole, amp_j, omega_j, half_j, neg_inv_j, k_j = table.take(j, axis=1)
        s_plus = s + pole
        x = np.pi * (omega_j * (s - pole) / (2.0 * math.pi))
        x = np.where(x, x, 1e-20)
        q = amp_j * (np.sin(x) / x) * np.sin(half_j * s_plus) - s_plus
        return 2.0 * np.exp(s * s * neg_inv_j) * np.cos(k_j * s) / q

    far = L_eff > s_env + 2.0
    band_hi = np.sqrt(L_eff * L_eff + 4.0 * r_sq)
    hi = np.where(far, s_env, np.maximum(s_env, band_hi + 2.0))
    # 1.5 panels per period of cos(k s) and of the weighted ripple
    ripple = omega * np.sqrt(np.minimum(1.0, amp / np.maximum(L_eff, 1.0)))
    n0 = np.ceil(1.5 * hi * (np.abs(k) + ripple) / (2.0 * math.pi)) + 3.0
    # q(s0), where the sinc is 1, and g(s0) as g makes it
    two_s0 = s0 + s0
    q_pole = amp * np.sin(half_omega * two_s0) - two_s0
    exponent, phase = s0 * s0 * neg_inv, k * s0
    part, finish_pvs = _pv_part(g, s0, np.zeros(s0.size), hi, tol, n0,
                                2.0 * np.exp(exponent) * np.cos(phase)
                                / q_pole)

    def finish(batch) -> _Lines:
        pvs = finish_pvs(batch)
        for j, exc in pvs.failures.items():
            failures[found[j]] = exc
        # the half-residue pair, which the far branch bounds in the
        # error instead of adding it
        exps = [math.exp(x) for x in exponent.tolist()]
        sines = [math.sin(x) for x in phase.tolist()]
        residues = np.where(far, 0.0, -2.0 * math.pi * np.array(exps)
                            * np.array(sines) / np.abs(q_pole))
        errors = pvs.errors
        far_at = far.nonzero()[0]
        if far_at.size:
            errors[far_at] = [
                err + math.pi * gam * gam / (2.0 * L)
                * math.exp(-L * L / (4.0 * gam * gam)) + t / 5.0
                for err, L, gam, t in zip(*(x[far_at].tolist() for x in (
                    errors, L_eff, gamma, tol)))]
        columns = (pvs.values + residues, errors, pvs.evaluations + ~far,
                   pvs.converged, s0, residues, far)
        if len(found) < len(keys):  # the entries of the keys with a pole
            at = np.array(found, dtype=int)
            columns = [_scatter(x, at, len(keys), fill)
                       for x, fill in zip(columns, _NO_LINE)]
        return _Lines(*columns, failures)

    return part, finish


def _join_lines(parts) -> _Lines:
    """The _Lines of consecutive lists of keys from theirs: each part a
    _Lines, or a list of the exceptions its keys failed with."""
    if not parts:
        return _line_batch([])
    if len(parts) == 1 and isinstance(parts[0], _Lines):  # one job's
        return parts[0]
    failures, columns, size = {}, [], 0
    for part in parts:
        if not isinstance(part, _Lines):
            part = _Lines(*(np.full(len(part), fill) for fill in _NO_LINE),
                          dict(enumerate(part)))
        failures.update((size + i, exc) for i, exc in part.failures.items())
        columns.append(part[:7])
        size += part.values.size
    return _Lines(*map(np.concatenate, zip(*columns)), failures)


def _reduced_line_integrals(keys) -> list:
    """The reduced line integral of each key of _line_batch: its
    LineIntegral, or the exception it fails with."""
    lines = _line_batch(keys)
    return [lines.failures[i] if i in lines.failures else LineIntegral(*row)
            for i, row in enumerate(lines.records())]


def _reduced_line_integral(*key) -> LineIntegral:
    """The reduced line integral of one argument tuple: the batch of one
    of _reduced_line_integrals."""
    return _checked(_reduced_line_integrals([key])[0])


def _line_params(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                 tol: float, share: float = 1.0) -> tuple[float, tuple]:
    """The prefactor of the C between det_a and det_b, both on det_a's
    orbit, and the arguments after L_eff that its reduced line integrals
    share: (radius, omega, gamma, k, s_env, tol_int) for a budget share
    times tol, a tol its public caller checked (kinematics._require_tol)."""
    tol *= share
    gamma = det_a.gamma
    gap_a, gap_b = det_a.energy_gap, det_b.energy_gap
    dgap = gap_b - gap_a

    pref = math.exp(-0.25 * dgap * dgap) / (4.0 * math.pi ** 1.5 * gamma)
    k = (gap_a + gap_b) / (2.0 * gamma)

    # switching envelope support: beyond s_env the envelope is below tol/10
    s_env = 2.0 * gamma * math.sqrt(max(-math.log(tol / 10.0), 1.0)) + 2.0
    tol_int = tol / max(pref, 1e-300) / 2.0
    # a static orbit's D = L_eff^2 - s^2 has no R in it, so neither may
    # the pole search or the principal-value range
    radius = det_a.radius if det_a.omega != 0.0 else 0.0
    return pref, (radius, det_a.omega, gamma, k, s_env, tol_int)


def _line_integral_args(pair: PairConfig,
                        tol: float) -> tuple[float, list[tuple]]:
    """The prefactor of C and the argument tuples of its reduced line
    integrals: the direct one at L_eff = sep and, with a mirror, the
    image one at sep + 2 dz. Equal tuples give equal integrals, so a
    sweep evaluates each distinct tuple once."""
    pref, shared = _line_params(pair.det_a, pair.det_b, tol)
    args = [(pair.sep, *shared)]
    if pair.dz is not None:
        args.append((pair.sep + 2.0 * pair.dz, *shared))
    return pref, args


def _correlation_from_lines(pref: float, lines: list) -> CorrelationResult:
    """C from the records (_Lines.records) of the line integrals
    _line_integral_args asked for: the direct part, then the image part
    when there is a mirror."""
    value, err, _, converged, *_ = lines[0]
    c_free = pref * value
    err = pref * err

    if len(lines) == 1:
        c_boundary = 0.0 + 0.0j
    else:
        value, image_err, _, image_converged, *_ = lines[1]
        c_boundary = pref * value
        err += pref * image_err
        converged = converged and image_converged

    return CorrelationResult(
        c_total=complex(c_free - c_boundary),
        c_free=complex(c_free),
        c_boundary=complex(c_boundary),
        abs_error_estimate=float(err),
        converged=converged,
    )


def _require_equal_kinematics(pair: PairConfig) -> None:
    if not pair.equal_kinematics:
        raise DomainError("both detectors must be on the same orbit "
                          "(equal accel and radius)")


def correlation_equal(pair: PairConfig, tol: float = 1e-8) -> CorrelationResult:
    """C for a pair sharing orbit kinematics, via the folded single-integral
    reduction: one principal value plus the closed-form half residues.

    tol is an absolute tolerance on C. The direct and image integrals
    differ only by the effective separation (L versus L + 2 dz)."""
    _require_equal_kinematics(pair)
    pref, args = _line_integral_args(pair, _require_tol(tol))
    lines = _line_batch(args)
    if lines.failures:
        raise lines.failures[min(lines.failures)]
    return _correlation_from_lines(pref, lines.records())


# Rows per block of the oracle integrand (_oracle_rows), of any passes.
# A block's temporaries are complex arrays of at most 32 KiB, and a
# batch's traced peak (0.70 MiB for the 39 oracles of oracle_grid) is
# the first round of its quadrature's runs. Fifteen serial oracle_grid
# suites after the smoke grid in a fresh process took at least
# 0.0070-0.0074 s each (time.process_time), made 78-79 minor page
# faults in all and peaked at 32.5-32.6 MiB RSS; in blocks of 8192 they
# took at least 0.0072-0.0074 s, made 3315 faults and peaked at
# 33.3-33.4 MiB (three processes each; x86-64 Linux, glibc, NumPy 2.4).
_BLOCK = 1 << 11

# Half the range [0, 2 _U_CUT] of the oracle's time difference s,
# beyond which the envelope exp(-s^2/4) is below 5e-19.
_U_CUT = 6.5


def _contours(det_a: CircularDetectorSpec,
              det_b: CircularDetectorSpec) -> tuple[float, float]:
    """The two contour shifts eta_1 = eta_2 / 2 and eta_2 = min(0.1,
    bound / 2) of the oracle between det_a and det_b.

    At tau_A - tau_B = s - i eta each moving detector's orbit phase
    gets the imaginary part y = omega gamma eta / 2, so the imaginary
    part of the separation stays in the past cone while sinh(y)/y < 1/v
    for both. arccosh(1/v) is below that root, so the bound is the
    least 2 arccosh(1/v)/(omega gamma) over the moving detectors (none
    for a static pair)."""
    bound = min((2.0 * math.acosh(1.0 / det.speed) / (det.omega * det.gamma)
                 for det in (det_a, det_b) if det.speed > 0.0),
                default=math.inf)
    eta_2 = min(0.1, 0.5 * bound)
    return 0.5 * eta_2, eta_2


def _kernel_terms(passes) -> np.ndarray:
    """The constants of _wightman_kernel for a list of passes, one column
    per pass: 2 sqrt(R_A R_B), 2 gamma, k = omega gamma, (z_A - z_B)^2 +
    (R_A - R_B)^2, (z_A + z_B)^2 + (R_A - R_B)^2, the numerator 4 z_A
    z_B / (4 pi^2) with the mirror and -1 without, and mirror as 1.0 or
    0.0. A pass is a tuple whose first entries are det_a, det_b, z_a,
    z_b and mirror: det_a at height z_a and det_b at z_b on one orbit,
    with the image term when mirror."""
    terms = []
    for det_a, det_b, z_a, z_b, mirror, *_ in passes:
        dr_sq = (det_a.radius - det_b.radius) ** 2
        terms.append((2.0 * math.sqrt(det_a.radius * det_b.radius),
                      2.0 * det_a.gamma, det_a.omega * det_a.gamma,
                      (z_a - z_b) ** 2 + dr_sq, (z_a + z_b) ** 2 + dr_sq,
                      4.0 * z_a * z_b / _TWO_PI_SQ if mirror else -1.0,
                      float(mirror)))
    return np.array(terms).reshape(-1, 7).T


def _wightman_kernel(terms: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The unregulated Wightman function W on a block of rows, each row's
    c, complex, one entry per row: between det_a at height z_a and det_b
    at z_b on one orbit at tau_A = u + c and tau_B = u - c, from the
    columns of _kernel_terms of each row's pass.

    With q = dt^2 - dx^2 - dy^2 the squared interval of the two events,
    W = -1 / (4 pi^2 (q - (z_A - z_B)^2)) in free space, and the mirror
    subtracts the same term at z_B -> -z_B, so W = 0 at z_B = 0. q
    comes straight from the orbit, at phase k tau with k = omega gamma
    from the x axis: dt = 2 gamma c, and by the law of cosines dx^2 +
    dy^2 = (R_A - R_B)^2 + 4 R_A R_B sin^2(k c), none of it depending
    on u. (R_A - R_B)^2, nonzero only for a static pair, joins the
    constant height terms, and the mirror's two terms are the one
    fraction 4 z_A z_B / (4 pi^2 (q - (z_A - z_B)^2) (q - (z_A +
    z_B)^2)); a free-space row takes 4 pi^2 in place of the second
    factor and -1 as the numerator. A row takes products and one
    division, in place where it can be: no complex product or square is
    formed in place, since NumPy rounds those by array length, which
    would tie a row to its block."""
    scale, two_gamma, k, dz_sq, z_sum_sq, numerator, mirror = terms
    q = np.square(two_gamma * c)
    q -= np.square(scale * np.sin(k * c))
    free = q - dz_sq
    q -= z_sum_sq
    np.copyto(q, _TWO_PI_SQ, where=mirror == 0.0)
    q = q * free
    return np.divide(numerator, q, out=q)


def _oracle_rows(passes):
    """The rows of a list of passes, as a function rows(s, member) of
    lines of real s >= 0, a 2-D array, and the index of the pass of
    each line, a 1-D array. A pass (det_a, det_b, z_a, z_b, mirror,
    eta) is the defining double integral between det_a at height z_a
    and det_b at z_b on one orbit, with the image term when mirror, on
    the contour shifted by eta.

    In u = (tau_A + tau_B)/2 and real s with tau_A - tau_B = s - i eta,
    the integrand is exp(-u^2) exp(-(s - i eta)^2/4) exp(-i (gap_A -
    gap_B) u) exp(-i (gap_A + gap_B) (s - i eta)/2) times the Wightman
    function (_wightman_kernel at c = (s - i eta)/2). On one orbit the
    Wightman function does not depend on u, so the u integral is the
    closed form sqrt(pi) exp(-(gap_A - gap_B)^2/4), and the integrand
    at s is h(s) times it, with h(-s) = conj h(s) since the Wightman
    function is hermitian and the pair stationary. A row is folded:
    2 Re h(s) times the u integral, the integrand at s and -s together,
    whose integral over s >= 0 is the pass's. Every pass's constants
    are made once, and the rows are evaluated in blocks of at most
    _BLOCK, each row from its own pass's constants, so a row depends on
    neither its block nor the other passes."""
    terms = _kernel_terms(passes)
    eta = np.array([p[5] for p in passes])
    gap_sum = np.array([p[0].energy_gap + p[1].energy_gap for p in passes])
    # twice the u integral
    weight = np.array([2.0 * math.sqrt(math.pi) * math.exp(
        -0.25 * (a.energy_gap - b.energy_gap) ** 2) for a, b, *_ in passes])

    def rows(s, member):
        k = s.shape[1]
        flat_s = s.reshape(-1)
        out = np.empty(flat_s.size)
        for i in range(0, flat_s.size, _BLOCK):
            j = min(i + _BLOCK, flat_s.size)
            own = member[np.arange(i, j) // k]
            ds = flat_s[i:j] - 1j * eta[own]
            kernel = _wightman_kernel(terms[:, own], 0.5 * ds)
            row = np.exp(-0.25 * ds * ds - 0.5j * gap_sum[own] * ds)
            out[i:j] = (row * kernel).real * weight[own]
        return out.reshape(s.shape)

    return rows


def _oracle_passes(passes, tol) -> list:
    """The integral over s of each pass's rows (_oracle_rows) to its tol
    (scalars broadcast): the members of one integrate_adaptive_batch
    call, adaptive GK15 over [0, 2 _U_CUT], each starting on enough
    panels to see its phase and orbit oscillations. Returns one entry
    per pass: its QuadratureResult, or the DomainError its arguments
    raise."""
    s_max = 2.0 * _U_CUT
    n0 = [(int(0.25 * s_max * ((abs(a.energy_gap + b.energy_gap)
                                + a.omega * a.gamma + b.omega * b.gamma) / 2.0
                               + 1.0)) + 9) // 2
          for a, b, *_ in passes]
    rows = _oracle_rows(passes)
    return integrate_adaptive_batch(
        lambda x, owner: rows(x, owner.ravel()), 0.0, s_max, tol,
        initial_panels=n0, max_panels=60000)


def _oracle_batch(keys) -> list:
    """The definition-level correlation of each key (det_a, det_b, z_a,
    z_b, mirror, tol): det_a at height z_a with det_b at z_b, both on
    one orbit (equal gamma and omega gamma, to the bit), with the image
    term when mirror, to tol. Its passes are at eta_1 and eta_2
    (_contours), each to tol, and its value, which is real, is the
    second's. The passes of all keys are the members of one
    _oracle_passes batch, so each estimate equals its batch of one. A
    key on two orbits fails alone with DomainError, as the engine
    refuses such a pair.

    The value cannot depend on eta unless a zero of the interval lies
    between the contours, so the error is the spread of the two passes
    plus the worst pass error; a spread above 100 max(tol, worst pass
    error) fails with RuntimeError, which names both of its causes: a
    zero between the contours, or a pass that did not resolve its
    integrand. Returns one entry per key: its OracleEstimate, or the
    exception it fails with."""
    etas, passes, tols = [], [], []
    for det_a, det_b, z_a, z_b, mirror, tol in keys:
        # one orbit to the bit: equal gamma and omega gamma, so equal
        # radii unless both detectors are static
        if (det_a.gamma != det_b.gamma
                or det_a.omega * det_a.gamma != det_b.omega * det_b.gamma):
            etas.append(None)
            continue
        contours = _contours(det_a, det_b)
        etas.append(contours)
        passes += [(det_a, det_b, z_a, z_b, mirror, eta) for eta in contours]
        tols += [tol, tol]
    results = iter(_oracle_passes(passes, tols))
    out = []
    for (*_, tol), contours in zip(keys, etas):
        if contours is None:
            out.append(DomainError("the oracle requires both detectors on "
                                   "one orbit (equal gamma and omega "
                                   "gamma)"))
            continue
        pair = next(results), next(results)
        fail = next((res for res in pair if isinstance(res, Exception)),
                    None)
        if fail is not None:
            out.append(fail)
            continue
        spread = abs(pair[1].value - pair[0].value)
        quad_err = max(res.abs_error_estimate for res in pair)
        if spread > 100.0 * max(tol, quad_err):
            out.append(RuntimeError(
                f"the passes at eta = {contours[0]:.3g} and "
                f"{contours[1]:.3g} differ by {spread:.3g}: a zero of the "
                f"interval lies between the contours, or a pass did not "
                f"resolve its integrand"))
            continue
        out.append(OracleEstimate(
            value=complex(pair[1].value),
            error_estimate=float(spread + quad_err),
            samples=tuple((eta, complex(res.value))
                          for eta, res in zip(contours, pair)),
            evaluations=sum(res.evaluations for res in pair)))
    return out


def _pair_oracle_key(pair: PairConfig, tol: float) -> tuple:
    """The _oracle_batch key of the pair as given at a tol its public
    caller checked: detector A at height dz (0 in free space) and B at
    dz + sep."""
    z_a = pair.dz if pair.dz is not None else 0.0
    return (pair.det_a, pair.det_b, z_a, z_a + pair.sep, pair.dz is not None,
            tol)


def correlation_general_result(pair: PairConfig,
                               tol: float = 1e-7) -> OracleEstimate:
    """Definition-level C with full error bookkeeping for a pair on one
    orbit: the batch of one of _oracle_batch. A pair on two orbits
    raises DomainError, as correlation_equal does."""
    (est,) = _oracle_batch([_pair_oracle_key(pair, _require_tol(tol))])
    return _checked(est)
