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
  (_reduced_line_integrals), each started on the mesh its
  integrand needs: about 1.5 panels per period of cos(k s) and of the
  orbit's ripple on D over its range; a pole beyond the switching
  envelope lies outside its member's range, which leaves the regular
  integral. The batch's results stay arrays (quadrature's
  _principal_values) until each LineIntegral, the one result object of
  a line, is made from them with its residues.
  The direct part gives c_free, the image part c_boundary, and
  C = c_free - c_boundary. The image denominator is the direct one with
  separation L replaced by L + 2 dz. At L = 0 the image line integral
  is also the image part of one detector's response (module response).
* correlation_general_result: definition-level double quadrature,
  for unequal kinematics too; the oracle for the reduced path. The
  Wightman function is the boundary value of a function analytic while
  the imaginary part of the separation lies in the past cone (Streater
  and Wightman; for the circular orbit's complex zeros, Bell and
  Leinaas, Nucl. Phys. B 212, 131 (1983)). So instead of a regulator
  epsilon, the proper-time difference is moved off the real axis by a
  finite eta, tau_A - tau_B = s - i eta, and the unregulated
  Wightman function is taken there with no limit (_oracle).
  The response oracle of module response is the same routine: the
  response is the correlation of a detector with itself. eta comes
  from the orbits (_contours); the passes at two values, each an
  integrate_adaptive_batch call of its own (_oracle_pass), differ in eta
  and inner grid, and their spread is the error. Rows are evaluated in
  plain blocks of at most _BLOCK inner-grid elements, the Wightman
  function from the squared interval alone (_wightman_kernel), whose
  orbit part comes from the law of cosines: sines and cosines of the
  inner nodes made once per pass, and of the rows once per block. On
  equal orbits a row is the kernel at one inner node times the sum of
  the inner weights.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (CircularDetectorSpec, DomainError, _require_dz,
                         _require_sep, _require_tol)
from .quadrature import (QuadratureResult, _checked, _principal_values,
                         integrate_adaptive_batch)

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
    True when both detectors share acceleration and radius (hence the
    same orbit frequency and gamma) to 1e-12 relative.
    """

    det_a: CircularDetectorSpec
    det_b: CircularDetectorSpec
    sep: float
    dz: float | None = None
    equal_kinematics: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sep", _require_sep(self.sep))
        object.__setattr__(self, "dz", _require_dz(self.dz))
        same_radius = math.isclose(self.det_a.radius, self.det_b.radius,
                                   rel_tol=1e-12)
        same_accel = math.isclose(self.det_a.accel, self.det_b.accel,
                                  rel_tol=1e-12, abs_tol=1e-300)
        if self.sep == 0.0 and same_radius:
            raise DomainError("coincident detectors (sep = 0, equal radii) "
                              "put both worldlines on top of each other")
        object.__setattr__(self, "equal_kinematics", same_radius and same_accel)


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


def _reduced_line_integrals(keys) -> list:
    """Reduced line integrals of a list of argument tuples (L_eff, R,
    omega, gamma, k, s_env, tol): each the distributional integral of
    exp(-s^2/(4 gamma^2) + i k s)/D(s) over the real line with
    D(s) = L_eff^2 + 4 R^2 sin^2(omega s / 2) - s^2.

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
    of a single point. Returns
    one entry per key: its LineIntegral, or the exception it fails with
    (an L_eff that is not positive and finite or whose square is
    subnormal, a tol that is not positive)."""
    out: list = [None] * len(keys)
    found, poles = [], []
    for i, (L_eff, radius, omega, gamma, *_) in enumerate(keys):
        try:
            poles.append(_line_pole(L_eff, radius, omega, gamma))
            found.append(i)
        except Exception as exc:  # a member fails alone
            out[i] = exc
    L_eff, radius, omega, gamma, k, s_env, tol = np.array(
        keys, dtype=float).reshape(-1, 7)[found].T
    s0 = np.array(poles)
    r_sq = radius * radius
    inv_four_gamma_sq = 1.0 / (4.0 * gamma * gamma)
    amp, half_omega = 2.0 * r_sq * omega, 0.5 * omega

    def q(s, j):
        # D(s)/(s - s0), factored with
        # sin^2 a - sin^2 b = sin(a - b) sin(a + b)
        pole = s0[j]
        s_plus = s + pole
        return (amp[j] * np.sinc(omega[j] * (s - pole) / (2.0 * math.pi))
                * np.sin(half_omega[j] * s_plus) - s_plus)

    def g(s, j):
        return (2.0 * np.exp(-s * s * inv_four_gamma_sq[j])
                * np.cos(k[j] * s) / q(s, j))

    far = L_eff > s_env + 2.0
    band_hi = np.sqrt(L_eff * L_eff + 4.0 * r_sq)
    hi = np.where(far, s_env, np.maximum(s_env, band_hi + 2.0))
    # 1.5 panels per period of cos(k s) and of the weighted ripple
    ripple = omega * np.sqrt(np.minimum(1.0, amp / np.maximum(L_eff, 1.0)))
    n0 = np.ceil(1.5 * hi * (np.abs(k) + ripple) / (2.0 * math.pi)) + 3.0
    pvs = _principal_values(g, s0, 0.0, hi, tol, n0)
    q_pole = np.abs(q(s0, np.arange(s0.size))).tolist()
    for j, (i, value, pv_err, pv_evals, converged, pole, is_far, q0, c, kk,
            L, gam, t) in enumerate(zip(
                found, pvs.values.tolist(), pvs.errors.tolist(),
                pvs.evaluations.tolist(), pvs.converged.tolist(), poles,
                far.tolist(), q_pole, inv_four_gamma_sq.tolist(), k.tolist(),
                L_eff.tolist(), gamma.tolist(), tol.tolist())):
        if j in pvs.failures:
            out[i] = pvs.failures[j]
            continue
        if is_far:  # the residues are bounded in the error instead
            residues, evaluations = 0.0, pv_evals
            err = (pv_err + math.pi * gam * gam / (2.0 * L)
                   * math.exp(-L * L / (4.0 * gam * gam)) + t / 5.0)
        else:
            residues = (-2.0 * math.pi * math.exp(-pole * pole * c)
                        * math.sin(kk * pole) / q0)
            evaluations, err = pv_evals + 1, pv_err
        out[i] = LineIntegral(value=value + residues, abs_error_estimate=err,
                              evaluations=evaluations, converged=converged,
                              pole=pole, residues=residues, far_pole=is_far)
    return out


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


def _line_integral_args(pair: PairConfig, tol: float,
                        line_params=_line_params) -> tuple[float, list[tuple]]:
    """The prefactor of C and the argument tuples of its reduced line
    integrals: the direct one at L_eff = sep and, with a mirror, the
    image one at sep + 2 dz. Equal tuples give equal integrals, so a
    sweep evaluates each distinct tuple once. line_params is
    _line_params or a memo of it."""
    pref, shared = line_params(pair.det_a, pair.det_b, tol)
    args = [(pair.sep, *shared)]
    if pair.dz is not None:
        args.append((pair.sep + 2.0 * pair.dz, *shared))
    return pref, args


def _correlation_from_lines(pref: float,
                            lines: list[QuadratureResult]) -> CorrelationResult:
    """C from the line integrals _line_integral_args asked for: the
    direct part, then the image part when there is a mirror."""
    free = lines[0]
    c_free = pref * free.value
    err = pref * free.abs_error_estimate
    converged = free.converged

    if len(lines) == 1:
        c_boundary = 0.0 + 0.0j
    else:
        image = lines[1]
        c_boundary = pref * image.value
        err += pref * image.abs_error_estimate
        converged = converged and image.converged

    return CorrelationResult(
        c_total=complex(c_free - c_boundary),
        c_free=complex(c_free),
        c_boundary=complex(c_boundary),
        abs_error_estimate=float(err),
        converged=converged,
    )


def _require_equal_kinematics(pair: PairConfig) -> None:
    if not pair.equal_kinematics:
        raise DomainError("correlation_equal requires both detectors on the "
                          "same orbit kinematics (equal accel and radius)")


def correlation_equal(pair: PairConfig, tol: float = 1e-8) -> CorrelationResult:
    """C for a pair sharing orbit kinematics, via the folded single-integral
    reduction: one principal value plus the closed-form half residues.

    tol is an absolute tolerance on C. The direct and image integrals
    differ only by the effective separation (L versus L + 2 dz)."""
    _require_equal_kinematics(pair)
    pref, args = _line_integral_args(pair, _require_tol(tol))
    return _correlation_from_lines(
        pref, [_checked(line) for line in _reduced_line_integrals(args)])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def composite_gauss_legendre(lo: float, hi: float,
                             n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre grid on [lo, hi] with about
    n_points nodes in total: n_points/16 equal panels, rounded up."""
    panels = max(int(math.ceil(n_points / _GL_NODES.size)), 1)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    x = (mids[:, None] + halfs[:, None] * _GL_NODES[None, :]).ravel()
    w = (halfs[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


# Inner-grid elements per row block of the oracle integrand. An
# equal-orbit row is one element (_oracle_rows), so its blocks hold up
# to 8192 rows: each of the 626 rounds of the bundled oracle grids
# fits in one. An unequal-orbit block holds 8192 // n_u rows. The
# kernel works in place where it can, so its temporaries peak at 512
# KiB (tracemalloc), four complex arrays of at most 128 KiB; a whole
# equal-orbit block, row factor included, peaks at 0.9 MiB. On rows of
# 96 and 192 nodes a serial oracle_grid suite made 17-21 minor page
# faults in a fresh process after the smoke grid, as at half the
# block, and ran about 9% faster (least of five suites in each of six
# processes: 0.175-0.184 against 0.190-0.206 s of time.process_time;
# x86-64 Linux, glibc, NumPy 2.4); at twice the block it made about
# 30,000. On one-node rows it makes 21, and an oracle_corners suite
# after it 2-3.
_BLOCK = 1 << 13

# The oracle's mean proper time u runs over [-_U_CUT, _U_CUT] and the
# difference s over twice that, where the envelope exp(-u^2 - s^2/4)
# is below 5e-19.
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


def _wightman_kernel(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                     z_a: float, z_b: float, mirror: bool, u):
    """The unregulated Wightman function W between det_a at height z_a
    and det_b at z_b at tau_A = u + c and tau_B = u - c, as a function
    of c: u is real (the inner nodes), and c, complex, broadcasts
    against it. With q = dt^2 - dx^2 - dy^2 the squared interval of the
    two events, W = -1 / (4 pi^2 (q - (z_A - z_B)^2)) in free space,
    and the mirror subtracts the same term at z_B -> -z_B, so W = 0 at
    z_B = 0. q comes straight from the orbits, each at phase k tau with
    k = omega gamma from the x axis: dt = (gamma_A - gamma_B) u +
    (gamma_A + gamma_B) c, and by the law of cosines dx^2 + dy^2 =
    (R_A - R_B)^2 + 4 R_A R_B sigma^2 with sigma the sine of half the
    phase difference, sin(d u + h c) = sin(d u) cos(h c) + cos(d u)
    sin(h c), d = (k_A - k_B)/2 and h = (k_A + k_B)/2. Its u factors,
    times 2 sqrt(R_A R_B), are made once per pass over the inner grid
    and its c factors once per row block; on equal orbits (d = 0) the
    sin(d u) term is zero and is not formed. (R_A - R_B)^2 joins the
    constant height terms, and the mirror's two terms are the one
    fraction 4 z_A z_B / (4 pi^2 (q - (z_A - z_B)^2) (q - (z_A +
    z_B)^2)). A grid element takes products and one division."""
    gamma_sum = det_a.gamma + det_b.gamma
    dt_u = (det_a.gamma - det_b.gamma) * u
    k_a, k_b = det_a.omega * det_a.gamma, det_b.omega * det_b.gamma
    half_sum, half_diff = 0.5 * (k_a + k_b), 0.5 * (k_a - k_b)
    scale = 2.0 * math.sqrt(det_a.radius * det_b.radius)
    if half_diff == 0.0:
        sin_u, cos_u = None, scale
    else:
        sin_u = scale * np.sin(half_diff * u)
        cos_u = scale * np.cos(half_diff * u)
    dr_sq = (det_a.radius - det_b.radius) ** 2
    dz_sq, z_sum_sq = (z_a - z_b) ** 2 + dr_sq, (z_a + z_b) ** 2 + dr_sq
    image = 4.0 * z_a * z_b / _TWO_PI_SQ

    def kernel(c):  # in place where it can be: see _BLOCK
        sigma = cos_u * np.sin(half_sum * c)  # times 2 sqrt(R_A R_B)
        if sin_u is not None:
            sigma += sin_u * np.cos(half_sum * c)
        q = np.square(dt_u + gamma_sum * c)
        # not in place: NumPy's complex square into its own input rounds
        # by array length, which would tie the rows to their blocks
        q -= np.square(sigma)
        if mirror:
            free = q - dz_sq
            q -= z_sum_sq
            # not in place either: NumPy's in-place complex multiply
            # rounds a one-element array differently from a longer one
            q = q * free
            return np.divide(image, q, out=q)
        q -= dz_sq
        q *= _TWO_PI_SQ
        return np.divide(-1.0, q, out=q)

    return kernel


def _oracle_rows(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                 z_a: float, z_b: float, mirror: bool, eta: float, n_u: int):
    """The rows, as a function of real s, of the defining double integral
    between det_a at height z_a and det_b at z_b, with the image term
    when mirror, on the contour shifted by eta with about n_u inner nodes.

    In u = (tau_A + tau_B)/2 and real s with tau_A - tau_B = s - i eta,
    the integrand is exp(-u^2) exp(-(s - i eta)^2/4) exp(-i (gap_A -
    gap_B) u) exp(-i (gap_A + gap_B) (s - i eta)/2) times the Wightman
    function (_wightman_kernel at c = (s - i eta)/2). A row is its u
    integral on a composite Gauss-Legendre grid, the factors in u alone
    or s alone column weights and a row factor, evaluated in blocks of
    at most _BLOCK grid elements (at least one row), each from its own
    abscissa alone, so the rows do not depend on the blocks. On equal
    orbits (gamma_A = gamma_B and omega_A gamma_A = omega_B gamma_B)
    the Wightman function does not depend on u, so the grid is one
    node weighted by the sum of the weights: a row is one kernel
    value."""
    gap_a, gap_b = det_a.energy_gap, det_b.energy_gap
    u, w = composite_gauss_legendre(-_U_CUT, _U_CUT, n_u)
    weights = w * np.exp(-u * u - 1j * (gap_a - gap_b) * u)
    if (det_a.gamma == det_b.gamma
            and det_a.omega * det_a.gamma == det_b.omega * det_b.gamma):
        u, weights = u[:1], weights.sum(keepdims=True)
    step = max(_BLOCK // u.size, 1)
    kernel = _wightman_kernel(det_a, det_b, z_a, z_b, mirror, u)

    def block(s):
        ds = s - 1j * eta
        # einsum, not BLAS: no native thread pool under the process pool
        return (np.exp(-0.25 * ds * ds - 0.5j * (gap_a + gap_b) * ds)
                * np.einsum("ij,j->i", kernel(0.5 * ds[:, None]), weights))

    def rows(s):
        return np.concatenate([block(s[i:i + step])
                               for i in range(0, s.size, step)])

    return rows


def _oracle_pass(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                 z_a: float, z_b: float, mirror: bool, eta: float, n_u: int,
                 tol: float) -> QuadratureResult:
    """The integral over s of _oracle_rows to tol: a batch of one of
    integrate_adaptive_batch, adaptive GK15 over [-2 _U_CUT, 2 _U_CUT]."""
    rows = _oracle_rows(det_a, det_b, z_a, z_b, mirror, eta, n_u)
    # enough starting panels to see the phase and orbit oscillations
    s_max = 2.0 * _U_CUT
    f_s = (abs(det_a.energy_gap + det_b.energy_gap)
           + det_a.omega * det_a.gamma + det_b.omega * det_b.gamma) / 2.0 + 1.0
    n0 = int(0.25 * s_max * f_s) + 8
    (res,) = integrate_adaptive_batch(
        lambda x, _: rows(x.ravel()).reshape(x.shape), -s_max, s_max, tol,
        initial_panels=n0, max_panels=60000)
    return _checked(res)


def _oracle(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
            z_a: float, z_b: float, mirror: bool,
            tol: float) -> OracleEstimate:
    """The definition-level correlation of det_a at height z_a with det_b
    at z_b, with the image term when mirror: _oracle_pass at eta_1 on
    n_u inner nodes and at eta_2 on 2 n_u, each to tol, and the value
    of the second.

    The value cannot depend on eta unless a zero of the interval lies
    between the contours, so the error is the spread of the two passes,
    which also covers the inner grid, plus the worst pass error; a
    spread above 100 max(tol, worst pass error) raises RuntimeError.
    n_u = 96 + 16 ceil(13 f_u / 16) resolves the inner oscillation
    f_u = 4 |omega_A gamma_A - omega_B gamma_B| + |gap_A - gap_B|: the
    relative orbit phase enters the Wightman function with its
    harmonics, the phase of the gaps alone. On equal orbits the
    Wightman function does not depend on u, so a row is one kernel
    value, weighted by the grid's sum (_oracle_rows)."""
    etas = _contours(det_a, det_b)
    f_u = (4.0 * abs(det_a.omega * det_a.gamma - det_b.omega * det_b.gamma)
           + abs(det_a.energy_gap - det_b.energy_gap))
    n_u = 96 + 16 * math.ceil(2.0 * _U_CUT * f_u / 16.0)
    passes = [_oracle_pass(det_a, det_b, z_a, z_b, mirror, eta, n, tol)
              for eta, n in zip(etas, (n_u, 2 * n_u))]
    spread = abs(passes[1].value - passes[0].value)
    quad_err = max(res.abs_error_estimate for res in passes)
    if spread > 100.0 * max(tol, quad_err):
        raise RuntimeError(f"the passes at eta = {etas[0]:.3g} and "
                           f"{etas[1]:.3g} differ by {spread:.3g}: a zero "
                           f"of the interval lies between the contours")
    return OracleEstimate(
        value=complex(passes[1].value),
        error_estimate=float(spread + quad_err),
        samples=tuple((eta, complex(res.value))
                      for eta, res in zip(etas, passes)),
        evaluations=sum(res.evaluations for res in passes),
    )


def correlation_general_result(pair: PairConfig,
                               tol: float = 1e-7) -> OracleEstimate:
    """Definition-level C with full error bookkeeping, for unequal
    kinematics too: _oracle of the pair as given, detector A at height
    dz (0 in free space) and B at dz + sep."""
    z_a = pair.dz if pair.dz is not None else 0.0
    return _oracle(pair.det_a, pair.det_b, z_a, z_a + pair.sep,
                   pair.dz is not None, _require_tol(tol))
