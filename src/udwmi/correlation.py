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
  plus the closed-form half residues, and C comes out real. The direct
  part gives c_free, the image part c_boundary, and
  C = c_free - c_boundary. The image denominator is the direct one with
  separation L replaced by L + 2 dz. At L = 0 the image line integral
  is also the image part of one detector's response (module response).
* correlation_general_result: definition-level double quadrature in
  coordinate times with the regulator epsilon kept finite, repeated on
  the fixed ladder DEFAULT_EPSILONS and extrapolated to zero. Works for
  unequal kinematics and serves as the oracle for the reduced path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kinematics import (CircularDetectorSpec, DomainError, SpacetimePoint,
                         trajectory_point)
from .quadrature import (QuadratureResult, epsilon_extrapolate,
                         find_root_bracketed, integrate_adaptive,
                         principal_value_integral)

__all__ = [
    "PairConfig",
    "CorrelationResult",
    "OracleEstimate",
    "DEFAULT_EPSILONS",
    "wightman_boundary",
    "wightman_free",
    "correlation_equal",
    "correlation_general_result",
]

# the regulator ladder of both oracles, largest first
DEFAULT_EPSILONS = (1e-3, 5e-4, 2.5e-4)

_TWO_PI_SQ = 4.0 * math.pi * math.pi


def wightman_free(p1: SpacetimePoint, p2: SpacetimePoint,
                  epsilon: float) -> complex | np.ndarray:
    """Free massless scalar Wightman function W(p1, p2), regulated by
    epsilon > 0 in the time difference. Fields may be arrays."""
    dt = p1.t - p2.t
    q = (dt - 1j * epsilon) ** 2 - (p1.x - p2.x) ** 2 - (p1.y - p2.y) ** 2
    return -1.0 / (_TWO_PI_SQ * (q - (p1.z - p2.z) ** 2))


def wightman_boundary(p1: SpacetimePoint, p2: SpacetimePoint,
                      epsilon: float) -> complex | np.ndarray:
    """Wightman function with a Dirichlet plane at z = 0: the free part
    minus the image of the second point, regulated by epsilon > 0."""
    dt = p1.t - p2.t
    q = (dt - 1j * epsilon) ** 2 - (p1.x - p2.x) ** 2 - (p1.y - p2.y) ** 2
    direct = 1.0 / (q - (p1.z - p2.z) ** 2)
    image = 1.0 / (q - (p1.z + p2.z) ** 2)
    return -(direct - image) / _TWO_PI_SQ


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
        if not math.isfinite(self.sep) or self.sep < 0.0:
            raise DomainError(f"sep must be finite and >= 0, got {self.sep}")
        if self.dz is not None and (not math.isfinite(self.dz) or self.dz <= 0.0):
            raise DomainError(f"dz must be positive when present, got {self.dz}")
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
    """Epsilon-extrapolated oracle value with its error bookkeeping."""

    value: complex
    error_estimate: float
    samples: tuple[tuple[float, complex], ...]
    monotone: bool


def _epsilon_ladder(single_pass, tol: float,
                    extra_error: float = 0.0) -> OracleEstimate:
    """An oracle's regulated passes extrapolated to epsilon -> 0.

    single_pass(eps) returns the QuadratureResult of one finite-epsilon
    pass; it runs once per epsilon of DEFAULT_EPSILONS, largest first.
    The error is 3 times the extrapolation residual plus the worst pass
    error plus extra_error. A ladder that is not monotone and whose
    residual exceeds 100 max(tol, worst pass error) raises RuntimeError."""
    samples = []
    quad_err = 0.0
    for eps in DEFAULT_EPSILONS:
        res = single_pass(eps)
        samples.append((eps, complex(res.value)))
        quad_err = max(quad_err, res.abs_error_estimate)

    extrap = epsilon_extrapolate(samples)
    if not extrap.monotone and extrap.residual > 100.0 * max(tol, quad_err):
        raise RuntimeError("epsilon ladder did not converge "
                           f"(residual {extrap.residual:.3g})")
    error = 3.0 * extrap.residual + quad_err + extra_error
    return OracleEstimate(
        value=extrap.value,
        error_estimate=float(error),
        samples=tuple(samples),
        monotone=extrap.monotone,
    )


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


def _reduced_line_integral(L_eff: float, radius: float, omega: float,
                           gamma: float, k: float, s_env: float,
                           tol: float) -> LineIntegral:
    """Distributional integral of exp(-s^2/(4 gamma^2) + i k s)/D(s) over
    the real line with D(s) = L_eff^2 + 4 R^2 sin^2(omega s / 2) - s^2.

    D decreases strictly on s > 0 (since 2 R^2 omega sin(omega s) <=
    2 v^2 s < 2 s), so it has exactly one positive zero s0, a simple one,
    mirrored at -s0 and confined to L_eff <= s0 <= sqrt(L_eff^2 + 4 R^2).
    D is even, so the integral folds onto s >= 0 as the principal value
    of 2 exp(-s^2/(4 gamma^2)) cos(k s)/D(s). The regulator pushed the
    poles such that the half-residue sign is sign(s0); the pair sums to
    -2 pi exp(-s0^2/(4 gamma^2)) sin(k s0)/|D'(s0)|. The value is real.
    """
    if L_eff <= 0.0:
        raise DomainError("effective separation must be positive")
    r_sq = radius * radius
    inv_four_gamma_sq = 1.0 / (4.0 * gamma * gamma)

    def folded_num(s):
        return 2.0 * np.exp(-s * s * inv_four_gamma_sq) * np.cos(k * s)

    def D(s):
        return L_eff * L_eff + 4.0 * r_sq * np.sin(0.5 * omega * s) ** 2 - s * s

    band_hi = math.sqrt(L_eff * L_eff + 4.0 * r_sq)
    # a few ulps wider: when 4 R^2 is near an ulp of L_eff^2, D(band_hi)
    # can round to the positive D(L_eff) and lose the sign change
    s0 = find_root_bracketed(D, L_eff, band_hi + 8.0 * math.ulp(band_hi))

    if L_eff > s_env + 2.0:
        # poles sit far outside the switching envelope: integrate the
        # regular restriction and bound the ignored residues
        res = integrate_adaptive(lambda s: folded_num(s) / D(s), 0.0, s_env, tol)
        ignored = (math.pi * gamma * gamma / (2.0 * L_eff)
                   * math.exp(-L_eff * L_eff / (4.0 * gamma * gamma)))
        return LineIntegral(
            value=res.value,
            abs_error_estimate=res.abs_error_estimate + ignored + tol / 5.0,
            evaluations=res.evaluations,
            converged=res.converged,
            pole=s0,
            far_pole=True,
        )

    def q(s):
        # D(s)/(s - s0), factored with sin^2 a - sin^2 b = sin(a-b) sin(a+b)
        return (2.0 * r_sq * omega * np.sinc(omega * (s - s0) / (2.0 * math.pi))
                * np.sin(0.5 * omega * (s + s0)) - (s + s0))

    pv = principal_value_integral(lambda s: folded_num(s) / q(s), s0, 0.0,
                                  max(s_env, band_hi + 2.0), tol)
    residues = (-2.0 * math.pi * math.exp(-s0 * s0 * inv_four_gamma_sq)
                * math.sin(k * s0) / abs(float(q(s0))))
    return LineIntegral(
        value=pv.value + residues,
        abs_error_estimate=pv.abs_error_estimate,
        evaluations=pv.evaluations + 1,
        converged=pv.converged,
        pole=s0,
        residues=residues,
    )


def _line_params(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                 tol: float) -> tuple[float, tuple]:
    """The prefactor of the C between det_a and det_b, both on det_a's
    orbit, and the arguments after L_eff that its reduced line integrals
    share: (radius, omega, gamma, k, s_env, tol_int) for a budget tol."""
    gamma = det_a.gamma
    gap_a, gap_b = det_a.energy_gap, det_b.energy_gap
    dgap = gap_b - gap_a

    pref = math.exp(-0.25 * dgap * dgap) / (4.0 * math.pi ** 1.5 * gamma)
    k = (gap_a + gap_b) / (2.0 * gamma)

    # switching envelope support: beyond s_env the envelope is below tol/10
    s_env = 2.0 * gamma * math.sqrt(max(-math.log(tol / 10.0), 1.0)) + 2.0
    tol_int = tol / max(pref, 1e-300) / 2.0
    # a static orbit's D = L_eff^2 - s^2 has no R in it, so neither may
    # the pole bracket or the principal-value range
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


def correlation_equal(pair: PairConfig, tol: float = 1e-8) -> CorrelationResult:
    """C for a pair sharing orbit kinematics, via the folded single-integral
    reduction: one principal value plus the closed-form half residues.

    tol is an absolute tolerance on C. The direct and image integrals
    differ only by the effective separation (L versus L + 2 dz)."""
    if not pair.equal_kinematics:
        raise DomainError("correlation_equal requires both detectors on the "
                          "same orbit kinematics (equal accel and radius)")
    pref, args = _line_integral_args(pair, tol)
    return _correlation_from_lines(
        pref, [_reduced_line_integral(*a) for a in args])


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


def _correlation_single_epsilon(pair: PairConfig, eps: float, tol: float,
                                n_u: int) -> QuadratureResult:
    """One finite-epsilon evaluation of the defining double integral.

    Outer adaptive integral over the coordinate-time difference s; inner
    fixed composite Gauss-Legendre grid over the mean coordinate time u.
    The detectors are evaluated on their own worldlines through the
    trajectory map, so no reduction algebra enters here."""
    da, db = pair.det_a, pair.det_b
    ga, gb = da.gamma, db.gamma
    za = pair.dz if pair.dz is not None else 0.0
    zb = za + pair.sep
    wight = wightman_free if pair.dz is None else wightman_boundary
    gap_a, gap_b = da.energy_gap, db.energy_gap

    u_cut = 7.5 * gb + 1.0
    u_nodes, u_weights = composite_gauss_legendre(-u_cut, u_cut, n_u)
    jac = 1.0 / (ga * gb)

    def outer(s_flat):
        s = s_flat[:, None]
        t = u_nodes[None, :]
        tp = t - s
        pb = trajectory_point(db, zb, t / gb)
        pa = trajectory_point(da, za, tp / ga)
        w = wight(pa, pb, eps)
        gauss = np.exp(-t * t / (2.0 * gb * gb) - tp * tp / (2.0 * ga * ga))
        phase = np.exp(1j * (gap_b * t / gb - gap_a * tp / ga))
        # einsum, not BLAS: no native thread pool under the process pool
        return jac * np.einsum("ij,j->i", gauss * phase * w, u_weights)

    s_max = 7.0 * (ga + gb) + 2.0
    # enough starting panels to see the orbit and phase oscillations
    f_s = da.omega + abs(gap_a) / ga + 0.5
    n0 = min(int(2.0 * s_max * f_s) + 32, 4096)
    return integrate_adaptive(outer, -s_max, s_max, tol,
                              initial_panels=n0, max_panels=60000)


def correlation_general_result(pair: PairConfig,
                               tol: float = 1e-7) -> OracleEstimate:
    """Definition-level C with full error bookkeeping.

    Evaluates the double integral at each epsilon of DEFAULT_EPSILONS
    and extrapolates to zero through _epsilon_ladder. The inner time
    grid is first doubled at the largest epsilon until two passes agree;
    their last difference is added to the ladder's error estimate."""
    da, db = pair.det_a, pair.det_b
    ga, gb = da.gamma, db.gamma
    sigma_u = ga * gb / math.sqrt(ga * ga + gb * gb)
    u_cut = 7.5 * gb + 1.0
    f_u = abs(da.omega - db.omega) + abs(db.energy_gap / gb - da.energy_gap / ga)
    n_u = max(96, int(2.0 * u_cut * (0.7 * f_u + 6.0 / sigma_u)) + 16)
    n_u = min(n_u, 8000)

    eps_hi = DEFAULT_EPSILONS[0]
    grid_err = math.inf
    coarse = _correlation_single_epsilon(pair, eps_hi, tol, n_u)
    for _ in range(3):
        fine = _correlation_single_epsilon(pair, eps_hi, tol, 2 * n_u)
        grid_err = abs(fine.value - coarse.value)
        if grid_err <= max(10.0 * tol, 1e-9):
            break
        n_u *= 2
        coarse = fine
    else:
        warnings.warn("inner time grid did not stabilize; the integrand "
                      "poles may be under-resolved", RuntimeWarning)

    # the grid check above left coarse as the eps_hi pass at this n_u
    return _epsilon_ladder(
        lambda eps: (coarse if eps == eps_hi
                     else _correlation_single_epsilon(pair, eps, tol, n_u)),
        tol, grid_err)
