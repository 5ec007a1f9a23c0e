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
  integrals of a batch are the members of one principal_value_batch
  call (_line_batch); a pole beyond the switching envelope lies outside
  its member's range, which leaves the regular integral. The
  direct part gives c_free, the image part c_boundary, and
  C = c_free - c_boundary. The image denominator is the direct one with
  separation L replaced by L + 2 dz. At L = 0 the image line integral
  is also the image part of one detector's response (module response).
* correlation_general_result: definition-level double quadrature in
  coordinate times with the regulator epsilon kept finite, repeated on
  the fixed ladder DEFAULT_EPSILONS and extrapolated to zero. Works for
  unequal kinematics and serves as the oracle for the reduced path.
  The rungs of the ladder are the members of one lockstep batch
  (_ladder_passes, shared with the response oracle), each with its own
  mesh; then the inner time grid is checked by one pass of the first
  rung on the doubled grid. In each round the batch integrand evaluates
  every distinct panel once: its worldline events through
  trajectory_point, their time difference, squared interval and
  switching envelope, in blocks of at most _ORACLE_BLOCK inner-grid
  elements; then each rung that asked for the panel adds its regulated
  Wightman function in real arithmetic (_wightman_parts, checked
  against wightman_free and wightman_boundary). A block's temporaries
  are buffers that the batch allocates once and reuses. The phase
  factors that depend on s alone or on the inner time alone are
  applied as row and column vectors. Each row is reduced alone, so a
  rung's value depends neither on the block size nor on the other
  rungs.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .kinematics import (CircularDetectorSpec, DomainError, SpacetimePoint,
                         trajectory_point)
from .quadrature import (QuadratureResult, _checked, epsilon_extrapolate,
                         integrate_adaptive_batch, principal_value_batch)

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


def _wightman_parts(cone, dt, eps: float, mirror: float | None = None,
                    scratch=None):
    """The real and imaginary parts of -4 pi^2 times the regulated
    Wightman function, in real arithmetic: wightman_free of two events
    dt apart in time and cone = dt^2 - |dx|^2, or with mirror =
    (z1 + z2)^2 - (z1 - z2)^2 = 4 z1 z2, the image event's extra squared
    distance, wightman_boundary. With q = (dt - i eps)^2 - |dx|^2 =
    a - i b, a = cone - eps^2 and b = 2 eps dt, 1/q = (a + i b)/(a^2 +
    b^2). Fields may be arrays. The parts are computed in scratch(name),
    a float array of cone's shape per name (_ladder_passes's reused
    buffers; by default new arrays), and returned as two of them."""
    if scratch is None:
        def scratch(_name):
            return np.empty(np.shape(cone))
    a = np.subtract(cone, eps * eps, out=scratch("a"))
    b = np.multiply(2.0 * eps, dt, out=scratch("b"))
    b_sq = np.multiply(b, b, out=scratch("b_sq"))
    inv = np.multiply(a, a, out=scratch("inv"))
    np.divide(1.0, np.add(inv, b_sq, out=inv), out=inv)
    if mirror is None:
        return np.multiply(a, inv, out=a), np.multiply(b, inv, out=b)
    a_image = np.subtract(a, mirror, out=scratch("a_image"))
    inv_image = np.multiply(a_image, a_image, out=scratch("inv_image"))
    np.divide(1.0, np.add(inv_image, b_sq, out=inv_image), out=inv_image)
    re = np.subtract(np.multiply(a, inv, out=a),
                     np.multiply(a_image, inv_image, out=a_image), out=a)
    return re, np.multiply(b, np.subtract(inv, inv_image, out=inv), out=b)


def _interval(p1: SpacetimePoint, p2: SpacetimePoint, scratch):
    """The time difference dt = t1 - t2 of two events and dt^2 - (dx^2 +
    dy^2), computed in the buffers scratch("dt"), scratch("cone"),
    scratch("dx") and scratch("dy")."""
    dt = np.subtract(p1.t, p2.t, out=scratch("dt"))
    dx = np.subtract(p1.x, p2.x, out=scratch("dx"))
    dy = np.subtract(p1.y, p2.y, out=scratch("dy"))
    np.add(np.multiply(dx, dx, out=dx), np.multiply(dy, dy, out=dy), out=dx)
    cone = np.multiply(dt, dt, out=scratch("cone"))
    return dt, np.subtract(cone, dx, out=cone)


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
    """Epsilon-extrapolated oracle value with its error bookkeeping;
    evaluations counts the outer integrand evaluations of every
    regulated pass the oracle ran."""

    value: complex
    error_estimate: float
    samples: tuple[tuple[float, complex], ...]
    monotone: bool
    evaluations: int


def _epsilon_ladder(passes, tol: float,
                    extra_error: float = 0.0) -> OracleEstimate:
    """An oracle's regulated passes extrapolated to epsilon -> 0.

    passes are the QuadratureResults of the finite-epsilon passes at
    DEFAULT_EPSILONS, in its order (largest first), as one lockstep
    batch of the rungs gives them. The error is 3 times the
    extrapolation residual plus the worst pass error plus extra_error;
    the evaluations are summed over the passes. A ladder that is not
    monotone and whose residual exceeds 100 max(tol, worst pass error)
    raises RuntimeError."""
    samples = []
    quad_err = 0.0
    for eps, res in zip(DEFAULT_EPSILONS, passes, strict=True):
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
        evaluations=sum(res.evaluations for res in passes),
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


# Line keys per lockstep batch. Memory grows with the batch (its first
# round evaluates 240 abscissae per key), so a longer list runs as
# several batches; every bundled preset fits in one. A serial 4000-point
# onset curve (12001 keys) peaks at 108 MB RSS in batches of this size
# and at 191 MB as one batch, about 9 kB more per key (x86-64 Linux,
# NumPy 2.4).
_LINE_BATCH = 1024


def _reduced_line_integrals(keys) -> list:
    """Reduced line integrals of a list of argument tuples (L_eff, R,
    omega, gamma, k, s_env, tol), as _line_batch computes them, in
    lockstep batches of at most _LINE_BATCH keys."""
    return [line for c in range(0, len(keys), _LINE_BATCH)
            for line in _line_batch(keys[c:c + _LINE_BATCH])]


def _line_batch(keys) -> list:
    """Reduced line integrals of a batch of argument tuples (L_eff, R,
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
    principal_value_batch call, g = 2 exp(-s^2/(4 gamma^2)) cos(k s)/q(s)
    with q = D/(s - s0) factored, so each equals its batch of one. Its
    range is [0, max(s_env, sqrt(L_eff^2 + 4 R^2) + 2)], and the half
    residues are added; a pole far beyond the switching envelope
    (L_eff > s_env + 2) lies outside the range [0, s_env] of its regular
    integral, and the residues are bounded in the error instead. Returns
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
        keys, dtype=float)[found].T
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
    pvs = principal_value_batch(g, s0, 0.0, hi, tol)
    q_pole = np.abs(q(s0, np.arange(s0.size))).tolist()
    for i, pv, pole, is_far, q0, c, kk, L, gam, t in zip(
            found, pvs, poles, far.tolist(), q_pole,
            inv_four_gamma_sq.tolist(), k.tolist(), L_eff.tolist(),
            gamma.tolist(), tol.tolist()):
        if isinstance(pv, Exception):
            out[i] = pv
            continue
        if is_far:  # the residues are bounded in the error instead
            residues, evaluations = 0.0, pv.evaluations
            err = (pv.abs_error_estimate + math.pi * gam * gam / (2.0 * L)
                   * math.exp(-L * L / (4.0 * gam * gam)) + t / 5.0)
        else:
            residues = (-2.0 * math.pi * math.exp(-pole * pole * c)
                        * math.sin(kk * pole) / q0)
            evaluations, err = pv.evaluations + 1, pv.abs_error_estimate
        out[i] = LineIntegral(value=pv.value + residues,
                              abs_error_estimate=err, evaluations=evaluations,
                              converged=pv.converged, pole=pole,
                              residues=residues, far_pole=is_far)
    return out


def _reduced_line_integral(*key) -> LineIntegral:
    """The reduced line integral of one argument tuple: the batch of one
    of _reduced_line_integrals."""
    return _checked(_reduced_line_integrals([key])[0])


def _line_params(det_a: CircularDetectorSpec, det_b: CircularDetectorSpec,
                 tol: float) -> tuple[float, tuple]:
    """The prefactor of the C between det_a and det_b, both on det_a's
    orbit, and the arguments after L_eff that its reduced line integrals
    share: (radius, omega, gamma, k, s_env, tol_int) for a budget tol."""
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
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
    pref, args = _line_integral_args(pair, tol)
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


# Inner-grid elements per oracle block. A batch keeps a block's
# temporaries in about a dozen buffers of this size (under 1 MB), made
# once; of its arrays of this size, only trajectory_point's are made per
# block. One serial oracle_grid suite pass per fresh process, sizes
# interleaved (x86-64 Linux, glibc malloc, NumPy 2.4): 2^13 took a
# median 3.19 s CPU over 20 runs against 3.80 s at 2^12 (faster than
# the 2^12 run before it in 17 of 20) and 3.39 s at 2^14 over 12, whose
# 128 KiB arrays glibc maps and unmaps per block (about 200k minor
# faults per pass, against 6k at 2^12 and 16k-83k at 2^13).
_ORACLE_BLOCK = 1 << 13


def _ladder_passes(block_factors, epsilons, mirror: float | None,
                   n_inner: int, s_max: float, n0: int,
                   tol: float) -> list[QuadratureResult]:
    """An oracle's passes, one per entry of epsilons: the rungs of its
    epsilon ladder as the members of one lockstep batch over [-s_max,
    s_max], each to tol from n0 initial panels (at most 60000).

    The rungs share most of their panels in each round, so the batch
    integrand f evaluates the epsilon-independent factors of each
    distinct panel once, in blocks of at most _ORACLE_BLOCK inner-grid
    elements (at least one abscissa): block_factors(s, scratch) returns,
    for a 1-D block s of distinct abscissae, the time difference dt and
    cone = dt^2 - |dx|^2 of the two events on the (len(s), n_inner)
    grid, the switching envelope times the inner weights on that grid
    (complex when the inner grid carries a phase), and a row factor. A
    rung's integrand is the row factor times the row sums of the
    envelope times its regulated Wightman function (_wightman_parts with
    mirror). Every abscissa is computed from its own row alone, so a
    rung's values depend neither on the block size nor on the other
    rungs.

    The block temporaries are allocated once per batch and reused by
    every block of every round: scratch(name, dtype=float) is the
    block's (len(s), n_inner) view of the batch's buffer of that name.
    block_factors leaves its results in buffers that _wightman_parts
    does not use."""
    step = max(_ORACLE_BLOCK // n_inner, 1)
    buffers: dict[str, np.ndarray] = {}

    def views(rows):
        def scratch(name, dtype=float):
            if name not in buffers:
                buffers[name] = np.empty((step, n_inner), dtype)
            return buffers[name][:rows]
        return scratch

    def f(x, owner):
        n_nodes = x.shape[1]
        # equal panels sort next to each other; a panel is new unless it
        # equals the one before it node for node
        order = np.argsort(x[:, 0], kind="stable")
        panels = x[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (panels[1:] != panels[:-1]).any(axis=1)
        s = panels[new].ravel()
        # where[r, p]: the row of x at which rung r asks for distinct
        # panel p, or -1 (a rung's panels are disjoint)
        where = np.full((len(epsilons), s.size // n_nodes), -1)
        where[owner.reshape(-1)[order], np.cumsum(new) - 1] = order
        rungs = np.unique(owner).tolist()
        out = np.empty(x.shape, dtype=complex)
        flat = out.reshape(-1)
        for i in range(0, s.size, step):
            block = s[i:i + step]
            scratch = views(block.size)
            dt, cone, envelope, row = block_factors(block, scratch)
            panel, node = np.divmod(np.arange(i, i + block.size), n_nodes)
            for r in rungs:
                pos = where[r, panel]
                hit = pos >= 0
                if not hit.any():
                    continue
                re, im = _wightman_parts(cone, dt, epsilons[r], mirror,
                                         scratch)
                # einsum, not BLAS: no native thread pool under the
                # process pool
                vals = row * (np.einsum("ij,ij->i", envelope, re)
                              + 1j * np.einsum("ij,ij->i", envelope, im))
                if hit.all():
                    flat[pos * n_nodes + node] = vals
                else:
                    flat[pos[hit] * n_nodes + node[hit]] = vals[hit]
        return out

    return [_checked(res) for res in integrate_adaptive_batch(
        f, -s_max, s_max, [tol] * len(epsilons), initial_panels=n0,
        max_panels=60000)]


def _correlation_passes(pair: PairConfig, epsilons, tol: float,
                        n_u: int) -> list[QuadratureResult]:
    """Finite-epsilon evaluations of the defining double integral, one
    per epsilon, as the members of one lockstep batch.

    Outer adaptive integral over the coordinate-time difference s; inner
    fixed composite Gauss-Legendre grid over the mean coordinate time u.
    The detectors are evaluated on their own worldlines through the
    trajectory map, so no reduction algebra enters here. Each pass
    keeps its own mesh, so it equals the batch of one at its epsilon."""
    da, db = pair.det_a, pair.det_b
    ga, gb = da.gamma, db.gamma
    za = pair.dz if pair.dz is not None else 0.0
    zb = za + pair.sep
    gap_a, gap_b = da.energy_gap, db.energy_gap

    u_cut = 7.5 * gb + 1.0
    t, u_weights = composite_gauss_legendre(-u_cut, u_cut, n_u)
    # B's factors depend on the inner grid alone, so every row shares
    # them; the phase exp(i (gap_b t/gb - gap_a (t - s)/ga)) separates
    # into a column factor, folded into the weights, and a row factor
    pb = trajectory_point(db, zb, t / gb)
    gauss_b = -t * t / (2.0 * gb * gb)
    kappa = gap_b / gb - gap_a / ga
    weights = (u_weights if kappa == 0.0
               else u_weights * np.exp(1j * kappa * t))
    row_scale = -1.0 / (_TWO_PI_SQ * ga * gb)
    dz_sq = (za - zb) ** 2
    mirror = None if pair.dz is None else 4.0 * za * zb

    def block_factors(s, scratch):
        tp = np.subtract(t, s[:, None], out=scratch("tp"))
        pa = trajectory_point(da, za, np.divide(tp, ga, out=scratch("tau")))
        dt, cone = _interval(pa, pb, scratch)
        np.subtract(cone, dz_sq, out=cone)
        # exp(gauss_b - tp^2 / (2 ga^2)) times the weights
        np.divide(np.multiply(tp, tp, out=tp), 2.0 * ga * ga, out=tp)
        np.exp(np.subtract(gauss_b, tp, out=tp), out=tp)
        envelope = np.multiply(tp, weights,
                               out=scratch("envelope", weights.dtype))
        row = row_scale * np.exp(1j * gap_a * s / ga)
        return dt, cone, envelope, row

    s_max = 7.0 * (ga + gb) + 2.0
    # enough starting panels to see the orbit and phase oscillations
    f_s = da.omega + abs(gap_a) / ga + 0.5
    n0 = min(int(2.0 * s_max * f_s) + 32, 4096)
    return _ladder_passes(block_factors, epsilons, mirror, t.size, s_max, n0,
                          tol)


def correlation_general_result(pair: PairConfig,
                               tol: float = 1e-7) -> OracleEstimate:
    """Definition-level C with full error bookkeeping.

    Evaluates the double integral at each epsilon of DEFAULT_EPSILONS
    and extrapolates to zero through _epsilon_ladder. The rungs run as
    one batch on the first inner time grid; then the first rung (the
    largest epsilon) is checked against a pass on the doubled grid. When
    they differ, the grid doubles: that pass becomes the first rung and
    the other rungs run again on the new grid, for at most three
    checks. The last difference is added to the ladder's error
    estimate, and every pass that ran counts in its evaluations."""
    da, db = pair.det_a, pair.det_b
    ga, gb = da.gamma, db.gamma
    sigma_u = ga * gb / math.sqrt(ga * ga + gb * gb)
    u_cut = 7.5 * gb + 1.0
    f_u = abs(da.omega - db.omega) + abs(db.energy_gap / gb - da.energy_gap / ga)
    n_u = max(96, int(2.0 * u_cut * (0.7 * f_u + 6.0 / sigma_u)) + 16)
    n_u = min(n_u, 8000)

    rungs = _correlation_passes(pair, DEFAULT_EPSILONS, tol, n_u)
    evaluations = 0  # of the passes the ladder does not use
    for _ in range(3):
        (fine,) = _correlation_passes(pair, DEFAULT_EPSILONS[:1], tol, 2 * n_u)
        grid_err = abs(fine.value - rungs[0].value)
        if grid_err <= max(10.0 * tol, 1e-9):
            evaluations += fine.evaluations
            break
        n_u *= 2
        evaluations += sum(res.evaluations for res in rungs)
        rungs = [fine, *_correlation_passes(pair, DEFAULT_EPSILONS[1:], tol,
                                            n_u)]
    else:
        warnings.warn("inner time grid did not stabilize; the integrand "
                      "poles may be under-resolved", RuntimeWarning)

    est = _epsilon_ladder(rungs, tol, grid_err)
    return replace(est, evaluations=est.evaluations + evaluations)
