"""Quadrature, principal values, root bracketing and extrapolation.

Every integrator here takes vectorized callables: f(x) receives a numpy
array and must return an array of the same shape (real or complex values
are both fine). Results carry an absolute error estimate, the number of
integrand evaluations, and an honest converged flag; non-convergence is
reported through the flag, never silently.

Singular denominators are handled by two independent strategies so the
physics layers can cross check one against the other:

* the production route has one principal-value routine,
  principal_value_integral: the caller proves its pole simple, locates
  it with find_root_bracketed, factors it out of the denominator, and
  adds the half residues in closed form;
* the oracle route keeps the regulator epsilon finite, integrates the
  smooth regularized integrand on a geometric epsilon ladder, and
  extrapolates the ladder to epsilon -> 0 (epsilon_extrapolate).

Adaptive panels use the Gauss-Kronrod 7/15 pair; panel refinement splits
every panel whose error exceeds an equidistributed share of the budget,
so batches of new panels are evaluated in single vectorized calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .kinematics import DomainError

__all__ = [
    "QuadratureResult",
    "ExtrapolationResult",
    "integrate_adaptive",
    "integrate_semiinfinite_gaussian",
    "gaussian_truncation_point",
    "principal_value_integral",
    "epsilon_extrapolate",
    "find_root_bracketed",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral with honest error bookkeeping.

    converged means the accumulated error estimate met the requested
    tolerance; the estimate itself is reported either way.
    """

    value: complex | float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class ExtrapolationResult:
    """Limit of a sampled epsilon ladder at epsilon -> 0.

    residual is the change produced by the final extrapolation order and
    serves as the error estimate; monotone records whether successive
    extrapolation orders kept shrinking that change.
    """

    value: complex
    residual: float
    monotone: bool


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (the QUADPACK dqk15 pair).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WGK[:7], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])  # Gauss nodes interleave

_EPS = np.finfo(float).eps


def _gk15_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GK15 pair on a batch of panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    vals_k = (y * _WEIGHTS_K).sum(axis=1) * half
    vals_g = (y * _WEIGHTS_G).sum(axis=1) * half
    err = np.abs(vals_k - vals_g)
    # Magnitude of the panel contribution, for roundoff accounting.
    mag = (np.abs(y) * _WEIGHTS_K).sum(axis=1) * np.abs(half)
    return vals_k, err, mag


def integrate_adaptive(f, lo: float, hi: float, tol: float, *,
                       max_panels: int = 20000,
                       initial_panels: int = 8) -> QuadratureResult:
    """Globally adaptive GK15 quadrature of a vectorized integrand.

    f must map a numpy array of abscissae to an equally shaped array of
    values. tol is an absolute tolerance on the integral. The reported
    error estimate includes a roundoff floor, so converged=True implies
    the estimate met tol honestly.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi <= lo:
        raise DomainError(f"empty or inverted interval [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    edges = np.linspace(lo, hi, max(int(initial_panels), 1) + 1)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals, errs, mags = _gk15_panels(f, a, b)
    evaluations = 15 * a.size

    width_floor = 64.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    for _ in range(200):
        total_err = errs.sum()
        if total_err <= tol or a.size >= max_panels:
            break
        threshold = tol / max(a.size, 8)
        mask = (errs > threshold) & ((b - a) > width_floor)
        if not mask.any():
            worst = int(np.argmax(errs))
            if b[worst] - a[worst] <= width_floor:
                break
            mask[worst] = True
        am, bm = a[mask], b[mask]
        mid = 0.5 * (am + bm)
        new_a = np.concatenate([am, mid])
        new_b = np.concatenate([mid, bm])
        new_vals, new_errs, new_mags = _gk15_panels(f, new_a, new_b)
        evaluations += 15 * new_a.size
        a = np.concatenate([a[~mask], new_a])
        b = np.concatenate([b[~mask], new_b])
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
        mags = np.concatenate([mags[~mask], new_mags])

    order = np.argsort(a, kind="stable")
    value = vals[order].sum()
    roundoff = 50.0 * _EPS * mags.sum()
    total_err = float(errs.sum() + roundoff)
    if np.iscomplexobj(vals):
        value = complex(value)
    else:
        value = float(value)
    return QuadratureResult(
        value=value,
        abs_error_estimate=total_err,
        evaluations=evaluations,
        converged=total_err <= tol,
    )


def gaussian_truncation_point(alpha: float, tol: float) -> float:
    """Upper cutoff for integrands bounded by a Gaussian exp(-alpha x^2).

    Chosen so the discarded tail is below tol/10, with a fixed margin of
    six Gaussian widths on top.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    tol_trunc = max(tol / 10.0, 1e-300)
    return math.sqrt(max(-math.log(tol_trunc), 1.0) / alpha) + 6.0 / math.sqrt(alpha)


def integrate_semiinfinite_gaussian(f, alpha: float, tol: float, *,
                                    initial_panels: int = 8) -> QuadratureResult:
    """Integral of f over [0, inf) for f bounded by a Gaussian envelope.

    f must decay at least like exp(-alpha x^2) times a slowly varying
    factor. The integral is truncated at gaussian_truncation_point and the
    truncation remainder is folded into the error estimate.
    """
    x_max = gaussian_truncation_point(alpha, tol)
    res = integrate_adaptive(f, 0.0, x_max, tol,
                             initial_panels=initial_panels)
    # Tail bound: sample the envelope-compensated magnitude near the cutoff.
    xs = np.array([0.90, 0.95, 1.0]) * x_max
    fs = np.abs(np.asarray(f(xs)))
    scale = float(np.max(fs * np.exp(alpha * xs * xs)))
    tail = 0.5 * math.sqrt(math.pi / alpha) * math.erfc(math.sqrt(alpha) * x_max)
    trunc_err = scale * tail
    total_err = res.abs_error_estimate + trunc_err
    return QuadratureResult(
        value=res.value,
        abs_error_estimate=total_err,
        evaluations=res.evaluations + 3,
        converged=total_err <= tol,
    )


def principal_value_integral(g, pole: float, lo: float, hi: float,
                             tol: float) -> QuadratureResult:
    """Cauchy principal value of g(x)/(x - pole) over [lo, hi] for a
    smooth g (the contract of QUADPACK's QAWC).

    Subtracts g(pole)/(x - pole), integrates the smooth remainder on
    [lo, pole] and [pole, hi] (Gauss-Kronrod nodes are interior, so none
    lands on the pole), and adds back g(pole) ln((hi - pole)/(pole - lo)).
    Callers with a denominator D(x) pass g = f/q with q = D/(x - pole)
    in factored form; dividing D by (x - pole) numerically would cancel
    catastrophically next to the pole.
    """
    if not lo < pole < hi:
        raise DomainError(f"pole {pole} not inside ({lo}, {hi})")
    g_pole = np.asarray(g(np.array([pole])))[0]

    def remainder(x):
        return (np.asarray(g(x)) - g_pole) / (x - pole)

    left = integrate_adaptive(remainder, lo, pole, tol / 2.0)
    right = integrate_adaptive(remainder, pole, hi, tol / 2.0)
    value = left.value + right.value + g_pole * math.log((hi - pole) / (pole - lo))
    err = left.abs_error_estimate + right.abs_error_estimate
    return QuadratureResult(
        value=complex(value) if np.iscomplexobj(g_pole) else float(value),
        abs_error_estimate=err,
        evaluations=left.evaluations + right.evaluations + 1,
        converged=err <= tol,
    )


def epsilon_extrapolate(values) -> ExtrapolationResult:
    """Polynomial extrapolation of (epsilon, value) samples to epsilon = 0.

    values is a sequence of (epsilon, value) pairs, epsilon > 0, at least
    three of them, ordered or not. Neville's tableau gives the limit; the
    residual is the change contributed by the final order. monotone=False
    flags ladders whose successive extrapolation orders stopped improving.
    """
    pairs = sorted(((float(e), complex(v)) for e, v in values),
                   key=lambda p: -p[0])
    if len(pairs) < 3:
        raise DomainError("need at least three epsilon samples")
    if any(e <= 0.0 for e, _ in pairs):
        raise DomainError("epsilon samples must be positive")
    eps = np.array([e for e, _ in pairs])
    t = np.array([v for _, v in pairs], dtype=complex)

    diag = [t[0]]
    work = t.copy()
    n = len(pairs)
    for j in range(1, n):
        work = (eps[j:] * work[:-1] - eps[: n - j] * work[1:]) / (eps[j:] - eps[: n - j])
        diag.append(work[0])

    steps = [abs(diag[j] - diag[j - 1]) for j in range(1, len(diag))]
    monotone = all(steps[j] <= steps[j - 1] + 1e-30 for j in range(1, len(steps)))
    residual = steps[-1] if steps else 0.0
    return ExtrapolationResult(value=complex(diag[-1]), residual=float(residual),
                               monotone=monotone)


def find_root_bracketed(g, lo: float, hi: float) -> float:
    """Root of scalar g in [lo, hi]; g(lo) and g(hi) must straddle zero."""
    glo = float(g(lo))
    ghi = float(g(hi))
    # brentq itself returns an endpoint that is an exact root
    if glo * ghi > 0.0:
        raise DomainError(
            f"no sign change on [{lo}, {hi}]: g(lo) = {glo:.6g}, g(hi) = {ghi:.6g}")
    return float(brentq(g, lo, hi, xtol=1e-13, rtol=4.0 * _EPS))
