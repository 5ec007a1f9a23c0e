"""Adaptive quadrature and principal values.

Every integrator here takes vectorized callables: f(x) receives a numpy
array and must return an array of the same shape (real or complex values
are both fine). Results carry an absolute error estimate, the number of
integrand evaluations, and an honest converged flag; non-convergence is
reported through the flag, never silently.

Singular denominators are handled by two independent strategies so the
physics layers can cross check one against the other:

* the production route has one principal-value routine,
  principal_value_batch (principal_value_integral is its batch of one):
  the caller proves its pole simple, locates it itself (the line
  integrals of module correlation by a monotone Newton iteration),
  factors it out of the denominator, and adds the half residues in
  closed form; as in QUADPACK's QAWC, a pole outside the interval
  leaves a regular integral, a member of the same batch. Each principal
  value starts on its own number of panels, which a pole inside splits
  over its two sides by their lengths;
* the oracle route needs no routine of its own: it moves the time
  integral onto a contour shifted off the real axis, where the
  integrand is smooth, and integrates it with integrate_adaptive_batch
  (correlation._oracle).

Adaptive panels use the Gauss-Kronrod 7/15 pair; panel refinement splits
every panel above a width floor whose error is not within an
equidistributed share of the budget (a NaN error is not), and an
integral with no such panel is finished. integrate_adaptive_batch
refines many integrals in lockstep: each keeps a mesh of its own
(unlike the one shared mesh of scipy's quad_vec), started on its own
number of equal panels, its own budget and its own refinement
decisions, and each round evaluates the new panels of every unfinished
integral in one vectorized call of the integrand. Each
integral's panels are kept in the order of their left edges: a split
panel's two halves take its place, and a finished integral keeps its
panels. Its error is summed in that order every round, and its value
once, after the last round. So a member's result is bit-identical to
integrating it alone, which is what integrate_adaptive does: the batch
of one. Every interval is finite: a caller with an integral over
[0, inf) under a Gaussian envelope cuts it off at
gaussian_truncation_point and bounds the remainder itself
(response._free_responses). The shape of every batch is decided here
alone (_RUN_PANELS), so callers hand over whole lists.

Both batch routines wrap array cores, _adaptive and _principal_values,
whose _Batch holds the members' results as arrays and their failures by
index. Result objects are made once, at the public edge (_results), or
by a caller that reads a _Batch (correlation._reduced_line_integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kinematics import DomainError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_adaptive_batch",
    "gaussian_truncation_point",
    "principal_value_integral",
    "principal_value_batch",
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


def _gk15_panels(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Evaluate the GK15 pair on a batch of panels [lo_i, hi_i], panel i
    belonging to integral owner[i]: f gets the nodes as one row per
    panel and owner as a column."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x, owner[:, None]))
    vals_k = (y * _WEIGHTS_K).sum(axis=1) * half
    vals_g = (y * _WEIGHTS_G).sum(axis=1) * half
    err = np.abs(vals_k - vals_g)
    # Magnitude of the panel contribution, for roundoff accounting.
    mag = (np.abs(y) * _WEIGHTS_K).sum(axis=1) * np.abs(half)
    return vals_k, err, mag


def _batch_args(*args) -> tuple[np.ndarray, ...]:
    """Per-integral arguments as equally long 1-D float arrays: scalars
    broadcast, and lengths that do not broadcast raise ValueError."""
    return np.broadcast_arrays(*(np.array(a, dtype=float, ndmin=1)
                                 for a in args))


def _checked(result):
    """A batch member's result, or raise the exception it failed with."""
    if isinstance(result, Exception):
        raise result
    return result


# The shape of every batch: a member starts on at most
# _MAX_INITIAL_PANELS panels, and the members run, in order, as lockstep
# runs of at most _RUN_PANELS initial panels (a member with more runs
# alone), since a first round evaluates 15 abscissae per panel. No value
# depends on either bound. A serial pass over the fig* presets (x86-64
# Linux, NumPy 2.4) peaks at 37 MiB RSS with runs of 1024 panels, at 36
# with 256 (about 25% slower), and at 41 and 53 with 4096 and 16384.
_RUN_PANELS = 1024
_MAX_INITIAL_PANELS = 4096


def integrate_adaptive_batch(f, lo, hi, tol, *, max_panels: int = 20000,
                             initial_panels=8) -> list:
    """Globally adaptive GK15 quadrature of a batch of integrals in
    lockstep.

    Integral i runs over [lo[i], hi[i]] to the absolute tolerance tol[i],
    starting on initial_panels[i] equal panels, at least 1 and at most
    _MAX_INITIAL_PANELS (scalars broadcast; other unequal lengths raise
    ValueError). f(x, owner) gets an array of abscissae and an array,
    broadcasting against it, of the index of the integral each belongs
    to, and returns the integrand values at x. Every integral keeps its
    own panels, in the order of their left edges, its own budget and
    refinement decisions, and sums its panels in that order, so its
    result does not depend on the other members of the batch. It stops
    when its error meets tol[i], at max_panels panels, with no panel
    left to split, when a round leaves it no fewer NaN panels than the
    round before (it is NaN on a region), or after 200 rounds. The
    integrals run in order, in runs of at most _RUN_PANELS initial
    panels; each round of a run evaluates the new panels of all its
    unfinished integrals in one call of f. Returns one entry per
    integral: its QuadratureResult, or the DomainError its arguments
    raise. The reported error estimate includes a roundoff floor, so
    converged=True implies the estimate met tol honestly.
    """
    return _results(_adaptive(f, *_batch_args(lo, hi, tol, initial_panels),
                              max_panels))


class _Batch(NamedTuple):
    """The results of a batch as arrays, one entry per member: values,
    errors, evaluations and converged, and failures, the exception of
    each member that failed by index (its entries are no result)."""

    values: np.ndarray
    errors: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    failures: dict


def _results(batch: _Batch) -> list:
    """The QuadratureResult, or the exception, of each member of batch."""
    failures = batch.failures
    rows = zip(batch.values.tolist(), batch.errors.tolist(),
               batch.evaluations.tolist(), batch.converged.tolist())
    return [failures[i] if i in failures else QuadratureResult(*row)
            for i, row in enumerate(rows)]


def _adaptive(f, lo, hi, tol, n0, max_panels=20000) -> _Batch:
    """integrate_adaptive_batch on equally long 1-D float arrays, as a
    _Batch: the members with valid arguments, in runs."""
    failures = {}
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo) & (tol > 0.0))
    for i in np.flatnonzero(bad).tolist():
        if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
            failures[i] = DomainError("integration limits must be finite")
        elif hi[i] <= lo[i]:
            failures[i] = DomainError(f"empty or inverted interval "
                                      f"[{float(lo[i])}, {float(hi[i])}]")
        else:
            failures[i] = DomainError("tol must be positive")
    # the integrals with valid arguments, ascending
    members = np.flatnonzero(~bad)
    counts = np.fmin(np.fmax(n0[members], 1.0),
                     _MAX_INITIAL_PANELS).astype(int)
    starts, panels = [], math.inf  # no run open yet
    for j, n in enumerate(counts.tolist()):
        if panels + n > _RUN_PANELS:
            starts.append(j)
            panels = 0
        panels += n
    runs = []
    for start, stop in zip(starts, starts[1:] + [members.size]):
        run = members[start:stop]
        runs.append(_lockstep(f, lo[run], hi[run], tol[run],
                              counts[start:stop], run, max_panels))
    parts = (zip(*runs) if runs
             else ([np.zeros(0)], [np.zeros(0)], [np.zeros(0, dtype=int)]))
    values, errors, evaluations = (
        _scatter(np.concatenate(x), members, lo.size, fill)
        for x, fill in zip(parts, (math.nan, math.nan, 0)))
    return _Batch(values, errors, evaluations, errors <= tol, failures)


def _scatter(x: np.ndarray, at: np.ndarray, size: int, fill) -> np.ndarray:
    """An array of size entries of x's dtype: x at the indices at, fill
    elsewhere."""
    out = np.full(size, fill, dtype=x.dtype)
    out[at] = x
    return out


def _lockstep(f, lo, hi, tol, counts, members, max_panels):
    """The values, errors and evaluations of one run of
    integrate_adaptive_batch: integral j from counts[j] equal panels, f
    seeing it as owner members[j]. Each panel's slot is j, and panels
    stay grouped by slot, ascending, each slot's panels in the order of
    their left edges."""
    # the initial edges are np.linspace's, integral by integral: edge k
    # of n is k * step + lo, and edge n is hi
    slot = np.repeat(np.arange(members.size), counts)
    k = (np.arange(slot.size) - (np.cumsum(counts) - counts)[slot]).astype(float)
    n, delta, start = counts[slot], (hi - lo)[slot], lo[slot]
    step = delta / n
    left, right = k * step, (k + 1.0) * step
    if not step.all():  # a subnormal width: linspace's zero-step form
        left = np.where(step == 0.0, k / n * delta, left)
        right = np.where(step == 0.0, (k + 1.0) / n * delta, right)
    a = left + start
    b = np.where(k + 1.0 == n, hi[slot], right + start)
    vals, errs, mags = _gk15_panels(f, a, b, members[slot])
    evaluations = 15 * counts
    width_floor = 64.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)),
                                           1.0)

    # NaN panels per integral in the last round, inf where there were none
    nan_before = np.inf
    # at most 200 refinement rounds, then the results as they stand
    for round_ in range(201):
        starts = np.cumsum(counts) - counts
        total_err = np.add.reduceat(errs, starts)
        # an integral whose round left no fewer NaN panels than the round
        # before is NaN on a region that splitting cannot shrink; the sum
        # of the total errors alone shows whether a NaN panel is there
        stalled = False
        if math.isnan(total_err.sum()):
            nans = np.bincount(slot, np.isnan(errs), minlength=members.size)
            stalled = nans >= nan_before
            nan_before = np.where(nans > 0.0, nans, np.inf)
        else:
            nan_before = np.inf
        # a panel above the width floor splits unless its error is within
        # its share (so a NaN error splits, as +inf does); while total_err
        # > tol some error exceeds its share, so one with none to split
        # is at the width floor
        threshold = tol / np.maximum(counts, 8)
        mask = ~(errs <= threshold[slot]) & ((b - a) > width_floor[slot])
        added = np.bincount(slot[mask], minlength=members.size)
        finished = ((total_err <= tol) | (counts >= max_panels)
                    | (added == 0) | stalled | (round_ == 200))
        mask &= ~finished[slot]
        added[finished] = 0
        if finished.all():
            break

        # split the marked panels in place: f gets their left halves,
        # then their right halves, and each pair of halves takes the
        # place of its panel, so every integral's panels stay in the
        # order of their left edges; a finished integral keeps its own
        am, bm = a[mask], b[mask]
        mid = 0.5 * (am + bm)
        new_a, new_b = np.concatenate([am, mid]), np.concatenate([mid, bm])
        new = _gk15_panels(f, new_a, new_b,
                           members[np.concatenate([slot[mask]] * 2)])
        counts = counts + added
        evaluations += 30 * added
        repeat = 1 + mask
        first = (np.cumsum(repeat) - repeat)[mask]
        at = np.concatenate([first, first + 1])
        slot = np.repeat(slot, repeat)
        a, b, vals, errs, mags = (np.repeat(old, repeat)
                                  for old in (a, b, vals, errs, mags))
        for x, halves in zip((a, b, vals, errs, mags), (new_a, new_b, *new)):
            x[at] = halves

    # each integral's panels are summed once, in the order of their left
    # edges, by one reduction of the same numbers as its batch of one
    values = np.add.reduceat(vals, starts)
    errors = total_err + 50.0 * _EPS * np.add.reduceat(mags, starts)
    return values, errors, evaluations


def integrate_adaptive(f, lo: float, hi: float, tol: float, *,
                       initial_panels: int = 8) -> QuadratureResult:
    """Globally adaptive GK15 quadrature of a vectorized integrand: the
    batch of one of integrate_adaptive_batch.

    f must map a numpy array of abscissae to an equally shaped array of
    values. tol is an absolute tolerance on the integral."""
    (res,) = integrate_adaptive_batch(
        lambda x, _: np.reshape(f(x.ravel()), x.shape), lo, hi, tol,
        initial_panels=initial_panels)
    return _checked(res)


def gaussian_truncation_point(alpha: float, tol: float) -> float:
    """Upper cutoff for integrands bounded by a Gaussian exp(-alpha x^2).

    Chosen so the discarded tail is below tol/10, with a fixed margin of
    six Gaussian widths on top.
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    tol_trunc = max(tol / 10.0, 1e-300)
    return math.sqrt(max(-math.log(tol_trunc), 1.0) / alpha) + 6.0 / math.sqrt(alpha)


def principal_value_batch(g, pole, lo, hi, tol, *,
                          initial_panels=8) -> list:
    """Cauchy principal values of g(x)/(x - pole[i]) over [lo[i], hi[i]]
    for a batch of smooth g (the contract of QUADPACK's QAWC: the pole
    may lie anywhere but on an end of the interval).

    g(x, owner) is called as the integrand of integrate_adaptive_batch,
    owner indexing the principal values; arguments broadcast as in
    integrate_adaptive_batch. A pole inside (lo, hi) is subtracted as
    g(pole)/(x - pole): the smooth remainder is integrated on [lo, pole]
    and [pole, hi], each to tol/2 (Gauss-Kronrod nodes are interior, so
    none lands on the pole), and g(pole) ln((hi - pole)/(pole - lo)) is
    added back. A pole outside [lo, hi] leaves an ordinary integral of
    g(x)/(x - pole), one member to the whole tol. All members run as one
    lockstep batch. Principal value i starts on initial_panels[i] equal
    panels over [lo, hi]: a pole inside splits them over its two sides
    in proportion to their lengths, each side taking its share rounded
    up (at least 1), so the panels stay about equally wide. Callers with
    a denominator D(x) pass g = f/q with q = D/(x - pole) in factored
    form; dividing D by (x - pole) numerically would cancel
    catastrophically next to the pole. Returns
    one entry per principal value: its QuadratureResult, or the
    DomainError it raises (a pole on lo or hi or not finite, or the
    limits and tol integrate_adaptive_batch rejects).
    """
    return _results(_principal_values(g, pole, lo, hi, tol, initial_panels))


def _principal_values(g, pole, lo, hi, tol, initial_panels) -> _Batch:
    """principal_value_batch as a _Batch. A principal value with a pole
    inside fails with the exception of its first failing side."""
    pole, lo, hi, tol, n0 = _batch_args(pole, lo, hi, tol, initial_panels)
    failures = {}
    bad = ~np.isfinite(pole) | (pole == lo) | (pole == hi)
    for i in np.flatnonzero(bad).tolist():
        failures[i] = DomainError(f"pole {float(pole[i])} is not finite or "
                                  f"on an end of [{float(lo[i])}, "
                                  f"{float(hi[i])}]")
    within = (lo < pole) & (pole < hi)
    inside, outside = np.flatnonzero(within), np.flatnonzero(~within & ~bad)
    g_pole = np.asarray(g(pole[inside], inside))
    # members: the left sides of the inside poles, their right sides,
    # then the outside poles; owner is the principal value of each and
    # sub the value its integrand subtracts (0 for an outside pole)
    k = inside.size
    owner = np.concatenate([inside, inside, outside])
    sub = np.concatenate([g_pole, g_pole, np.zeros(outside.size)])

    def remainder(x, member):
        i = owner[member]
        return (np.asarray(g(x, i)) - sub[member]) / (x - pole[i])

    half = tol[inside] / 2.0
    share = n0[inside] / (hi[inside] - lo[inside])
    members = _adaptive(
        remainder, np.concatenate([lo[inside], pole[inside], lo[outside]]),
        np.concatenate([pole[inside], hi[inside], hi[outside]]),
        np.concatenate([half, half, tol[outside]]),
        np.concatenate([np.ceil(share * (pole[inside] - lo[inside])),
                        np.ceil(share * (hi[inside] - pole[inside])),
                        n0[outside]]))
    # a member's exception is its principal value's, the left side's
    # before the right side's
    for m in sorted(members.failures):
        failures.setdefault(int(owner[m]), members.failures[m])
    # an inside pole's value: its two sides plus g(pole) ln((hi - pole) /
    # (pole - lo)), the logarithm in math.log's rounding
    logs = np.array([math.log(r) for r in
                     ((hi[inside] - pole[inside])
                      / (pole[inside] - lo[inside])).tolist()])
    at = np.concatenate([inside, outside])
    v, e, n = members.values, members.errors, members.evaluations
    values = _scatter(np.concatenate([v[:k] + v[k:2 * k] + g_pole * logs,
                                      v[2 * k:]]), at, pole.size, math.nan)
    errors = _scatter(np.concatenate([e[:k] + e[k:2 * k], e[2 * k:]]), at,
                      pole.size, math.nan)
    evaluations = _scatter(np.concatenate([n[:k] + n[k:2 * k] + 1,
                                           n[2 * k:]]), at, pole.size, 0)
    return _Batch(values, errors, evaluations, errors <= tol, failures)


def principal_value_integral(g, pole: float, lo: float, hi: float,
                             tol: float) -> QuadratureResult:
    """Cauchy principal value of g(x)/(x - pole) over [lo, hi] for a
    smooth vectorized g: the batch of one of principal_value_batch."""
    (res,) = principal_value_batch(lambda x, _: g(x), pole, lo, hi, tol)
    return _checked(res)

