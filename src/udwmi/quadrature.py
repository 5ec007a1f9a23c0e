"""Adaptive quadrature and principal values.

Every integrator here takes vectorized callables: f(x) receives a numpy
array and must return an array of the same shape (real or complex values
are both fine). Results carry an absolute error estimate, the number of
integrand evaluations, and an honest converged flag; non-convergence is
reported through the flag, never silently.

Singular denominators have two independent routes, so the physics layers
can cross check one against the other:

* principal_value_batch (principal_value_integral is its batch of one):
  the caller proves its pole simple, locates it (module correlation by
  a monotone Newton iteration), factors it out of the denominator and
  adds the half residues in closed form; as in QUADPACK's QAWC, a pole
  outside the interval leaves a regular integral in the same batch, and
  a pole inside splits its principal value's panels over its two sides
  by their lengths;
* the oracle (correlation._oracle_batch) moves the time integral onto a
  contour shifted off the real axis, where the integrand is smooth, and
  integrates it with integrate_adaptive_batch over s >= 0 alone, the
  integrand at -s being the conjugate of that at s on one orbit.

Adaptive panels use the Gauss-Kronrod 7/15 pair: a round splits every
panel above a width floor whose error is not within an equidistributed
share of the budget (a NaN error is not), and an integral with no such
panel is finished. integrate_adaptive_batch refines many integrals in
lockstep, each on a mesh of its own (unlike scipy's quad_vec), started
on its own number of equal panels, with its own budget and decisions;
each round evaluates the new panels of every unfinished integral in
vectorized calls. An integral's panels stay in the order of their left
edges (a split panel's halves take its place, a finished integral keeps
its panels), its error is summed in that order every round and its
value once, after the last round, so a member's result is bit-identical
to integrating it alone (integrate_adaptive, the batch of one). A round
in which every integral of a run met its budget ends the run before any
panel is marked. Every interval is finite: an integral over [0, inf)
under a Gaussian envelope is cut off at gaussian_truncation_point by its
caller, who bounds the remainder (response._free_responses). The shape
of every batch is decided here alone, so callers hand over whole lists:
members run in lockstep runs of at most _RUN_PANELS initial panels, and
each call of the integrand gets at most _CALL_VALUES abscissae, whole
panels in order, so a round's temporaries stay cache-sized however many
panels it adds.

Both batch routines wrap an array core, _adaptive (principal values
lowered to their members by _pv_part), whose _Batch holds the members'
results as arrays and their failures by index; result objects are made
once, at the public edge (_results), or by a caller that reads a _Batch
(correlation._line_batch). Integrals of several integrands, each lowered
to a _Part, run as one lockstep batch (_adaptive_parts), each round
handing each integrand the rows of its own members alone: a sweep's or
a point's free-space and line terms are one such batch
(response._reduced_batch).
"""

from __future__ import annotations

import itertools
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
_HALVES = np.array([0, 1])  # a split panel's halves, at its index and next
# The most abscissae f gets in one call (273 panels), which bounds a
# round's temporaries, the integrand's own among them, to sizes the CPU
# caches hold: bench seed 1's reduced batches took 86.0 (onset_scan)
# and 111.4 ms (presets) at 2^15, 80.5 and 106.8 at 2^13, 75.8 and
# 102.8 at 2^12, and 83.0 and 114.2 at 2^11 (CPU time, medians of 9
# interleaved passes; x86-64 Linux, NumPy 2.4). No value depends on it,
# since each panel's row is reduced alone and f gives each row alone.
_CALL_VALUES = 2**12


def _gk15_panels(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Evaluate the GK15 pair on a batch of panels [lo_i, hi_i], panel i
    belonging to integral owner[i]: f gets the nodes as one row per
    panel and owner as a column, in calls of consecutive whole panels
    of at most _CALL_VALUES abscissae. Returns the panels' values, and
    their error estimates and magnitudes as the rows of one array."""
    step = _CALL_VALUES // _NODES.size
    if lo.size > step:
        vals, ems = zip(*(_gk15_panels(f, lo[i:i + step], hi[i:i + step],
                                       owner[i:i + step])
                          for i in range(0, lo.size, step)))
        return np.concatenate(vals), np.concatenate(ems, axis=1)
    half = 0.5 * (hi - lo)  # never negative
    y = np.asarray(f((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES,
                     owner[:, None]))
    # np.add.reduce is what .sum calls, in the same order, without its
    # wrappers
    vals = np.add.reduce(y * _WEIGHTS_K, axis=1) * half
    em = np.empty((2, lo.size))
    np.abs(vals - np.add.reduce(y * _WEIGHTS_G, axis=1) * half, out=em[0])
    # the magnitude of each panel's contribution, for roundoff accounting
    np.multiply(np.add.reduce(np.abs(y) * _WEIGHTS_K, axis=1), half,
                out=em[1])
    return vals, em


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
# alone). No value depends on either bound. With calls of f bounded
# (_CALL_VALUES), bench seed 1's reduced batches took 88.7, 77.0, 79.9,
# 75.9 and 79.4 ms (onset_scan) and 127.1, 113.4, 103.2, 106.1 and
# 105.3 ms (presets) in runs of 256, 512, 1024, 2048 and 4096 panels
# (CPU time, medians of 9 interleaved passes, their quartiles overlapping
# from 512 on), and a serial fig* pass peaks at 32.4-32.9 MiB RSS in
# runs of 256 to 16384 panels (x86-64 Linux, NumPy 2.4).
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
    unfinished integrals in order, in calls of f of at most
    _CALL_VALUES abscissae, whole panels. Returns one entry per
    integral: its QuadratureResult, or the DomainError its arguments
    raise. The reported error estimate includes a roundoff floor, so
    converged=True implies the estimate met tol honestly.
    """
    return _results(_adaptive(f, np.array(_batch_args(lo, hi, tol,
                                                      initial_panels)),
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


class _Part(NamedTuple):
    """The members of one integrand, as _adaptive takes them: f(x,
    owner), owner indexing the equally long 1-D float arrays lo, hi,
    tol and n0."""

    f: object
    lo: np.ndarray
    hi: np.ndarray
    tol: np.ndarray
    n0: np.ndarray


def _adaptive_parts(parts, max_panels=20000) -> list[_Batch]:
    """The _Batch of each _Part of parts, from one _adaptive batch of
    all their members, part after part. Each round hands each part's
    integrand the rows of its own members alone, their owners
    renumbered from 0 within the part, so every member is bit-identical
    to its batch of one. The integrands give values of one dtype."""
    bounds = [0, *itertools.accumulate(part.lo.size for part in parts)]
    cuts_at = np.array(bounds)

    def f(x, owner):
        # owner is an ascending column (_lockstep), so each part's rows
        # are one run of them
        cuts = owner[:, 0].searchsorted(cuts_at).tolist()
        ys = [part.f(x[lo:hi], owner[lo:hi] - start)
              for part, start, lo, hi in zip(parts, bounds, cuts, cuts[1:])
              if hi > lo]
        return ys[0] if len(ys) == 1 else np.concatenate(ys)

    batch = _adaptive(f, np.concatenate([part[1:] for part in parts],
                                        axis=1), max_panels)
    return [_Batch(*(x[start:stop] for x in batch[:4]),
                   {i - start: exc for i, exc in batch.failures.items()
                    if start <= i < stop})
            for start, stop in zip(bounds, bounds[1:])]


def _adaptive(f, columns, max_panels=20000) -> _Batch:
    """integrate_adaptive_batch on the rows lo, hi, tol and n0 of the
    2-D float array columns, as a _Batch: the members with valid
    arguments, in runs."""
    lo, hi, tol, n0 = columns
    failures = {}
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo) & (tol > 0.0))
    for i in bad.nonzero()[0].tolist():
        if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
            failures[i] = DomainError("integration limits must be finite")
        elif hi[i] <= lo[i]:
            failures[i] = DomainError(f"empty or inverted interval "
                                      f"[{float(lo[i])}, {float(hi[i])}]")
        else:
            failures[i] = DomainError("tol must be positive")
    # the integrals with valid arguments, ascending
    members = (~bad).nonzero()[0]
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
        runs.append(_lockstep(f, *columns[:3, run], counts[start:stop], run,
                              max_panels))
    out = ([np.concatenate(x) for x in zip(*runs)] if runs
           else [np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)])
    if failures:  # a failed member's entries are no result
        out = [_scatter(x, members, lo.size, fill)
               for x, fill in zip(out, (math.nan, math.nan, 0))]
    return _Batch(*out, out[1] <= tol, failures)


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
    their left edges. f gets the panels of each round in that order, so
    their owners ascend."""
    # the initial edges are np.linspace's, integral by integral: edge k
    # of n is k * step + lo, and edge n is hi; a panel ends where the
    # next starts, or, the last of its integral, at hi
    slot = np.arange(members.size).repeat(counts)
    starts = counts.cumsum() - counts
    k = np.arange(slot.size, dtype=float) - starts[slot]
    step = (hi - lo) / counts
    if step.all():
        a = k * step[slot] + lo[slot]
    else:  # a subnormal width: linspace's zero-step form
        a = np.where(step[slot] == 0.0, k / counts[slot] * (hi - lo)[slot],
                     k * step[slot]) + lo[slot]
    b = np.concatenate([a[1:], hi[-1:]])
    b[starts[1:] - 1] = hi[:-1]
    vals, em = _gk15_panels(f, a, b, members[slot])
    # the rows of the panels' edges, errors and magnitudes
    panels = np.concatenate([[a, b], em])
    evaluations = 15 * counts
    width_floor = 64.0 * _EPS * np.maximum(np.maximum(np.abs(lo), np.abs(hi)),
                                           1.0)

    # NaN panels per integral in the last round, inf where there were none
    nan_before = np.inf
    # at most 200 refinement rounds, then the results as they stand
    for round_ in range(201):
        total_err = np.add.reduceat(panels[2], starts)
        met = total_err <= tol
        if met.all() or round_ == 200:  # every integral met its budget
            break
        # an integral below max_panels that misses its budget splits its
        # panels above the width floor whose error is not within their
        # share (a NaN error is not), unless a round left it no fewer NaN
        # panels than the round before (it is NaN on a region; the sum of
        # the total errors shows a NaN panel): the others' floor is inf
        floor = np.where(met | (counts >= max_panels), np.inf, width_floor)
        if math.isnan(total_err.sum()):
            nans = np.bincount(slot, np.isnan(panels[2]),
                               minlength=members.size)
            floor[nans >= nan_before] = np.inf
            nan_before = np.where(nans > 0.0, nans, np.inf)
        else:
            nan_before = np.inf
        a, b, errs = panels[:3]
        mask = (~(errs <= (tol / np.maximum(counts, 8))[slot])
                & (b - a > floor[slot]))
        if not mask.any():
            break

        # split the marked panels in place: each pair of halves takes the
        # place of its panel, so every integral's panels stay in the
        # order of their left edges, and f gets the new panels in that
        # order; a finished integral keeps its own
        added = np.bincount(slot[mask], minlength=members.size)
        counts = counts + added
        starts = counts.cumsum() - counts
        evaluations += 30 * added
        repeat = 1 + mask
        left = (repeat.cumsum() - repeat)[mask]  # each left half's index
        slot = slot.repeat(repeat)
        panels, vals = panels.repeat(repeat, axis=1), vals.repeat(repeat)
        edges = panels[:2, left]
        panels[0, left + 1] = panels[1, left] = 0.5 * (edges[0] + edges[1])
        at = (left[:, None] + _HALVES).ravel()
        vals[at], panels[2:, at] = _gk15_panels(f, *panels[:2, at],
                                                members[slot[at]])

    # each integral's panels are summed once, in the order of their left
    # edges, by one reduction of the same numbers as its batch of one
    values = np.add.reduceat(vals, starts)
    errors = total_err + 50.0 * _EPS * np.add.reduceat(panels[3], starts)
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
    pole, lo, hi, tol, n0 = _batch_args(pole, lo, hi, tol, initial_panels)
    # such a pole fails alone: _pv_part gets no range for it
    bad = ~np.isfinite(pole) | (pole == lo) | (pole == hi)
    part, finish = _pv_part(g, pole, np.where(bad, math.nan, lo), hi, tol, n0)
    batch = finish(_adaptive(part.f, np.array(part[1:])))
    for i in bad.nonzero()[0].tolist():
        batch.failures[i] = DomainError(f"pole {pole[i]} is not finite or on "
                                        f"an end of [{lo[i]}, {hi[i]}]")
    return _results(batch)


def _pv_part(g, pole, lo, hi, tol, n0, g_pole=None):
    """The lowering of principal_value_batch on equally long 1-D float
    arrays: the _Part of its members, and finish, which makes the
    principal values' _Batch from that part's, in its arrays. Member i
    is principal value i's: the left side of a pole inside, or the whole
    range of one outside (a pole not finite or on an end comes with a
    NaN lo, so that member fails); the right sides of the inside poles
    follow. A principal value fails with the exception of its first
    failing member. g_pole, when given, is g at every pole (as g(pole,
    range of its size) would give it), from a caller that needs it too."""
    failures = {}
    within = (lo < pole) & (pole < hi)
    inside = within.nonzero()[0]
    if g_pole is None:
        g_pole = _scatter(np.asarray(g(pole[inside], inside)), inside,
                          pole.size, 0.0)
    # the members' rows lo, hi, tol, n0 and pole: a pole inside cuts its
    # interval at the pole, each side to half its tol on its share of
    # the panels, rounded up
    columns = np.array([lo, hi, tol, n0, pole])
    lo_in, hi_in, tol_in, n0_in, p_in = columns[:, inside]
    share = n0_in / (hi_in - lo_in)
    sides = (p_in - lo_in, hi_in - p_in)
    half = tol_in / 2.0
    columns[1:4, inside] = p_in, half, np.ceil(share * sides[0])
    columns = np.concatenate(
        [columns, [p_in, hi_in, half, np.ceil(share * sides[1]), p_in]],
        axis=1)
    # the value each member subtracts: g(pole), 0 for an outside pole
    g_in = g_pole[inside]
    sub = np.concatenate([np.where(within, g_pole, 0.0), g_in])
    owner = np.concatenate([np.arange(pole.size), inside])

    def remainder(x, member):
        return ((np.asarray(g(x, owner[member])) - sub[member])
                / (x - columns[4][member]))

    def finish(members: _Batch) -> _Batch:
        # a member's exception is its principal value's, the left
        # side's before the right side's
        for m in sorted(members.failures):
            failures.setdefault(int(owner[m]), members.failures[m])
        # an inside pole's value: its two sides plus g(pole) ln((hi -
        # pole) / (pole - lo)), the logarithm in math.log's rounding
        logs = np.array([math.log(r) for r in (sides[1] / sides[0]).tolist()])
        values, errors, evaluations = (x[:pole.size] for x in members[:3])
        # complex when g is, also with no member evaluated
        values = values.astype(np.result_type(values, g_in), copy=False)
        values[inside] = (values[inside] + members.values[pole.size:]
                          + g_in * logs)
        errors[inside] += members.errors[pole.size:]
        evaluations[inside] += members.evaluations[pole.size:] + 1
        return _Batch(values, errors, evaluations, errors <= tol, failures)

    return _Part(remainder, *columns[:4]), finish


def principal_value_integral(g, pole: float, lo: float, hi: float,
                             tol: float) -> QuadratureResult:
    """Cauchy principal value of g(x)/(x - pole) over [lo, hi] for a
    smooth vectorized g: the batch of one of principal_value_batch."""
    (res,) = principal_value_batch(lambda x, _: g(x), pole, lo, hi, tol)
    return _checked(res)

