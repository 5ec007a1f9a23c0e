"""Mutual information of the two-detector state at leading order.

To lowest order in the coupling the joint density matrix of the
detector pair, in the product basis ordered (both ground, B excited,
A excited, both excited), is block diagonal:

    [[1 - P_A - P_B, 0,  0, .],
     [0,             P_B, C, 0],
     [0,             C*, P_A, 0],
     [.,             0,  0,  0]]

The double-excitation coherence (the corner entries marked '.') feeds
entanglement measures but drops out of the mutual information at this
order, so it is deliberately not represented here.

The nonzero eigenvalues of the middle block are
l_pm = (P_A + P_B)/2 +- sqrt((P_A - P_B)^2/4 + |C|^2), and at leading
order the mutual information reduces to

    I = l_+ ln l_+ + l_- ln l_- - P_A ln P_A - P_B ln P_B,

which is nonnegative whenever the block is positive semidefinite
(P_A P_B >= |C|^2).

mutual_information_point evaluates a point on the reduced formulas
only: each P from response.transition_probability, rotating or static,
and C by the reduction of correlation.correlation_equal, so both
detectors must share one orbit kinematics. The definition-level
oracles are cross-checks (sweep's oracle suite), never a fallback.

This module is the one evaluator of terms, for one point, a sweep and
the oracle suite alike. _Plan lowers them to the distinct free-space
responses, line integrals, mirror responses and oracles they need, and
its evaluate runs the keys as one job or as jobs on a process pool
(_map): the free-space responses and the line integrals as the members
of one lockstep batch (response._reduced_batch, whose results are
those of response._free_responses and of the array core
correlation._line_batch), and the oracles as a batch of their own
(correlation._oracle_batch). A batch that raises as a whole is run
again one key at a time (_evaluate_batch), so no key's failure depends
on the batch it shared. The results (_Terms) give each term by index,
as a value or the exception it failed with, each mirror P made the
first time it is asked for. A single point is the batch of one of this
evaluation. mutual_information_point assembles a point with the scalar
helpers _checked_block and _information, which assemble_density_block
and mutual_information wrap, so a row makes no DensityBlock or
MIResult.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .correlation import (CorrelationResult, LineIntegral, PairConfig,
                          _correlation_from_lines, _join_lines,
                          _line_integral_args, _oracle_batch,
                          _require_equal_kinematics)
from .kinematics import DomainError, _require_tol
from .quadrature import _checked
from .response import (ResponseBreakdown, _image_line_args, _reduced_batch,
                       transition_probability)

__all__ = [
    "DensityBlock",
    "MIResult",
    "PairPointResult",
    "PerturbativeRegimeWarning",
    "PointTerms",
    "assemble_density_block",
    "mutual_information",
    "mutual_information_point",
]

PERTURBATIVE_BUDGET = 0.1


class PerturbativeRegimeWarning(RuntimeWarning):
    """Raised as a warning when P_A + P_B leaves the perturbative regime."""


@dataclass(frozen=True)
class DensityBlock:
    """Leading-order single-excitation block of the joint state. Build
    it with assemble_density_block; mutual_information applies the
    positivity bound."""

    p_a: float
    p_b: float
    c: complex

    @property
    def positivity_slack(self) -> float:
        """P_A P_B - |C|^2; negative means the block is not a state."""
        return _slack(self.p_a, self.p_b, self.c)


def _slack(p_a: float, p_b: float, c: complex) -> float:
    return p_a * p_b - abs(c) ** 2


def _checked_block(p_a: float, p_b: float, c: complex) -> complex:
    """c as a complex number, once the entries of the block of p_a, p_b
    and c pass assemble_density_block's checks; DomainError otherwise."""
    if not (math.isfinite(p_a) and math.isfinite(p_b)):
        raise DomainError("transition probabilities must be finite")
    if p_a < 0.0 or p_b < 0.0:
        raise DomainError(f"negative transition probability: "
                          f"p_a={p_a:.12g}, p_b={p_b:.12g}")
    if p_a + p_b > 1.0:
        raise DomainError(f"p_a + p_b = {p_a + p_b:.12g} exceeds 1")
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DomainError("correlation must be finite")
    if not math.isfinite(abs(c) * abs(c)):
        raise DomainError(f"correlation {c:.12g} has a squared magnitude "
                          f"beyond the float range")
    return c


def assemble_density_block(p_a: float, p_b: float, c: complex) -> DensityBlock:
    """Validated constructor: probabilities must be finite, nonnegative,
    and sum to at most one, and c and its squared magnitude finite."""
    c = _checked_block(p_a, p_b, c)
    return DensityBlock(p_a=float(p_a), p_b=float(p_b), c=c)


@dataclass(frozen=True)
class MIResult:
    l_plus: float
    l_minus: float
    mutual_info: float
    positivity_slack: float


def _xlogx(x: float) -> float:
    """x ln x, continued to 0 at x = 0."""
    return 0.0 if x == 0.0 else x * math.log(x)


def _information(p_a: float, p_b: float, c: complex,
                 err: float) -> tuple[float, float, float, float]:
    """l_plus, l_minus, the mutual information and the positivity slack
    of a checked block (_checked_block): mutual_information's numbers."""
    scale = max(p_a + p_b, 1e-300)
    cmag = abs(c)
    if cmag == 0.0:
        # diagonal block: the eigenvalues are the probabilities themselves
        l_plus = max(p_a, p_b)
        l_minus = min(p_a, p_b)
    else:
        half_sum = 0.5 * (p_a + p_b)
        root = math.sqrt(0.25 * (p_a - p_b) ** 2 + cmag ** 2)
        l_plus = half_sum + root
        l_minus = half_sum - root

    if l_minus < 0.0:
        if l_minus < -max(1e-9 * scale, err):
            raise DomainError(f"correlation exceeds the positivity bound: "
                              f"l_minus = {l_minus:.12g}")
        l_minus = 0.0

    if cmag == 0.0:
        # the entropy terms cancel identically, so return the exact zero
        # rather than x ln x summation-order noise
        info = 0.0
    else:
        # fixed subtraction order keeps the result exactly symmetric
        # under swapping the two detectors
        p_hi, p_lo = (p_a, p_b) if p_a >= p_b else (p_b, p_a)
        info = (_xlogx(l_plus) + _xlogx(l_minus)
                - _xlogx(p_hi) - _xlogx(p_lo))
        if info < 0.0:
            if info < -1e-14 * max(1.0, abs(_xlogx(scale))):
                raise DomainError(f"mutual information came out negative "
                                  f"beyond roundoff: {info:.12g}")
            info = 0.0

    return float(l_plus), float(l_minus), info, _slack(p_a, p_b, c)


def mutual_information(block: DensityBlock, err: float = 0.0) -> MIResult:
    """Leading-order mutual information of the detector pair.

    A slightly negative lower eigenvalue (roundoff against the
    positivity boundary) is clamped to zero; anything worse than -1e-9
    relative to the block scale, and worse than err, is rejected as an
    unphysical input. err bounds the error of l_minus that the errors
    of the entries make: at most err_a + err_b + err_c."""
    return MIResult(*_information(block.p_a, block.p_b, block.c, err))


@dataclass(frozen=True)
class PairPointResult:
    """Everything the sweep needs for one parameter point.

    converged is False when P_A, P_B or C missed its tolerance."""

    p_a: float
    p_b: float
    corr: CorrelationResult
    l_plus: float
    l_minus: float
    mutual_info: float
    positivity_slack: float
    abs_error_estimate: float
    converged: bool


class PointTerms(NamedTuple):
    """The evaluated inputs of one pair point: the transition probability
    of each detector and the pair correlation."""

    response_a: ResponseBreakdown
    response_b: ResponseBreakdown
    corr: CorrelationResult


def _log_weight(value: float, delta: float) -> float:
    # sensitivity of x ln x, with the log capped at the error scale so a
    # vanishing eigenvalue does not blow up the estimate
    floor = max(abs(value), delta, 1e-300)
    return abs(math.log(floor)) + 1.0


def _evaluate_batch(batch, kinds: tuple[list, ...]) -> list[list]:
    """The results of batch(*kinds), a batch function of lists of keys
    of several kinds that returns the results of each list
    (_plan_batch), from one lockstep batch:
    for each list, the parts of its results, here the one part the
    batch gave it. A batch that raises as a whole is run again one key
    at a time, so that a key's failure does not depend on the batch it
    shared: then each key is a part of its list's results, and a key
    that raises alone has the list of its exception as its part."""
    try:
        return [[part] for part in batch(*kinds)]
    except Exception as exc:  # per-point isolation is the contract
        if sum(map(len, kinds)) == 1:
            return [[[exc]] if keys else [] for keys in kinds]
    parts = [[] for _ in kinds]
    for i, keys in enumerate(kinds):
        for key in keys:
            lone = tuple([key] if j == i else [] for j in range(len(kinds)))
            parts[i] += _evaluate_batch(batch, lone)[i]
    return parts


def _batch_jobs(batch, kinds: tuple[list, ...], workers: int) -> list[tuple]:
    """(batch, kinds) arguments of _evaluate_batch: all keys as one job,
    or on a pool of workers 4 jobs per worker (fewer when the longest
    list has fewer keys), job c holding the c-th slice of each list.
    quadrature.integrate_adaptive_batch bounds the lockstep runs a job
    takes."""
    count = 1 if workers == 1 else max(min(4 * workers,
                                           max(map(len, kinds))), 1)
    return [(batch, tuple(keys[len(keys) * c // count:
                               len(keys) * (c + 1) // count]
                          for keys in kinds)) for c in range(count)]


def _map(fn, calls: list[tuple], workers: int) -> list:
    """fn(*args) of each args tuple, in order: serially, or on one
    process pool of workers. The one place udwmi meets the pool: each
    _Plan, of a point, a sweep or the oracle suite, is evaluated here."""
    if workers == 1 or len(calls) <= 1:
        return [fn(*args) for args in calls]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls)))


def _use(table: dict, key) -> int:
    """The index of key in table, a new one the first time."""
    return table.setdefault(key, len(table))


class _Plan:
    """The lowering of pair points and oracle-suite points to the
    distinct keys of one batch, for a tol that the caller has checked
    (kinematics._require_tol).

    Its tables list each key once, in the order of first use: a
    free-space key is a (detector, tol) key of response._free_responses
    (a detector's free-space response, or its whole P without a
    mirror), a line key a key of correlation._line_batch (its full
    argument tuple: a line of C, or the image line of a mirror P), and
    an oracle key one of correlation._oracle_batch. responses maps a
    (detector, height) to the index of its P in made, which holds each
    P's detector, height, free-space index and image line index, the
    height and line index None without a mirror. Equal keys give equal
    results, so a point's terms are exactly those it has alone."""

    def __init__(self, tol: float):
        self.tol = tol
        self.frees: dict = {}
        self.lines: dict = {}
        self.oracles: dict = {}
        self.responses: dict = {}
        self.made: list[tuple] = []
        self.correlations: list = []

    def response(self, det, dz) -> int:
        """The index of det's P at height dz (None: no mirror)."""
        index = self.responses.get((det, dz))
        if index is None:
            image = (None if dz is None else
                     _use(self.lines, _image_line_args(det, dz, self.tol)[1]))
            self.made.append((det, dz, _use(self.frees, (det, self.tol)),
                              image))
            index = self.responses[det, dz] = len(self.made) - 1
        return index

    def correlation(self, pair: PairConfig) -> int:
        """The index of the pair's C: its prefactor and the indices of
        its direct and then its image line, or the DomainError of a pair
        on unequal kinematics."""
        try:
            _require_equal_kinematics(pair)
        except DomainError as exc:
            self.correlations.append(exc)
        else:
            pref, keys = _line_integral_args(pair, self.tol)
            self.correlations.append(
                (pref, [_use(self.lines, key) for key in keys]))
        return len(self.correlations) - 1

    def oracle(self, key) -> int:
        return _use(self.oracles, key)

    def point(self, pair: PairConfig) -> tuple[int, int, int]:
        """The indices of the terms P_A, P_B and C of a pair point:
        detector A at height dz, B at dz + sep."""
        dz_b = None if pair.dz is None else pair.dz + pair.sep
        return (self.response(pair.det_a, pair.dz),
                self.response(pair.det_b, dz_b), self.correlation(pair))

    def evaluate(self, workers: int = 1) -> _Terms:
        """The plan's terms, from its keys run through _evaluate_batch
        as one job or, on a pool of workers, as several (_batch_jobs),
        each holding a slice of every table's keys: since each member
        equals its batch of one, the terms do not depend on the jobs.

        A mirror P is made the first time it is asked for, with its
        free-space response as free= and its image line, as a
        LineIntegral, as line=, which leave it bit-identical to a call
        without them; a failed one of these is taken as the P's
        failure, free first, and the P is not made. C is made from its
        lines' records and takes the failure of its first failed line.
        So the first failed term of a point is the failure it meets
        first alone."""
        kinds = (list(self.frees), list(self.lines), list(self.oracles))
        done = _map(_evaluate_batch, _batch_jobs(_plan_batch, kinds, workers),
                    workers)
        frees, oracles = ([res for job in done for part in job[i]
                           for res in part] for i in (0, 2))
        lines = _join_lines([part for job in done for part in job[1]])
        records, failures = lines.records(), lines.failures

        @functools.cache
        def response(i: int):
            det, dz, free, line = self.made[i]
            free = frees[free]
            if line is None or isinstance(free, Exception):
                return free
            if line in failures:
                return failures[line]
            try:
                return transition_probability(det, dz, self.tol, free,
                                              LineIntegral(*records[line]))
            except Exception as exc:  # a term fails alone
                return exc

        def correlation(i: int):
            corr = self.correlations[i]
            if isinstance(corr, Exception):
                return corr
            pref, parts = corr
            return next((failures[j] for j in parts if j in failures),
                        None) or _correlation_from_lines(
                            pref, [records[j] for j in parts])

        return _Terms(response, correlation, oracles.__getitem__)


class _Terms(NamedTuple):
    """The evaluated terms of a _Plan by index, each a value or the
    exception it failed with: response(i) a P (ResponseBreakdown),
    correlation(i) a CorrelationResult and oracle(i) an OracleEstimate."""

    response: Callable
    correlation: Callable
    oracle: Callable

    def point(self, indices) -> tuple:
        """The terms (P_A, P_B, C) of a point's indices (_Plan.point)."""
        a, b, c = indices
        return self.response(a), self.response(b), self.correlation(c)


def _plan_batch(free_keys, line_keys, oracle_keys) -> tuple:
    """The results of the keys of a plan's reduced batch
    (response._reduced_batch) and of its oracle batch
    (correlation._oracle_batch), each batch on its own, the oracle batch
    only when there are oracle keys."""
    return (*_reduced_batch(free_keys, line_keys),
            _oracle_batch(oracle_keys) if oracle_keys else [])


def _beyond_budget(p_a: float, p_b: float) -> bool:
    """Whether P_A + P_B leaves the perturbative regime: the one test
    behind PerturbativeRegimeWarning and a sweep row's perturbative
    tag."""
    return p_a + p_b > PERTURBATIVE_BUDGET


def mutual_information_point(pair: PairConfig | PointTerms,
                             tol: float = 1e-8) -> PairPointResult:
    """Response of both detectors, their correlation, and the mutual
    information for one pair configuration.

    Detector A sits at height dz, detector B at dz + sep (heights are
    irrelevant in free space). Both detectors must share one orbit
    kinematics (DomainError otherwise): each P comes from
    transition_probability and C is correlation_equal's. The pair is
    the batch of one of a sweep's evaluation (_Plan), and a failure is
    raised in the order P_A, P_B, C. Given PointTerms instead of a
    PairConfig, the terms are taken as evaluated and tol is unused: a
    sweep evaluates each distinct term once and assembles every row
    here. Warns with PerturbativeRegimeWarning when P_A + P_B > 0.1."""
    if not isinstance(pair, PointTerms):
        plan = _Plan(_require_tol(tol))
        point = plan.point(pair)
        pair = PointTerms(*map(_checked, plan.evaluate().point(point)))
    resp_a, resp_b, corr = pair
    p_a, err_a = resp_a.total, resp_a.abs_error_estimate
    p_b, err_b = resp_b.total, resp_b.abs_error_estimate

    # a P below zero by less than its own error estimate is roundoff on a
    # vanishing response; round it to zero as mutual_information clamps
    # l_minus, and leave anything more negative for the block check
    if -err_a <= p_a < 0.0:
        p_a = 0.0
    if -err_b <= p_b < 0.0:
        p_b = 0.0

    if _beyond_budget(p_a, p_b):
        warnings.warn(
            f"P_A + P_B = {p_a + p_b:.3g} exceeds {PERTURBATIVE_BUDGET}; "
            "the leading-order state is no longer trustworthy",
            PerturbativeRegimeWarning, stacklevel=2)

    c = _checked_block(p_a, p_b, corr.c_total)
    delta = err_a + err_b + 2.0 * corr.abs_error_estimate
    # a block that is not positive by less than its error is taken as on
    # the boundary, as a P within its error of zero is
    l_plus, l_minus, info, slack = _information(float(p_a), float(p_b), c,
                                                delta)
    err_info = delta * (_log_weight(l_plus, delta)
                        + _log_weight(l_minus, delta)
                        + _log_weight(p_a, delta)
                        + _log_weight(p_b, delta))

    return PairPointResult(
        p_a=p_a, p_b=p_b, corr=corr, l_plus=l_plus, l_minus=l_minus,
        mutual_info=info, positivity_slack=slack,
        abs_error_estimate=float(err_info),
        converged=resp_a.converged and resp_b.converged and corr.converged,
    )
