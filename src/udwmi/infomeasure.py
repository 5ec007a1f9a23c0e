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

This module is the one evaluator of pair points, for one point and a
sweep alike: _plan_points lowers pairs to their distinct free-space
responses, line integrals and mirror responses; the caller evaluates
the first two as the members of one lockstep batch
(response._reduced_batch, whose results are those of
response._free_responses and of the array core
correlation._line_batch); and _point_terms yields each pair's terms,
making each mirror P the first time a pair needs it. A single point is
the batch of one of this evaluation. mutual_information_point assembles
a point with the scalar helpers _checked_block and _information, which
assemble_density_block and mutual_information wrap, so a row makes no
DensityBlock or MIResult.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .correlation import (CorrelationResult, LineIntegral, PairConfig,
                          _correlation_from_lines, _line_integral_args,
                          _Lines, _require_equal_kinematics)
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


def _plan_points(pairs, tol: float) -> tuple[list[tuple], list, list, list]:
    """Lower pair points to the distinct terms they need, for a tol
    that the caller has checked (kinematics._require_tol).

    Returns one plan per pair, then the distinct free-space keys, line
    keys and responses, each listed once in the order the plans first
    use it. A free-space key is a (detector, tol) key of
    response._free_responses: a detector's free-space response, or its
    whole P without a mirror. A line key is a key of
    correlation._line_batch (its full argument tuple): a
    line of C, or the image line of a mirror P. A response is
    (detector, height, free-space index, image line index), the height
    and line index None without a mirror, and is looked up by its
    detector and height once it is known. Equal keys give equal results,
    so a plan's terms are exactly those its pair evaluated alone has.

    A plan is (response indices of P_A and P_B, C), where C is (its
    prefactor, the indices of its direct and then its image line), or
    the DomainError of a pair on unequal kinematics."""
    frees: dict = {}
    lines: dict = {}
    responses: dict = {}
    known: dict = {}  # the response index of each (detector, height)

    def use(table: dict, key) -> int:
        return table.setdefault(key, len(table))

    def response(det, dz) -> int:
        index = known.get((det, dz))
        if index is None:
            image = (None if dz is None
                     else use(lines, _image_line_args(det, dz, tol)[1]))
            index = known[det, dz] = use(
                responses, (det, dz, use(frees, (det, tol)), image))
        return index

    plans = []
    for pair in pairs:
        dz_b = None if pair.dz is None else pair.dz + pair.sep
        resp = (response(pair.det_a, pair.dz), response(pair.det_b, dz_b))
        try:
            _require_equal_kinematics(pair)
        except DomainError as exc:
            plans.append((resp, exc))
            continue
        pref, c_keys = _line_integral_args(pair, tol)
        plans.append((resp, (pref, tuple(use(lines, key) for key in c_keys))))
    return plans, list(frees), list(lines), list(responses)


def _point_terms(plans, responses, frees, lines: _Lines, tol: float):
    """Yield the terms (P_A, P_B, C) of each plan of _plan_points, each
    a value or the exception it failed with, from the evaluated
    free-space responses, themselves values or exceptions, and the
    _Lines of the line keys.

    A mirror P is made the first time a plan needs it, with its
    free-space response as free= and its image line, as a
    LineIntegral, as line=, which leave it bit-identical to a call
    without them; a failed one of these is taken as the P's failure,
    free first, and the P is not made. C is made from its lines'
    records and takes the failure of its first failed line. So the
    first failed term is the failure a pair evaluated alone meets
    first."""
    records, failures = lines.records(), lines.failures

    @functools.cache
    def response(i: int):
        det, dz, free, line = responses[i]
        free = frees[free]
        if line is None or isinstance(free, Exception):
            return free
        if line in failures:
            return failures[line]
        try:
            return transition_probability(det, dz, tol, free,
                                          LineIntegral(*records[line]))
        except Exception as exc:  # a term fails alone
            return exc

    for resp, corr in plans:
        if not isinstance(corr, Exception):
            pref, parts = corr
            corr = next((failures[i] for i in parts if i in failures),
                        None) or _correlation_from_lines(
                            pref, [records[i] for i in parts])
        yield (*map(response, resp), corr)


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
    the batch of one of a sweep's evaluation: _plan_points lowers it,
    its free-space responses and its lines (the image lines of both P
    and the lines of C) run as the members of one lockstep batch
    (response._reduced_batch), and _point_terms makes its terms; a
    failure is raised in the order
    P_A, P_B, C. Given PointTerms instead of a PairConfig, the terms are
    taken as evaluated and tol is unused: a sweep evaluates each
    distinct term once and assembles every row here. Warns with
    PerturbativeRegimeWarning when P_A + P_B > 0.1."""
    if not isinstance(pair, PointTerms):
        tol = _require_tol(tol)
        plans, free_keys, line_keys, responses = _plan_points([pair], tol)
        (terms,) = _point_terms(plans, responses,
                                *_reduced_batch(free_keys, line_keys), tol)
        pair = PointTerms(*map(_checked, terms))
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
