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
and C from correlation.correlation_equal, so both detectors must share
one orbit kinematics. The definition-level oracles are cross-checks
(sweep's oracle suite), never a fallback.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from scipy.special import xlogy

from .correlation import CorrelationResult, PairConfig, correlation_equal
from .kinematics import DomainError
from .response import ResponseBreakdown, transition_probability

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
        return self.p_a * self.p_b - abs(self.c) ** 2


def assemble_density_block(p_a: float, p_b: float, c: complex) -> DensityBlock:
    """Validated constructor: probabilities must be finite, nonnegative,
    and sum to at most one."""
    if not (math.isfinite(p_a) and math.isfinite(p_b)):
        raise DomainError("transition probabilities must be finite")
    if p_a < 0.0 or p_b < 0.0:
        raise DomainError(f"negative transition probability: "
                          f"p_a={p_a}, p_b={p_b}")
    if p_a + p_b > 1.0:
        raise DomainError(f"p_a + p_b = {p_a + p_b} exceeds 1")
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DomainError("correlation must be finite")
    return DensityBlock(p_a=float(p_a), p_b=float(p_b), c=c)


@dataclass(frozen=True)
class MIResult:
    l_plus: float
    l_minus: float
    mutual_info: float
    positivity_slack: float


def mutual_information(block: DensityBlock) -> MIResult:
    """Leading-order mutual information of the detector pair.

    A slightly negative lower eigenvalue (roundoff against the
    positivity boundary) is clamped to zero; anything worse than -1e-9
    relative to the block scale is rejected as an unphysical input."""
    p_a, p_b, c = block.p_a, block.p_b, block.c
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
        if l_minus < -1e-9 * scale:
            raise DomainError(f"correlation exceeds the positivity bound: "
                              f"l_minus = {l_minus}")
        l_minus = 0.0

    if cmag == 0.0:
        # the entropy terms cancel identically, so return the exact zero
        # rather than xlogy summation-order noise
        info = 0.0
    else:
        # fixed subtraction order keeps the result exactly symmetric
        # under swapping the two detectors
        p_hi, p_lo = (p_a, p_b) if p_a >= p_b else (p_b, p_a)
        info = float(xlogy(l_plus, l_plus) + xlogy(l_minus, l_minus)
                     - xlogy(p_hi, p_hi) - xlogy(p_lo, p_lo))
        if info < 0.0:
            if info < -1e-14 * max(1.0, abs(xlogy(scale, scale))):
                raise DomainError(f"mutual information came out negative "
                                  f"beyond roundoff: {info}")
            info = 0.0

    return MIResult(l_plus=float(l_plus), l_minus=float(l_minus),
                    mutual_info=info,
                    positivity_slack=block.positivity_slack)


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


def mutual_information_point(pair: PairConfig | PointTerms,
                             tol: float = 1e-8) -> PairPointResult:
    """Response of both detectors, their correlation, and the mutual
    information for one pair configuration.

    Detector A sits at height dz, detector B at dz + sep (heights are
    irrelevant in free space). Both detectors must share one orbit
    kinematics (DomainError otherwise): each P comes from
    transition_probability and C from correlation_equal. Given
    PointTerms instead of a PairConfig, the terms are taken as evaluated
    and tol is unused: a sweep evaluates each distinct term once and
    assembles every row here. Warns with PerturbativeRegimeWarning when
    P_A + P_B > 0.1."""
    if isinstance(pair, PointTerms):
        terms = pair
    else:
        # equal detectors share one free-space response, which free=
        # leaves bit-identical
        dz_b = None if pair.dz is None else pair.dz + pair.sep
        free = (transition_probability(pair.det_a, None, tol)
                if pair.det_b == pair.det_a else None)
        terms = PointTerms(
            transition_probability(pair.det_a, pair.dz, tol, free),
            transition_probability(pair.det_b, dz_b, tol, free),
            correlation_equal(pair, tol))
    resp_a, resp_b, corr = terms
    p_a, err_a = resp_a.total, resp_a.abs_error_estimate
    p_b, err_b = resp_b.total, resp_b.abs_error_estimate

    # a P below zero by less than its own error estimate is roundoff on a
    # vanishing response; round it to zero as mutual_information clamps
    # l_minus, and leave anything more negative for the block check
    if -err_a <= p_a < 0.0:
        p_a = 0.0
    if -err_b <= p_b < 0.0:
        p_b = 0.0

    if p_a + p_b > PERTURBATIVE_BUDGET:
        warnings.warn(
            f"P_A + P_B = {p_a + p_b:.3g} exceeds {PERTURBATIVE_BUDGET}; "
            "the leading-order state is no longer trustworthy",
            PerturbativeRegimeWarning, stacklevel=2)

    block = assemble_density_block(p_a, p_b, corr.c_total)
    mi = mutual_information(block)

    delta = err_a + err_b + 2.0 * corr.abs_error_estimate
    err_info = delta * (_log_weight(mi.l_plus, delta)
                        + _log_weight(mi.l_minus, delta)
                        + _log_weight(p_a, delta)
                        + _log_weight(p_b, delta))

    return PairPointResult(
        p_a=p_a, p_b=p_b, corr=corr,
        l_plus=mi.l_plus, l_minus=mi.l_minus,
        mutual_info=mi.mutual_info,
        positivity_slack=mi.positivity_slack,
        abs_error_estimate=float(err_info),
        converged=resp_a.converged and resp_b.converged and corr.converged,
    )
