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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

from scipy.special import xlogy

from .correlation import (CorrelationResult, PairConfig, correlation_equal,
                          correlation_general_result)
from .kinematics import DomainError
from .response import (transition_probability,
                       transition_probability_oracle_result)

__all__ = [
    "DensityBlock",
    "MIResult",
    "PairPointResult",
    "PerturbativeRegimeWarning",
    "assemble_density_block",
    "mutual_information",
    "mutual_information_point",
]

PERTURBATIVE_BUDGET = 0.1


class PerturbativeRegimeWarning(RuntimeWarning):
    """Raised as a warning when P_A + P_B leaves the perturbative regime."""


@dataclass(frozen=True)
class DensityBlock:
    """Leading-order single-excitation block of the joint state.

    x_omitted records that the double-excitation coherence is not part
    of this representation (it does not enter the mutual information at
    leading order)."""

    p_a: float
    p_b: float
    c: complex
    x_omitted: ClassVar[bool] = True

    @property
    def positivity_slack(self) -> float:
        """P_A P_B - |C|^2; negative means the block is not a state."""
        return self.p_a * self.p_b - abs(self.c) ** 2

    @property
    def positivity_ok(self) -> bool:
        return (self.p_a >= 0.0 and self.p_b >= 0.0
                and self.p_a + self.p_b <= 1.0
                and self.positivity_slack >= -1e-9)


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
    """Everything the sweep needs for one parameter point."""

    p_a: float
    p_b: float
    corr: CorrelationResult
    l_plus: float
    l_minus: float
    mutual_info: float
    positivity_slack: float
    abs_error_estimate: float


def _log_weight(value: float, delta: float) -> float:
    # sensitivity of x ln x, with the log capped at the error scale so a
    # vanishing eigenvalue does not blow up the estimate
    floor = max(abs(value), delta, 1e-300)
    return abs(math.log(floor)) + 1.0


def mutual_information_point(pair: PairConfig,
                             tol: float = 1e-8) -> PairPointResult:
    """Response of both detectors, their correlation, and the mutual
    information for one pair configuration.

    Detector A sits at height dz, detector B at dz + sep (heights are
    irrelevant in free space). Rotating detectors use the reduced closed
    forms; a static detector (omega = 0) falls back to the
    definition-level double quadrature. Warns with
    PerturbativeRegimeWarning when P_A + P_B > 0.1."""
    dz_a = pair.dz
    dz_b = None if pair.dz is None else pair.dz + pair.sep

    errs = []
    if pair.det_a.omega > 0.0:
        ra = transition_probability(pair.det_a, dz_a, tol)
        p_a, err_a = ra.total, ra.abs_error_estimate
    else:
        oa = transition_probability_oracle_result(pair.det_a, dz_a, tol=tol * 100)
        p_a, err_a = float(oa.value), oa.error_estimate
    errs.append(err_a)

    if pair.det_b.omega > 0.0:
        rb = transition_probability(pair.det_b, dz_b, tol)
        p_b, err_b = rb.total, rb.abs_error_estimate
    else:
        ob = transition_probability_oracle_result(pair.det_b, dz_b, tol=tol * 100)
        p_b, err_b = float(ob.value), ob.error_estimate
    errs.append(err_b)

    # a P below zero by less than its own error estimate is roundoff on a
    # vanishing response; round it to zero as mutual_information clamps
    # l_minus, and leave anything more negative for the block check
    if -err_a <= p_a < 0.0:
        p_a = 0.0
    if -err_b <= p_b < 0.0:
        p_b = 0.0

    if pair.equal_kinematics:
        corr = correlation_equal(pair, tol)
    else:
        est = correlation_general_result(pair)
        if pair.dz is None:
            corr = CorrelationResult(
                c_total=est.value, c_free=est.value, c_boundary=0.0 + 0.0j,
                abs_error_estimate=est.error_estimate,
                converged=est.monotone)
        else:
            free_pair = PairConfig(det_a=pair.det_a, det_b=pair.det_b,
                                   sep=pair.sep, dz=None)
            est_free = correlation_general_result(free_pair)
            corr = CorrelationResult(
                c_total=est.value,
                c_free=est_free.value,
                c_boundary=est_free.value - est.value,
                abs_error_estimate=est.error_estimate + est_free.error_estimate,
                converged=est.monotone and est_free.monotone)
    errs.append(corr.abs_error_estimate)

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
    )
