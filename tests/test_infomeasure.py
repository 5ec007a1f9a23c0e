"""Density-block assembly and leading-order mutual information.

The independent oracle here diagonalizes the explicit 4x4 joint density
matrix (double-excitation coherence set to zero) and assembles
S(rho_A) + S(rho_B) - S(rho_AB) directly from eigenvalues. The package
formula is the leading-order truncation of that quantity, so the two
agree up to a correction of order (P_A + P_B)^2 that is independent of
the correlation entry.
"""
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udwmi import infomeasure, response, sweep
from udwmi.correlation import (CorrelationResult, PairConfig,
                               correlation_equal)
from udwmi.infomeasure import (PerturbativeRegimeWarning, PointTerms,
                               assemble_density_block, mutual_information,
                               mutual_information_point)
from udwmi.kinematics import DomainError, detector_from_accel_radius
from udwmi.response import transition_probability


def float_bits(value):
    """A nested tuple with every float and complex as exact hex forms."""
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    return value.hex() if isinstance(value, float) else value


def eigen_oracle_info(p_a, p_b, c):
    """Mutual information from eigen-decomposition of the full 4x4 state.

    Basis order (both ground, B excited, A excited, both excited); the
    double-excitation coherence is zero at this order, so the matrix is
    exactly block diagonal and the marginals are diagonal."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - p_a - p_b
    rho[1, 1] = p_b
    rho[2, 2] = p_a
    rho[1, 2] = c
    rho[2, 1] = np.conjugate(c)

    def entropy(ev):
        ev = ev[ev > 0.0]
        return -np.sum(ev * np.log(ev))

    s_ab = entropy(np.linalg.eigvalsh(rho))
    s_a = entropy(np.array([1.0 - p_a, p_a]))
    s_b = entropy(np.array([1.0 - p_b, p_b]))
    return s_a + s_b - s_ab


def truncation_bound(p_a, p_b):
    # the formula drops the marginal-entropy bracket, a positive
    # correction of order p_a*p_b regardless of the correlation entry,
    # so agreement is relative to the block scale p_a + p_b
    return (p_a + p_b) * max(1e-6, 10.0 * (p_a + p_b))


class TestAssembly:
    def test_boundary_case_slack_zero(self):
        block = assemble_density_block(0.01, 0.01, 0.01 + 0.0j)
        assert block.positivity_slack == 0.0

    def test_violating_block_flagged_not_rejected(self):
        block = assemble_density_block(0.01, 0.01, 0.02)
        assert block.positivity_slack < 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            assemble_density_block(-0.01, 0.01, 0.0)
        with pytest.raises(DomainError):
            assemble_density_block(0.01, -1e-15, 0.0)

    def test_probability_sum_above_one_rejected(self):
        with pytest.raises(DomainError):
            assemble_density_block(0.6, 0.5, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            assemble_density_block(math.nan, 0.01, 0.0)
        with pytest.raises(DomainError):
            assemble_density_block(0.01, math.inf, 0.0)
        with pytest.raises(DomainError):
            assemble_density_block(0.01, 0.01, complex(0.0, math.nan))


class TestClosedFormAnchors:
    def test_zero_correlation_gives_exactly_zero(self):
        for p_a, p_b in [(0.02, 0.01), (0.01, 0.01), (0.1, 0.0333),
                         (1e-6, 0.05), (0.07, 0.069999)]:
            res = mutual_information(assemble_density_block(p_a, p_b, 0.0))
            assert res.mutual_info == 0.0
            assert res.l_plus == max(p_a, p_b)
            assert res.l_minus == min(p_a, p_b)

    def test_empty_block(self):
        res = mutual_information(assemble_density_block(0.0, 0.0, 0.0))
        assert res.mutual_info == 0.0
        assert res.l_plus == 0.0 and res.l_minus == 0.0

    def test_symmetric_maximal_block_is_2p_log2(self):
        # P_A = P_B = P with |C| = P collapses to eigenvalues {2P, 0}
        res = mutual_information(assemble_density_block(0.01, 0.01, 0.01))
        assert res.l_plus == pytest.approx(0.02, rel=1e-15)
        assert res.l_minus == 0.0
        assert abs(res.mutual_info - 0.013862943611198906) < 1e-12
        assert res.mutual_info == pytest.approx(0.02 * math.log(2.0),
                                                rel=1e-13)

    def test_asymmetric_block_frozen_values(self):
        res = mutual_information(assemble_density_block(0.02, 0.01, 0.005))
        assert res.l_plus == pytest.approx(0.022071067811865475, rel=1e-14)
        assert res.l_minus == pytest.approx(0.0079289321881345248, rel=1e-14)
        assert res.mutual_info == pytest.approx(0.0017702934368322456,
                                                rel=1e-13)

    def test_asymmetric_block_against_eigen_oracle(self):
        oracle = eigen_oracle_info(0.02, 0.01, 0.005)
        assert oracle == pytest.approx(0.0019733478428004422, rel=1e-12)
        res = mutual_information(assemble_density_block(0.02, 0.01, 0.005))
        assert abs(res.mutual_info - oracle) <= truncation_bound(0.02, 0.01)

    def test_phase_of_correlation_irrelevant(self):
        base = mutual_information(assemble_density_block(0.02, 0.01, 0.005))
        for phase in (0.3, 1.7, -2.2, math.pi / 2):
            c = 0.005 * complex(math.cos(phase), math.sin(phase))
            res = mutual_information(assemble_density_block(0.02, 0.01, c))
            assert res.mutual_info == pytest.approx(base.mutual_info,
                                                    rel=1e-12)


class TestEigenOracle:
    def test_random_blocks_match_oracle(self):
        rng = np.random.default_rng(20260816)
        for _ in range(300):
            p_a, p_b = rng.uniform(1e-6, 0.1, size=2)
            mag = math.sqrt(rng.uniform(0.0, 1.0) * p_a * p_b)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            c = mag * complex(math.cos(phase), math.sin(phase))
            res = mutual_information(assemble_density_block(p_a, p_b, c))
            oracle = eigen_oracle_info(p_a, p_b, c)
            assert abs(res.mutual_info - oracle) <= truncation_bound(p_a, p_b)

    def test_oracle_correction_is_positive(self):
        # the truncated terms form a positive bracket, so the exact
        # value always sits above the leading-order formula
        rng = np.random.default_rng(7)
        for _ in range(50):
            p_a, p_b = rng.uniform(1e-3, 0.1, size=2)
            mag = math.sqrt(rng.uniform(0.0, 1.0) * p_a * p_b)
            res = mutual_information(assemble_density_block(p_a, p_b, mag))
            oracle = eigen_oracle_info(p_a, p_b, mag)
            assert oracle >= res.mutual_info


class TestResultInvariants:
    @given(p_a=st.floats(1e-6, 0.1), p_b=st.floats(1e-6, 0.1),
           frac=st.floats(0.0, 1.0), phase=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_eigenvalues_and_nonnegativity(self, p_a, p_b, frac, phase):
        mag = math.sqrt(frac * p_a * p_b)
        c = mag * complex(math.cos(phase), math.sin(phase))
        res = mutual_information(assemble_density_block(p_a, p_b, c))
        assert res.l_plus >= res.l_minus >= 0.0
        assert abs(res.l_plus + res.l_minus - (p_a + p_b)) < 1e-12
        assert res.mutual_info >= 0.0

    @given(p_a=st.floats(1e-6, 0.1), p_b=st.floats(1e-6, 0.1),
           frac=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, p_a, p_b, frac):
        mag = math.sqrt(frac * p_a * p_b)
        a = mutual_information(assemble_density_block(p_a, p_b, mag))
        b = mutual_information(assemble_density_block(p_b, p_a, mag))
        assert a.mutual_info == b.mutual_info

    def test_strictly_increasing_in_correlation(self):
        p_a, p_b = 0.03, 0.011
        cap = math.sqrt(p_a * p_b)
        fracs = np.linspace(0.05, 1.0, 20)
        infos = [mutual_information(
            assemble_density_block(p_a, p_b, f * cap)).mutual_info
            for f in fracs]
        assert all(b > a for a, b in zip(infos, infos[1:]))
        assert infos[0] > 0.0


class TestPositivityHandling:
    def test_roundoff_excess_clamped(self):
        # |c| a hair past the boundary: l_minus dips below zero by
        # roundoff only and must come back clamped, not raise
        p = 0.01
        c = p * (1.0 + 5e-13)
        block = assemble_density_block(p, p, c)
        res = mutual_information(block)
        assert res.l_minus == 0.0
        assert res.positivity_slack < 0.0
        assert math.isfinite(res.mutual_info)

    def test_excess_within_error_bound_clamped(self):
        # l_minus about -5e-17 on a block of scale 1e-9 (past the 1e-9
        # relative roundoff allowance) is clamped when the entries' error
        # bound covers it, and rejected when it does not
        p_a, p_b = 9.7e-11, 8.8e-10
        c = math.sqrt(p_a * p_b) * (1.0 + 3e-7)
        block = assemble_density_block(p_a, p_b, c)
        with pytest.raises(DomainError, match="positivity"):
            mutual_information(block)
        with pytest.raises(DomainError, match="positivity"):
            mutual_information(block, 1e-17)
        res = mutual_information(block, 1e-13)
        assert res.l_minus == 0.0 and res.positivity_slack < 0.0

    def test_genuine_violation_rejected(self):
        block = assemble_density_block(0.01, 0.01, 0.02)
        with pytest.raises(DomainError):
            mutual_information(block)

    def test_correlation_with_dead_detector_rejected(self):
        block = assemble_density_block(0.0, 0.05, 1e-3)
        with pytest.raises(DomainError):
            mutual_information(block)


class TestNegativeProbabilityRounding:
    # a P below zero by no more than its own error estimate is roundoff
    # on a vanishing response and rounds to zero; one further below is
    # left to the density-block check
    @staticmethod
    def terms(p, err, vanishing="p_b"):
        resp = transition_probability(
            detector_from_accel_radius(0.5, 0.1, 1.0), None)
        small = dataclasses.replace(
            resp, term_bounded=0.0, term_inertial=p, total=p,
            abs_error_estimate=err)
        corr = CorrelationResult(c_total=0j, c_free=0j, c_boundary=0j,
                                 abs_error_estimate=0.0, converged=True)
        if vanishing == "p_a":
            return PointTerms(small, resp, corr)
        return PointTerms(resp, small, corr)

    @pytest.mark.parametrize("vanishing, p", [
        ("p_b", -1e-17), ("p_b", -1e-10), ("p_a", -1e-17), ("p_a", -1e-10)],
        ids=["-1e-17", "-1e-10", "p_a:-1e-17", "p_a:-1e-10"])
    def test_within_error_rounds_to_zero(self, vanishing, p):
        pt = mutual_information_point(self.terms(p, 1e-10, vanishing))
        rounded = getattr(pt, vanishing)
        assert rounded == 0.0 and math.copysign(1.0, rounded) == 1.0
        assert pt.mutual_info == 0.0

    def test_beyond_error_is_rejected(self):
        for vanishing in ("p_a", "p_b"):
            with pytest.raises(DomainError, match="negative transition"):
                mutual_information_point(
                    self.terms(-2e-10, 1e-10, vanishing))


def test_fail_status_does_not_depend_on_last_bits():
    # two P one ulp apart fail alike: the numbers of a fail status carry
    # the 12 significant digits of a table's numeric cells
    resp = transition_probability(
        detector_from_accel_radius(0.5, 0.1, 1.0), None)
    corr = CorrelationResult(c_total=0j, c_free=0j, c_boundary=0j,
                             abs_error_estimate=0.0, converged=True)
    p = 0.5400616153771887
    sums, statuses = set(), set()
    for p_a in (p, math.nextafter(p, 1.0)):
        terms = PointTerms(*(dataclasses.replace(
            resp, term_bounded=0.0, term_inertial=q, total=q)
            for q in (p_a, 0.5)), corr)
        sums.add(p_a + 0.5)
        with pytest.warns(PerturbativeRegimeWarning):
            statuses.add(sweep._row_status(terms)[0])
    assert len(sums) == 2
    assert statuses == {"fail:DomainError:p_a + p_b = 1.04006161538 exceeds 1"}


class TestEndToEndPoint:
    def test_circular_pair_frozen_point(self):
        det = detector_from_accel_radius(0.1, 5.0, 0.02)
        pair = PairConfig(det_a=det, det_b=det, sep=1.0, dz=0.1)
        with pytest.warns(PerturbativeRegimeWarning):
            res = mutual_information_point(pair, tol=1e-10)
        assert res.p_a == pytest.approx(0.049664916390010528, rel=1e-10)
        assert res.p_b == pytest.approx(0.097113477563718938, rel=1e-10)
        assert abs(res.corr.c_total) == pytest.approx(0.0038065538481572823,
                                                      rel=1e-8)
        assert res.l_plus == pytest.approx(0.097416917250804754, rel=1e-9)
        assert res.l_minus == pytest.approx(0.049361476702924712, rel=1e-9)
        assert res.mutual_info == pytest.approx(0.00020488343871011794,
                                                rel=1e-8)
        assert res.positivity_slack > 0.0
        assert res.abs_error_estimate < 1e-7
        assert abs(res.mutual_info - 0.00020488343871011794) \
            <= res.abs_error_estimate

    def test_static_pair_frozen_point(self):
        det = detector_from_accel_radius(0.1, 0.0, 0.02)
        pair = PairConfig(det_a=det, det_b=det, sep=2.0, dz=0.5)
        res = mutual_information_point(pair, tol=1e-8)
        assert res.p_a == pytest.approx(0.0092262037684633917, rel=1e-7)
        assert res.p_b == pytest.approx(0.059283577988971221, rel=1e-7)
        assert abs(res.corr.c_total) == pytest.approx(0.016574290969986461,
                                                      rel=1e-7)
        assert res.mutual_info == pytest.approx(0.011180734594706191,
                                                rel=1e-7)

    def test_far_pair_decorrelates_algebraically(self):
        # massless-field vacuum correlations fall off like 1/L^2, not
        # like a Gaussian: at sep 40 with the wall 50 away the entire
        # correlation is the free-space algebraic tail minus its image
        gap, sep, dz = 0.1, 40.0, 50.0
        det = detector_from_accel_radius(gap, 0.1, 0.02)
        pair = PairConfig(det_a=det, det_b=det, sep=sep, dz=dz)
        # two free-space-grade responses of 0.066 each sum past the
        # perturbative budget, so the point legitimately warns
        with pytest.warns(PerturbativeRegimeWarning):
            res = mutual_information_point(pair, tol=1e-8)
        tail = math.exp(-gap * gap) / (2.0 * math.pi) \
            * (1.0 / sep ** 2 - 1.0 / (sep + 2.0 * dz) ** 2)
        assert abs(res.corr.c_total) == pytest.approx(tail, rel=5e-3)
        assert res.mutual_info < 1e-6
        assert res.mutual_info > 0.0

    @pytest.mark.parametrize("dz", [None, 1.0])
    @pytest.mark.parametrize("gap_b, bounded_calls", [(1.0, 1), (1.5, 2)])
    def test_equal_detectors_share_the_free_response(self, monkeypatch, dz,
                                                     gap_b, bounded_calls):
        # equal detectors run the bounded quadrature of their free-space
        # response once, unequal ones as two members, in the one
        # lockstep batch of the point's free-space and line terms, and
        # the point is bit-identical to evaluating each detector's P on
        # its own
        det_a = detector_from_accel_radius(1.0, 0.1, 0.02)
        det_b = detector_from_accel_radius(gap_b, 0.1, 0.02)
        pair = PairConfig(det_a=det_a, det_b=det_b, sep=2.0, dz=dz)
        dz_b = None if dz is None else dz + 2.0
        expected = mutual_information_point(PointTerms(
            transition_probability(det_a, dz),
            transition_probability(det_b, dz_b), correlation_equal(pair)))
        calls = []
        adaptive_parts = response._adaptive_parts
        batches = []
        reduced = infomeasure._reduced_batch

        def counted(parts, *args):
            # the free-space part's members, one per bounded quadrature
            calls.append(parts[0].lo.size)
            return adaptive_parts(parts, *args)

        def counted_reduced(free_keys, line_keys):
            batches.append(len(line_keys))
            return reduced(free_keys, line_keys)

        monkeypatch.setattr(response, "_adaptive_parts", counted)
        monkeypatch.setattr(infomeasure, "_reduced_batch", counted_reduced)
        pt = mutual_information_point(pair)
        # one batch, one member per distinct detector
        assert calls == [bounded_calls]
        # the image lines of both P and the lines of C are in that batch
        assert batches == [1 if dz is None else 4]
        assert float_bits(dataclasses.astuple(pt)) == \
            float_bits(dataclasses.astuple(expected))

    @pytest.mark.parametrize("dz", [None, 1.0])
    def test_point_does_not_depend_on_its_batch(self, monkeypatch, dz):
        # a batch that raises as a whole is run again one key at a time,
        # so a point's failure, as a sweep row's, does not depend on the
        # batch its keys shared: here only batches of one key succeed,
        # and the point is bit-identical to its unpatched result
        det_a = detector_from_accel_radius(1.0, 0.1, 0.02)
        det_b = detector_from_accel_radius(1.5, 0.1, 0.02)
        pair = PairConfig(det_a=det_a, det_b=det_b, sep=2.0, dz=dz)
        expected = mutual_information_point(pair)
        reduced = infomeasure._reduced_batch
        sizes = []

        def lone_keys_only(free_keys, line_keys):
            sizes.append(len(free_keys) + len(line_keys))
            if sizes[-1] > 1:
                raise RuntimeError("forced failure of a shared batch")
            return reduced(free_keys, line_keys)

        monkeypatch.setattr(infomeasure, "_reduced_batch", lone_keys_only)
        pt = mutual_information_point(pair)
        assert sizes[0] == (3 if dz is None else 6)
        assert sizes[1:] == [1] * sizes[0]
        assert float_bits(dataclasses.astuple(pt)) == \
            float_bits(dataclasses.astuple(expected))

    def test_unequal_kinematics_rejected(self):
        # only a pair on one orbit kinematics has a reduced correlation;
        # the definition-level one is a cross-check, not a fallback
        da = detector_from_accel_radius(1.0, 1.0, 1.0)
        db = detector_from_accel_radius(1.0, 1.0, 2.0)
        for dz in (None, 1.0):
            with pytest.raises(DomainError, match="same orbit"):
                mutual_information_point(
                    PairConfig(det_a=da, det_b=db, sep=1.0, dz=dz), tol=3e-9)

    @pytest.mark.parametrize("accel", [1.0, 0.0])
    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_nonpositive_tol_rejected(self, accel, tol):
        # each entry point checks its tol where it enters, before any
        # evaluator, so a rotating and a static detector reject it alike
        det = detector_from_accel_radius(0.1, accel, 1.0)
        for dz in (None, 1.0):
            pair = PairConfig(det_a=det, det_b=det, sep=1.0, dz=dz)
            for call in (lambda: mutual_information_point(pair, tol),
                         lambda: transition_probability(det, dz, tol),
                         lambda: correlation_equal(pair, tol)):
                with pytest.raises(DomainError, match="tol must be positive"):
                    call()

    @pytest.mark.parametrize("entry", [
        "mutual_information_point", "transition_probability",
        "correlation_equal", "transition_probability_oracle_result",
        "correlation_general_result", "SweepSpec"])
    @pytest.mark.parametrize("tol", [1e-323, sys.float_info.min / 2.0])
    def test_subnormal_tol_rejected(self, entry, tol):
        # a budget split would round a subnormal tol to zero: every entry
        # point rejects it with the one message of kinematics._require_tol,
        # rotating and static detectors, with and without the mirror
        import udwmi

        for accel in (1.0, 0.0):
            det = detector_from_accel_radius(0.1, accel, 1.0)
            for dz in (None, 1.0):
                pair = PairConfig(det_a=det, det_b=det, sep=1.0, dz=dz)
                call = {
                    "mutual_information_point":
                        lambda: udwmi.mutual_information_point(pair, tol),
                    "transition_probability":
                        lambda: udwmi.transition_probability(det, dz, tol),
                    "correlation_equal":
                        lambda: udwmi.correlation_equal(pair, tol),
                    "transition_probability_oracle_result":
                        lambda: udwmi.transition_probability_oracle_result(
                            det, dz, tol),
                    "correlation_general_result":
                        lambda: udwmi.correlation_general_result(pair, tol),
                    "SweepSpec": lambda: udwmi.SweepSpec(
                        axis=udwmi.SweepAxis(name="sep", start=1.0,
                                             stop=2.0, points=2),
                        dz=dz, tol=tol),
                }[entry]
                with pytest.raises(DomainError, match="tol must be positive "
                                   "and finite, at least the smallest "
                                   "normal float"):
                    call()

    def test_no_warning_in_perturbative_regime(self):
        det = detector_from_accel_radius(0.1, 0.1, 0.02)
        pair = PairConfig(det_a=det, det_b=det, sep=2.0, dz=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PerturbativeRegimeWarning)
            res = mutual_information_point(pair, tol=1e-8)
        assert res.p_a + res.p_b < 0.1
