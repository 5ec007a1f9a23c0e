import numpy as np
import pytest

from udwmi import (
    DomainError,
    detector_from_accel_radius,
    inertial_response,
    transition_probability,
    transition_probability_oracle_result,
)

# Frozen expected values come from an independent mpmath implementation of
# the closed forms (50 significant digits; dps-30 and dps-50 runs agree to
# 20+ digits). The boundary values were additionally confirmed against a
# finite-epsilon regularization of the defining double integral.

GAP = 0.1


def det(accel, radius, gap=GAP):
    return detector_from_accel_radius(gap, accel, radius)


class TestInertialLimit:
    def test_frozen_value(self):
        assert np.isclose(inertial_response(0.1), 0.066267183029373794, rtol=1e-13)

    def test_large_gap_suppression(self):
        # detailed balance: excitation dies off once the gap beats the
        # switching bandwidth
        assert inertial_response(8.0) < 1e-4 * inertial_response(0.1)

    def test_matches_zero_speed_orbit(self):
        # an orbit with vanishing speed responds like an inertial detector
        slow = det(1e-10, 1e-6)
        r = transition_probability(slow, None, 1e-12)
        assert np.isclose(r.total, inertial_response(GAP), rtol=1e-9)


class TestImagePole:
    # the pole of the image line integral, reported in the scaled time
    # variable x = gamma*omega*tau/2
    def test_frozen_location(self):
        s = transition_probability(det(5.0, 0.02), 0.1).pole_location
        assert np.isclose(s, 1.5373792254989728, rtol=1e-12)

    def test_defining_identity(self):
        # S^2 - v^2 sin^2 S = (omega dz)^2 at the returned point
        for accel, radius, dz in [(5.0, 0.02, 0.1), (1.0, 1.0, 5.0),
                                  (0.1, 10.0, 1.0), (30.0, 0.02, 0.3)]:
            d = det(accel, radius)
            s = transition_probability(d, dz).pole_location
            lhs = s * s - d.speed**2 * np.sin(s) ** 2
            assert np.isclose(lhs, (d.omega * dz) ** 2, rtol=1e-11)

    def test_bracket(self):
        # the root sits between omega dz and gamma omega dz; dz = 40 takes
        # the far-pole branch, which locates the pole all the same
        d = det(5.0, 0.02)
        for dz in (0.05, 0.5, 3.0, 40.0):
            r = transition_probability(d, dz)
            assert bool(r.notes) == (dz == 40.0)
            s = r.pole_location
            assert d.omega * dz - 1e-12 <= s <= d.gamma * d.omega * dz + 1e-12

    def test_radius_below_rounding(self):
        # 4 R^2 is about an ulp of (2 dz)^2, so the bracket end
        # sqrt((2 dz)^2 + 4 R^2) can round onto 2 dz; the pole is still
        # found, at omega dz to rounding
        d = det(1.0, 1e-6)
        for dz in (44.0, 47.0, 66.0):
            s = transition_probability(d, dz).pole_location
            assert np.isclose(s, d.omega * dz, rtol=1e-14)


class TestBoundaryResponse:
    @pytest.mark.parametrize(
        "accel,radius,dz,expected",
        [
            (5.0, 0.02, 0.1, 0.049664916390010528),
            (0.1, 10.0, 1.0, 0.028849057119395134),
            (1.0, 1.0, 5.0, 0.075808903842156984),
        ],
    )
    def test_frozen_values(self, accel, radius, dz, expected):
        r = transition_probability(det(accel, radius), dz, tol=1e-10)
        assert np.isclose(r.total, expected, rtol=1e-8)
        assert r.converged
        assert abs(r.total - expected) <= 10 * max(r.abs_error_estimate, 1e-12)

    def test_breakdown_sums_to_total(self):
        r = transition_probability(det(5.0, 0.02), 0.1, tol=1e-10)
        parts = r.term_bounded + r.term_pv + r.term_inertial + r.term_pole
        assert np.isclose(parts, r.total, rtol=1e-14)
        assert np.isclose(r.term_inertial, inertial_response(GAP), rtol=1e-13)

    def test_far_pole_branch(self):
        # pole far beyond the Gaussian support: evaluated as a regular
        # integral, flagged in the notes, frozen value still reproduced
        r = transition_probability(det(0.1, 0.02), 50.0, tol=1e-10)
        assert np.isclose(r.total, 0.066354288114062519, rtol=1e-8)
        assert any("pole" in note for note in r.notes)

    def test_algebraic_image_decay(self):
        # P_free - P(dz) approaches exp(-gap^2) / (8 pi dz^2); the residual
        # correction at dz = 50 is three orders below the deficit itself
        d = det(0.1, 0.02)
        p_far = transition_probability(d, 50.0, tol=1e-12).total
        p_free = transition_probability(d, None, 1e-12).total
        deficit = p_free - p_far
        predicted = np.exp(-GAP * GAP) / (8 * np.pi * 50.0**2)
        assert np.isclose(deficit, predicted, rtol=1e-3)

    def test_boundary_suppresses_close_in(self):
        # Dirichlet wall: the field (and hence the response) dies off as
        # the detector approaches the mirror
        d = det(1.0, 1.0)
        p_near = transition_probability(d, 0.01, tol=1e-9).total
        p_mid = transition_probability(d, 1.0, tol=1e-9).total
        p_free = transition_probability(d, None, 1e-9).total
        assert p_near < 0.1 * p_free
        assert p_near < p_mid

    def test_positive(self):
        for accel, radius, dz in [(5.0, 0.02, 0.1), (0.1, 10.0, 0.2),
                                  (12.0, 0.02, 1.0)]:
            assert transition_probability(det(accel, radius), dz, tol=1e-9).total > 0.0

    def test_static_radius_is_inert(self):
        # at omega = 0 the image denominator (2 dz)^2 - s^2 has no R in
        # it, so the orbit radius must not change a single bit of P
        near, far = (transition_probability(det(0.0, r), 0.5)
                     for r in (0.02, 100.0))
        assert near == far


class TestFreeResponse:
    @pytest.mark.parametrize(
        "accel,radius,expected",
        [
            (5.0, 0.02, 0.12957603228838777),
            (0.1, 10.0, 0.066398194165612875),
            (0.1, 0.02, 0.066370048341704926),
        ],
    )
    def test_frozen_values(self, accel, radius, expected):
        r = transition_probability(det(accel, radius), None, 1e-10)
        assert np.isclose(r.total, expected, rtol=1e-8)

    def test_no_boundary_terms(self):
        r = transition_probability(det(5.0, 0.02), None, 1e-10)
        assert r.term_pv == 0.0
        assert r.term_pole == 0.0

    def test_grows_with_acceleration(self):
        totals = [
            transition_probability(det(a, 0.02), None, 1e-9).total
            for a in (0.1, 1.0, 5.0, 20.0)
        ]
        assert all(b > a for a, b in zip(totals, totals[1:]))


class TestDefinitionOracle:
    # the oracle integrates the defining double quadrature at three
    # regulator values and extrapolates; it shares no code with the
    # closed-form path
    def test_boundary_point(self):
        est = transition_probability_oracle_result(det(5.0, 0.02), 0.1)
        assert est.monotone
        assert np.isclose(est.value, 0.049664916390010528, rtol=1e-4)
        assert abs(est.value - 0.049664916390010528) <= 5 * est.error_estimate

    def test_free_point(self):
        est = transition_probability_oracle_result(det(0.1, 10.0), None)
        assert np.isclose(est.value, 0.066398194165612875, rtol=1e-5)

    @pytest.mark.parametrize("gap,radius,dz", [
        (0.1, 1.0, None), (0.5, 0.02, 0.1), (1.0, 10.0, 0.5), (0.1, 1.0, 5.0),
    ])
    def test_static_detector(self, gap, radius, dz):
        # omega = 0: no bounded term, and the image pole on the light cone
        # at s0 = 2 dz, so pole_location = omega s0 / 2 is 0
        r = transition_probability(det(0.0, radius, gap), dz, tol=1e-10)
        assert r.converged
        assert r.term_bounded == 0.0
        assert r.pole_location == (None if dz is None else 0.0)
        est = transition_probability_oracle_result(det(0.0, radius, gap), dz)
        assert abs(r.total - est.value) <= est.error_estimate


class TestValidation:
    def test_nonpositive_dz_rejected(self):
        with pytest.raises(DomainError):
            transition_probability(det(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            transition_probability(det(1.0, 1.0), -2.0)
