import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from udwmi import (
    CircularDetectorSpec,
    DomainError,
    PairConfig,
    SweepAxis,
    SweepSpec,
    detector_from_accel_radius,
    omega_from_accel_radius,
)
from udwmi.sweep import load_grid

import long_double


class TestDerivedQuantities:
    def test_unit_accel_unit_radius(self):
        det = detector_from_accel_radius(0.1, 1.0, 1.0)
        assert np.isclose(det.omega, 0.70710678118654752, rtol=1e-15)
        assert np.isclose(det.speed, 0.70710678118654752, rtol=1e-15)
        assert np.isclose(det.gamma, 1.4142135623730951, rtol=1e-15)

    def test_fast_small_orbit(self):
        det = detector_from_accel_radius(0.1, 5.0, 0.02)
        assert np.isclose(det.omega, 15.075567228888181, rtol=1e-15)
        assert np.isclose(det.speed, 0.30151134457776362, rtol=1e-15)
        # v^2 = aR/(1+aR) = 1/11, gamma = sqrt(11/10)
        assert np.isclose(det.gamma, 1.0488088481701515, rtol=1e-15)

    def test_slow_large_orbit(self):
        det = detector_from_accel_radius(0.1, 0.1, 10.0)
        assert np.isclose(det.omega, 0.070710678118654752, rtol=1e-15)
        assert np.isclose(det.gamma, 1.4142135623730951, rtol=1e-15)

    def test_zero_accel_is_static(self):
        det = detector_from_accel_radius(0.1, 0.0, 1.0)
        assert det.omega == 0.0
        assert det.speed == 0.0
        assert det.gamma == 1.0

    @given(
        accel=st.floats(min_value=1e-6, max_value=1e3),
        radius=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_accel_round_trip(self, accel, radius):
        # a = gamma^2 omega^2 R inverts the construction; the float error
        # grows like gamma^2 = 1 + aR through the cancellation in 1 - v^2
        det = detector_from_accel_radius(0.1, accel, radius)
        recon = det.gamma**2 * det.omega**2 * det.radius
        assert np.isclose(recon, accel, rtol=1e-13 * (1.0 + accel * radius) + 1e-12)

    @given(
        accel=st.floats(min_value=0.0, max_value=1e3),
        radius=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_speed_subluminal(self, accel, radius):
        det = detector_from_accel_radius(0.1, accel, radius)
        assert 0.0 <= det.speed < 1.0
        assert det.gamma >= 1.0

    def test_omega_matches_detector(self):
        assert omega_from_accel_radius(5.0, 0.02) == detector_from_accel_radius(
            0.1, 5.0, 0.02
        ).omega


class TestTrajectory:
    # the orbit's physics, on its definition long_double.events (t = gamma
    # tau, x = R cos(omega gamma tau), y = R sin(omega gamma tau)) that
    # the oracle's kernel is judged against
    def test_frozen_point(self):
        det = detector_from_accel_radius(0.1, 1.0, 1.0)
        _, x, y = long_double.events(det, 0.3)
        assert np.isclose(complex(x), 0.95533648912560602, rtol=1e-15)
        assert np.isclose(complex(y), 0.29552020666133958, rtol=1e-15)

    def test_starts_on_x_axis(self):
        det = detector_from_accel_radius(0.1, 2.0, 0.5)
        _, x, y = long_double.events(det, 0.0)
        assert x == 0.5
        assert y == 0.0

    def test_array_tau(self):
        # the orbit stays on the circle, x^2 + y^2 = R^2, at real proper
        # times and continued to complex ones
        det = detector_from_accel_radius(0.1, 5.0, 0.02)
        real = np.linspace(-3.0, 3.0, 25)
        for tau in (real, real - 0.01j * np.arange(25)):
            _, x, y = long_double.events(det, tau)
            assert x.shape == tau.shape
            np.testing.assert_allclose(
                (x ** 2 + y ** 2).astype(complex), det.radius ** 2,
                rtol=1e-13)

    def test_static_detector_does_not_move(self):
        det = detector_from_accel_radius(0.1, 0.0, 1.0)
        _, x, y = long_double.events(det, 3.0)
        assert x == 1.0
        assert y == 0.0

    @given(tau=st.floats(min_value=-50.0, max_value=50.0))
    def test_lightlike_bound(self, tau):
        # the worldline is timelike: |dx| < dt = gamma |tau| between any
        # event and the start
        det = detector_from_accel_radius(0.1, 3.0, 0.4)
        (_, x0, y0), (_, x1, y1) = (long_double.events(det, 0.0),
                                    long_double.events(det, tau))
        spatial = np.hypot(abs(x1 - x0), abs(y1 - y0))
        assert spatial <= det.gamma * abs(tau) + 1e-12


class TestValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            detector_from_accel_radius(0.1, 1.0, -1.0)

    def test_zero_radius_rejected(self):
        with pytest.raises(DomainError):
            detector_from_accel_radius(0.1, 1.0, 0.0)

    def test_negative_accel_rejected(self):
        with pytest.raises(DomainError):
            detector_from_accel_radius(0.1, -0.5, 1.0)

    def test_nonfinite_rejected(self):
        # a non-finite a or R is named as such, not as an overflow, and
        # the message names the parameter
        for name, args in [("energy_gap", (np.nan, 1.0, 1.0)),
                           ("accel", (0.1, np.nan, 1.0)),
                           ("accel", (0.1, np.inf, 1.0)),
                           ("radius", (0.1, 1.0, np.nan)),
                           ("radius", (0.1, 1.0, np.inf))]:
            with pytest.raises(DomainError,
                               match=f"^{name} must be finite, got"):
                detector_from_accel_radius(*args)

    @pytest.mark.parametrize("accel,radius", [(1e16, 1.0), (1e10, 1e300),
                                              (1.0, 1e-320)],
                             ids=["speed-rounds-to-1", "aR-overflows",
                                  "omega-overflows"])
    def test_impossible_orbit_rejected(self, accel, radius):
        # v rounds to 1 (a ZeroDivisionError in gamma), a R overflows (a
        # silently static orbit), omega overflows (a bare math error)
        with pytest.raises(DomainError,
                           match=re.escape(f"a = {accel}, R = {radius}")):
            detector_from_accel_radius(0.1, accel, radius)

    @pytest.mark.parametrize("field, value, message", [
        ("radius", math.nan, "must be finite"),
        ("radius", 0.0, "radius must be positive"),
        ("accel", -1.0, "accel must be nonnegative"),
    ])
    def test_spec_built_directly_is_checked(self, field, value, message):
        # a CircularDetectorSpec rebuilt from a bad input checks it
        det = detector_from_accel_radius(0.1, 1.0, 1.0)
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(det, **{field: value})

    @pytest.mark.parametrize("door", ["PairConfig", "SweepSpec", "load_grid"])
    @pytest.mark.parametrize("sep, message", [
        (-1.0, "sep must be nonnegative and finite, got -1.0"),
        (math.nan, "sep must be nonnegative and finite, got nan"),
        (True, "sep must be a number, got True"),
    ], ids=["negative", "nan", "bool"])
    def test_bad_sep_raises_the_same_error(self, door, sep, message):
        # a pair, a sweep config and an oracle grid share one check
        det = detector_from_accel_radius(0.1, 1.0, 1.0)
        call = {
            "PairConfig": lambda: PairConfig(det, det, sep, 1.0),
            "SweepSpec": lambda: SweepSpec(
                axis=SweepAxis("dz", 0.5, 1.5, 3), sep=sep),
            "load_grid": lambda: load_grid({"correlation_points": [
                {"gap_a": 0.1, "gap_b": 0.1, "accel": 1.0, "radius": 1.0,
                 "sep": sep}]}),
        }[door]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("door", ["detector_from_accel_radius",
                                      "SweepSpec", "load_grid"])
    @pytest.mark.parametrize("accel, radius, message", [
        (-1.0, 1.0, "accel must be nonnegative, got -1.0"),
        (1.0, 0.0, "radius must be positive, got 0.0"),
        ("1", 1.0, "accel must be a number, got '1'"),
        (True, 1.0, "accel must be a number, got True"),
    ], ids=["negative-accel", "zero-radius", "str-accel", "bool-accel"])
    def test_bad_orbit_raises_the_same_error(self, door, accel, radius,
                                             message):
        # a detector, a sweep config and an oracle grid share one check
        call = {
            "detector_from_accel_radius":
                lambda: detector_from_accel_radius(0.1, accel, radius),
            "SweepSpec": lambda: SweepSpec(
                axis=SweepAxis("sep", 0.5, 1.5, 3), accel=accel,
                radius=radius, dz=1.0),
            "load_grid": lambda: load_grid({"response_points": [
                {"gap": 0.1, "accel": accel, "radius": radius}]}),
        }[door]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("field", ["omega", "speed", "gamma"])
    def test_derived_field_cannot_be_set(self, field):
        # omega, speed and gamma follow from a and R: neither passed nor
        # replaced
        det = CircularDetectorSpec(0.1, 1.0, 1.0)
        assert det == detector_from_accel_radius(0.1, 1.0, 1.0)
        with pytest.raises(TypeError, match="unexpected keyword"):
            CircularDetectorSpec(0.1, 1.0, 1.0, **{field: 0.5})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(det, **{field: 0.5})

    @seed(3101)
    @settings(max_examples=300, deadline=None)
    @given(accel=st.one_of(st.just(0.0), st.floats(1e-3, 1e6)),
           radius=st.floats(1e-3, 1e3))
    def test_derived_fields_match_the_formulas_bit_for_bit(self, accel,
                                                           radius):
        omega = math.sqrt(accel / (radius * (1.0 + accel * radius)))
        speed = omega * radius
        gamma = 1.0 / math.sqrt(1.0 - speed * speed)
        det = CircularDetectorSpec(0.1, accel, radius)
        assert (det.omega, det.speed, det.gamma) == (omega, speed, gamma)

    def test_fastest_representable_orbit_accepted(self):
        det = detector_from_accel_radius(0.1, 9e15, 1.0)
        assert det.speed < 1.0 and math.isfinite(det.gamma)
