"""Circular worldline kinematics for uniformly rotating pointlike detectors.

All quantities are dimensionless, measured in units of the Gaussian
switching width sigma (sigma = 1) with c = 1. A detector on a circular
orbit of radius R whose proper acceleration is a rotates with angular
velocity

    omega = sqrt(a / (R * (1 + a * R)))

which inverts a = gamma^2 omega^2 R, where v = omega * R is the orbital
speed and gamma = 1 / sqrt(1 - v^2). Since v^2 = a R / (1 + a R) < 1 the
speed stays subluminal for every finite a >= 0, R > 0.

Worldlines are parameterized by proper time tau. The orbit lies in a
plane parallel to the reflecting boundary (the z = 0 plane), at constant
height z, so the coordinate time along the orbit is t = gamma * tau and
the rotation phase is omega * gamma * tau.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

__all__ = [
    "DomainError",
    "CircularDetectorSpec",
    "omega_from_accel_radius",
    "detector_from_accel_radius",
]


class DomainError(ValueError):
    """An input lies outside the physically admissible domain."""


def _require_finite(name: str, value, rule: str = "finite",
                    holds=math.isfinite) -> float:
    """value as a float, or DomainError unless it is a real number (not a
    bool, nor a string that float() would parse) for which holds is true;
    a float skips the slower numbers.Real check. Every rule of a real
    input uses it."""
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not holds(value):
        raise DomainError(f"{name} must be {rule}, got {value}")
    return value


def _require_integer(name: str, value, rule: str = "an integer",
                     holds=lambda v: True) -> int:
    """value as an int, or DomainError unless it is an integral number
    (not a bool, nor a float with a whole value) for which holds is
    true: the integer rule of axis points and worker counts."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral) or not holds(value):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def _require_positive(name: str, value) -> float:
    return _require_finite(name, value, "positive and finite",
                           lambda v: 0.0 < v < math.inf)


def _require_tol(tol: float) -> float:
    """tol as a float, or DomainError unless it is finite and at least
    the smallest normal float (2**-1022, an IEEE double's, written out
    in the message): each public function that takes a tol checks it
    here, once, before the evaluators split it into smaller budgets,
    where a subnormal one would round to zero."""
    return _require_finite("tol", tol, "positive and finite, at least the "
                           "smallest normal float 2.2250738585072014e-308",
                           lambda v: sys.float_info.min <= v < math.inf)


def _require_dz(dz) -> float | None:
    """dz as a float, or None (no mirror): the one check of a detector's
    height above the mirror."""
    return None if dz is None else _require_positive("dz", dz)


def _require_sep(sep) -> float:
    """sep, the vertical separation of a pair's detectors, as a float."""
    return _require_finite("sep", sep, "nonnegative and finite",
                           lambda v: 0.0 <= v < math.inf)


def _require_orbit(accel, radius) -> tuple[float, float]:
    """(accel, radius) as floats, finite, with radius positive and accel
    nonnegative: the range of an orbit, representable or not."""
    accel = _require_finite("accel", accel)
    radius = _require_finite("radius", radius)
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if accel < 0.0:
        raise DomainError(f"accel must be nonnegative, got {accel}")
    return accel, radius


@dataclass(frozen=True)
class CircularDetectorSpec:
    """A two-level detector on a circular orbit, built from (Omega, a, R).

    energy_gap is the level splitting Omega (in units of 1/sigma), accel
    the proper acceleration a, radius the orbit radius R. omega, speed
    and gamma are derived from a and R on construction, so they can be
    neither passed nor replaced: an input that is not a finite number,
    a nonpositive radius, a negative accel, an a R or omega that
    overflows, or an orbit whose speed rounds to 1 raises DomainError.
    """

    energy_gap: float
    accel: float
    radius: float
    omega: float = field(init=False)
    speed: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self) -> None:
        energy_gap = _require_finite("energy_gap", self.energy_gap)
        omega = omega_from_accel_radius(self.accel, self.radius)
        accel, radius = float(self.accel), float(self.radius)
        speed = omega * radius
        # v^2 = a R / (1 + a R) in exact arithmetic; compute from omega*R to
        # keep speed, omega and radius consistent to the last float digit.
        if not speed < 1.0:  # below 1, 1 - speed^2 >= 2^-52 keeps gamma finite
            raise DomainError(f"a = {accel}, R = {radius}: speed rounds to 1")
        values = (energy_gap, accel, radius, omega, speed,
                  1.0 / math.sqrt(1.0 - speed * speed))
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)
        # hashed once: a sweep's planner looks detectors up per row and term
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash


def omega_from_accel_radius(accel: float, radius: float) -> float:
    """Angular velocity of the circular orbit with proper acceleration accel.

    Returns omega = sqrt(accel / (radius * (1 + accel * radius))); zero
    acceleration gives omega = 0 (a static detector at distance radius
    from the rotation axis). An orbit that _require_orbit rejects, or an
    a R or omega that overflows, raises DomainError.
    """
    accel, radius = _require_orbit(accel, radius)
    omega = math.sqrt(accel / (radius * (1.0 + accel * radius)))
    if not (math.isfinite(accel * radius) and math.isfinite(omega)):
        raise DomainError(f"a = {accel}, R = {radius}: a R or omega overflows")
    return omega


def detector_from_accel_radius(energy_gap: float, accel: float,
                               radius: float) -> CircularDetectorSpec:
    """The CircularDetectorSpec of (Omega, a, R), under the name the
    CLI, the sweep and the benchmark call."""
    return CircularDetectorSpec(energy_gap, accel, radius)

