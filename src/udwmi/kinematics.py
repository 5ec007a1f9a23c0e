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
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "CircularDetectorSpec",
    "SpacetimePoint",
    "omega_from_accel_radius",
    "detector_from_accel_radius",
    "trajectory_point",
]


class DomainError(ValueError):
    """An input lies outside the physically admissible domain."""


def _require_tol(tol: float) -> float:
    """tol as a float, or DomainError unless it is finite and at least
    the smallest normal float: every evaluator checks its tol here, and
    splits it into smaller budgets, where a subnormal one would round
    to zero."""
    tol = float(tol)
    if not sys.float_info.min <= tol < math.inf:
        raise DomainError(f"tol must be positive and finite, at least the "
                          f"smallest normal float {sys.float_info.min:.17g}; "
                          f"got {tol}")
    return tol


@dataclass(frozen=True)
class CircularDetectorSpec:
    """A two-level detector on a circular orbit.

    energy_gap is the level splitting Omega (in units of 1/sigma), accel
    the proper acceleration a, radius the orbit radius R. omega, speed
    and gamma are derived; build instances with detector_from_accel_radius
    so they stay consistent.
    """

    energy_gap: float
    accel: float
    radius: float
    omega: float
    speed: float
    gamma: float

    def __post_init__(self) -> None:
        values = (self.energy_gap, self.accel, self.radius, self.omega,
                  self.speed, self.gamma)
        if not all(math.isfinite(v) for v in values):
            raise DomainError("detector parameters must be finite")
        if self.radius <= 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if self.accel < 0.0:
            raise DomainError(f"accel must be nonnegative, got {self.accel}")
        if not 0.0 <= self.speed < 1.0:
            raise DomainError(f"orbital speed must satisfy 0 <= v < 1, got {self.speed}")
        if self.gamma < 1.0:
            raise DomainError(f"gamma must be >= 1, got {self.gamma}")
        # hashed once: a sweep's planner looks detectors up per row and term
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class SpacetimePoint:
    """An event (t, x, y, z). Fields may be scalars or numpy arrays."""

    t: float | np.ndarray
    x: float | np.ndarray
    y: float | np.ndarray
    z: float | np.ndarray


def omega_from_accel_radius(accel: float, radius: float) -> float:
    """Angular velocity of the circular orbit with proper acceleration accel.

    Returns omega = sqrt(accel / (radius * (1 + accel * radius))); zero
    acceleration gives omega = 0 (a static detector at distance radius
    from the rotation axis); an a R or omega that overflows raises
    DomainError.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius}")
    if accel < 0.0:
        raise DomainError(f"accel must be nonnegative, got {accel}")
    omega = math.sqrt(accel / (radius * (1.0 + accel * radius)))
    if not (math.isfinite(accel * radius) and math.isfinite(omega)):
        raise DomainError(f"a = {accel}, R = {radius}: a R or omega overflows")
    return omega


def detector_from_accel_radius(energy_gap: float, accel: float,
                               radius: float) -> CircularDetectorSpec:
    """Build a consistent CircularDetectorSpec from (Omega, a, R); an
    orbit whose speed rounds to 1 or above raises DomainError."""
    omega = omega_from_accel_radius(accel, radius)
    speed = omega * radius
    # v^2 = a R / (1 + a R) in exact arithmetic; compute from omega*R to keep
    # speed, omega and radius consistent to the last float digit.
    if not speed < 1.0:  # below 1, 1 - speed^2 >= 2^-52 keeps gamma finite
        raise DomainError(f"a = {accel}, R = {radius}: speed rounds to 1")
    gamma = 1.0 / math.sqrt(1.0 - speed * speed)
    return CircularDetectorSpec(
        energy_gap=float(energy_gap),
        accel=float(accel),
        radius=float(radius),
        omega=omega,
        speed=speed,
        gamma=gamma,
    )


def trajectory_point(spec: CircularDetectorSpec, z_offset: float,
                     tau: float | np.ndarray) -> SpacetimePoint:
    """Event on the orbit at proper time tau, at constant height z_offset.

    Accepts scalar or array tau, real or complex; z is the scalar
    z_offset either way. The orbit starts at (R, 0, z_offset) at tau = 0
    and rotates counterclockwise in the x-y plane. A complex tau gives
    the event's analytic continuation: the cos and sin of its phase
    come from the real cos and sin of the phase's real part and the
    cosh and sinh of its imaginary part, which NumPy evaluates faster
    than its complex cos and sin.
    """
    if isinstance(tau, np.ndarray):
        tau = np.asarray(tau, dtype=np.result_type(tau, np.float64))
    phase = spec.omega * spec.gamma * tau
    if np.iscomplexobj(phase):
        cos_re, sin_re = np.cos(phase.real), np.sin(phase.real)
        cosh_im, sinh_im = np.cosh(phase.imag), np.sinh(phase.imag)
        cos = cos_re * cosh_im - 1j * (sin_re * sinh_im)
        sin = sin_re * cosh_im + 1j * (cos_re * sinh_im)
    else:
        cos, sin = np.cos(phase), np.sin(phase)
    return SpacetimePoint(
        t=spec.gamma * tau,
        x=spec.radius * cos,
        y=spec.radius * sin,
        z=z_offset,
    )
