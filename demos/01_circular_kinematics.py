"""Orbit kinematics: how angular velocity depends on acceleration and radius.

The orbit frequency is omega = sqrt(a / (R (1 + a R))), so at fixed
acceleration a small radius means fast rotation (omega ~ sqrt(a/R))
while a large radius is slow (omega ~ 1/R). The orbital speed
v = omega R always stays below 1. Fast rotation (large a, small R) is
the regime where the sweep curves develop oscillations.
"""
import numpy as np

from udwmi.kinematics import detector_from_accel_radius

print("omega as a function of radius, for three accelerations")
print(f"{'R':>8} " + " ".join(f"a={a:<10}" for a in (1.0, 10.0, 500.0)))
for radius in np.geomspace(0.01, 100.0, 9):
    cells = []
    for accel in (1.0, 10.0, 500.0):
        spec = detector_from_accel_radius(0.1, accel, radius)
        cells.append(f"{spec.omega:<12.4g}")
    print(f"{radius:8.2f} " + " ".join(cells))

print()
print("derived kinematics at the sweep workhorse points")
print(f"{'a':>6} {'R':>6} {'omega':>10} {'v':>8} {'gamma':>8}")
for accel, radius in ((0.1, 0.02), (1.0, 0.02), (5.0, 0.02), (5.0, 10.0)):
    spec = detector_from_accel_radius(0.1, accel, radius)
    print(f"{accel:6.2f} {radius:6.2f} {spec.omega:10.4f} "
          f"{spec.speed:8.4f} {spec.gamma:8.4f}")

print()
print("a trajectory sample: the orbit stays on the circle, z is fixed")
spec = detector_from_accel_radius(0.1, 5.0, 0.02)
z = 0.5
for tau in (0.0, 0.05, 0.1):
    # t = gamma tau, and the phase omega gamma tau turns (R, 0) about the axis
    t, phase = spec.gamma * tau, spec.omega * spec.gamma * tau
    x, y = spec.radius * np.cos(phase), spec.radius * np.sin(phase)
    print(f"tau={tau:4.2f}: t={t:8.4f} x={x:8.4f} y={y:8.4f} "
          f"z={z:4.2f} x^2+y^2={x**2 + y**2:8.6f}")
