"""Transition probability near the mirror, term by term.

The closed form splits P into four additive pieces: a bounded direct
integral, a principal-value image integral, the inertial Gaussian
response, and the half-residue of the image pole. Close to the mirror
the image terms reshape P strongly; far away they decay and P tends to
the free-space value from the first and third terms alone.
"""
from udwmi.kinematics import detector_from_accel_radius
from udwmi.response import transition_probability

spec = detector_from_accel_radius(0.1, 5.0, 0.02)
free = transition_probability(spec, None)
print(f"detector: gap=0.1, a=5, R=0.02 (omega={spec.omega:.3f}, "
      f"v={spec.speed:.3f})")
print(f"free-space P = {free.total:.8f}")
print()
print(f"{'dz':>6} {'P':>12} {'bounded':>12} {'pv':>12} {'inertial':>12} "
      f"{'pole':>12} {'P - P_free':>12}")
for dz in (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0):
    r = transition_probability(spec, dz)
    print(f"{dz:6.1f} {r.total:12.3e} {r.term_bounded:12.3e} "
          f"{r.term_pv:12.3e} {r.term_inertial:12.3e} {r.term_pole:12.3e} "
          f"{r.total - free.total:12.3e}")

print()
r = transition_probability(spec, 0.1)
print(f"at dz=0.1 the image pole sits at scaled time {r.pole_location:.4f}; "
      f"error estimate {r.abs_error_estimate:.1e}, converged={r.converged}")
print("the boundary correction decays like an inverse square in dz, so it")
print("is small but not exponentially small at dz=50")
