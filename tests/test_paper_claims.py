"""The source paper's abstract, as shape claims on the bundled presets.

Each claim is quoted below with its quantitative form, and is checked
on the preset tables as they are bundled (their grids, their
tolerance, and count_interior_maxima at its default prominence). Only
claims whose rows all evaluate today are here:

- (i) "As the interdetector separation increases, the mutual
  information may exhibit oscillatory behavior at large acceleration
  and small radius": every fig2c curve (a = 5, R = 0.02, dz = 0.1) has
  at least 2 interior maxima of I(sep), and every fig2a (a = 0.1) and
  fig2d (R = 10) curve at most 1.
- (ii) "the oscillation intensifies near the boundary": each fig2c
  curve (dz = 0.1) has more interior maxima than the fig3b curve
  (dz = 5) at the same detuning.
- (iii) "when we take large acceleration and small radius, as the
  energy gap increases, the mutual information first decreases, then
  oscillates, and finally goes to zero": I(gap) on fig11b (a = 5,
  R = 0.02) has at least 1 interior maximum, and on fig11a (a = 0.1)
  none.

The other claims wait for ROADMAP item 1 (normalised-coupling
semantics), because their rows fail today with P_A + P_B > 1: the
boundary claim ("near the boundary, the mutual information may
oscillate and the maximum can be obtained"), whose fig7c and fig7d
rows all fail, and the acceleration claims ("a larger acceleration
leads to a larger peak value", "first increases and then decreases",
"may oscillate with the increase of acceleration"), read off the fig9*
and fig10a sweeps.
"""
import functools

import pytest

from udwmi.sweep import count_interior_maxima, load_config, run_sweep


@functools.cache
def maxima_per_curve(preset: str) -> tuple[int, ...]:
    """Interior maxima of I along the axis, one count per gap-ratio
    curve of the preset, in its order."""
    spec = load_config(preset)
    rows = run_sweep(spec)
    assert not [r.status for r in rows if r.status.startswith("fail")]
    n = spec.axis.points
    return tuple(count_interior_maxima([r.mutual_info for r in rows[c:c + n]])
                 for c in range(0, len(rows), n))


def test_separation_oscillates_at_large_accel_and_small_radius():
    assert all(m >= 2 for m in maxima_per_curve("fig2c"))
    for preset in ("fig2a", "fig2d"):
        assert all(m <= 1 for m in maxima_per_curve(preset)), preset


def test_oscillation_intensifies_near_the_boundary():
    near, far = maxima_per_curve("fig2c"), maxima_per_curve("fig3b")
    assert len(near) == len(far) == 3
    assert all(n > f for n, f in zip(near, far))


@pytest.mark.parametrize("preset, has_maximum", [("fig11b", True),
                                                 ("fig11a", False)])
def test_gap_curve_oscillates_only_at_large_accel(preset, has_maximum):
    (maxima,) = maxima_per_curve(preset)
    assert (maxima >= 1) == has_maximum
