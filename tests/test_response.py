import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from udwmi import correlation, quadrature, response

from udwmi import (
    DomainError,
    PairConfig,
    SweepAxis,
    SweepSpec,
    detector_from_accel_radius,
    inertial_response,
    transition_probability,
    transition_probability_oracle_result,
)
from udwmi.sweep import load_grid

# Frozen expected values come from an independent mpmath implementation of
# the closed forms (50 significant digits; dps-30 and dps-50 runs agree to
# 20+ digits). The boundary values were additionally confirmed against a
# finite-epsilon regularization of the defining double integral.

GAP = 0.1


def det(accel, radius, gap=GAP):
    return detector_from_accel_radius(gap, accel, radius)


# each door a detector's height comes in by, called with that height
DZ_DOORS = {
    "transition_probability":
        lambda dz: transition_probability(det(1.0, 1.0), dz, tol=1e-6),
    "transition_probability_oracle_result":
        lambda dz: transition_probability_oracle_result(det(1.0, 1.0), dz,
                                                        tol=1e-6),
    "PairConfig": lambda dz: PairConfig(det(1.0, 1.0), det(1.0, 1.0), 1.0, dz),
    "SweepSpec": lambda dz: SweepSpec(axis=SweepAxis("sep", 0.5, 1.5, 3),
                                      dz=dz),
    "load_grid": lambda dz: load_grid({"response_points": [
        {"gap": 0.1, "accel": 1.0, "radius": 1.0, "dz": dz}]}),
}


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


def exact(r):
    """Every field of a breakdown, floats as their exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in vars(r).items()}


class TestFreeReuse:
    # a mirror P given its detector's free-space breakdown only adds the
    # image terms; the result must not differ in a single bit
    @pytest.mark.parametrize("accel,radius,gap,dz,tol", [
        (1.0, 1.0, GAP, 1.0, 1e-8),      # rotating
        (0.0, 1.0, 0.5, 0.5, 1e-8),      # static
        (0.1, 10.0, GAP, 50.0, 1e-10),   # far pole, flagged in the notes
        (5.0, 10.0, 0.5, 1.0, 1e-14),    # bounded term unconverged
    ], ids=["rotating", "static", "far-pole", "unconverged"])
    def test_free_reuse_is_bit_identical(self, accel, radius, gap, dz, tol):
        d = det(accel, radius, gap)
        free = transition_probability(d, None, tol)
        plain = transition_probability(d, dz, tol)
        reused = transition_probability(d, dz, tol, free=free)
        assert exact(reused) == exact(plain)
        if tol == 1e-14:
            assert not free.converged and not reused.converged
        if dz == 50.0:
            assert reused.notes and not free.notes

    def test_free_space_returns_free(self):
        free = transition_probability(det(1.0, 1.0), None)
        assert transition_probability(det(1.0, 1.0), None, free=free) is free


def quadrature_bits(res):
    """A batch member's QuadratureResult or exception, exactly."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations,
            res.converged)


def record_bounded(monkeypatch):
    """Patch response's bounded quadrature, a batch or a lone member's
    integrate_adaptive, to record each call as its members' (cutoff,
    initial panels, result bits)."""
    calls = []
    batch, lone = response.integrate_adaptive_batch, response.integrate_adaptive

    def record(hi, initial_panels, results):
        calls.append([(x, n, quadrature_bits(res)) for x, n, res in zip(
            np.atleast_1d(hi).tolist(),
            np.atleast_1d(initial_panels).tolist(), results)])
        return results

    def recorded_batch(f, lo, hi, tol, *, initial_panels):
        return record(hi, initial_panels,
                      batch(f, lo, hi, tol, initial_panels=initial_panels))

    def recorded_lone(f, lo, hi, tol, *, initial_panels):
        (res,) = record(hi, initial_panels,
                        [lone(f, lo, hi, tol, initial_panels=initial_panels)])
        return res

    monkeypatch.setattr(response, "integrate_adaptive_batch", recorded_batch)
    monkeypatch.setattr(response, "integrate_adaptive", recorded_lone)
    return calls


def breakdown_bits(res):
    return (type(res).__name__, str(res)) if isinstance(res, Exception) \
        else exact(res)


def line_key(spec, L_eff, tol):
    """A key of correlation._line_batch: the line at L_eff on spec's
    orbit, of the C of spec with itself."""
    return (L_eff, *correlation._line_params(spec, spec, tol)[1])


def lines_bits(lines, i):
    """Key i's entry of every field of a _Lines, floats in float.hex: its
    failure's type and message when it has one."""
    if i in lines.failures:
        exc = lines.failures[i]
        return type(exc).__name__, str(exc)
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in (column[i].item() for column in lines[:7]))


class TestFreeBatch:
    # the bounded terms of many detectors are the members of lockstep
    # batches, each on a mesh of its own, so every member equals its
    # batch of one; a batch takes tols that its public caller checked
    KEYS = [
        (det(0.1, 0.02), 1e-8),             # 15 initial panels
        (det(0.0, 1.0, 0.5), 1e-8),         # static: no bounded term
        (det(30.0, 1.0, 1.0), 1e-12),       # 31
        (det(100.0, 0.1, 3.0), 1e-8),       # 126
        (det(2.0, 100.0, 10.0), 1e-10),     # 42
        (det(0.5, 5.0, 0.2), 1e-8),         # 9
        (det(1000.0, 1e-3, 0.01), 1e-8),    # 3516
        (det(1.7e154, 1e-154), 1e-8),       # subnormal alpha: fails alone
    ]

    @pytest.mark.parametrize("bound", [None, 10 ** 6])
    def test_members_equal_batches_of_one(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(quadrature, "_RUN_PANELS", bound)
        runs = []
        lockstep = quadrature._lockstep

        def recorded_run(f, lo, hi, tol, counts, members, max_panels):
            runs.append(len(members))
            return lockstep(f, lo, hi, tol, counts, members, max_panels)

        monkeypatch.setattr(quadrature, "_lockstep", recorded_run)
        calls = record_bounded(monkeypatch)
        batch = response._free_responses(self.KEYS)
        members = [m for call in calls for m in call]
        # every rotating detector is a member of one batch, on initial
        # panels of its own
        assert len(calls) == 1 and len(members) == 6
        assert len({n for _, n, _ in members}) == 6
        if bound is None:
            # the quadrature takes runs of at most _RUN_PANELS initial
            # panels; the 3516-panel detector runs alone
            assert runs == [5, 1]
        else:
            assert runs == [6]
        calls.clear()
        alone = [response._free_responses([key])[0] for key in self.KEYS]
        assert [m for call in calls for m in call] == members
        assert [breakdown_bits(r) for r in batch] == \
            [breakdown_bits(r) for r in alone]
        assert isinstance(batch[7], DomainError)
        assert "cutoff is not finite" in str(batch[7])
        assert batch[1].term_bounded == 0.0 and batch[1].converged
        # a tol that is not positive is rejected at the door, before
        # any batch is made
        monkeypatch.setattr(response, "_free_responses", None)
        with pytest.raises(DomainError, match="tol must be positive"):
            transition_probability(det(5.0, 10.0, 0.5), None, 0.0)

    def test_cutoff_once_per_rotating_key(self, monkeypatch):
        # each rotating key's Gaussian cutoff is worked out once, where
        # its integral is set up; static keys need none
        alphas = []
        cutoff = quadrature.gaussian_truncation_point

        def counted(alpha, tol):
            alphas.append(alpha)
            return cutoff(alpha, tol)

        monkeypatch.setattr(response, "gaussian_truncation_point", counted)
        monkeypatch.setattr(quadrature, "gaussian_truncation_point", counted)
        response._free_responses(self.KEYS)
        rotating = [spec for spec, _ in self.KEYS if spec.speed > 0.0]
        assert alphas == [1.0 / (spec.gamma * spec.omega) ** 2
                          for spec in rotating]

    def test_bad_tol_fails_alone(self):
        # a budget that the rotating term's prefactor (about 2e148 at
        # omega = 7e149) scales to zero is rejected by the quadrature: the
        # key fails with a DomainError beside a good key and alone
        keys = [(det(1e150, 1e-150), 1e-200), self.KEYS[0]]
        bad, good = response._free_responses(keys)
        (lone,) = response._free_responses(keys[:1])
        assert breakdown_bits(lone) == breakdown_bits(bad)
        assert "tol must be positive" in str(lone)
        assert good.converged

    def test_tail_bound_covers_the_remainder(self, monkeypatch):
        # beyond each cutoff X the bounded term's |integrand| integrates,
        # over [X, X + 10/sqrt(alpha)], to at most the closed-form bound
        # exp(-alpha X^2) / (2 alpha X^3 (1 - v^2)); both are compared
        # scaled by exp(alpha X^2); no integrand is evaluated after the
        # batch
        cutoffs, events = [], []
        cutoff = quadrature.gaussian_truncation_point
        batch = response.integrate_adaptive_batch
        kernel = response._bounded_kernel

        def recorded(alpha, tol):
            cutoffs.append((alpha, cutoff(alpha, tol)))
            return cutoffs[-1][1]

        def recorded_batch(*args, **kwargs):
            out = batch(*args, **kwargs)
            events.append("batch")
            return out

        def recorded_kernel(x, v_sq):
            events.append("kernel")
            return kernel(x, v_sq)

        monkeypatch.setattr(response, "gaussian_truncation_point", recorded)
        monkeypatch.setattr(response, "integrate_adaptive_batch",
                            recorded_batch)
        monkeypatch.setattr(response, "_bounded_kernel", recorded_kernel)
        response._free_responses(self.KEYS)
        assert events[-1] == "batch" and events.count("batch") == 1
        rotating = [spec for spec, _ in self.KEYS if spec.speed > 0.0]
        checked = 0
        for spec, (alpha, x_cut) in zip(rotating, cutoffs):
            if not math.isfinite(x_cut):
                continue
            v_sq = spec.speed ** 2
            beta = 2.0 * spec.energy_gap / (spec.gamma * spec.omega)

            def scaled(y):
                x = x_cut + y
                s_sq = math.sin(x) ** 2
                return (math.exp(-alpha * y * (2.0 * x_cut + y))
                        * abs(math.cos(beta * x))
                        * (x * x - s_sq) / (x * x * (x * x - v_sq * s_sq)))

            remainder, _ = integrate.quad(scaled, 0.0, 10.0 / math.sqrt(alpha),
                                          limit=2000, epsabs=0.0,
                                          epsrel=1e-10)
            assert remainder <= 1.0 / (2.0 * alpha * x_cut ** 3
                                       * (1.0 - v_sq)), spec
            checked += 1
        assert checked == 6

    @pytest.mark.parametrize("tol", [1e-190, 1e-250, 1e-300])
    def test_tail_bound_finite_at_tiny_tol(self, tol):
        # exp(alpha x^2) overflows at such a cutoff: the closed-form tail
        # bound forms alpha X^2 first, so it stays finite and
        # warning-free, as a member of a batch and alone
        keys = [(det(0.1, 0.02), tol), (det(30.0, 1.0, 1.0), tol)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = response._free_responses(keys)
            alone = [response._free_responses([key])[0] for key in keys]
        assert [breakdown_bits(r) for r in batch] == \
            [breakdown_bits(r) for r in alone]
        for r, (spec, _) in zip(batch, keys):
            assert math.isfinite(r.abs_error_estimate)
            ref = transition_probability(spec, None, 1e-12)
            assert abs(r.total - ref.total) <= \
                r.abs_error_estimate + ref.abs_error_estimate

    # line keys of the reduced batch's second kind: rotating near and
    # far from the pole's band, static, a pole beyond the switching
    # envelope, an L_eff whose square is subnormal (fails before its
    # quadrature) and a tol of 0 (its quadrature rejects it)
    LINE_KEYS = [
        line_key(det(0.1, 0.02), 0.5, 1e-8),
        line_key(det(30.0, 1.0, 1.0), 2.0, 1e-12),
        line_key(det(0.0, 1.0, 0.5), 1.5, 1e-8),
        line_key(det(1.0, 1.0, 0.5), 40.0, 1e-10),
        line_key(det(5.0, 0.02), 1e-170, 1e-8),
        line_key(det(5.0, 0.02), 1.0, 1e-8)[:-1] + (0.0,),
    ]
    # a batch whose members all meet their tol in the first round
    ROUND_ZERO = (
        [(det(1.0, 1.0), 1e-8), (det(0.5, 5.0, 0.2), 1e-8)],
        [line_key(det(1.0, 1.0), L, 1e-8) for L in (0.5, 2.0, 10.0)])

    @pytest.mark.parametrize("case", ["mixed", "mixed-one-run", "round-0"])
    def test_mixed_batch_members_equal_batches_of_one(self, monkeypatch,
                                                      case):
        # free-space and line keys as the members of one lockstep
        # batch: each equals its one-kind batch of one, every field in
        # float.hex, failures by index
        if case == "round-0":
            free_keys, line_keys = self.ROUND_ZERO
        else:
            # the tol-rejected key of test_bad_tol_fails_alone beside
            # the failing and the static members of KEYS
            free_keys = [(det(1e150, 1e-150), 1e-200), *self.KEYS]
            line_keys = self.LINE_KEYS
        if case == "mixed-one-run":
            monkeypatch.setattr(quadrature, "_RUN_PANELS", 10 ** 6)
        rounds = []
        panels = quadrature._gk15_panels

        def counted(f, lo, hi, owner):
            rounds.append(lo.size)
            return panels(f, lo, hi, owner)

        monkeypatch.setattr(quadrature, "_gk15_panels", counted)
        frees, lines = response._reduced_batch(free_keys, line_keys)
        if case == "round-0":
            # one evaluation of the first round's panels, then the early
            # exit: 2 free members and 2 sides of each of 3 lines
            assert len(rounds) == 1
        assert [breakdown_bits(r) for r in frees] == \
            [breakdown_bits(response._free_responses([key])[0])
             for key in free_keys]
        assert [lines_bits(lines, i) for i in range(len(line_keys))] == \
            [lines_bits(correlation._line_batch([key]), 0)
             for key in line_keys]
        if case != "round-0":
            assert "tol must be positive" in str(frees[0])
            assert "cutoff is not finite" in str(frees[8])
            assert set(lines.failures) == {4, 5}
            assert "too small" in str(lines.failures[4])
            assert "tol must be positive" in str(lines.failures[5])

    def test_batch_memory_is_bounded(self):
        # 144 rotating detectors, 8 to 566 initial panels each: as one
        # batch their first round peaked at about 12 MiB traced, in the
        # quadrature's runs of at most _RUN_PANELS initial panels at
        # about 2 MiB
        import tracemalloc

        keys = [(det(a, r, gap), 1e-8) for a in np.geomspace(1.0, 300.0, 8)
                for r in np.geomspace(0.01, 10.0, 6) for gap in (0.1, 1.0, 4.0)]
        tracemalloc.start()
        try:
            response._free_responses(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestFreeCalibration:
    def test_error_estimates_cover_tolerance_change(self):
        # 40 detectors over a 0.1-1000, R 1e-3-100 and gap 0.01-10: P
        # at tol 1e-8 and at 1e-12 differ by no more than their summed
        # error estimates
        i = np.arange(40)
        accels = np.geomspace(0.1, 1000.0, 40)
        radii = np.geomspace(1e-3, 100.0, 40)[(7 * i) % 40]
        gaps = np.geomspace(0.01, 10.0, 40)[(13 * i) % 40]
        dets = [det(a, r, g) for a, r, g in zip(accels, radii, gaps)]
        coarse = response._free_responses([(d, 1e-8) for d in dets])
        fine = response._free_responses([(d, 1e-12) for d in dets])
        for d, lo, hi in zip(dets, coarse, fine):
            assert abs(lo.total - hi.total) <= \
                lo.abs_error_estimate + hi.abs_error_estimate, d

    @pytest.mark.parametrize("accel,radius,gap", [(30.0, 1.0, 1.0),
                                                  (5.0, 10.0, 0.5)])
    def test_tight_tolerance_converges(self, accel, radius, gap):
        # on 3.5 initial panels per period the bounded term's summed
        # per-panel roundoff (2.55e-13 at a=30, R=1, gap 1) exceeded its
        # share of tol 1e-12; on one panel per period it converges
        res = transition_probability(det(accel, radius, gap), None, 1e-12)
        assert res.converged
        assert res.abs_error_estimate < 2.5e-13


class TestDefinitionOracle:
    # the oracle integrates the defining double quadrature on two
    # shifted proper-time contours; it shares no code with the
    # closed-form path
    def test_boundary_point(self):
        est = transition_probability_oracle_result(det(5.0, 0.02), 0.1)
        (eta_1, p_1), (eta_2, p_2) = est.samples
        assert 0.0 < eta_1 < eta_2 <= 0.1
        # the value is the second contour's, and the two agree
        assert est.value == p_2.real
        assert abs(p_2 - p_1) <= est.error_estimate
        assert np.isclose(est.value, 0.049664916390010528, rtol=1e-6)
        assert abs(est.value - 0.049664916390010528) <= est.error_estimate

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

    @pytest.mark.parametrize("accel,radius,dz", [
        (5.0, 0.02, 0.1), (5.0, 0.02, None), (0.0, 1.0, 0.5),
        (30.0, 0.02, 0.5), (0.1, 10.0, 1.0),
    ])
    def test_raw_estimate_is_real(self, accel, radius, dz):
        # a response key is one detector at one height and gap: its
        # passes fold onto s >= 0, so the batch's value has an imaginary
        # part of exactly 0 and _real_estimate leaves the error as it is
        key = response._response_oracle_key(det(accel, radius), dz, 1e-6)
        (est,) = correlation._oracle_batch([key])
        assert est.value.imag == 0.0
        assert response._real_estimate(est).error_estimate == \
            est.error_estimate


class TestValidation:
    def test_nonpositive_dz_rejected(self):
        with pytest.raises(DomainError):
            transition_probability(det(1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            transition_probability(det(1.0, 1.0), -2.0)

    @pytest.mark.parametrize("dz", [0.0, -1.0, math.nan, math.inf, True])
    @pytest.mark.parametrize("door", list(DZ_DOORS))
    def test_bad_dz_raises_the_same_error(self, door, dz):
        # the reduced path, the oracle, a pair, a sweep config and an
        # oracle grid share one check, so none returns a value (or NaN)
        # for a height that is not a positive number, and all say so alike
        rule = "a number" if isinstance(dz, bool) else "positive and finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match=rf"^dz must be {rule}, got {dz}$"):
                DZ_DOORS[door](dz)
