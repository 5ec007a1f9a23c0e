import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from udwmi import (
    DomainError,
    PairConfig,
    correlation_equal,
    correlation_general_result,
    detector_from_accel_radius,
    trajectory_point,
    wightman_boundary,
    wightman_free,
)
from udwmi.correlation import (DEFAULT_EPSILONS, _epsilon_ladder,
                               _line_params, _line_pole,
                               _reduced_line_integral,
                               _reduced_line_integrals)
from udwmi.quadrature import QuadratureResult, epsilon_extrapolate

# Frozen expected values come from an independent mpmath implementation of
# the reduced single-integral form (50 significant digits; dps-30 and
# dps-50 runs agree to 25+ digits).


def pair(accel, radius, sep, dz=None, gap_a=0.1, gap_b=0.1):
    da = detector_from_accel_radius(gap_a, accel, radius)
    db = detector_from_accel_radius(gap_b, accel, radius)
    return PairConfig(det_a=da, det_b=db, sep=sep, dz=dz)


class TestWightman:
    def test_free_hermiticity(self):
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        p1 = trajectory_point(d, 0.3, 0.7)
        p2 = trajectory_point(d, 1.1, -0.2)
        w12 = wightman_free(p1, p2, 1e-3)
        w21 = wightman_free(p2, p1, 1e-3)
        assert np.isclose(w12, np.conj(w21), rtol=1e-12)

    def test_boundary_is_free_minus_image(self):
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        p1 = trajectory_point(d, 0.3, 0.7)
        p2 = trajectory_point(d, 1.1, -0.2)
        from udwmi import SpacetimePoint

        mirror2 = SpacetimePoint(t=p2.t, x=p2.x, y=p2.y, z=-p2.z)
        expected = wightman_free(p1, p2, 1e-3) - wightman_free(p1, mirror2, 1e-3)
        assert np.isclose(wightman_boundary(p1, p2, 1e-3), expected, rtol=1e-12)

    def test_vanishes_on_the_mirror(self):
        # Dirichlet condition: put the second point on the plane
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        p1 = trajectory_point(d, 0.3, 0.7)
        p2 = trajectory_point(d, 0.0, -0.2)
        assert abs(wightman_boundary(p1, p2, 1e-3)) < 1e-15


class TestWightmanParts:
    # the oracles evaluate the regulated Wightman function in real
    # arithmetic (_wightman_parts); wightman_free and wightman_boundary
    # stay its complex reference. Deviations are judged against the
    # direct term's magnitude, so that a near-cancelling mirror pair is
    # not judged relative to its small difference.
    @staticmethod
    def events():
        from udwmi import SpacetimePoint

        rng = np.random.default_rng(7)
        n = 400
        # on the light cone both sides round dt^2 - |dx|^2 to about
        # 1e-16 dt^2, against |q| ~ 2 eps |dt|: a relative 3e-13 |dt|
        # at eps = 2.5e-4, so |dt| stays below 1.5 here
        dt = rng.uniform(-1.5, 1.5, n)
        # squared spatial distances: generic, and within 1e-6 (relative)
        # of the light cone on both sides
        ratio = np.concatenate([rng.uniform(0.0, 4.0, n // 2),
                                1.0 + rng.uniform(-1e-6, 1e-6, n // 4),
                                1.0 + rng.choice([-1e-7, 1e-7, 0.0], n // 4)])
        dist = np.sqrt(ratio) * np.abs(dt)
        theta = rng.uniform(0.0, math.pi, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        z2 = rng.uniform(0.05, 3.0, n)
        dz = dist * np.cos(theta)
        z1 = np.abs(z2 + dz)      # both events above the mirror
        dz = z1 - z2
        # rescale x, y so that the distance is the drawn one
        rho = np.sqrt(np.maximum(dist * dist - dz * dz, 0.0))
        p1 = SpacetimePoint(t=dt + 0.5, x=rho * np.cos(phi) + 0.25,
                            y=rho * np.sin(phi) - 0.5, z=z1)
        p2 = SpacetimePoint(t=np.full(n, 0.5), x=np.full(n, 0.25),
                            y=np.full(n, -0.5), z=z2)
        return p1, p2

    @pytest.mark.parametrize("eps", DEFAULT_EPSILONS)
    @pytest.mark.parametrize("with_mirror", [False, True])
    def test_matches_complex_reference(self, eps, with_mirror):
        from udwmi.correlation import _wightman_parts

        p1, p2 = self.events()
        dt = p1.t - p2.t
        dx, dy, dz = p1.x - p2.x, p1.y - p2.y, p1.z - p2.z
        cone = dt * dt - (dx * dx + dy * dy) - dz * dz
        direct = np.abs(wightman_free(p1, p2, eps))
        if with_mirror:
            ref = wightman_boundary(p1, p2, eps)
            re, im = _wightman_parts(cone, dt, eps, 4.0 * p1.z * p2.z)
        else:
            ref = wightman_free(p1, p2, eps)
            re, im = _wightman_parts(cone, dt, eps)
        value = -(re + 1j * im) / (4.0 * math.pi ** 2)
        assert np.all(np.abs(value - ref) <= 1e-12 * direct)
        # the light-cone events are there: |q| is of order eps there
        assert np.max(direct) > 1e-2 / eps


class TestEqualKinematics:
    def test_frozen_free_and_image_parts(self):
        r = correlation_equal(pair(5.0, 0.02, sep=1.0, dz=0.1), tol=1e-10)
        assert np.isclose(r.c_free.real, 0.05307594501528353, rtol=1e-8)
        assert np.isclose(r.c_boundary.real, 0.049269391167126248, rtol=1e-8)
        assert np.isclose(r.c_total, r.c_free - r.c_boundary, rtol=1e-12)
        assert r.converged

    def test_equal_gaps_give_real_correlation(self):
        # the odd part of the numerator integrates to zero against an even
        # denominator and the residue pair is real, so Im C vanishes
        # identically for matching kinematics
        for sep in (0.5, 1.0, 4.0):
            r = correlation_equal(pair(5.0, 0.02, sep=sep, dz=0.1), tol=1e-10)
            assert abs(r.c_total.imag) < 1e-10 * max(abs(r.c_total), 1e-3)

    def test_free_space_has_no_image_part(self):
        r = correlation_equal(pair(5.0, 0.02, sep=1.0), tol=1e-10)
        assert r.c_boundary == 0.0
        assert np.isclose(r.c_total.real, 0.05307594501528353, rtol=1e-8)

    def test_far_boundary_image_part(self):
        # image separation L + 2 dz = 101: the pole leaves the Gaussian
        # support and only an algebraic tail survives
        r = correlation_equal(pair(5.0, 0.02, sep=1.0, dz=50.0), tol=1e-10)
        assert np.isclose(r.c_boundary.real, 1.5449920273105971e-5, rtol=1e-6)

    def test_frozen_detuned_value(self):
        r = correlation_equal(pair(5.0, 0.02, sep=1.0, gap_b=1.1), tol=1e-10)
        assert np.isclose(r.c_free.real, 0.014467020484832148, rtol=1e-8)

    def test_detuning_suppression_factor(self):
        # the gap difference enters only through exp(-dgap^2/4) and the
        # oscillation wavenumber; the Gaussian prefactor dominates
        base = abs(correlation_equal(pair(0.1, 0.02, sep=1.0), tol=1e-11).c_total)
        detuned = abs(
            correlation_equal(pair(0.1, 0.02, sep=1.0, gap_b=2.1), tol=1e-11).c_total
        )
        assert detuned < np.exp(-(2.0**2) / 4) * base

    def test_frozen_large_radius_value(self):
        r = correlation_equal(pair(0.1, 10.0, sep=2.0), tol=1e-10)
        assert np.isclose(r.c_free.real, 0.037549137046217741, rtol=1e-8)

    def test_frozen_static_value(self):
        # omega = 0 pair: the denominator reduces to L^2 - s^2 with poles
        # exactly at the light cone
        r = correlation_equal(pair(0.0, 1.0, sep=2.0), tol=1e-10)
        assert np.isclose(r.c_free.real, 0.037602960559004461, rtol=1e-8)

    def test_static_radius_is_inert(self):
        # at omega = 0 the denominator L^2 - s^2 has no R in it, so the
        # orbit radius must not change a single bit of C
        near, far = (correlation_equal(pair(0.0, r, sep=2.0, dz=0.5))
                     for r in (0.02, 100.0))
        assert near == far

    def test_label_swap_invariance(self):
        da = detector_from_accel_radius(0.1, 5.0, 0.02)
        db = detector_from_accel_radius(0.3, 5.0, 0.02)
        fwd = correlation_equal(PairConfig(det_a=da, det_b=db, sep=1.0, dz=0.1),
                                tol=1e-10)
        rev = correlation_equal(PairConfig(det_a=db, det_b=da, sep=1.0, dz=0.1),
                                tol=1e-10)
        assert np.isclose(abs(fwd.c_total), abs(rev.c_total), rtol=1e-9)

    def test_decays_with_separation(self):
        vals = [
            abs(correlation_equal(pair(0.1, 0.02, sep=s), tol=1e-10).c_total)
            for s in (1.0, 3.0, 6.0, 9.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_mismatched_kinematics_rejected(self):
        da = detector_from_accel_radius(0.1, 5.0, 0.02)
        db = detector_from_accel_radius(0.1, 1.0, 0.02)
        with pytest.raises(DomainError):
            correlation_equal(PairConfig(det_a=da, det_b=db, sep=1.0))


class TestReductionCrossCheck:
    @pytest.mark.parametrize(
        "accel,radius,L_eff,gap",
        [
            (3.0, 1.0, 0.5, 0.5),
            (3.0, 1.0, 1.1, 0.5),
            (5.0, 0.02, 1.0, 0.1),
            (5.0, 0.02, 1.2, 0.1),
            (0.1, 10.0, 2.0, 0.1),
            (30.0, 0.02, 0.5, 1.0),
            (1.0, 1.0, 4.0, 2.0),
            # a detector's own image term: L_eff = 2 dz, k = gap/gamma
            (5.0, 0.02, 2 * 0.3, 0.1),
            # each side's estimate against tol/2 once missed while the
            # sum met tol
            (5.0, 0.02, 2 * 0.1, 0.1),
            (1.0, 1.0, 2 * 5.0, 0.1),
            (30.0, 0.02, 2 * 0.3, 0.1),
        ],
    )
    def test_line_integral_matches_qawc(self, accel, radius, L_eff, gap):
        # the folded principal value recomputed with QUADPACK's QAWC. QAWC
        # gets g/q with the pole factored out of D in closed form: handing
        # it (s - s0)/D(s) loses the pole region to cancellation.
        d = detector_from_accel_radius(gap, accel, radius)
        g, om, R = d.gamma, d.omega, d.radius
        k = gap / g

        def D(s):
            return L_eff**2 + 4 * R**2 * np.sin(om * s / 2) ** 2 - s * s

        s0 = brentq(D, L_eff, np.sqrt(L_eff**2 + 4 * R**2), xtol=1e-15)

        def q(s):
            # D(s)/(s - s0) via sin^2 a - sin^2 b = sin(a - b) sin(a + b)
            u = om * (s - s0) / 2
            return 2 * R**2 * om * np.sin(u) / u * np.sin(om * (s + s0) / 2) - (s + s0)

        pv = quad(lambda s: 2 * np.exp(-s * s / (4 * g * g)) * np.cos(k * s) / q(s),
                  0.0, 30.0, weight="cauchy", wvar=s0,
                  epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        d_prime = 2 * R**2 * om * np.sin(om * s0) - 2 * s0
        residues = -2 * np.pi * np.exp(-s0 * s0 / (4 * g * g)) * np.sin(k * s0) / abs(d_prime)
        r = _reduced_line_integral(L_eff, R, om, g, k, 30.0, 1e-12)
        assert r.converged
        assert abs(r.value - (pv + residues)) < 1e-12

    @pytest.mark.parametrize(
        "cfg,tol",
        [
            (pair(3.0, 1.0, sep=0.5, dz=0.3, gap_a=0.5, gap_b=0.5), 1e-11),
            (pair(3.0, 10.0, sep=0.5), 1e-12),
        ],
        ids=["near-mirror", "large-radius"],
    )
    def test_tight_tolerance_converges(self, cfg, tol):
        loose = correlation_equal(cfg, tol=1e-8)
        tight = correlation_equal(cfg, tol=tol)
        assert tight.converged
        assert abs(tight.c_total - loose.c_total) < 1e-10


def line_key(accel, radius, gap, L_eff, tol):
    det = detector_from_accel_radius(gap, accel, radius)
    return (L_eff, *_line_params(det, det, tol)[1])


def line_bits(res):
    """Every field of a batch member's result, floats as exact hex; an
    exception as its type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations,
            res.converged, res.pole.hex(), float(res.residues).hex(),
            res.far_pole)


# always in the batch: a static orbit (omega = 0), a far-pole member
# (L_eff beyond the switching envelope), a member that fails before its
# quadrature and one that its quadrature batch rejects (tol 0)
SPECIAL_KEYS = [line_key(0.0, 0.02, 0.1, 1.5, 1e-8),
                line_key(1.0, 1.0, 0.5, 40.0, 1e-10),
                line_key(5.0, 0.02, 0.1, 0.0, 1e-8),
                line_key(5.0, 0.02, 0.1, 1.0, 1e-8)[:-1] + (0.0,)]


class TestLineIntegralBatch:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 3.7, 30.0]),
                              st.sampled_from([0.02, 1.0, 10.0]),
                              st.sampled_from([0.01, 0.1, 1.0]),
                              st.floats(0.05, 30.0),
                              st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12])),
                    max_size=5),
           st.randoms(use_true_random=False))
    def test_members_equal_batches_of_one(self, drawn, rnd):
        keys = [line_key(*d) for d in drawn] + SPECIAL_KEYS
        rnd.shuffle(keys)
        batch = _reduced_line_integrals(keys)
        assert [line_bits(r) for r in batch] == \
            [line_bits(_reduced_line_integrals([k])[0]) for k in keys]
        # the raising members fail alone, each with its own message
        failed = {k: str(r) for k, r in zip(keys, batch)
                  if isinstance(r, Exception)}
        assert failed == {SPECIAL_KEYS[2]: "effective separation must be "
                                           "positive",
                          SPECIAL_KEYS[3]: "tol must be positive"}
        assert batch[keys.index(SPECIAL_KEYS[1])].far_pole
        with pytest.raises(DomainError, match="effective separation"):
            _reduced_line_integral(*SPECIAL_KEYS[2])

    def test_near_and_far_keys_share_one_principal_value_batch(
            self, monkeypatch):
        # the far-pole members are principal values whose pole lies
        # outside their range, in the same call as the near ones
        from udwmi import correlation

        calls = []
        batch = correlation.principal_value_batch

        def counted(g, pole, lo, hi, tol):
            calls.append(len(pole))
            return batch(g, pole, lo, hi, tol)

        monkeypatch.setattr(correlation, "principal_value_batch", counted)
        keys = [line_key(3.7, 0.02, 0.1, L, 1e-8) for L in (0.5, 2.0, 60.0)]
        keys += SPECIAL_KEYS
        lines = _reduced_line_integrals(keys)
        # every key whose pole was found is a member of the one call
        assert calls == [len(keys) - 1]
        assert [getattr(r, "far_pole", None) for r in lines] == \
            [False, False, True, False, True, None, None]


def mp_pole(L_eff, radius, omega):
    """The positive zero of D(s) = L_eff^2 + 4 R^2 sin^2(omega s / 2) -
    s^2 by bisection in 40-digit arithmetic, the float arguments taken
    as exact, on [L_eff, sqrt(L_eff^2 + 4 R^2)], where D changes sign."""
    with mpmath.workdps(40):
        L, R, om = (mpmath.mpf(x) for x in (L_eff, radius, omega))
        lo, hi = L, mpmath.sqrt(L * L + 4 * R * R)
        for _ in range(140):
            mid = (lo + hi) / 2
            if L * L + 4 * R * R * mpmath.sin(om * mid / 2) ** 2 > mid * mid:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class TestLinePole:
    # the lightlike pole s0 of the line integrals' denominator D
    def test_matches_40_digit_root(self):
        # slow and fast orbits, v -> 1 (a = 100, R = 30, gamma = 54.8)
        # and a radius far below rounding of L_eff (R = 1e-9)
        for accel, radius in [(0.1, 10.0), (1.0, 1.0), (5.0, 0.02),
                              (30.0, 0.02), (100.0, 30.0), (5.0, 1e-9)]:
            det = detector_from_accel_radius(0.1, accel, radius)
            _, (R, om, gamma, *_) = _line_params(det, det, 1e-8)
            for L_eff in (0.02, 0.05, 0.2, 1.0, 3.0, 10.0, 25.0, 60.0):
                ref = mp_pole(L_eff, R, om)
                s0 = _line_pole(L_eff, R, om, gamma)
                assert abs(s0 - ref) <= 1e-12 * ref, (accel, radius, L_eff)

    def test_static_orbit_is_exact(self):
        det = detector_from_accel_radius(0.1, 0.0, 1.0)
        _, (R, om, gamma, *_) = _line_params(det, det, 1e-8)
        for L_eff in (0.02, 0.3, 1.0 / 3.0, 7.0, 60.0):
            assert _line_pole(L_eff, R, om, gamma) == L_eff

    def test_far_pole_key(self):
        # L_eff beyond the switching envelope: the far-pole branch
        # reports the same pole
        key = line_key(1.0, 1.0, 0.5, 40.0, 1e-10)
        res = _reduced_line_integral(*key)
        assert res.far_pole
        assert abs(res.pole - mp_pole(*key[:3])) <= 1e-12 * res.pole

    @pytest.mark.parametrize("L_eff", [0.0, -1.0, math.nan, math.inf])
    def test_bad_separation_raises(self, L_eff):
        det = detector_from_accel_radius(0.1, 5.0, 0.02)
        _, (R, om, gamma, *_) = _line_params(det, det, 1e-8)
        with pytest.raises(DomainError, match="effective separation"):
            _line_pole(L_eff, R, om, gamma)

class TestDefinitionOracle:
    # the oracle evaluates the defining double integral at three regulator
    # values and extrapolates; independent of the reduction
    def test_boundary_point(self):
        # then static pairs (omega = 0, poles on the light cone), equal
        # and detuned, with and without the mirror
        for cfg in (pair(5.0, 0.02, sep=1.0, dz=0.1),
                    pair(0.0, 1.0, sep=2.0, dz=0.5),
                    pair(0.0, 1.0, sep=1.0, dz=0.3, gap_a=0.5, gap_b=1.0),
                    pair(0.0, 1.0, sep=1.0, gap_a=0.5, gap_b=1.0)):
            fast = correlation_equal(cfg, tol=1e-10)
            est = correlation_general_result(cfg, tol=1e-6)
            assert est.monotone
            assert abs(est.value - fast.c_total) < 1e-3 * abs(fast.c_total)
            assert abs(est.value - fast.c_total) <= est.error_estimate

    def test_each_regulator_pass_runs_once(self, monkeypatch):
        # the ladder's rungs run as one batch, and the grid check
        # compares its largest-epsilon rung with one finer pass, so no
        # rung is run again
        from udwmi import correlation

        passes = []
        batch = correlation._correlation_passes

        def counted(cfg, epsilons, tol, n_u):
            passes.extend((eps, n_u) for eps in epsilons)
            return batch(cfg, epsilons, tol, n_u)

        monkeypatch.setattr(correlation, "_correlation_passes", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        assert len(passes) == len(set(passes))
        # the three rungs, then one grid refinement
        assert len(passes) == 4
        assert [eps for eps, _ in est.samples] == [1e-3, 5e-4, 2.5e-4]

    def test_evaluations_count_every_pass(self, monkeypatch):
        # the grid check's finer pass, which the ladder does not use,
        # counts too
        from udwmi import correlation

        counts = []
        batch = correlation._correlation_passes

        def counted(cfg, epsilons, tol, n_u):
            results = batch(cfg, epsilons, tol, n_u)
            counts.extend(res.evaluations for res in results)
            return results

        monkeypatch.setattr(correlation, "_correlation_passes", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        assert len(counts) == 4
        assert est.evaluations == sum(counts)

    def test_failed_grid_check_doubles_the_rungs_grid(self, monkeypatch):
        # the first rung batch is knocked off its value, so the first
        # grid check fails: the finer pass becomes the first rung, the
        # other rungs run on the doubled grid, and the next check passes
        from udwmi import correlation

        runs = []
        batch = correlation._correlation_passes

        def counted(cfg, epsilons, tol, n_u):
            results = batch(cfg, epsilons, tol, n_u)
            if not runs:
                results = [replace(res, value=res.value + 1.0)
                           for res in results]
            runs.extend((eps, n_u, res) for eps, res in zip(epsilons,
                                                             results))
            return results

        monkeypatch.setattr(correlation, "_correlation_passes", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        passes = [(eps, n_u) for eps, n_u, _ in runs]
        n_u = passes[0][1]
        assert passes == [*((eps, n_u) for eps in DEFAULT_EPSILONS),
                          *((eps, 2 * n_u) for eps in DEFAULT_EPSILONS),
                          (DEFAULT_EPSILONS[0], 4 * n_u)]
        assert len(passes) == len(set(passes))
        rungs = {eps: res for eps, n, res in runs if n == 2 * n_u}
        assert est.samples == tuple((eps, complex(rungs[eps].value))
                                    for eps in DEFAULT_EPSILONS)
        assert est.evaluations == sum(res.evaluations for *_, res in runs)

    def test_unequal_gamma_pair(self):
        # different radii force the general route; the pair state must
        # still produce a finite correlation with a sane magnitude
        da = detector_from_accel_radius(0.1, 5.0, 0.02)
        db = detector_from_accel_radius(0.1, 5.0, 0.03)
        cfg = PairConfig(det_a=da, det_b=db, sep=1.0, dz=0.1)
        assert not cfg.equal_kinematics
        est = correlation_general_result(cfg, tol=1e-5)
        assert np.isfinite(est.value.real) and np.isfinite(est.value.imag)
        assert 0.0 < abs(est.value) < 1.0


def bits(res):
    return (complex(res.value).real.hex(), complex(res.value).imag.hex(),
            res.abs_error_estimate.hex(), res.evaluations)


class TestOracleRowBlocks:
    # both oracle integrands evaluate their distinct abscissae in blocks
    # of at most correlation._ORACLE_BLOCK inner-grid elements; every row
    # is reduced alone, so the block size cannot change a pass
    def test_one_row_blocks_equal_default_blocks(self, monkeypatch):
        from udwmi import correlation, response

        def passes():
            return [res for cfg in (pair(5.0, 0.02, sep=1.0, dz=0.1),
                                    pair(1.0, 1.0, sep=1.0))
                    for res in correlation._correlation_passes(
                        cfg, DEFAULT_EPSILONS, 1e-7, 96)] + [
                res for spec, dz in (
                    (detector_from_accel_radius(0.1, 5.0, 0.02), 0.1),
                    (detector_from_accel_radius(0.1, 0.1, 10.0), None))
                for res in response._response_passes(
                    spec, dz, DEFAULT_EPSILONS, 2.5e-7)]

        default = [bits(res) for res in passes()]
        monkeypatch.setattr(correlation, "_ORACLE_BLOCK", 1)
        assert [bits(res) for res in passes()] == default

    def test_reused_buffers_keep_nothing_between_passes(self, monkeypatch):
        # every batch computes its block temporaries in buffers it
        # allocates once and reuses; passes of other inner grids, with
        # and without the mirror and at other block sizes, run before
        # and between them, and each rung still equals its batch of one
        from udwmi import correlation, response

        spec = detector_from_accel_radius(0.1, 0.1, 1.0)
        runs = [
            lambda eps: correlation._correlation_passes(
                pair(0.1, 1.0, sep=1.0, dz=0.5), eps, 1e-4, 32),
            lambda eps: response._response_passes(spec, 0.1, eps, 1e-4),
            lambda eps: correlation._correlation_passes(
                pair(1.0, 1.0, sep=1.0, gap_b=0.3), eps, 1e-4, 48),
            lambda eps: response._response_passes(spec, None, eps, 1e-4),
        ]
        alone = [[bits(run((eps,))[0]) for eps in DEFAULT_EPSILONS]
                 for run in runs]
        for block in (1, correlation._ORACLE_BLOCK):
            monkeypatch.setattr(correlation, "_ORACLE_BLOCK", block)
            for run, expected in zip(runs, alone):
                assert [bits(res) for res in run(DEFAULT_EPSILONS)] == \
                    expected

    def test_pass_memory_is_bounded(self):
        # one pass refines thousands of panels; as one (panels x 15) x 96
        # complex array its temporaries peaked at 85 MiB. A batch of
        # three rungs stays under the bound of one pass.
        import tracemalloc

        from udwmi import correlation

        cfg = pair(5.0, 0.02, sep=1.0, dz=0.1)
        tracemalloc.start()
        try:
            correlation._correlation_passes(cfg, DEFAULT_EPSILONS, 1e-7, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestRungBatch:
    # the rungs of an oracle's epsilon ladder run as one lockstep batch
    # and share each distinct abscissa's epsilon-independent factors;
    # every rung keeps its own mesh, so it equals its batch of one
    @pytest.mark.parametrize("cfg", [
        pair(5.0, 0.02, sep=1.0, dz=0.1),      # mirror
        pair(1.0, 1.0, sep=1.0),               # free space
        pair(0.0, 1.0, sep=2.0, dz=0.5),       # static
    ])
    def test_correlation_rungs_equal_batches_of_one(self, cfg):
        from udwmi import correlation

        batch = correlation._correlation_passes(cfg, DEFAULT_EPSILONS,
                                                1e-7, 96)
        assert len(batch) == len(DEFAULT_EPSILONS)
        for eps, res in zip(DEFAULT_EPSILONS, batch):
            (alone,) = correlation._correlation_passes(cfg, (eps,), 1e-7, 96)
            assert bits(res) == bits(alone)

    @pytest.mark.parametrize("accel, radius, dz", [
        (5.0, 0.02, 0.1),      # mirror
        (0.1, 10.0, None),     # free space
        (0.0, 1.0, 0.5),       # static
    ])
    def test_response_rungs_equal_batches_of_one(self, accel, radius, dz):
        from udwmi import response

        spec = detector_from_accel_radius(0.1, accel, radius)
        batch = response._response_passes(spec, dz, DEFAULT_EPSILONS, 2.5e-7)
        assert len(batch) == len(DEFAULT_EPSILONS)
        for eps, res in zip(DEFAULT_EPSILONS, batch):
            (alone,) = response._response_passes(spec, dz, (eps,), 2.5e-7)
            assert bits(res) == bits(alone)


class TestEpsilonLadder:
    # the ladder both oracles share, driven by stub regulator passes
    @staticmethod
    def stub(values, errors):
        return [QuadratureResult(v, e, 1, True)
                for v, e in zip(values, errors)]

    def test_monotone_ladder_returns_the_limit(self):
        values = [1.0 + 2.0 * e + 300.0 * e * e for e in DEFAULT_EPSILONS]
        passes = self.stub(values, [1e-9, 4e-9, 2e-9])
        est = _epsilon_ladder(passes, tol=1e-6, extra_error=5e-10)
        assert list(DEFAULT_EPSILONS) == sorted(DEFAULT_EPSILONS,
                                                reverse=True)
        ext = epsilon_extrapolate(zip(DEFAULT_EPSILONS, values))
        assert est.monotone and ext.monotone
        assert est.value == ext.value
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.error_estimate == 3.0 * ext.residual + 4e-9 + 5e-10
        assert est.samples == tuple(zip(DEFAULT_EPSILONS,
                                        map(complex, values)))
        assert est.evaluations == len(DEFAULT_EPSILONS)

    def test_non_monotone_ladder_far_above_tol_raises(self):
        passes = self.stub([1.0, 1.001, 0.5], [1e-9] * 3)
        assert not epsilon_extrapolate(
            zip(DEFAULT_EPSILONS, [1.0, 1.001, 0.5])).monotone
        with pytest.raises(RuntimeError, match="did not converge"):
            _epsilon_ladder(passes, tol=1e-6)
        # within 100 max(tol, pass error) the same ladder is reported
        est = _epsilon_ladder(passes, tol=1e2)
        assert not est.monotone

    def test_one_pass_per_epsilon(self):
        with pytest.raises(ValueError):
            _epsilon_ladder(self.stub([1.0, 1.0], [1e-9] * 2), tol=1e-6)


class TestPairValidation:
    def test_negative_sep_rejected(self):
        with pytest.raises(DomainError):
            pair(5.0, 0.02, sep=-1.0)

    def test_nonpositive_dz_rejected(self):
        with pytest.raises(DomainError):
            pair(5.0, 0.02, sep=1.0, dz=0.0)

    def test_coincident_worldlines_rejected(self):
        with pytest.raises(DomainError):
            pair(5.0, 0.02, sep=0.0)

    def test_equal_kinematics_flag(self):
        assert pair(5.0, 0.02, sep=1.0).equal_kinematics
        da = detector_from_accel_radius(0.1, 5.0, 0.02)
        db = detector_from_accel_radius(0.1, 4.0, 0.02)
        assert not PairConfig(det_a=da, det_b=db, sep=1.0).equal_kinematics
