import math

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
from udwmi.correlation import (_contours, _line_params, _line_pole,
                               _oracle_pass, _reduced_line_integral,
                               _reduced_line_integrals)

# Frozen expected values come from an independent mpmath implementation of
# the reduced single-integral form (50 significant digits; dps-30 and
# dps-50 runs agree to 25+ digits).


def pair(accel, radius, sep, dz=None, gap_a=0.1, gap_b=0.1):
    da = detector_from_accel_radius(gap_a, accel, radius)
    db = detector_from_accel_radius(gap_b, accel, radius)
    return PairConfig(det_a=da, det_b=db, sep=sep, dz=dz)


class TestWightman:
    # events at complex proper times, where the oracles evaluate them
    TAU_1, TAU_2 = 0.7 - 0.3j, -0.2 + 0.1j

    def test_free_hermiticity(self):
        # W(p1, p2) = conj(W(p2*, p1*)), p* the event at the conjugate tau
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        tau_1, tau_2 = self.TAU_1, self.TAU_2
        p1, p2 = (trajectory_point(d, 0.3, tau_1),
                  trajectory_point(d, 1.1, tau_2))
        p1c, p2c = (trajectory_point(d, 0.3, tau_1.conjugate()),
                    trajectory_point(d, 1.1, tau_2.conjugate()))
        w12 = wightman_free(p1, p2)
        assert np.isclose(w12, np.conj(wightman_free(p2c, p1c)), rtol=1e-12)
        assert abs(w12.imag) > 1e-3 * abs(w12)

    def test_boundary_is_free_minus_image(self):
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        p1 = trajectory_point(d, 0.3, self.TAU_1)
        p2 = trajectory_point(d, 1.1, self.TAU_2)
        from udwmi import SpacetimePoint

        mirror2 = SpacetimePoint(t=p2.t, x=p2.x, y=p2.y, z=-p2.z)
        expected = wightman_free(p1, p2) - wightman_free(p1, mirror2)
        assert np.isclose(wightman_boundary(p1, p2), expected, rtol=1e-12)

    def test_vanishes_on_the_mirror(self):
        # Dirichlet condition: put the second point on the plane
        d = detector_from_accel_radius(0.1, 2.0, 0.5)
        p1 = trajectory_point(d, 0.3, self.TAU_1)
        p2 = trajectory_point(d, 0.0, self.TAU_2)
        assert abs(wightman_boundary(p1, p2)) < 1e-15


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
        batch = correlation._principal_values

        def counted(g, pole, lo, hi, tol, initial_panels):
            calls.append(len(pole))
            return batch(g, pole, lo, hi, tol, initial_panels)

        monkeypatch.setattr(correlation, "_principal_values", counted)
        keys = [line_key(3.7, 0.02, 0.1, L, 1e-8) for L in (0.5, 2.0, 60.0)]
        keys += SPECIAL_KEYS
        lines = _reduced_line_integrals(keys)
        # every key whose pole was found is a member of the one call
        assert calls == [len(keys) - 1]
        assert [getattr(r, "far_pole", None) for r in lines] == \
            [False, False, True, False, True, None, None]

    def test_batch_memory_is_bounded(self):
        # the 1201 line keys of a 400-point criterion-7 style sep curve
        # (a = 3.7, R = 0.02, dz = 5): as one lockstep batch their first
        # round peaked at about 12 MiB traced, in the quadrature's runs
        # of at most _RUN_PANELS initial panels at about 2 MiB
        import tracemalloc

        from udwmi.infomeasure import _plan_points

        det = detector_from_accel_radius(0.1, 3.7, 0.02)
        pairs = [PairConfig(det, det, sep, 5.0)
                 for sep in np.linspace(0.1, 8.0, 400)]
        keys = _plan_points(pairs, 1e-8)[2]
        assert len(keys) == 1201
        tracemalloc.start()
        try:
            _reduced_line_integrals(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @staticmethod
    def line_work(monkeypatch, keys, initial_panels=None):
        """The integrand calls and the evaluations of the line integrals
        of keys as one batch, each member on the start it is sized to,
        or on initial_panels when given."""
        from udwmi import correlation

        calls = []
        batch = correlation._principal_values

        def counted(g, pole, lo, hi, tol, sized_panels):
            def g_counted(s, j):
                calls.append(s.size)
                return g(s, j)

            return batch(g_counted, pole, lo, hi, tol,
                         sized_panels if initial_panels is None
                         else initial_panels)

        with monkeypatch.context() as m:
            m.setattr(correlation, "_principal_values", counted)
            lines = _reduced_line_integrals(keys)
        return len(calls), sum(line.evaluations for line in lines)

    def test_sized_start_adds_no_rounds(self, monkeypatch):
        # a point's few line integrals take as many rounds as their
        # slowest member, and at that batch size each round costs more
        # than its evaluations: over a seeded sample of the benchmark's
        # udwmi mi queries, the sized starts take no more integrand
        # calls than a fixed start of 8 panels
        import importlib.util
        import random
        import sys
        from pathlib import Path

        from udwmi.infomeasure import _plan_points

        path = Path(__file__).resolve().parent.parent / "bench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while they are made
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        universe = workloads.query_universe()
        sized = fixed = 0
        for i in random.Random(26).sample(range(len(universe)), 150):
            q = universe[i]
            p = PairConfig(
                detector_from_accel_radius(q["gap_a"], q["accel"],
                                           q["radius"]),
                detector_from_accel_radius(q["gap_b"], q["accel"],
                                           q["radius"]),
                q["sep"], q["dz"])
            keys = _plan_points([p], 1e-8)[2]
            sized += self.line_work(monkeypatch, keys)[0]
            fixed += self.line_work(monkeypatch, keys, 8)[0]
        assert sized <= fixed

    def test_sized_start_evaluates_less_on_an_onset_curve(self, monkeypatch):
        # the 721 line keys of the 240-point criterion-7 curve (a = 3.7,
        # R = 0.02, dz = 5), one batch as a sweep runs it
        from udwmi.infomeasure import _plan_points

        det = detector_from_accel_radius(0.1, 3.7, 0.02)
        keys = _plan_points([PairConfig(det, det, sep, 5.0)
                             for sep in np.linspace(0.1, 8.0, 240)], 1e-8)[2]
        assert len(keys) == 721
        sized = self.line_work(monkeypatch, keys)
        fixed = self.line_work(monkeypatch, keys, 8)
        assert sized[1] < fixed[1]


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

# The epsilon-ladder oracle this one replaced, at tol 1e-7: (gap, a, R)
# of A and B, sep, dz, then its C and error estimate. Unequal kinematics
# have no reduced path, so these are the cross-check of the new oracle
# there. The last pair puts B on a fast small orbit, whose phase enters
# the inner integrand with its harmonics.
LADDER_ORACLE = [
    ((0.1, 1.0, 1.0), (0.3, 2.0, 0.5), 0.5, None,
     0.04472662351424919 - 6.568819562365505e-16j, 6.854129638550962e-08),
    ((0.1, 1.0, 1.0), (0.3, 2.0, 0.5), 0.5, 0.3,
     0.007069459174744095 - 9.726016288643298e-16j, 3.139285639477213e-08),
    ((0.5, 3.0, 2.0), (0.2, 1.0, 1.0), 1.0, 0.5,
     0.0030021232814414823 - 4.1749011655174584e-16j, 3.797351704270174e-08),
    ((0.5, 3.0, 2.0), (0.2, 1.0, 1.0), 1.0, None,
     0.015137480320448116 - 2.7524279152335426e-16j, 3.6230729962834665e-08),
    ((0.2, 0.0, 1.0), (0.4, 1.0, 1.0), 1.0, 0.5,
     0.0077887320664919565 - 5.354513129181744e-16j, 1.667819545540425e-08),
    ((0.014, 0.11, 1.63), (0.031, 13.6, 0.043), 0.43, 0.83,
     0.013988801040601483 - 5.325601071248797e-16j, 1.9663088030666004e-08),
]


class TestDefinitionOracle:
    # the oracle evaluates the defining double integral on two shifted
    # proper-time contours; independent of the reduction
    def test_boundary_point(self):
        # then static pairs (omega = 0, poles on the light cone), equal
        # and detuned, with and without the mirror
        for cfg in (pair(5.0, 0.02, sep=1.0, dz=0.1),
                    pair(0.0, 1.0, sep=2.0, dz=0.5),
                    pair(0.0, 1.0, sep=1.0, dz=0.3, gap_a=0.5, gap_b=1.0),
                    pair(0.0, 1.0, sep=1.0, gap_a=0.5, gap_b=1.0)):
            fast = correlation_equal(cfg, tol=1e-10)
            est = correlation_general_result(cfg, tol=1e-6)
            assert abs(est.value - fast.c_total) < 1e-3 * abs(fast.c_total)
            assert abs(est.value - fast.c_total) <= est.error_estimate

    def test_each_regulator_pass_runs_once(self, monkeypatch):
        # one pass per contour: eta_1 on the inner grid, eta_2 on the
        # doubled one, and the value is the second
        from udwmi import correlation

        calls = []
        one_pass = correlation._oracle_pass

        def counted(*args):
            calls.append(args[5:7])
            return one_pass(*args)

        monkeypatch.setattr(correlation, "_oracle_pass", counted)
        cfg = pair(1.0, 1.0, sep=1.0)
        est = correlation_general_result(cfg, tol=1e-6)
        (eta_1, n_u), (eta_2, n_fine) = calls
        assert (eta_1, eta_2) == _contours(cfg.det_a, cfg.det_b)
        assert eta_2 == 2.0 * eta_1 and n_fine == 2 * n_u
        assert [eta for eta, _ in est.samples] == [eta_1, eta_2]
        assert est.value == est.samples[1][1]

    def test_evaluations_count_every_pass(self, monkeypatch):
        from udwmi import correlation

        counts = []
        one_pass = correlation._oracle_pass

        def counted(*args):
            res = one_pass(*args)
            counts.append(res.evaluations)
            return res

        monkeypatch.setattr(correlation, "_oracle_pass", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        assert len(counts) == 2
        assert est.evaluations == sum(counts)

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

    @pytest.mark.parametrize("a, b, sep, dz, ladder, ladder_err",
                             LADDER_ORACLE)
    def test_unequal_kinematics_match_the_ladder_oracle(self, a, b, sep, dz,
                                                         ladder, ladder_err):
        cfg = PairConfig(det_a=detector_from_accel_radius(*a),
                         det_b=detector_from_accel_radius(*b), sep=sep, dz=dz)
        assert not cfg.equal_kinematics
        est = correlation_general_result(cfg, tol=1e-7)
        assert abs(est.value - ladder) <= ladder_err + est.error_estimate
        # the inner grid resolves the orbits, so the spread stays at tol
        assert est.error_estimate <= 2e-7

    def test_contour_beyond_the_tube_raises(self, monkeypatch):
        # at gamma = 20 (a = 40, R = 10) the tube bound is 0.05; a second
        # contour at eta = 0.2 crosses the complex zeros of the interval,
        # and its pass differs from the first by about P itself (1.42)
        from udwmi import correlation, response

        spec = detector_from_accel_radius(0.1, 40.0, 10.0)
        eta_1, eta_2 = _contours(spec, spec)
        assert eta_2 == pytest.approx(0.025, rel=1e-3)
        assert response.transition_probability_oracle_result(spec, 0.1)
        monkeypatch.setattr(correlation, "_contours",
                            lambda *_: (eta_1, 0.2))
        with pytest.raises(RuntimeError, match="differ by 1.4"):
            response.transition_probability_oracle_result(spec, 0.1)


def bits(res):
    return (complex(res.value).real.hex(), complex(res.value).imag.hex(),
            res.abs_error_estimate.hex(), res.evaluations)


def oracle_args(det_a, det_b, z_a, z_b, mirror):
    """The arguments of _oracle_pass before its contour, and the
    (eta, n_u) contours _oracle gives equal-kinematics detectors of one
    gap."""
    eta_1, eta_2 = _contours(det_a, det_b)
    return (det_a, det_b, z_a, z_b, mirror), [(eta_1, 96), (eta_2, 192)]


def pair_args(cfg):
    z_a = cfg.dz if cfg.dz is not None else 0.0
    return oracle_args(cfg.det_a, cfg.det_b, z_a, z_a + cfg.sep,
                       cfg.dz is not None)


def response_args(spec, dz):
    # the response is the correlation of a detector with itself
    z = dz if dz is not None else 0.0
    return oracle_args(spec, spec, z, z, dz is not None)


class TestOracleRowBlocks:
    # the oracle integrand evaluates its abscissae in row blocks of at
    # most correlation._BLOCK inner-grid elements; every row is reduced
    # alone, so the block size cannot change a pass
    def test_one_row_blocks_equal_default_blocks(self, monkeypatch):
        from udwmi import correlation

        def passes():
            spec = detector_from_accel_radius(0.3, 0.1, 1.0)
            return [bits(_oracle_pass(*args, eta, n_u, 1e-5))
                    for args, contours in (
                        pair_args(pair(1.0, 1.0, sep=1.0)),
                        response_args(spec, 0.5))
                    for eta, n_u in contours]

        default = passes()
        monkeypatch.setattr(correlation, "_BLOCK", 1)
        assert passes() == default

    def test_pass_memory_is_bounded(self):
        # the row blocks bound a round's temporaries whatever its panel
        # count: the two passes peak at about 0.5 MiB here
        import tracemalloc

        cfg = pair(5.0, 0.02, sep=1.0, dz=0.1)
        args, contours = pair_args(cfg)
        tracemalloc.start()
        try:
            for eta, n_u in contours:
                _oracle_pass(*args, eta, n_u, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestRungBatch:
    # each of the oracle's two contours, the rungs of its eta ladder, is
    # a pass of its own, a batch of one of integrate_adaptive_batch; the
    # estimate takes its passes' values and counts as they stand
    @pytest.mark.parametrize("cfg", [
        pair(5.0, 0.02, sep=1.0, dz=0.1),      # mirror
        pair(1.0, 1.0, sep=1.0),               # free space
        pair(0.0, 1.0, sep=2.0, dz=0.5),       # static
    ])
    def test_correlation_rungs_equal_batches_of_one(self, cfg):
        args, contours = pair_args(cfg)
        est = correlation_general_result(cfg, tol=1e-7)
        alone = [_oracle_pass(*args, eta, n_u, 1e-7)
                 for eta, n_u in contours]
        assert est.samples == tuple((eta, complex(res.value)) for (eta, _), res
                                    in zip(contours, alone, strict=True))
        assert est.evaluations == sum(res.evaluations for res in alone)
        assert est.value == alone[1].value
        assert est.error_estimate == (
            abs(alone[1].value - alone[0].value)
            + max(res.abs_error_estimate for res in alone))

    @pytest.mark.parametrize("accel, radius, dz", [
        (5.0, 0.02, 0.1),      # mirror
        (0.1, 10.0, None),     # free space
        (0.0, 1.0, 0.5),       # static
    ])
    def test_response_rungs_equal_batches_of_one(self, accel, radius, dz):
        from udwmi import response

        spec = detector_from_accel_radius(0.1, accel, radius)
        args, contours = response_args(spec, dz)
        est = response.transition_probability_oracle_result(spec, dz, 1e-6)
        alone = [_oracle_pass(*args, eta, n_u, 2.5e-7)
                 for eta, n_u in contours]
        assert est.samples == tuple((eta, complex(res.value)) for (eta, _), res
                                    in zip(contours, alone, strict=True))
        assert est.evaluations == sum(res.evaluations for res in alone)
        assert est.value == alone[1].value.real


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
