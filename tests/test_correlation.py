import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from udwmi import (
    DomainError,
    PairConfig,
    correlation_equal,
    correlation_general_result,
    detector_from_accel_radius,
)
from udwmi.correlation import (_U_CUT, _contours, _kernel_terms,
                               _line_batch, _line_params, _line_pole,
                               _oracle_batch, _oracle_passes, _oracle_rows,
                               _pair_oracle_key, _reduced_line_integral,
                               _reduced_line_integrals, _wightman_kernel)

import long_double

# Frozen expected values come from an independent mpmath implementation of
# the reduced single-integral form (50 significant digits; dps-30 and
# dps-50 runs agree to 25+ digits).


def pair(accel, radius, sep, dz=None, gap_a=0.1, gap_b=0.1):
    da = detector_from_accel_radius(gap_a, accel, radius)
    db = detector_from_accel_radius(gap_b, accel, radius)
    return PairConfig(det_a=da, det_b=db, sep=sep, dz=dz)


def kernel_of(det_a, det_b, z_a, z_b, mirror):
    """The oracle's kernel between det_a at height z_a and det_b at z_b
    on one orbit, as a function of a 1-D array of c: the block of rows
    _wightman_kernel makes of them, from the terms _kernel_terms gives
    their pass."""
    terms = _kernel_terms([(det_a, det_b, z_a, z_b, mirror)])

    def kernel(c):
        c = np.asarray(c, dtype=complex)
        assert c.ndim == 1
        return _wightman_kernel(np.broadcast_to(terms, (terms.shape[0],
                                                        c.size)), c)

    return kernel


def pass_rows(*oracle_pass):
    """The rows, as a function of s, of one pass (det_a, det_b, z_a,
    z_b, mirror, eta): _oracle_rows of that pass alone."""
    rows = _oracle_rows([oracle_pass])
    return lambda s: rows(s[None, :], np.zeros(1, dtype=int))[0]


def one_pass(*oracle_pass, tol):
    """The integral of one pass alone: its batch of one of
    _oracle_passes."""
    (res,) = _oracle_passes([oracle_pass], tol)
    return res


class TestWightman:
    # W on the oracle's kernel, at the complex proper times tau_A = u + c
    # and tau_B = u - c where the oracle evaluates it, on one orbit at
    # heights 0.3 and 1.1
    DET = detector_from_accel_radius(0.1, 2.0, 0.5)
    C = np.array([0.45 - 0.2j, -0.3 + 0.1j])

    def kernel(self, z_a, z_b, mirror):
        return kernel_of(self.DET, self.DET, z_a, z_b, mirror)

    def test_free_hermiticity(self):
        # W(x_A, x_B) = conj(W(x_B*, x_A*)), x* the event at the conjugate
        # proper time: K_AB(c) = conj(K_BA(-conj(c))), K_BA the kernel with
        # the heights swapped; the mirror's term too
        for mirror in (False, True):
            w_ab = self.kernel(0.3, 1.1, mirror)(self.C)
            w_ba = self.kernel(1.1, 0.3, mirror)(-self.C.conjugate())
            assert np.allclose(w_ab, np.conj(w_ba), rtol=1e-12, atol=0.0)
            assert np.all(abs(w_ab.imag) > 1e-3 * abs(w_ab))

    def test_boundary_is_free_minus_image(self):
        # the image term is the free kernel with B reflected to -z_B
        expected = (self.kernel(0.3, 1.1, False)(self.C)
                    - self.kernel(0.3, -1.1, False)(self.C))
        assert np.allclose(self.kernel(0.3, 1.1, True)(self.C), expected,
                           rtol=1e-12, atol=0.0)

    def test_vanishes_on_the_mirror(self):
        # Dirichlet condition: put detector B on the plane
        assert not self.kernel(0.3, 0.0, True)(self.C).any()

    def test_equal_orbits_are_constant_along_u(self):
        # on one orbit the interval depends on c alone, so the kernel,
        # which takes no u, is W from the definition at every u, within
        # TestWightmanKernel's bound, with and without the mirror: on a
        # moving orbit, and for static detectors of unequal radii, which
        # share one orbit too
        u = np.linspace(-_U_CUT, _U_CUT, 7)
        static = (detector_from_accel_radius(0.1, 0.0, 1.0),
                  detector_from_accel_radius(0.3, 0.0, 0.4))
        for det_a, det_b in ((self.DET, self.DET), static):
            for mirror in (False, True):
                got = kernel_of(det_a, det_b, 0.3, 1.1, mirror)(self.C)
                assert np.all(np.isfinite(got)) and np.all(got != 0.0)
                assert np.all(kernel_errors(det_a, det_b, 0.3, 1.1, mirror,
                                            u, self.C) <= 1.0)


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


def planned_line_keys(pairs, tol=1e-8):
    """The distinct line keys of pair points, in the order the one plan
    of the engine (infomeasure._Plan) first uses them."""
    from udwmi.infomeasure import _Plan

    plan = _Plan(tol)
    for p in pairs:
        plan.point(p)
    return list(plan.lines)


def line_bits(res):
    """Every field of a batch member's result, floats as exact hex; an
    exception as its type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations,
            res.converged, res.pole.hex(), float(res.residues).hex(),
            res.far_pole)


def core_bits(lines, i):
    """Key i's entry of every array field of the line core's _Lines, in
    line_bits' form: its failure when it has one."""
    if i in lines.failures:
        return line_bits(lines.failures[i])
    value, err, evaluations, converged, pole, residues, far = (
        column[i].item() for column in lines[:7])
    return (value.hex(), err.hex(), evaluations, converged, pole.hex(),
            residues.hex(), far)


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
        # every array field of the core, failures by index included,
        # equals the LineIntegral edge and the core's batch of one
        lines = _line_batch(keys)
        assert all(column.shape == (len(keys),) for column in lines[:7])
        assert [core_bits(lines, i) for i in range(len(keys))] == \
            [line_bits(r) for r in batch] == \
            [core_bits(_line_batch([k]), 0) for k in keys]
        assert set(lines.failures) == {
            i for i, r in enumerate(batch) if isinstance(r, Exception)}
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
        lowering = correlation._pv_part

        def counted(g, pole, lo, hi, tol, initial_panels, g_pole):
            calls.append(len(pole))
            return lowering(g, pole, lo, hi, tol, initial_panels, g_pole)

        monkeypatch.setattr(correlation, "_pv_part", counted)
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

        det = detector_from_accel_radius(0.1, 3.7, 0.02)
        pairs = [PairConfig(det, det, sep, 5.0)
                 for sep in np.linspace(0.1, 8.0, 400)]
        keys = planned_line_keys(pairs)
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
        lowering = correlation._pv_part

        def counted(g, pole, lo, hi, tol, sized_panels, g_pole):
            def g_counted(s, j):
                calls.append(s.size)
                return g(s, j)

            return lowering(g_counted, pole, lo, hi, tol,
                            sized_panels if initial_panels is None
                            else np.full(pole.size, float(initial_panels)),
                            g_pole)

        with monkeypatch.context() as m:
            m.setattr(correlation, "_pv_part", counted)
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
            keys = planned_line_keys([p])
            sized += self.line_work(monkeypatch, keys)[0]
            fixed += self.line_work(monkeypatch, keys, 8)[0]
        assert sized <= fixed

    def test_sized_start_evaluates_less_on_an_onset_curve(self, monkeypatch):
        # the 721 line keys of the 240-point criterion-7 curve (a = 3.7,
        # R = 0.02, dz = 5), one batch as a sweep runs it
        det = detector_from_accel_radius(0.1, 3.7, 0.02)
        keys = planned_line_keys([PairConfig(det, det, sep, 5.0)
                                  for sep in np.linspace(0.1, 8.0, 240)])
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

# the spread check's message: both causes, which it cannot tell apart
SPREAD_CAUSES = ("a zero of the interval lies between the contours, or a "
                 "pass did not resolve its integrand")


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
        # one pass per contour, eta_1 and eta_2, and the value is the
        # second
        from udwmi import correlation

        calls = []
        rows_of = correlation._oracle_rows

        def counted(passes):
            calls.extend(p[5] for p in passes)
            return rows_of(passes)

        monkeypatch.setattr(correlation, "_oracle_rows", counted)
        cfg = pair(1.0, 1.0, sep=1.0)
        est = correlation_general_result(cfg, tol=1e-6)
        eta_1, eta_2 = calls
        assert (eta_1, eta_2) == _contours(cfg.det_a, cfg.det_b)
        assert eta_2 == 2.0 * eta_1
        assert [eta for eta, _ in est.samples] == [eta_1, eta_2]
        assert est.value == est.samples[1][1]

    def test_evaluations_count_every_pass(self, monkeypatch):
        # both passes are members of the one quadrature batch
        from udwmi import correlation

        counts = []
        batch = correlation.integrate_adaptive_batch

        def counted(*args, **kwargs):
            results = batch(*args, **kwargs)
            counts.extend(res.evaluations for res in results)
            return results

        monkeypatch.setattr(correlation, "integrate_adaptive_batch", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        assert len(counts) == 2
        assert est.evaluations == sum(counts)

    def test_unequal_gamma_pair(self):
        # the oracle judges pairs on one orbit only, as the engine does:
        # a pair on two orbits raises DomainError, with and without the
        # mirror, whether gamma differs (different radii at one
        # acceleration), omega gamma alone (one speed on two radii), or
        # one detector is static
        one_speed = (detector_from_accel_radius(0.1, 5.0, 0.02),
                     detector_from_accel_radius(0.1, 2.5, 0.04))
        assert one_speed[0].gamma == one_speed[1].gamma
        for da, db in ((detector_from_accel_radius(0.1, 5.0, 0.02),
                        detector_from_accel_radius(0.1, 5.0, 0.03)),
                       one_speed,
                       (detector_from_accel_radius(0.2, 0.0, 1.0),
                        detector_from_accel_radius(0.4, 1.0, 1.0))):
            for dz in (0.1, None):
                cfg = PairConfig(det_a=da, det_b=db, sep=1.0, dz=dz)
                assert not cfg.equal_kinematics
                with pytest.raises(DomainError, match="one orbit"):
                    correlation_general_result(cfg, tol=1e-5)

    def test_accelerations_a_hair_apart_are_two_orbits(self):
        # equal kinematics is exact: the reduced path would evaluate
        # det_a's orbit for both detectors, and the oracle takes one
        # orbit to the bit, so a pair 1e-13 apart in accel is refused by
        # both
        from udwmi.infomeasure import mutual_information_point

        da = detector_from_accel_radius(0.1, 5.0, 0.02)
        db = detector_from_accel_radius(0.1, 5.0 * (1.0 + 1e-13), 0.02)
        assert da.accel != db.accel
        cfg = PairConfig(det_a=da, det_b=db, sep=1.0, dz=0.1)
        assert not cfg.equal_kinematics
        with pytest.raises(DomainError, match="same orbit"):
            mutual_information_point(cfg)
        with pytest.raises(DomainError, match="one orbit"):
            correlation_general_result(cfg, tol=1e-5)

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
        with pytest.raises(RuntimeError, match="differ by 1.4") as info:
            response.transition_probability_oracle_result(spec, 0.1)
        # the check cannot tell its two causes apart, so it names both
        assert SPREAD_CAUSES in str(info.value)


def bits(res):
    return (complex(res.value).real.hex(), complex(res.value).imag.hex(),
            res.abs_error_estimate.hex(), res.evaluations)


def oracle_args(det_a, det_b, z_a, z_b, mirror):
    """The entries of an oracle pass before its contour, and the two
    contours _oracle_batch gives the detectors."""
    return (det_a, det_b, z_a, z_b, mirror), _contours(det_a, det_b)


def pair_args(cfg):
    z_a = cfg.dz if cfg.dz is not None else 0.0
    return oracle_args(cfg.det_a, cfg.det_b, z_a, z_a + cfg.sep,
                       cfg.dz is not None)


def response_args(spec, dz):
    # the response is the correlation of a detector with itself
    z = dz if dz is not None else 0.0
    return oracle_args(spec, spec, z, z, dz is not None)


# static detectors of unequal radii with the mirror: one orbit, so the
# oracle takes them, though the engine does not
STATIC_RADII = PairConfig(det_a=detector_from_accel_radius(0.2, 0.0, 1.0),
                          det_b=detector_from_accel_radius(0.4, 0.0, 0.5),
                          sep=0.8, dz=0.3)
# a pair on two orbits, which the oracle refuses
TWO_ORBITS = PairConfig(det_a=detector_from_accel_radius(0.1, 2.0, 0.5),
                        det_b=detector_from_accel_radius(0.3, 1.0, 1.5),
                        sep=0.8, dz=0.3)


def estimate_bits(est):
    """An OracleEstimate, or the exception it failed with, with every
    float as its exact hex form."""
    if isinstance(est, Exception):
        return repr(est)
    return (bits_of(est.value), est.error_estimate.hex(),
            [(eta.hex(), bits_of(v)) for eta, v in est.samples],
            est.evaluations)


def bits_of(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# oracle keys (det_a, det_b, z_a, z_b, mirror, tol) of every kind:
# correlations and responses, the mirror and free space, static
# detectors, of one radius and of two, and unequal gaps
MIXED_KEYS = [
    _pair_oracle_key(pair(1.0, 1.0, sep=1.0), 1e-5),
    _pair_oracle_key(STATIC_RADII, 1e-5),
    (*response_args(detector_from_accel_radius(0.3, 0.1, 1.0), 0.5)[0],
     2.5e-7),
    _pair_oracle_key(pair(5.0, 0.02, sep=1.0, dz=0.1, gap_b=1.1), 1e-7),
    (*response_args(detector_from_accel_radius(0.1, 0.0, 1.0), None)[0],
     2.5e-7),
    _pair_oracle_key(pair(2.0, 0.5, sep=0.5, gap_a=0.3, gap_b=0.1), 1e-6),
]


class TestOracleBatch:
    # every pass of every key is a member of one quadrature batch; each
    # key's estimate equals its batch of one bit for bit
    def test_members_equal_batches_of_one(self):
        together = _oracle_batch(MIXED_KEYS)
        alone = [_oracle_batch([key])[0] for key in MIXED_KEYS]
        assert ([estimate_bits(est) for est in together]
                == [estimate_bits(est) for est in alone])
        assert not any(isinstance(est, Exception) for est in together)
        # in reverse order too, which puts the members in other runs
        backwards = _oracle_batch(MIXED_KEYS[::-1])[::-1]
        assert ([estimate_bits(est) for est in backwards]
                == [estimate_bits(est) for est in alone])

    def test_a_failing_key_fails_alone(self, monkeypatch):
        # a second contour beyond the tube of a gamma = 20 orbit: that
        # key's passes disagree, and it fails with its RuntimeError
        # while the other keys of its batch keep their estimates
        from udwmi import correlation

        fast = detector_from_accel_radius(0.1, 40.0, 10.0)
        eta_1, _ = _contours(fast, fast)
        keys = [MIXED_KEYS[2], (fast, fast, 0.1, 0.1, True, 2.5e-7),
                MIXED_KEYS[4]]
        contours = correlation._contours
        monkeypatch.setattr(
            correlation, "_contours", lambda a, b: (
                (eta_1, 0.2) if a is fast else contours(a, b)))
        ests = _oracle_batch(keys)
        assert isinstance(ests[1], RuntimeError)
        assert "differ by 1.4" in str(ests[1])
        assert SPREAD_CAUSES in str(ests[1])
        assert ([estimate_bits(ests[i]) for i in (0, 2)]
                == [estimate_bits(_oracle_batch([keys[i]])[0])
                    for i in (0, 2)])

    def test_a_key_on_two_orbits_fails_alone(self):
        # a key on two orbits gets its DomainError, and every other key
        # of its batch keeps its bits; a batch of such keys alone runs
        # no pass
        keys = [*MIXED_KEYS[:2], _pair_oracle_key(TWO_ORBITS, 1e-5),
                *MIXED_KEYS[2:]]
        ests = _oracle_batch(keys)
        assert isinstance(ests[2], DomainError)
        assert "one orbit" in str(ests[2])
        del ests[2]
        assert ([estimate_bits(est) for est in ests]
                == [estimate_bits(_oracle_batch([key])[0])
                    for key in MIXED_KEYS])
        alone = _oracle_batch([keys[2], keys[2]])
        assert [type(est) for est in alone] == [DomainError, DomainError]


class TestOracleRowBlocks:
    # the oracle integrand evaluates its abscissae in blocks of at most
    # correlation._BLOCK rows; every row is made alone, so the block
    # size cannot change an estimate
    def test_one_row_blocks_equal_default_blocks(self, monkeypatch):
        from udwmi import correlation

        def estimates():
            return [estimate_bits(est) for est in _oracle_batch(MIXED_KEYS[:3])]

        default = estimates()
        monkeypatch.setattr(correlation, "_BLOCK", 1)
        assert estimates() == default

    def test_one_row_equals_its_row_among_many(self):
        # a block of one row is an array of one element; it must round
        # as the same row in a longer array does, with the mirror's
        # product too, and among the rows of other passes
        spec = detector_from_accel_radius(0.1, 1.0, 1.0)
        rng = np.random.default_rng(5)
        s = rng.uniform(0.0, 2.0 * _U_CUT, 200)
        passes = []
        for dz in (0.3, None):
            args, contours = response_args(spec, dz)
            passes += [(*args, eta) for eta in contours]
            for eta in contours:
                rows = pass_rows(*args, eta)
                together = rows(s)
                alone = np.concatenate([rows(s[i:i + 1])
                                        for i in range(s.size)])
                assert np.array_equal(alone, together)
        for cfg in (STATIC_RADII, pair(5.0, 0.02, sep=1.0, dz=0.1,
                                       gap_b=1.1)):
            args, contours = pair_args(cfg)
            passes += [(*args, eta) for eta in contours]
        member = rng.integers(0, len(passes), s.size)
        mixed = _oracle_rows(passes)(s[:, None], member)[:, 0]
        for i, oracle_pass in enumerate(passes):
            mine = member == i
            assert np.array_equal(mixed[mine], pass_rows(*oracle_pass)(s[mine]))

    def test_pass_memory_is_bounded(self):
        # the row blocks bound a round's temporaries whatever its panel
        # count: a batch of the 39 oracles of the bundled oracle_grid
        # (78 passes) peaks at 0.70 MiB, most of it the first round of
        # its quadrature's runs of up to 1024 panels, and one of two
        # pairs with the mirror, a fast orbit and static detectors of
        # unequal radii, at 0.20 MiB (see correlation._BLOCK)
        import tracemalloc

        from udwmi.response import _response_oracle_key
        from udwmi.sweep import _pair_from_params, load_grid

        grid = load_grid("oracle_grid")
        keys = [_response_oracle_key(detector_from_accel_radius(
                    p["gap"], p["accel"], p["radius"]), p.get("dz"), 1e-6)
                for p in grid["response_points"]]
        keys += [_pair_oracle_key(_pair_from_params(p), 1e-7)
                 for p in grid["correlation_points"]]
        for batch in (keys, [_pair_oracle_key(pair(5.0, 0.02, sep=1.0,
                                                   dz=0.1), 1e-7),
                             _pair_oracle_key(STATIC_RADII, 1e-7)]):
            tracemalloc.start()
            try:
                _oracle_batch(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20


class TestEqualOrbitRows:
    # on one orbit the kernel does not depend on u, so _oracle_rows
    # takes the u integral in closed form, and the row at -s is the
    # conjugate of the row at s, so it folds them into one row on s >=
    # 0. That is the full double integral's row at s plus the one at
    # -s, the definition's kernel at every node of a u grid
    # (long_double.oracle_rows, in long double). The grid is the
    # trapezoid rule of step 0.1 on [-_U_CUT, _U_CUT], whose error on
    # the Gaussian weight is below e^{-42} and its long-double roundoff,
    # about 1e-17 of the row at these gaps, where 96 float64
    # Gauss-Legendre nodes err by 1.3e-16 (equal gaps) to 2.7e-14 (gaps
    # 3.9 apart). The bound, 1e-14 of the largest row, is then the
    # float64 row's own: 3 ulps of the closed form and the kernel's
    # roundoff, which TestOracleRowPrecision measures at up to 3.6e-15
    # of the largest row (worst seen here 3.2e-15).
    @long_double.needs_long_double
    @pytest.mark.parametrize("accel, radius, gap_b, dz, sep", [
        (1.0, 1.0, 0.1, None, 0.5),  # free space
        (5.0, 0.02, 0.1, 0.1, 1.0),  # the mirror
        (0.3, 2.0, 2.5, 0.4, 0.7),  # unequal gaps, the mirror
        (2.0, 0.5, 0.02, None, 1.5),  # unequal gaps, free space
    ])
    def test_one_node_is_the_full_grid_reduction(self, accel, radius, gap_b,
                                                  dz, sep):
        da = detector_from_accel_radius(0.1, accel, radius)
        db = detector_from_accel_radius(gap_b, accel, radius)
        z_a = dz if dz is not None else 0.0
        args, contours = oracle_args(da, db, z_a, z_a + sep, dz is not None)
        s = np.linspace(0.0, 2.0 * _U_CUT, 257)
        for eta in contours:
            got = pass_rows(*args, eta)(s)
            exact = (long_double.oracle_rows(*args, eta, s)
                     + long_double.oracle_rows(*args, eta, -s))
            assert long_double.worst_error(got, exact) <= 1e-14


ORBITS = st.builds(
    lambda accel, radius: detector_from_accel_radius(0.1, accel, radius),
    st.one_of(st.just(0.0), st.floats(0.0, 100.0)), st.floats(0.01, 30.0))


def kernel_errors(det_a, det_b, z_a, z_b, mirror, u, c):
    """The kernel's error at each c of a 1-D array against W from the
    definition (long_double.wightman) at tau_A = u + c and tau_B = u -
    c, for every u of a 1-D array, over the bound TestWightmanKernel
    states: a (c, u) array whose entries are at most 1 where the kernel
    keeps the bound."""
    got = kernel_of(det_a, det_b, z_a, z_b, mirror)(c)[:, None]
    c = c[:, None]
    events = (det_a, z_a, u + c, det_b, z_b, u - c)
    want = long_double.wightman(*events, mirror)
    direct = long_double.wightman(*events, False)
    image = direct - want
    assert want.shape == (c.size, u.size)
    span = abs(u) + abs(c)
    radii = sum(det.radius * np.cosh(det.omega * det.gamma * c.imag)
                for det in (det_a, det_b))
    k = max(det_a.omega * det_a.gamma, det_b.omega * det_b.gamma)
    q_err = np.finfo(float).eps * (
        ((det_a.gamma + det_b.gamma) * span) ** 2
        + radii ** 2 * (1.0 + k * span) + (z_a + z_b) ** 2)
    bound = 8.0 * (4.0 * math.pi ** 2 * (abs(direct) ** 2
                                         + abs(image) ** 2) * q_err
                   + np.finfo(float).eps * (abs(direct) + abs(image)))
    return np.asarray(abs(got - want) / bound, dtype=float)


class TestWightmanKernel:
    # the oracle's kernel takes W from the squared interval by the law
    # of cosines; pointwise it is W from the definition
    # (long_double.wightman, in long double from the events of
    # long_double.events) at tau_A = u + c and tau_B = u - c, c = (s -
    # i eta)/2, whatever u. The kernel rounds the interval q to a few
    # ulps of gamma^2 (|u| + |c|)^2 + R^2 (1 + omega gamma (|u| + |c|)),
    # R^2 with the contour's cosh, which W takes on with its derivative
    # 4 pi^2 W^2 in each of its terms. The examples are where the
    # sines of half the phase difference are weakest: near-coincident
    # events on a fast, small orbit, a static detector, and a fast orbit
    # at the ends of the u range (worst errors 0.009, 0.011 and 0.010
    # of the bound)
    @seed(2033)
    @settings(max_examples=200, deadline=None)
    @example(det=detector_from_accel_radius(0.1, 100.0, 0.01),
             mirror=False, z_a=0.5, sep=0.0, rung=1,
             u=[-_U_CUT, -1.0, 0.0, 3.0, _U_CUT], s=[1e-4, -1e-4, 3e-5, 0.0])
    @example(det=detector_from_accel_radius(0.1, 0.0, 0.5), mirror=True,
             z_a=1.0, sep=0.5, rung=1, u=[-_U_CUT, -2.0, 0.7, _U_CUT],
             s=[-2.0 * _U_CUT, -2.0, 0.3, 2.0 * _U_CUT])
    @example(det=detector_from_accel_radius(0.1, 30.0, 1.0), mirror=False,
             z_a=1.0, sep=1.0, rung=1, u=[-_U_CUT, _U_CUT],
             s=[-2.0 * _U_CUT, -1.0, 0.5, 4.0, 2.0 * _U_CUT])
    @given(det=ORBITS, mirror=st.booleans(), z_a=st.floats(0.01, 5.0),
           sep=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           rung=st.sampled_from([0, 1]),
           u=st.lists(st.floats(-_U_CUT, _U_CUT), min_size=1, max_size=8),
           s=st.lists(st.floats(-2.0 * _U_CUT, 2.0 * _U_CUT), min_size=1,
                      max_size=4))
    def test_kernel_is_the_definition(self, det, mirror, z_a, sep, rung, u,
                                      s):
        # one orbit, the response's among them
        if not mirror:
            z_a = 0.0  # the oracle's free space
        eta = _contours(det, det)[rung]
        c = 0.5 * (np.array(s) - 1j * eta)
        assert np.all(kernel_errors(det, det, z_a, z_a + sep, mirror,
                                    np.array(u), c) <= 1.0)


@long_double.needs_long_double
class TestOracleRowPrecision:
    # a pass's folded rows against the defining formula in long double,
    # the row at s plus the row at -s, on a fixed grid of 513 s in
    # [0, 2 _U_CUT], both contours, near the mirror: the worst row error
    # is 3.6e-15 of the largest row at a = 1, R = 10 and 1.5e-16 at
    # a = 0.1, R = 1 (3.6e-15 and 3.1e-16 on 2049 s)
    @pytest.mark.parametrize("accel, radius", [(0.1, 1.0), (1.0, 10.0)])
    def test_rows_match_long_double(self, accel, radius):
        spec = detector_from_accel_radius(0.1, accel, radius)
        args, contours = response_args(spec, 0.1)
        s = np.linspace(0.0, 2.0 * _U_CUT, 513)
        for eta in contours:
            got = pass_rows(*args, eta)(s)
            exact = (long_double.oracle_rows(*args, eta, s)
                     + long_double.oracle_rows(*args, eta, -s))
            assert long_double.worst_error(got, exact) <= 1e-12


class TestRungBatch:
    # each of the oracle's two contours, the rungs of its eta ladder, is
    # a pass, a member of a batch of integrate_adaptive_batch that
    # equals the pass alone; the estimate takes its passes' values and
    # counts as they stand
    @pytest.mark.parametrize("cfg", [
        pair(5.0, 0.02, sep=1.0, dz=0.1),      # mirror
        pair(1.0, 1.0, sep=1.0),               # free space
        pair(0.0, 1.0, sep=2.0, dz=0.5),       # static
    ])
    def test_correlation_rungs_equal_batches_of_one(self, cfg):
        args, contours = pair_args(cfg)
        est = correlation_general_result(cfg, tol=1e-7)
        alone = [one_pass(*args, eta, tol=1e-7) for eta in contours]
        assert est.samples == tuple((eta, complex(res.value)) for eta, res
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
        alone = [one_pass(*args, eta, tol=2.5e-7) for eta in contours]
        assert est.samples == tuple((eta, complex(res.value)) for eta, res
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
