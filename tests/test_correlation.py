import numpy as np
import pytest
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
                               _reduced_line_integral)
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
        # the grid check's coarse pass is the ladder's largest-epsilon
        # sample, so it is not run again
        from udwmi import correlation

        passes = []
        single = correlation._correlation_single_epsilon

        def counted(cfg, eps, tol, n_u):
            passes.append((eps, n_u))
            return single(cfg, eps, tol, n_u)

        monkeypatch.setattr(correlation, "_correlation_single_epsilon", counted)
        est = correlation_general_result(pair(1.0, 1.0, sep=1.0), tol=1e-6)
        assert len(passes) == len(set(passes))
        # coarse, one grid refinement, then the two smaller epsilons
        assert len(passes) == 4
        assert [eps for eps, _ in est.samples] == [1e-3, 5e-4, 2.5e-4]

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


class TestEpsilonLadder:
    # the ladder both oracles share, driven by stub regulator passes
    @staticmethod
    def stub(values, errors):
        calls = []

        def single_pass(eps):
            calls.append(eps)
            i = DEFAULT_EPSILONS.index(eps)
            return QuadratureResult(values[i], errors[i], 1, True)

        return single_pass, calls

    def test_monotone_ladder_returns_the_limit(self):
        values = [1.0 + 2.0 * e + 300.0 * e * e for e in DEFAULT_EPSILONS]
        single_pass, calls = self.stub(values, [1e-9, 4e-9, 2e-9])
        est = _epsilon_ladder(single_pass, tol=1e-6, extra_error=5e-10)
        assert calls == list(DEFAULT_EPSILONS)
        assert calls == sorted(calls, reverse=True)
        ext = epsilon_extrapolate(zip(DEFAULT_EPSILONS, values))
        assert est.monotone and ext.monotone
        assert est.value == ext.value
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.error_estimate == 3.0 * ext.residual + 4e-9 + 5e-10
        assert est.samples == tuple(zip(DEFAULT_EPSILONS,
                                        map(complex, values)))

    def test_non_monotone_ladder_far_above_tol_raises(self):
        single_pass, _ = self.stub([1.0, 1.001, 0.5], [1e-9] * 3)
        assert not epsilon_extrapolate(
            zip(DEFAULT_EPSILONS, [1.0, 1.001, 0.5])).monotone
        with pytest.raises(RuntimeError, match="did not converge"):
            _epsilon_ladder(single_pass, tol=1e-6)
        # within 100 max(tol, pass error) the same ladder is reported
        est = _epsilon_ladder(single_pass, tol=1e2)
        assert not est.monotone


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
