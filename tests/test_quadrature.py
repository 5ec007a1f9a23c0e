import numpy as np
import pytest
from scipy.integrate import quad

from udwmi import (
    DomainError,
    epsilon_extrapolate,
    find_root_bracketed,
    integrate_adaptive,
    principal_value_integral,
)
from udwmi.correlation import _reduced_line_integral
from udwmi.quadrature import gaussian_truncation_point, integrate_semiinfinite_gaussian

# Expected values below were computed independently with mpmath at 50
# significant digits and frozen here.


class TestAdaptive:
    def test_half_gaussian(self):
        r = integrate_adaptive(lambda x: np.exp(-x * x), 0.0, 30.0, tol=1e-12)
        assert np.isclose(r.value, 0.88622692545275801, rtol=1e-12)
        assert r.converged
        assert r.abs_error_estimate < 1e-12

    def test_oscillatory_gaussian(self):
        # int_0^20 exp(-x^2/4) cos(3x) dx = sqrt(pi) e^-9 up to an e^-100 tail
        r = integrate_adaptive(
            lambda x: np.exp(-x * x / 4) * np.cos(3 * x), 0.0, 20.0, tol=1e-12
        )
        assert np.isclose(r.value, 2.1873818249293046e-4, rtol=1e-9)
        assert r.converged

    def test_roundoff_floor_reported_honestly(self):
        # the true value sqrt(pi) e^-49 ~ 9.3e-22 sits far below float64
        # cancellation noise; the estimate must admit that instead of
        # claiming convergence to the impossible tolerance
        r = integrate_adaptive(
            lambda x: np.exp(-x * x / 4) * np.cos(7 * x), 0.0, 20.0, tol=1e-24
        )
        assert abs(r.value) < 5e-16
        assert not r.converged
        assert r.abs_error_estimate > abs(r.value - 9.2927728838858926e-22)

    def test_error_estimate_brackets_true_error(self):
        for tol in (1e-6, 1e-10):
            r = integrate_adaptive(
                lambda x: np.cos(5 * x) / (1 + x * x), 0.0, 10.0, tol=tol
            )
            truth = 0.0099902696378666828  # mpmath, dps 40
            assert abs(r.value - truth) <= max(r.abs_error_estimate, 1e-14)
            assert r.converged

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_adaptive(np.sin, 2.0, 2.0, tol=1e-10)

    def test_complex_integrand(self):
        r = integrate_adaptive(
            lambda x: np.exp(-x * x + 1j * x), -10.0, 10.0, tol=1e-12
        )
        # sqrt(pi) e^{-1/4}
        assert np.isclose(r.value, 1.380388447043143, rtol=1e-11)
        assert abs(r.value.imag) < 1e-12


class TestSemiInfinite:
    def test_matches_finite_truncation(self):
        r = integrate_semiinfinite_gaussian(
            lambda x: np.exp(-0.25 * x * x), alpha=0.25, tol=1e-12
        )
        # sqrt(pi/4/0.25)/2 = sqrt(pi)
        assert np.isclose(r.value, np.sqrt(np.pi) / 2 * 2.0, rtol=1e-11)

    def test_truncation_point_tail_bound(self):
        x = gaussian_truncation_point(alpha=0.004, tol=1e-10)
        # discarded Gaussian mass beyond x is below tol
        assert np.exp(-0.004 * x * x) < 1e-10
        assert x < 400.0


class TestPrincipalValue:
    def test_gaussian_over_simple_pole(self):
        # PV int_0^8 exp(-x^2)/(x-1) dx; the [8, inf) tail is < 1e-28
        r = principal_value_integral(lambda x: np.exp(-x * x), 1.0, 0.0, 8.0, 1e-12)
        assert np.isclose(r.value, -1.3023085357384106505, rtol=1e-10)
        assert r.converged

    def test_pole_exactly_on_scan_node(self):
        # the pole sits on a node of the uniform initial panel grid over
        # [0, 8]; splitting at the pole keeps every quadrature node off it
        r = principal_value_integral(lambda x: np.exp(-x * x), 2.0, 0.0, 8.0, 1e-10)
        # PV int exp(-x^2)/(x-2): mpmath dps 40
        assert np.isclose(r.value, -0.71388793671315133, rtol=1e-9)

    def test_antisymmetric_cancellation(self):
        # constant numerator over an odd denominator about the pole
        r = principal_value_integral(lambda x: np.ones_like(x), 1.0, 0.0, 2.0, 1e-12)
        assert abs(r.value) < 1e-12

    def test_pole_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            principal_value_integral(lambda x: np.exp(-x * x), 5.0, 0.0, 2.0, 1e-10)

    @pytest.mark.parametrize(
        "g,pole,lo,hi",
        [
            (lambda x: np.exp(-x * x), 0.7, -3.0, 6.0),
            (lambda x: np.cos(3.0 * x) / (1.0 + x * x), 2.5, 0.0, 10.0),
            (lambda x: np.exp(0.5 * x) * np.sin(x), 0.1, -2.0, 4.0),
            (lambda x: np.log1p(x * x) * np.exp(-x), 4.9, 0.0, 5.0),
        ],
        ids=["gaussian", "damped-cosine", "growing-sine", "pole-near-edge"],
    )
    def test_matches_qawc(self, g, pole, lo, hi):
        # QUADPACK's QAWC (Clenshaw-Curtis with modified Chebyshev moments)
        # computes the same principal value by an unrelated method
        r = principal_value_integral(g, pole, lo, hi, 1e-13)
        ref = quad(g, lo, hi, weight="cauchy", wvar=pole,
                   epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert r.converged
        assert abs(r.value - ref) < 1e-13


class TestLinePoleIntegral:
    # Reference case: numerator exp(-s^2/4 + 0.1 i s), denominator
    # D = 4 - s^2 (L_eff = 2 with a vanishing orbit radius, gamma = 1,
    # k = 0.1), poles at -2 and +2 pushed to opposite half-planes.
    # Distributional value frozen from two independent mpmath routes
    # (symmetric-pair PV with the cancellation rewritten analytically, and
    # a finite-epsilon ladder extrapolated to zero) agreeing to 19 digits.
    @staticmethod
    def folded(s):
        return 2.0 * np.exp(-s * s / 4) * np.cos(0.1 * s)

    def test_frozen_value(self):
        r = _reduced_line_integral(2.0, 0.0, 1.0, 1.0, 0.1, 30.0, 1e-12)
        assert isinstance(r.value, float)
        assert np.isclose(r.value, 0.8375424721778521, rtol=1e-10)
        assert r.converged

    def test_residue_share(self):
        # folded onto s >= 0 the PV part is PV int 2 e^{-s^2/4} cos(0.1 s)
        # / ((s - 2)(-(s + 2))); the rest is the half-residue pair
        # i pi (num(2) - num(-2)) / |D'(2)| = -2 pi e^{-1} sin(0.2) / 4
        pv = principal_value_integral(lambda s: self.folded(s) / -(s + 2.0),
                                      2.0, 0.0, 30.0, 1e-12)
        assert np.isclose(pv.value, 0.9523462617601081, rtol=1e-9)
        full = _reduced_line_integral(2.0, 0.0, 1.0, 1.0, 0.1, 30.0, 1e-12)
        resid = full.value - pv.value
        assert np.isclose(resid, -2.0 * np.pi * np.exp(-1.0) * np.sin(0.2) / 4.0,
                          rtol=1e-9)
        assert np.isclose(resid, -0.11480378958225603, rtol=1e-9)

    def test_no_poles_reduces_to_regular_integral(self):
        # poles at +-40 lie far outside the envelope support [-10, 10]: the
        # folded real integral must equal the unfolded complex one there
        r = _reduced_line_integral(40.0, 0.0, 1.0, 1.0, 0.1, 10.0, 1e-12)
        plain = integrate_adaptive(
            lambda s: np.exp(-s * s / 4 + 0.1j * s) / (1600.0 - s * s),
            -10.0, 10.0, tol=1e-12,
        )
        assert np.isclose(r.value, plain.value.real, rtol=1e-10)
        assert abs(plain.value.imag) < 1e-15


class TestEpsilonExtrapolate:
    def test_linear_ladder(self):
        samples = [(e, 3.5 + 2.0 * e) for e in (1e-3, 5e-4, 2.5e-4)]
        ex = epsilon_extrapolate(samples)
        assert np.isclose(ex.value.real, 3.5, atol=1e-12)
        assert ex.monotone
        assert ex.residual < 1e-10

    def test_quadratic_ladder(self):
        samples = [(e, 1.0 - 4.0 * e + 7.0 * e * e) for e in (1e-2, 5e-3, 2.5e-3)]
        ex = epsilon_extrapolate(samples)
        assert np.isclose(ex.value.real, 1.0, atol=1e-10)

    def test_complex_values(self):
        samples = [(e, (2.0 + 1j) + (0.5 - 0.25j) * e) for e in (1e-3, 5e-4, 2.5e-4)]
        ex = epsilon_extrapolate(samples)
        assert np.isclose(ex.value, 2.0 + 1j, atol=1e-11)

    def test_residual_reflects_model_violation(self):
        # a sqrt(epsilon) term is outside the polynomial model; the
        # residual must not pretend otherwise
        samples = [(e, 1.0 + np.sqrt(e)) for e in (1e-3, 5e-4, 2.5e-4)]
        ex = epsilon_extrapolate(samples)
        assert ex.residual > abs(ex.value - 1.0) * 0.05

    def test_needs_three_samples(self):
        with pytest.raises(DomainError):
            epsilon_extrapolate([(1e-3, 1.0), (5e-4, 1.1)])


class TestRootBracketing:
    def test_cosine_root(self):
        assert np.isclose(find_root_bracketed(np.cos, 0.0, 3.0), np.pi / 2,
                          rtol=1e-12)

    def test_endpoint_root(self):
        assert find_root_bracketed(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert find_root_bracketed(lambda x: x - 5.0, 2.0, 5.0) == 5.0

    def test_no_straddle_rejected(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: 1.0 + x * x, 0.0, 1.0)
