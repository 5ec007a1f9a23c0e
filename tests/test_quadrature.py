import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from udwmi import (
    DomainError,
    integrate_adaptive,
    principal_value_integral,
)
from udwmi.correlation import _reduced_line_integral
from udwmi.quadrature import (gaussian_truncation_point, integrate_adaptive_batch,
                              principal_value_batch)

# Expected values below were computed independently with mpmath at 50
# significant digits and frozen here.


def result_bits(res):
    """Every field of a batch member's result, floats as exact hex; an
    exception as its type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations,
            res.converged)


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

    def test_batch_arguments_must_broadcast(self):
        # a scalar broadcasts over the batch; two lengths that do not
        # broadcast raise instead of reusing one member's tol for all
        def f(x, _):
            return np.exp(-x * x)

        his = np.linspace(1.0, 5.0, 5)
        one_tol = integrate_adaptive_batch(f, 0.0, his, 1e-10)
        per_tol = integrate_adaptive_batch(f, 0.0, his, np.full(5, 1e-10))
        assert one_tol == per_tol
        with pytest.raises(ValueError):
            integrate_adaptive_batch(f, 0.0, his, [1e-10, 1e-6])
        with pytest.raises(ValueError):
            principal_value_batch(f, 0.5, 0.0, his, [1e-10, 1e-6])

    def test_initial_panels_per_member_equal_batches_of_one(self):
        # members on their own initial panel counts (one at a subnormal
        # width, where linspace takes its zero-step form, one with an
        # empty interval, one that stops at the width floor while the
        # others refine, one with an infinite limit) each equal their
        # batch of one
        freq = np.array([0.5, 3.0, 20.0, 1.0, 7.0, 2.0, 1.0, 1.0])
        lo = [0.0, -1.0, 0.0, 0.0, 2.0, 0.5, 1.0, 0.0]
        hi = [5.0, 4.0, 9.0, 5e-324, 2.0, 30.0, 1.0 + 1e-13, math.inf]
        tol = [1e-10, 1e-12, 1e-8, 1e-10, 1e-10, 1e-11, 1e-40, 1e-10]
        panels = [1, 8, 37, 4, 3, 0, 8, 8]

        def f(x, owner):
            return np.cos(freq[owner] * x) * np.exp(-0.1 * x * x)

        batch = integrate_adaptive_batch(f, lo, hi, tol,
                                         initial_panels=panels)
        alone = [integrate_adaptive_batch(
            lambda x, owner, i=i: f(x, owner + i), lo[i], hi[i], tol[i],
            initial_panels=panels[i])[0] for i in range(len(lo))]
        assert [result_bits(r) for r in batch] == \
            [result_bits(r) for r in alone]
        assert isinstance(batch[4], DomainError)
        assert "limits must be finite" in str(batch[7])
        # each member started on its own panels: 15 evaluations each
        assert batch[0].evaluations % 15 == 0
        assert batch[2].evaluations >= 15 * 37
        assert batch[3].evaluations == 15 * 4
        assert batch[6].evaluations == 15 * 8 and not batch[6].converged

    def test_long_batch_runs_in_bounded_runs(self, monkeypatch):
        # members are taken in order in runs of at most _RUN_PANELS
        # initial panels (a member with more runs alone), f sees the
        # caller's owner indices, and each member equals its batch of
        # one; initial panels are capped at _MAX_INITIAL_PANELS
        from udwmi import quadrature

        assert (quadrature._RUN_PANELS, quadrature._MAX_INITIAL_PANELS) == \
            (1024, 4096)
        panels = [300, 400, 8, 300, 2000, 100, 8, 5000]
        freq = np.array([0.5, 3.0, 1.0, 20.0, 1.0, 7.0, 2.0, 4.0])
        lo = [0.0, -1.0, 1.0, 0.0, 0.0, 2.0, 0.5, 0.0]
        hi = [5.0, 4.0, 1.0, 9.0, 5.0, 3.0, 30.0, 6.0]   # member 2 is empty
        runs, seen = [], []
        lockstep = quadrature._lockstep

        def recorded_run(f, lo, hi, tol, counts, members, max_panels):
            runs.append(members.tolist())
            return lockstep(f, lo, hi, tol, counts, members, max_panels)

        def f(x, owner):
            seen.append(set(np.unique(owner).tolist()))
            return np.cos(freq[owner] * x) * np.exp(-0.1 * x * x)

        monkeypatch.setattr(quadrature, "_lockstep", recorded_run)
        batch = integrate_adaptive_batch(f, lo, hi, 1e-10,
                                         initial_panels=panels)
        assert runs == [[0, 1, 3], [4], [5, 6], [7]]
        assert all(any(owners <= set(run) for run in runs)
                   for owners in seen)
        assert set().union(*seen) == {0, 1, 3, 4, 5, 6, 7}
        assert isinstance(batch[2], DomainError)
        assert batch[7].evaluations >= 15 * 4096

        alone = [integrate_adaptive_batch(
            lambda x, owner, i=i: f(x, owner + i), lo[i], hi[i], 1e-10,
            initial_panels=panels[i])[0] for i in range(len(lo))]
        assert [result_bits(r) for r in batch] == \
            [result_bits(r) for r in alone]
        capped = integrate_adaptive_batch(
            lambda x, owner: f(x, owner + 7), lo[7], hi[7], 1e-10,
            initial_panels=4096)[0]
        assert result_bits(capped) == result_bits(batch[7])

    # one member: its interval (lo, width: a short one stops at the
    # width floor), starting panels, log10 tol (-40 refines to the width
    # floor or max_panels), and f = A exp(k x) + B / (1 + (s (x - c))^2)
    # + D cos(w x)
    AMPLITUDE = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    MEMBER = st.tuples(
        st.floats(-4.0, 4.0),
        st.one_of(st.floats(0.01, 8.0), st.floats(1e-14, 1e-12)),
        st.integers(1, 300),
        st.one_of(st.floats(-14.0, -3.0), st.just(-40.0)),
        AMPLITUDE, st.sampled_from([-1.5, -0.3, 0.2, 1.0, 2.0]),
        AMPLITUDE, st.floats(0.5, 60.0), st.floats(-4.0, 4.0),
        AMPLITUDE, st.floats(0.1, 8.0))

    @seed(27)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(MEMBER, min_size=1, max_size=6))
    def test_random_batches_equal_batches_of_one(self, members):
        # members whose neighbouring panels split in the same round, on
        # unequal starts, at tolerances met, missed at the width floor
        # and missed at max_panels: each equals its batch of one bit for
        # bit and lies within its estimate of the closed form
        lo, width, panels, log_tol, A, k, B, s, c, D, w = map(
            np.array, zip(*members))
        hi, tol = lo + width, 10.0 ** log_tol
        width = hi - lo  # as rounded

        def f(x, owner):
            return (A[owner] * np.exp(k[owner] * x)
                    + B[owner] / (1.0 + (s[owner] * (x - c[owner])) ** 2)
                    + D[owner] * np.cos(w[owner] * x))

        batch = integrate_adaptive_batch(f, lo, hi, tol, max_panels=2000,
                                         initial_panels=panels)
        alone = [integrate_adaptive_batch(
            lambda x, owner, i=i: f(x, owner + i), lo[i], hi[i], tol[i],
            max_panels=2000, initial_panels=panels[i])[0]
            for i in range(len(members))]
        assert [result_bits(r) for r in batch] == \
            [result_bits(r) for r in alone]
        exact = (A * np.exp(k * lo) * np.expm1(k * width) / k
                 + B * np.arctan2(s * width, 1.0 + s * s * (hi - c) * (lo - c))
                 / s
                 + 2.0 * D * np.cos(0.5 * w * (hi + lo))
                 * np.sin(0.5 * w * width) / w)
        # f and the closed form round each argument u of exp, the
        # Lorentzian and cos by about eps |u|, an error the estimate,
        # made from f's values, cannot see
        x_max = np.maximum(np.abs(lo), np.abs(hi))
        rounding = 4.0 * np.finfo(float).eps * width * (
            A * np.exp(abs(k) * x_max) * (1.0 + abs(k) * x_max)
            + B * (1.0 + s * (x_max + abs(c))) + D * (1.0 + w * x_max))
        for res, value, slack in zip(batch, exact.tolist(), rounding):
            assert abs(res.value - value) <= res.abs_error_estimate + slack

    def test_nan_panel_splits_as_above_its_share(self):
        # sin(x)/x is NaN at the middle node of the one panel on [-1, 1]:
        # a NaN error is not within its share, so the panel splits, and
        # the nodes of its halves miss 0
        with np.errstate(invalid="ignore"):
            r = integrate_adaptive(lambda x: np.sin(x) / x, -1.0, 1.0,
                                   1e-12, initial_panels=1)
        assert (r.value, r.evaluations, r.converged) == (
            1.892166140734366, 45, True)

    def test_nan_member_fails_alone(self):
        # sqrt is NaN on [-1, 0): splitting its NaN panels only doubles
        # them, so it stops after one round of splits and returns NaN,
        # not converged, as its batch of one does; the member beside it
        # is unaffected
        def f(x, owner):
            with np.errstate(invalid="ignore"):
                return np.where(owner == 0, np.sqrt(x), np.exp(-x * x))

        batch = integrate_adaptive_batch(f, -1.0, 1.0, [1e-10, 1e-10],
                                         max_panels=2000)
        alone = [integrate_adaptive_batch(
            lambda x, owner, i=i: f(x, owner + i), -1.0, 1.0, 1e-10,
            max_panels=2000)[0] for i in range(2)]
        assert [result_bits(r) for r in batch] == \
            [result_bits(r) for r in alone]
        nan, good = batch
        assert math.isnan(nan.value) and not nan.converged
        assert nan.evaluations <= 15 * 8 + 30 * 8
        assert good.converged
        assert abs(good.value - math.sqrt(math.pi) * math.erf(1.0)) <= \
            good.abs_error_estimate

    def test_complex_integrand(self):
        r = integrate_adaptive(
            lambda x: np.exp(-x * x + 1j * x), -10.0, 10.0, tol=1e-12
        )
        # sqrt(pi) e^{-1/4}
        assert np.isclose(r.value, 1.380388447043143, rtol=1e-11)
        assert abs(r.value.imag) < 1e-12


class TestSemiInfinite:
    # the callers integrate over [0, inf) up to this cutoff and bound the
    # remainder themselves (response._free_responses)
    def test_truncation_point_tail_bound(self):
        x = gaussian_truncation_point(alpha=0.004, tol=1e-10)
        # discarded Gaussian mass beyond x is below tol
        assert np.exp(-0.004 * x * x) < 1e-10
        assert x < 400.0
        with pytest.raises(DomainError, match="alpha must be positive"):
            gaussian_truncation_point(alpha=0.0, tol=1e-10)


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

    @pytest.mark.parametrize("pole", [-0.5, -3.0, 2.25, 7.0])
    def test_pole_outside_interval_matches_qawc(self, pole):
        # a pole outside [lo, hi] leaves an ordinary integral: one member
        # to the whole tol, no subtraction, no log term
        def g(x):
            return np.exp(-x * x) * np.cos(2.0 * x)

        r = principal_value_integral(g, pole, 0.0, 2.0, 1e-13)
        ref = quad(g, 0.0, 2.0, weight="cauchy", wvar=pole,
                   epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert r.converged
        assert abs(r.value - ref) < 1e-13
        plain = integrate_adaptive(lambda x: g(x) / (x - pole), 0.0, 2.0,
                                   1e-13)
        assert r == plain

    @pytest.mark.parametrize("pole", [0.0, 2.0, np.nan, np.inf],
                             ids=["on-lo", "on-hi", "nan", "inf"])
    def test_invalid_pole_fails_alone(self, pole):
        def g(x, _):
            return np.exp(-x * x)

        bad, good = principal_value_batch(g, [pole, 1.0], 0.0, 2.0, 1e-10)
        assert isinstance(bad, DomainError)
        assert "pole" in str(bad)
        assert good.converged
        with pytest.raises(DomainError, match="pole"):
            principal_value_integral(lambda x: g(x, None), pole, 0.0, 2.0,
                                     1e-10)

    def test_mixed_batch_equals_batches_of_one(self):
        self.check_mixed_batch(8)

    def test_unequal_starts_equal_batches_of_one(self):
        self.check_mixed_batch([2, 13, 1, 5, 8, 3, 40, 6])

    @staticmethod
    def check_mixed_batch(panels):
        # a complex integrand with poles inside, outside on both sides,
        # on an end, NaN, and outside an inverted interval, each member
        # started on its entry of panels (a scalar for all): each member
        # as if alone
        freq = np.array([0.5, 3.0, 1.0, 2.0, 0.7, 1.5, 4.0, 1.0])
        pole = [1.0, -0.5, 2.0, 9.0, np.nan, 0.3, 3.5, 5.0]
        lo = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0]
        hi = [4.0, 3.0, 2.0, 6.0, 3.0, 1.0, 8.0, 1.0]
        tol = [1e-12, 1e-10, 1e-10, 1e-8, 1e-10, 1e-13, 1e-9, 1e-10]
        start = np.broadcast_to(panels, len(pole))

        def g(x, owner):
            return np.exp(-0.2 * x * x + 1j * freq[owner] * x)

        def bits(res):
            if isinstance(res, Exception):
                return type(res).__name__, str(res)
            return (res.value.real.hex(), res.value.imag.hex(),
                    res.abs_error_estimate.hex(), res.evaluations,
                    res.converged)

        batch = principal_value_batch(g, pole, lo, hi, tol,
                                      initial_panels=panels)
        alone = [principal_value_batch(
            lambda x, owner, i=i: g(x, owner + i), pole[i], lo[i], hi[i],
            tol[i], initial_panels=start[i])[0] for i in range(len(pole))]
        assert [bits(r) for r in batch] == [bits(r) for r in alone]
        failed = [i for i, r in enumerate(batch) if isinstance(r, Exception)]
        assert failed == [2, 4, 7]
        # an inside pole evaluates g once at the pole on top of its two
        # sides; an outside pole is one member of whole GK15 panels
        assert batch[0].evaluations % 15 == 1
        assert batch[1].evaluations % 15 == 0

    def test_complex_g_is_its_real_and_imaginary_parts(self):
        # the principal value of a complex g, poles inside and outside
        # on both sides, against those of g.real and g.imag run
        # separately: both parts agree within the two errors, and the
        # imaginary parts are far from zero, so a dropped one shows
        freq = np.array([0.5, 3.0, 1.0, 2.0, 1.5])
        pole = [1.0, -0.5, 9.0, 0.3, 3.5]
        lo = [0.0, 0.0, 0.0, 0.0, 0.0]
        hi = [4.0, 3.0, 6.0, 1.0, 8.0]
        tol = 1e-10

        def g(x, owner):
            return np.exp(-0.2 * x * x + 1j * freq[owner] * x)

        both = principal_value_batch(g, pole, lo, hi, tol)
        parts = [principal_value_batch(lambda x, owner, part=part:
                                       part(g(x, owner)), pole, lo, hi, tol)
                 for part in (np.real, np.imag)]
        for pv, re, im in zip(both, *parts):
            assert isinstance(pv.value, complex)
            assert isinstance(re.value, float) and isinstance(im.value, float)
            assert pv.converged and re.converged and im.converged
            assert abs(pv.value.real - re.value) <= \
                pv.abs_error_estimate + re.abs_error_estimate
            assert abs(pv.value.imag - im.value) <= \
                pv.abs_error_estimate + im.abs_error_estimate
            assert abs(im.value) > 1e-3

    @pytest.mark.parametrize("n,pole,lo,hi,sides", [
        (8, 1.0, 0.0, 4.0, (2, 6)),     # shares of 2 and 6: exact
        (8, 2.0, 0.0, 3.0, (6, 3)),     # 5.33 and 2.67, each rounded up
        (5, 7.9, 0.0, 8.0, (5, 1)),     # a side keeps at least one panel
        (1, 0.5, 0.0, 1.0, (1, 1)),
    ])
    def test_start_splits_over_the_sides_by_length(self, n, pole, lo, hi,
                                                   sides):
        # a linear g: every side converges on its first mesh, so its
        # evaluations count the starting panels, plus one for g(pole)
        res = principal_value_batch(lambda x, _: 1.0 + 0.5 * x, pole, lo, hi,
                                    1e-10, initial_panels=n)[0]
        assert res.converged
        assert res.evaluations == 15 * sum(sides) + 1
        outside = principal_value_batch(lambda x, _: 1.0 + 0.5 * x, lo - 1e3,
                                        lo, hi, 1e-10, initial_panels=n)[0]
        assert outside.evaluations == 15 * n

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

