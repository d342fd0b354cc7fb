import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatopt.quadratic import (ProbeResult, QuadraticSpec, analyze_mode,
                               characteristic_roots, classify_regime,
                               monotonicity_probe, recurrence_coeffs,
                               regime_boundaries, simulate_recurrence,
                               stability_bound)
from flatopt.rng import SplitMix64


class TestSpec:
    def test_descending_required(self):
        with pytest.raises(ValueError):
            QuadraticSpec(np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError, match="descending"):
            QuadraticSpec(np.array([1.0, 2.0]))

    def test_stationary_point(self):
        spec = QuadraticSpec(np.array([2.0, 1.0]), np.array([4.0, -3.0]))
        assert np.allclose(spec.stationary_point(), [-2.0, 3.0])
        # omitted offsets are zeros
        assert np.array_equal(QuadraticSpec(np.array([2.0, 1.0])).stationary_point(), np.zeros(2))

    def test_zero_mode_stationary_is_zero(self):
        spec = QuadraticSpec(np.array([1.0, 0.0]), np.array([1.0, 5.0]))
        assert spec.stationary_point()[1] == 0.0


class TestCoeffs:
    def test_momentum_free(self):
        t, d = recurrence_coeffs(3.0, 1.0, 0.0, 0.1)
        assert t == pytest.approx((1.0 - 0.1 * 3.0) / 2.0)
        assert d == 0.0

    def test_reference_point(self):
        t, d = recurrence_coeffs(1.0, 0.1, 1.0, 0.01)
        assert t == pytest.approx(0.94)
        assert d == pytest.approx(0.891)

    def test_curvature_free(self):
        t, d = recurrence_coeffs(0.0, 0.3, 2.0, 0.05)
        assert t == pytest.approx(1.0 - 0.15)
        assert d == pytest.approx(0.7)


class TestRoots:
    def test_underdamped_reference(self):
        roots, regime, theta = characteristic_roots(0.94, 0.891)
        assert regime == "underdamped"
        assert abs(roots[0]) == pytest.approx(math.sqrt(0.891))
        assert abs(roots[0]) == pytest.approx(0.94393, abs=1e-5)
        assert theta == pytest.approx(math.acos(0.94 / math.sqrt(0.891)))

    def test_marginal_double_root(self):
        roots, regime, theta = characteristic_roots(1.0, 1.0)
        assert regime == "critical"
        assert roots[0] == pytest.approx(1.0)
        assert roots[1] == pytest.approx(1.0)
        assert theta is None

    def test_overdamped(self):
        roots, regime, _ = characteristic_roots(0.6, 0.05)
        assert regime == "overdamped"
        assert sorted(r.real for r in roots) == pytest.approx(
            [0.6 - math.sqrt(0.31), 0.6 + math.sqrt(0.31)])

    def test_momentum_free_roots_recover_gd(self):
        # D = 0: roots {0, 2T} = {0, 1 - eta*lam}
        t, d = recurrence_coeffs(3.0, 1.0, 0.0, 0.1)
        roots, regime, _ = characteristic_roots(t, d)
        assert regime == "overdamped"
        assert sorted(r.real for r in roots) == pytest.approx([0.0, 1.0 - 0.3])

    def test_negative_d_mixed_signs(self):
        roots, regime, _ = characteristic_roots(0.1, -0.5)
        assert regime == "overdamped"
        assert roots[0].real * roots[1].real < 0.0

    @pytest.mark.parametrize("t,d", [(-math.inf, -math.inf), (0.5, math.inf),
                                     (math.nan, 0.5), (0.5, math.nan)])
    def test_non_finite_coefficients_rejected(self, t, d):
        with pytest.raises(ValueError, match="are not finite"):
            characteristic_roots(t, d)

    @pytest.mark.parametrize("t,d", [(1e200, 0.5), (-1e160, 0.5), (1e154, -1.7e308)])
    def test_overflowing_discriminant_rejected(self, t, d):
        # T and D are finite, but T*T - D is not: no root or regime to report
        with pytest.raises(ValueError, match="discriminant T\\*T - D overflows"):
            characteristic_roots(t, d)

    def test_root_identities(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            t = rng.uniform(-1.5, 1.5)
            d = rng.uniform(-1.5, 1.5)
            roots, _, _ = characteristic_roots(t, d)
            assert abs(roots[0] + roots[1] - 2.0 * t) < 1e-12 * max(1.0, abs(t))
            assert abs(roots[0] * roots[1] - d) < 1e-12 * max(1.0, abs(d))


class TestStabilityBound:
    def test_gd_reduction(self):
        assert stability_bound(1.0, 1.0, 0.0) == pytest.approx(2.0)

    def test_reference_value(self):
        assert stability_bound(10.0, 0.1, 1.0) == pytest.approx(3.8 / 29.0)
        assert stability_bound(10.0, 0.1, 1.0) == pytest.approx(0.131034, abs=1e-6)

    def test_vanishes_at_alpha_two(self):
        assert stability_bound(1.0, 2.0, 0.5) == 0.0
        assert stability_bound(1.0, 1.999, 0.5) == pytest.approx(0.0, abs=1e-2)

    @pytest.mark.parametrize("beta", [-0.5, -1.0, -1.0 / 1.5, -1e-12])
    def test_negative_beta_rejected(self, beta):
        # the D < 1 term assumes beta >= 0: at beta = -0.5, lam 10, alpha 0.5
        # the formula gave 1.2, yet the mode is unstable at eta = 0.6
        assert analyze_mode(10.0, 0.5, -0.5, 0.6).dominant_modulus > 1.0
        with pytest.raises(ValueError, match=rf"^beta must be in \[0, inf\), got {beta}$"):
            stability_bound(10.0, 0.5, beta)

    def test_hessian_damping_tightens_the_bound(self):
        alphas = np.linspace(0.01, 1.9, 50)
        for alpha in alphas:
            assert stability_bound(10.0, alpha, 2.0) < stability_bound(10.0, alpha, 0.0)


class TestRegimeBoundaries:
    def test_reference_pair(self):
        lo, hi = regime_boundaries(0.1, 1.0, 0.01)
        assert lo == pytest.approx(0.25063, abs=1e-3)
        assert hi == pytest.approx(99.74937, abs=1e-3)

    def test_boundaries_are_critical(self):
        lo, hi = regime_boundaries(0.1, 1.0, 0.01)
        for lam in (lo, hi):
            t, d = recurrence_coeffs(lam, 0.1, 1.0, 0.01)
            assert abs(t * t - d) < 1e-10

    def test_eta_rescaling_shifts_band(self):
        lo1, hi1 = regime_boundaries(0.1, 1.0, 0.01)
        lo2, hi2 = regime_boundaries(0.1, 1.0, 0.001)
        assert lo2 / lo1 == pytest.approx(10.0, rel=0.2)
        assert hi2 / hi1 == pytest.approx(10.0, rel=0.2)

    def test_no_split_error(self):
        with pytest.raises(ValueError, match="no river/valley split"):
            regime_boundaries(1.9, 0.0, 0.01)

    def test_closed_form_roots_classify_across_parameters(self):
        # the closed-form roots are the boundaries themselves: each classifies
        # critical, 1% outside them overdamped, their geometric mean underdamped
        u = SplitMix64(1010).uniform(3 * 2000).reshape(2000, 3)
        checked = 0
        for alpha, beta, eta in zip(0.01 + 0.98 * u[:, 0], 5.0 * u[:, 1], 10.0 ** (-4.0 * u[:, 2])):
            try:
                lo, hi = regime_boundaries(alpha, beta, eta)
            except ValueError:
                continue
            checked += 1

            def regime(lam):
                return classify_regime(*recurrence_coeffs(lam, alpha, beta, eta))

            assert regime(lo) == regime(hi) == "critical", (alpha, beta, eta)
            assert regime(0.99 * lo) == regime(1.01 * hi) == "overdamped", (alpha, beta, eta)
            assert regime(math.sqrt(lo * hi)) == "underdamped", (alpha, beta, eta)
        assert checked > 1000


class TestSimulator:
    def test_just_stable_bounded(self):
        lam = 10.0
        eta = 0.999 * stability_bound(lam, 0.1, 1.0)
        spec = QuadraticSpec(np.array([lam]), np.array([0.0]))
        out = simulate_recurrence(spec, 0.1, 1.0, eta, np.array([1.0]), np.zeros(1), 2000)
        assert not out.diverged
        assert np.abs(out.errors).max() < 1e3

    def test_just_unstable_escapes(self):
        lam = 10.0
        eta = 1.001 * stability_bound(lam, 0.1, 1.0)
        spec = QuadraticSpec(np.array([lam]), np.array([0.0]))
        out = simulate_recurrence(spec, 0.1, 1.0, eta, np.array([1.0]), np.zeros(1), 5000)
        assert np.abs(out.errors).max() > 1e3

    def test_concave_mode_escape_rate(self):
        spec = QuadraticSpec(np.array([-0.5]), np.array([0.0]))
        out = simulate_recurrence(spec, 0.1, 1.0, 0.01, np.array([1e-6]), np.zeros(1), 2000)
        report = analyze_mode(-0.5, 0.1, 1.0, 0.01)
        assert report.dominant_modulus > 1.0
        assert out.fitted_rates[0] == pytest.approx(math.log(report.dominant_modulus), rel=0.02)

    def test_stable_decay_rate_matches_closed_form(self):
        for lam, beta in ((1.0, 1.0), (5.0, 0.0), (0.2, 2.0)):
            spec = QuadraticSpec(np.array([lam]), np.array([0.0]))
            report = analyze_mode(lam, 0.1, beta, 0.01)
            if report.regime == "critical":
                continue
            out = simulate_recurrence(spec, 0.1, beta, 0.01, np.array([1.0]), np.zeros(1), 2000)
            assert out.fitted_rates[0] == pytest.approx(math.log(report.dominant_modulus), rel=0.02)

    def test_offsets_shift_the_fixed_point(self):
        spec = QuadraticSpec(np.array([2.0, 1.0]), np.array([1.0, -2.0]))
        out = simulate_recurrence(spec, 0.2, 0.0, 0.1, np.ones(2), np.zeros(2), 3000)
        assert np.allclose(out.trajectory[-1], spec.stationary_point(), atol=1e-8)


class TestMonotonicity:
    ETA_GRID = (0.005, 0.01, 0.02)
    BETA_GRID = (0.0, 1.0, 2.0)

    def test_concave_increasing(self):
        probe = monotonicity_probe(-0.5, 0.1, self.ETA_GRID, self.BETA_GRID)
        assert isinstance(probe, ProbeResult)
        assert probe.passed
        assert not probe.excluded_points

    def test_flat_convex_decreasing(self):
        probe = monotonicity_probe(0.1, 0.1, self.ETA_GRID, self.BETA_GRID)
        assert probe.passed
        assert not probe.excluded_points

    def test_out_of_band_points_excluded(self):
        # eta large enough to push lam past the lower boundary
        probe = monotonicity_probe(0.1, 0.1, (0.005, 5.0), (1.0,))
        assert probe.excluded_points

    def test_eta_to_zero_root_to_one(self):
        r_prev = None
        for eta in (1e-2, 1e-4, 1e-6):
            report = analyze_mode(0.1, 0.1, 1.0, eta)
            gap = abs(report.dominant_modulus - 1.0)
            if r_prev is not None:
                assert gap < r_prev
            r_prev = gap
        assert r_prev < 1e-5

    def test_lam_must_be_nonzero(self):
        with pytest.raises(ValueError, match="^lam must be nonzero, got 0$"):
            monotonicity_probe(0.0, 0.1, self.ETA_GRID, self.BETA_GRID)

    def test_probe_that_judges_no_point_fails(self):
        # lam = 50 lies above every band on the grid: nothing is judged, so
        # the monotonicity claim has no support
        probe = monotonicity_probe(50.0, 0.1, (0.01, 0.02), (0.5, 1.0))
        assert not probe.included.any()
        assert [reason for *_, reason in probe.excluded_points] == ["lam not below the band"] * 4
        assert not probe.passed


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 1.9), st.floats(0.0, 3.0), st.floats(0.01, 100.0),
       st.floats(1e-4, 1.0))
def test_jury_consistency(alpha, beta, lam, eta_frac):
    # stability of the recurrence agrees with the closed-form bound
    bound = stability_bound(lam, alpha, beta)
    eta = eta_frac * 2.0 * bound
    report = analyze_mode(lam, alpha, beta, eta)
    margin = 1e-9 * max(1.0, bound)
    if eta <= bound - margin:
        assert report.dominant_modulus <= 1.0 + 1e-9
    elif eta >= bound + margin:
        assert report.dominant_modulus >= 1.0 - 1e-9


def test_lite_dominance_in_band():
    # amplifying the step or the damping on a flat convex mode shrinks r1
    alpha = 0.1
    for lam in (0.02, 0.05, 0.1):
        base = analyze_mode(lam, alpha, 0.0, 0.01)
        for chi, beta2 in ((2.0, 0.0), (1.0, 1.0), (4.0, 1.0)):
            if chi == 1.0 and beta2 == 0.0:
                continue
            boosted = analyze_mode(lam, alpha, beta2, chi * 0.01)
            assert boosted.dominant_modulus < base.dominant_modulus
