import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatopt.rng import SplitMix64
from flatopt.subspace import (SoapMaskController, coverage_score,
                              smoothed_sharp_mask, update_soap_controller)


def ctrl_with(l_s, l_smooth, d_s=2, d_smooth=1):
    return SoapMaskController(d_s=d_s, d_smooth=d_smooth, l_s=l_s, l_smooth=l_smooth)


class TestSmoothedMask:
    def test_piecewise_values(self):
        # mean(v) = 3, tau_s = 4, tau_smooth = 2
        v = np.array([[5.0, 3.0, 1.0]])
        mask = smoothed_sharp_mask(v, ctrl_with(4.0 / 3.0, 2.0 / 3.0))
        assert np.allclose(mask, [[1.0, 0.5, 0.0]])

    def test_boundary_at_tau_s_is_one(self):
        v = np.array([[4.0, 0.0]])  # mean 2 -> tau_s = 4 exactly on the 4 entry
        mask = smoothed_sharp_mask(v, ctrl_with(2.0, 1.0))
        assert mask[0, 0] == 1.0

    def test_boundary_at_tau_smooth_is_zero(self):
        v = np.array([[4.0, 2.0, 0.0]])  # mean 2, tau_smooth = 2 on the middle
        mask = smoothed_sharp_mask(v, ctrl_with(2.0, 1.0))
        assert mask[0, 1] == 0.0

    def test_zero_tensor_all_ones(self):
        mask = smoothed_sharp_mask(np.zeros((2, 3)), ctrl_with(1.0, 0.5))
        assert np.array_equal(mask, np.ones((2, 3)))

    def test_degenerate_thresholds_rejected(self):
        bad = dataclasses.replace(ctrl_with(1.0, 0.5), l_smooth=1.0)
        with pytest.raises(ValueError):
            smoothed_sharp_mask(np.array([[1.0, 2.0]]), bad)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            smoothed_sharp_mask(np.array([[1.0, -0.1]]), ctrl_with(1.0, 0.5))

    def test_range_and_monotonicity(self):
        rng = SplitMix64(21)
        v = np.abs(rng.normal((6, 6)))
        mask = smoothed_sharp_mask(v, ctrl_with(1.2, 0.4))
        assert mask.min() >= 0.0
        assert mask.max() <= 1.0
        flat_v = v.ravel()
        flat_m = mask.ravel()
        order = np.argsort(flat_v)
        assert (np.diff(flat_m[order]) >= -1e-15).all()


class TestControllerUpdate:
    def test_both_up(self):
        # mean 1.5: 2 entries above tau_s = 1.5, 3 above tau_smooth = 0.75
        v = np.array([[4.0, 4.0, 1.0, 0.0, 0.0, 0.0]])
        ctrl = update_soap_controller(ctrl_with(1.0, 0.5, d_s=2, d_smooth=1), v)
        assert ctrl.l_s == 1.05
        assert ctrl.l_smooth == 0.525

    def test_clamp_binds(self):
        # mean 2: the entries at tau_s = 2 are not above it (strict >), so 1
        # entry counts as sharp and 3 clear tau_smooth = 1.96
        v = np.array([[8.0, 2.0, 2.0, 0.0, 0.0, 0.0]])
        ctrl = update_soap_controller(ctrl_with(1.0, 0.98, d_s=2, d_smooth=1), v)
        assert ctrl.l_s == 0.95
        assert ctrl.l_smooth == pytest.approx(0.9025)
        assert ctrl.l_smooth <= 0.95 * ctrl.l_s

    def test_both_down(self):
        # mean 1.25: 1 entry above tau_s = 1.25, 2 above tau_smooth = 0.625
        v = np.array([[4.0, 1.0, 0.0, 0.0]])
        ctrl = update_soap_controller(ctrl_with(1.0, 0.5, d_s=2, d_smooth=1), v)
        assert ctrl.l_s == 0.95
        assert ctrl.l_smooth == 0.475

    def test_counts_compared_to_different_targets(self):
        # count above tau_s against d_s, count above tau_smooth against
        # d_s + d_smooth: mean 1.625 puts 3 entries above 1.625, 4 above 0.8125
        v = np.array([[4.0, 4.0, 4.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
        ctrl = update_soap_controller(ctrl_with(1.0, 0.5, d_s=3, d_smooth=2), v)
        assert ctrl.l_s == 1.05
        assert ctrl.l_smooth == 0.475

    def test_clamp_survives_random_sequences(self):
        rng = SplitMix64(22)
        ctrl = ctrl_with(1.0, 0.5, d_s=3, d_smooth=2)
        # a random spread per step, near flat to heavy tailed, drives all four
        # feedback directions, and the clamp binds on about one step in ten
        z = rng.normal((10000, 9))
        for row in np.exp(z[:, :8] * z[:, 8:] ** 2):
            ctrl = update_soap_controller(ctrl, row.reshape(2, 4))
            assert 0.0 < ctrl.l_smooth <= 0.95 * ctrl.l_s + 1e-15

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SoapMaskController(d_s=0, d_smooth=1)
        with pytest.raises(ValueError):
            SoapMaskController(d_s=1, d_smooth=-1)
        with pytest.raises(ValueError):
            ctrl_with(1.0, 0.0)

    @pytest.mark.parametrize("name,scales", [
        ("l_s", (np.nan, 0.5)), ("l_s", (np.inf, 0.5)),
        ("l_smooth", (1.0, np.nan)), ("l_smooth", (1.0, np.inf)),
    ], ids=["l_s-nan", "l_s-inf", "l_smooth-nan", "l_smooth-inf"])
    def test_non_finite_scales_rejected(self, name, scales):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ctrl_with(*scales)

    @pytest.mark.parametrize("name,sizes", [
        ("d_s", (np.nan, 1)), ("d_s", (1.5, 1)), ("d_s", (np.inf, 1)),
        ("d_smooth", (1, 0.5)), ("d_smooth", (1, np.nan)), ("d_smooth", (1, np.inf)),
    ], ids=["d_s-nan", "d_s-fractional", "d_s-inf",
            "d_smooth-fractional", "d_smooth-nan", "d_smooth-inf"])
    def test_size_that_is_no_integer_rejected(self, name, sizes):
        # NaN failed no comparison, and a fractional size was accepted
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            ctrl_with(1.0, 0.5, *sizes)


class TestCoverageScore:
    def test_identical_axis(self):
        e1 = np.array([[1.0], [0.0]])
        assert coverage_score(e1, e1) == pytest.approx(1.0)

    def test_orthogonal_axes(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert coverage_score(e1, e2) == pytest.approx(0.0, abs=1e-12)

    def test_principal_angle(self):
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        e1 = np.array([[1.0], [0.0]])
        assert coverage_score(diag, e1) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_contained_subspace_scores_one(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(8, 5)))
        assert coverage_score(q[:, :2], q) == pytest.approx(1.0)

    def test_monotone_in_second_basis(self):
        rng = np.random.default_rng(24)
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        a = np.linalg.qr(rng.normal(size=(9, 3)))[0]
        scores = [coverage_score(a, q[:, :k]) for k in range(3, 10)]
        assert (np.diff(scores) >= -1e-10).all()
        assert scores[-1] == pytest.approx(1.0)

    def test_basis_rotation_invariance(self):
        rng = np.random.default_rng(25)
        a = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        b = np.linalg.qr(rng.normal(size=(7, 4)))[0]
        ra = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        rb = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        assert coverage_score(a @ ra, b @ rb) == pytest.approx(coverage_score(a, b), abs=1e-10)

    def test_validation(self):
        rng = np.random.default_rng(26)
        a = np.linalg.qr(rng.normal(size=(6, 3)))[0]
        with pytest.raises(ValueError):
            coverage_score(a, a[:, :2])  # k_A > k_B
        with pytest.raises(ValueError):
            coverage_score(2.0 * a, a)  # not orthonormal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1.0, 3.0), st.floats(0.05, 0.9))
def test_mask_always_in_unit_interval(seed, l_s, frac):
    ctrl = ctrl_with(l_s, frac * 0.95 * l_s)
    v = np.abs(SplitMix64(seed).normal((4, 5)))
    mask = smoothed_sharp_mask(v, ctrl)
    assert mask.min() >= 0.0
    assert mask.max() <= 1.0
