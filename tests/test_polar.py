import numpy as np
import pytest

from flatopt.linalg import frobenius, svd_oracle
from flatopt.polar import (NsSchedule, RankController, composite_sharp_projection,
                           ns_polar, update_rank_controller)


def matrix_with_spectrum(rng, m, n, sigmas):
    """Random orthogonal factors around a prescribed singular spectrum."""
    qa, _ = np.linalg.qr(rng.normal(size=(m, m)))
    qb, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.zeros((m, n))
    s[:len(sigmas), :len(sigmas)] = np.diag(sigmas)
    return qa @ s @ qb


def polar_factor(a):
    u, _, v = svd_oracle(a)
    return u @ v.T


class TestNsPolar:
    def test_positive_diagonal(self):
        out = ns_polar(np.diag([2.0, 0.5]))
        assert np.abs(out - np.eye(2)).max() < 1e-2

    def test_orthogonal_fixed_point(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(ns_polar(a) - a).max() < 1e-2

    def test_zero_matrix(self):
        assert np.array_equal(ns_polar(np.zeros((3, 2))), np.zeros((3, 2)))

    def test_default_budget_accuracy(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            sig = 0.1 + 0.9 * rng.random(8)
            a = matrix_with_spectrum(rng, 16, 8, sig)
            err = frobenius(ns_polar(a) - polar_factor(a))
            assert err <= 1e-2 * np.sqrt(16 * 8)

    def test_ten_iteration_accuracy(self):
        rng = np.random.default_rng(11)
        sched = NsSchedule(iterations=10)
        for trial in range(5):
            sig = 0.1 + 0.9 * rng.random(8)
            a = matrix_with_spectrum(rng, 16, 8, sig)
            err = frobenius(ns_polar(a, sched) - polar_factor(a))
            assert err <= 1e-4 * np.sqrt(16 * 8)

    def test_scale_invariance_exact_for_binary_scales(self):
        # power-of-two scaling leaves c*a and the normalization exact,
        # so the iterates match bit for bit
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 4))
        for c in (4.0, 0.125, 2.0 ** 40, 2.0 ** -30):
            assert np.array_equal(ns_polar(c * a), ns_polar(a))

    def test_scale_invariance_general(self):
        # non-binary scales round the input entries; only ulp-level drift allowed
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 4))
        for c in (0.3, 7.0, 3.7e5):
            assert np.abs(ns_polar(c * a) - ns_polar(a)).max() < 1e-12

    def test_wide_input_transposed_internally(self):
        rng = np.random.default_rng(13)
        a = matrix_with_spectrum(rng, 4, 9, 0.2 + 0.8 * rng.random(4))
        err = frobenius(ns_polar(a) - polar_factor(a))
        assert err <= 1e-2 * np.sqrt(4 * 9)

    def test_result_nearly_orthogonal_columns(self):
        rng = np.random.default_rng(14)
        a = matrix_with_spectrum(rng, 12, 5, 0.1 + 0.9 * rng.random(5))
        out = ns_polar(a, NsSchedule(iterations=12))
        gram_sigma = np.sqrt(np.clip(np.linalg.eigvalsh(out.T @ out), 0.0, None))
        assert gram_sigma.min() > 0.99
        assert gram_sigma.max() < 1.01


class TestScheduleContraction:
    def test_tiny_singular_values_recovered(self):
        # sigma spanning (1e-4, 1] all mapped into (0.99, 1.01); the default
        # six-step budget cannot lift 1e-4 that far, twelve steps can
        rng = np.random.default_rng(15)
        sig = np.array([1.0, 0.3, 1e-2, 1e-3, 2e-4])
        a = matrix_with_spectrum(rng, 10, 5, sig)
        a = a / frobenius(a)
        out = ns_polar(a, NsSchedule(iterations=12))
        sigma_out = np.sqrt(np.clip(np.linalg.eigvalsh(out.T @ out), 0.0, None))
        assert sigma_out.min() > 0.99
        assert sigma_out.max() < 1.01

    def test_validation(self):
        with pytest.raises(ValueError):
            NsSchedule(iterations=0)


class TestCompositeProjection:
    def test_hand_case(self):
        # threshold between the two singular values keeps only the top one
        m = np.diag([3.0, 1.0])
        ctrl = RankController(scale_l=2.0 / frobenius(m), target_dim=1)
        p, t = composite_sharp_projection(m, ctrl, ns_polar(m))
        assert np.abs(t - np.diag([1.0, 0.0])).max() < 1e-3
        assert np.abs(p - np.diag([1.0, 0.0])).max() < 1e-3

    def test_orthogonal_input_full_projector(self):
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        ctrl = RankController(scale_l=0.5 / frobenius(q), target_dim=3)
        p, t = composite_sharp_projection(q, ctrl, ns_polar(q))
        assert np.abs(p - np.eye(3)).max() < 1e-2
        assert np.abs(t - q).max() < 1e-2

    def test_gapped_spectrum_matches_oracle(self):
        rng = np.random.default_rng(17)
        sig = np.array([10.0, 9.0, 8.0, 7.0, 0.4, 0.3, 0.2, 0.1])
        a = matrix_with_spectrum(rng, 16, 8, sig)
        ctrl = RankController(scale_l=1.0 / frobenius(a), target_dim=4)
        p, _ = composite_sharp_projection(a, ctrl, ns_polar(a))
        _, _, v = svd_oracle(a)
        p_oracle = v[:, :4] @ v[:, :4].T
        assert frobenius(p - p_oracle) < 1e-2

    def test_projector_algebra_on_gapped_input(self):
        rng = np.random.default_rng(18)
        sig = np.array([5.0, 4.0, 0.2, 0.1])
        a = matrix_with_spectrum(rng, 9, 4, sig)
        ctrl = RankController(scale_l=1.0 / frobenius(a), target_dim=2)
        p, _ = composite_sharp_projection(a, ctrl, ns_polar(a))
        assert frobenius(p - p.T) < 5e-3
        assert frobenius(p @ p - p) < 5e-2

    @pytest.mark.parametrize("a", [
        np.random.default_rng(20).normal(size=(9, 4)),
        np.random.default_rng(21).normal(size=(5, 5)),
        np.zeros((6, 3)),
    ], ids=["tall", "square", "zero"])
    def test_supplied_polar_is_bitwise_the_same(self, a):
        # the supplied NS(M) gives the bytes of T = 1/2 NS(M) + 1/2 NS(M/tau - NS(M))
        # with NS(M) recomputed; a zero matrix gives zero factors
        ctrl = RankController(scale_l=0.5 / np.sqrt(a.shape[1]), target_dim=2)
        p, t = composite_sharp_projection(a, ctrl, ns_polar(a))
        expected = np.zeros_like(a)
        if frobenius(a) > 0.0:
            first = ns_polar(a.copy())
            expected = 0.5 * first + 0.5 * ns_polar(a / (ctrl.scale_l * frobenius(a)) - first)
        assert np.array_equal(t, expected)
        assert np.array_equal(p, expected.T @ expected)

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            composite_sharp_projection(np.ones((2, 5)), RankController(scale_l=1.0, target_dim=1),
                                       ns_polar(np.ones((2, 5))))


class TestRankController:
    def test_boundary_takes_up_branch(self):
        ctrl = update_rank_controller(RankController(scale_l=1.0, target_dim=1), 1.0)
        assert ctrl.scale_l == 1.05

    def test_below_target_shrinks(self):
        ctrl = update_rank_controller(RankController(scale_l=1.0, target_dim=4), 1.9)
        assert ctrl.scale_l == 0.95

    def test_above_target_grows(self):
        ctrl = update_rank_controller(RankController(scale_l=0.5, target_dim=3), 2.0)
        assert ctrl.scale_l == 0.525

    def test_only_scale_changes(self):
        before = RankController(scale_l=0.7, target_dim=5)
        after = update_rank_controller(before, 10.0)
        assert after.target_dim == before.target_dim

    def test_validation(self):
        with pytest.raises(ValueError):
            RankController(scale_l=0.0, target_dim=2)
        with pytest.raises(ValueError):
            RankController(scale_l=1.0, target_dim=0)


def test_controller_drives_mass_toward_target():
    # closed loop: threshold feedback settles ‖P‖_F² near the target rank
    rng = np.random.default_rng(19)
    sig = np.concatenate([np.linspace(4.0, 2.0, 6), np.linspace(0.2, 0.05, 6)])
    a = matrix_with_spectrum(rng, 24, 12, sig)
    ctrl = RankController(scale_l=1.0 / np.sqrt(12), target_dim=6)
    mass = None
    for _ in range(200):
        p, _ = composite_sharp_projection(a, ctrl, ns_polar(a))
        mass = frobenius(p) ** 2
        ctrl = update_rank_controller(ctrl, frobenius(p))
    assert 5.0 <= mass <= 7.0
