"""Optimizer steppers, schedules, clipping, routing.

The reduction tests (n_adamw beta=0, mars gamma=0, ademamix kappa=0, the
accelerated steppers under a trivial policy) assert bitwise equality over
whole trajectories: matching the baseline exactly is a stated contract of
the implementation, not a numerical coincidence.
"""

import dataclasses
import math

import numpy as np
import pytest

from flatopt.optim import (
    FAMILIES,
    FAMILY_KEYS,
    KINDS,
    LITE_FAMILIES,
    ROLES,
    LitePolicy,
    OptimizerConfig,
    ScheduleSpec,
    clip_global_norm,
    init_state,
    init_states,
    lr_at,
    route_and_step,
    step_adamw,
    step_ademamix,
    step_lion,
    step_mars,
    step_muon,
    step_n_adamw,
    step_soap,
)
from flatopt.dynamics import AdemamixFlowConfig, FlowParams
from flatopt.harness import ExperimentConfig, parse_config, run_experiment
from flatopt.landscapes import BlockLayout, Landscape, MlpSpec, RiverValleySpec
from flatopt.linalg import check_fields, qr_decompose, sym_eig
from flatopt.polar import RankController, composite_sharp_projection, ns_polar
from flatopt.rng import SplitMix64
from flatopt.subspace import SoapMaskController, coverage_score


def scalar(value):
    return np.array([[float(value)]])


def cfg_for(family, **kw):
    kw.setdefault("clip_norm", 1e9)
    return OptimizerConfig(family=family, **kw)


def layouts(**shapes_and_roles):
    """Named BlockLayouts, as init_states reads them from a landscape."""
    return {name: BlockLayout(0, shape, role) for name, (shape, role) in shapes_and_roles.items()}


def gradient_stream(seed, shape, steps):
    rng = SplitMix64(seed)
    return [rng.normal(shape) for _ in range(steps)]


class TestLrAt:
    def test_cos_reaches_lr_max_at_end_of_warmup(self):
        sched = ScheduleSpec("cos", lr_max=1.0, warmup_steps=100, total_steps=1000)
        assert lr_at(sched, 100) == 1.0

    def test_cos_final_step_floors_at_tenth(self):
        sched = ScheduleSpec("cos", lr_max=1.0, warmup_steps=100, total_steps=1000)
        assert lr_at(sched, 1000) == pytest.approx(0.1, rel=1e-15)

    def test_wsd_midway_through_decay(self):
        sched = ScheduleSpec("wsd", lr_max=1.0, warmup_steps=100, total_steps=1000)
        assert lr_at(sched, 900) == 0.5

    def test_wsd_plateau_and_final_zero(self):
        sched = ScheduleSpec("wsd", lr_max=0.3, warmup_steps=100, total_steps=1000)
        assert lr_at(sched, 101) == 0.3
        assert lr_at(sched, 800) == 0.3
        assert lr_at(sched, 1000) == 0.0

    def test_warmup_is_linear_for_every_kind(self):
        for kind in ("cos", "wsd", "constant"):
            sched = ScheduleSpec(kind, lr_max=2.0, warmup_steps=50, total_steps=1000)
            assert lr_at(sched, 0) == 0.0
            for step in (1, 17, 50):
                assert lr_at(sched, step) == 2.0 * step / 50

    def test_constant_holds_after_warmup(self):
        sched = ScheduleSpec("constant", lr_max=0.7, warmup_steps=10, total_steps=500)
        for step in (11, 250, 500):
            assert lr_at(sched, step) == 0.7

    def test_step_beyond_schedule_rejected(self):
        sched = ScheduleSpec("constant", lr_max=1.0, warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError, match="beyond schedule end"):
            lr_at(sched, 11)

    def test_negative_step_rejected(self):
        sched = ScheduleSpec("constant", lr_max=1.0, warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError):
            lr_at(sched, -1)

    def test_no_jumps_anywhere(self):
        # bound covers the worst slope of the warmup ramp and the wsd decay leg
        for kind in ("cos", "wsd", "constant"):
            sched = ScheduleSpec(kind, lr_max=1.0, warmup_steps=100, total_steps=1000)
            bound = 2.0 * sched.lr_max / min(sched.warmup_steps, 0.2 * sched.total_steps)
            rates = [lr_at(sched, t) for t in range(sched.total_steps + 1)]
            gaps = np.abs(np.diff(rates))
            assert gaps.max() <= bound


class TestClipGlobalNorm:
    def test_below_threshold_untouched(self):
        g = np.array([[0.3, 0.4]])
        out = clip_global_norm([g], 1.0)
        assert out[0] is g

    def test_at_threshold_untouched(self):
        g = np.array([[1.0, 0.0]])
        assert clip_global_norm([g], 1.0)[0] is g

    def test_single_block_rescaled_to_threshold(self):
        g = np.array([[4.0, 0.0], [0.0, 0.0]])
        out = clip_global_norm([g], 1.0)
        assert np.array_equal(out[0], 0.25 * g)

    def test_joint_norm_across_blocks(self):
        g1 = np.array([[3.0, 0.0]])
        g2 = np.array([[0.0, 4.0]])
        out = clip_global_norm([g1, g2], 1.0)
        np.testing.assert_allclose(out[0], g1 / 5.0, rtol=1e-15)
        np.testing.assert_allclose(out[1], g2 / 5.0, rtol=1e-15)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            clip_global_norm([np.ones((1, 1))], 0.0)


class TestAdamw:
    def test_zero_gradient_is_pure_decay(self):
        w = scalar(2.0)
        cfg = cfg_for("adamw", weight_decay=0.5)
        state = init_state(w.shape, "adam", cfg)
        w = step_adamw(w, state, np.zeros((1, 1)), 0.1, cfg)
        assert w[0, 0] == 2.0 - 0.1 * (0.5 * 2.0)
        assert w[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-15)

    def test_scalar_first_step(self):
        # theta=0 and beta_v=0 make m=g and v=g^2; epsilon far below ulp(1)
        # keeps the denominator at exactly 1
        w = scalar(1.0)
        cfg = cfg_for("adamw", theta=0.0, beta_v=0.0, weight_decay=0.0, epsilon=1e-300)
        state = init_state(w.shape, "adam", cfg)
        w = step_adamw(w, state, np.ones((1, 1)), 0.1, cfg)
        assert w[0, 0] == 0.9

    def test_two_step_moment_trace(self):
        w = scalar(0.0)
        cfg = cfg_for("adamw", theta=0.9, beta_v=0.99, weight_decay=0.0)
        state = init_state(w.shape, "adam", cfg)
        g = np.ones((1, 1))
        w = step_adamw(w, state, g, 0.1, cfg)
        w = step_adamw(w, state, g, 0.1, cfg)
        assert state.m[0, 0] == pytest.approx(0.19, rel=1e-14)
        assert state.v[0, 0] == pytest.approx(0.0199, rel=1e-14)


class TestNesterovAdamw:
    def test_zero_beta_matches_adamw_bitwise(self):
        grads = gradient_stream(11, (3, 2), 60)
        shared = dict(theta=0.9, beta_v=0.99, weight_decay=0.05)
        cfg_a = cfg_for("adamw", **shared)
        cfg_n = cfg_for("n_adamw", nesterov_beta=0.0, **shared)
        w_a = w_n = np.ones((3, 2))
        s_a, s_n = init_state(w_a.shape, "adam", cfg_a), init_state(w_n.shape, "adam", cfg_n)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_n = step_n_adamw(w_n, s_n, g, 0.01, cfg_n)
            assert np.array_equal(w_a, w_n)

    def test_scalar_lookahead_blend(self):
        w = scalar(1.0)
        cfg = cfg_for("n_adamw", theta=0.0, beta_v=0.0, nesterov_beta=1.0,
                      weight_decay=0.0, epsilon=1e-300)
        state = init_state(w.shape, "adam", cfg)
        w = step_n_adamw(w, state, np.ones((1, 1)), 0.1, cfg)
        # numerator m + beta*g = 2, so the step is twice the adamw step
        assert w[0, 0] == 0.8


class TestLion:
    def test_sign_of_zero_is_decay_only(self):
        w = scalar(4.0)
        cfg = cfg_for("lion", weight_decay=0.25)
        state = init_state(w.shape, "adam", cfg)
        w = step_lion(w, state, np.zeros((1, 1)), 0.1, cfg)
        assert w[0, 0] == 4.0 - 0.1 * (0.25 * 4.0)

    def test_blend_uses_pre_update_momentum(self):
        # old m = -1 dominates the blend (sign -1) even though the momentum
        # EMA lands exactly at 0 after the step
        w = scalar(0.0)
        cfg = cfg_for("lion", theta=0.9, beta_v=0.5, weight_decay=0.0)
        state = init_state(w.shape, "adam", cfg)
        state.m = np.array([[-1.0]])
        w = step_lion(w, state, np.ones((1, 1)), 0.3, cfg)
        assert w[0, 0] == 0.3
        assert state.m[0, 0] == 0.0

    def test_updates_have_unit_magnitude(self):
        g = SplitMix64(3).normal((4, 5))
        w = np.zeros((4, 5))
        cfg = cfg_for("lion", weight_decay=0.0)
        state = init_state(w.shape, "adam", cfg)
        w = step_lion(w, state, g, 0.05, cfg)
        assert np.array_equal(w, -0.05 * np.sign(g))


class TestMars:
    def test_gamma_zero_matches_adamw_bitwise(self):
        grads = gradient_stream(23, (2, 4), 60)
        cfg_a = cfg_for("adamw")
        cfg_m = cfg_for("mars", mars_gamma=0.0)
        w_a = w_m = np.ones((2, 4))
        s_a, s_m = init_state(w_a.shape, "adam", cfg_a), init_state(w_m.shape, "adam", cfg_m)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_m = step_mars(w_m, s_m, g, 0.01, cfg_m)
            assert np.array_equal(w_a, w_m)

    def test_first_step_control_variate(self):
        # c = g + gamma*theta/(1-theta)*(g - 0) = 1 + 0.5*9 = 5.5
        w = scalar(0.0)
        cfg = cfg_for("mars", theta=0.9, beta_v=0.0, mars_gamma=0.5, weight_decay=0.0)
        state = init_state(w.shape, "adam", cfg)
        w = step_mars(w, state, np.ones((1, 1)), 0.01, cfg)
        assert state.m[0, 0] == pytest.approx(0.1 * 5.5, rel=1e-12)
        assert state.v[0, 0] == pytest.approx(5.5 ** 2, rel=1e-12)

    def test_repeated_gradient_collapses_to_adamw(self):
        g = SplitMix64(5).normal((2, 2))
        cfg_m = cfg_for("mars", mars_gamma=0.7)
        cfg_a = cfg_for("adamw")
        w_m = w_a = np.ones((2, 2))
        s_m, s_a = init_state(w_m.shape, "adam", cfg_m), init_state(w_a.shape, "adam", cfg_a)
        s_m.prev_g = g.copy()
        w_m = step_mars(w_m, s_m, g, 0.01, cfg_m)
        w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
        assert np.array_equal(s_m.m, s_a.m)
        assert np.array_equal(w_m, w_a)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError, match="discards the current gradient"):
            cfg_for("mars", mars_gamma=1.0)


class TestAdemamix:
    def test_kappa_zero_matches_adamw_bitwise(self):
        # the fast EMA writes theta*m + (1-theta)*g as (1-a1)*m + a1*g, so the
        # match is exact only when a1 is the floating-point value 1 - theta
        theta = 0.95
        grads = gradient_stream(31, (3, 3), 60)
        cfg_a = cfg_for("adamw", theta=theta)
        cfg_x = cfg_for("ademamix", ademamix_kappa=0.0, alpha_fast=1.0 - theta)
        w_a = w_x = np.ones((3, 3))
        s_a, s_x = init_state(w_a.shape, "adam", cfg_a), init_state(w_x.shape, "adam", cfg_x)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_x = step_ademamix(w_x, s_x, g, 0.01, cfg_x)
            assert np.array_equal(w_a, w_x)

    def test_two_timescale_numerator(self):
        w = scalar(0.0)
        cfg = cfg_for("ademamix", alpha_fast=0.1, alpha_slow=1e-4,
                      ademamix_kappa=2.0, weight_decay=0.0)
        state = init_state(w.shape, "adam", cfg)
        w = step_ademamix(w, state, np.ones((1, 1)), 0.01, cfg)
        assert state.m[0, 0] == 0.1
        assert state.m_slow[0, 0] == 1e-4
        numerator = state.m + cfg.ademamix_kappa * state.m_slow
        assert numerator[0, 0] == pytest.approx(0.1002, rel=1e-15)


def rotation_4x4(angle):
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s], [s, c]])
    out = np.zeros((4, 4))
    out[:2, :2] = r
    out[2:, 2:] = r.T
    return out


class TestMuon:
    def test_orthogonal_gradient_passes_through(self):
        q = rotation_4x4(0.3)
        w = np.zeros((4, 4))
        cfg = cfg_for("muon", theta=0.0, weight_decay=0.0)
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, q, 1.0, cfg)
        direction = -w / (0.2 * math.sqrt(4))
        assert np.linalg.norm(direction - q) < 1e-2 * math.sqrt(16)

    def test_diagonal_gradient_gives_identity_direction(self):
        g = np.diag([5.0, 2.0])
        w = np.zeros((2, 2))
        cfg = cfg_for("muon", weight_decay=0.0)
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, g, 0.1, cfg)
        direction = -w / (0.1 * 0.2 * math.sqrt(2))
        assert np.linalg.norm(direction - np.eye(2)) < 1e-2 * math.sqrt(4)

    def test_update_norm_set_by_dimension_scale(self):
        q = rotation_4x4(1.1)
        w = np.zeros((4, 4))
        cfg = cfg_for("muon", theta=0.0, weight_decay=0.0)
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, q, 1.0, cfg)
        # orthogonal direction: update Frobenius norm is 0.2*sqrt(max_dim)*sqrt(n)
        assert np.linalg.norm(w) == pytest.approx(0.2 * 2.0 * 2.0, rel=2e-2)

    def test_doubling_the_gradient_changes_nothing(self):
        grads = gradient_stream(41, (6, 3), 10)
        w_1 = w_2 = np.zeros((6, 3))
        cfg = cfg_for("muon", weight_decay=0.0)
        s_1, s_2 = init_state((6, 3), "muon", cfg), init_state((6, 3), "muon", cfg)
        for g in grads:
            w_1 = step_muon(w_1, s_1, g, 0.05, cfg)
            w_2 = step_muon(w_2, s_2, 2.0 * g, 0.05, cfg)
            assert np.array_equal(w_1, w_2)

    def test_wide_block_orientation(self):
        g = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
        w = np.zeros((2, 4))
        cfg = cfg_for("muon", theta=0.0, weight_decay=0.0)
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, g, 1.0, cfg)
        assert w.shape == (2, 4)
        direction = -w / (0.2 * math.sqrt(4))
        expected = np.zeros((2, 4))
        expected[0, 0] = expected[1, 1] = 1.0
        assert np.linalg.norm(direction - expected) < 1e-2 * math.sqrt(8)

    def test_momentum_convention_proportionality(self):
        # u = theta*m + g is a positive multiple of the m + g/theta blend with
        # matched decay, and the polar factor only sees the ray through u
        theta, lr = 0.95, 0.05
        grads = gradient_stream(53, (6, 4), 50)
        cfg = cfg_for("muon", theta=theta, weight_decay=0.0)
        w = np.zeros((6, 4))
        state = init_state(w.shape, "muon", cfg)
        w_b = np.zeros((6, 4))
        m_b = np.zeros((6, 4))
        scale = 0.2 * math.sqrt(6)
        for g in grads:
            w = step_muon(w, state, g, lr, cfg)
            m_b = theta * m_b + g / theta
            w_b = w_b - lr * scale * ns_polar(theta * m_b + g / theta)
            assert np.abs(w - w_b).max() <= 1e-10


class TestMuonLite:
    def policy(self, **kw):
        return LitePolicy(**kw)

    def test_trivial_policy_recovers_muon_bitwise(self):
        grads = gradient_stream(67, (12, 6), 100)
        cfg_m = cfg_for("muon", weight_decay=0.1)
        cfg_l = cfg_for("muon_lite", weight_decay=0.1, lite=self.policy())
        w_m = w_l = np.ones((12, 6))
        s_m, s_l = init_state(w_m.shape, "muon", cfg_m), init_state(w_l.shape, "muon", cfg_l)
        for g in grads:
            w_m = step_muon(w_m, s_m, g, 0.02, cfg_m)
            w_l = step_muon(w_l, s_l, g, 0.02, cfg_l)
            assert np.array_equal(w_m, w_l)

    def test_identity_projector_keeps_sharp_blend(self, monkeypatch):
        import flatopt.optim as optim_mod

        monkeypatch.setattr(optim_mod, "composite_sharp_projection",
                            lambda a, ctrl, polar: (np.eye(a.shape[1]), None))
        g = SplitMix64(71).normal((6, 4))
        pol = self.policy(chi=3.0, beta1=-0.25, beta2=0.5)
        cfg = cfg_for("muon_lite", theta=0.5, weight_decay=0.0, lite=pol)
        w = np.zeros((6, 4))
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, g, 1.0, cfg)
        u = cfg.theta * g + g
        expected = ns_polar(u) + pol.beta1 * ns_polar(g)
        np.testing.assert_allclose(w, -0.2 * math.sqrt(6) * expected,
                                   atol=1e-12)

    def test_zero_projector_amplifies_everything(self, monkeypatch):
        import flatopt.optim as optim_mod

        monkeypatch.setattr(optim_mod, "composite_sharp_projection",
                            lambda a, ctrl, polar: (np.zeros((a.shape[1],) * 2), None))
        g = SplitMix64(73).normal((6, 4))
        pol = self.policy(chi=2.0, beta1=-0.25, beta2=0.5)
        cfg = cfg_for("muon_lite", theta=0.5, weight_decay=0.0, lite=pol)
        w = np.zeros((6, 4))
        state = init_state(w.shape, "muon", cfg)
        w = step_muon(w, state, g, 1.0, cfg)
        u = cfg.theta * g + g
        expected = 2.0 * ns_polar(u) + 2.0 * 0.5 * ns_polar(g)
        np.testing.assert_allclose(w, -0.2 * math.sqrt(6) * expected,
                                   atol=1e-12)

    def test_zero_projector_chi_times_baseline(self, monkeypatch):
        # with the whole space flat and no gradient correction, every update
        # is exactly chi times the muon update; chi a power of two keeps the
        # scaling bitwise through the trajectory
        import flatopt.optim as optim_mod

        monkeypatch.setattr(optim_mod, "composite_sharp_projection",
                            lambda a, ctrl, polar: (np.zeros((a.shape[1],) * 2), None))
        grads = gradient_stream(79, (8, 4), 20)
        cfg_m = cfg_for("muon", weight_decay=0.0)
        cfg_l = cfg_for("muon_lite", weight_decay=0.0,
                        lite=self.policy(chi=4.0))
        w_m = w_l = np.zeros((8, 4))
        s_m, s_l = init_state(w_m.shape, "muon", cfg_m), init_state(w_l.shape, "muon", cfg_l)
        for g in grads:
            w_m = step_muon(w_m, s_m, g, 0.03, cfg_m)
            w_l = step_muon(w_l, s_l, g, 0.03, cfg_l)
            assert np.array_equal(w_l, 4.0 * w_m)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 10)], ids=["square", "wide"])
    def test_matches_four_pass_reference_bitwise(self, monkeypatch, shape):
        # the reference step lets the projector recompute the momentum polar
        # instead of reusing the one the stepper already has
        import flatopt.optim as optim_mod
        import flatopt.polar as polar_mod

        grads = gradient_stream(89, shape, 20)
        cfg = cfg_for("muon_lite", weight_decay=0.1,
                      lite=self.policy(chi=4.0, beta1=-0.25, beta2=1.0))
        w_new = w_ref = np.ones(shape)
        s_new, s_ref = init_state(w_new.shape, "muon", cfg), init_state(w_ref.shape, "muon", cfg)
        for g in grads:
            w_new = step_muon(w_new, s_new, g, 0.02, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(optim_mod, "composite_sharp_projection",
                              lambda a, ctrl, polar:
                              polar_mod.composite_sharp_projection(a, ctrl, polar_mod.ns_polar(a)))
                w_ref = step_muon(w_ref, s_ref, g, 0.02, cfg)
            assert np.array_equal(w_new, w_ref)
            assert s_new.controller == s_ref.controller
            assert s_new.last_sharp_mass == s_ref.last_sharp_mass

    def test_controller_and_telemetry_advance(self):
        grads = gradient_stream(83, (10, 5), 5)
        cfg = cfg_for("muon_lite", weight_decay=0.0, lite=self.policy(chi=2.0))
        w = np.zeros((10, 5))
        state = init_state(w.shape, "muon", cfg)
        initial_scale = state.controller.scale_l
        assert initial_scale == 1.0 / math.sqrt(5)
        for g in grads:
            w = step_muon(w, state, g, 0.02, cfg)
        assert state.controller.scale_l != initial_scale
        assert isinstance(state.last_sharp_mass, float)
        assert state.last_sharp_mass >= 0.0


class TestSoap:
    def test_identity_basis_matches_adamw_bitwise(self):
        grads = gradient_stream(89, (5, 3), 50)
        cfg_a = cfg_for("adamw")
        cfg_s = cfg_for("soap", qr_refresh_every=10 ** 6)
        w_a = w_s = np.ones((5, 3))
        s_a, s_s = init_state(w_a.shape, "adam", cfg_a), init_state(w_s.shape, "muon", cfg_s)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_s = step_soap(w_s, s_s, g, 0.01, cfg_s)
            assert np.array_equal(w_a, w_s)

    def test_zero_gradient_is_pure_decay(self):
        w = 3.0 * np.ones((4, 2))
        cfg = cfg_for("soap", weight_decay=0.5)
        state = init_state(w.shape, "muon", cfg)
        w = step_soap(w, state, np.zeros((4, 2)), 0.1, cfg)
        assert np.array_equal(w, 3.0 * np.ones((4, 2)) - 0.1 * (0.5 * 3.0))

    def test_eigenbasis_orthonormal_after_refresh(self):
        grads = gradient_stream(97, (8, 5), 35)
        cfg = cfg_for("soap", qr_refresh_every=10)
        w = np.zeros((8, 5))
        state = init_state(w.shape, "muon", cfg)
        for g in grads:
            w = step_soap(w, state, g, 0.01, cfg)
        assert not np.allclose(state.q_l, np.eye(8))
        assert np.abs(state.q_l.T @ state.q_l - np.eye(8)).max() < 1e-10
        assert np.abs(state.q_r.T @ state.q_r - np.eye(5)).max() < 1e-10

    def test_run_of_whole_periods_computes_no_unread_basis(self, monkeypatch):
        # 20 steps at refresh every 10 read two bases: the identity and the one
        # refreshed at the start of step 11; the one after step 20 is never read
        import flatopt.optim as optim_mod

        calls = []
        monkeypatch.setattr(optim_mod, "qr_decompose",
                            lambda a: calls.append(a.shape) or qr_decompose(a))
        cfg = cfg_for("soap", qr_refresh_every=10)
        w = np.ones((8, 5))
        state = init_state(w.shape, "muon", cfg)
        for g in gradient_stream(167, (8, 5), 20):
            w = step_soap(w, state, g, 0.01, cfg)
        assert calls == [(8, 8), (5, 5)]

    @pytest.mark.parametrize("family", ["soap", "soap_lite"])
    @pytest.mark.parametrize("steps,every", [(20, 10), (21, 10), (6, 3), (7, 3), (5, 1)])
    def test_matches_eager_refresh_reference_bitwise(self, family, steps, every):
        # the reference refreshes at the end of every every-th step, step_soap
        # at the start of the next one; nothing reads the Gram EMAs or the
        # basis in between, so every step rotates by the same basis
        extra = {"lite": LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)} if family == "soap_lite" else {}
        cfg = cfg_for(family, qr_refresh_every=every, **extra)
        w_new = w_ref = np.ones((8, 5))
        s_new, s_ref = init_state(w_new.shape, "muon", cfg), init_state(w_ref.shape, "muon", cfg)
        for g in gradient_stream(157, (8, 5), steps):
            read = (s_ref.q_l, s_ref.q_r)
            w_new = step_soap(w_new, s_new, g, 0.01, cfg)
            w_ref = eager_refresh_step_soap(w_ref, s_ref, g, 0.01, cfg)
            assert np.array_equal(w_new, w_ref)
            for name in ("m", "v", "gram_l", "gram_r"):
                assert np.array_equal(getattr(s_new, name), getattr(s_ref, name)), name
            assert s_new.controller == s_ref.controller
            assert s_new.last_sharp_mass == s_ref.last_sharp_mass
        # the basis held after the run is the one its last step read
        assert np.array_equal(s_new.q_l, read[0]) and np.array_equal(s_new.q_r, read[1])


def eager_refresh_step_soap(w, state, g, lr, cfg):
    """step_soap with the QR refresh at the end of every qr_refresh_every-th
    step, the last step of a run included: the eager order that step_soap's
    refresh at the start of the reading step must reproduce bit for bit."""
    new_w = step_soap(w, state, g, lr, dataclasses.replace(cfg, qr_refresh_every=10 ** 9))
    if state.step % cfg.qr_refresh_every == 0:
        state.q_l, _ = qr_decompose(state.gram_l @ state.q_l)
        state.q_r, _ = qr_decompose(state.gram_r @ state.q_r)
    return new_w


def uniform_gradients(seed, shape, steps):
    """Streams where every entry of a step's gradient is the same positive
    value, so the rotated second moment stays exactly uniform."""
    rng = SplitMix64(seed)
    return [float(0.1 + rng.uniform(1)[0]) * np.ones(shape) for _ in range(steps)]


def force_flat_mask(state):
    # thresholds above the uniform second moment make the mask identically 0
    state.controller = dataclasses.replace(state.controller, l_s=5.0, l_smooth=4.0)


class TestSoapLite:
    def test_trivial_policy_recovers_soap_bitwise(self):
        grads = gradient_stream(101, (8, 4), 100)
        cfg_s = cfg_for("soap", qr_refresh_every=10)
        cfg_l = cfg_for("soap_lite", qr_refresh_every=10, lite=LitePolicy())
        w_s = w_l = np.ones((8, 4))
        s_s, s_l = init_state(w_s.shape, "muon", cfg_s), init_state(w_l.shape, "muon", cfg_l)
        for g in grads:
            w_s = step_soap(w_s, s_s, g, 0.01, cfg_s)
            w_l = step_soap(w_l, s_l, g, 0.01, cfg_l)
            assert np.array_equal(w_s, w_l)

    def test_full_sharp_mask_blends_gradient(self):
        # uniform gradient puts every entry of v exactly at the mean, which the
        # default thresholds classify as sharp; the update becomes
        # beta1*g/denom + m/denom in the identity basis
        g = 0.5 * np.ones((4, 4))
        pol = LitePolicy(chi=2.0, beta1=0.5, beta2=0.75)
        cfg = cfg_for("soap_lite", theta=0.9, beta_v=0.99, weight_decay=0.0,
                      qr_refresh_every=10 ** 6, lite=pol)
        w = np.zeros((4, 4))
        state = init_state(w.shape, "muon", cfg)
        w = step_soap(w, state, g, 0.25, cfg)
        m = (1.0 - cfg.theta) * g
        denom = np.sqrt((1.0 - cfg.beta_v) * g * g) + cfg.epsilon
        expected = -0.25 * (pol.beta1 * g / denom + m / denom)
        np.testing.assert_allclose(w, expected, rtol=1e-13)
        assert state.last_sharp_mass == 16.0

    def test_zero_mask_doubles_adam_direction(self):
        g = 0.5 * np.ones((4, 4))
        cfg_l = cfg_for("soap_lite", weight_decay=0.0, qr_refresh_every=10 ** 6,
                        lite=LitePolicy(chi=2.0))
        cfg_s = cfg_for("soap", weight_decay=0.0, qr_refresh_every=10 ** 6)
        w_l = w_s = np.zeros((4, 4))
        s_l, s_s = init_state(w_l.shape, "muon", cfg_l), init_state(w_s.shape, "muon", cfg_s)
        force_flat_mask(s_l)
        w_l = step_soap(w_l, s_l, g, 0.1, cfg_l)
        w_s = step_soap(w_s, s_s, g, 0.1, cfg_s)
        assert np.array_equal(w_l, 2.0 * w_s)
        assert s_l.last_sharp_mass == 0.0


class TestAdamLite:
    def test_trivial_policy_recovers_adamw_bitwise(self):
        grads = gradient_stream(103, (3, 4), 100)
        cfg_a = cfg_for("adamw")
        cfg_l = cfg_for("soap_lite", lite=LitePolicy())
        w_a = w_l = np.ones((3, 4))
        s_a, s_l = init_state(w_a.shape, "adam", cfg_a), init_state(w_l.shape, "embedding", cfg_l)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_l = step_adamw(w_l, s_l, g, 0.01, cfg_l)
            assert np.array_equal(w_a, w_l)

    def test_flat_mask_amplifies_chi_times_over_trajectory(self):
        grads = uniform_gradients(107, (3, 4), 20)
        cfg_a = cfg_for("adamw", weight_decay=0.0)
        cfg_l = cfg_for("soap_lite", weight_decay=0.0, lite=LitePolicy(chi=4.0))
        w_a = w_l = np.zeros((3, 4))
        s_a, s_l = init_state(w_a.shape, "adam", cfg_a), init_state(w_l.shape, "embedding", cfg_l)
        force_flat_mask(s_l)
        for g in grads:
            w_a = step_adamw(w_a, s_a, g, 0.01, cfg_a)
            w_l = step_adamw(w_l, s_l, g, 0.01, cfg_l)
            assert np.array_equal(w_l, 4.0 * w_a)


class TestLiteOnKroneckerQuadratic:
    """LITE against its baseline on f(W) = 1/2 sum a_i b_j (W - W*)_ij^2, one
    16x16 muon-role block whose Hessian diag(a) kron diag(b) has a known sharp
    subspace: a = b = (10, 10, 0.3 x 14). Each config scores the fewest steps
    to 1% of the start loss over an lr grid; the run is deterministic, so the
    counts are exact (soap 72, soap_lite 47, muon 110, muon_lite 88)."""

    A = np.array([10.0, 10.0] + [0.3] * 14)
    CURVATURE = np.outer(A, A)
    W_STAR = SplitMix64(1).normal((16, 16))
    LRS = (0.003, 0.01, 0.03, 0.1, 0.3)
    MAX_STEPS = 400

    def objective(self, mats):
        r = mats["W"] - self.W_STAR
        return 0.5 * float((self.CURVATURE * r * r).sum()), {"W": self.CURVATURE * r}

    def steps_to_target(self, cfg, lr, cap):
        """Steps until the loss is at most 1% of the start loss, or inf when
        the run needs more than cap."""
        land = Landscape({"W": BlockLayout(0, (16, 16), "muon")}, np.zeros(256), self.objective)
        mats = land.unpack(land.initial_point)
        states = init_states(land.blocks, cfg)
        sched = ScheduleSpec("constant", lr, 0, self.MAX_STEPS)
        loss, grads = land.loss_and_block_grads(mats, None)
        target = 0.01 * loss
        for step in range(1, cap + 1):
            route_and_step(mats, states, grads, step, sched, cfg)
            loss, grads = land.loss_and_block_grads(mats, None)
            if loss <= target:
                return step
        return math.inf

    def best_steps(self, family, lite=None):
        cfg = OptimizerConfig(family, weight_decay=0.0, clip_norm=math.inf, lite=lite)
        best = self.MAX_STEPS
        for lr in self.LRS:
            # a run that cannot beat the best so far does not change the score
            best = min(best, self.steps_to_target(cfg, lr, best))
        return best

    def test_lite_needs_fewer_steps_than_its_baseline(self):
        lite = LitePolicy(chi=1.0, beta2=1.0, r_s=0.25)
        soap, soap_lite = self.best_steps("soap"), self.best_steps("soap_lite", lite)
        muon, muon_lite = self.best_steps("muon"), self.best_steps("muon_lite", lite)
        assert soap_lite <= 0.75 * soap, (soap_lite, soap)
        assert muon_lite < muon, (muon_lite, muon)

    @pytest.mark.parametrize("lr", [0.003, 0.01, 0.03, 0.1])
    @pytest.mark.parametrize("chi", [1.0, 4.0])
    def test_muon_lite_projector_covers_the_sharp_columns(self, chi, lr):
        # the Hessian's sharp columns are e0 and e1; P is recomputed from the
        # state the step reads and leaves, as step_muon forms it
        cfg = OptimizerConfig("muon_lite", weight_decay=0.0, clip_norm=math.inf,
                              lite=LitePolicy(chi=chi, beta2=1.0, r_s=0.25))
        land = Landscape({"W": BlockLayout(0, (16, 16), "muon")}, np.zeros(256), self.objective)
        mats = land.unpack(land.initial_point)
        states = init_states(land.blocks, cfg)
        sched = ScheduleSpec("constant", lr, 0, self.MAX_STEPS)
        sharp = np.eye(16)[:, :2]
        for step in range(1, 26):
            _, grads = land.loss_and_block_grads(mats, None)
            ctrl = states["W"].controller
            route_and_step(mats, states, grads, step, sched, cfg)
            u = cfg.theta * states["W"].m + grads["W"]
            p = composite_sharp_projection(u, ctrl, ns_polar(u))[0]
            evals, vecs = sym_eig(0.5 * (p + p.T))
            basis = vecs[:, :max(2, int((evals > 0.5).sum()))]
            assert coverage_score(sharp, basis) >= 0.85, (step, basis.shape[1])


class TestTrivialPolicySkip:
    @pytest.mark.parametrize("family,role,stepper", [
        ("muon_lite", "muon", step_muon),
        ("soap_lite", "muon", step_soap),
        ("soap_lite", "embedding", step_adamw),
    ], ids=["muon_lite", "soap_lite", "adam_lite"])
    @pytest.mark.parametrize("policy,blends_per_step", [
        (LitePolicy(), 0),
        (LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0), 1),
    ], ids=["trivial", "chi4"])
    def test_blend_runs_only_for_a_non_trivial_policy(self, monkeypatch, family, role,
                                                      stepper, policy, blends_per_step):
        # a trivial policy's weights are exactly identity and zero, so only
        # this count shows whether the stage skipped the blend
        import flatopt.optim as optim_mod

        calls = []
        lite_weights = optim_mod.lite_weights
        monkeypatch.setattr(optim_mod, "lite_weights",
                            lambda *args: calls.append(args) or lite_weights(*args))
        cfg = cfg_for(family, lite=policy,
                      **({"qr_refresh_every": 3} if family == "soap_lite" else {}))
        w = np.ones((6, 4))
        state = init_state(w.shape, role, cfg)
        for g in gradient_stream(113, (6, 4), 10):
            w = stepper(w, state, g, 0.01, cfg)
        assert len(calls) == 10 * blends_per_step
        assert state.last_sharp_mass is not None


class TestRouting:
    def test_stepper_table(self):
        expected = {}
        for family in ("adamw", "n_adamw", "lion", "mars", "ademamix"):
            for role in ROLES:
                expected[(family, role)] = family
        for family, matrix_kind in (("muon", "muon"), ("soap", "soap")):
            for role in ROLES:
                expected[(family, role)] = matrix_kind if role == "muon" else "adamw"
        for family, matrix_kind in (("muon_lite", "muon_lite"), ("soap_lite", "soap_lite")):
            expected[(family, "muon")] = matrix_kind
            expected[(family, "embedding")] = "adam_lite"
            expected[(family, "adam")] = "adamw"
            expected[(family, "output")] = "adamw"
        lite = LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)
        for (family, role), kind in expected.items():
            cfg = cfg_for(family, lite=lite if family in LITE_FAMILIES else None)
            assert init_state((3, 2), role, cfg).kind is KINDS[kind]

    def test_controllers_follow_stepper_labels(self, tmp_path):
        # a controller in the state is what switches on the LITE stage of
        # step_muon, step_soap and step_adamw, so it must exist exactly for
        # the lite labels, of the type its label names; a lite family's
        # output block is plain adamw
        controllers = {"muon_lite": RankController, "soap_lite": SoapMaskController,
                       "adam_lite": SoapMaskController}
        lite = LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)
        cfg_a = cfg_for("adamw")
        grads = gradient_stream(131, (3, 2), 30)
        sched = ScheduleSpec("constant", lr_max=0.01, warmup_steps=0, total_steps=30)
        for family in FAMILIES:
            cfg = cfg_for(family, lite=lite if family in LITE_FAMILIES else None)
            for role in ROLES:
                state = init_state((3, 2), role, cfg)
                label = next(label for label, kind in KINDS.items() if state.kind is kind)
                assert state.kind.controller is controllers.get(label), (family, role)
                assert type(state.controller) is controllers.get(label, type(None)), (family, role)
            if family in LITE_FAMILIES:
                mats = {"head": np.ones((3, 2))}
                ref = np.ones((3, 2))
                states = init_states(layouts(head=((3, 2), "output")), cfg)
                ref_state = init_state((3, 2), "output", cfg_a)
                for k, g in enumerate(grads, start=1):
                    route_and_step(mats, states, {"head": g}, k, sched, cfg)
                    ref = step_adamw(ref, ref_state, g, 0.01, cfg_a)
                    assert np.array_equal(mats["head"], ref)
        # the CSV shows each controller's scales on its own block only: the
        # rank block (layer1) fills l, the mask block (layer0) l_s and l_smooth
        path = tmp_path / "run.csv"
        run_experiment(parse_config(f"""\
run.seed = 7
run.steps = 5
run.output_path = {path}
landscape.kind = mlp
landscape.widths = 6, 8, 8, 4
optimizer.family = muon_lite
schedule.kind = constant
schedule.lr_max = 0.001
"""))
        header, *rows = path.read_text().splitlines()
        filled = {"l": {"layer1"}, "l_s": {"layer0"}, "l_smooth": {"layer0"}}
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            for col, blocks in filled.items():
                assert {name for name in ("layer0", "layer1", "layer2")
                        if cells[f"{name}.{col}"] != "nan"} == blocks, col

    def test_every_knob_but_clip_norm_is_a_stepper_key(self):
        # route_and_step reads clip_norm for every family; a stepper reads the rest
        knobs = {f.name for f in dataclasses.fields(OptimizerConfig)} - {"family", "lite"}
        assert set(FAMILY_KEYS) == knobs - {"clip_norm"}

    @pytest.mark.parametrize("key,value", [
        ("theta", 0.5), ("beta_v", 0.5), ("epsilon", 0.5), ("weight_decay", 0.5),
        ("nesterov_beta", 0.9), ("mars_gamma", 0.5), ("ademamix_kappa", 7.0),
        ("alpha_fast", 0.2), ("alpha_slow", 0.01), ("theta_shampoo", 0.5),
        ("qr_refresh_every", 3),
    ])
    def test_family_keys_name_what_the_steppers_read(self, key, value):
        # OptimizerConfig rejects a FAMILY_KEYS entry for every family outside
        # its readers; set on a built config anyway, it must move exactly the
        # readers' trajectories
        lite = LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)
        shapes = {"muon": (4, 3), "adam": (3, 2), "embedding": (5, 3), "output": (3, 2)}
        grads = {role: gradient_stream(137 + i, shape, 12) for i, (role, shape) in enumerate(shapes.items())}
        sched = ScheduleSpec("constant", lr_max=0.01, warmup_steps=0, total_steps=12)

        def run(cfg):
            mats = {role: np.ones(shape) for role, shape in shapes.items()}
            states = init_states(layouts(**{role: (shape, role) for role, shape in shapes.items()}), cfg)
            for k in range(12):
                route_and_step(mats, states, {role: grads[role][k] for role in shapes}, k + 1, sched, cfg)
            return np.concatenate([mats[role].ravel() for role in shapes])

        for family in FAMILIES:
            extra = {"lite": lite} if family in LITE_FAMILIES else {}
            if family not in FAMILY_KEYS[key]:
                with pytest.raises(ValueError, match=f"optimizer.{key} is read only by"):
                    cfg_for(family, **extra, **{key: value})
            keyed = cfg_for(family, **extra)
            object.__setattr__(keyed, key, value)
            moved = not np.array_equal(run(cfg_for(family, **extra)), run(keyed))
            assert moved == (family in FAMILY_KEYS[key]), family

    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_allocated_array_is_used(self, family, role):
        # init_state allocates the arrays KINDS lists for the routed kind; two
        # steps with non-zero gradients (the second opening with a QR refresh)
        # must move each of them, or the table lists state its stepper never reads
        extra = {"lite": LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)} if family in LITE_FAMILIES else {}
        if family in FAMILY_KEYS["qr_refresh_every"]:
            extra["qr_refresh_every"] = 1
        cfg = cfg_for(family, **extra)
        states = init_states(layouts(b=((4, 3), role)), cfg)
        initial = init_state((4, 3), role, cfg)
        sched = ScheduleSpec("constant", lr_max=0.01, warmup_steps=0, total_steps=2)
        mats = {"b": np.ones((4, 3))}
        for k, g in enumerate(gradient_stream(149, (4, 3), 2), start=1):
            route_and_step(mats, states, {"b": g}, k, sched, cfg)
        arrays = [f.name for f in dataclasses.fields(initial)
                  if isinstance(getattr(initial, f.name), np.ndarray)]
        assert "m" in arrays
        for name in arrays:
            assert not np.array_equal(getattr(states["b"], name), getattr(initial, name)), name

    def test_name_set_mismatch_rejected(self):
        cfg = cfg_for("adamw")
        states = init_states(layouts(a=((1, 2), "adam")), cfg)
        sched = ScheduleSpec("constant", lr_max=0.1, warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError, match="share one name set"):
            route_and_step({"a": np.ones((1, 2))}, states, {"b": np.ones((1, 2))}, 1, sched, cfg)

    def test_clip_is_joint_across_blocks(self):
        cfg = OptimizerConfig(family="adamw", clip_norm=1.0, weight_decay=0.0)
        mats = {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))}
        states = init_states(layouts(a=((1, 2), "adam"), b=((1, 2), "adam")), cfg)
        grads = {"a": np.array([[3.0, 0.0]]), "b": np.array([[0.0, 4.0]])}
        sched = ScheduleSpec("constant", lr_max=0.1, warmup_steps=0, total_steps=10)
        route_and_step(mats, states, grads, 1, sched, cfg)
        ref = step_adamw(np.zeros((1, 2)), init_state((1, 2), "adam", cfg),
                         grads["a"] * (1.0 / 5.0), 0.1, cfg)
        assert np.array_equal(mats["a"], ref)

    def test_insertion_order_is_irrelevant(self):
        cfg = cfg_for("adamw")
        sched = ScheduleSpec("constant", lr_max=0.05, warmup_steps=0, total_steps=40)
        grads_list = gradient_stream(113, (2, 2), 30)

        def run(names):
            mats = {n: np.ones((2, 2)) for n in names}
            states = init_states(layouts(**{n: ((2, 2), "adam") for n in names}), cfg)
            for k, g in enumerate(grads_list, start=1):
                route_and_step(mats, states, {n: g * (i + 1) for i, n in enumerate(sorted(names))},
                               k, sched, cfg)
            return mats

        fwd = run(["a", "b", "c"])
        rev = run(["c", "b", "a"])
        for name in ("a", "b", "c"):
            assert np.array_equal(fwd[name], rev[name])

    def test_lr_follows_schedule_warmup(self):
        cfg = cfg_for("adamw", weight_decay=0.5)
        sched = ScheduleSpec("constant", lr_max=1.0, warmup_steps=10, total_steps=100)
        mats = {"a": 2.0 * np.ones((1, 1))}
        states = init_states(layouts(a=((1, 1), "adam")), cfg)
        route_and_step(mats, states, {"a": np.zeros((1, 1))}, 5, sched, cfg)
        assert mats["a"][0, 0] == 2.0 - 0.5 * (0.5 * 2.0)

    def test_output_blocks_stay_on_adamw(self):
        grads = gradient_stream(127, (3, 2), 30)
        cfg_l = cfg_for("soap_lite", lite=LitePolicy(chi=8.0, beta2=1.0))
        cfg_a = cfg_for("adamw")
        sched = ScheduleSpec("constant", lr_max=0.01, warmup_steps=0, total_steps=30)
        mats, ref = {"head": np.ones((3, 2))}, {"head": np.ones((3, 2))}
        states = init_states(layouts(head=((3, 2), "output")), cfg_l)
        ref_states = init_states(layouts(head=((3, 2), "output")), cfg_a)
        for k, g in enumerate(grads, start=1):
            route_and_step(mats, states, {"head": g}, k, sched, cfg_l)
            route_and_step(ref, ref_states, {"head": g}, k, sched, cfg_a)
            assert np.array_equal(mats["head"], ref["head"])


class TestSteppersReturnNewMatrices:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_route_and_step_writes_into_no_matrix(self, family):
        # every stepper returns the block's new matrix, so five steps run on
        # read-only matrices and gradients; soap refreshes its basis by QR at
        # the start of steps 3 and 5
        extra = {"lite": LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)} if family in LITE_FAMILIES else {}
        if family in FAMILY_KEYS["qr_refresh_every"]:
            extra["qr_refresh_every"] = 2
        cfg = cfg_for(family, **extra)
        shapes = {"muon": (4, 3), "adam": (3, 2), "embedding": (5, 3), "output": (3, 2)}
        mats = {role: np.ones(shape) for role, shape in shapes.items()}
        states = init_states(layouts(**{role: (shape, role) for role, shape in shapes.items()}), cfg)
        streams = {role: gradient_stream(151 + i, shape, 5) for i, (role, shape) in enumerate(shapes.items())}
        sched = ScheduleSpec("constant", lr_max=0.01, warmup_steps=0, total_steps=5)
        for k in range(5):
            grads = {role: streams[role][k] for role in shapes}
            for a in (*mats.values(), *grads.values()):
                a.flags.writeable = False
            before = {role: m.copy() for role, m in mats.items()}
            route_and_step(mats, states, grads, k + 1, sched, cfg)
            for role in shapes:
                assert not np.array_equal(mats[role], before[role]), (role, k)
        if family in FAMILY_KEYS["qr_refresh_every"]:
            assert not np.array_equal(states["muon"].q_l, np.eye(4))


class TestDecoupledDecay:
    families_and_roles = [
        ("adamw", "adam", {}),
        ("n_adamw", "adam", {"nesterov_beta": 0.5}),
        ("lion", "adam", {}),
        ("mars", "adam", {"mars_gamma": 0.5}),
        ("ademamix", "adam", {"ademamix_kappa": 2.0}),
        ("muon", "muon", {}),
        ("soap", "muon", {}),
        ("muon_lite", "muon", {"lite": LitePolicy(chi=2.0, beta2=0.5)}),
        ("soap_lite", "muon", {"lite": LitePolicy(chi=2.0, beta2=0.5)}),
    ]

    @pytest.mark.parametrize("family,role,extra", families_and_roles)
    def test_zero_gradient_gives_exact_product(self, family, role, extra):
        # lr and lambda chosen so 1 - lr*lambda = 31/32 is exact; the iterated
        # update and the product form then round identically at every step
        lr, wd = 0.125, 0.25
        w0 = np.array([[1.5, -2.0], [0.5, 3.0]])
        cfg = OptimizerConfig(family=family, weight_decay=wd, clip_norm=1e9, **extra)
        mats = {"b": w0}
        states = init_states(layouts(b=((2, 2), role)), cfg)
        sched = ScheduleSpec("constant", lr_max=lr, warmup_steps=0, total_steps=30)
        expected = w0.copy()
        for k in range(1, 31):
            route_and_step(mats, states, {"b": np.zeros((2, 2))}, k, sched, cfg)
            expected = expected * (1.0 - lr * wd)
            assert np.array_equal(mats["b"], expected)

    def test_generic_constants_follow_product_closely(self):
        wd = 0.1
        sched = ScheduleSpec("cos", lr_max=3e-3, warmup_steps=5, total_steps=40)
        cfg = OptimizerConfig(family="adamw", weight_decay=wd, clip_norm=1e9)
        mats = {"b": np.full((2, 3), 2.0)}
        states = init_states(layouts(b=((2, 3), "adam")), cfg)
        product = 1.0
        for k in range(1, 41):
            route_and_step(mats, states, {"b": np.zeros((2, 3))}, k, sched, cfg)
            product *= 1.0 - lr_at(sched, k) * wd
        np.testing.assert_allclose(mats["b"], 2.0 * product, rtol=1e-12)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family 'sgd' is unknown"):
            OptimizerConfig(family="sgd")

    @pytest.mark.parametrize("field,value", [
        ("theta", 1.0), ("theta", -0.1), ("beta_v", 1.0), ("theta_shampoo", 2.0),
    ])
    def test_ema_decays_must_lie_in_unit_interval(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(family="adamw", **{field: value})

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            OptimizerConfig(family="adamw", epsilon=0.0)

    def test_weight_decay_nonnegative(self):
        with pytest.raises(ValueError):
            OptimizerConfig(family="adamw", weight_decay=-0.1)

    def test_clip_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(family="adamw", clip_norm=0.0)

    def test_refresh_interval_at_least_one(self):
        with pytest.raises(ValueError):
            OptimizerConfig(family="soap", qr_refresh_every=0)

    @pytest.mark.parametrize("field,value", [
        ("alpha_fast", 0.0), ("alpha_fast", -0.5), ("alpha_fast", 1.5), ("alpha_slow", 0.0),
        ("ademamix_kappa", -1.0),
    ])
    def test_ademamix_knob_ranges(self, field, value):
        # the bounds AdemamixFlowConfig puts on the same flow
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(family="ademamix", **{field: value})

    def test_lite_families_require_policy(self):
        with pytest.raises(ValueError, match="requires a lite policy"):
            OptimizerConfig(family="muon_lite")

    @pytest.mark.parametrize("family", ["adamw", "n_adamw", "lion", "mars", "ademamix", "muon", "soap"])
    def test_policy_rejected_without_lite_stage(self, family):
        # a family with no LITE stage would run as if the policy were absent
        with pytest.raises(ValueError, match="takes no lite policy"):
            OptimizerConfig(family=family, lite=LitePolicy(chi=4.0))

    def test_policy_chi_at_least_one(self):
        with pytest.raises(ValueError, match="chi"):
            LitePolicy(chi=0.5)

    def test_policy_beta_ordering(self):
        with pytest.raises(ValueError, match="beta2 must be ≥ beta1"):
            LitePolicy(beta1=0.5, beta2=0.25)

    def test_policy_negative_beta1_allowed(self):
        pol = LitePolicy(beta1=-0.5, beta2=0.0)
        assert pol.beta1 == -0.5

    def test_policy_ratio_ranges(self):
        with pytest.raises(ValueError, match="r_s"):
            LitePolicy(r_s=0.0)
        with pytest.raises(ValueError, match="d_smooth_ratio"):
            LitePolicy(d_smooth_ratio=1.0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="kind 'linear' is not a schedule kind"):
            ScheduleSpec("linear", 1.0, 0, 10)
        with pytest.raises(ValueError):
            ScheduleSpec("constant", -1.0, 0, 10)
        with pytest.raises(ValueError):
            ScheduleSpec("constant", 1.0, 11, 10)
        with pytest.raises(ValueError, match="warmup_steps < total_steps"):
            ScheduleSpec("cos", 1.0, 10, 10)
        with pytest.raises(ValueError, match="decay phase"):
            ScheduleSpec("wsd", 1.0, 9, 10)

    def test_block_requires_matrix_and_known_role(self):
        cfg = cfg_for("adamw")
        with pytest.raises(ValueError):
            init_state((3,), "adam", cfg)
        with pytest.raises(ValueError, match="unknown role"):
            init_state((1, 3), "conv", cfg)

    def test_family_list_is_public(self):
        assert set(FAMILIES) == {
            "adamw", "n_adamw", "lion", "mars", "ademamix",
            "muon", "soap", "muon_lite", "soap_lite",
        }


def checked_config_bases():
    """(type, field, a valid instance) for every field of the eight types that
    call check_fields; an OptimizerConfig field gets a family that reads it."""
    spec = MlpSpec((6, 8, 8, 4))
    schedule = ScheduleSpec("constant", 0.1, 0, 10)
    bases = [LitePolicy(), schedule, spec, RiverValleySpec(2, 2, 10.0), FlowParams(alpha=0.1),
             AdemamixFlowConfig(0.1, 1e-3, 2.0, 0.05),
             ExperimentConfig(1, 10, spec, OptimizerConfig("adamw"), schedule)]
    for base in bases:
        for field in dataclasses.fields(base):
            yield type(base), field, base
    for field in dataclasses.fields(OptimizerConfig):
        yield OptimizerConfig, field, OptimizerConfig(FAMILY_KEYS.get(field.name, ("adamw",))[0])


# bad values per number annotation, less any [...]; a tuple[int, ...] field
# gets them as its first item
BAD_VALUES = {"int": (2.5, "3"), "tuple": (2.5, "3"),
              "float": (math.nan, math.inf, -math.inf, "0.5")}

FIELD_CASES = [pytest.param(base, field.name, value,
                            id=f"{cls.__name__}.{field.name}={value!r}")
               for cls, field, base in checked_config_bases()
               for value in BAD_VALUES.get(field.type.partition("[")[0], ())]


class TestCheckFields:
    @pytest.mark.parametrize("base,name,value", FIELD_CASES)
    def test_number_field_rejects_wrong_type_or_non_finite(self, base, name, value):
        if isinstance(getattr(base, name), tuple):
            value = (value,) + getattr(base, name)[1:]
        if (name, value) == ("clip_norm", math.inf):  # inf turns clipping off
            assert dataclasses.replace(base, clip_norm=value).clip_norm == math.inf
            return
        with pytest.raises(ValueError, match=f"^{name} must be "):
            dataclasses.replace(base, **{name: value})

    def test_cases_cover_the_eight_checked_types(self):
        assert len({type(param.values[0]) for param in FIELD_CASES}) == 8
        annotations = {field.type for _, field, _ in checked_config_bases()}
        assert annotations >= {"int", "float", "tuple[int, ...]"}

    def test_real_field_rejects_an_int_no_float_holds(self):
        # 10**400 lay in [0, inf) by comparison, and the run died with
        # OverflowError at its first step
        with pytest.raises(ValueError, match="^lr_max must fit in a float"):
            dataclasses.replace(ScheduleSpec("constant", 0.1, 0, 10), lr_max=10**400)
        with pytest.raises(ValueError, match="^weight_decay must fit in a float"):
            OptimizerConfig("adamw", weight_decay=-10**400)
        # an int field still judges an int of any size exactly
        spec, schedule = MlpSpec((6, 8, 8, 4)), ScheduleSpec("constant", 0.1, 0, 10)
        assert ExperimentConfig(2**64 - 1, 10, spec, OptimizerConfig("adamw"), schedule).seed \
            == 2**64 - 1
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 18446744073709551616\), got 1"):
            ExperimentConfig(10**400, 10, spec, OptimizerConfig("adamw"), schedule)

    @pytest.mark.parametrize("key", ["chii", "kind"])
    def test_interval_key_must_be_a_number_field(self, key):
        # a misspelled key would otherwise drop its check silently
        with pytest.raises(TypeError, match=rf"ScheduleSpec has no number field \['{key}'\]"):
            check_fields(ScheduleSpec("constant", 0.1, 0, 10), {key: "[1, inf)"})

    @pytest.mark.parametrize("value,ok", [
        (0.0, False), (1e-300, True), (1.0, True), (math.inf, True), (-math.inf, False),
    ])
    def test_interval_bounds(self, value, ok):
        # clip_norm lies in (0, inf]: open at 0, closed at inf
        if ok:
            assert OptimizerConfig("adamw", clip_norm=value).clip_norm == value
        else:
            with pytest.raises(ValueError, match=rf"^clip_norm must be in \(0, inf\], got {value}$"):
                OptimizerConfig("adamw", clip_norm=value)
