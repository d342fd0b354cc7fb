"""Continuous-time flows, the semi-implicit discretization, the two Nesterov
formulations, and the two-timescale momentum identity."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatopt.dynamics import (
    FINE_STEP,
    AdemamixFlowConfig,
    DynamicsState,
    FlowParams,
    ademamix_flow_trajectory,
    ademamix_ode_residual,
    flow_rhs,
    nesterov_forms_trace,
    rk4_flow,
    semi_implicit_step,
)
from flatopt.linalg import qr_decompose
from flatopt.optim import LitePolicy, OptimizerConfig, init_state, step_adamw, step_soap
from flatopt.quadratic import QuadraticSpec, simulate_recurrence
from flatopt.rng import SplitMix64
from flatopt.subspace import smoothed_sharp_mask


FLOWS = pytest.mark.parametrize("flow", [
    lambda state, spec, params: flow_rhs(state, spec, params),
    lambda state, spec, params: semi_implicit_step(state, spec, params, 0.1),
    lambda state, spec, params: rk4_flow(state, spec, params, t_end=1.0),
], ids=["flow_rhs", "semi_implicit_step", "rk4_flow"])


class TestStateAndParams:
    def test_state_requires_matching_vectors(self):
        with pytest.raises(ValueError, match=re.escape("m must have shape (3,), got (2,)")):
            DynamicsState(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match=re.escape("w must have shape (>=1,), got (2, 2)")):
            DynamicsState(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("state_dim,eigenvalues", [(1, [3.0, 2.0, 1.0]), (2, [1.0])],
                             ids=["1-D state", "2-D state"])
    @FLOWS
    def test_state_dimension_must_match_the_quadratic(self, flow, state_dim, eigenvalues):
        # numpy would broadcast the state against a quadratic of another
        # dimension and return a state of the wrong size, or none at all
        state = DynamicsState(np.ones(state_dim), np.zeros(state_dim))
        with pytest.raises(ValueError, match=f"state has dimension {state_dim}, "
                                             f"the quadratic {len(eigenvalues)}"):
            flow(state, QuadraticSpec(eigenvalues), FlowParams(alpha=0.2))

    @pytest.mark.parametrize("name,params", [
        ("projector_sharp", FlowParams(alpha=0.2, projector_sharp=np.eye(2))),
        ("metric", FlowParams(alpha=0.2, metric=np.eye(2))),
    ], ids=["projector", "metric"])
    @FLOWS
    def test_projector_and_metric_must_match_the_quadratic(self, flow, name, params):
        # numpy would stop at the first product with a core-dimension mismatch
        state = DynamicsState(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match=f"{name} has dimension 2, the quadratic 3"):
            flow(state, QuadraticSpec([3.0, 2.0, 1.0]), params)

    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError, match="^w must be finite, got nan$"):
            DynamicsState(np.array([1.0, np.nan]), np.zeros(2))

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_state_rejects_non_finite_clock(self, t):
        with pytest.raises(ValueError, match=rf"^t must be in \(-inf, inf\), got {t}$"):
            DynamicsState(np.ones(1), np.zeros(1), t=t)

    def test_beta_pair_broadcasts_scalar(self):
        assert FlowParams(alpha=0.1, beta=0.3).beta_pair() == (0.3, 0.3)
        split = FlowParams(alpha=0.1, beta=(0.1, 0.7), projector_sharp=np.eye(2))
        assert split.beta_pair() == (0.1, 0.7)

    def test_callable_eta_rejected(self):
        # eta is one constant; a schedule of time is not a coefficient
        with pytest.raises(ValueError, match="^eta must be a real number, got <function"):
            FlowParams(alpha=0.1, eta=lambda t: t)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, inf\), got -0.1$"):
            FlowParams(alpha=-0.1)

    @pytest.mark.parametrize("beta,message", [
        ("0.1", "a real number, got '0.1'"), ([0.1, 0.2], "a real number, got [0.1, 0.2]"),
        ((0.1, None), "a real number, got None"), ((0.1,), "a real number, got (0.1,)"),
        ((0.1, 0.2, 0.3), "a real number, got (0.1, 0.2, 0.3)"), (None, "a real number, got None"),
        (math.nan, "in (-inf, inf), got nan"), ((0.1, math.inf), "in (-inf, inf), got inf"),
    ])
    def test_beta_must_be_a_real_or_a_pair_of_reals(self, beta, message):
        with pytest.raises(ValueError, match=re.escape(f"beta must be {message}") + "$"):
            FlowParams(alpha=0.1, beta=beta, projector_sharp=np.eye(1))

    @pytest.mark.parametrize("bad", [{"alpha": math.nan}, {"beta": math.inf},
                                     {"eta": math.nan}, {"chi": math.inf}])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            FlowParams(**{"alpha": 0.1, "projector_sharp": np.eye(1), **bad})

    def test_non_spd_metric_rejected(self):
        with pytest.raises(ValueError, match="symmetric positive definite"):
            FlowParams(alpha=0.1, metric=np.diag([1.0, -1.0]))
        # F^{-1} of a non-symmetric F is not what the flow would integrate
        with pytest.raises(ValueError, match="not symmetric"):
            FlowParams(alpha=0.1, metric=np.array([[2.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("f,message", [
        (np.ones((2, 3)), "metric must be square, got shape (2, 3)"),
        (np.ones(3), "metric must have shape (>=1, >=1), got (3,)"),
    ], ids=["2x3", "vector"])
    def test_non_square_metric_rejected(self, f, message):
        # sym_eig's messages do not name the metric
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FlowParams(alpha=0.1, metric=f)

    @pytest.mark.parametrize("name", ["projector_sharp", "metric"])
    @pytest.mark.parametrize("a", [np.full((2, 2), math.nan), np.full((2, 2), math.inf),
                                   np.diag([1.0, math.nan]), np.diag([-math.inf, 1.0])],
                             ids=["nan", "inf", "one-nan", "one-minus-inf"])
    def test_non_finite_matrix_rejected(self, name, a):
        # NaN fails every comparison, so a NaN projector passed the symmetric
        # and idempotent checks and the first step failed on the state
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            FlowParams(alpha=0.1, **{name: a})

    @pytest.mark.parametrize("name", ["projector_sharp", "metric"])
    def test_empty_matrix_rejected(self, name):
        # numpy's max of P failed with its own "zero-size array" message
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must have shape (>=1, >=1), got (0, 0)") + "$"):
            FlowParams(alpha=0.1, **{name: np.zeros((0, 0))})

    def test_settings_without_effect_rejected(self):
        # without a projector P = I, so chi and beta2 never reach the flow
        with pytest.raises(ValueError, match="projector_sharp"):
            FlowParams(alpha=0.1, chi=2.0)
        with pytest.raises(ValueError, match="projector_sharp"):
            FlowParams(alpha=0.1, beta=(0.1, 0.7))
        assert FlowParams(alpha=0.1, beta=(0.4, 0.4)).beta_pair() == (0.4, 0.4)
        assert FlowParams(alpha=0.1, chi=2.0, projector_sharp=np.eye(1)).chi == 2.0


class TestFirstOrderRhs:
    def test_quadratic_example(self):
        spec = QuadraticSpec([2.0, 1.0])
        state = DynamicsState(np.ones(2), np.array([0.5, 0.5]))
        params = FlowParams(alpha=0.3, beta=0.5, eta=0.1)
        wdot, mdot = flow_rhs(state, spec, params)
        g = np.array([2.0, 1.0])
        assert np.array_equal(wdot, -0.1 * (state.m + 0.5 * g))
        assert np.array_equal(mdot, -0.3 * state.m + g)

    def test_diagonal_metric_rescales_wdot(self):
        spec = QuadraticSpec([2.0, 1.0])
        state = DynamicsState(np.ones(2), np.zeros(2))
        params = FlowParams(alpha=0.0, beta=1.0, eta=1.0,
                            metric=np.diag([4.0, 1.0]))
        wdot, _ = flow_rhs(state, spec, params)
        np.testing.assert_allclose(wdot, [-2.0 / 4.0, -1.0], rtol=1e-13)


class TestLiteFlowRhs:
    def setup_method(self):
        self.spec = QuadraticSpec([2.0, 1.0, 0.5], [0.1, -0.2, 0.3])
        self.state = DynamicsState(np.array([1.0, -1.0, 2.0]),
                                   np.array([0.3, 0.1, -0.4]))

    def test_identity_projector_reduces_to_base_flow(self):
        params = FlowParams(alpha=0.2, beta=(0.4, 0.9), eta=0.1, chi=5.0,
                            projector_sharp=np.eye(3))
        base = FlowParams(alpha=0.2, beta=0.4, eta=0.1)
        wdot, mdot = flow_rhs(self.state, self.spec, params)
        wdot_base, mdot_base = flow_rhs(self.state, self.spec, base)
        assert np.array_equal(wdot, wdot_base)
        assert np.array_equal(mdot, mdot_base)

    def test_zero_projector_amplifies_by_chi(self):
        params = FlowParams(alpha=0.2, beta=(0.4, 0.9), eta=0.1, chi=2.0,
                            projector_sharp=np.zeros((3, 3)))
        base = FlowParams(alpha=0.2, beta=0.9, eta=0.1)
        wdot, _ = flow_rhs(self.state, self.spec, params)
        wdot_base, _ = flow_rhs(self.state, self.spec, base)
        assert np.array_equal(wdot, 2.0 * wdot_base)

    def test_split_projector_mixes_both_rates(self):
        p = np.diag([1.0, 0.0, 0.0])
        params = FlowParams(alpha=0.0, beta=(0.25, 0.75), eta=0.5, chi=3.0,
                            projector_sharp=p)
        wdot, _ = flow_rhs(self.state, self.spec, params)
        g = self.spec.grad(self.state.w)
        m = self.state.m
        assert wdot[0] == pytest.approx(-0.5 * (m[0] + 0.25 * g[0]), rel=1e-15)
        assert wdot[1] == pytest.approx(-3.0 * 0.5 * (m[1] + 0.75 * g[1]), rel=1e-15)
        assert wdot[2] == pytest.approx(-3.0 * 0.5 * (m[2] + 0.75 * g[2]), rel=1e-15)

    def test_bad_projectors_rejected(self):
        skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            FlowParams(alpha=0.1, projector_sharp=skew)
        with pytest.raises(ValueError, match="not idempotent"):
            FlowParams(alpha=0.1, projector_sharp=0.5 * np.eye(3))

    @pytest.mark.parametrize("p,message", [
        (np.zeros((2, 3)), "projector_sharp must be square, got shape (2, 3)"),
        (np.zeros(3), "projector_sharp must have shape (>=1, >=1), got (3,)"),
    ], ids=["2x3", "vector"])
    def test_non_square_projector_rejected(self, p, message):
        # a 2x3 P failed on numpy's broadcast of P - P^T; a zero vector passed
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FlowParams(alpha=0.1, projector_sharp=p)


class TestSemiImplicitStep:
    def test_h_one_reproduces_discrete_update_bitwise(self):
        spec = QuadraticSpec([3.0, 1.0], [0.2, -0.1])
        alpha, beta, eta = 0.1, 0.3, 0.05
        params = FlowParams(alpha=alpha, beta=beta, eta=eta)
        state = DynamicsState(np.array([1.0, -2.0]), np.zeros(2))
        w, m = state.w.copy(), state.m.copy()
        for _ in range(50):
            state = semi_implicit_step(state, spec, params, 1.0)
            g = spec.grad(w)
            m = (1.0 - alpha) * m + g
            w = w - eta * (m + beta * g)
            assert np.array_equal(state.w, w)
            assert np.array_equal(state.m, m)

    def test_h_one_split_flow_bitwise(self):
        spec = QuadraticSpec([2.0, 0.5], [0.0, 0.1])
        p = np.diag([1.0, 0.0])
        alpha, b1, b2, eta, chi = 0.2, 0.2, 0.6, 0.1, 2.0
        params = FlowParams(alpha=alpha, beta=(b1, b2), eta=eta, chi=chi,
                            projector_sharp=p)
        state = DynamicsState(np.array([0.5, 1.5]), np.zeros(2))
        w, m = state.w.copy(), state.m.copy()
        for _ in range(20):
            state = semi_implicit_step(state, spec, params, 1.0)
            g = spec.grad(w)
            m = (1.0 - alpha) * m + g
            u = p @ (m + b1 * g) + chi * ((m + b2 * g) - p @ (m + b2 * g))
            w = w - eta * u
            assert np.array_equal(state.w, w)
            assert np.array_equal(state.m, m)

    @pytest.mark.parametrize("alpha,beta,eta", [(0.1, 0.3, 0.05), (0.5, 0.0, 0.2),
                                                (0.9, 1.0, 0.01)])
    def test_h_one_trajectory_is_the_quadratic_simulator(self, alpha, beta, eta):
        # the flow stepper and the closed-form side's simulator take the same
        # spec and must walk the same iterates bit for bit
        spec = QuadraticSpec([3.0, 1.0, 0.2], [0.5, -0.1, 0.0])
        w0, m0 = spec.start(), np.array([0.2, 0.0, -0.3])
        params = FlowParams(alpha=alpha, beta=beta, eta=eta)
        state = DynamicsState(w0, m0)
        flow = [state.w]
        for _ in range(200):
            state = semi_implicit_step(state, spec, params, 1.0)
            flow.append(state.w)
        sim = simulate_recurrence(spec, alpha, beta, eta, w0, m0, 200)
        assert not sim.diverged
        assert np.array_equal(np.array(flow), sim.trajectory)
        assert np.array_equal(state.m, sim.momentum)

    def test_nonpositive_h_rejected(self):
        spec = QuadraticSpec([1.0])
        params = FlowParams(alpha=0.1)
        with pytest.raises(ValueError, match=r"^h must be in \(0, inf\), got 0.0$"):
            semi_implicit_step(DynamicsState(np.ones(1), np.zeros(1)), spec, params, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_h_rejected(self, h):
        spec = QuadraticSpec([1.0])
        params = FlowParams(alpha=0.1)
        with pytest.raises(ValueError, match=rf"^h must be in \(0, inf\), got {h}$"):
            semi_implicit_step(DynamicsState(np.ones(1), np.zeros(1)), spec, params, h)

    @staticmethod
    def order_slope(params):
        """Slope of log global error against log h, semi-implicit Euler against
        the fine vector RK4 reference on a 2-d quadratic over t in [0, 1]."""
        spec = QuadraticSpec([2.0, 0.5])
        start = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
        reference_w, _ = vector_rk4_flow(start, spec, params, 1.0, 1e-3)
        errors, steps = [], [0.2, 0.1, 0.05, 0.025]
        for h in steps:
            state = DynamicsState(start.w.copy(), start.m.copy())
            for _ in range(round(1.0 / h)):
                state = semi_implicit_step(state, spec, params, h)
            errors.append(np.abs(state.w - reference_w).max())
        return np.polyfit(np.log(steps), np.log(errors), 1)[0]

    def test_first_order_convergence_rate(self):
        # global error against the fine RK4 reference scales like h^1
        params = FlowParams(alpha=0.5, beta=0.0, eta=0.3)
        assert 0.8 <= self.order_slope(params) <= 1.2

    def test_split_flow_first_order_convergence_rate(self):
        # the RK4 reference integrates the same split flow as the stepper
        p = np.diag([1.0, 0.0])
        params = FlowParams(alpha=0.5, beta=(0.2, 0.6), eta=0.3, chi=3.0,
                            projector_sharp=p)
        assert 0.8 <= self.order_slope(params) <= 1.2

    def test_clock_advances(self):
        spec = QuadraticSpec([1.0])
        params = FlowParams(alpha=0.1)
        state = semi_implicit_step(DynamicsState(np.ones(1), np.zeros(1)), spec,
                                   params, 0.25)
        assert state.t == 0.25


class TestLiteStageIsTheSplitFlow:
    """One adam_lite or soap_lite step with weight decay 0 is one
    semi-implicit step of the split flow at h = 1, with alpha = 1 - theta,
    eta = lr (1 - theta), the betas and the momentum divided by 1 - theta, P
    the 0/1 mask and F = sqrt(v') + eps in the stepper's basis, where v' is
    the second moment after the step. v alternates far above and far below
    the mask's thresholds, so no entry of v' falls in the ramp band."""

    THETA, LR, N = 0.9, 0.1, 8
    POLICY = LitePolicy(chi=4.0, beta1=-0.25, beta2=1.0)

    def setup_method(self):
        rng = SplitMix64(31)
        self.spec = QuadraticSpec(np.linspace(3.0, 0.2, self.N), 0.5 * rng.normal(self.N))
        self.w0 = rng.normal(self.N)
        self.m0 = 0.1 * rng.normal(self.N)
        self.v0 = np.tile([10.0, 0.01], self.N // 2)
        self.rng = rng
        self.cfg = OptimizerConfig(family="soap_lite", theta=self.THETA, weight_decay=0.0,
                                   lite=self.POLICY)

    def lite_state(self, role):
        state = init_state((1, self.N), role, self.cfg)
        state.m, state.v = self.m0[None, :].copy(), self.v0[None, :].copy()
        return state

    def flow_step(self, p, f):
        scale = 1.0 - self.THETA
        pol = self.POLICY
        params = FlowParams(alpha=scale, beta=(pol.beta1 / scale, pol.beta2 / scale),
                            eta=self.LR * scale, chi=pol.chi, projector_sharp=p,
                            metric=f)
        return semi_implicit_step(DynamicsState(self.w0, self.m0 / scale), self.spec,
                                  params, 1.0)

    def assert_same_step(self, flow, w_opt, m_opt):
        def rel_gap(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        assert rel_gap(flow.w, w_opt) < 1e-13
        assert rel_gap(flow.m, m_opt / (1.0 - self.THETA)) < 1e-15

    def test_adam_lite_step_is_one_flow_step(self):
        state = self.lite_state("embedding")
        ctrl = state.controller
        g = self.spec.grad(self.w0)
        w_opt = step_adamw(self.w0[None, :], state, g[None, :], self.LR, self.cfg)[0]
        mask = smoothed_sharp_mask(state.v, ctrl)[0]
        assert sorted(set(mask.tolist())) == [0.0, 1.0]
        f = np.diag(np.sqrt(state.v[0]) + self.cfg.epsilon)
        self.assert_same_step(self.flow_step(np.diag(mask), f), w_opt, state.m[0])

    def test_soap_lite_step_is_one_flow_step(self):
        state = self.lite_state("muon")
        # at step 0 no QR refresh runs, so the step rotates by this q_r
        state.q_r, _ = qr_decompose(self.rng.normal((self.N, self.N)))
        ctrl, q = state.controller, state.q_r
        g = self.spec.grad(self.w0)
        w_opt = step_soap(self.w0[None, :], state, g[None, :], self.LR, self.cfg)[0]
        mask = smoothed_sharp_mask(state.v, ctrl)[0]
        assert sorted(set(mask.tolist())) == [0.0, 1.0]
        p = q @ np.diag(mask) @ q.T
        f = q @ np.diag(np.sqrt(state.v[0]) + self.cfg.epsilon) @ q.T
        self.assert_same_step(self.flow_step(p, f), w_opt, state.m[0])


class TestRk4Flow:
    def test_backwards_time_rejected(self):
        spec = QuadraticSpec([1.0])
        state = DynamicsState(np.ones(1), np.zeros(1), t=1.0)
        with pytest.raises(ValueError, match=r"^t_end must be in \[1.0, inf\), got 0.5$"):
            rk4_flow(state, spec, FlowParams(alpha=0.1), t_end=0.5)

    @pytest.mark.parametrize("h", [-0.1, 0.0, math.inf, math.nan])
    def test_bad_step_rejected(self, h):
        spec = QuadraticSpec([4.0, 1.0])
        state = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError, match=rf"^h must be in \(0, inf\), got {h}$"):
            rk4_flow(state, spec, FlowParams(alpha=0.2, eta=0.05), t_end=1.0, h=h)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_end_rejected(self, t_end):
        spec = QuadraticSpec([4.0, 1.0])
        state = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError, match=rf"^t_end must be in \[0.0, inf\), got {t_end}$"):
            rk4_flow(state, spec, FlowParams(alpha=0.2, eta=0.05), t_end=t_end)

    def test_state_dimension_must_match(self):
        spec = QuadraticSpec([4.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            rk4_flow(DynamicsState(np.ones(1), np.zeros(1)), spec, FlowParams(alpha=0.2),
                     t_end=1.0)

    def test_zero_span_is_identity(self):
        spec = QuadraticSpec([1.0])
        state = DynamicsState(np.array([2.0]), np.array([0.5]), t=1.0)
        out = rk4_flow(state, spec, FlowParams(alpha=0.1), t_end=1.0)
        assert np.array_equal(out.w, state.w)
        assert np.array_equal(out.m, state.m)

    def test_zero_span_returns_fresh_arrays(self):
        state = DynamicsState(np.array([2.0, -1.0]), np.array([0.5, 0.25]), t=1.0)
        out = rk4_flow(state, QuadraticSpec([3.0, 1.0]), FlowParams(alpha=0.1), t_end=1.0)
        assert not np.shares_memory(out.w, state.w)
        assert not np.shares_memory(out.m, state.m)
        out.w[0] = out.m[0] = 7.0
        assert state.w[0] == 2.0 and state.m[0] == 0.5

    @pytest.mark.parametrize("name,params", [
        ("projector_sharp",
         FlowParams(alpha=0.1, beta=(0.4, 0.9), chi=3.0, projector_sharp=np.eye(2))),
        ("metric", FlowParams(alpha=0.1, metric=np.diag([2.0, 1.0]))),
    ], ids=["projector", "metric"])
    def test_coupled_flow_rejected(self, name, params):
        # the reference integrates only the decoupled flow; a projector or a
        # metric is refused by name rather than integrated
        state = DynamicsState(np.array([2.0, -1.0]), np.array([0.5, 0.25]))
        with pytest.raises(ValueError, match=f"rk4_flow integrates only a flow without {name}"):
            rk4_flow(state, QuadraticSpec([3.0, 1.0]), params, t_end=1.0)

    def test_matches_matrix_exponential_solution(self):
        # per-mode linear system d/dt (w, m) = A (w, m) + (0, b) with beta = 0
        lam, b, alpha, eta = 1.7, 0.4, 0.6, 0.3
        spec = QuadraticSpec([lam], [b])
        params = FlowParams(alpha=alpha, beta=0.0, eta=eta)
        y0 = np.array([1.3, -0.2])
        a = np.array([[0.0, -eta], [lam, -alpha]])
        c = np.array([0.0, b])
        y_star = -np.linalg.solve(a, c)
        evals, vecs = np.linalg.eig(a)
        t_end = 2.0
        expm = (vecs @ np.diag(np.exp(evals * t_end)) @ np.linalg.inv(vecs)).real
        expected = y_star + expm @ (y0 - y_star)
        out = rk4_flow(DynamicsState(y0[:1], y0[1:]), spec, params, t_end=t_end)
        assert abs(out.w[0] - expected[0]) < 1e-9
        assert abs(out.m[0] - expected[1]) < 1e-9

    def test_non_finite_state_rejected(self):
        # lambda < 0 makes the flow grow like exp(sqrt(eta |lambda|) t): it
        # overflows long before t_end, and the returned state must say so
        spec = QuadraticSpec([-1e6])
        start = DynamicsState(np.ones(1), np.zeros(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^w must be finite, got "):
                rk4_flow(start, spec, FlowParams(alpha=0.1, eta=1.0), t_end=1.0)

    def test_overflow_in_one_decoupled_coordinate_rejected(self):
        # only the lambda < 0 coordinate overflows; beta, an offset and
        # eta != 1 run the per-coordinate path with every term in play
        spec = QuadraticSpec([2.0, -1e6], [0.3, -0.2])
        params = FlowParams(alpha=0.1, beta=0.5, eta=1.25)
        start = DynamicsState(np.ones(2), np.zeros(2), t=0.25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^w must be finite, got "):
                rk4_flow(start, spec, params, t_end=1.0, h=0.01)


def ishd_acceleration(w, wdot, quadratic: QuadraticSpec, alpha_t: float, beta_t: float,
                      gamma_t: float):
    """Acceleration of the damped inertial system, the second-order form of
    the momentum flow: wddot = -alpha_t wdot - beta_t H wdot - gamma_t grad f(w)."""
    wdot = np.asarray(wdot, dtype=float)
    return (-alpha_t * wdot - beta_t * (quadratic.eigenvalues * wdot)
            - gamma_t * quadratic.grad(w))


class TestIshdAcceleration:
    def test_zero_at_rest_on_stationary_point(self):
        spec = QuadraticSpec(np.array([2.0, 1.0]), np.array([0.4, -0.2]))
        w_star = spec.stationary_point()
        acc = ishd_acceleration(w_star, np.zeros(2), spec, 1.0, 2.0, 3.0)
        assert np.array_equal(acc, np.zeros(2))

    def test_scalar_example(self):
        spec = QuadraticSpec([2.0])
        acc = ishd_acceleration(np.array([1.5]), np.array([-0.5]), spec,
                                alpha_t=1.0, beta_t=0.8, gamma_t=2.0)
        np.testing.assert_allclose(acc, [-4.7], rtol=1e-15)

    def test_second_order_form_of_the_momentum_flow(self):
        # constant eta, no projector, no metric: wdot = -eta (m + beta grad f)
        # with mdot = -alpha m + grad f gives
        # wddot = -alpha wdot - eta beta H wdot - eta (1 + alpha beta) grad f
        alpha, beta, eta, delta = 0.4, 0.6, 0.2, 1e-3
        spec = QuadraticSpec([3.0, 0.5], [0.2, -0.1])
        params = FlowParams(alpha=alpha, beta=beta, eta=eta)
        state = DynamicsState(spec.start(), np.array([0.3, -0.7]))
        states = [state] + [rk4_flow(state, spec, params, k * delta, h=delta / 10)
                            for k in (1, 2)]
        wdots = [flow_rhs(s, spec, params)[0] for s in states]
        wddot = (-3.0 * wdots[0] + 4.0 * wdots[1] - wdots[2]) / (2.0 * delta)
        acc = ishd_acceleration(state.w, wdots[0], spec, alpha, eta * beta,
                                eta * (1.0 + alpha * beta))
        assert np.abs(acc - wddot).max() < 1e-6


class TestNesterovForms:
    def test_gap_stays_below_1e10_over_100_steps(self):
        spec = QuadraticSpec(np.array([2.0, 1.0, 0.5]), np.array([0.3, -0.2, 0.1]))
        traj_a, traj_b, gap = nesterov_forms_trace(spec, alpha=0.2, eta=0.1, steps=100)
        assert traj_a.shape == (101, 3)
        assert traj_b.shape == (101, 3)
        assert gap <= 1e-10

    def test_first_step_is_shared_bitwise(self):
        spec = QuadraticSpec(np.array([3.0, 1.0]), np.array([0.0, 0.5]))
        traj_a, traj_b, _ = nesterov_forms_trace(spec, alpha=0.35, eta=0.07, steps=3)
        assert np.array_equal(traj_a[0], traj_b[0])
        assert np.array_equal(traj_a[1], traj_b[1])

    def test_zero_eta_freezes_both_forms(self):
        spec = QuadraticSpec(np.array([1.0]), np.array([0.0]))
        traj_a, traj_b, gap = nesterov_forms_trace(spec, alpha=0.5, eta=0.0, steps=10)
        assert np.array_equal(traj_a, np.ones((11, 1)) * traj_a[0])
        assert gap == 0.0

    def test_diverged_forms_report_a_nan_gap(self):
        # a max over per-row gaps kept row 0's 0.0 and skipped every NaN after it
        spec = QuadraticSpec(np.array([2.0, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            traj_a, traj_b, gap = nesterov_forms_trace(spec, 0.1, 1e200, 50)
        assert not np.isfinite(traj_a[-1]).any() and not np.isfinite(traj_b[-1]).any()
        assert math.isnan(gap)

    def test_alpha_range_enforced(self):
        spec = QuadraticSpec(np.array([1.0]), np.array([0.0]))
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="alpha"):
                nesterov_forms_trace(spec, alpha=alpha, eta=0.1, steps=3)


class TestAdemamixFlow:
    spec = QuadraticSpec(np.array([3.0, 1.0, 0.4]), np.array([0.2, 0.0, -0.1]))
    cfg = AdemamixFlowConfig(alpha_fast=0.9, alpha_slow=0.01, kappa=3.0, eta=0.05)

    def test_third_order_identity_residual(self):
        t_grid = np.linspace(0.0, 5.0, 11)
        residual = ademamix_ode_residual(self.spec, self.cfg, t_grid)
        assert residual <= 1e-8
        # the identity is algebraic in (w, mf, ms), so it holds to roundoff
        assert residual <= 1e-12

    def test_identity_discriminates_wrong_gradient_coefficient(self):
        # replacing the gradient weight eta*a1*a2*(1+kappa) with
        # eta*(1 + a1*a2) leaves a visibly nonzero residual
        t_grid = np.linspace(0.0, 5.0, 11)
        eta, a1, a2 = self.cfg.eta, self.cfg.alpha_fast, self.cfg.alpha_slow
        wrong = rowwise_residual(self.spec, self.cfg, t_grid, eta * (1.0 + a1 * a2))
        assert wrong > 1e-3

    def test_residual_matches_rowwise_formulation_bitwise(self):
        t_grid = np.linspace(0.0, 5.0, 11)
        kap, eta = self.cfg.kappa, self.cfg.eta
        a1, a2 = self.cfg.alpha_fast, self.cfg.alpha_slow
        want = rowwise_residual(self.spec, self.cfg, t_grid, eta * a1 * a2 * (1.0 + kap))
        assert ademamix_ode_residual(self.spec, self.cfg, t_grid) == want

    def test_overflowed_flow_fails_the_identity(self):
        # lambda = -1e6 overflows within the one interval: the residual must
        # not read as the start row's roundoff
        spec = QuadraticSpec([-1e6])
        with np.errstate(over="ignore", invalid="ignore"):
            residual = ademamix_ode_residual(spec, self.cfg, np.array([0.0, 5.0]))
        assert not residual <= 1e-8

    def test_kappa_zero_still_satisfies_identity(self):
        cfg = AdemamixFlowConfig(alpha_fast=0.9, alpha_slow=0.01, kappa=0.0, eta=0.05)
        assert ademamix_ode_residual(self.spec, cfg, np.linspace(0.0, 3.0, 7)) <= 1e-12

    def test_trajectory_shapes_and_start_row(self):
        # the flow starts at the quadratic's start with zero momenta
        ws, mfs, mss = ademamix_flow_trajectory(self.spec, self.cfg, np.array([0.0, 0.5]))
        assert ws.shape == mfs.shape == mss.shape == (2, 3)
        assert np.array_equal(ws[0], self.spec.start())
        assert np.array_equal(mfs[0], np.zeros(3))
        assert np.array_equal(mss[0], np.zeros(3))

    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ademamix_flow_trajectory(self.spec, self.cfg, np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match=r"^alpha_fast must be in \(0, inf\), got 0.0$"):
            AdemamixFlowConfig(alpha_fast=0.0, alpha_slow=0.1, kappa=1.0, eta=0.1)
        with pytest.raises(ValueError, match=r"^kappa must be in \[0, inf\), got -1.0$"):
            AdemamixFlowConfig(alpha_fast=0.1, alpha_slow=0.1, kappa=-1.0, eta=0.1)
        for bad in ({"alpha_fast": math.nan}, {"kappa": math.nan}, {"eta": math.inf}):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be in"):
                AdemamixFlowConfig(**{"alpha_fast": 0.1, "alpha_slow": 0.1, "kappa": 1.0,
                                      "eta": 0.1, **bad})


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ademamix_flow_trajectory(self.spec, self.cfg, np.array([0.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            ademamix_flow_trajectory(self.spec, self.cfg, np.array([bad, 1.0]))


def rowwise_residual(quadratic, cfg, t_grid, grad_weight):
    """Reference formulation of ademamix_ode_residual, one sampled time at a
    time, with the gradient term's weight given."""
    lam, b = quadratic.eigenvalues, quadratic.offsets
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    worst = 0.0
    for w, mf, ms in zip(*ademamix_flow_trajectory(quadratic, cfg, t_grid)):
        g = lam * w + b
        wd = -eta * (mf + kap * ms)
        wdd = -eta * (-a1 * mf - kap * a2 * ms + (a1 + kap * a2) * g)
        hwd = lam * wd
        wddd = -eta * (a1 * a1 * mf + kap * a2 * a2 * ms
                       - (a1 * a1 + kap * a2 * a2) * g + (a1 + kap * a2) * hwd)
        r = (wddd + (a1 + a2) * wdd + a1 * a2 * wd
             + eta * (a1 + kap * a2) * hwd + grad_weight * g)
        worst = max(worst, float(np.abs(r).max()))
    return worst


def vector_rk4_flow(state, quadratic, params, t_end, h):
    """Reference formulation of rk4_flow, and the RK4 reference of a flow with
    a projector or a metric: the vector state (w, m), flow_rhs as its
    right-hand side, and array RK4 stages."""
    def rhs(w, m):
        return flow_rhs(DynamicsState(w, m), quadratic, params)

    w, m = state.w, state.m
    span = t_end - state.t
    if span > 0:
        n_steps = max(1, int(math.ceil(span / h - 1e-12)))
        step = span / n_steps
        half, sixth = 0.5 * step, step / 6.0
        for _ in range(n_steps):
            k1 = rhs(w, m)
            k2 = rhs(w + half * k1[0], m + half * k1[1])
            k3 = rhs(w + half * k2[0], m + half * k2[1])
            k4 = rhs(w + step * k3[0], m + step * k3[1])
            w = w + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            m = m + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return w, m


def _rk4_flow_case(seed):
    """A decoupled flow drawn from seed: beta != 0, offsets, a clock t0 != 0,
    h in {1e-3, 0.01, 0.3} and d from 1 to 5."""
    rng = np.random.default_rng(seed)
    d = 1 + seed % 5
    spec = QuadraticSpec(np.sort(rng.uniform(0.1, 4.0, d))[::-1], rng.normal(0.0, 0.5, d))
    eta = 0.05 + 0.3 * rng.random()
    params = FlowParams(alpha=rng.uniform(0.05, 0.9), beta=rng.uniform(0.1, 1.0), eta=eta)
    t0 = float(rng.uniform(0.0, 2.0))
    state = DynamicsState(rng.normal(size=d), rng.normal(size=d), t=t0)
    h = (1e-3, 0.01, 0.3)[seed % 3 - 1]
    span = rng.uniform(0.05, 0.4) if h == 1e-3 else rng.uniform(0.1, 3.0)
    return state, spec, params, t0 + span, h


def test_rk4_flow_dynamics_check_case_matches_vector_formulation_bitwise():
    spec = QuadraticSpec(np.array([4.0, 1.0]), np.zeros(2))
    params = FlowParams(alpha=0.2, beta=0.0, eta=0.05)
    state = DynamicsState(np.array([1.0, -1.0]), np.zeros(2))
    out = rk4_flow(state, spec, params, 1.0)
    w, m = vector_rk4_flow(state, spec, params, 1.0, FINE_STEP)
    assert np.array_equal(out.w, w)
    assert np.array_equal(out.m, m)


@pytest.mark.parametrize("seed", range(40))
def test_rk4_flow_matches_vector_formulation_bitwise(seed):
    state, spec, params, t_end, h = _rk4_flow_case(seed)
    out = rk4_flow(state, spec, params, t_end, h=h)
    w, m = vector_rk4_flow(state, spec, params, t_end, h)
    assert out.t == t_end
    assert np.array_equal(out.w, w)
    assert np.array_equal(out.m, m)


def vector_ademamix_trajectory(quadratic, cfg, t_grid):
    """Reference formulation of ademamix_flow_trajectory: one concatenated
    state y = (w, mf, ms), a numpy-vector right-hand side, and array RK4
    stages at FINE_STEP."""
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    d = quadratic.dim

    def rhs(y):
        yw, yf, ys = y[:d], y[d:2 * d], y[2 * d:]
        g = quadratic.grad(yw)
        return np.concatenate([-eta * (yf + kap * ys), -a1 * yf + a1 * g, -a2 * ys + a2 * g])

    t_grid = np.asarray(t_grid, dtype=float)
    traj = [np.concatenate([quadratic.start(), np.zeros(2 * d)])]
    for t, t_end in zip(t_grid[:-1], t_grid[1:]):
        y, span = traj[-1], t_end - t
        if span > 0:
            n_steps = max(1, int(math.ceil(span / FINE_STEP - 1e-12)))
            step = span / n_steps
            for _ in range(n_steps):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * step * k1)
                k3 = rhs(y + 0.5 * step * k2)
                k4 = rhs(y + step * k3)
                y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj.append(y)
    traj = np.array(traj)
    return traj[:, :d], traj[:, d:2 * d], traj[:, 2 * d:]


@pytest.mark.parametrize("quadratic, cfg, t_grid", [
    # the dynamics-check case
    (QuadraticSpec([1.0], [0.0]), AdemamixFlowConfig(0.1, 1e-3, 2.0, 0.05),
     np.linspace(0.0, 10.0, 101)),
    (TestAdemamixFlow.spec, TestAdemamixFlow.cfg, np.linspace(0.0, 5.0, 11)),
    # a repeated time is a zero span: the state is carried over unchanged
    (TestAdemamixFlow.spec, TestAdemamixFlow.cfg, np.array([0.0, 0.5, 0.5, 0.75])),
    # lambda = -1e6 overflows to inf and then NaN: those must match bit for bit too
    (QuadraticSpec([-1e6]), TestAdemamixFlow.cfg, np.linspace(0.0, 5.0, 11)),
], ids=["dynamics-check", "offsets", "repeated-time", "overflow"])
def test_ademamix_trajectory_matches_vector_formulation_bitwise(quadratic, cfg, t_grid):
    with np.errstate(over="ignore", invalid="ignore"):
        got = ademamix_flow_trajectory(quadratic, cfg, t_grid)
        want = vector_ademamix_trajectory(quadratic, cfg, t_grid)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def heavy_ball_matrix(lam, alpha, beta, eta):
    """One-mode transition matrix of the h=1 semi-implicit update on
    (w - w_star, m)."""
    return np.array([
        [1.0 - eta * lam * (1.0 + beta), -eta * (1.0 - alpha)],
        [lam, 1.0 - alpha],
    ])


def lyapunov_certificate(a):
    """P solving A^T P A - P = -I, positive definite iff rho(A) < 1."""
    k = np.kron(a.T, a.T)
    p = np.linalg.solve(k - np.eye(4), -np.eye(2).reshape(-1))
    p = p.reshape(2, 2)
    return 0.5 * (p + p.T)


class TestEnergyDecay:
    def certificate_decreases(self, lam, alpha, beta, eta, steps=150):
        a = heavy_ball_matrix(lam, alpha, beta, eta)
        if max(abs(np.linalg.eigvals(a))) >= 0.95:
            return True  # only contractive settings carry the certificate
        p = lyapunov_certificate(a)
        assert np.linalg.eigvalsh(p).min() > 0.0
        spec = QuadraticSpec([lam])
        params = FlowParams(alpha=alpha, beta=beta, eta=eta)
        state = DynamicsState(np.array([1.0]), np.array([0.0]))
        z = np.array([state.w[0], state.m[0]])
        v_prev = float(z @ p @ z)
        for _ in range(steps):
            state = semi_implicit_step(state, spec, params, 1.0)
            z = np.array([state.w[0], state.m[0]])
            v = float(z @ p @ z)
            if z @ z > 1e-20:
                assert v < v_prev
            v_prev = v
        return True

    def test_reference_setting(self):
        assert self.certificate_decreases(1.5, 0.3, 0.2, 0.4)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.1, 5.0), alpha=st.floats(0.05, 0.9),
           beta=st.floats(0.0, 1.0), eta=st.floats(0.01, 0.5))
    def test_quadratic_energy_is_monotone_when_contractive(self, lam, alpha, beta, eta):
        assert self.certificate_decreases(lam, alpha, beta, eta, steps=100)
