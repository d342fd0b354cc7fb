"""Continuous-time views of the optimizers: the damped second-order system,
its first-order momentum flow (split by optim.lite_weights into a sharp part
and a chi-amplified flat part when a sharp projector is set), a semi-implicit
Euler discretization that reproduces the discrete update at h = 1, an RK4
reference integrator of the decoupled flow, the two Nesterov formulations,
and the third-order identity satisfied by the two-timescale momentum flow.

Every flow integrates a QuadraticSpec, the same quadratic the closed-form
analysis in ``quadratic`` studies, through its exact gradient; H times a
vector is the eigenvalues times that vector. Every coefficient is constant:
the step-size scale eta is one float, as the h = 1 identities use it, and
the metric, when present, is a constant SPD matrix (the regime where the
curvature-correction terms vanish and the stated systems are exact).

The quadratic is diagonal, so a decoupled flow (no projector, no metric)
splits into one small system per coordinate. rk4_flow and the two-timescale
flow run each coordinate's RK4 steps as straight-line code on Python floats:
each expression is the vector one written per entry, and a float rounds as a
numpy entry does, so the bytes are the vector integration's.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .linalg import check_array, check_fields, check_number, sym_eig
from .optim import lite_weights
from .quadratic import QuadraticSpec

PROJECTOR_TOL = 1e-8
FINE_STEP = 1e-3


@dataclasses.dataclass
class DynamicsState:
    """Parameter vector, momentum covector, and clock."""

    w: np.ndarray
    m: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.w = check_array("w", self.w, (None,))
        self.m = check_array("m", self.m, self.w.shape)
        check_number("t", self.t)


@dataclasses.dataclass(frozen=True)
class FlowParams:
    """Coefficients of the momentum flow.

    beta is a single Hessian-damping weight, or a (beta1, beta2) pair for the
    split flow where the chi-amplified complement uses beta2. eta is the one
    constant step-size scale, as the h = 1 identities use it: eta = lr (1 -
    theta) on every step. projector_sharp is the constant square
    sharp-subspace projector P; metric is a constant SPD matrix F (None means
    identity). Both are checked once here, F is eigendecomposed once and P's
    split weights are formed once by optim.lite_weights. Without a projector
    P = I, so chi != 1 or beta1 != beta2 would have no effect and is rejected.

    P must be a projector, so the optimizer identity covers 0/1 masks only:
    the ramp band is fractional (l_smooth <= 0.95 l_s), and the split's algebra
    holds there, but the per-mode split of criteria 7 and 8 needs P^2 = P.
    """

    alpha: float
    beta: object = 0.0
    eta: float = 1.0
    chi: float = 1.0
    projector_sharp: np.ndarray | None = None
    metric: np.ndarray | None = None
    _metric_eig: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                                  compare=False)
    _split: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, {"alpha": "[0, inf)"})
        is_pair = isinstance(self.beta, tuple) and len(self.beta) == 2
        for b in self.beta if is_pair else (self.beta,):
            check_number("beta", b)
        b1, b2 = self.beta_pair()
        if self.projector_sharp is None and (self.chi != 1.0 or b1 != b2):
            raise ValueError("chi and beta2 act only on the flat part: they need projector_sharp")
        for name in ("projector_sharp", "metric"):
            if getattr(self, name) is not None:
                a = check_array(name, getattr(self, name), (None, None))
                if a.shape[0] != a.shape[1]:
                    raise ValueError(f"{name} must be square, got shape {a.shape}")
                object.__setattr__(self, name, a)
        if self.projector_sharp is not None:
            p = self.projector_sharp
            scale = max(1.0, float(np.abs(p).max()))
            if np.abs(p - p.T).max() > PROJECTOR_TOL * scale:
                raise ValueError("projector_sharp is not symmetric")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL * scale:
                raise ValueError("projector_sharp is not idempotent")
            object.__setattr__(self, "_split", lite_weights(self.chi, b1, b2, p, np.eye(len(p))))
        if self.metric is not None:
            evals, vecs = sym_eig(self.metric)
            if evals[-1] <= 0.0:
                raise ValueError("metric must be symmetric positive definite")
            object.__setattr__(self, "_metric_eig", (evals, vecs))

    def beta_pair(self):
        b1, b2 = self.beta if isinstance(self.beta, tuple) else (self.beta, self.beta)
        return float(b1), float(b2)


def _direction(params: FlowParams, m, g):
    """F^{-1} u for the velocity wdot = -eta F^{-1} u: u = w_m m + w_g g with
    the optim.lite_weights of the sharp projector P, or u = m + beta g."""
    if params.projector_sharp is None:
        u = m + params.beta_pair()[0] * g
    else:
        w_m, w_g = params._split
        u = w_m @ m + w_g @ g
    if params.metric is None:
        return u
    evals, vecs = params._metric_eig
    return vecs @ ((vecs.T @ u) / evals)


def _require_dimension(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams):
    for name, a in (("state", state.w), ("projector_sharp", params.projector_sharp),
                    ("metric", params.metric)):
        if a is not None and len(a) != quadratic.dim:
            raise ValueError(f"{name} has dimension {len(a)}, the quadratic {quadratic.dim}")


def flow_rhs(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams):
    """wdot = -eta F^{-1} u and mdot = -alpha m + grad f, where u is the LITE
    split w_m m + w_g grad f with a projector, else m + beta grad f."""
    _require_dimension(state, quadratic, params)
    g = quadratic.grad(state.w)
    return -params.eta * _direction(params, state.m, g), -params.alpha * state.m + g


def semi_implicit_step(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams,
                       h: float) -> DynamicsState:
    """One semi-implicit Euler step of flow_rhs: momentum first, then the
    parameters with the fresh momentum. At h = 1 with identity metric this is
    entrywise the discrete update m <- (1-alpha) m + g, w <- w - eta u, with
    u the direction of flow_rhs at the fresh momentum.

    The momentum update is written multiplicatively, (1 - h alpha) m + h g,
    so the h = 1 correspondence is exact in floating point.
    """
    check_number("h", h, interval="(0, inf)")
    _require_dimension(state, quadratic, params)
    g = quadratic.grad(state.w)
    m_new = (1.0 - h * params.alpha) * state.m + h * g
    w_new = state.w - (h * params.eta) * _direction(params, m_new, g)
    return DynamicsState(w_new, m_new, state.t + h)


def _fine_steps(span: float, h: float):
    """Number and size of the ceil(span / h) equal steps over span (none if
    span <= 0); the 1e-12 slack keeps a whole number of h from gaining one."""
    if span <= 0:
        return 0, 0.0
    n_steps = max(1, int(math.ceil(span / h - 1e-12)))
    return n_steps, span / n_steps


def _rk4_per_coordinate(quadratic: QuadraticSpec, advance, state0, times, h: float):
    """Integrate a flow whose coordinates are decoupled, one coordinate at a
    time. state0 holds the flow's variables as d-vectors. advance(lam, b, y,
    n_steps, step) runs the variables y of the coordinate with eigenvalue
    lam and offset b, a sequence of Python floats in state0's order, through
    n_steps RK4 steps of size step, and returns them in that order.
    Returns the trajectory sampled at times, each row the variables
    concatenated."""
    d = quadratic.dim
    traj = np.empty((len(times), len(state0) * d))
    traj[0] = np.concatenate([np.asarray(v, dtype=float) for v in state0])
    start = traj[0].tolist()
    for i, (lam, b) in enumerate(zip(quadratic.eigenvalues.tolist(), quadratic.offsets.tolist())):
        y = start[i::d]
        for k, (t, t_next) in enumerate(zip(times[:-1], times[1:]), start=1):
            y = advance(lam, b, y, *_fine_steps(t_next - t, h))
            traj[k, i::d] = y
    return traj


def rk4_flow(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams, t_end: float,
             h: float = FINE_STEP) -> DynamicsState:
    """RK4 integration of a decoupled flow_rhs up to t_end; the reference
    trajectory for discretization-order checks, in arrays that ``state``
    does not hold. A flow that overflows raises ValueError from the returned
    state's check; a projector or a metric is refused.

    Each coordinate's (w, m) is an independent system, g = lam w + b,
    wdot = -eta (m + beta g), mdot = -alpha m + g, integrated as two Python
    floats one coordinate at a time, bit for bit as the vector integration.
    """
    check_number("h", h, interval="(0, inf)")
    check_number("t_end", t_end, interval=f"[{state.t}, inf)")  # not before the state's clock
    _require_dimension(state, quadratic, params)
    for name in ("projector_sharp", "metric"):
        if getattr(params, name) is not None:
            raise ValueError(f"rk4_flow integrates only a flow without {name}")
    alpha, beta, eta = params.alpha, params.beta_pair()[0], params.eta

    def advance(lam, b, y, n_steps, step):
        w, m = y
        half, sixth = 0.5 * step, step / 6.0
        for _ in range(n_steps):
            g = lam * w + b
            k1w, k1m = -eta * (m + beta * g), -alpha * m + g
            w2, m2 = w + half * k1w, m + half * k1m
            g = lam * w2 + b
            k2w, k2m = -eta * (m2 + beta * g), -alpha * m2 + g
            w3, m3 = w + half * k2w, m + half * k2m
            g = lam * w3 + b
            k3w, k3m = -eta * (m3 + beta * g), -alpha * m3 + g
            w4, m4 = w + step * k3w, m + step * k3m
            g = lam * w4 + b
            k4w, k4m = -eta * (m4 + beta * g), -alpha * m4 + g
            w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            m = m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        return w, m

    traj = _rk4_per_coordinate(quadratic, advance, (state.w, state.m), [state.t, t_end], h)
    return DynamicsState(*np.split(traj[-1], 2), t_end)


def nesterov_forms_trace(quadratic: QuadraticSpec, alpha: float, eta: float,
                         steps: int):
    """Iterate the lookahead and single-sequence Nesterov formulations from
    the same start and report the max entrywise gap.

    Both open with the plain gradient step w1 = w0 - eta g0: the lookahead
    form starts with zero velocity, and the single-sequence form starts its
    momentum accumulation after the first step (at m = 0 the combined factor
    eta1 * beta equals eta, folded to avoid first-step rounding).
    """
    check_number("alpha", alpha, interval="(0, 1)")
    check_number("eta", eta)
    check_number("steps", steps, numbers.Integral, "[1, inf)")
    w0 = quadratic.start()

    # lookahead form: x_{k+1} = w_k - eta g(w_k), w_{k+1} = x_{k+1} + (1-alpha)(x_{k+1} - x_k)
    traj_a = [w0.copy()]
    w = w0.copy()
    x_prev = None
    for _ in range(steps):
        x = w - eta * quadratic.grad(w)
        if x_prev is None:
            x_prev = x
        w = x + (1.0 - alpha) * (x - x_prev)
        x_prev = x
        traj_a.append(w.copy())

    # single-sequence form with beta = 1/(1-alpha), eta1 = eta/(1+alpha*beta)
    beta = 1.0 / (1.0 - alpha)
    eta1 = eta / (1.0 + alpha * beta)
    traj_b = [w0.copy()]
    w = w0.copy()
    m = np.zeros_like(w0)
    for k in range(steps):
        g = quadratic.grad(w)
        if k == 0:
            w = w - eta * g
        else:
            m = (1.0 - alpha) * m + g
            w = w - eta1 * (m + beta * g)
        traj_b.append(w.copy())

    traj_a, traj_b = np.array(traj_a), np.array(traj_b)
    return traj_a, traj_b, float(np.abs(traj_a - traj_b).max())  # NaN once either diverges


@dataclasses.dataclass(frozen=True)
class AdemamixFlowConfig:
    """Two-timescale momentum flow coefficients: fast/slow EMA rates, the
    slow-momentum weight, and the step-size scale."""

    alpha_fast: float
    alpha_slow: float
    kappa: float
    eta: float

    def __post_init__(self):
        check_fields(self, {"alpha_fast": "(0, inf)", "alpha_slow": "(0, inf)",
                            "kappa": "[0, inf)"})


def ademamix_flow_trajectory(quadratic: QuadraticSpec, cfg: AdemamixFlowConfig, t_grid):
    """Integrate the 3-variable flow
        mf' = -a1 mf + a1 g,  ms' = -a2 ms + a2 g,  w' = -eta (mf + kappa ms)
    with the fine-step 4-stage integrator, returning (W, MF, MS) sampled on
    t_grid. Starts at the stationary point + 1 with zero momenta.

    The quadratic is diagonal, so each coordinate's (w, mf, ms) is an
    independent system, stepped as three Python floats bit for bit as the
    vector integration.
    """
    t_grid = check_array("t_grid", t_grid, (None,))
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nondecreasing")
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    d = quadratic.dim

    def advance(lam, b, y, n_steps, step):
        w, f, s = y
        half, sixth = 0.5 * step, step / 6.0
        for _ in range(n_steps):
            g = lam * w + b
            k1w, k1f, k1s = -eta * (f + kap * s), -a1 * f + a1 * g, -a2 * s + a2 * g
            w2, f2, s2 = w + half * k1w, f + half * k1f, s + half * k1s
            g = lam * w2 + b
            k2w, k2f, k2s = -eta * (f2 + kap * s2), -a1 * f2 + a1 * g, -a2 * s2 + a2 * g
            w3, f3, s3 = w + half * k2w, f + half * k2f, s + half * k2s
            g = lam * w3 + b
            k3w, k3f, k3s = -eta * (f3 + kap * s3), -a1 * f3 + a1 * g, -a2 * s3 + a2 * g
            w4, f4, s4 = w + step * k3w, f + step * k3f, s + step * k3s
            g = lam * w4 + b
            k4w, k4f, k4s = -eta * (f4 + kap * s4), -a1 * f4 + a1 * g, -a2 * s4 + a2 * g
            w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            f = f + sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
            s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        return w, f, s

    state0 = (quadratic.start(), np.zeros(d), np.zeros(d))
    traj = _rk4_per_coordinate(quadratic, advance, state0, t_grid.tolist(), FINE_STEP)
    return traj[:, :d], traj[:, d:2 * d], traj[:, 2 * d:]


def ademamix_ode_residual(quadratic: QuadraticSpec, cfg: AdemamixFlowConfig, t_grid) -> float:
    """Max absolute residual of the third-order identity
        w''' + (a1+a2) w'' + a1 a2 w' + eta (a1 + kappa a2) H w'
              + eta a1 a2 (1 + kappa) grad f = 0
    along the integrated flow, with every derivative evaluated analytically
    from the linear system's state. The identity is algebraic in
    (w, mf, ms), so the residual measures only the identity itself, not
    integration error. The derivatives are evaluated on every sampled time
    at once; a flow that overflowed gives a NaN or infinite residual.
    """
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    w, mf, ms = ademamix_flow_trajectory(quadratic, cfg, t_grid)
    g = quadratic.grad(w)
    wd = -eta * (mf + kap * ms)
    wdd = -eta * (-a1 * mf - kap * a2 * ms + (a1 + kap * a2) * g)
    hwd = quadratic.eigenvalues * wd
    wddd = -eta * (a1 * a1 * mf + kap * a2 * a2 * ms
                   - (a1 * a1 + kap * a2 * a2) * g + (a1 + kap * a2) * hwd)
    r = (wddd + (a1 + a2) * wdd + a1 * a2 * wd
         + eta * (a1 + kap * a2) * hwd + eta * a1 * a2 * (1.0 + kap) * g)
    return float(np.abs(r).max())
