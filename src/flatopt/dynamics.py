"""Continuous-time views of the optimizers: the damped second-order system,
its first-order momentum flow (split by optim.lite_weights into a sharp part
and a chi-amplified flat part when a sharp projector is set), a semi-implicit
Euler discretization that reproduces the discrete update at h = 1, an RK4
reference integrator, the two Nesterov formulations traced side by side, and
the third-order identity satisfied by the two-timescale momentum flow.

Every flow integrates a QuadraticSpec, the same quadratic the closed-form
analysis in ``quadratic`` studies, through its exact gradient; H times a
vector is the eigenvalues times that vector. The metric, when present, is a
constant SPD matrix (the regime where the curvature-correction terms vanish
and the stated systems are exact).

The quadratic is diagonal, so a flow without a projector or a metric splits
into one small system per coordinate. rk4_flow on such a flow, and the
two-timescale flow always, run each coordinate's RK4 steps as straight-line
code on Python floats: each expression is the vector one written per entry,
and a float rounds as a numpy entry does, so the bytes are the vector
integration's. A projector or a metric couples the coordinates, and _rk4
integrates such a flow as arrays. _fine_steps sets the steps of both.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import sym_eig
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
        self.w = np.asarray(self.w, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        if self.w.shape != self.m.shape or self.w.ndim != 1:
            raise ValueError(f"w and m must be matching vectors, got {self.w.shape} and {self.m.shape}")
        if not (np.isfinite(self.w).all() and np.isfinite(self.m).all() and math.isfinite(self.t)):
            raise ValueError("non-finite entries in dynamics state")


@dataclasses.dataclass(frozen=True)
class FlowParams:
    """Coefficients of the momentum flow.

    beta is a single Hessian-damping weight, or a (beta1, beta2) pair for the
    split flow where the chi-amplified complement uses beta2. eta_of_t is a
    float or a callable of time. projector_sharp is the constant
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
    eta_of_t: object = 1.0
    chi: float = 1.0
    projector_sharp: np.ndarray | None = None
    metric: np.ndarray | None = None
    _metric_eig: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                                  compare=False)
    _split: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if isinstance(self.beta, tuple) and len(self.beta) != 2:
            raise ValueError("beta pair must have exactly two entries")
        b1, b2 = self.beta_pair()
        eta = () if callable(self.eta_of_t) else (float(self.eta_of_t),)
        if not all(map(math.isfinite, (self.alpha, b1, b2, self.chi) + eta)):
            raise ValueError("flow coefficients must be finite")
        if self.projector_sharp is None and (self.chi != 1.0 or b1 != b2):
            raise ValueError("chi and beta2 act only on the flat part: they need projector_sharp")
        if self.projector_sharp is not None:
            p = np.asarray(self.projector_sharp, dtype=float)
            scale = max(1.0, float(np.abs(p).max()))
            if np.abs(p - p.T).max() > PROJECTOR_TOL * scale:
                raise ValueError("projector_sharp is not symmetric")
            if np.abs(p @ p - p).max() > PROJECTOR_TOL * scale:
                raise ValueError("projector_sharp is not idempotent")
            object.__setattr__(self, "projector_sharp", p)
            object.__setattr__(self, "_split", lite_weights(self.chi, b1, b2, p, np.eye(len(p))))
        if self.metric is not None:
            f = np.asarray(self.metric, dtype=float)
            evals, vecs = sym_eig(f)
            if evals[-1] <= 0.0:
                raise ValueError("metric must be symmetric positive definite")
            object.__setattr__(self, "metric", f)
            object.__setattr__(self, "_metric_eig", (evals, vecs))

    def beta_pair(self):
        if isinstance(self.beta, tuple):
            return float(self.beta[0]), float(self.beta[1])
        return float(self.beta), float(self.beta)

    def eta_at(self, t: float) -> float:
        if callable(self.eta_of_t):
            return float(self.eta_of_t(t))
        return float(self.eta_of_t)


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


def _require_dimension(state: DynamicsState, quadratic: QuadraticSpec):
    if state.w.size != quadratic.dim:
        raise ValueError(f"state has dimension {state.w.size}, the quadratic {quadratic.dim}")


def _flow(w, m, t: float, quadratic: QuadraticSpec, params: FlowParams):
    g = quadratic.grad(w)
    return -params.eta_at(t) * _direction(params, m, g), -params.alpha * m + g


def flow_rhs(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams):
    """wdot = -eta F^{-1} u and mdot = -alpha m + grad f, where u is the LITE
    split w_m m + w_g grad f with a projector, else m + beta grad f."""
    _require_dimension(state, quadratic)
    return _flow(state.w, state.m, state.t, quadratic, params)


def semi_implicit_step(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams,
                       h: float) -> DynamicsState:
    """One semi-implicit Euler step of flow_rhs: momentum first, then the
    parameters with the fresh momentum. At h = 1 with identity metric this is
    entrywise the discrete update m <- (1-alpha) m + g, w <- w - eta u, with
    u the direction of flow_rhs at the fresh momentum.

    The momentum update is written multiplicatively, (1 - h alpha) m + h g,
    so the h = 1 correspondence is exact in floating point.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("h must be positive and finite")
    _require_dimension(state, quadratic)
    g = quadratic.grad(state.w)
    m_new = (1.0 - h * params.alpha) * state.m + h * g
    eta = params.eta_at(state.t)
    w_new = state.w - (h * eta) * _direction(params, m_new, g)
    return DynamicsState(w_new, m_new, state.t + h)


def _fine_steps(span: float, h: float):
    """Number and size of the ceil(span / h) equal steps over span (none if
    span <= 0); the 1e-12 slack keeps a whole number of h from gaining one."""
    if span <= 0:
        return 0, 0.0
    n_steps = max(1, int(math.ceil(span / h - 1e-12)))
    return n_steps, span / n_steps


def _rk4(quadratic: QuadraticSpec, params: FlowParams, w, m, t: float, t_end: float, h: float):
    """Classical 4-stage integration of a coupled flow (a projector or a
    metric) from t to t_end, on the arrays (w, m)."""
    n_steps, step = _fine_steps(t_end - t, h)
    half, sixth = 0.5 * step, step / 6.0
    for _ in range(n_steps):
        k1w, k1m = _flow(w, m, t, quadratic, params)
        k2w, k2m = _flow(w + half * k1w, m + half * k1m, t + half, quadratic, params)
        k3w, k3m = _flow(w + half * k2w, m + half * k2m, t + half, quadratic, params)
        k4w, k4m = _flow(w + step * k3w, m + step * k3m, t + step, quadratic, params)
        w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        m = m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        t += step
    return w, m


def _rk4_per_coordinate(quadratic: QuadraticSpec, advance, state0, times, h: float):
    """Integrate a flow whose coordinates are decoupled, one coordinate at a
    time. state0 holds the flow's variables as d-vectors. advance(lam, b, y,
    t, n_steps, step) runs the variables y of the coordinate with eigenvalue
    lam and offset b, a sequence of Python floats in state0's order, through
    n_steps RK4 steps of size step from t, and returns them in that order.
    Returns the trajectory sampled at times, each row the variables
    concatenated."""
    d = quadratic.dim
    traj = np.empty((len(times), len(state0) * d))
    traj[0] = np.concatenate([np.asarray(v, dtype=float) for v in state0])
    start = traj[0].tolist()
    for i, (lam, b) in enumerate(zip(quadratic.eigenvalues.tolist(), quadratic.offsets.tolist())):
        y = start[i::d]
        for k, (t, t_next) in enumerate(zip(times[:-1], times[1:]), start=1):
            y = advance(lam, b, y, t, *_fine_steps(t_next - t, h))
            traj[k, i::d] = y
    return traj


def rk4_flow(state: DynamicsState, quadratic: QuadraticSpec, params: FlowParams, t_end: float,
             h: float = FINE_STEP) -> DynamicsState:
    """RK4 integration of flow_rhs up to t_end; the reference trajectory for
    discretization-order checks, in arrays that ``state`` does not hold. A
    flow that overflows raises ValueError from the returned state's check.

    Without a projector or a metric each coordinate's (w, m) is an
    independent system, g = lam w + b, wdot = -eta(t) (m + beta g),
    mdot = -alpha m + g, integrated as two Python floats one coordinate at a
    time, bit for bit as the vector integration. A projector or a metric
    couples the coordinates, and such a flow is integrated as vectors.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("h must be positive and finite")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < state.t:
        raise ValueError("t_end must not precede the state's clock")
    _require_dimension(state, quadratic)
    d = quadratic.dim
    if params.projector_sharp is not None or params.metric is not None:
        w, m = _rk4(quadratic, params, state.w.copy(), state.m.copy(), state.t, t_end, h)
        return DynamicsState(w, m, t_end)
    alpha, beta, eta_at = params.alpha, params.beta_pair()[0], params.eta_at

    def advance(lam, b, y, t, n_steps, step):
        w, m = y
        half, sixth = 0.5 * step, step / 6.0
        for _ in range(n_steps):
            g = lam * w + b
            k1w, k1m = -eta_at(t) * (m + beta * g), -alpha * m + g
            w2, m2 = w + half * k1w, m + half * k1m
            g = lam * w2 + b
            k2w, k2m = -eta_at(t + half) * (m2 + beta * g), -alpha * m2 + g
            w3, m3 = w + half * k2w, m + half * k2m
            g = lam * w3 + b
            k3w, k3m = -eta_at(t + half) * (m3 + beta * g), -alpha * m3 + g
            w4, m4 = w + step * k3w, m + step * k3m
            g = lam * w4 + b
            k4w, k4m = -eta_at(t + step) * (m4 + beta * g), -alpha * m4 + g
            w = w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            m = m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            t += step
        return w, m

    traj = _rk4_per_coordinate(quadratic, advance, (state.w, state.m), [state.t, t_end], h)
    return DynamicsState(traj[-1, :d], traj[-1, d:], t_end)


def nesterov_forms_trace(quadratic: QuadraticSpec, alpha: float, eta: float,
                         steps: int):
    """Iterate the lookahead and single-sequence Nesterov formulations from
    the same start and report the max entrywise gap.

    Both open with the plain gradient step w1 = w0 - eta g0: the lookahead
    form starts with zero velocity, and the single-sequence form starts its
    momentum accumulation after the first step (at m = 0 the combined factor
    eta1 * beta equals eta, folded to avoid first-step rounding).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
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

    gaps = [float(np.abs(a - b_).max()) for a, b_ in zip(traj_a, traj_b)]
    return np.array(traj_a), np.array(traj_b), max(gaps)


@dataclasses.dataclass(frozen=True)
class AdemamixFlowConfig:
    """Two-timescale momentum flow coefficients: fast/slow EMA rates, the
    slow-momentum weight, and the step-size scale."""

    alpha_fast: float
    alpha_slow: float
    kappa: float
    eta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha_fast, self.alpha_slow, self.kappa, self.eta))):
            raise ValueError("flow coefficients must be finite")
        if self.alpha_fast <= 0.0 or self.alpha_slow <= 0.0:
            raise ValueError("EMA rates must be positive")
        if self.kappa < 0.0:
            raise ValueError("kappa must be >= 0")


def ademamix_flow_trajectory(quadratic: QuadraticSpec, cfg: AdemamixFlowConfig,
                             t_grid, state0=None):
    """Integrate the 3-variable flow
        mf' = -a1 mf + a1 g,  ms' = -a2 ms + a2 g,  w' = -eta (mf + kappa ms)
    with the fine-step 4-stage integrator, returning (W, MF, MS) sampled on
    t_grid. Starts at the stationary point + 1 with zero momenta unless
    state0 = (w, mf, ms) is given.

    The quadratic is diagonal, so each coordinate's (w, mf, ms) is an
    independent system, stepped as three Python floats bit for bit as the
    vector integration.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size < 1 or not np.isfinite(t_grid).all()
            or np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be a nondecreasing vector of finite times")
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    d = quadratic.dim
    if state0 is None:
        state0 = (quadratic.start(), np.zeros(d), np.zeros(d))

    def advance(lam, b, y, _t, n_steps, step):
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

    traj = _rk4_per_coordinate(quadratic, advance, state0, t_grid.tolist(), FINE_STEP)
    return traj[:, :d], traj[:, d:2 * d], traj[:, 2 * d:]


def ademamix_ode_residual(quadratic: QuadraticSpec, cfg: AdemamixFlowConfig,
                          t_grid, state0=None) -> float:
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
    w, mf, ms = ademamix_flow_trajectory(quadratic, cfg, t_grid, state0=state0)
    g = quadratic.grad(w)
    wd = -eta * (mf + kap * ms)
    wdd = -eta * (-a1 * mf - kap * a2 * ms + (a1 + kap * a2) * g)
    hwd = quadratic.eigenvalues * wd
    wddd = -eta * (a1 * a1 * mf + kap * a2 * a2 * ms
                   - (a1 * a1 + kap * a2 * a2) * g + (a1 + kap * a2) * hwd)
    r = (wddd + (a1 + a2) * wdd + a1 * a2 * wd
         + eta * (a1 + kap * a2) * hwd + eta * a1 * a2 * (1.0 + kap) * g)
    return float(np.abs(r).max())
