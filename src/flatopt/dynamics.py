"""Continuous-time views of the optimizers: the damped second-order system,
its first-order momentum flow (one flow that splits into a sharp part and a
chi-amplified flat part when a sharp projector is set), a semi-implicit
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
two-timescale flow always, integrate one coordinate at a time as Python
floats: each expression is the vector one written per entry, and a float
rounds as a numpy entry does, so the bytes are the vector integration's. A
projector or a metric couples the coordinates, and rk4_flow integrates such
a flow as vectors.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import sym_eig
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
    identity). Both are checked once here, and F is eigendecomposed once.
    Without a projector P = I, so chi != 1 or beta1 != beta2 would have no
    effect and is rejected.
    """

    alpha: float
    beta: object = 0.0
    eta_of_t: object = 1.0
    chi: float = 1.0
    projector_sharp: np.ndarray | None = None
    metric: np.ndarray | None = None
    _metric_eig: tuple | None = dataclasses.field(default=None, init=False, repr=False,
                                                  compare=False)

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
    """F^{-1} u for the velocity wdot = -eta F^{-1} u. With a sharp projector P,
    u = P(m + beta1 g) + chi((m + beta2 g) - P(m + beta2 g)); without one,
    u = m + beta1 g."""
    b1, b2 = params.beta_pair()
    if params.projector_sharp is None:
        u = m + b1 * g
    else:
        p = params.projector_sharp
        u = p @ (m + b1 * g) + params.chi * ((m + b2 * g) - p @ (m + b2 * g))
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
    """wdot = -eta F^{-1} u, mdot = -alpha m + grad f. Without a projector
    u = m + beta grad f; with one, the sharp projection keeps rate eta and
    damping beta1 while the flat complement is amplified by chi and damped
    with beta2."""
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


def _rk4(rhs, y, t: float, t_end: float, h: float):
    """Classical 4-stage integration of y' = rhs(t, y) from t to t_end in
    ceil((t_end - t) / h) equal steps.

    y is a sequence of components, each a float or an array, and rhs returns
    one derivative per component; a span <= 0 hands y back unchanged, and
    otherwise the result is a tuple. The stages combine each component as
    a + (0.5 * step) * b and a + (step / 6.0) * (b1 + 2 b2 + 2 b3 + b4),
    so a float component rounds exactly as one entry of an array would.
    The stage states are built as lists, the cheapest sequence to build.
    """
    span = t_end - t
    if span <= 0:
        return y
    n_steps = max(1, int(math.ceil(span / h - 1e-12)))
    step = span / n_steps
    half, sixth = 0.5 * step, step / 6.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + step, [a + step * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        t += step
    return tuple(y)


def _rk4_per_coordinate(quadratic: QuadraticSpec, make_rhs, state0, times, h: float):
    """Integrate a flow whose coordinates are decoupled, one coordinate at a
    time. state0 holds the flow's variables as vectors of the quadratic's
    dimension d, and make_rhs(lam, b) returns the right-hand side of one
    coordinate's variables as Python floats. Returns the trajectory sampled
    at times, one row per time, each row the variables concatenated."""
    d = quadratic.dim
    traj = np.empty((len(times), len(state0) * d))
    traj[0] = np.concatenate([np.asarray(v, dtype=float) for v in state0])
    start = traj[0].tolist()
    for i, (lam, b) in enumerate(zip(quadratic.eigenvalues.tolist(), quadratic.offsets.tolist())):
        rhs = make_rhs(lam, b)
        y = start[i::d]
        for k, (t, t_next) in enumerate(zip(times[:-1], times[1:]), start=1):
            y = _rk4(rhs, y, t, t_next, h)
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
        w, m = _rk4(lambda t, y: _flow(y[0], y[1], t, quadratic, params),
                    (state.w.copy(), state.m.copy()), state.t, t_end, h)
        return DynamicsState(w, m, t_end)
    alpha, beta, eta_at = params.alpha, params.beta_pair()[0], params.eta_at

    def make_rhs(lam, b):
        def rhs(t, y):
            w, m = y
            g = lam * w + b
            return -eta_at(t) * (m + beta * g), -alpha * m + g
        return rhs

    traj = _rk4_per_coordinate(quadratic, make_rhs, (state.w, state.m), [state.t, t_end], h)
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
    independent system of three Python floats, integrated one coordinate at
    a time. Every expression is the vector one written per entry, and a
    float rounds as a numpy entry does, so the result is bit for bit the
    vector integration's.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size < 1 or not np.isfinite(t_grid).all()
            or np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be a nondecreasing vector of finite times")
    a1, a2, kap, eta = cfg.alpha_fast, cfg.alpha_slow, cfg.kappa, cfg.eta
    d = quadratic.dim
    if state0 is None:
        state0 = (quadratic.start(), np.zeros(d), np.zeros(d))

    def make_rhs(lam, b):
        def rhs(_t, y):
            w, f, s = y
            g = lam * w + b
            return -eta * (f + kap * s), -a1 * f + a1 * g, -a2 * s + a2 * g
        return rhs

    traj = _rk4_per_coordinate(quadratic, make_rhs, state0, t_grid.tolist(), FINE_STEP)
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
