"""Optimizer steppers, block routing, schedules, clipping, weight decay.

Families: elementwise baselines (adamw, n_adamw, lion, mars, ademamix),
matrix-preconditioned baselines (muon, soap), and their flat-direction
accelerated variants (muon_lite, soap_lite).

Two tables are the one place that decides routing, state and the LITE
stage: FAMILIES gives each family's stepper kind per block role, and KINDS
gives each kind its stepper, the state arrays it keeps beside m, its LITE
controller and the config keys its stepper reads. A stepper maps a block's
matrix, state and gradient to the new matrix: it advances the state and
never writes into the matrix or the gradient.

LITE is a stage of step_muon, step_soap and step_adamw, not a stepper of its
own: it runs when the block's state holds a controller, splits the base
update into sharp and flat parts (composite projector or smoothed
second-moment mask) and reweights them by lite_weights, as dynamics' split
flow does: an adam_lite or soap_lite step is one step of that flow at h = 1,
but muon_lite's is not, as its map is the polar factor, not a linear metric.

Bit-exactness: with chi=1 and beta1=beta2=0 a lite family reproduces its
baseline entrywise over whole trajectories, because both run the one base
path and the trivial policy skips the reweighting instead of multiplying by
an assembled, rounded identity. The controllers still advance for telemetry.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from .linalg import check_fields, frobenius, qr_decompose
from .polar import RankController, composite_sharp_projection, ns_polar, update_rank_controller
from .subspace import SoapMaskController, smoothed_sharp_mask, update_soap_controller

ROLES = ("muon", "adam", "embedding", "output")

# family -> stepper kind per role, in ROLES order. The lite families put the
# mask stage (adam_lite) on embedding blocks only; output blocks stay plain.
FAMILIES = {
    "adamw": ("adamw",) * 4,
    "n_adamw": ("n_adamw",) * 4,
    "lion": ("lion",) * 4,
    "mars": ("mars",) * 4,
    "ademamix": ("ademamix",) * 4,
    "muon": ("muon", "adamw", "adamw", "adamw"),
    "soap": ("soap", "adamw", "adamw", "adamw"),
    "muon_lite": ("muon_lite", "adamw", "adam_lite", "adamw"),
    "soap_lite": ("soap_lite", "adamw", "adam_lite", "adamw"),
}


@dataclasses.dataclass(frozen=True)
class LitePolicy:
    """Acceleration knobs: chi amplifies the flat-direction step, beta1/beta2
    are the gradient-correction weights on the sharp/flat parts.

    beta1 may be negative (the matrix variant is run that way in practice);
    only beta2 >= beta1 is enforced. r_s sets the sharp-subspace size as a
    fraction of the block dimension, d_smooth_ratio the ramp band width for
    the elementwise masks. One chi serves every LITE block of a run.
    """

    chi: float = 1.0
    beta1: float = 0.0
    beta2: float = 0.0
    r_s: float = 0.5
    d_smooth_ratio: float = 0.1

    def __post_init__(self):
        check_fields(self, {"chi": "[1, inf)", "r_s": "(0, 1]", "d_smooth_ratio": "[0, 1)"})
        if self.beta2 < self.beta1:
            raise ValueError("beta2 must be ≥ beta1")

    def is_trivial(self) -> bool:
        return self.chi == 1.0 and self.beta1 == 0.0 and self.beta2 == 0.0


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    lr_max: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        check_fields(self, {"lr_max": "[0, inf)", "warmup_steps": "[0, inf)",
                            "total_steps": "[1, inf)"})
        if self.kind not in ("cos", "wsd", "constant"):
            raise ValueError(f"kind '{self.kind}' is not a schedule kind")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")
        if self.kind in ("cos", "wsd") and self.warmup_steps >= self.total_steps:
            raise ValueError(f"warmup_steps < total_steps is required by a {self.kind} schedule")
        if self.kind == "wsd" and self.warmup_steps > 0.8 * self.total_steps:
            raise ValueError("warmup_steps must end before the wsd decay phase at 80% of total_steps")


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    family: str
    theta: float = 0.95
    beta_v: float = 0.99
    theta_shampoo: float = 0.95
    epsilon: float = 1e-8
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    nesterov_beta: float = 0.0
    mars_gamma: float = 0.0
    ademamix_kappa: float = 1.0
    alpha_fast: float = 0.1
    alpha_slow: float = 1e-3
    qr_refresh_every: int = 10
    lite: LitePolicy | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family '{self.family}' is unknown")
        defaults = {field.name: field.default for field in dataclasses.fields(self)}
        for key, readers in FAMILY_KEYS.items():
            if self.family not in readers and getattr(self, key) != defaults[key]:
                raise ValueError(f"optimizer.{key} is read only by "
                                 f"{' and '.join(readers)}, not by family '{self.family}'")
        check_fields(self, {"theta": "[0, 1)", "beta_v": "[0, 1)", "theta_shampoo": "[0, 1)",
                            "epsilon": "(0, inf)", "weight_decay": "[0, inf)",
                            "clip_norm": "(0, inf]", "ademamix_kappa": "[0, inf)",
                            "alpha_fast": "(0, 1]", "alpha_slow": "(0, 1]",
                            "qr_refresh_every": "[1, inf)"})
        if self.mars_gamma == 1.0:
            raise ValueError("mars_gamma = 1 discards the current gradient; rejected")
        if (self.lite is None) == (self.family in LITE_FAMILIES):
            need = "requires a lite policy" if self.lite is None else "takes no lite policy"
            raise ValueError(f"family '{self.family}' {need}")


@dataclasses.dataclass
class BlockOptState:
    """Per-block state: its stepper kind, resolved once by init_state, and the
    fields that stepper needs, else None; ``step`` counts SOAP's steps, and the
    QR refresh runs at the start of the step after every qr_refresh_every-th one."""

    m: np.ndarray
    kind: StepperKind
    v: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    m_slow: np.ndarray | None = None
    gram_l: np.ndarray | None = None
    gram_r: np.ndarray | None = None
    q_l: np.ndarray | None = None
    q_r: np.ndarray | None = None
    rank_ctrl: RankController | None = None
    mask_ctrl: SoapMaskController | None = None
    step: int = 0
    last_sharp_mass: float | None = None


def init_state(shape, role: str, cfg: OptimizerConfig) -> BlockOptState:
    """Zeroed state of a (rows, cols) block for the stepper kind FAMILIES
    gives its (family, role) pair."""
    rows, cols = shape  # ValueError for a shape that is not 2-D
    if role not in ROLES:
        raise ValueError(f"unknown role '{role}'")
    kind = KINDS[FAMILIES[cfg.family][ROLES.index(role)]]
    state = BlockOptState(np.zeros(shape), kind, **{name: np.zeros(shape) for name in kind.arrays})
    if kind.step is step_soap:
        state.gram_l = np.zeros((rows, rows))
        state.gram_r = np.zeros((cols, cols))
        state.q_l = np.eye(rows)
        state.q_r = np.eye(cols)
    if kind.controller == "rank":
        n = min(rows, cols)
        d_s = math.ceil(cfg.lite.r_s * n)
        # 1/sqrt(n) puts the initial threshold at the RMS singular value; the
        # feedback loop takes it from there.
        state.rank_ctrl = RankController(scale_l=1.0 / math.sqrt(n), target_dim=d_s)
    if kind.controller == "mask":
        count = rows * cols
        state.mask_ctrl = SoapMaskController(d_s=math.ceil(cfg.lite.r_s * count),
                                             d_smooth=math.ceil(cfg.lite.d_smooth_ratio * count))
    return state


def init_states(layouts, cfg: OptimizerConfig):
    """init_state for each named layout, read from its ``.shape`` and ``.role``."""
    return {name: init_state(layout.shape, layout.role, cfg) for name, layout in layouts.items()}


def lr_at(schedule: ScheduleSpec, step: int) -> float:
    """Learning rate at a (1-based) step; warmup is linear up to lr_max."""
    if step < 0:
        raise ValueError(f"step must be ≥ 0, got {step}")
    if step > schedule.total_steps:
        raise ValueError(f"step {step} beyond schedule end {schedule.total_steps}")
    if schedule.warmup_steps > 0 and step <= schedule.warmup_steps:
        return schedule.lr_max * step / schedule.warmup_steps
    if schedule.kind == "constant":
        return schedule.lr_max
    if schedule.kind == "cos":
        span = schedule.total_steps - schedule.warmup_steps
        progress = (step - schedule.warmup_steps) / span
        return schedule.lr_max * (0.1 + 0.45 * (1.0 + math.cos(math.pi * progress)))
    decay_start = 0.8 * schedule.total_steps
    if step <= decay_start:
        return schedule.lr_max
    return schedule.lr_max * (schedule.total_steps - step) / (schedule.total_steps - decay_start)


def clip_global_norm(grads, threshold: float):
    """Scale every block by threshold/norm when the joint Euclidean norm over
    all blocks exceeds the threshold; otherwise return the inputs untouched."""
    if threshold <= 0.0:
        raise ValueError("clip threshold must be positive")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total <= threshold:
        return list(grads)
    scale = threshold / total
    return [g * scale for g in grads]


def _apply(w, direction, lr: float, wd: float):
    # single shared form of the decoupled-decay update; every stepper returns
    # it, so matched directions give matched iterates bitwise
    return w - lr * (direction + wd * w)


def _ema_mv(state: BlockOptState, g, cfg: OptimizerConfig):
    state.m = cfg.theta * state.m + (1.0 - cfg.theta) * g
    state.v = cfg.beta_v * state.v + (1.0 - cfg.beta_v) * g * g
    return np.sqrt(state.v) + cfg.epsilon


def lite_weights(chi: float, beta1: float, beta2: float, sharp, identity):
    """The LITE split's weights (sharp + chi*flat, beta1*sharp + chi*beta2*flat)
    with flat = identity - sharp, for a projector and the eye or a mask and 1."""
    flat = identity - sharp
    return sharp + chi * flat, beta1 * sharp + chi * beta2 * flat


def _mask_and_update(state: BlockOptState, pol: LitePolicy, g, denom, core):
    """LITE stage of the elementwise-preconditioned steppers: mask the second
    moment, advance the threshold controller, record the sharp mass, and
    reweight core = momentum/denom unless the policy is trivial."""
    mask = smoothed_sharp_mask(state.v, state.mask_ctrl)
    state.mask_ctrl = update_soap_controller(state.mask_ctrl, state.v)
    state.last_sharp_mass = float(mask.sum())
    if pol.is_trivial():
        return core
    w_m, w_g = lite_weights(pol.chi, pol.beta1, pol.beta2, mask, 1.0)
    return w_g * (g / denom) + w_m * core


def step_adamw(w, state, g, lr, cfg):
    """AdamW; a mask controller (adam_lite) adds the LITE stage."""
    denom = _ema_mv(state, g, cfg)
    direction = state.m / denom
    if state.mask_ctrl is not None:
        direction = _mask_and_update(state, cfg.lite, g, denom, direction)
    return _apply(w, direction, lr, cfg.weight_decay)


def step_n_adamw(w, state, g, lr, cfg):
    """AdamW with a Nesterov-style numerator m + beta*g."""
    denom = _ema_mv(state, g, cfg)
    return _apply(w, (state.m + cfg.nesterov_beta * g) / denom, lr, cfg.weight_decay)


def step_lion(w, state, g, lr, cfg):
    """Sign update from the old-momentum blend; sign(0) contributes nothing."""
    u = cfg.theta * state.m + (1.0 - cfg.theta) * g
    state.m = cfg.beta_v * state.m + (1.0 - cfg.beta_v) * g
    return _apply(w, np.sign(u), lr, cfg.weight_decay)


def step_mars(w, state, g, lr, cfg):
    """AdamW on the variance-reduced gradient c = g + gamma*theta/(1-theta)*(g - prev_g)."""
    c = g + cfg.mars_gamma * cfg.theta / (1.0 - cfg.theta) * (g - state.prev_g)
    denom = _ema_mv(state, c, cfg)
    state.prev_g = g.copy()
    return _apply(w, state.m / denom, lr, cfg.weight_decay)


def step_ademamix(w, state, g, lr, cfg):
    """Two-timescale momentum: a fast EMA plus kappa times a slow EMA."""
    a1, a2 = cfg.alpha_fast, cfg.alpha_slow
    state.m = (1.0 - a1) * state.m + a1 * g
    state.m_slow = (1.0 - a2) * state.m_slow + a2 * g
    state.v = cfg.beta_v * state.v + (1.0 - cfg.beta_v) * g * g
    denom = np.sqrt(state.v) + cfg.epsilon
    return _apply(w, (state.m + cfg.ademamix_kappa * state.m_slow) / denom, lr, cfg.weight_decay)


def step_muon(w, state, g, lr, cfg):
    """Polar-factor update on the accumulate-then-blend momentum u = theta*m + g.

    A rank controller (muon_lite) adds the LITE stage: the composite sharp
    projector of u, built on the polar factor already in hand, splits the
    update, and the flat part and the gradient's polar factor are reweighted.
    u is a positive multiple of the blended momentum m + g/theta and every
    consumer is scale-invariant, so the two conventions define one update.
    """
    state.m = cfg.theta * state.m + g
    u = cfg.theta * state.m + g
    wide = u.shape[0] < u.shape[1]
    u_o = u.T if wide else u  # the rows >= cols orientation the polar formulas assume
    core = ns_polar(u_o)
    if state.rank_ctrl is not None:
        pol = cfg.lite
        proj, _ = composite_sharp_projection(u_o, state.rank_ctrl, polar=core)
        p_frob = frobenius(proj)
        state.rank_ctrl = update_rank_controller(state.rank_ctrl, p_frob)
        state.last_sharp_mass = float(p_frob * p_frob)
        if not pol.is_trivial():
            w_m, w_g = lite_weights(pol.chi, pol.beta1, pol.beta2, proj, np.eye(proj.shape[0]))
            core = core @ w_m + ns_polar(g.T if wide else g) @ w_g
    direction = core.T if wide else core
    return _apply(w, 0.2 * math.sqrt(max(w.shape)) * direction, lr, cfg.weight_decay)


def step_soap(w, state, g, lr, cfg):
    """Adam moments in the eigenbasis of the Gram EMAs; a mask controller
    (soap_lite) adds the LITE stage on the rotated update. The Gram EMAs follow
    the update. The basis is refreshed by QR at the start of the step after
    every qr_refresh_every-th step, the first step that reads it, so a run
    computes no basis after its last step."""
    if state.step and state.step % cfg.qr_refresh_every == 0:
        state.q_l, _ = qr_decompose(state.gram_l @ state.q_l)
        state.q_r, _ = qr_decompose(state.gram_r @ state.q_r)
    state.step += 1
    g_rot = state.q_l.T @ g @ state.q_r
    state.m = cfg.theta * state.m + (1.0 - cfg.theta) * g
    state.v = cfg.beta_v * state.v + (1.0 - cfg.beta_v) * g_rot * g_rot
    m_rot = state.q_l.T @ state.m @ state.q_r
    denom = np.sqrt(state.v) + cfg.epsilon
    core = m_rot / denom
    if state.mask_ctrl is not None:
        core = _mask_and_update(state, cfg.lite, g_rot, denom, core)
    new_w = _apply(w, state.q_l @ core @ state.q_r.T, lr, cfg.weight_decay)
    th = cfg.theta_shampoo
    state.gram_l = th * state.gram_l + (1.0 - th) * (g @ g.T)
    state.gram_r = th * state.gram_r + (1.0 - th) * (g.T @ g)
    return new_w


class StepperKind(NamedTuple):
    step: Callable  # (w, state, g, lr, cfg) -> the new w
    arrays: tuple  # state arrays of the block's shape kept beside m
    controller: str | None  # LITE controller: "rank", "mask" or None
    keys: tuple  # OptimizerConfig fields the stepper reads


_ADAM_KEYS = ("theta", "beta_v", "epsilon", "weight_decay")
_SOAP_KEYS = _ADAM_KEYS + ("theta_shampoo", "qr_refresh_every")

KINDS = {
    "adamw": StepperKind(step_adamw, ("v",), None, _ADAM_KEYS),
    "n_adamw": StepperKind(step_n_adamw, ("v",), None, _ADAM_KEYS + ("nesterov_beta",)),
    "lion": StepperKind(step_lion, (), None, ("theta", "beta_v", "weight_decay")),
    "mars": StepperKind(step_mars, ("v", "prev_g"), None, _ADAM_KEYS + ("mars_gamma",)),
    "ademamix": StepperKind(step_ademamix, ("v", "m_slow"), None,
                            ("beta_v", "epsilon", "weight_decay",
                             "ademamix_kappa", "alpha_fast", "alpha_slow")),
    "muon": StepperKind(step_muon, (), None, ("theta", "weight_decay")),
    "soap": StepperKind(step_soap, ("v",), None, _SOAP_KEYS),
    "muon_lite": StepperKind(step_muon, (), "rank", ("theta", "weight_decay")),
    "soap_lite": StepperKind(step_soap, ("v",), "mask", _SOAP_KEYS),
    "adam_lite": StepperKind(step_adamw, ("v",), "mask", _ADAM_KEYS),
}

LITE_FAMILIES = {family for family, kinds in FAMILIES.items()
                 if any(KINDS[k].controller for k in kinds)}

# key -> the families whose stepper kinds read it, in FAMILIES order;
# OptimizerConfig rejects a non-default value for any other family. clip_norm
# is no stepper's key: route_and_step clips for every family.
FAMILY_KEYS = {key: tuple(family for family, kinds in FAMILIES.items()
                          if any(key in KINDS[k].keys for k in kinds))
               for kind in KINDS.values() for key in kind.keys}


def route_and_step(mats, states, grads, step, schedule: ScheduleSpec,
                   cfg: OptimizerConfig):
    """One optimization step over every block of the run's ``mats`` dict.

    Clips the joint gradient norm once, then steps each block with the
    stepper kind its state holds, in lexicographic name order so runs reproduce
    exactly regardless of how callers parallelize. ``mats[name]`` is replaced
    by the stepper's result; no matrix is written into.
    """
    order = sorted(mats)
    if sorted(states) != order or sorted(grads) != order:
        raise ValueError("mats, states and grads must share one name set")
    lr = lr_at(schedule, step)
    clipped = clip_global_norm([grads[name] for name in order], cfg.clip_norm)
    for name, g in zip(order, clipped):
        mats[name] = states[name].kind.step(mats[name], states[name], g, lr, cfg)
