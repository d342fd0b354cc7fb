"""Acceptance gate: thirteen numbered criteria, one test and one printed
pass/fail verdict per criterion, each with a pinned tolerance and a wall-clock
budget. Run with -s to see the verdict lines on success."""

import functools
import math
import tempfile
import time

import numpy as np

from flatopt.dynamics import (
    AdemamixFlowConfig,
    DynamicsState,
    FlowParams,
    ademamix_ode_residual,
    nesterov_forms_trace,
    rk4_flow,
    semi_implicit_step,
)
from flatopt.harness import parse_config, run_experiment
from flatopt.landscapes import (
    MlpLandscape,
    MlpSpec,
    alignment_experiment,
    gram_alignment_curve,
)
from flatopt.linalg import frobenius, svd_oracle
from flatopt.optim import (
    LitePolicy,
    OptimizerConfig,
    ScheduleSpec,
    init_states,
    route_and_step,
)
from flatopt.polar import NsSchedule, RankController, composite_sharp_projection, ns_polar, update_rank_controller
from flatopt.quadratic import (
    QuadraticSpec,
    analyze_mode,
    classify_regime,
    monotonicity_probe,
    recurrence_coeffs,
    regime_boundaries,
    simulate_recurrence,
    stability_bound,
)
from flatopt.rng import SplitMix64


def criterion(num, label, budget):
    """Wrap a test body with a verdict line and a hard runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:02d} {label}: FAIL")
                raise
            elapsed = time.monotonic() - t0
            if elapsed >= budget:
                print(f"criterion {num:02d} {label}: FAIL (runtime {elapsed:.1f}s over the {budget:.0f}s budget)")
                raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s")
            print(f"criterion {num:02d} {label}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
        return wrapper
    return deco


def _first_index_below(values, tol):
    hits = np.nonzero(np.asarray(values) <= tol)[0]
    assert hits.size, f"threshold {tol} never reached"
    return int(hits[0])


# --------------------------------------------------------------------------
# 1. Trivial acceleration policy reproduces the plain optimizers bit for bit.

def _run_twin_trajectories(base_family, lite_family, steps=200):
    land = MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=11)
    sched = ScheduleSpec("constant", 0.01, 0, steps)
    cfgs = {
        "base": OptimizerConfig(family=base_family),
        "lite": OptimizerConfig(family=lite_family, lite=LitePolicy()),
    }
    mats = {k: land.unpack(land.initial_point) for k in cfgs}
    states = {k: init_states(land.blocks, cfgs[k]) for k in cfgs}
    for step in range(1, steps + 1):
        batch = land.fresh_batch(step)
        for k, cfg in cfgs.items():
            _, grads = land.loss_and_block_grads(mats[k], batch)
            route_and_step(mats[k], states[k], grads, step, sched, cfg)
        for name in land.blocks:
            assert np.array_equal(mats["base"][name], mats["lite"][name]), (
                f"{base_family} vs {lite_family} split at step {step}, block {name}")


@criterion(1, "trivial policy recovers the baselines", budget=30.0)
def test_01_trivial_policy_recovers_baselines():
    _run_twin_trajectories("muon", "muon_lite")
    _run_twin_trajectories("soap", "soap_lite")


# --------------------------------------------------------------------------
# 2. Newton-Schulz polar factor against the dense SVD oracle.

@criterion(2, "polar factor oracle", budget=20.0)
def test_02_polar_factor_oracle():
    rng = SplitMix64(202)
    six, ten = NsSchedule(iterations=6), NsSchedule(iterations=10)
    for _ in range(200):
        m = int(rng.integers(4, 65))
        n = int(rng.integers(2, 33))
        k = min(m, n)
        g = rng.normal((m, n))
        u, _, v = svd_oracle(g)
        sigma = np.sort(0.05 + 0.95 * rng.uniform(k))[::-1]
        a = u[:, :k] @ (sigma[:, None] * v[:, :k].T)
        ru, _, rv = svd_oracle(a)
        reference = ru @ rv.T
        scale = math.sqrt(m * n)
        assert frobenius(ns_polar(a, six) - reference) <= 1e-2 * scale
        assert frobenius(ns_polar(a, ten) - reference) <= 1e-4 * scale


# --------------------------------------------------------------------------
# 3. Composite projector vs the top-k subspace, and the rank feedback loop.

@criterion(3, "composite projection oracle", budget=30.0)
def test_03_composite_projection_oracle():
    rng = SplitMix64(303)
    for _ in range(100):
        m = int(rng.integers(8, 49))
        n = int(rng.integers(4, min(m, 24) + 1))
        k = int(rng.integers(1, n))
        # sharp block in [0.6, 1], the rest in [0.05, 0.4]: a 33% relative
        # gap around the threshold placed at their geometric midpoint
        sigma = np.concatenate([
            np.sort(0.6 + 0.4 * rng.uniform(k))[::-1],
            np.sort(0.05 + 0.35 * rng.uniform(n - k))[::-1],
        ])
        g = rng.normal((m, n))
        u, _, v = svd_oracle(g)
        a = u[:, :n] @ (sigma[:, None] * v.T)
        ctrl = RankController(scale_l=math.sqrt(0.6 * 0.4) / frobenius(a), target_dim=k)
        p, _ = composite_sharp_projection(a, ctrl, ns_polar(a))
        _, _, va = svd_oracle(a)
        p_top = va[:, :k] @ va[:, :k].T
        assert frobenius(p - p_top) < 1e-2

    # feedback half: from a generic start the threshold scale steers the
    # projector mass into the +-1 window around the target within 200 updates
    for seed in (1, 2, 3):
        rng2 = SplitMix64(seed)
        m, n, d_s = 48, 32, 8
        sigma = np.sort(0.05 + 0.95 * rng2.uniform(n))[::-1]
        g = rng2.normal((m, n))
        u, _, v = svd_oracle(g)
        a = u[:, :n] @ (sigma[:, None] * v.T)
        ctrl = RankController(scale_l=1.0 / math.sqrt(n), target_dim=d_s)
        landed = None
        for update in range(200):
            p, _ = composite_sharp_projection(a, ctrl, ns_polar(a))
            mass = float((p * p).sum())
            if d_s - 1.0 <= mass <= d_s + 1.0:
                landed = update
                break
            ctrl = update_rank_controller(ctrl, math.sqrt(mass))
        assert landed is not None, f"seed {seed}: projector mass never entered [{d_s - 1}, {d_s + 1}]"


# --------------------------------------------------------------------------
# 4. Step-size ceiling: root moduli flip at the bound, and simulation agrees.

@criterion(4, "stability boundary", budget=60.0)
def test_04_stability_boundary():
    rng = SplitMix64(404)
    spot_cases = []
    for _ in range(1000):
        alpha = 0.05 + 0.9 * float(rng.uniform(1)[0])
        beta = 3.0 * float(rng.uniform(1)[0])
        lam = 10.0 ** (3.0 * float(rng.uniform(1)[0]) - 1.0)
        factor = 0.1 + 1.9 * float(rng.uniform(1)[0])
        bound = stability_bound(lam, alpha, beta)
        if abs(factor - 1.0) <= 1e-9:
            continue
        modulus = analyze_mode(lam, alpha, beta, factor * bound).dominant_modulus
        if factor < 1.0:
            assert modulus <= 1.0 + 1e-12, (alpha, beta, lam, factor, modulus)
        else:
            assert modulus > 1.0, (alpha, beta, lam, factor, modulus)
            if len(spot_cases) < 20 and analyze_mode(lam, alpha, beta, 1.001 * bound).dominant_modulus >= 1.0015:
                spot_cases.append((alpha, beta, lam, bound))
    assert len(spot_cases) == 20

    for alpha, beta, lam, bound in spot_cases:
        spec = QuadraticSpec(np.array([lam]), np.array([0.0]))
        w0, m0 = np.ones(1), np.zeros(1)
        inside = simulate_recurrence(spec, alpha, beta, 0.999 * bound, w0, m0, 2000)
        assert not inside.diverged
        assert np.abs(inside.errors).max() <= 200.0
        outside = simulate_recurrence(spec, alpha, beta, 1.001 * bound, w0, m0, 9000)
        assert outside.diverged or np.abs(outside.errors).max() >= 2e3


# --------------------------------------------------------------------------
# 5. The curvature interval where modes turn oscillatory.

@criterion(5, "regime boundaries", budget=5.0)
def test_05_regime_boundaries():
    alpha, beta, eta = 0.1, 1.0, 0.01
    lam1, lam2 = regime_boundaries(alpha, beta, eta)
    assert abs(lam1 - 0.25063) <= 1e-3
    assert abs(lam2 - 99.74937) <= 1e-3
    assert classify_regime(*recurrence_coeffs(lam1, alpha, beta, eta)) == "critical"
    assert classify_regime(*recurrence_coeffs(lam2, alpha, beta, eta)) == "critical"
    assert classify_regime(*recurrence_coeffs(0.99 * lam1, alpha, beta, eta)) == "overdamped"
    assert classify_regime(*recurrence_coeffs(math.sqrt(lam1 * lam2), alpha, beta, eta)) == "underdamped"
    assert classify_regime(*recurrence_coeffs(1.01 * lam2, alpha, beta, eta)) == "overdamped"


# --------------------------------------------------------------------------
# 6. Dominant-root monotonicity in the damping knobs, both curvature signs.

@criterion(6, "dominant-root monotonicity", budget=5.0)
def test_06_dominant_root_monotonicity():
    etas_neg = np.linspace(0.001, 0.02, 5)
    etas_pos = np.linspace(0.005, 0.02, 5)
    betas = np.linspace(0.0, 2.0, 5)
    for lam in -np.geomspace(0.01, 1.0, 10):
        probe = monotonicity_probe(float(lam), 0.1, etas_neg, betas)
        assert probe.expected == "increasing"
        assert probe.included.all(), probe.excluded_points
        assert probe.passed, probe.violations
    for lam in np.geomspace(0.001, 0.1, 10):
        probe = monotonicity_probe(float(lam), 0.1, etas_pos, betas)
        assert probe.expected == "decreasing"
        assert probe.included.all(), probe.excluded_points
        assert probe.passed, probe.violations


# --------------------------------------------------------------------------
# 7. Flat-direction acceleration on a 1-sharp / 99-flat spectrum.

@criterion(7, "flat-direction acceleration", budget=60.0)
def test_07_flat_direction_acceleration():
    alpha, chi, beta2 = 0.1, 4.0, 1.0
    lam_sharp, lam_flat, n_flat = 100.0, 0.01, 99
    eta = 0.9 * stability_bound(lam_sharp, alpha, 0.0)

    sharp_mod = analyze_mode(lam_sharp, alpha, 0.0, eta).dominant_modulus
    base_flat = analyze_mode(lam_flat, alpha, 0.0, eta).dominant_modulus
    lite_flat = analyze_mode(lam_flat, alpha, beta2, chi * eta).dominant_modulus
    assert sharp_mod < 1.0
    assert analyze_mode(lam_flat, alpha, beta2, chi * eta).dominant_modulus < 1.0
    assert lite_flat < base_flat

    lam_all = np.concatenate([[lam_sharp], np.full(n_flat, lam_flat)])
    spec_all = QuadraticSpec(lam_all, np.zeros(lam_all.size))
    base = simulate_recurrence(spec_all, alpha, 0.0, eta,
                               np.ones(lam_all.size), np.zeros(lam_all.size), 4000)
    assert not base.diverged
    f_base = 0.5 * (base.errors ** 2 @ lam_all)
    k_base = _first_index_below(f_base, 1e-6)

    # the amplified step and damping act on the flat modes only; the sharp
    # mode keeps the baseline recursion, so the two groups run separately
    sharp = simulate_recurrence(QuadraticSpec(np.array([lam_sharp]), np.zeros(1)),
                                alpha, 0.0, eta, np.ones(1), np.zeros(1), 1500)
    flat = simulate_recurrence(QuadraticSpec(np.full(n_flat, lam_flat), np.zeros(n_flat)),
                               alpha, beta2, chi * eta,
                               np.ones(n_flat), np.zeros(n_flat), 1500)
    assert not sharp.diverged and not flat.diverged
    f_lite = 0.5 * (lam_sharp * sharp.errors[:, 0] ** 2
                    + flat.errors ** 2 @ np.full(n_flat, lam_flat))
    k_lite = _first_index_below(f_lite, 1e-6)
    assert k_base / k_lite >= 1.5, (k_base, k_lite)


# --------------------------------------------------------------------------
# 8. The flow discretized at h = 1 is the optimizer; order 1 as h shrinks.

@criterion(8, "discretization identity", budget=30.0)
def test_08_discretization_identity():
    qspec = QuadraticSpec(np.array([3.0, 1.0, 0.5]), np.array([1.0, -1.0, 0.5]))
    alpha, beta, eta = 0.3, 0.7, 0.05
    params = FlowParams(alpha=alpha, beta=beta, eta=eta)
    w0 = qspec.stationary_point() + 1.0
    m0 = 0.5 * np.ones(3)

    g0 = qspec.grad(w0)
    m1 = (1.0 - alpha) * m0 + g0
    w1 = w0 - eta * (m1 + beta * g0)
    stepped = semi_implicit_step(DynamicsState(w0.copy(), m0.copy(), t=0.0), qspec, params, 1.0)
    assert np.array_equal(stepped.m, m1)
    assert np.array_equal(stepped.w, w1)

    reference = rk4_flow(DynamicsState(w0.copy(), m0.copy(), t=0.0), qspec, params, 0.5, h=1e-4)
    hs = (0.1, 0.05, 0.025, 0.0125)
    errs = []
    for h in hs:
        state = DynamicsState(w0.copy(), m0.copy(), t=0.0)
        for _ in range(round(0.5 / h)):
            state = semi_implicit_step(state, qspec, params, h)
        errs.append(np.abs(state.w - reference.w).max())
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2, slope


# --------------------------------------------------------------------------
# 9. Lookahead and single-sequence momentum forms follow the same path.

@criterion(9, "momentum form equivalence", budget=5.0)
def test_09_momentum_form_equivalence():
    for seed in (1, 2, 3):
        rng = SplitMix64(seed)
        lam = np.sort(0.5 + 2.0 * rng.uniform(6))[::-1]
        b = rng.normal((6,))
        spec = QuadraticSpec(lam, b)
        for alpha in (0.1, 0.5, 0.9):
            _, _, gap = nesterov_forms_trace(spec, alpha, 0.25, 100)
            assert gap <= 1e-10, (seed, alpha, gap)


# --------------------------------------------------------------------------
# 10. Two-timescale momentum flow satisfies its third-order identity.

@criterion(10, "two-timescale flow identity", budget=10.0)
def test_10_two_timescale_flow_identity():
    t_grid = np.linspace(0.0, 4.0, 17)
    for lam, b in ((2.0, 0.3), (0.7, -1.2), (5.0, 0.0)):
        spec = QuadraticSpec(np.array([lam]), np.array([b]))
        for a1, a2, kappa, eta in ((0.5, 0.05, 2.0, 0.3),
                                   (1.0, 0.01, 5.0, 0.1),
                                   (0.2, 0.02, 0.0, 0.5)):
            cfg = AdemamixFlowConfig(alpha_fast=a1, alpha_slow=a2, kappa=kappa, eta=eta)
            assert ademamix_ode_residual(spec, cfg, t_grid) <= 1e-8


# --------------------------------------------------------------------------
# 11. Gradient-Gram eigenspaces cover the top curvature directions.

@criterion(11, "curvature coverage curves", budget=120.0)
def test_11_curvature_coverage_curves():
    # network route: bounded, monotone, saturating curves on every block/side
    curves = alignment_experiment(MlpSpec(widths=(6, 8, 4), batch_size=16), seed=3,
                                  train_steps=60, d_s=2, k_grid=(2, 4, 6, 8))
    for name, sides in curves.items():
        for side, curve in sides.items():
            covs = [c for _, c in curve]
            assert all(0.0 <= c <= 1.0 + 1e-12 for c in covs), (name, side, covs)
            assert all(b >= a - 1e-9 for a, b in zip(covs, covs[1:])), (name, side, covs)
            # the grid tops out at the side's dimension, where coverage is total
            assert covs[-1] >= 1.0 - 1e-8, (name, side, covs)

    # stochastic-gradient route with a known Hessian: gradients at a fixed
    # point are G = W diag(lam) + sigma * noise, so the row Hessian is exactly
    # diag(lam) and the averaged Gram must recover its top block
    rng = SplitMix64(1111)
    m, n, d_s = 48, 32, 8
    lam = np.concatenate([np.linspace(10.0, 5.0, d_s), np.full(n - d_s, 0.01)])
    w_mat = rng.normal((m, n))
    gram = np.zeros((n, n))
    draws = 32
    for _ in range(draws):
        g = w_mat * lam + 0.02 * rng.normal((m, n))
        gram += g.T @ g
    gram /= draws
    curve = gram_alignment_curve(np.diag(lam), gram, d_s, (d_s, 12, 16, n))
    covs = [c for _, c in curve]
    assert all(0.0 <= c <= 1.0 + 1e-12 for c in covs)
    assert all(b >= a - 1e-9 for a, b in zip(covs, covs[1:]))
    assert covs[0] >= 0.99, covs
    assert covs[-1] >= 1.0 - 1e-8, covs


# --------------------------------------------------------------------------
# 12. Uniform damping shrinks the admissible sharp-direction step.

@criterion(12, "uniform damping shrinks the step ceiling", budget=1.0)
def test_12_uniform_damping_shrinks_step_ceiling():
    for alpha in np.linspace(0.02, 0.98, 50):
        assert stability_bound(10.0, float(alpha), 2.0) < stability_bound(10.0, float(alpha), 0.0)


# --------------------------------------------------------------------------
# 13. Every experiment writes the same CSV bytes twice.

_DETERMINISM_CONFIGS = (
    """run.seed = 5
run.steps = 40
landscape.kind = quadratic
landscape.eigenvalues = 4.0, 1.0, 0.25
optimizer.family = adamw
schedule.kind = cos
schedule.lr_max = 0.05
schedule.warmup_steps = 5
""",
    """run.seed = 6
run.steps = 40
landscape.kind = river_valley
landscape.sharp_dim = 4
landscape.flat_dim = 4
landscape.sharp_curvature = 50.0
optimizer.family = ademamix
schedule.kind = constant
schedule.lr_max = 0.01
""",
    """run.seed = 7
run.steps = 30
landscape.kind = mlp
landscape.widths = 6, 8, 8, 4
landscape.batch_size = 8
optimizer.family = muon_lite
lite.chi = 2.0
lite.beta2 = 0.5
schedule.kind = wsd
schedule.lr_max = 0.01
""",
    """run.seed = 8
run.steps = 30
landscape.kind = mlp
landscape.widths = 6, 8, 8, 4
landscape.batch_size = 8
optimizer.family = soap_lite
lite.chi = 2.0
lite.beta1 = 0.1
lite.beta2 = 0.5
schedule.kind = constant
schedule.lr_max = 0.005
""",
)


@criterion(13, "byte-identical reruns", budget=60.0)
def test_13_byte_identical_reruns():
    with tempfile.TemporaryDirectory() as root:
        for idx, text in enumerate(_DETERMINISM_CONFIGS):
            outputs = []
            for attempt in ("a", "b"):
                path = f"{root}/run{idx}{attempt}.csv"
                cfg = parse_config(text + f"run.output_path = {path}\n")
                summary = run_experiment(cfg)
                assert summary["status"] == "ok", summary
                with open(path, "rb") as fh:
                    outputs.append(fh.read())
            assert outputs[0] == outputs[1], f"config {idx} produced different bytes"
            assert outputs[0].count(b"\n") == cfg.steps + 1
