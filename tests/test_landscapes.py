"""Quadratic, valley-floor and MLP objectives, finite-difference Hessian
extraction, and the gradient-Gram alignment experiment."""

import math

import numpy as np
import pytest

from flatopt.landscapes import (
    BlockLayout,
    Landscape,
    MlpSpec,
    RiverValleySpec,
    alignment_experiment,
    gram_alignment_curve,
    mean_col_hessian,
    mean_row_hessian,
    mlp_landscape,
    quadratic_landscape,
    river_valley_landscape,
    top_eigenspace,
)
from flatopt.optim import OptimizerConfig, ScheduleSpec, init_states, route_and_step
from flatopt.quadratic import QuadraticSpec
from flatopt.rng import SplitMix64


def fd_gradient(loss, w, coords, step=1e-6):
    out = []
    for j in coords:
        h = step * (1.0 + abs(float(w[j])))
        wp = w.copy(); wp[j] += h
        wm = w.copy(); wm[j] -= h
        out.append((loss(wp) - loss(wm)) / (2.0 * h))
    return np.array(out)


class TestLayoutAndPacking:
    def test_layout_size(self):
        assert BlockLayout(0, (3, 4), "muon").size == 12

    def test_pack_unpack_roundtrip(self):
        land = quadratic_landscape(QuadraticSpec(np.array([2.0, 1.0]), np.zeros(2)))
        w = np.array([0.5, -1.5])
        mats = land.unpack(w)
        assert mats["all"].shape == (1, 2)
        assert np.array_equal(land.pack(mats), w)

    def test_matrix_blocks_copy_and_carry_roles(self):
        land = quadratic_landscape(QuadraticSpec(np.array([1.0]), np.zeros(1)))
        w = np.array([3.0])
        blocks = land.matrix_blocks(w)
        assert blocks["all"].role == "adam"
        blocks["all"].matrix[0, 0] = 99.0
        assert w[0] == 3.0


class TestQuadraticLandscape:
    spec = QuadraticSpec(np.array([2.0, 1.0]), np.array([1.0, -1.0]))

    def test_loss_and_gradient(self):
        land = quadratic_landscape(self.spec)
        w = np.array([1.0, 2.0])
        assert land.loss(w) == 0.5 * (2.0 + 4.0) + (1.0 - 2.0)
        assert np.array_equal(land.grad(w), np.array([3.0, 1.0]))

    def test_gradient_vanishes_at_stationary_point(self):
        land = quadratic_landscape(self.spec)
        assert np.abs(land.grad(self.spec.stationary_point())).max() == 0.0

    def test_initial_point_is_displaced_stationary(self):
        land = quadratic_landscape(self.spec)
        assert np.array_equal(land.initial_point, self.spec.stationary_point() + 1.0)


class TestRiverValley:
    def test_loss_matches_defining_formula(self):
        spec = RiverValleySpec(sharp_dim=2, flat_dim=2, sharp_curvature=100.0)
        land = river_valley_landscape(spec)
        w = np.array([1.0, -0.5, 0.3, 0.8])
        xs, xf = w[:2], w[2:]
        r = xs - 0.1 * np.sin(xf)
        expected = 0.5 * 100.0 * (r * r).sum() + 0.5 * (100.0 / 1e4) * (xf * xf).sum()
        assert land.loss(w) == pytest.approx(expected, rel=1e-15)

    def test_gradient_against_finite_differences(self):
        spec = RiverValleySpec(sharp_dim=3, flat_dim=3, sharp_curvature=50.0)
        land = river_valley_landscape(spec)
        w = SplitMix64(9).normal((6,))
        g = land.grad(w)
        fd = fd_gradient(land.loss, w, range(6))
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_sharp_block_curvature(self):
        spec = RiverValleySpec(sharp_dim=2, flat_dim=2, sharp_curvature=100.0)
        land = river_valley_landscape(spec)
        h = mean_row_hessian(land, "sharp", np.ones(4))
        np.testing.assert_allclose(h, 100.0 * np.eye(2), rtol=1e-5, atol=1e-3)

    def test_blocks_sharp_first(self):
        land = river_valley_landscape(RiverValleySpec(2, 2, 1.0))
        assert land.blocks["sharp"].start == 0
        assert land.blocks["flat"].start == 2
        assert np.array_equal(land.initial_point, np.ones(4))

    def test_validation(self):
        with pytest.raises(ValueError, match="sharp_dim == flat_dim"):
            RiverValleySpec(2, 3, 1.0)
        with pytest.raises(ValueError, match="sharp_curvature"):
            RiverValleySpec(2, 2, 0.0)
        with pytest.raises(ValueError, match="at least one"):
            RiverValleySpec(0, 2, 1.0)


class TestMlp:
    spec = MlpSpec(widths=(6, 10, 10, 4), batch_size=16, noise_sigma=0.01)

    def test_param_count_and_roles(self):
        assert self.spec.param_count == 6 * 10 + 10 * 10 + 10 * 4
        land = mlp_landscape(self.spec, seed=7)
        assert land.blocks["layer0"].role == "embedding"
        assert land.blocks["layer1"].role == "muon"
        assert land.blocks["layer2"].role == "output"
        assert land.dim == self.spec.param_count

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="exceeds the 20000 budget"):
            MlpSpec(widths=(100, 101, 100))
        MlpSpec(widths=(100, 100, 100))  # exactly at the budget is fine

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least"):
            MlpSpec(widths=(4, 4))
        with pytest.raises(ValueError, match="positive"):
            MlpSpec(widths=(4, 0, 4))
        with pytest.raises(ValueError, match="batch_size"):
            MlpSpec(widths=(4, 4, 4), batch_size=0)

    def test_everything_reproducible_from_seed(self):
        a = mlp_landscape(self.spec, seed=21)
        b = mlp_landscape(self.spec, seed=21)
        c = mlp_landscape(self.spec, seed=22)
        assert np.array_equal(a.initial_point, b.initial_point)
        assert a.loss(a.initial_point) == b.loss(b.initial_point)
        assert not np.array_equal(a.initial_point, c.initial_point)
        xa, ya = a.fresh_batch(3)
        xb, yb = b.fresh_batch(3)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        assert not np.array_equal(xa, a.fresh_batch(4)[0])

    def test_zero_output_weights_kill_upstream_gradients(self):
        land = mlp_landscape(self.spec, seed=5)
        mats = land.unpack(land.initial_point.copy())
        mats = {k: v.copy() for k, v in mats.items()}
        mats["layer2"][:] = 0.0
        w = land.pack(mats)
        grads = land.block_grads_on_batch(w, land._fixed)
        assert np.array_equal(grads["layer0"], np.zeros((6, 10)))
        assert np.array_equal(grads["layer1"], np.zeros((10, 10)))
        assert np.abs(grads["layer2"]).max() > 0.0

    def test_gradient_against_finite_differences(self):
        land = mlp_landscape(self.spec, seed=11)
        w = land.initial_point.copy()
        g = land.grad(w)
        coords = SplitMix64(2).integers(0, land.dim, n=20)
        fd = fd_gradient(land.loss, w, coords)
        np.testing.assert_allclose(g[coords], fd, rtol=1e-4, atol=1e-9)

    def test_teacher_weights_reach_the_noise_floor(self):
        land = mlp_landscape(self.spec, seed=17)
        w_teacher = land.pack({f"layer{i}": t for i, t in enumerate(land._teacher)})
        loss = land.loss(w_teacher)
        # residual at the teacher is exactly the injected noise
        assert 0.0 < loss < 10.0 * self.spec.noise_sigma ** 2

    def test_short_training_run_descends(self):
        land = mlp_landscape(self.spec, seed=3)
        w = land.initial_point.copy()
        blocks = land.matrix_blocks(w)
        cfg = OptimizerConfig("adamw", clip_norm=1e9)
        sched = ScheduleSpec("constant", 1e-2, 0, 50)
        states = init_states(blocks, cfg)
        initial = land.loss(w)
        for step in range(1, 51):
            w = land.pack({n: b.matrix for n, b in blocks.items()})
            grads = {n: g for n, g in land.block_grads_on_batch(w, land._fixed).items()}
            route_and_step(blocks, states, grads, step, sched, cfg)
        final = land.loss(land.pack({n: b.matrix for n, b in blocks.items()}))
        assert final < 0.5 * initial


class TestLossAndBlockGrads:
    """The block entry point agrees bit for bit with the flat-vector routes."""

    def mats_at(self, land, seed):
        w = SplitMix64(seed).normal((land.dim,))
        return {name: m.copy() for name, m in land.unpack(w).items()}

    @pytest.mark.parametrize("widths", [(6, 8, 8, 4), (16, 8, 24, 4)])
    def test_mlp_matches_flat_batch_routes(self, widths):
        land = mlp_landscape(MlpSpec(widths=widths, batch_size=8), seed=7)
        mats = self.mats_at(land, 3)
        for step in (1, 2, 9):
            loss, grads = land.loss_and_block_grads(mats, step)
            w, batch = land.pack(mats), land.fresh_batch(step)
            assert loss == land.loss_on_batch(w, batch)
            flat = land.block_grads_on_batch(w, batch)
            assert list(grads) == list(flat)
            for name in grads:
                assert np.array_equal(grads[name], flat[name])

    @pytest.mark.parametrize("land", [
        quadratic_landscape(QuadraticSpec(np.array([5.0, 2.0, 0.5]), np.array([1.0, 0.0, -1.0]))),
        river_valley_landscape(RiverValleySpec(3, 3, 50.0)),
    ], ids=["quadratic", "river_valley"])
    def test_deterministic_matches_flat_loss_and_grad(self, land):
        mats = self.mats_at(land, 5)
        w = land.pack(mats)
        for step in (1, 4):
            loss, grads = land.loss_and_block_grads(mats, step)
            assert loss == land.loss(w)
            expected = land.unpack(land.grad(w))
            assert list(grads) == list(expected)
            for name in grads:
                assert np.array_equal(grads[name], expected[name])


class TestFdHessians:
    def test_quadratic_block_hessian_is_exact_diagonal(self):
        land = quadratic_landscape(QuadraticSpec(np.array([3.0, 1.0]), np.zeros(2)))
        h = mean_row_hessian(land, "all", np.array([0.7, -0.2]))
        np.testing.assert_allclose(h, np.diag([3.0, 1.0]), atol=1e-6)
        assert np.array_equal(h, h.T)

    def block_quadratic(self, lam):
        """One (2, 3) block with f(w) = 1/2 sum lam_i w_i^2."""
        lam = np.asarray(lam, dtype=float)
        blocks = {"w": BlockLayout(0, (2, 3), "muon")}
        return Landscape(
            6,
            loss=lambda w: 0.5 * float(lam @ (np.asarray(w) ** 2)),
            grad=lambda w: lam * np.asarray(w, dtype=float),
            blocks=blocks)

    def test_mean_row_hessian_averages_row_blocks(self):
        lam = np.array([6.0, 5.0, 4.0, 2.0, 1.0, 0.5])
        land = self.block_quadratic(lam)
        h = mean_row_hessian(land, "w", 0.3 * np.ones(6))
        expected = np.diag(0.5 * (lam[:3] + lam[3:]))
        np.testing.assert_allclose(h, expected, atol=1e-6)

    def test_mean_col_hessian_averages_column_blocks(self):
        lam = np.array([6.0, 5.0, 4.0, 2.0, 1.0, 0.5])
        land = self.block_quadratic(lam)
        h = mean_col_hessian(land, "w", 0.3 * np.ones(6))
        expected = np.diag([lam[:3].mean(), lam[3:].mean()])
        np.testing.assert_allclose(h, expected, atol=1e-6)

    def test_top_eigenspace_orders_by_eigenvalue(self):
        basis = top_eigenspace(np.diag([1.0, 5.0, 3.0]), 2)
        assert basis.shape == (3, 2)
        assert abs(basis[1, 0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(basis[2, 1]) == pytest.approx(1.0, abs=1e-10)


class TestAlignmentCurves:
    def test_same_matrix_gives_full_coverage(self):
        ref = np.diag([4.0, 3.0, 2.0, 1.0])
        curve = gram_alignment_curve(ref, ref, d_s=2, k_grid=[2, 3, 4])
        assert [k for k, _ in curve] == [2, 3, 4]
        for _, cov in curve:
            assert cov == pytest.approx(1.0, abs=1e-9)

    def test_reversed_spectrum_recovers_only_at_full_dim(self):
        ref = np.diag([4.0, 3.0, 2.0, 1.0])
        gram = np.diag([1.0, 2.0, 3.0, 4.0])
        curve = gram_alignment_curve(ref, gram, d_s=2, k_grid=[2, 3, 4])
        covs = [cov for _, cov in curve]
        assert covs[0] == pytest.approx(0.0, abs=1e-9)
        assert covs == sorted(covs)
        assert covs[-1] == pytest.approx(1.0, abs=1e-9)

    def test_k_below_reference_dimension_rejected(self):
        ref = np.eye(3)
        with pytest.raises(ValueError, match="below the reference dimension"):
            gram_alignment_curve(ref, ref, d_s=2, k_grid=[1])

    def test_clamped_sizes_appear_once(self):
        # 8 exceeds the 6- and 4-sized sides; the clamp must not repeat a size
        spec = MlpSpec(widths=(6, 8, 4), batch_size=8)
        sides = {name: {"row": layout.shape[1], "col": layout.shape[0]}
                 for name, layout in mlp_landscape(spec, 29).blocks.items()}
        curves = alignment_experiment(spec, seed=29, train_steps=2, d_s=2,
                                      k_grid=(2, 4, 8, 8), n_batches=4)
        assert set(curves) == set(sides)
        for name, by_side in curves.items():
            for side, curve in by_side.items():
                ks = [k for k, _ in curve]
                assert all(a < b for a, b in zip(ks, ks[1:])), (name, side, ks)
                assert ks[-1] == min(8, sides[name][side]), (name, side, ks)

    def test_experiment_produces_valid_curves(self):
        spec = MlpSpec(widths=(6, 8, 4), batch_size=8, noise_sigma=0.01)
        curves = alignment_experiment(spec, seed=29, train_steps=5, d_s=2,
                                      k_grid=(2, 4), n_batches=4)
        assert set(curves) == {"layer0", "layer1"}
        for name, sides in curves.items():
            for side in ("row", "col"):
                for k, cov in sides[side]:
                    assert 0.0 <= cov <= 1.0 + 1e-12
        # at k = n the Gram eigenspace is the whole row space
        row_curve = curves["layer1"]["row"]
        assert row_curve[-1][0] == 4
        assert row_curve[-1][1] == pytest.approx(1.0, abs=1e-9)
