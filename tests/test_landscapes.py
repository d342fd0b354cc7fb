"""Quadratic, valley-floor and MLP objectives, finite-difference Hessian
extraction, and the gradient-Gram alignment experiment."""

import math
import weakref

import numpy as np
import pytest

from flatopt import landscapes
from flatopt.landscapes import (
    BlockLayout,
    MlpLandscape,
    MlpSpec,
    RiverValleySpec,
    alignment_experiment,
    gram_alignment_curve,
    mean_col_hessian,
    mean_row_hessian,
    quadratic_landscape,
    river_valley_landscape,
)
from flatopt.optim import OptimizerConfig, ScheduleSpec, init_states, route_and_step
from flatopt.quadratic import QuadraticSpec
from flatopt.rng import SplitMix64, derive_seed


def fd_gradient(loss, w, coords, step=1e-6):
    out = []
    for j in coords:
        h = step * (1.0 + abs(float(w[j])))
        wp = w.copy(); wp[j] += h
        wm = w.copy(); wm[j] -= h
        out.append((loss(wp) - loss(wm)) / (2.0 * h))
    return np.array(out)


def loss_at(land, w):
    """The loss at the flat point w on the landscape's fixed batch."""
    return land.loss_and_block_grads(land.unpack(w), land.fixed_batch)[0]


def grad_at(land, w):
    """The block gradients at the flat point w, raveled in blocks order."""
    grads = land.loss_and_block_grads(land.unpack(w), land.fixed_batch)[1]
    return np.concatenate([grads[name].ravel() for name in land.blocks])


QUADRATIC = QuadraticSpec(np.array([5.0, 2.0, 0.5]), np.array([1.0, 0.0, -1.0]))


def river_valley_flat(dim, curvature):
    """The river valley's loss and gradient over the flat vector (sharp
    coordinates first), written out from the definition."""
    mu = curvature / 1e4

    def loss(w):
        xs, xf = w[:dim], w[dim:]
        r = xs - 0.1 * np.sin(xf)
        return float(0.5 * curvature * (r * r).sum() + 0.5 * mu * (xf * xf).sum())

    def grad(w):
        xs, xf = w[:dim], w[dim:]
        r = xs - 0.1 * np.sin(xf)
        return np.concatenate([curvature * r, -curvature * (0.1 * np.cos(xf) * r) + mu * xf])

    return loss, grad


def reference_fd_hessian_on_coords(grad_fn, w, coords):
    """The per-coordinate central differences that the MLP's stacked
    ``block_fd_hessians`` reproduces byte for byte: one full gradient per
    step, column j for coords[j]."""
    h_cols = []
    for j in coords:
        h = 1e-5 * (1.0 + abs(float(w[j])))
        wp = w.copy(); wp[j] += h
        wm = w.copy(); wm[j] -= h
        h_cols.append((grad_fn(wp)[coords] - grad_fn(wm)[coords]) / (2.0 * h))
    return np.stack(h_cols, axis=1)


def reference_fd_stack(landscape, w, coord_sets):
    """The reference Hessian of each flat coordinate set, stacked."""
    return np.stack([reference_fd_hessian_on_coords(lambda v: grad_at(landscape, v), w, coords)
                     for coords in coord_sets])


def reference_symmetrized_mean(stack):
    """Mean of the symmetrized slices, accumulated in order from zeros."""
    acc = np.zeros(stack.shape[1:])
    for h in stack:
        acc += 0.5 * (h + h.T)
    return acc / len(stack)


class TestLayoutAndPacking:
    def test_layout_size(self):
        assert BlockLayout(0, (3, 4), "muon").size == 12

    def test_pack_unpack_roundtrip(self):
        land = quadratic_landscape(QuadraticSpec(np.array([2.0, 1.0]), np.zeros(2)))
        w = np.array([0.5, -1.5])
        mats = land.unpack(w)
        assert mats["all"].shape == (1, 2)
        assert np.array_equal(land.pack(mats), w)

    @pytest.mark.parametrize("shape", [(8,), (10,), (20,), (1, 9)])
    def test_unpack_rejects_another_shape(self, shape):
        # the 2-3-1 MLP has 9 parameters; a longer vector must not lose its tail
        land = MlpLandscape(MlpSpec(widths=(2, 3, 1), batch_size=4), seed=1)
        with pytest.raises(ValueError, match=r"shape \(9,\), got"):
            land.unpack(np.zeros(shape))


class TestQuadraticLandscape:
    spec = QuadraticSpec(np.array([2.0, 1.0]), np.array([1.0, -1.0]))

    def test_loss_and_gradient(self):
        land = quadratic_landscape(self.spec)
        loss, grads = land.loss_and_block_grads({"all": np.array([[1.0, 2.0]])}, None)
        assert loss == 0.5 * (2.0 + 4.0) + (1.0 - 2.0)
        assert np.array_equal(grads["all"], np.array([[3.0, 1.0]]))

    def test_gradient_vanishes_at_stationary_point(self):
        land = quadratic_landscape(self.spec)
        assert np.abs(grad_at(land, self.spec.stationary_point())).max() == 0.0

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
        assert loss_at(land, w) == pytest.approx(expected, rel=1e-15)

    def test_gradient_against_finite_differences(self):
        spec = RiverValleySpec(sharp_dim=3, flat_dim=3, sharp_curvature=50.0)
        land = river_valley_landscape(spec)
        w = SplitMix64(9).normal((6,))
        g = grad_at(land, w)
        fd = fd_gradient(lambda v: loss_at(land, v), w, range(6))
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

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
        land = MlpLandscape(self.spec, seed=7)
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
        a = MlpLandscape(self.spec, seed=21)
        b = MlpLandscape(self.spec, seed=21)
        c = MlpLandscape(self.spec, seed=22)
        assert np.array_equal(a.initial_point, b.initial_point)
        assert loss_at(a, a.initial_point) == loss_at(b, b.initial_point)
        assert not np.array_equal(a.initial_point, c.initial_point)
        xa, ya = a.fresh_batch(3)
        xb, yb = b.fresh_batch(3)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        assert not np.array_equal(xa, a.fresh_batch(4)[0])

    def test_zero_output_weights_kill_upstream_gradients(self):
        land = MlpLandscape(self.spec, seed=5)
        mats = dict(land.unpack(land.initial_point), layer2=np.zeros((10, 4)))
        _, grads = land.loss_and_block_grads(mats, land.fixed_batch)
        assert np.array_equal(grads["layer0"], np.zeros((6, 10)))
        assert np.array_equal(grads["layer1"], np.zeros((10, 10)))
        assert np.abs(grads["layer2"]).max() > 0.0

    def test_gradient_against_finite_differences(self):
        land = MlpLandscape(self.spec, seed=11)
        w = land.initial_point.copy()
        g = grad_at(land, w)
        coords = SplitMix64(2).integers(0, land.dim, n=20)
        fd = fd_gradient(lambda v: loss_at(land, v), w, coords)
        np.testing.assert_allclose(g[coords], fd, rtol=1e-4, atol=1e-9)

    def test_teacher_weights_reach_the_noise_floor(self):
        land = MlpLandscape(self.spec, seed=17)
        teacher = {f"layer{i}": t for i, t in enumerate(land._teacher)}
        loss, _ = land.loss_and_block_grads(teacher, land.fixed_batch)
        # residual at the teacher is exactly the injected noise
        assert 0.0 < loss < 10.0 * self.spec.noise_sigma ** 2

    def test_short_training_run_descends(self):
        land = MlpLandscape(self.spec, seed=3)
        mats = land.unpack(land.initial_point)
        cfg = OptimizerConfig("adamw", clip_norm=1e9)
        sched = ScheduleSpec("constant", 1e-2, 0, 50)
        states = init_states(land.blocks, cfg)
        initial = loss_at(land, land.initial_point)
        for step in range(1, 51):
            _, grads = land.loss_and_block_grads(mats, land.fixed_batch)
            route_and_step(mats, states, grads, step, sched, cfg)
        assert land.loss_and_block_grads(mats, land.fixed_batch)[0] < 0.5 * initial


class TestLossAndBlockGrads:
    """The one objective of every landscape: one gradient per block, in
    ``blocks`` order, agreeing bit for bit with the flat-vector formulas and
    adapters on the batch it is given."""

    def mats_at(self, land, seed):
        w = SplitMix64(seed).normal((land.dim,))
        return {name: m.copy() for name, m in land.unpack(w).items()}

    @pytest.mark.parametrize("widths", [(6, 8, 8, 4), (16, 8, 24, 4)])
    def test_mlp_matches_flat_batch_routes(self, widths):
        land = MlpLandscape(MlpSpec(widths=widths, batch_size=8), seed=7)
        mats = self.mats_at(land, 3)
        w = land.pack(mats)
        batches = [land.fresh_batch(1), land.fresh_batch(9), land.fixed_batch,
                   *land.step_batches(2, 3)]
        for batch in batches:
            loss, grads = land.loss_and_block_grads(mats, batch)
            assert loss == land.loss_on_batch(w, batch)
            flat = land.block_grads_on_batch(w, batch)
            assert list(grads) == list(flat)
            for name in grads:
                assert np.array_equal(grads[name], flat[name])

    @pytest.mark.parametrize("land,flat", [
        (quadratic_landscape(QUADRATIC), (QUADRATIC.loss, QUADRATIC.grad)),
        (river_valley_landscape(RiverValleySpec(3, 3, 50.0)), river_valley_flat(3, 50.0)),
    ], ids=["quadratic", "river_valley"])
    def test_deterministic_matches_flat_loss_and_grad(self, land, flat):
        loss_fn, grad_fn = flat
        w = SplitMix64(5).normal((land.dim,))
        mats = land.unpack(w)
        for batch in land.step_batches(1, 2):
            loss, grads = land.loss_and_block_grads(mats, batch)
            assert loss == loss_fn(w)
            expected = land.unpack(grad_fn(w))
            assert list(grads) == list(expected)
            for name in grads:
                assert np.array_equal(grads[name], expected[name])

    @pytest.mark.parametrize("land", [
        quadratic_landscape(QUADRATIC),
        river_valley_landscape(RiverValleySpec(3, 3, 50.0)),
        MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=7),
    ], ids=["quadratic", "river_valley", "mlp"])
    def test_one_gradient_per_block_in_blocks_order(self, land):
        _, grads = land.loss_and_block_grads(self.mats_at(land, 6), land.fixed_batch)
        assert list(grads) == list(land.blocks)
        for name, layout in land.blocks.items():
            assert grads[name].shape == layout.shape


def reference_batch(land, label):
    """One minibatch drawn as a single stream per draw: x, the teacher's
    output, plus noise."""
    spec = land.spec
    x = SplitMix64(derive_seed(land.seed, f"{label}/x")).normal((spec.batch_size, spec.widths[0]))
    y = land._forward(land._teacher, x, range(len(land._teacher)))[-1]
    noise = SplitMix64(derive_seed(land.seed, f"{label}/noise")).normal(y.shape)
    return x, y + spec.noise_sigma * noise


class TestStepBatches:
    """Training's batches, drawn in stacked chunks, are the one-step batches
    byte for byte."""

    def spy_on_draws(self, land, monkeypatch):
        drawn = []
        make = land._make_batches

        def spy(labels):
            drawn.append(list(labels))
            return make(labels)

        monkeypatch.setattr(land, "_make_batches", spy)
        return drawn

    @pytest.mark.parametrize("widths,batch_size,first,last", [
        ((32, 96, 96, 16), 32, 1, 20),
        ((32, 96, 96, 16), 32, 5, 12),
        ((8, 16, 16, 4), 16, 61, 92),  # align's Gram batches after 60 steps
        ((6, 8, 8, 4), 8, 1, 25),
        ((3, 1, 2), 1, 2, 4),
        ((6, 8, 8, 4), 8, 1, 0),
    ], ids=["32-96-96-16", "32-96-96-16-from-5", "8-16-16-4-gram", "6-8-8-4", "3-1-2", "empty"])
    def test_chunks_yield_the_fresh_batches(self, monkeypatch, widths, batch_size, first, last):
        land = MlpLandscape(MlpSpec(widths=widths, batch_size=batch_size), seed=6)
        drawn = self.spy_on_draws(land, monkeypatch)
        got = list(land.step_batches(first, last))
        assert [label for chunk in drawn for label in chunk] == \
            [f"batch/{k}" for k in range(first, last + 1)]
        assert len(got) == last - first + 1
        for k, (x, y) in zip(range(first, last + 1), got):
            xr, yr = reference_batch(land, f"batch/{k}")
            assert x.tobytes() == xr.tobytes() and y.tobytes() == yr.tobytes()
            xf, yf = land.fresh_batch(k)
            assert x.tobytes() == xf.tobytes() and y.tobytes() == yf.tobytes()

    def test_chunk_shorter_than_a_run_on_the_large_mlp(self, monkeypatch):
        land = MlpLandscape(MlpSpec(widths=(32, 96, 96, 16)), seed=1)
        drawn = self.spy_on_draws(land, monkeypatch)
        list(land.step_batches(1, 20))
        assert 1 < len(drawn[0]) < 20
        assert all(len(chunk) <= len(drawn[0]) for chunk in drawn)

    def test_batches_are_drawn_lazily(self, monkeypatch):
        land = MlpLandscape(MlpSpec(widths=(32, 96, 96, 16)), seed=1)
        drawn = self.spy_on_draws(land, monkeypatch)
        batches = land.step_batches(1, 1000)
        assert drawn == []
        next(batches)
        assert len(drawn) == 1 and len(drawn[0]) < 1000

    def test_one_chunk_per_step_at_the_smallest_bound(self, monkeypatch):
        land = MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=2)
        whole = [x.tobytes() + y.tobytes() for x, y in land.step_batches(3, 9)]
        monkeypatch.setattr(landscapes, "_STACK_BYTES", 1)
        drawn = self.spy_on_draws(land, monkeypatch)
        assert [x.tobytes() + y.tobytes() for x, y in land.step_batches(3, 9)] == whole
        assert drawn == [[f"batch/{k}"] for k in range(3, 10)]

    def test_fixed_batch_is_the_data_stream(self):
        land = MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=4)
        x, y = reference_batch(land, "data")
        assert land.fixed_batch[0].tobytes() == x.tobytes()
        assert land.fixed_batch[1].tobytes() == y.tobytes()

    @pytest.mark.parametrize("land", [
        quadratic_landscape(QuadraticSpec(np.array([2.0, 1.0]), np.zeros(2))),
        river_valley_landscape(RiverValleySpec(2, 2, 10.0)),
    ], ids=["quadratic", "river_valley"])
    def test_deterministic_landscapes_yield_none(self, land):
        assert list(land.step_batches(3, 5)) == [None, None, None]
        assert list(land.step_batches(1, 0)) == []
        assert land.fixed_batch is None


def test_mlp_landscape_freed_without_a_collection():
    land = MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=1)
    loss_at(land, land.initial_point)
    ref = weakref.ref(land)
    del land
    assert ref() is None


def spy_on_stacked_passes(monkeypatch):
    """(block index, copies) of every ``_backprop`` call on a stack of
    perturbed block copies, in call order."""
    calls = []
    backprop = MlpLandscape._backprop

    def spy(self, weights, x, y, first, only_first=False):
        if weights[first].ndim == 3:
            calls.append((first, len(weights[first])))
        return backprop(self, weights, x, y, first, only_first)

    monkeypatch.setattr(MlpLandscape, "_backprop", spy)
    return calls


class TestFdHessians:
    @staticmethod
    def linear_head():
        """A 5-4-3 MLP at a random point and the closed-form Hessian of its
        loss in the linear head: c A^T A (x) I, A the hidden activations on
        the fixed batch and c = 2 / (batch * outputs)."""
        land = MlpLandscape(MlpSpec(widths=(5, 4, 3), batch_size=8), seed=3)
        mats = land.unpack(land.initial_point + 0.3 * SplitMix64(7).normal((land.dim,)))
        a = np.tanh(land.fixed_batch[0] @ mats["layer0"])
        return land, mats, 2.0 / (8 * 3) * a.T @ a

    def test_mean_row_hessian_averages_row_blocks(self):
        # row j of the head (4 x 3) has Hessian c (A^T A)_jj I
        land, mats, gram = self.linear_head()
        rows, _ = land.block_fd_hessians("layer1", mats)
        np.testing.assert_allclose(rows, np.diag(gram)[:, None, None] * np.eye(3),
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(mean_row_hessian(rows), np.diag(gram).mean() * np.eye(3),
                                   rtol=1e-6, atol=1e-9)

    def test_mean_col_hessian_averages_column_blocks(self):
        # every column of the head has Hessian c A^T A
        land, mats, gram = self.linear_head()
        _, cols = land.block_fd_hessians("layer1", mats)
        np.testing.assert_allclose(cols, np.broadcast_to(gram, (3, 4, 4)), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(mean_col_hessian(cols), gram, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("mean", [mean_row_hessian, mean_col_hessian])
    def test_means_symmetrize_then_average(self, mean):
        stack = np.array([[[1.0, 2.0], [0.0, 3.0]], [[3.0, 0.0], [2.0, 1.0]]])
        assert np.array_equal(mean(stack), np.array([[2.0, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("widths,batch_size", [
        ((8, 16, 16, 4), 16),
        ((16, 8, 24, 4), 32),
        ((3, 1, 2), 1),  # one-row products go through gemv
        ((2, 5, 1), 1),
    ], ids=["8-16-16-4", "16-8-24-4", "3-1-2", "2-5-1"])
    def test_mlp_stacked_passes_match_per_coordinate_gradients(self, widths, batch_size):
        """The stacked passes give the per-coordinate loop's bytes on every
        block, slice by slice and in both means; this fails on a numpy or BLAS
        whose stacked matmul does not compute each slice as the 2-D product."""
        land = MlpLandscape(MlpSpec(widths=widths, batch_size=batch_size), seed=4)
        w = land.initial_point + 0.3 * SplitMix64(9).normal((land.dim,))
        mats = land.unpack(w)
        for name, layout in land.blocks.items():
            m, n = layout.shape
            rows, cols = land.block_fd_hessians(name, mats)
            ref_rows = reference_fd_stack(land, w, [layout.start + i * n + np.arange(n)
                                                    for i in range(m)])
            ref_cols = reference_fd_stack(land, w, [layout.start + j + n * np.arange(m)
                                                    for j in range(n)])
            assert np.array_equal(rows, ref_rows)
            assert np.array_equal(cols, ref_cols)
            assert np.array_equal(mean_row_hessian(rows), reference_symmetrized_mean(ref_rows))
            assert np.array_equal(mean_col_hessian(cols), reference_symmetrized_mean(ref_cols))

    def test_mlp_stacked_passes_split_into_chunks(self, monkeypatch):
        """One entry per pass gives the bytes of one pass over every entry,
        and both give the per-coordinate loop's."""
        land = MlpLandscape(MlpSpec(widths=(6, 8, 8, 4), batch_size=8), seed=2)
        w = land.initial_point + 0.3 * SplitMix64(5).normal((land.dim,))
        mats = land.unpack(w)
        start = land.blocks["layer1"].start
        calls = spy_on_stacked_passes(monkeypatch)
        rows, cols = land.block_fd_hessians("layer1", mats)
        assert calls == [(1, 128)]
        assert np.array_equal(rows, reference_fd_stack(
            land, w, [start + i * 8 + np.arange(8) for i in range(8)]))
        assert np.array_equal(cols, reference_fd_stack(
            land, w, [start + j + 8 * np.arange(8) for j in range(8)]))
        monkeypatch.setattr(landscapes, "_STACK_BYTES", 1)
        calls.clear()
        split_rows, split_cols = land.block_fd_hessians("layer1", mats)
        assert calls == [(1, 2)] * 64
        assert np.array_equal(split_rows, rows) and np.array_equal(split_cols, cols)

    def test_align_steps_each_entry_once(self, monkeypatch):
        # each entry of an m x n block makes two perturbed copies, + and -
        calls = spy_on_stacked_passes(monkeypatch)
        alignment_experiment(MlpSpec(widths=(8, 16, 16, 4)), seed=1, train_steps=2, d_s=2,
                             k_grid=[2, 4])
        copies = [sum(k for first, k in calls if first == block) for block in range(3)]
        assert copies == [2 * 8 * 16, 2 * 16 * 16, 2 * 16 * 4]


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

    def test_k_above_gram_dimension_rejected(self):
        # slicing would give only 3 eigenvectors and still label them k = 4
        ref = np.eye(3)
        with pytest.raises(ValueError, match="k = 4 above the gram's dimension 3"):
            gram_alignment_curve(ref, ref, d_s=2, k_grid=[2, 4])

    def test_clamped_sizes_appear_once(self):
        # 8 exceeds the 6- and 4-sized sides; the clamp must not repeat a size
        spec = MlpSpec(widths=(6, 8, 4), batch_size=8)
        sides = {name: {"row": layout.shape[1], "col": layout.shape[0]}
                 for name, layout in MlpLandscape(spec, 29).blocks.items()}
        curves = alignment_experiment(spec, seed=29, train_steps=2, d_s=2,
                                      k_grid=(2, 4, 8, 8))
        assert set(curves) == set(sides)
        for name, by_side in curves.items():
            for side, curve in by_side.items():
                ks = [k for k, _ in curve]
                assert all(a < b for a, b in zip(ks, ks[1:])), (name, side, ks)
                assert ks[-1] == min(8, sides[name][side]), (name, side, ks)

    def test_experiment_leaves_the_initial_point_unchanged(self, monkeypatch):
        # training steps views of the initial point; a write into one of them
        # raises on the read-only vector
        lands = []

        build = landscapes.MlpLandscape

        def build_read_only(spec, seed):
            land = build(spec, seed)
            land.initial_point.flags.writeable = False
            lands.append((land, land.initial_point.copy()))
            return land

        monkeypatch.setattr(landscapes, "MlpLandscape", build_read_only)
        alignment_experiment(MlpSpec(widths=(6, 8, 4), batch_size=8), seed=29, train_steps=5,
                             d_s=2, k_grid=(2, 4))
        (land, initial), = lands
        assert np.array_equal(land.initial_point, initial)

    def test_experiment_produces_valid_curves(self):
        spec = MlpSpec(widths=(6, 8, 4), batch_size=8, noise_sigma=0.01)
        curves = alignment_experiment(spec, seed=29, train_steps=5, d_s=2,
                                      k_grid=(2, 4))
        assert set(curves) == {"layer0", "layer1"}
        for name, sides in curves.items():
            for side in ("row", "col"):
                for k, cov in sides[side]:
                    assert 0.0 <= cov <= 1.0 + 1e-12
        # at k = n the Gram eigenspace is the whole row space
        row_curve = curves["layer1"]["row"]
        assert row_curve[-1][0] == 4
        assert row_curve[-1][1] == pytest.approx(1.0, abs=1e-9)
