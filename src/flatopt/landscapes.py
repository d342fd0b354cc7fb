"""Objective functions for the experiments: anisotropic quadratics, a
valley-with-flat-floor surrogate, a small tanh MLP with hand-rolled
backpropagation and its finite-difference mean row and column Hessians, and
the gradient-Gram alignment experiment. Every landscape has one objective,
``loss_and_block_grads(mats, batch)``, over a dict of named 2-D blocks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .linalg import sym_eig
from .optim import OptimizerConfig, ScheduleSpec, init_states, route_and_step
from .quadratic import QuadraticSpec
from .rng import SplitMix64, derive_seed, normal_rows
from .subspace import coverage_score


@dataclasses.dataclass(frozen=True)
class BlockLayout:
    """Where one named block lives inside the flat parameter vector."""

    start: int
    shape: tuple
    role: str

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class Landscape:
    """Differentiable objective over named 2-D parameter blocks.

    ``objective(mats)`` returns the loss and a gradient dict in ``blocks``
    order. A run holds one dict, ``mats = unpack(initial_point)``, whose
    matrices the steppers replace and never write into, and calls
    ``loss_and_block_grads(mats, batch)`` for each batch of
    ``step_batches(first, last)``. ``fixed_batch``, the batch of the final
    loss and of the MLP's curvature, is ``None`` where the objective is
    deterministic. The flows in ``dynamics`` integrate a QuadraticSpec.
    """

    def __init__(self, blocks, initial_point, objective):
        self.blocks = blocks
        self.dim = sum(b.size for b in blocks.values())
        self.initial_point = initial_point
        self._objective = objective
        self.fixed_batch = None

    def unpack(self, w):
        """Flat vector of length ``dim`` -> named block matrices."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"expected a vector of shape ({self.dim},), got {w.shape}")
        return {name: w[b.start:b.start + b.size].reshape(b.shape)
                for name, b in self.blocks.items()}

    def pack(self, mats):
        w = np.zeros(self.dim)
        for name, b in self.blocks.items():
            w[b.start:b.start + b.size] = np.asarray(mats[name], dtype=float).ravel()
        return w

    def step_batches(self, first, last):
        """The batches of steps first through last, drawn lazily."""
        return itertools.repeat(None, last - first + 1)

    def loss_and_block_grads(self, mats, batch):
        """Loss and per-block gradients at ``mats`` on the batch."""
        return self._objective(mats)


def quadratic_landscape(spec: QuadraticSpec) -> Landscape:
    """f(w) = 1/2 sum lambda_i w_i^2 + b^T w as one "adam" block."""
    def objective(mats):
        w = mats["all"][0]
        return spec.loss(w), {"all": spec.grad(w).reshape(1, -1)}

    return Landscape({"all": BlockLayout(0, (1, spec.dim), "adam")}, spec.start(), objective)


@dataclasses.dataclass(frozen=True)
class RiverValleySpec:
    """Steep walls pulling the sharp coordinates onto a curved floor, with a
    nearly flat profile along the floor itself.

    The floor is c(x_f) = 0.1*sin(x_f) coordinatewise (so sharp_dim ==
    flat_dim); the along-floor profile is a weak quadratic with curvature
    sharp_curvature / 1e4.
    """

    sharp_dim: int
    flat_dim: int
    sharp_curvature: float

    def __post_init__(self):
        if self.sharp_dim < 1 or self.flat_dim < 1:
            raise ValueError("river valley needs at least one coordinate per group")
        if not 0.0 < self.sharp_curvature < math.inf:
            raise ValueError("sharp_curvature must be positive and finite")
        if self.sharp_dim != self.flat_dim:
            raise ValueError("coordinatewise floor needs sharp_dim == flat_dim")


def river_valley_landscape(spec: RiverValleySpec) -> Landscape:
    """f(x_s, x_f) = 1/2 L_sharp ||x_s - c(x_f)||^2 + g(x_f); sharp first."""
    ls = spec.sharp_curvature
    mu = ls / 1e4
    s, f = spec.sharp_dim, spec.flat_dim

    def objective(mats):
        xs, xf = mats["sharp"][0], mats["flat"][0]
        r = xs - 0.1 * np.sin(xf)
        loss = float(0.5 * ls * (r * r).sum() + 0.5 * mu * (xf * xf).sum())
        gf = -ls * (0.1 * np.cos(xf) * r) + mu * xf
        return loss, {"sharp": (ls * r).reshape(1, -1), "flat": gf.reshape(1, -1)}

    blocks = {
        "sharp": BlockLayout(0, (1, s), "adam"),
        "flat": BlockLayout(s, (1, f), "adam"),
    }
    return Landscape(blocks, np.ones(s + f), objective)


@dataclasses.dataclass(frozen=True)
class MlpSpec:
    """Fully connected tanh network, linear output head, no biases, trained
    on a fixed synthetic regression batch (teacher outputs plus noise)."""

    widths: tuple
    batch_size: int = 32
    noise_sigma: float = 0.01

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError("need at least input, hidden and output widths")
        if any(d < 1 for d in self.widths):
            raise ValueError("widths must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.param_count > 20000:
            raise ValueError(f"parameter count {self.param_count} exceeds the 20000 budget")

    @property
    def param_count(self) -> int:
        return sum(a * b for a, b in zip(self.widths, self.widths[1:]))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


def _layer_role(index: int, n_layers: int) -> str:
    if index == 0:
        return "embedding"
    if index == n_layers - 1:
        return "output"
    return "muon"


# Bytes that one stack of arrays may hold. A chunk of a block's
# finite-difference pass holds the perturbed block copies, their gradients and
# the activations above the block; a chunk of minibatches takes half of it,
# leaving the other half to the temporaries of its draws. At 1 MiB, glibc's
# allocator handed the 96x96 block's chunk arrays back to the kernel and
# faulted them in again every chunk (about 6000 page faults per 96 entries,
# 2.4x the time), and larger stacks raised align's peak memory.
_STACK_BYTES = 1 << 19


class MlpLandscape(Landscape):
    """MLP objective on the data batch ``fixed_batch`` or on fresh
    minibatches. All randomness is derived from the seed by label, so every
    quantity is reproducible from (spec, seed). The objective is a method,
    not a stored callable, so a landscape holds no reference to itself and
    is freed as soon as its last user lets go of it."""

    def __init__(self, spec: MlpSpec, seed: int):
        self.spec = spec
        self.seed = seed
        n_layers = spec.n_layers
        shapes = [(spec.widths[i], spec.widths[i + 1]) for i in range(n_layers)]

        blocks = {}
        offset = 0
        for i, shape in enumerate(shapes):
            blocks[f"layer{i}"] = BlockLayout(offset, shape, _layer_role(i, n_layers))
            offset += shape[0] * shape[1]

        self._teacher, init = (
            [SplitMix64(derive_seed(seed, f"{net}/l{i}")).normal(shape) / math.sqrt(shape[0])
             for i, shape in enumerate(shapes)] for net in ("teacher", "init"))
        super().__init__(blocks, np.concatenate([w.ravel() for w in init]), None)
        x, y = self._make_batches(["data"])
        self.fixed_batch = x[0], y[0]

    def _make_batches(self, labels):
        """The minibatches (x, y) of the labels, stacked on a leading axis: x
        from the label's "x" stream, y the teacher's output plus noise from
        its "noise" stream. Every slice is the one-label batch byte for byte:
        each row of a draw is its own stream, and numpy multiplies each slice
        of a stacked matmul as its own 2-D product."""
        spec = self.spec
        b, d_in, d_out = spec.batch_size, spec.widths[0], spec.widths[-1]
        x = normal_rows([derive_seed(self.seed, f"{label}/x") for label in labels], b * d_in)
        x = x.reshape(len(labels), b, d_in)
        noise = normal_rows([derive_seed(self.seed, f"{label}/noise") for label in labels], b * d_out)
        y = self._forward(self._teacher, x, range(len(self._teacher)))[-1]
        return x, y + spec.noise_sigma * noise.reshape(len(labels), b, d_out)

    def fresh_batch(self, k: int):
        """Step k's minibatch: the tests' one-label reference and a tracer target."""
        return next(self.step_batches(k, k))

    def step_batches(self, first, last):
        """The minibatches of steps first through last (labels ``batch/{k}``),
        drawn in stacked chunks of half ``_STACK_BYTES`` at most. A batch counts
        x, the teacher's activations, the noise and y; no chunk reaches past last."""
        spec = self.spec
        batch_bytes = 8 * spec.batch_size * (sum(spec.widths) + 2 * spec.widths[-1])
        chunk = max(1, _STACK_BYTES // (2 * batch_bytes))
        for lo in range(first, last + 1, chunk):
            x, y = self._make_batches([f"batch/{k}" for k in range(lo, min(lo + chunk, last + 1))])
            yield from zip(x, y)

    def _forward(self, weights, x, layers):
        """Activations [x, ...] through the consecutive ``layers``, x being
        the first one's input; hidden layers tanh, the head linear."""
        acts = [x]
        last = len(weights) - 1
        for i in layers:
            z = acts[-1] @ weights[i]
            acts.append(z if i == last else np.tanh(z))
        return acts

    def loss_and_block_grads(self, mats, batch):
        """Mean squared error on the batch (x, y) and its reverse-mode
        gradients, per block."""
        x, y = batch
        r, grads = self._backprop([mats[name] for name in self.blocks], x, y, 0)
        return float((r * r).sum()) / r.size, {name: grads[name] for name in self.blocks}

    def _backprop(self, weights, x, y, first, only_first=False):
        """Residual and reverse-mode MSE gradients of layers ``first`` and up
        (of layer ``first`` alone if ``only_first``), from x, the input of
        layer ``first``.

        weights[first] may be a stack of (k, m, n) blocks; the residual and
        every gradient then carry the same leading axis, and slice i is what
        the 2-D pass gives for block i (numpy multiplies each slice of a
        stacked matmul as its own 2-D product).
        """
        acts = self._forward(weights, x, range(first, len(weights)))
        r = acts[-1] - y
        delta = 2.0 * r / y.size
        grads = {}
        for i in range(len(weights) - 1, first - 1, -1):
            a = acts[i - first]
            if i == first or not only_first:
                grads[f"layer{i}"] = a.swapaxes(-1, -2) @ delta
            if i > first:
                # tanh' = 1 - tanh^2, and a already holds tanh(z)
                delta = (delta @ weights[i].swapaxes(-1, -2)) * (1.0 - a ** 2)
        return r, grads

    def block_fd_hessians(self, name, mats):
        """(rows, cols): central differences of block ``name``'s gradient on
        ``fixed_batch``, each entry (i, j) of the m x n block stepped once, by
        1e-5 * (1 + |block_ij|). Column j of rows[i], row i's n x n Hessian, is
        d grad[i, :] / d block_ij; column i of cols[j], column j's m x m
        Hessian, is d grad[:, j] / d block_ij. The batch runs forward to the
        block's input once; chunks of perturbed copies, stacked on a leading
        axis, run the rest of the pass, each slice with a per-coordinate loop's
        bytes."""
        first = list(self.blocks).index(name)
        weights = [mats[block] for block in self.blocks]
        x, y = self.fixed_batch
        a = self._forward(weights, x, range(first))[-1]
        block = weights[first]
        m, n = block.shape
        steps = 1e-5 * (1.0 + np.abs(block.ravel()))
        # a copy's bytes: the perturbed block and its gradient, plus about four
        # batch-by-width arrays (activations and deltas) per layer above it
        copy_bytes = 8 * (2 * block.size + 4 * y.shape[0] * sum(self.spec.widths[first + 1:]))
        chunk = max(1, _STACK_BYTES // (2 * copy_bytes))
        rows, cols = np.empty((m, n, n)), np.empty((n, m, m))
        for lo in range(0, block.size, chunk):
            e = np.arange(lo, min(lo + chunk, block.size))
            k, h, copy = e.size, steps[e], np.arange(e.size)
            stack = np.repeat(block.reshape(1, -1), 2 * k, axis=0)
            stack[copy, e] += h
            stack[k + copy, e] -= h
            weights[first] = stack.reshape((2 * k,) + block.shape)
            g = self._backprop(weights, a, y, first, only_first=True)[1][name]
            i, j = e // n, e % n
            rows[i, :, j] = (g[copy, i] - g[k + copy, i]) / (2.0 * h[:, None])
            cols[j, :, i] = (g[copy, :, j] - g[k + copy, :, j]) / (2.0 * h[:, None])
        return rows, cols

    def loss_on_batch(self, w, batch) -> float:
        """The loss at flat w; stays while the benchmark tracer's SPAN_TARGETS names it."""
        return self.loss_and_block_grads(self.unpack(w), batch)[0]

    def block_grads_on_batch(self, w, batch):
        """The block gradients at flat w; stays while SPAN_TARGETS names it."""
        return self.loss_and_block_grads(self.unpack(w), batch)[1]

    def grad_on_batch(self, w, batch):
        """The flat gradient at flat w; stays while SPAN_TARGETS names it."""
        return np.concatenate([g.ravel() for g in self.block_grads_on_batch(w, batch).values()])


def mean_row_hessian(rows):
    """Mean of the symmetrized per-row Hessians: rows of ``block_fd_hessians``."""
    return sum(0.5 * (h + h.T) for h in rows) / len(rows)


def mean_col_hessian(cols):
    """Mean of the symmetrized per-column Hessians: cols of ``block_fd_hessians``."""
    return sum(0.5 * (h + h.T) for h in cols) / len(cols)


def gram_alignment_curve(reference, gram, d_s: int, k_grid):
    """Coverage of reference's top-d_s eigenspace by gram's top-k eigenspaces.

    Returns [(k, coverage)] over k_grid; every k must lie in [d_s, len(gram)]
    so the coverage score's column-count precondition holds. gram is
    eigendecomposed once and each k takes its leading k eigenvectors.
    """
    for k in k_grid:
        if k < d_s:
            raise ValueError(f"k = {k} below the reference dimension d_s = {d_s}")
        if k > len(gram):
            raise ValueError(f"k = {k} above the gram's dimension {len(gram)}")
    ref_basis = sym_eig(reference)[1][:, :d_s]
    _, vecs = sym_eig(gram)
    return [(int(k), coverage_score(ref_basis, vecs[:, :int(k)])) for k in k_grid]


GRAM_BATCHES = 32  # fresh minibatch gradients per gradient Gram estimate


def alignment_experiment(spec: MlpSpec, seed: int, train_steps: int, d_s: int, k_grid):
    """Train briefly, then ask whether the top curvature directions of each
    block are covered by the top eigenspaces of the gradient Gram estimates.

    Reads only the MLP spec and seed: trains with adamw (constant lr 1e-3)
    on fresh minibatches, accumulates mean G^T G and G G^T over GRAM_BATCHES
    fresh gradients at the trained point, and compares their top-k
    eigenspaces against the mean row/column Hessians. Each k is clamped to
    the side's dimension and a size repeated by the clamp is dropped.
    Returns {block: {"row": curve, "col": curve}}.
    """
    land = MlpLandscape(spec, seed)
    mats = land.unpack(land.initial_point)
    cfg = OptimizerConfig("adamw")
    sched = ScheduleSpec("constant", 1e-3, 0, max(train_steps, 1))
    states = init_states(land.blocks, cfg)
    for step, batch in enumerate(land.step_batches(1, train_steps), start=1):
        _, grads = land.loss_and_block_grads(mats, batch)
        route_and_step(mats, states, grads, step, sched, cfg)

    gram_r = {name: np.zeros((layout.shape[1],) * 2) for name, layout in land.blocks.items()}
    gram_l = {name: np.zeros((layout.shape[0],) * 2) for name, layout in land.blocks.items()}
    for batch in land.step_batches(train_steps + 1, train_steps + GRAM_BATCHES):
        _, grads = land.loss_and_block_grads(mats, batch)
        for name, g in grads.items():
            gram_r[name] += g.T @ g
            gram_l[name] += g @ g.T

    def sizes(side):
        # k above the side collapses onto it; each size is kept once, in grid order
        return list(dict.fromkeys(min(int(k), side) for k in k_grid))

    curves = {}
    for name, layout in land.blocks.items():
        m, n = layout.shape
        rows, cols = land.block_fd_hessians(name, mats)
        row_ref, col_ref = mean_row_hessian(rows), mean_col_hessian(cols)
        del rows, cols  # free this block's stacks before the next block's are built
        curves[name] = {
            "row": gram_alignment_curve(row_ref, gram_r[name] / GRAM_BATCHES, min(d_s, n), sizes(n)),
            "col": gram_alignment_curve(col_ref, gram_l[name] / GRAM_BATCHES, min(d_s, m), sizes(m)),
        }
    return curves
