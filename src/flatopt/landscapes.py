"""Objective functions for the experiments: anisotropic quadratics, a
valley-with-flat-floor surrogate, and a small tanh MLP with hand-rolled
backpropagation, finite-difference mean row and column Hessians, and the
gradient-Gram alignment experiment.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import sym_eig
from .optim import MatrixBlock, OptimizerConfig, ScheduleSpec, init_states, route_and_step
from .quadratic import QuadraticSpec
from .rng import SplitMix64, derive_seed
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

    ``loss_and_block_grads(mats, step)`` is the entry point of a training
    loop: the loss and per-block gradients at the block matrices ``mats``.
    ``loss`` and ``grad`` are callables of the flat vector w, for the
    finite-difference Hessian code; the flows in ``dynamics`` integrate a
    QuadraticSpec, not a Landscape. ``blocks`` names the 2-D segments of w.
    """

    def __init__(self, dim, loss, grad, blocks=None, initial_point=None):
        self.dim = dim
        self.loss = loss
        self.grad = grad
        self.blocks = blocks or {}
        self.initial_point = initial_point if initial_point is not None else np.zeros(dim)

    def unpack(self, w):
        """Flat vector -> named block matrices."""
        w = np.asarray(w, dtype=float)
        return {name: w[b.start:b.start + b.size].reshape(b.shape)
                for name, b in self.blocks.items()}

    def pack(self, mats):
        w = np.zeros(self.dim)
        for name, b in self.blocks.items():
            w[b.start:b.start + b.size] = np.asarray(mats[name], dtype=float).ravel()
        return w

    def loss_and_block_grads(self, mats, step):
        """Loss and per-block gradients at ``mats``; deterministic landscapes
        ignore the step."""
        w = self.pack(mats)
        return self.loss(w), self.unpack(self.grad(w))

    def matrix_blocks(self, w):
        """Named MatrixBlock views (copies) at w, ready for the optimizer."""
        mats = self.unpack(w)
        return {name: MatrixBlock(name, mats[name].copy(), self.blocks[name].role)
                for name in self.blocks}


def quadratic_landscape(spec: QuadraticSpec) -> Landscape:
    """f(w) = 1/2 sum lambda_i w_i^2 + b^T w as one "adam" block."""
    blocks = {"all": BlockLayout(0, (1, spec.dim), "adam")}
    return Landscape(spec.dim, spec.loss, spec.grad, blocks=blocks,
                     initial_point=spec.start())


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

    def split(w):
        w = np.asarray(w, dtype=float)
        return w[:s], w[s:]

    def loss(w):
        xs, xf = split(w)
        r = xs - 0.1 * np.sin(xf)
        return float(0.5 * ls * (r * r).sum() + 0.5 * mu * (xf * xf).sum())

    def grad(w):
        xs, xf = split(w)
        r = xs - 0.1 * np.sin(xf)
        gs = ls * r
        gf = -ls * (0.1 * np.cos(xf) * r) + mu * xf
        return np.concatenate([gs, gf])

    blocks = {
        "sharp": BlockLayout(0, (1, s), "adam"),
        "flat": BlockLayout(s, (1, f), "adam"),
    }
    return Landscape(s + f, loss, grad, blocks=blocks,
                     initial_point=np.ones(s + f))


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


class MlpLandscape(Landscape):
    """MLP objective over the fixed batch, plus fresh-minibatch sampling for
    gradient-noise experiments. All randomness is derived from the seed by
    label, so every quantity is reproducible from (spec, seed)."""

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

        self._teacher = [
            SplitMix64(derive_seed(seed, f"teacher/l{i}")).normal(shape) / math.sqrt(shape[0])
            for i, shape in enumerate(shapes)
        ]
        init = np.concatenate([
            (SplitMix64(derive_seed(seed, f"init/l{i}")).normal(shape) / math.sqrt(shape[0])).ravel()
            for i, shape in enumerate(shapes)
        ])
        super().__init__(offset, self._fixed_loss, self._fixed_grad,
                         blocks=blocks, initial_point=init)
        self._fixed = self._make_batch("data")

    def _make_batch(self, label: str):
        spec = self.spec
        x = SplitMix64(derive_seed(self.seed, f"{label}/x")).normal((spec.batch_size, spec.widths[0]))
        y = self._teacher_forward(x)
        y = y + spec.noise_sigma * SplitMix64(derive_seed(self.seed, f"{label}/noise")).normal(y.shape)
        return x, y

    def fresh_batch(self, k: int):
        return self._make_batch(f"batch/{k}")

    def _teacher_forward(self, x):
        a = x
        last = len(self._teacher) - 1
        for i, w in enumerate(self._teacher):
            z = a @ w
            a = z if i == last else np.tanh(z)
        return a

    def _forward(self, weights, x):
        """Activations [a_0 .. a_L]; hidden layers tanh, head linear."""
        acts = [x]
        last = len(weights) - 1
        for i, w in enumerate(weights):
            z = acts[-1] @ w
            acts.append(z if i == last else np.tanh(z))
        return acts

    def loss_and_block_grads(self, mats, step):
        """Loss and gradients on the step's fresh minibatch."""
        return self._loss_and_grads(mats, self.fresh_batch(step))

    def _loss_and_grads(self, mats, batch):
        """Mean squared error and its reverse-mode gradients, per block."""
        x, y = batch
        weights = [mats[f"layer{i}"] for i in range(self.spec.n_layers)]
        acts = self._forward(weights, x)
        r = acts[-1] - y
        delta = 2.0 * r / r.size
        grads = {}
        for i in range(len(weights) - 1, -1, -1):
            grads[f"layer{i}"] = acts[i].T @ delta
            if i > 0:
                # tanh' = 1 - tanh^2, and acts[i] already holds tanh(z)
                delta = (delta @ weights[i].T) * (1.0 - acts[i] ** 2)
        return float((r * r).sum()) / r.size, grads

    def loss_on_batch(self, w, batch) -> float:
        return self._loss_and_grads(self.unpack(w), batch)[0]

    def block_grads_on_batch(self, w, batch):
        return self._loss_and_grads(self.unpack(w), batch)[1]

    def grad_on_batch(self, w, batch):
        grads = self.block_grads_on_batch(w, batch)
        return np.concatenate([grads[f"layer{i}"].ravel()
                               for i in range(self.spec.n_layers)])

    def _fixed_loss(self, w):
        return self.loss_on_batch(w, self._fixed)

    def _fixed_grad(self, w):
        return self.grad_on_batch(w, self._fixed)


def mlp_landscape(spec: MlpSpec, seed: int) -> MlpLandscape:
    return MlpLandscape(spec, seed)


def _fd_hessian_on_coords(grad_fn, w, coords):
    """Central differences of grad_fn over the given coordinates.

    Returns the |coords| x |coords| matrix of d(grad[coords])/d(w[coords]).
    Step 1e-5*(1+|w_i|) per coordinate.
    """
    h_cols = []
    for j in coords:
        h = 1e-5 * (1.0 + abs(float(w[j])))
        wp = w.copy(); wp[j] += h
        wm = w.copy(); wm[j] -= h
        h_cols.append((grad_fn(wp)[coords] - grad_fn(wm)[coords]) / (2.0 * h))
    return np.stack(h_cols, axis=1)


def _mean_fd_hessian(landscape: Landscape, w, coord_sets):
    """Mean over coordinate sets of the symmetrized finite-difference Hessians."""
    w = np.asarray(w, dtype=float)
    size = len(coord_sets[0])
    acc = np.zeros((size, size))
    for coords in coord_sets:
        h = _fd_hessian_on_coords(landscape.grad, w, coords)
        acc += 0.5 * (h + h.T)
    return acc / len(coord_sets)


def mean_row_hessian(landscape: Landscape, block_name: str, w):
    """Average over rows of the per-row Hessians of one block (n x n for an
    m x n block): the Hessian of the loss with respect to a single row's
    parameters, extracted row by row."""
    layout = landscape.blocks[block_name]
    m, n = layout.shape
    return _mean_fd_hessian(landscape, w, [layout.start + i * n + np.arange(n) for i in range(m)])


def mean_col_hessian(landscape: Landscape, block_name: str, w):
    """Average over columns of the per-column Hessians (m x m)."""
    layout = landscape.blocks[block_name]
    m, n = layout.shape
    return _mean_fd_hessian(landscape, w, [layout.start + j + n * np.arange(m) for j in range(n)])


def top_eigenspace(matrix, k: int):
    """Orthonormal basis of the top-k eigenspace, from the symmetric-Jacobi
    oracle; the n x k matrix of leading eigenvectors."""
    _, vecs = sym_eig(matrix)
    return vecs[:, :k]


def gram_alignment_curve(reference, gram, d_s: int, k_grid):
    """Coverage of reference's top-d_s eigenspace by gram's top-k eigenspaces.

    Returns [(k, coverage)] over k_grid; every k must be >= d_s so the
    coverage score's column-count precondition holds.
    """
    ref_basis = top_eigenspace(reference, d_s)
    curve = []
    for k in k_grid:
        if k < d_s:
            raise ValueError(f"k = {k} below the reference dimension d_s = {d_s}")
        curve.append((int(k), coverage_score(ref_basis, top_eigenspace(gram, int(k)))))
    return curve


def alignment_experiment(spec: MlpSpec, seed: int, train_steps: int, d_s: int,
                         k_grid, n_batches: int = 32):
    """Train briefly, then ask whether the top curvature directions of each
    block are covered by the top eigenspaces of the gradient Gram estimates.

    Trains with adamw (constant lr 1e-3) on fresh minibatches, accumulates
    mean G^T G and G G^T over n_batches fresh gradients at the trained
    point, and compares their top-k eigenspaces against the mean row/column
    Hessians. Each k is clamped to the side's dimension and a size repeated
    by the clamp is dropped. Returns {block: {"row": curve, "col": curve}}.
    """
    land = mlp_landscape(spec, seed)
    blocks = land.matrix_blocks(land.initial_point)
    cfg = OptimizerConfig("adamw")
    sched = ScheduleSpec("constant", 1e-3, 0, max(train_steps, 1))
    states = init_states(blocks, cfg)
    for step in range(1, train_steps + 1):
        _, grads = land.loss_and_block_grads({n: b.matrix for n, b in blocks.items()}, step)
        route_and_step(blocks, states, grads, step, sched, cfg)
    mats = {n: b.matrix for n, b in blocks.items()}

    gram_r = {name: np.zeros((layout.shape[1],) * 2) for name, layout in land.blocks.items()}
    gram_l = {name: np.zeros((layout.shape[0],) * 2) for name, layout in land.blocks.items()}
    for b in range(n_batches):
        _, grads = land.loss_and_block_grads(mats, train_steps + 1 + b)
        for name, g in grads.items():
            gram_r[name] += g.T @ g
            gram_l[name] += g @ g.T

    def sizes(side):
        # k above the side collapses onto it; each size is kept once, in grid order
        return list(dict.fromkeys(min(int(k), side) for k in k_grid))

    w = land.pack(mats)
    curves = {}
    for name, layout in land.blocks.items():
        m, n = layout.shape
        row_ref = mean_row_hessian(land, name, w)
        col_ref = mean_col_hessian(land, name, w)
        curves[name] = {
            "row": gram_alignment_curve(row_ref, gram_r[name] / n_batches, min(d_s, n), sizes(n)),
            "col": gram_alignment_curve(col_ref, gram_l[name] / n_batches, min(d_s, m), sizes(m)),
        }
    return curves
