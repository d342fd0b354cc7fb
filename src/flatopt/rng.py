"""Deterministic random numbers for experiments: SplitMix64 plus Box-Muller.

Every experiment derives one child seed per named stream (weights, data,
minibatch order, ...) so adding a stream never perturbs the others. Outputs
are reproducible bit-for-bit for a given seed, which the CSV determinism
guarantee relies on.

Scalars (the stream state, ``derive_seed``) are Python ints masked to 64
bits after each multiply. Bulk draws run on uint64 arrays, whose arithmetic
wraps silently. Every operand there is uint64 too, a ``np.uint64`` or a 0-d
uint64 array and never a Python int, so the result stays uint64 under both
numpy 2 and numpy 1.x promotion rules. ``normal_rows`` draws many streams in
one pass; its stream states are a uint64 column, so the same holds there.
"""

import math
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _u64(value):
    # a read-only 0-d array: ufuncs take it faster than a np.uint64 scalar
    a = np.array(value, dtype=np.uint64)
    a.flags.writeable = False
    return a


_U_GOLDEN, _U_MUL1, _U_MUL2 = _u64(_GOLDEN), _u64(_MUL1), _u64(_MUL2)
_U1, _U11, _U27, _U30, _U31 = _u64(1), _u64(11), _u64(27), _u64(30), _u64(31)


def _mix(z):
    """SplitMix64 finalizer over a uint64 array."""
    z = (z ^ (z >> _U30)) * _U_MUL1
    z = (z ^ (z >> _U27)) * _U_MUL2
    return z ^ (z >> _U31)


def derive_seed(seed, label):
    """Child seed for a named stream: FNV-1a of the label folded into the seed."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    z = (operator.index(seed) ^ h) & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _size(n):
    """A draw size or dimension as a Python int, rejecting negatives."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"draw size must be >= 0, got {n}")
    return n


def normal_rows(seeds, count):
    """Standard normals by Box-Muller, one row per stream: row i is
    ``SplitMix64(seeds[i]).normal(count)`` byte for byte.

    Each row takes 2 * ceil(count / 2) draws from its stream. Its first half
    of uniforms gives the radii and its second half the angles, and the row
    is the cosine products followed by the sine products, cut to count.
    """
    count = _size(count)
    pairs = (count + 1) // 2
    states = np.array([operator.index(s) & _MASK for s in seeds], dtype=np.uint64)
    ks = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _U_GOLDEN
    u = ((_mix(states[:, None] + ks) >> _U11) + _U1) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    theta = 2.0 * np.pi * u[:, pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :count]


class SplitMix64:
    """Counter-based SplitMix64 stream; bulk draws are vectorized over numpy."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def _raw(self, n):
        n = _size(n)
        ks = np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN
        zs = _mix(np.uint64(self.state) + ks)
        self.state = (self.state + n * _GOLDEN) & _MASK
        return zs

    def uniform(self, n):
        """n doubles in (0, 1]."""
        return ((self._raw(n) >> _U11) + _U1) * 2.0 ** -53

    def integers(self, lo, hi, n=None):
        """Integers in [lo, hi) via rejection-free modulo (bias negligible at desk scale)."""
        if hi <= lo:
            raise ValueError(f"empty integer range [{lo}, {hi})")
        vals = lo + (self._raw(n if n is not None else 1) % np.uint64(hi - lo)).astype(np.int64)
        return vals if n is not None else int(vals[0])

    def normal(self, shape):
        """Standard normals by Box-Muller: the one-stream case of
        ``normal_rows``, advancing the stream past the draws it took."""
        shape = tuple(map(_size, shape)) if np.iterable(shape) else (_size(shape),)
        count = math.prod(shape)
        out = normal_rows([self.state], count)[0]
        self.state = (self.state + 2 * ((count + 1) // 2) * _GOLDEN) & _MASK
        return out.reshape(shape)
