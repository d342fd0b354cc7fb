"""Deterministic random numbers for experiments: SplitMix64 plus Box-Muller.

Every experiment derives one child seed per named stream (weights, data,
minibatch order, ...) so adding a stream never perturbs the others. Outputs
are reproducible bit-for-bit for a given seed, which the CSV determinism
guarantee relies on.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    # uint64 wraparound is the whole point here, so mute the overflow warning
    with np.errstate(over="ignore"):
        z = np.uint64(z) if np.isscalar(z) or isinstance(z, int) else z
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def derive_seed(seed, label):
    """Child seed for a named stream: FNV-1a of the label folded into the seed."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return int(_mix(np.uint64((seed ^ h) & _MASK)))


class SplitMix64:
    """Counter-based SplitMix64 stream; bulk draws are vectorized over numpy."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def _raw(self, n):
        with np.errstate(over="ignore"):
            ks = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
            zs = _mix(np.uint64(self.state) + ks)
        self.state = (self.state + n * _GOLDEN) & _MASK
        return zs

    def uniform(self, n):
        """n doubles in (0, 1]."""
        return ((self._raw(n) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53

    def integers(self, lo, hi, n=None):
        """Integers in [lo, hi) via rejection-free modulo (bias negligible at desk scale)."""
        span = hi - lo
        vals = lo + (self._raw(n if n is not None else 1) % np.uint64(span)).astype(np.int64)
        return vals if n is not None else int(vals[0])

    def normal(self, shape):
        """Standard normals by Box-Muller on consecutive uniform pairs."""
        count = int(np.prod(shape))
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[:pairs]))
        theta = 2.0 * np.pi * u[pairs:]
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]
        return out.reshape(shape)
