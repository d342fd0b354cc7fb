import random
import warnings

import numpy as np
import pytest

from flatopt.rng import SplitMix64, derive_seed, normal_rows


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "weights") == derive_seed(42, "weights")

    def test_label_sensitivity(self):
        assert derive_seed(42, "weights") != derive_seed(42, "weightt")

    def test_seed_sensitivity(self):
        assert derive_seed(42, "weights") != derive_seed(43, "weights")

    def test_frozen_value(self):
        # pinned so a refactor cannot silently change every experiment stream
        assert derive_seed(42, "weights") == 2787348688235371080


class TestStreams:
    def test_uniform_frozen(self):
        draws = SplitMix64(42).uniform(3)
        expect = [0.74156487877182342, 0.15991039287692022, 0.27860113025513877]
        assert np.array_equal(draws, expect)

    def test_normal_frozen(self):
        draws = SplitMix64(7).normal((4,))
        expect = [1.1143177218512101, -2.4796190315443138,
                  -0.80149009368993074, -1.4232484806926928]
        assert np.array_equal(draws, expect)

    def test_consecutive_normals_frozen(self):
        # an odd draw still takes a whole Box-Muller pair: 3 values use 4 draws
        r = SplitMix64(7)
        first, second = r.normal(3), r.normal(2)
        assert first.tolist() == [1.1143177218512101, -2.479619031544314, -0.8014900936899307]
        assert second.tolist() == [0.0044985261598312525, 1.259433058588588]
        assert r.state == (7 + 6 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)

    def test_reproducible(self):
        a = SplitMix64(99).normal((5, 3))
        b = SplitMix64(99).normal((5, 3))
        assert np.array_equal(a, b)

    def test_sequential_draws_differ(self):
        r = SplitMix64(99)
        assert not np.array_equal(r.uniform(4), r.uniform(4))

    def test_uniform_support(self):
        u = SplitMix64(9).uniform(100000)
        assert u.min() > 0.0
        assert u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = SplitMix64(123).normal(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_shape(self):
        assert SplitMix64(1).normal((3, 5)).shape == (3, 5)
        assert SplitMix64(1).normal(7).shape == (7,)

    def test_integers_in_range(self):
        r = SplitMix64(17)
        vals = r.integers(3, 9, 1000)
        assert vals.min() >= 3
        assert vals.max() < 9
        assert set(np.unique(vals)) == set(range(3, 9))


def test_child_streams_independent():
    # drawing from one derived stream must not perturb a sibling
    seed = 1234
    a_then = SplitMix64(derive_seed(seed, "a")).normal(10)
    SplitMix64(derive_seed(seed, "b")).normal(1000)
    a_again = SplitMix64(derive_seed(seed, "a")).normal(10)
    assert np.array_equal(a_then, a_again)


class TestRejections:
    def test_empty_integer_range(self):
        with pytest.raises(ValueError, match="empty integer range"):
            SplitMix64(1).integers(4, 4)

    def test_inverted_integer_range(self):
        with pytest.raises(ValueError, match="empty integer range"):
            SplitMix64(1).integers(9, 3, 5)

    @pytest.mark.parametrize("draw", [
        lambda r: r.normal(-2),
        lambda r: r.normal((3, -1)),
        lambda r: r.uniform(-1),
        lambda r: r.integers(0, 3, -1),
        lambda r: normal_rows([r.state], -1),
    ], ids=["normal_int", "normal_tuple", "uniform", "integers", "normal_rows"])
    def test_negative_size(self, draw):
        r = SplitMix64(1)
        with pytest.raises(ValueError, match="draw size must be >= 0"):
            draw(r)
        assert r.state == 1

    @pytest.mark.parametrize("seed", [1.9, "1"])
    def test_non_integer_seed(self, seed):
        # a float seed must not truncate to another seed's stream
        with pytest.raises(TypeError):
            SplitMix64(seed)

    def test_integer_seeds_are_masked_to_64_bits(self):
        assert SplitMix64(-1).state == 2 ** 64 - 1
        assert SplitMix64(np.int64(-2)).state == 2 ** 64 - 2
        assert SplitMix64(2 ** 64 + 5).state == 5


_MASK = (1 << 64) - 1


# The numpy-scalar implementation the Python-int and uint64-array fast path
# replaced; the fast path must reproduce it bit for bit.
def _reference_mix(z):
    with np.errstate(over="ignore"):
        z = np.uint64(z) if np.isscalar(z) or isinstance(z, int) else z
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _reference_derive_seed(seed, label):
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return int(_reference_mix(np.uint64((seed ^ h) & _MASK)))


class _ReferenceStream:
    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def _raw(self, n):
        with np.errstate(over="ignore"):
            ks = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            zs = _reference_mix(np.uint64(self.state) + ks)
        self.state = (self.state + n * 0x9E3779B97F4A7C15) & _MASK
        return zs

    def uniform(self, n):
        return ((self._raw(n) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53

    def normal(self, shape):
        count = int(np.prod(shape))
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[:pairs]))
        theta = 2.0 * np.pi * u[pairs:]
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]
        return out.reshape(shape)


EDGE_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1]
_SEED_SOURCE = random.Random(2024)
RANDOM_SEEDS = [_SEED_SOURCE.getrandbits(64) for _ in range(6)]
LABELS = ["", "data/x", "batch/12345/noise", "teacher/l0/ÿ-é→σ"]
SHAPES = [7, np.int64(5), (3, 5), [1, 9], (np.int64(3), 3), (1,), (0,), (3, 1, 3)]


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
    def test_derive_seed(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label in LABELS:
                got = derive_seed(seed, label)
                assert type(got) is int
                assert got == _reference_derive_seed(seed, label)
                from_numpy = derive_seed(np.uint64(seed), label)
                assert type(from_numpy) is int and from_numpy == got

    @pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
    def test_consecutive_draws_and_state(self, seed):
        fast, ref = SplitMix64(seed), _ReferenceStream(seed)
        for n, shape in zip([1, 4, 0, 33, 2, 5, 8, 3], SHAPES):
            a, b = fast.uniform(n), ref.uniform(n)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert fast.state == ref.state
            a, b = fast.normal(shape), ref.normal(shape)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert fast.state == ref.state

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_normal_shapes(self, shape):
        a, b = SplitMix64(77).normal(shape), _ReferenceStream(77).normal(shape)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_wraparound_raises_no_warning(self):
        # no errstate guard is left: uint64 array arithmetic must wrap silently
        seed = 2 ** 64 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derive_seed(seed, "batch/1/x")
            r = SplitMix64(seed)
            r.uniform(9)
            r.normal((3, 3))
            r.integers(0, 7, 5)
            normal_rows([seed, 5], 9)
            assert r.state == (seed + 9 * 0x9E3779B97F4A7C15 + 10 * 0x9E3779B97F4A7C15
                               + 5 * 0x9E3779B97F4A7C15) & _MASK


class TestNormalRows:
    """Each row of the multi-stream draw is its stream's ``normal`` draw."""

    @pytest.mark.parametrize("count", [0, 1, 47, 48, 1024])
    def test_rows_match_single_streams(self, count):
        seeds = EDGE_SEEDS + RANDOM_SEEDS + [derive_seed(3, f"batch/{k}/x") for k in range(20)]
        rows = normal_rows(seeds, count)
        assert rows.shape == (len(seeds), count)
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == SplitMix64(seed).normal(count).tobytes()
            assert row.tobytes() == _ReferenceStream(seed).normal(count).tobytes()
