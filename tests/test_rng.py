import numpy as np
import pytest

from flatopt.rng import SplitMix64, derive_seed


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
