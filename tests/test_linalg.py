import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatopt.linalg import (
    JACOBI_MAX_SWEEPS,
    JACOBI_OFF_TOL,
    frobenius,
    qr_decompose,
    svd_oracle,
    sym_eig,
)


def random_matrix(rng, m, n, lo=-1.0, hi=1.0):
    return lo + (hi - lo) * rng.random((m, n))


class TestQr:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_single_column(self):
        q, r = qr_decompose(np.array([[0.0], [1.0]]))
        assert np.allclose(q, [[0.0], [1.0]])
        assert np.allclose(r, [[1.0]])

    def test_random_rectangular(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_matrix(rng, 8, 4)
            q, r = qr_decompose(a)
            assert frobenius(q.T @ q - np.eye(4)) < 1e-10
            assert frobenius(q @ r - a) < 1e-10 * frobenius(a)
            assert np.abs(np.tril(r, -1)).max() < 1e-12

    def test_nonnegative_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, r = qr_decompose(random_matrix(rng, 6, 3))
            assert (np.diag(r) >= 0.0).all()

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 4)))


class TestSymEig:
    def test_diagonal(self):
        evals, vecs = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(evals, [3.0, 2.0, 1.0])
        # permutation eigenvectors: one unit entry per column
        assert np.allclose(np.abs(vecs).max(axis=0), 1.0)
        assert np.allclose((np.abs(vecs) > 0.5).sum(axis=0), 1)

    def test_two_by_two_exchange(self):
        evals, vecs = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(evals, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        for col, expect in ((0, [s, s]), (1, [s, -s])):
            v = vecs[:, col]
            assert np.allclose(v, expect) or np.allclose(-v, expect)

    def test_random_residuals(self):
        rng = np.random.default_rng(4)
        a = random_matrix(rng, 10, 10)
        a = 0.5 * (a + a.T)
        evals, vecs = sym_eig(a)
        assert (np.diff(evals) <= 1e-12).all()
        for i in range(10):
            residual = a @ vecs[:, i] - evals[i] * vecs[:, i]
            assert np.sqrt((residual ** 2).sum()) < 1e-8 * frobenius(a)
        assert frobenius(vecs.T @ vecs - np.eye(10)) < 1e-8

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSvdOracle:
    def test_positive_diagonal(self):
        u, s, v = svd_oracle(np.diag([2.0, 0.5]))
        assert np.allclose(s, [2.0, 0.5])
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-10)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-10)

    def test_zero_matrix(self):
        _, s, _ = svd_oracle(np.zeros((3, 2)))
        assert np.array_equal(s, np.zeros(2))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for shape in ((6, 4), (4, 6), (5, 5)):
            a = random_matrix(rng, *shape)
            u, s, v = svd_oracle(a)
            assert (s >= -1e-12).all()
            assert (np.diff(s) <= 1e-10).all()
            assert frobenius(u @ np.diag(s) @ v.T - a) < 1e-8 * max(1.0, frobenius(a))

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(6)
        a = random_matrix(rng, 7, 3)
        _, s, _ = svd_oracle(a)
        evals, _ = sym_eig(a.T @ a)
        assert np.abs(s - np.sqrt(np.clip(evals, 0.0, None))).max() < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_qr_reconstructs_any_shape(m, extra, seed):
    n = min(m, 1 + extra)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    q, r = qr_decompose(a)
    assert frobenius(q @ r - a) < 1e-10 * max(1.0, frobenius(a))
    assert frobenius(q.T @ q - np.eye(n)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_sym_eig_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    evals, vecs = sym_eig(a)
    assert frobenius(vecs @ np.diag(evals) @ vecs.T - a) < 1e-8 * max(1.0, frobenius(a))


def cyclic_jacobi_reference(a):
    """Reference for sym_eig: cyclic Jacobi with separate W and V arrays, a
    column rotation and a row rotation of W per pivot, numpy scalars."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    w = 0.5 * (a + a.T)
    v = np.eye(n)
    norm = frobenius(w)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        if frobenius(off) < JACOBI_OFF_TOL * max(norm, np.finfo(float).tiny):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
                t = np.sign(tau) if tau != 0 else 1.0
                t = t / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * w[:, p] - s * w[:, q]
                rot_q = s * w[:, p] + c * w[:, q]
                w[:, p], w[:, q] = rot_p, rot_q
                rot_p = c * w[p, :] - s * w[q, :]
                rot_q = s * w[p, :] + c * w[q, :]
                w[p, :], w[q, :] = rot_p, rot_q
                w[p, q] = w[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    evals = np.diag(w).copy()
    order = np.argsort(-evals, kind="stable")
    return evals[order], v[:, order]


def _symmetric_input(kind, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    if kind == "spd":
        return g @ g.T + n * np.eye(n)
    if kind == "indefinite":
        return 0.5 * (g + g.T)
    if kind == "diagonal":
        # every off-diagonal pivot is zero, so every rotation is skipped
        return np.diag(g[0])
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "equal_diagonal":
        # equal diagonals and negative off-diagonals: the first pivot takes
        # tau = -0.0
        a = -np.abs(0.5 * (g + g.T))
        np.fill_diagonal(a, 1.5)
        return a
    if kind == "ones":
        return np.ones((n, n))
    u = g[:, 0]
    return np.eye(n) + np.outer(u, u)  # identity plus rank 1: n - 1 repeated eigenvalues


@pytest.mark.parametrize("n", [1, 2, 5, 12, 48])
@pytest.mark.parametrize("kind", ["spd", "indefinite", "diagonal", "rank1", "zero",
                                  "equal_diagonal", "ones"])
def test_sym_eig_matches_cyclic_reference_bitwise(kind, n):
    a = _symmetric_input(kind, n, seed=1000 * n + len(kind))
    evals, vecs = sym_eig(a)
    ref_evals, ref_vecs = cyclic_jacobi_reference(a)
    assert np.array_equal(evals, ref_evals)
    assert np.array_equal(vecs, ref_vecs)
    # column-major, each eigenvector contiguous: the products svd_oracle and
    # the coverage curves take of it depend on the layout BLAS is handed
    assert vecs.dtype == np.float64
    assert vecs.flags.f_contiguous


def _gapped_matrix(rng, m, n):
    """Random m-by-n matrix with singular values in [0.05, 1], the polar check's draw."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.sort(0.05 + 0.95 * rng.random(n))[::-1]
    return u @ (sigma[:, None] * v.T)


@pytest.mark.parametrize("seed", [0, 1])
def test_svd_oracle_matches_cyclic_reference_bitwise(seed):
    a = _gapped_matrix(np.random.default_rng(seed), 48, 32)
    evals, ref_v = cyclic_jacobi_reference(a.T @ a)
    ref_u, _ = qr_decompose(a @ ref_v)
    u, sigma, v = svd_oracle(a)
    assert np.array_equal(sigma, np.sqrt(np.clip(evals, 0.0, None)))
    assert np.array_equal(v, ref_v)
    assert np.array_equal(u, ref_u)
