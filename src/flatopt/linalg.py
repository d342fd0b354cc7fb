"""Dense linear algebra core: Householder QR, Jacobi eigensolver, SVD oracle.

Everything operates on row-major float64 numpy arrays. The SVD here is the
brute-force reference used by the projection and polar-factor tests; it is
deliberately built on the Jacobi eigensolver rather than any iterative
polynomial scheme so the two routes stay independent.
"""

import numpy as np

JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-14


def as_matrix(a):
    """Validate and return a 2-D float64 array (finite entries, positive dims)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius(a):
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt((a * a).sum()))


def qr_decompose(a):
    """Reduced QR via Householder reflections, for a with rows >= cols.

    Returns (Q, R) with Q m-by-n orthonormal columns, R n-by-n upper
    triangular with non-negative diagonal. Zero pivots (rank deficiency)
    skip the reflector, so the factorization never fails for finite input.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"qr_decompose needs rows >= cols, got {a.shape}")
    r = a.copy()
    vs = []
    for j in range(n):
        x = r[j:, j]
        normx = np.sqrt((x * x).sum())
        if normx == 0.0:
            vs.append(None)
            continue
        v = x.copy()
        # v = x + sign(x0)*‖x‖*e1 avoids cancellation in the leading entry
        v[0] += normx if x[0] >= 0 else -normx
        beta = 2.0 / (v * v).sum()
        vs.append((v, beta))
        r[j:, j:] -= np.outer(beta * v, v @ r[j:, j:])
    q = np.zeros((m, n))
    q[:n, :n] = np.eye(n)
    for j in range(n - 1, -1, -1):
        if vs[j] is None:
            continue
        v, beta = vs[j]
        q[j:, :] -= np.outer(beta * v, v @ q[j:, :])
    r = np.triu(r[:n, :])
    neg = np.diag(r) < 0
    r[neg, :] *= -1.0
    q[:, neg] *= -1.0
    return q, r


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvector matrix with matching columns).
    Sweeps until the off-diagonal Frobenius mass drops below 1e-14 * ‖a‖_F
    or 100 sweeps elapse.
    """
    a = as_matrix(a)
    n, n2 = a.shape
    if n != n2:
        raise ValueError(f"sym_eig needs a square matrix, got {a.shape}")
    asym = np.abs(a - a.T).max()
    if asym > 1e-12 * max(1.0, frobenius(a)):
        raise ValueError(f"sym_eig input is not symmetric (max |a - aᵀ| = {asym:.3e})")
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


def svd_oracle(a):
    """Full column SVD (U, sigma descending, V) built on sym_eig of the Gram matrix.

    Left factor comes from re-orthonormalizing a@V with Householder QR, which
    sidesteps the sign/ordering matching an independent eigendecomposition of
    a·aᵀ would require. Reconstruction holds to 1e-8 relative.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        u, s, v = svd_oracle(a.T)
        return v, s, u
    evals, v = sym_eig(a.T @ a)
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    u, r = qr_decompose(a @ v)
    # a@V has orthogonal columns of norm sigma_i, so R ≈ diag(sigma) up to
    # roundoff; keeping Q from its QR gives orthonormal U even for zero sigma.
    return u, sigma, v
