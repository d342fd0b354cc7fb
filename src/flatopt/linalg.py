"""Dense linear algebra core: Householder QR, Jacobi eigensolver, SVD oracle.

Everything operates on row-major float64 numpy arrays. The SVD here is the
brute-force reference used by the projection and polar-factor tests; it is
deliberately built on the Jacobi eigensolver rather than any iterative
polynomial scheme so the two routes stay independent.

check_number and check_fields are the one rule for a number that enters
from outside: a config field, a CLI flag or an analysis function's argument.
check_array is the one rule for an array that enters from outside: an
analysis object, a flow's state or a matrix routine's input.
"""

import dataclasses
import math
import numbers
import sys

import numpy as np

JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-14

# number annotation -> the type each value (each item, for a tuple) must have
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "tuple[int, ...]": numbers.Integral}


def check_number(name: str, value, kind=numbers.Real, interval: str = "(-inf, inf)"):
    """Return value if it is a kind in interval, such as "[0, 1)", else raise
    a ValueError led by name; only an interval closed at inf, like "(0, inf]",
    admits inf, and a real must fit in a float."""
    if not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if kind is numbers.Real and sys.float_info.max < abs(value) < math.inf:  # a huge int
        raise ValueError(f"{name} must fit in a float, got a magnitude above {sys.float_info.max}")
    low, high = map(float, interval[1:-1].split(","))
    # comparisons, not math.isfinite, so an int of any size is judged exactly
    if not (low < value < high or interval[0] == "[" and value == low
            or interval[-1] == "]" and value == high):
        if isinstance(value, int) and value.bit_length() > 14000:  # str() stops at 4300 digits
            value = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        raise ValueError(f"{name} must be in {interval}, got {value}")
    return value


def check_fields(config, intervals: dict):
    """check_number on each number field of the dataclass config, with the
    kind its annotation gives and its interval in intervals, else (-inf, inf);
    a tuple[int, ...] field must be a tuple, and every item is checked."""
    fields = {f.name: f.type for f in dataclasses.fields(config) if f.type in _KINDS}
    unknown = sorted(intervals.keys() - fields.keys())
    if unknown:
        raise TypeError(f"{type(config).__name__} has no number field {unknown}")
    for name, annotation in fields.items():
        value = getattr(config, name)
        is_tuple = annotation.startswith("tuple")
        if is_tuple and not isinstance(value, tuple):
            raise ValueError(f"{name} must be a tuple of integers, got {value!r}")
        for item in value if is_tuple else (value,):
            check_number(name, item, _KINDS[annotation], intervals.get(name, "(-inf, inf)"))


def check_array(name: str, a, shape: tuple):
    """Return a as a float64 array (no copy of a float64 one) if it has one
    axis per entry of shape, each an int length or None for any length >= 1,
    and finite entries, else raise a ValueError led by name."""
    a = np.asarray(a, dtype=np.float64)
    fits = a.ndim == len(shape) and 0 not in a.shape
    for length, n in zip(a.shape, shape):  # a loop, not any(), is cheaper on a hot path
        fits = fits and n in (None, length)
    if not fits:
        raise ValueError(f"{name} must have shape {str(shape).replace('None', '>=1')}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a.flat[np.isfinite(a).argmin()]}")
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
    a = check_array("a", a, (None, None))
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

    W = (a + aᵀ)/2 sits beside the accumulated rotations Vᵀ in one n×2n
    array [W | Vᵀ], so its row p is W's column p followed by V's column
    p (W is symmetric). Each rotation updates the two contiguous rows p and
    q in place, forming c·x − s·y as c·x minus s·y and s·x + c·y as c·y plus
    s·x: the products and sums of a column rotation of W and V, rounded the
    same way. W starts bitwise symmetric and each rotation keeps it so: off
    the 2×2 pivot block, row p of JᵀWJ is computed by the same operations on
    the same operands as column p of WJ. So the rotated rows p and q of W are
    copied into its columns p and q, after which the pivot's diagonal entries
    are formed from the rotated entries and its off-diagonal pair is zeroed.
    The eigenvectors come back column-major (each one contiguous), as the
    transpose of the reordered rows of Vᵀ.
    """
    a = check_array("a", a, (None, None))
    n, n2 = a.shape
    if n != n2:
        raise ValueError(f"sym_eig needs a square matrix, got {a.shape}")
    asym = np.abs(a - a.T).max()
    if asym > 1e-12 * max(1.0, frobenius(a)):
        raise ValueError(f"sym_eig input is not symmetric (max |a - aᵀ| = {asym:.3e})")
    sym = 0.5 * (a + a.T)
    wv = np.empty((n, 2 * n))
    w = wv[:, :n]
    w[:] = sym
    wv[:, n:] = np.eye(n)
    norm = frobenius(sym)
    # views made once: the pivot loop only indexes lists
    rows, w_rows, w_cols = list(wv), list(w), list(w.T)
    item = wv.item
    for _ in range(JACOBI_MAX_SWEEPS):
        off = w.copy()
        np.fill_diagonal(off, 0.0)
        if frobenius(off) < JACOBI_OFF_TOL * max(norm, np.finfo(float).tiny):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = item(p, q)
                if apq == 0.0:
                    continue
                tau = (item(q, q) - item(p, p)) / (2.0 * apq)
                # np.sign convention: tau = -0.0 (equal diagonal, apq < 0) takes t > 0
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p, row_q = rows[p], rows[q]
                s_q = s * row_q
                s_p = s * row_p
                row_p *= c
                row_p -= s_q
                row_q *= c
                row_q += s_p
                w_pp = c * item(p, p) - s * item(p, q)
                w_qq = s * item(q, p) + c * item(q, q)
                w_cols[p][:] = w_rows[p]
                w_cols[q][:] = w_rows[q]
                w[p, p], w[q, q] = w_pp, w_qq
                w[p, q] = w[q, p] = 0.0
    evals = np.diag(w).copy()
    order = np.argsort(-evals, kind="stable")
    return evals[order], wv[order, n:].T


def svd_oracle(a):
    """Full column SVD (U, sigma descending, V) built on sym_eig of the Gram matrix.

    Left factor comes from re-orthonormalizing a@V with Householder QR, which
    sidesteps the sign/ordering matching an independent eigendecomposition of
    a·aᵀ would require. Reconstruction holds to 1e-8 relative.
    """
    a = check_array("a", a, (None, None))
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
