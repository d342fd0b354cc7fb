"""Newton-Schulz polar factorization and the composite sharp-subspace projector.

The composite projector averages two NS passes to realize a spectral step
function: directions with singular value above a dynamic threshold tau survive,
the rest are zeroed. A multiplicative controller steers tau so the projector
rank tracks a target dimension.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_array, frobenius

# Per-iteration quintic triples for X <- aX + bX(XᵀX) + cX(XᵀX)².  Rows were
# fitted as successive minimax maps for spectra in [2e-3, 1] after Frobenius
# normalization; the final row is the convergent (15x - 10x³ + 3x⁵)/8 and is
# reused for iteration counts past the end of the table.
NS_COEFFS = (
    (8.426832247, -24.93625556, 18.49256985),
    (4.06048474, -2.943426517, 0.538911989),
    (3.681524928, -2.685977508, 0.5114469947),
    (2.784963609, -2.037843723, 0.4436223061),
    (1.998149246, -1.371508258, 0.3806310684),
    (1.875062954, -1.249500723, 0.3744384037),
    (1.875, -1.25, 0.375),
)


@dataclass(frozen=True)
class NsSchedule:
    """Iteration count; iteration k uses row k of NS_COEFFS, or its last row.

    The map x -> ax + bx³ + cx⁵ is odd, so mixed-sign spectra keep their
    signs.
    """

    iterations: int = 6

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def row(self, k):
        return NS_COEFFS[min(k, len(NS_COEFFS) - 1)]


@dataclass(frozen=True)
class RankController:
    """Multiplicative threshold feedback: tau_k = scale_l * ‖M‖_F, target rank d_s."""

    scale_l: float
    target_dim: int

    def __post_init__(self):
        if not 0.0 < self.scale_l < math.inf:
            raise ValueError(f"scale_l must be positive and finite, got {self.scale_l}")
        if not (self.target_dim >= 1 and self.target_dim % 1 == 0):  # NaN fails it
            raise ValueError(f"target_dim must be a positive integer, got {self.target_dim}")


def ns_polar(a, schedule=None):
    """Approximate polar factor UVᵀ of a via quintic Newton-Schulz iterations.

    The input is divided by its Frobenius norm first, which makes the result
    exactly invariant under positive rescaling of a. A zero matrix maps to
    the zero matrix (documented degenerate case).
    """
    a = check_array("a", a, (None, None))
    if schedule is None:
        schedule = NsSchedule()
    fro = frobenius(a)
    if fro == 0.0:
        return np.zeros_like(a)
    transposed = a.shape[0] < a.shape[1]
    x = (a.T if transposed else a) / fro
    for k in range(schedule.iterations):
        ca, cb, cc = schedule.row(k)
        g = x.T @ x
        x = ca * x + x @ (cb * g + cc * (g @ g))
    return x.T if transposed else x


def composite_sharp_projection(m_tilde, controller, polar):
    """Sharp-direction projector P = TᵀT from the two-pass NS step function.

    T = ½ NS(M) + ½ NS(M/tau - NS(M)) keeps singular directions with
    sigma > tau = scale_l*‖M‖_F and suppresses the rest; P projects onto
    the corresponding right-singular subspace. ``polar`` is NS(M), computed
    with the default schedule, which the caller already holds. Requires
    rows >= cols (callers pre-transpose wide blocks).
    """
    m_tilde = check_array("m_tilde", m_tilde, (None, None))
    m, n = m_tilde.shape
    if m < n:
        raise ValueError(f"composite_sharp_projection needs rows >= cols, got {m_tilde.shape}")
    polar = check_array("polar", polar, m_tilde.shape)
    fro = frobenius(m_tilde)
    if fro == 0.0:
        return np.zeros((n, n)), np.zeros_like(m_tilde)
    tau = controller.scale_l * fro
    t = 0.5 * polar + 0.5 * ns_polar(m_tilde / tau - polar)
    return t.T @ t, t


def update_rank_controller(controller, p_frob):
    """Raise the threshold scale by 1.05 when ‖P‖_F >= sqrt(d_s), lower by 0.95 otherwise."""
    if not p_frob >= 0:  # NaN fails it too
        raise ValueError(f"p_frob must be non-negative, got {p_frob}")
    if p_frob >= np.sqrt(controller.target_dim):
        return replace(controller, scale_l=controller.scale_l * 1.05)
    return replace(controller, scale_l=controller.scale_l * 0.95)
