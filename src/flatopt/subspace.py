"""Smoothed sharp/flat masking for elementwise preconditioners, plus a
subspace coverage diagnostic.

The mask operates on a block's second-moment tensor: entries whose magnitude
clears an adaptive threshold count as sharp (mask 1), entries below a second,
lower threshold count as flat (mask 0), and a linear ramp bridges the band in
between. Both thresholds are multiples of the tensor mean, steered by a
multiplicative feedback controller so that the sharp set tracks a target size
without ever sorting entries.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .linalg import check_array, svd_oracle


@dataclasses.dataclass(frozen=True)
class SoapMaskController:
    """Feedback state for the dual mask thresholds of one block.

    ``l_s`` and ``l_smooth`` scale the mean of v into the sharp and smooth
    thresholds ``thresholds(v)``. ``d_s`` is the target sharp count,
    ``d_smooth`` the extra width allotted to the ramp band.
    """

    d_s: int
    d_smooth: int
    l_s: float = 1.0
    l_smooth: float = 0.5

    def __post_init__(self):
        # comparisons that NaN fails; x % 1 is NaN for an infinite x
        if not (self.d_s >= 1 and self.d_s % 1 == 0):
            raise ValueError(f"d_s must be an integer >= 1, got {self.d_s}")
        if not (self.d_smooth >= 0 and self.d_smooth % 1 == 0):
            raise ValueError(f"d_smooth must be an integer >= 0, got {self.d_smooth}")
        # l_smooth <= 0.95*l_s is an update invariant, not a construction
        # precondition: update_soap_controller restores it from any start.
        for name, value in (("l_s", self.l_s), ("l_smooth", self.l_smooth)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def thresholds(self, v):
        mean = float(v.sum()) / v.size
        return self.l_s * mean, self.l_smooth * mean


def smoothed_sharp_mask(v, ctrl: SoapMaskController):
    """Entrywise mask in [0,1]: 1 where v >= tau_s, 0 where v <= tau_smooth,
    linear ramp on the open band between the two thresholds.

    Thresholds are tau_s = l_s * mean(v) and tau_smooth = l_smooth * mean(v).
    A zero tensor (mean 0) returns the all-ones mask; before any gradient
    mass accumulates there is nothing to rank, so everything counts as sharp.
    """
    v = check_array("v", v, (None, None))
    if (v < 0).any():
        raise ValueError("mask input must be non-negative")
    tau_s, tau_smooth = ctrl.thresholds(v)
    if tau_s == tau_smooth:
        if not v.any():
            return np.ones_like(v)
        raise ValueError("degenerate thresholds: tau_s == tau_smooth with nonzero mean")
    # clip reproduces all three branches: >= tau_s lands at exactly 1,
    # <= tau_smooth at exactly 0, the band at the ramp value.
    return np.clip((v - tau_smooth) / (tau_s - tau_smooth), 0.0, 1.0)


def update_soap_controller(ctrl: SoapMaskController, v) -> SoapMaskController:
    """One feedback step on the scales from v's counts above ctrl.thresholds(v).

    Grows l_s when at least d_s entries clear the sharp threshold, shrinks it
    otherwise; same for l_smooth against d_s + d_smooth. The smooth scale is
    then clamped to 0.95 * l_s so the ramp band never collapses.
    """
    tau_s, tau_smooth = ctrl.thresholds(v)
    l_s = ctrl.l_s * (1.05 if (v > tau_s).sum() >= ctrl.d_s else 0.95)
    grow_smooth = (v > tau_smooth).sum() >= ctrl.d_s + ctrl.d_smooth
    l_smooth = min(ctrl.l_smooth * (1.05 if grow_smooth else 0.95), 0.95 * l_s)
    return dataclasses.replace(ctrl, l_s=l_s, l_smooth=l_smooth)


def coverage_score(basis_a, basis_b) -> float:
    """Fraction of span(basis_a) captured by span(basis_b).

    Computed as the nuclear norm of the cross-Gram basis_a^T basis_b divided
    by the column count of basis_a, i.e. the mean cosine of the principal
    angles. 1.0 means span(a) lies inside span(b); 0.0 means the subspaces
    are orthogonal.
    """
    a = check_array("basis_a", basis_a, (None, None))
    b = check_array("basis_b", basis_b, (len(a), None))  # both in one space
    k_a, k_b = a.shape[1], b.shape[1]
    if k_a > k_b:
        raise ValueError(f"basis_a has more columns than basis_b ({k_a} > {k_b})")
    for name, q in (("basis_a", a), ("basis_b", b)):
        gram_err = np.abs(q.T @ q - np.eye(q.shape[1])).max()
        if gram_err > 1e-8:
            raise ValueError(f"{name} columns not orthonormal (|QᵀQ − I| up to {gram_err:.3e})")
    _, sigma, _ = svd_oracle(a.T @ b)
    return float(np.clip(sigma.sum() / k_a, 0.0, 1.0))
