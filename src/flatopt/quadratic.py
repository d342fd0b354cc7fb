"""Closed-form analysis of heavy-ball-with-gradient-correction dynamics on
anisotropic quadratics.

Each curvature eigenvalue evolves independently under the two-step error
recurrence e_{k+1} = 2T e_k - D e_{k-1}, so everything reduces to scalar root
finding: damping regimes from the discriminant T^2 - D, a hard stability
ceiling on the step size from the Jury criterion, and the curvature interval
where the mode turns underdamped (the closed-form roots of a quadratic in
lambda, without an iterative polish). A direct simulator provides the oracle
side for every closed form.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .linalg import check_array, check_number

# Exact criticality is measure-zero; anything this close to a double root is
# classified critical so the (c1 + c2 k) D^{k/2} closed form applies.
CRITICAL_TOL = 1e-14

DIVERGENCE_CAP = 1e15


@dataclasses.dataclass(frozen=True)
class QuadraticSpec:
    """f(w) = 1/2 sum_i lambda_i w_i^2 + b^T w with eigenvalues descending;
    offsets default to zeros."""

    eigenvalues: np.ndarray
    offsets: np.ndarray | None = None

    def __post_init__(self):
        lam = check_array("eigenvalues", self.eigenvalues, (None,))
        b = np.zeros(lam.size) if self.offsets is None else \
            check_array("offsets", self.offsets, lam.shape)
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def loss(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(0.5 * (self.eigenvalues * w * w).sum() + self.offsets @ w)

    def grad(self, w):
        """The gradient lambda * w + b."""
        return self.eigenvalues * np.asarray(w, dtype=float) + self.offsets

    def stationary_point(self):
        """Per-coordinate minimizer -b_i/lambda_i; flat coordinates pin to 0."""
        lam = self.eigenvalues
        w = np.zeros_like(lam)
        nz = lam != 0.0
        w[nz] = -self.offsets[nz] / lam[nz]
        return w

    def start(self):
        """The stationary point + 1: displaced so that trajectories move."""
        return self.stationary_point() + 1.0


@dataclasses.dataclass(frozen=True)
class RegimeReport:
    lam: float
    T: float
    D: float
    discriminant: float
    roots: tuple
    regime: str
    theta: float | None
    dominant_modulus: float


def recurrence_coeffs(lam: float, alpha: float, beta: float, eta: float):
    """Coefficients (T, D) of the per-mode error recurrence.

    T = 1 - (alpha + eta*lam*(beta+1))/2 and D = (1-alpha)*(1 - eta*beta*lam).
    """
    t = 1.0 - (alpha + eta * lam * (beta + 1.0)) / 2.0
    d = (1.0 - alpha) * (1.0 - eta * beta * lam)
    return t, d


def classify_regime(t: float, d: float) -> str:
    disc = t * t - d
    if abs(disc) < CRITICAL_TOL * max(1.0, t * t):
        return "critical"
    return "overdamped" if disc > 0.0 else "underdamped"


def characteristic_roots(t: float, d: float):
    """Roots of r^2 - 2T r + D = 0 with their damping regime.

    Returns (roots, regime, theta) where theta is the oscillation angle
    arccos(T/sqrt(D)) for underdamped modes and None otherwise.
    """
    if not (math.isfinite(t) and math.isfinite(d)):
        raise ValueError(f"recurrence coefficients T = {t}, D = {d} are not finite")
    disc = t * t - d
    if not math.isfinite(disc):
        raise ValueError(f"discriminant T*T - D overflows at T = {t}, D = {d}")
    regime = classify_regime(t, d)
    if regime == "critical":
        return (complex(t), complex(t)), regime, None
    if regime == "overdamped":
        # pair the subtraction-free root with D/r to dodge cancellation
        s = math.sqrt(disc)
        r_big = t + s if t >= 0.0 else t - s
        r_small = d / r_big  # disc > 0, so |r_big| >= sqrt(disc) > 0
        hi, lo = (r_big, r_small) if r_big >= r_small else (r_small, r_big)
        return (complex(hi), complex(lo)), regime, None
    # underdamped with finite T and D: D > fl(T*T) >= 0, so sqrt(D) is real
    s = math.sqrt(-disc)
    theta = math.acos(t / math.sqrt(d))
    return (complex(t, s), complex(t, -s)), regime, theta


def analyze_mode(lam: float, alpha: float, beta: float, eta: float) -> RegimeReport:
    """Full per-mode report: coefficients, roots, regime, dominant modulus."""
    t, d = recurrence_coeffs(lam, alpha, beta, eta)
    roots, regime, theta = characteristic_roots(t, d)
    modulus = max(abs(roots[0]), abs(roots[1]))
    return RegimeReport(
        lam=lam, T=t, D=d, discriminant=t * t - d, roots=roots,
        regime=regime, theta=theta, dominant_modulus=modulus,
    )


def stability_bound(lam_max: float, alpha: float, beta: float) -> float:
    """Largest stable step size on the sharpest mode.

    eta <= 2(2-alpha) / (lam_max * max{1 + 2*beta - alpha*beta, 2*beta*(1-alpha)}).
    Degenerate alpha >= 2 returns 0 (the numerator has vanished). The D < 1
    term holds only for beta >= 0; a negative beta is rejected.
    """
    check_number("lam_max", lam_max, interval="(0, inf)")
    check_number("alpha", alpha, interval="(0, inf)")
    check_number("beta", beta, interval="[0, inf)")
    if alpha >= 2.0:
        return 0.0
    denom = lam_max * max(1.0 + 2.0 * beta - alpha * beta, 2.0 * beta * (1.0 - alpha))
    return 2.0 * (2.0 - alpha) / denom


def regime_boundaries(alpha: float, beta: float, eta: float):
    """Curvature interval endpoints (lam1, lam2) where modes turn underdamped.

    Solves T(lam)^2 = D(lam), a quadratic in lam, in closed form: the root
    without cancellation is q / a2 and its partner a0 / q, with no further
    polish. Raises if the quadratic has no pair of real positive roots (no
    underdamped band at these hyper-parameters), and, as ``stability_bound``
    does, on alpha <= 0 or beta < 0.
    """
    check_number("alpha", alpha, interval="(0, inf)")
    check_number("beta", beta, interval="[0, inf)")
    check_number("eta", eta)
    a2 = eta * eta * (beta + 1.0) ** 2 / 4.0
    a1 = -(1.0 - alpha / 2.0) * eta * (beta + 1.0) + (1.0 - alpha) * eta * beta
    a0 = alpha * alpha / 4.0
    if a2 == 0.0:
        raise ValueError("no river/valley split at these hyper-parameters")
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        raise ValueError("no river/valley split at these hyper-parameters")
    q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    lo, hi = sorted((q / a2, a0 / q)) if q != 0.0 else (0.0, 0.0)
    if lo <= 0.0:
        raise ValueError("no river/valley split at these hyper-parameters")
    return lo, hi


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    trajectory: np.ndarray          # (steps_run + 1, dim) iterates, w_0 first
    errors: np.ndarray              # trajectory minus the stationary point
    fitted_rates: np.ndarray        # per-mode slope of log|e_k|, nan if unfittable
    diverged: bool
    momentum: np.ndarray            # m after the last step run


def simulate_recurrence(spec: QuadraticSpec, alpha: float, beta: float, eta: float,
                        w0, m0, steps: int) -> SimulationResult:
    """Run the discrete momentum update on the quadratic and fit decay rates.

    The loop is m <- (1-alpha) m + g, w <- w - eta (m + beta g), exactly the
    per-mode recurrence in disguise. Rates come from a least-squares slope of
    log sqrt(e_k^2 + e_{k+1}^2) over the second half of the run; the paired
    form keeps the log finite at the zero crossings of underdamped modes.
    Stops early once any |e| passes 1e15 and reports diverged.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("eta", eta)):
        check_number(name, value)
    check_number("steps", steps, numbers.Integral, "[1, inf)")
    w = check_array("w0", w0, (spec.dim,)).copy()
    m = check_array("m0", m0, (spec.dim,)).copy()
    wstar = spec.stationary_point()
    traj = [w.copy()]
    diverged = False
    for _ in range(steps):
        g = spec.grad(w)
        m = (1.0 - alpha) * m + g
        w = w - eta * (m + beta * g)
        traj.append(w.copy())
        if not np.isfinite(w).all() or np.abs(w - wstar).max() > DIVERGENCE_CAP:
            diverged = True
            break
    traj = np.array(traj)
    errors = traj - wstar
    n = errors.shape[0]
    half = errors[n // 2:]
    rates = np.full(spec.dim, np.nan)
    z = np.sqrt(half[:-1] ** 2 + half[1:] ** 2)
    ks = np.arange(z.shape[0], dtype=float)
    for i in range(spec.dim):
        zi = z[:, i]
        if zi.shape[0] < 2 or np.any(zi <= 0.0) or not np.isfinite(zi).all():
            continue
        logz = np.log(zi)
        kc = ks - ks.mean()
        rates[i] = (kc @ (logz - logz.mean())) / (kc @ kc)
    return SimulationResult(trajectory=traj, errors=errors, fitted_rates=rates,
                           diverged=diverged, momentum=m)


@dataclasses.dataclass(frozen=True)
class ProbeResult:
    r1: np.ndarray                  # (len(eta_grid), len(beta_grid)) top roots
    included: np.ndarray            # bool mask, False where the band precondition failed
    expected: str                   # "increasing" or "decreasing"
    excluded_points: list
    violations: list
    passed: bool


def monotonicity_probe(lam: float, alpha: float, eta_grid, beta_grid) -> ProbeResult:
    """Tabulate the dominant real root r1 over an (eta, beta) grid and check
    strict monotonicity along both axes.

    For lam < 0 the escape rate must strictly grow with either knob; for
    convex lam inside the overdamped band (lam below the lower regime
    boundary) it must strictly shrink. Grid points that leave the band, or
    whose mode is not overdamped, are excluded and reported rather than
    judged, and a probe that judges no point fails. lam = 0, alpha <= 0, a
    grid eta <= 0 or beta < 0, or a non-finite one, is rejected.
    """
    check_number("lam", lam)
    if lam == 0.0:
        raise ValueError("lam must be nonzero, got 0")
    check_number("alpha", alpha, interval="(0, inf)")
    etas = [float(check_number("eta_grid", e, interval="(0, inf)")) for e in eta_grid]
    betas = [float(check_number("beta_grid", b, interval="[0, inf)")) for b in beta_grid]
    expected = "increasing" if lam < 0.0 else "decreasing"
    r1 = np.full((len(etas), len(betas)), np.nan)
    included = np.zeros((len(etas), len(betas)), dtype=bool)
    excluded = []
    for i, eta in enumerate(etas):
        for j, beta in enumerate(betas):
            if lam > 0.0:
                try:
                    band_lo, _ = regime_boundaries(alpha, beta, eta)
                except ValueError:
                    excluded.append((eta, beta, "no regime band"))
                    continue
                if not lam < band_lo:
                    excluded.append((eta, beta, "lam not below the band"))
                    continue
            report = analyze_mode(lam, alpha, beta, eta)
            if report.regime != "overdamped":
                excluded.append((eta, beta, f"regime {report.regime}"))
                continue
            r1[i, j] = max(r.real for r in report.roots)
            included[i, j] = True
    violations = []
    sign = 1.0 if expected == "increasing" else -1.0
    # rows walk beta at fixed eta; the transposes walk eta at fixed beta
    for axis, table, mask, fixed, along in (("beta", r1, included, etas, betas),
                                            ("eta", r1.T, included.T, betas, etas)):
        for i, at in enumerate(fixed):
            line = [(along[j], table[i, j]) for j in range(len(along)) if mask[i, j]]
            for (x0, v0), (x1, v1) in zip(line, line[1:]):
                if not sign * (v1 - v0) > 0.0:
                    violations.append((axis, at, x0, x1, v0, v1))
    return ProbeResult(r1=r1, included=included, expected=expected,
                       excluded_points=excluded, violations=violations,
                       passed=bool(included.any()) and not violations)
