"""Problem data: coefficients, driver, obstacle, weight, and hypothesis checks.

All model symbols live here, and so do the defaults of the tolerances that
end a discrete step (``DEFAULT_LCP_TOL``, ``DEFAULT_INNER_TOL``,
``DEFAULT_MAX_INNER``), which every solve reads from its
``ObstacleProblemSpec``.  Evaluators follow one calling convention: ``t`` is
a scalar, the remaining arguments are numpy arrays (or scalars) that
broadcast together, and the result broadcasts against the arguments: a
coefficient that does not depend on (t, x) may return a scalar.  Evaluators must
be pure; every object in this module is immutable after construction and safe
to share across workers.  The coefficients ``a`` and ``a_x`` must moreover be
pointwise (entry i of the result depends on entry i of x alone): path
simulation calls them on one block of paths at a time, concurrently from
several threads on disjoint slices, and relies on a slice's result being that
slice of the full row's.  ``lipschitz_probe`` samples the box ``PROBE_T_RANGE``
x ``PROBE_X_RANGE`` x [-``PROBE_VALUE_SCALE``, ``PROBE_VALUE_SCALE``]^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # numpy loads it lazily, which would put the cost inside a command

from .errors import EvaluatorFailure

__all__ = [
    "Coefficients",
    "Driver",
    "ObstacleData",
    "Weight",
    "ObstacleProblemSpec",
    "HypothesisEntry",
    "HypothesisReport",
    "validate_hypotheses",
    "lipschitz_probe",
]

DEFAULT_LCP_TOL = 1e-10
DEFAULT_INNER_TOL = 1e-11
DEFAULT_MAX_INNER = 200


@dataclass(frozen=True)
class Coefficients:
    """Scalar diffusion coefficient a(t, x) with ellipticity bounds.

    ``a_x`` is the user-supplied spatial derivative; it is required for path
    simulation (the Ito drift is a_x / 2) and deliberately not derived by
    automatic differentiation, so that simulation bias cannot be confounded
    with differentiation error.
    """

    a: Callable
    a_x: Callable | None
    lambda_ell: float
    Lambda_ell: float

    def __post_init__(self):
        if not (0.0 < self.lambda_ell <= self.Lambda_ell):
            raise ValueError("need 0 < lambda_ell <= Lambda_ell")


@dataclass(frozen=True)
class Driver:
    """Right-hand side f(t, x, y, z) with Lipschitz and growth constants.

    ``L`` bounds |df| by L(|dy| + |dz|), ``M_growth`` and ``g`` bound
    |f| <= g(t, x) + M_growth (|y| + |z|).
    """

    f: Callable
    L: float
    M_growth: float
    g: Callable

    def __post_init__(self):
        if self.L < 0 or self.M_growth < 0:
            raise ValueError("Lipschitz and growth constants must be nonnegative")


@dataclass(frozen=True)
class ObstacleData:
    """Obstacle h(t, x), terminal value phi(x), and the growth pair (c, beta)
    certifying |h| <= c (1 + x^2)^beta."""

    h: Callable
    phi: Callable
    h_growth: tuple[float, float] = (1.0, 1.0)


@dataclass(frozen=True)
class Weight:
    """Polynomial weight rho(x) = (1 + x^2)^(-alpha), alpha >= 0."""

    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def rho(self, x):
        return (1.0 + np.asarray(x, dtype=float) ** 2) ** (-self.alpha)


@dataclass(frozen=True)
class ObstacleProblemSpec:
    """Full problem statement on the truncated cylinder [0, T] x [x_lo, x_hi],
    with the tolerances its discrete steps stop at: ``lcp_tol`` ends a
    complementarity step, and ``inner_tol`` and ``max_inner`` end the
    lagged-driver fixed point of every step.  A spec derived by ``replace``
    (a frozen driver, a shifted obstacle, a reflecting twin) keeps them."""

    coefficients: Coefficients
    driver: Driver
    obstacle: ObstacleData
    T: float
    weight: Weight = field(default_factory=Weight)
    x_lo: float = -8.0
    x_hi: float = 8.0
    boundary_mode: str = "clamp-to-data"
    lcp_tol: float = DEFAULT_LCP_TOL
    inner_tol: float = DEFAULT_INNER_TOL
    max_inner: int = DEFAULT_MAX_INNER

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if not self.x_lo < self.x_hi:
            raise ValueError("need x_lo < x_hi")
        if self.boundary_mode not in ("clamp-to-data", "reflecting"):
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")


@dataclass(frozen=True)
class HypothesisEntry:
    name: str
    max_violation: float
    witness: tuple
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    entries: tuple[HypothesisEntry, ...]
    passed: bool


_REL_TOL = 1e-12
PROBE_T_RANGE = (0.0, 1.0)
PROBE_X_RANGE = (-8.0, 8.0)
PROBE_VALUE_SCALE = 4.0


_REAL_SCALARS = (float, int, np.floating, np.integer)


def _finite_or_raise(values, what, where):
    # scalar fast path: validate_hypotheses makes about 2000 single-probe calls
    if isinstance(values, _REAL_SCALARS) or (
            isinstance(values, np.ndarray) and values.ndim == 0 and values.dtype.kind in "biuf"):
        if math.isfinite(float(values)):
            return np.asarray(values, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        at = f" (index {np.argwhere(~np.isfinite(values))[0]})" if values.ndim else ""
        raise EvaluatorFailure(f"{what} is non-finite at probe {where}{at}")
    return values


def _rel_excess(lhs, rhs):
    """Relative amount by which lhs exceeds rhs (0 when lhs <= rhs)."""
    return np.maximum(lhs - rhs, 0.0) / (1.0 + np.abs(rhs))


def _scrambled_halton(n: int, seed: int) -> np.ndarray:
    """First n points of Owen's randomized Halton sequence in [0, 1)^4.

    Owen 2017, "A randomized Halton algorithm in R" (arXiv 1706.02808): in
    base b (2, 3, 5, 7), digit j of the point index is mapped through its own
    random permutation of range(b), for every j with b^-(j+1) > 2^-54.  The
    permutations, their order of drawing and the digit sum (the weight 1/b
    divided by b once per digit) follow scipy.stats.qmc.Halton(d=4, seed=seed),
    so the points are bit-identical to it.
    """
    rng = np.random.default_rng(seed)
    columns = []
    for base in (2, 3, 5, 7):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        value, rest, weight = np.zeros(n), np.arange(n), 1.0 / base
        for perm in perms:
            value += perm[rest % base] * weight
            rest //= base
            weight /= base
        columns.append(value)
    return np.column_stack(columns)


def _probe_points(spec: ObstacleProblemSpec, probe_count: int, seed: int):
    """Deterministic quasi-random probes in Q_T x value-space.

    The (y, z) box is scaled from the sampled data so moderate solution values
    are representative probes.
    """
    raw = _scrambled_halton(probe_count, seed)
    t = raw[:, 0] * spec.T
    x = spec.x_lo + raw[:, 1] * (spec.x_hi - spec.x_lo)
    phi_x = _finite_or_raise(spec.obstacle.phi(x), "phi", "probe grid")
    scale = 2.0 * (1.0 + float(np.max(np.abs(phi_x))))
    y = (2.0 * raw[:, 2] - 1.0) * scale
    z = (2.0 * raw[:, 3] - 1.0) * scale
    return t, x, y, z


def validate_hypotheses(spec: ObstacleProblemSpec, probe_count: int = 256, seed: int = 0) -> HypothesisReport:
    """Check ellipticity, the driver bounds, obstacle growth, and phi >= h(T, .)
    on a deterministic set of quasi-random probes.

    Returns a per-hypothesis report with the worst violation and its witness
    point; the report passes iff all relative violations are <= 1e-12.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    t, x, y, z = _probe_points(spec, probe_count, seed)
    coef, drv, obs = spec.coefficients, spec.driver, spec.obstacle
    entries = []

    def record(name, violations, witnesses):
        violations = np.asarray(violations, dtype=float)
        k = int(np.argmax(violations))
        entries.append(
            HypothesisEntry(
                name=name,
                max_violation=float(violations[k]),
                witness=tuple(float(w[k]) for w in witnesses),
                passed=bool(violations[k] <= _REL_TOL),
            )
        )

    a_vals = np.empty_like(x)
    for i in range(len(t)):
        a_vals[i] = _finite_or_raise(coef.a(t[i], x[i]), "a", (t[i], x[i]))
    viol = np.maximum(_rel_excess(coef.lambda_ell, a_vals), _rel_excess(a_vals, coef.Lambda_ell))
    record("ellipticity", viol, (t, x))

    lhat, lw = _lipschitz_scan(drv, t, x, y, z)
    lip_viol = _rel_excess(lhat, drv.L * (1.0 + 1e-9))
    record("driver-lipschitz", [lip_viol], ([lw[0]], [lw[1]]))

    f_vals = np.empty_like(x)
    g_vals = np.empty_like(x)
    for i in range(len(t)):
        f_vals[i] = _finite_or_raise(drv.f(t[i], x[i], y[i], z[i]), "f", (t[i], x[i], y[i], z[i]))
        g_vals[i] = _finite_or_raise(drv.g(t[i], x[i]), "g", (t[i], x[i]))
    bound = g_vals + drv.M_growth * (np.abs(y) + np.abs(z))
    record("driver-growth", _rel_excess(np.abs(f_vals), bound), (t, x, y, z))

    h_vals = np.empty_like(x)
    for i in range(len(t)):
        h_vals[i] = _finite_or_raise(obs.h(t[i], x[i]), "h", (t[i], x[i]))
    c_gr, beta = obs.h_growth
    record("obstacle-growth", _rel_excess(np.abs(h_vals), c_gr * (1.0 + x**2) ** beta), (t, x))

    phi_T = _finite_or_raise(obs.phi(x), "phi", "terminal probes")
    h_T = _finite_or_raise(obs.h(spec.T, x), "h(T, .)", "terminal probes")
    record("terminal-dominates-obstacle", _rel_excess(h_T, phi_T), (np.full_like(x, spec.T), x))

    return HypothesisReport(entries=tuple(entries), passed=all(e.passed for e in entries))


def _lipschitz_scan(driver: Driver, t, x, y, z):
    """Max of |df| / (|dy| + |dz|) over axis-aligned and mixed probe pairs."""
    best = 0.0
    witness = (0.0, 0.0)
    dy = 0.5 * (1.0 + np.max(np.abs(y)))
    for i in range(len(t)):
        f0 = float(np.asarray(_finite_or_raise(driver.f(t[i], x[i], y[i], z[i]), "f", i)))
        # axis-aligned pairs catch drivers whose worst direction is a single coordinate
        probes = ((y[i] + dy, z[i]), (y[i], z[i] + dy), (y[i] - dy, z[i] + dy))
        for yy, zz in probes:
            f1 = float(np.asarray(_finite_or_raise(driver.f(t[i], x[i], yy, zz), "f", i)))
            denom = abs(yy - y[i]) + abs(zz - z[i])
            ratio = abs(f1 - f0) / denom
            if ratio > best:
                best, witness = ratio, (t[i], x[i])
    return best, witness


def lipschitz_probe(driver: Driver, probe_count: int = 128, seed: int = 0) -> float:
    """Estimate the driver's Lipschitz constant in (y, z) by probing pairs.

    The estimate is the max of |df| / (|dy| + |dz|) over quasi-random base
    points and axis-aligned displacements, which attains the exact constant
    for drivers that are linear in (y, z).
    """
    if probe_count < 2:
        raise ValueError("probe_count must be >= 2")
    raw = _scrambled_halton(probe_count, seed)
    t = PROBE_T_RANGE[0] + raw[:, 0] * (PROBE_T_RANGE[1] - PROBE_T_RANGE[0])
    x = PROBE_X_RANGE[0] + raw[:, 1] * (PROBE_X_RANGE[1] - PROBE_X_RANGE[0])
    y = (2.0 * raw[:, 2] - 1.0) * PROBE_VALUE_SCALE
    z = (2.0 * raw[:, 3] - 1.0) * PROBE_VALUE_SCALE
    best, _ = _lipschitz_scan(driver, t, x, y, z)
    return best
