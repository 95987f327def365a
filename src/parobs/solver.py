"""Deterministic obstacle-problem solvers and their diagnostics.

Two routes solve the same discrete problem:

* ``solve_penalized``: backward implicit Euler for the stiff reaction
  approximation with penalty level n; the constraint force is the field
  r = n (u - h)^-.
* ``solve_psor``: backward implicit Euler where each step is the linear
  complementarity problem min(u - h, M u - b) = 0 solved by projected SOR;
  the constraint force is r = (M u - b) / dt on the contact set.

Both march on the truncated cylinder with Dirichlet clamp-to-data boundary
values max(h(t, x_b), phi(x_b)).  The reflection measure is represented by
the nonnegative cell density r with cell mass r dx dt; the continuum measure
need not be absolutely continuous, so weak (test-function) comparisons are
the honest ones and live in the verify module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InnerDivergence, LcpStall, MonotonicityViolation, NoContraction
from .grid import DiscreteOperator, SpaceTimeGrid, assemble_operator, solve_backward_step
from .problem import ObstacleProblemSpec, Weight

__all__ = [
    "PenalizedSolution",
    "ObstacleSolution",
    "PicardTrace",
    "PenalizationStudy",
    "AprioriReport",
    "StabilityReport",
    "obstacle_field",
    "terminal_field",
    "boundary_values",
    "central_gradient",
    "z_field",
    "frozen_driver_field",
    "solve_penalized",
    "as_obstacle_solution",
    "solve_unconstrained",
    "solve_psor",
    "penalization_study",
    "picard_outer",
    "contraction_gamma",
    "v_gamma_norm",
    "energy_identity_residual",
    "apriori_norm_report",
    "obstacle_stability",
    "obstacle_replacement_check",
]

DEFAULT_INNER_TOL = 1e-11
DEFAULT_LCP_TOL = 1e-10
DEFAULT_MONO_TOL = 1e-8
DEFAULT_OMEGA = 1.5


# ---------------------------------------------------------------------------
# grid fields

def obstacle_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> np.ndarray:
    h = np.empty((grid.nt + 1, grid.nx + 2))
    for k, t in enumerate(grid.t_nodes):
        h[k] = spec.obstacle.h(float(t), grid.x_nodes)
    return h


def terminal_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> np.ndarray:
    return np.asarray(spec.obstacle.phi(grid.x_nodes), dtype=float)


def boundary_values(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                    h_field: np.ndarray | None = None) -> np.ndarray:
    """Clamp-to-data Dirichlet values at the two truncation nodes, per slice."""
    if h_field is None:
        h_field = obstacle_field(spec, grid)
    phi = terminal_field(spec, grid)
    out = np.empty((grid.nt + 1, 2))
    out[:, 0] = np.maximum(h_field[:, 0], phi[0])
    out[:, 1] = np.maximum(h_field[:, -1], phi[-1])
    return out


def central_gradient(row: np.ndarray, dx: float) -> np.ndarray:
    """Central difference in the interior, one-sided at the boundary nodes."""
    g = np.empty_like(row)
    g[1:-1] = (row[2:] - row[:-2]) / (2.0 * dx)
    g[0] = (row[1] - row[0]) / dx
    g[-1] = (row[-1] - row[-2]) / dx
    return g


def _sigma_row(spec: ObstacleProblemSpec, t: float, x_nodes: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.sqrt(np.asarray(spec.coefficients.a(t, x_nodes), dtype=float)),
                           x_nodes.shape).astype(float)


def z_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, u: np.ndarray) -> np.ndarray:
    """sigma Du on every slice of a grid field u of shape (nt + 1, nx + 2)."""
    z = np.empty_like(u)
    for k, t in enumerate(grid.t_nodes):
        z[k] = _sigma_row(spec, float(t), grid.x_nodes) * central_gradient(u[k], grid.dx)
    return z


def _driver_row(spec: ObstacleProblemSpec, t: float, x_nodes: np.ndarray,
                u_row: np.ndarray, dx: float, driver_field_row=None) -> np.ndarray:
    """f(t, x, u, sigma Du) on all nodes; a frozen field row short-circuits."""
    if driver_field_row is not None:
        return driver_field_row
    z = _sigma_row(spec, t, x_nodes) * central_gradient(u_row, dx)
    return np.broadcast_to(np.asarray(spec.driver.f(t, x_nodes, u_row, z), dtype=float),
                           u_row.shape).astype(float)


# ---------------------------------------------------------------------------
# solutions

@dataclass
class PenalizedSolution:
    n_penalty: int
    u_values: np.ndarray       # (nt + 1, nx + 2)
    r_values: np.ndarray       # n (u - h)^-, same shape
    inner_iteration_counts: np.ndarray  # (nt,)


@dataclass
class ObstacleSolution:
    u_values: np.ndarray
    r_values: np.ndarray
    contact_mask: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PicardTrace:
    gamma: float
    distances: list
    ratios: list


@dataclass
class PenalizationStudy:
    n_levels: list
    sup_increments: np.ndarray
    norm_increments: np.ndarray
    monotone: bool
    distances_to_reference: np.ndarray | None = None


@dataclass
class AprioriReport:
    left: float
    right: float
    ratio: float


@dataclass
class StabilityReport:
    solution_distance: float
    obstacle_distance: float
    ratio: float
    passed: bool


def _contact_tol(spec: ObstacleProblemSpec, h_field: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(h_field))))


# ---------------------------------------------------------------------------
# penalized route

def solve_penalized(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_penalty: int,
                    inner_tol: float = DEFAULT_INNER_TOL, max_inner: int = 200,
                    driver_field: np.ndarray | None = None,
                    obstacle_field_override: np.ndarray | None = None) -> PenalizedSolution:
    """Backward implicit Euler for the penalized equation at level n.

    Each step solves (I - dt A) u_k = u_{k+1} + dt [f(t_k, ., u_k, sigma D u_k)
    + n (u_k - h_k)^-].  The stiff penalty is resolved implicitly on the
    current active set, which is the node-wise exact damping of the penalty
    term by 1 / (1 + dt n) and keeps the inner fixed point contractive for
    every n; only the driver lag limits dt.
    """
    if n_penalty < 1:
        raise ValueError("n_penalty must be >= 1")
    mode = spec.boundary_mode
    h_field = obstacle_field(spec, grid) if obstacle_field_override is None else obstacle_field_override
    bnd = boundary_values(spec, grid, h_field) if mode == "clamp-to-data" else None
    dt, nq = grid.dt, float(n_penalty)

    u = np.empty((grid.nt + 1, grid.nx + 2))
    u[grid.nt] = terminal_field(spec, grid)
    counts = np.zeros(grid.nt, dtype=int)
    blowup = 1e12 * (1.0 + float(np.max(np.abs(u[grid.nt]))) + float(np.max(np.abs(h_field))))

    for k in range(grid.nt - 1, -1, -1):
        op = assemble_operator(spec, grid, k)
        t = float(grid.t_nodes[k])
        h_row = h_field[k]
        v = u[k + 1].copy()
        if mode == "clamp-to-data":
            v[0], v[-1] = bnd[k]
        frow = None if driver_field is None else driver_field[k]
        for m in range(max_inner):
            fv = _driver_row(spec, t, grid.x_nodes, v, grid.dx, frow)
            active = (v < h_row).astype(float)
            rhs = u[k + 1] + dt * fv + dt * nq * h_row * active
            if mode == "clamp-to-data":
                active[0] = active[-1] = 0.0
                rhs[0], rhs[-1] = bnd[k]
            v_new = solve_backward_step(op, dt, rhs, extra_diag=dt * nq * active, mode=mode)
            diff = float(np.max(np.abs(v_new - v)))
            v = v_new
            if diff <= inner_tol:
                counts[k] = m + 1
                break
            if not np.isfinite(diff) or np.max(np.abs(v)) > blowup:
                raise InnerDivergence(
                    f"penalized inner iteration diverged at step {k} (n = {n_penalty})")
        else:
            raise InnerDivergence(
                f"penalized inner iteration did not converge within {max_inner} iterations "
                f"at step {k} (n = {n_penalty}); reduce dt relative to L and n")
        u[k] = v

    r = nq * np.maximum(h_field - u, 0.0)
    return PenalizedSolution(n_penalty=n_penalty, u_values=u, r_values=r,
                             inner_iteration_counts=counts)


def as_obstacle_solution(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                         pen: PenalizedSolution) -> ObstacleSolution:
    """View a penalized solve as an obstacle solution (for exports and checks)."""
    h_field = obstacle_field(spec, grid)
    return ObstacleSolution(
        u_values=pen.u_values, r_values=pen.r_values,
        contact_mask=h_field - pen.u_values >= -_contact_tol(spec, h_field),
        method="penalized",
        diagnostics={"n_penalty": pen.n_penalty, "h_field": h_field,
                     "inner_iteration_counts": pen.inner_iteration_counts},
    )


def solve_unconstrained(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                        inner_tol: float = DEFAULT_INNER_TOL, max_inner: int = 200,
                        driver_field: np.ndarray | None = None) -> np.ndarray:
    """Plain implicit stepping for the Cauchy problem (no obstacle).

    Under clamp-to-data the boundary follows the terminal data extension.
    """
    mode = spec.boundary_mode
    dt = grid.dt
    phi = terminal_field(spec, grid)
    u = np.empty((grid.nt + 1, grid.nx + 2))
    u[grid.nt] = phi
    for k in range(grid.nt - 1, -1, -1):
        op = assemble_operator(spec, grid, k)
        t = float(grid.t_nodes[k])
        v = u[k + 1].copy()
        if mode == "clamp-to-data":
            v[0], v[-1] = phi[0], phi[-1]
        frow = None if driver_field is None else driver_field[k]
        for m in range(max_inner):
            fv = _driver_row(spec, t, grid.x_nodes, v, grid.dx, frow)
            rhs = u[k + 1] + dt * fv
            if mode == "clamp-to-data":
                rhs[0], rhs[-1] = phi[0], phi[-1]
            v_new = solve_backward_step(op, dt, rhs, mode=mode)
            diff = float(np.max(np.abs(v_new - v)))
            v = v_new
            if diff <= inner_tol:
                break
        else:
            raise InnerDivergence(f"unconstrained step {k} did not converge")
        u[k] = v
    return u


# ---------------------------------------------------------------------------
# PSOR route

def _psor_step(op: DiscreteOperator, dt: float, b: np.ndarray, h_row: np.ndarray,
               v0: np.ndarray, bnd_lo: float, bnd_hi: float, omega: float,
               lcp_tol: float, max_sweeps: int, stall_window: int):
    """Solve min(v - h, M v - b) = 0, M = I - dt A, by red-black projected SOR.

    ``b`` and ``h_row`` are interior vectors; returns (full field, sweeps).
    """
    nx = b.size
    dmat = 1.0 - dt * op.diag
    lo = -dt * op.lower
    up = -dt * op.upper
    vp = np.empty(nx + 2)
    vp[0], vp[-1] = bnd_lo, bnd_hi
    vp[1:-1] = np.maximum(h_row, v0)

    even = np.arange(2, nx + 1, 2)  # full-grid interior indices
    odd = np.arange(1, nx + 1, 2)

    def sweep_color(idx):
        rel = idx - 1
        gs = (b[rel] - lo[rel] * vp[idx - 1] - up[rel] * vp[idx + 1]) / dmat[rel]
        vp[idx] = np.maximum(h_row[rel], vp[idx] + omega * (gs - vp[idx]))

    best = np.inf
    since_best = 0
    for sweep in range(1, max_sweeps + 1):
        sweep_color(odd)
        sweep_color(even)
        mv = dmat * vp[1:-1] + lo * vp[:-2] + up * vp[2:]
        res = float(np.max(np.abs(np.minimum(vp[1:-1] - h_row, mv - b))))
        if res <= lcp_tol:
            return vp, sweep
        if res < best * (1.0 - 1e-3):
            best, since_best = res, 0
        else:
            since_best += 1
            if since_best >= stall_window:
                raise LcpStall(
                    f"PSOR residual plateaued at {res:.3e} > lcp_tol {lcp_tol:.1e}")
    raise LcpStall(f"PSOR exceeded {max_sweeps} sweeps (residual {res:.3e})")


def _psor_step_full(op: DiscreteOperator, dt: float, b: np.ndarray, h_row: np.ndarray,
                    v0: np.ndarray, omega: float, lcp_tol: float, max_sweeps: int,
                    stall_window: int):
    """Red-black projected SOR with zero-flux rows: all nodes are unknowns."""
    n = b.size
    dmat = np.empty(n)
    dmat[1:-1] = 1.0 - dt * op.diag
    dmat[0] = 1.0 + dt * op.lower[0]
    dmat[-1] = 1.0 + dt * op.upper[-1]
    L = np.zeros(n)
    U = np.zeros(n)
    L[1:-1] = -dt * op.lower
    L[-1] = -dt * op.upper[-1]
    U[1:-1] = -dt * op.upper
    U[0] = -dt * op.lower[0]
    v = np.maximum(h_row, v0)

    def neighbors():
        left = np.empty(n)
        left[1:] = v[:-1]
        left[0] = 0.0
        right = np.empty(n)
        right[:-1] = v[1:]
        right[-1] = 0.0
        return left, right

    colors = (np.arange(1, n, 2), np.arange(0, n, 2))
    best = np.inf
    since_best = 0
    for sweep in range(1, max_sweeps + 1):
        for idx in colors:
            left, right = neighbors()
            gs = (b[idx] - L[idx] * left[idx] - U[idx] * right[idx]) / dmat[idx]
            v[idx] = np.maximum(h_row[idx], v[idx] + omega * (gs - v[idx]))
        left, right = neighbors()
        mv = dmat * v + L * left + U * right
        res = float(np.max(np.abs(np.minimum(v - h_row, mv - b))))
        if res <= lcp_tol:
            return v, sweep
        if res < best * (1.0 - 1e-3):
            best, since_best = res, 0
        else:
            since_best += 1
            if since_best >= stall_window:
                raise LcpStall(f"PSOR residual plateaued at {res:.3e} > lcp_tol {lcp_tol:.1e}")
    raise LcpStall(f"PSOR exceeded {max_sweeps} sweeps (residual {res:.3e})")


def solve_psor(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
               lcp_tol: float = DEFAULT_LCP_TOL, omega: float = DEFAULT_OMEGA,
               max_sweeps: int = 50_000, stall_window: int = 500,
               refine_tol: float = 1e-11, max_refine: int = 50,
               driver_field: np.ndarray | None = None,
               obstacle_field_override: np.ndarray | None = None) -> ObstacleSolution:
    """Backward stepping with a projected-SOR linear complementarity solve per step.

    The driver is lagged and Picard-refined within each step whenever it
    actually depends on (y, z).  The measure density is r = (M u - b) / dt on
    the contact set and exactly zero off it.
    """
    mode = spec.boundary_mode
    h_field = obstacle_field(spec, grid) if obstacle_field_override is None else obstacle_field_override
    bnd = boundary_values(spec, grid, h_field) if mode == "clamp-to-data" else None
    dt = grid.dt
    ctol = _contact_tol(spec, h_field)

    u = np.empty((grid.nt + 1, grid.nx + 2))
    r = np.zeros_like(u)
    contact = np.zeros(u.shape, dtype=bool)
    u[grid.nt] = terminal_field(spec, grid)
    contact[grid.nt] = u[grid.nt] - h_field[grid.nt] <= ctol
    sweep_counts = np.zeros(grid.nt, dtype=int)
    refine_counts = np.zeros(grid.nt, dtype=int)
    needs_refine = spec.driver.L > 0 and driver_field is None

    for k in range(grid.nt - 1, -1, -1):
        op = assemble_operator(spec, grid, k)
        t = float(grid.t_nodes[k])
        frow = None if driver_field is None else driver_field[k]
        v = u[k + 1].copy()
        if mode == "clamp-to-data":
            v[0], v[-1] = bnd[k]
        for refine in range(max_refine):
            fv = _driver_row(spec, t, grid.x_nodes, v, grid.dx, frow)
            if mode == "clamp-to-data":
                b = u[k + 1, 1:-1] + dt * fv[1:-1]
                vp, sweeps = _psor_step(op, dt, b, h_field[k, 1:-1], v[1:-1],
                                        bnd[k, 0], bnd[k, 1], omega, lcp_tol,
                                        max_sweeps, stall_window)
            else:
                b = u[k + 1] + dt * fv
                vp, sweeps = _psor_step_full(op, dt, b, h_field[k], v, omega,
                                             lcp_tol, max_sweeps, stall_window)
            sweep_counts[k] += sweeps
            change = float(np.max(np.abs(vp - v)))
            v = vp
            if not needs_refine or change <= refine_tol:
                refine_counts[k] = refine + 1
                break
        else:
            raise InnerDivergence(f"driver refinement did not settle at step {k}")
        u[k] = v
        # residual-based measure density on the binding set; the support uses
        # the tighter lcp_tol so that min(u - h, r) stays below lcp_tol even
        # though r carries a 1/dt amplification of the step residual
        fv = _driver_row(spec, t, grid.x_nodes, v, grid.dx, frow)
        b = u[k + 1, 1:-1] + dt * fv[1:-1]
        dmat = 1.0 - dt * op.diag
        mv = dmat * v[1:-1] - dt * op.lower * v[:-2] - dt * op.upper * v[2:]
        binding = v[1:-1] - h_field[k, 1:-1] <= lcp_tol
        r[k, 1:-1] = np.where(binding, np.maximum(mv - b, 0.0) / dt, 0.0)
        contact[k, 1:-1] = v[1:-1] - h_field[k, 1:-1] <= ctol
        contact[k, 0] = u[k, 0] - h_field[k, 0] <= ctol
        contact[k, -1] = u[k, -1] - h_field[k, -1] <= ctol

    return ObstacleSolution(
        u_values=u, r_values=r, contact_mask=contact, method="psor",
        diagnostics={
            "sweep_counts": sweep_counts,
            "refine_counts": refine_counts,
            "lcp_tol": lcp_tol,
            "contact_tol": ctol,
            "h_field": h_field,
        },
    )


# ---------------------------------------------------------------------------
# penalization schedule

def weighted_l2_sq(grid: SpaceTimeGrid, weight: Weight, row: np.ndarray) -> float:
    rho2 = weight.rho(grid.x_nodes) ** 2
    return float(np.sum(row**2 * rho2) * grid.dx)


def weighted_grad_sq(grid: SpaceTimeGrid, weight: Weight, row: np.ndarray) -> float:
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])
    rho2 = weight.rho(mid) ** 2
    g = np.diff(row) / grid.dx
    return float(np.sum(g**2 * rho2) * grid.dx)


def _space_time_norm(grid: SpaceTimeGrid, weight: Weight, fld: np.ndarray) -> float:
    total = 0.0
    for k in range(grid.nt + 1):
        total += (weighted_l2_sq(grid, weight, fld[k]) + weighted_grad_sq(grid, weight, fld[k])) * grid.dt
    return float(np.sqrt(total))


def penalization_study(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_schedule,
                       mono_tol: float = DEFAULT_MONO_TOL,
                       inner_tol: float = DEFAULT_INNER_TOL,
                       reference: ObstacleSolution | None = None):
    """Run the penalty schedule, assert nodewise monotone increase, return the limit.

    The schedule must be strictly increasing.  If a level produces an exactly
    inactive penalty (r = 0) the study short-circuits: all later levels solve
    the same unconstrained problem.  With a ``reference`` solution the study
    also records each level's sup distance to it.
    """
    n_schedule = [int(n) for n in n_schedule]
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    h_field = obstacle_field(spec, grid)
    levels, sups, norms, dists = [], [], [], []
    prev = None
    last = None
    for n in n_schedule:
        sol = solve_penalized(spec, grid, n, inner_tol=inner_tol)
        levels.append(n)
        if reference is not None:
            dists.append(float(np.max(np.abs(sol.u_values - reference.u_values))))
        if prev is not None:
            delta = sol.u_values - prev.u_values
            worst = float(delta.min())
            if worst < -mono_tol:
                k, i = np.unravel_index(int(np.argmin(delta)), delta.shape)
                raise MonotonicityViolation(
                    f"u_n decreased by {-worst:.3e} at t = {grid.t_nodes[k]:.6g}, "
                    f"x = {grid.x_nodes[i]:.6g} between n = {prev.n_penalty} and n = {n}; "
                    f"inner_tol may be too loose")
            sups.append(float(np.max(np.abs(delta))))
            norms.append(_space_time_norm(grid, spec.weight, delta))
        prev = sol
        last = sol
        if float(np.max(sol.r_values)) == 0.0:
            break

    ctol = _contact_tol(spec, h_field)
    limit = ObstacleSolution(
        u_values=last.u_values, r_values=last.r_values,
        contact_mask=h_field - last.u_values >= -ctol,
        method="penalized-limit",
        diagnostics={"n_final": last.n_penalty,
                     "inner_iteration_counts": last.inner_iteration_counts,
                     "h_field": h_field},
    )
    study = PenalizationStudy(
        n_levels=levels,
        sup_increments=np.asarray(sups), norm_increments=np.asarray(norms),
        monotone=True,
        distances_to_reference=np.asarray(dists) if reference is not None else None,
    )
    return limit, study


# ---------------------------------------------------------------------------
# Picard outer loop

def contraction_gamma(spec: ObstacleProblemSpec) -> float:
    """Weight exponent making the frozen-driver map a strict contraction."""
    lam = spec.coefficients.lambda_ell
    big = spec.coefficients.Lambda_ell
    L = spec.driver.L
    return 1.0 + 4.0 * L**2 + 8.0 * big**2 * L**2 / lam + big / (2.0 * lam)


def v_gamma_norm(grid: SpaceTimeGrid, weight: Weight, fld: np.ndarray, gamma: float,
                 lam: float) -> float:
    """Exponentially weighted solution norm: sup-in-time of the weighted L2
    norm plus the space-time weighted L2 norms of the field and its gradient,
    all under the multiplier e^{gamma t}."""
    wk = np.exp(gamma * grid.t_nodes)
    sup_term = 0.0
    l2_term = 0.0
    grad_term = 0.0
    for k in range(grid.nt + 1):
        sl = weighted_l2_sq(grid, weight, fld[k])
        sup_term = max(sup_term, wk[k] * sl)
        l2_term += wk[k] * sl * grid.dt
        grad_term += wk[k] * weighted_grad_sq(grid, weight, fld[k]) * grid.dt
    return float(np.sqrt(sup_term + l2_term + 0.5 * lam * grad_term))


def frozen_driver_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                        u: np.ndarray) -> np.ndarray:
    """f(t, x, u, sigma Du) on every slice of a grid field u."""
    z = z_field(spec, grid, u)
    out = np.empty_like(u)
    for k, t in enumerate(grid.t_nodes):
        out[k] = spec.driver.f(float(t), grid.x_nodes, u[k], z[k])
    return out


def picard_outer(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, inner: str = "psor",
                 max_outer: int = 50, outer_tol: float = 1e-8,
                 n_penalty: int = 2**12):
    """Iterate v -> solution of the linear obstacle problem with frozen driver.

    Distances between consecutive iterates are measured in the e^{gamma t}
    weighted norm with the contraction exponent from ``contraction_gamma``.
    Drivers with L = 0 need one pass and produce an empty trace.
    """
    if inner not in ("psor", "penalized"):
        raise ValueError(f"unknown inner solver {inner!r}")

    def run_inner(driver_field):
        if inner == "psor":
            return solve_psor(spec, grid, driver_field=driver_field)
        return as_obstacle_solution(
            spec, grid, solve_penalized(spec, grid, n_penalty, driver_field=driver_field))

    gamma = contraction_gamma(spec)
    lam = spec.coefficients.lambda_ell
    if spec.driver.L == 0.0:
        zero = np.zeros((grid.nt + 1, grid.nx + 2))
        sol = run_inner(frozen_driver_field(spec, grid, zero))
        return sol, PicardTrace(gamma=gamma, distances=[], ratios=[])

    v = np.zeros((grid.nt + 1, grid.nx + 2))
    distances, ratios = [], []
    expanding = 0
    sol = None
    for it in range(max_outer):
        sol = run_inner(frozen_driver_field(spec, grid, v))
        d = v_gamma_norm(grid, spec.weight, sol.u_values - v, gamma, lam)
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0:
            ratio = d / distances[-2]
            ratios.append(ratio)
            expanding = expanding + 1 if ratio > 1.0 else 0
            if expanding >= 3:
                raise NoContraction(
                    f"outer ratios exceeded 1 for 3 consecutive iterations (last {ratio:.3f}); "
                    f"grid too coarse for declared L, lambda, Lambda")
        v = sol.u_values
        if d <= outer_tol:
            break
    else:
        raise NoContraction(f"picard outer loop did not reach {outer_tol} in {max_outer} iterations")
    trace = PicardTrace(gamma=gamma, distances=distances, ratios=ratios)
    return sol, trace


# ---------------------------------------------------------------------------
# identities and estimates

def energy_identity_residual(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                             sol: ObstacleSolution, cutoff: np.ndarray) -> np.ndarray:
    """Per-time residual of the localized energy identity.

    The spatial pairing uses the exact discrete summation by parts of the
    flux-form operator, so the residual isolates the time-quadrature error and
    vanishes at the rate O(dt) under refinement.
    """
    xi = np.asarray(cutoff, dtype=float)
    if xi.shape != grid.x_nodes.shape:
        raise ValueError("cutoff must be a spatial grid field")
    if xi[0] != 0.0 or xi[-1] != 0.0:
        raise ValueError("cutoff must be compactly supported inside the truncation")
    u = sol.u_values
    r = sol.r_values
    xi2 = xi**2
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])
    phi = u[grid.nt]
    phi_term = float(np.sum(phi**2 * xi2) * grid.dx)

    increments = np.zeros(grid.nt)
    for k in range(grid.nt):
        t = float(grid.t_nodes[k])
        a_mid = np.broadcast_to(np.asarray(spec.coefficients.a(t, mid), dtype=float), mid.shape)
        du = np.diff(u[k]) / grid.dx
        dweighted = np.diff(u[k] * xi2) / grid.dx
        grad_term = float(np.sum(a_mid * du * dweighted) * grid.dx)
        fv = _driver_row(spec, t, grid.x_nodes, u[k], grid.dx)
        f_term = 2.0 * float(np.sum(fv * u[k] * xi2) * grid.dx)
        mu_term = 2.0 * float(np.sum(r[k] * u[k] * xi2) * grid.dx)
        increments[k] = (grad_term - f_term - mu_term) * grid.dt

    residual = np.zeros(grid.nt + 1)
    tail = 0.0
    for k in range(grid.nt - 1, -1, -1):
        tail += increments[k]
        residual[k] = float(np.sum(u[k]**2 * xi2) * grid.dx) - phi_term + tail
    return residual


def apriori_norm_report(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                        sol: ObstacleSolution, weight: Weight,
                        dominating_p: np.ndarray) -> AprioriReport:
    """Both sides of the weighted a priori estimate, without the unknown constant.

    ``dominating_p`` is any field whose positive part dominates u on the
    support of the measure; it enters only through p^+.
    """
    u, r = sol.u_values, sol.r_values
    p_plus = np.maximum(np.asarray(dominating_p, dtype=float), 0.0)
    rho2 = weight.rho(grid.x_nodes) ** 2

    sup_u = max(weighted_l2_sq(grid, weight, u[k]) for k in range(grid.nt + 1))
    grad_u = sum(weighted_grad_sq(grid, weight, u[k]) * grid.dt for k in range(grid.nt + 1))
    mu_term = float(sum(np.sum(np.abs(u[k]) * rho2 * r[k]) * grid.dx * grid.dt
                        for k in range(grid.nt + 1)))
    left = sup_u + grad_u + mu_term

    phi = u[grid.nt]
    sup_p = max(weighted_l2_sq(grid, weight, p_plus[k]) for k in range(grid.nt + 1))
    right = weighted_l2_sq(grid, weight, phi) + sup_p
    for k in range(grid.nt):
        dpdt = (p_plus[k + 1] - p_plus[k]) / grid.dt
        g_row = np.broadcast_to(
            np.asarray(spec.driver.g(float(grid.t_nodes[k]), grid.x_nodes), dtype=float),
            grid.x_nodes.shape)
        right += (weighted_l2_sq(grid, weight, dpdt)
                  + weighted_grad_sq(grid, weight, p_plus[k])
                  + weighted_l2_sq(grid, weight, g_row)) * grid.dt

    if right > 0:
        ratio = left / right
    else:
        ratio = 0.0 if left == 0.0 else float("inf")
    return AprioriReport(left=float(left), right=float(right), ratio=float(ratio))


def obstacle_stability(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, h1, h2,
                       delta: float = 0.0, stability_C: float = 3.0) -> StabilityReport:
    """Sup-norm solution distance against sup-norm obstacle distance (PSOR both).

    Both obstacles must stay below the terminal value at T.
    """
    phi = terminal_field(spec, grid)
    fields = []
    for h_eval in (h1, h2):
        hf = np.empty((grid.nt + 1, grid.nx + 2))
        for k, t in enumerate(grid.t_nodes):
            hf[k] = h_eval(float(t), grid.x_nodes)
        if np.max(hf[grid.nt] - phi) > 1e-12 * (1.0 + np.max(np.abs(phi))):
            raise ValueError("obstacle exceeds the terminal value at T")
        fields.append(hf)
    sols = [solve_psor(spec, grid, obstacle_field_override=hf) for hf in fields]
    k_max = int(np.searchsorted(grid.t_nodes, spec.T - delta + 1e-12, side="right"))
    du = float(np.max(np.abs(sols[0].u_values[:k_max] - sols[1].u_values[:k_max])))
    dh = float(np.max(np.abs(fields[0][:k_max] - fields[1][:k_max])))
    if dh == 0.0:
        ratio = 0.0 if du == 0.0 else float("inf")
    else:
        ratio = du / dh
    return StabilityReport(solution_distance=du, obstacle_distance=dh, ratio=ratio,
                           passed=bool(ratio <= stability_C))


def obstacle_replacement_check(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> float:
    """Max nodewise gap between the solutions with obstacles h and h v u_free,
    where u_free solves the unconstrained problem (both gaps vanish in the
    continuum)."""
    u_free = solve_unconstrained(spec, grid)
    h_field = obstacle_field(spec, grid)
    sol_h = solve_psor(spec, grid, obstacle_field_override=h_field)
    sol_max = solve_psor(spec, grid, obstacle_field_override=np.maximum(h_field, u_free))
    return float(np.max(np.abs(sol_h.u_values - sol_max.u_values)))
