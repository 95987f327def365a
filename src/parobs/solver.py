"""Deterministic obstacle-problem solvers and their diagnostics.

Two routes solve the same discrete problem:

* ``solve_penalized``: backward implicit Euler for the stiff reaction
  approximation with penalty level n; the constraint force is the field
  r = n (u - h)^-.
* ``solve_psor``: backward implicit Euler where each step is the linear
  complementarity problem min(u - h, M u - b) = 0, M = I - dt A, solved
  exactly by an active-set (policy-iteration) step that ends within
  nx + 3 banded solves; the constraint force is r = (M u - b) / dt on the
  contact set.

Both run on one backward marcher (``_march``) that owns the time loop, the
clamp-to-data boundary values max(h(t, x_b), phi(x_b)), the lagged-driver
fixed point within each step and the divergence guard.  It carries a leading
level axis: the levels of a penalty ladder march in lockstep, sharing each
step's kernel and sigma row, and a level whose step has ended is frozen
while the others iterate, so every level is bit for bit its lone march; a
single solve is a ladder of one.  ``penalization_study`` and
``verify.check_minimality`` march their whole schedules together and fold
each slice as it comes, holding no level's field.  The step object is the
grid's implicit ``transition_kernel``, the banded M = I - dt A that is also
the chain's transition law, built once per march when a(t, x) returns a
constant scalar; the routes differ only in what they do with it per iterate:
``solve_backward_step`` with one penalty diagonal per level, all levels in
one block-diagonal LAPACK call, or ``_lcp_step`` on ``kern.bands``; each
banded solve is the grid's ``_tridiagonal_solve``.  ``sigma_du`` forms sigma
Du on a grid row: the sigma row sqrt(a(t, x)) (``_sigma_row``) times
``central_gradient``.  Loops that need several rows at one t (the marcher's
inner iterates, the chain-dp step) take the sigma row once per step.
Every solve stops at the tolerances of the spec it is given (``lcp_tol``,
``inner_tol``, ``max_inner``).  ``PICARD_MAX_OUTER`` and
``PICARD_OUTER_TOL`` end ``picard_outer``, and ``STABILITY_C`` is the
distance ratio ``obstacle_stability`` passes.  Both solve specs of their own,
made by ``replace`` and so keeping those tolerances: the driver frozen along
an iterate (``frozen_driver``), the obstacle replaced.

The reflection measure is represented by the nonnegative cell density r with
cell mass r dx dt; the continuum measure need not be absolutely continuous, so
weak (test-function) comparisons are the honest ones and live in the verify
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InnerDivergence, LcpStall, MonotonicityViolation, NoContraction
from .grid import (SpaceTimeGrid, _banded_matvec, _full_row, _step_kernels, _tridiagonal_solve,
                   solve_backward_step)
# DEFAULT_LCP_TOL is read here by the benchmark's output gates and the tests
from .problem import DEFAULT_LCP_TOL, Driver, ObstacleProblemSpec, Weight  # noqa: F401

__all__ = [
    "PenalizedSolution",
    "ObstacleSolution",
    "PicardTrace",
    "PenalizationStudy",
    "StabilityReport",
    "obstacle_field",
    "terminal_field",
    "boundary_values",
    "central_gradient",
    "sigma_du",
    "z_field",
    "frozen_driver",
    "solve_penalized",
    "as_obstacle_solution",
    "solve_psor",
    "penalization_study",
    "picard_outer",
    "contraction_gamma",
    "v_gamma_norm",
    "obstacle_stability",
]

DEFAULT_MONO_TOL = 1e-8
PICARD_MAX_OUTER = 50
PICARD_OUTER_TOL = 1e-8
STABILITY_C = 3.0


# ---------------------------------------------------------------------------
# grid fields

def obstacle_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> np.ndarray:
    """The obstacle h(t, x) on every grid slice."""
    out = np.empty((grid.nt + 1, grid.nx + 2))
    for k, t in enumerate(grid.t_nodes):
        out[k] = spec.obstacle.h(float(t), grid.x_nodes)
    return out


def terminal_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> np.ndarray:
    return np.asarray(spec.obstacle.phi(grid.x_nodes), dtype=float)


def boundary_values(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                    h_field: np.ndarray) -> np.ndarray:
    """Clamp-to-data Dirichlet values at the two truncation nodes, per slice:
    max(h, phi), ``h_field`` the obstacle on every slice."""
    phi = np.tile(terminal_field(spec, grid)[[0, -1]], (grid.nt + 1, 1))
    return np.maximum(h_field[:, [0, -1]], phi)


def central_gradient(row: np.ndarray, dx: float) -> np.ndarray:
    """Central difference in the interior, one-sided at the boundary nodes,
    along the last axis (a row, or a stack of rows)."""
    g = np.empty_like(row)
    g[..., 1:-1] = (row[..., 2:] - row[..., :-2]) / (2.0 * dx)
    g[..., 0] = (row[..., 1] - row[..., 0]) / dx
    g[..., -1] = (row[..., -1] - row[..., -2]) / dx
    return g


def _sigma_row(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t: float) -> np.ndarray:
    """sigma = sqrt(a(t, x)) on all nodes."""
    a = np.asarray(spec.coefficients.a(t, grid.x_nodes), dtype=float)
    return _full_row(np.sqrt(a), grid.x_nodes.shape)


def sigma_du(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t: float,
             row: np.ndarray) -> np.ndarray:
    """sigma Du at time t on one grid row: ``_sigma_row`` times ``central_gradient``.

    A loop that forms several rows at one t takes ``_sigma_row`` once and
    multiplies it by each row's ``central_gradient``: the same product.
    """
    return _sigma_row(spec, grid, t) * central_gradient(row, grid.dx)


def z_field(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, u: np.ndarray) -> np.ndarray:
    """sigma Du on every slice of a grid field u of shape (nt + 1, nx + 2)."""
    z = np.empty_like(u)
    for k, t in enumerate(grid.t_nodes):
        z[k] = sigma_du(spec, grid, float(t), u[k])
    return z


def _driver_row(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t: float,
                u_row: np.ndarray, sigma: np.ndarray | None) -> np.ndarray:
    """f(t, x, u, sigma Du) on all nodes, ``sigma`` the ``_sigma_row`` at t, or
    None for a driver with L = 0, free of (y, z), which is given z = 0; on a
    stack of rows u, one evaluation of f for all of them."""
    z = 0.0 if sigma is None else sigma * central_gradient(u_row, grid.dx)
    return _full_row(spec.driver.f(t, grid.x_nodes, u_row, z), u_row.shape)


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
    distances_to_reference: np.ndarray


@dataclass
class StabilityReport:
    solution_distance: float
    obstacle_distance: float
    ratio: float
    passed: bool


def _contact_tol(spec: ObstacleProblemSpec, h_field: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(h_field))))


# ---------------------------------------------------------------------------
# one backward marcher

def _abs_max(a: np.ndarray) -> float:
    """max |a|, exactly, without the ``np.abs`` temporary."""
    return max(float(a.max()), -float(a.min()))


def _diverged(label: str, level: int, what: str) -> InnerDivergence:
    err = InnerDivergence(f"{label} {what}")
    err.level = level
    return err


def _march(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, solve, labels, h_field: np.ndarray):
    """Backward implicit Euler from u(T) = phi with the driver lagged in each
    step, for a ladder of levels (one per entry of ``labels``) in lockstep,
    ``h_field`` the obstacle on every slice.

    Row l of an iterate belongs to level l.  ``solve(k, kern, b, v, rows)``
    maps the step's implicit kernel, the iterates v of the levels ``rows``
    and their b = u_{k+1} + dt f(t_k, ., v, sigma D v), whose edge entries
    hold the clamp-to-data values, to (next iterates, final): ``final``, per
    level or one flag for all, says that the route knows its next solve would
    return the row unchanged.  A level's step ends when its iterate moves by
    at most the spec's ``inner_tol`` or its row is final, within the spec's
    ``max_inner`` solves, and the row it has is accepted; the level is then
    frozen while the others iterate, so each level's arithmetic and solve
    count are those of its lone march.  The levels of a step share one
    kernel (``grid._step_kernels``: one per march for a constant a) and one
    sigma row, none when L = 0; their driver rows and right-hand sides are
    formed together.

    Yields (k, u_k, its_k) for k = nt .. 0: the slice of each live level and
    the solves it made in step k (zeros at k = nt).  No field is held.  A level
    that diverges stops with every later level, so the live levels are a
    leading run of the ladder; the first diverged level's ``InnerDivergence``,
    its ``level`` attribute set, is raised when no level is left or after
    slice 0, as a level-by-level run would raise first.
    """
    dt, inner_tol, max_inner = grid.dt, spec.inner_tol, spec.max_inner
    u_next = np.tile(terminal_field(spec, grid), (len(labels), 1))
    bnd = boundary_values(spec, grid, h_field) if spec.boundary_mode == "clamp-to-data" else None
    scale = 1.0 + _abs_max(u_next[0]) + _abs_max(h_field)
    blowup = 1e12 * scale  # an iterate above it has diverged
    error = None
    yield grid.nt, u_next, np.zeros(len(labels), dtype=int)

    for k, t, kern in _step_kernels(spec, grid):
        sigma = _sigma_row(spec, grid, t) if spec.driver.L > 0.0 else None
        live = len(u_next)
        v = u_next.copy()
        if bnd is not None:
            v[:, 0], v[:, -1] = bnd[k]
        its = np.zeros(live, dtype=int)
        # the levels still iterating in this step, their iterates and u_{k+1}
        rows, cur, base = np.arange(live), v, u_next
        for m in range(max_inner):
            b = base + dt * _driver_row(spec, grid, t, cur, sigma)
            if bnd is not None:
                b[:, 0], b[:, -1] = bnd[k]
            new, final = solve(k, kern, b, cur, rows)
            diff = np.abs(new - cur).max(axis=1)
            bad = ~np.isfinite(diff) | (np.abs(new).max(axis=1) > blowup)
            done = (diff <= inner_tol) | final
            cur = new
            if not (bad.any() or done.any()):
                continue
            done &= ~bad
            v[rows[done]] = new[done]
            its[rows[done]] = m + 1
            if bad.any():
                live = int(rows[bad][0])
                error = _diverged(labels[live], live, f"diverged at step {k}")
            keep = ~done & ~bad & (rows < live)
            rows, cur, base = rows[keep], new[keep], base[keep]
            if not rows.size:
                break
        else:
            live = int(rows[0])
            error = _diverged(labels[live], live, f"did not converge within {max_inner} "
                              f"iterations at step {k}; reduce dt relative to L")
        if not live:
            raise error
        u_next = v[:live]
        yield k, u_next, its[:live]
    if error is not None:
        raise error


def _one_level(march, grid: SpaceTimeGrid):
    """The field and the per-step iteration counts of a one-level march."""
    u = np.empty((grid.nt + 1, grid.nx + 2))
    counts = np.zeros(grid.nt, dtype=int)
    for k, rows, its in march:
        u[k] = rows[0]
        if k < grid.nt:
            counts[k] = its[0]
    return u, counts


# ---------------------------------------------------------------------------
# penalized route

def _finite_level(n) -> float:
    """Penalty level n as a float; ``ValueError`` below 1 or past float range."""
    if n < 1:
        raise ValueError("n_penalty must be >= 1")
    try:
        level = float(n)
    except OverflowError:
        level = np.inf
    if not np.isfinite(level):
        raise ValueError(f"penalty level n = {n} is not a finite float")
    return level


def _penalized_march(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_levels,
                     h_field: np.ndarray):
    """``_march`` of the penalized step for the penalty levels ``n_levels``
    in lockstep, ``h_field`` the obstacle on every slice.  A level below 1
    or not a finite float raises ``ValueError`` before any step.

    A solve reads its iterate v through b and the active set {v < h}, the
    clamp-to-data edge nodes excluded.  With L = 0, b does not depend on v,
    so a row whose active set is the one its solve used is final: the next
    solve would return it bit for bit (Forsyth and Vetzal 2002).  With
    L > 0 no row is final before it moves by at most the spec's
    ``inner_tol``, and no set is compared."""
    dtn = grid.dt * np.array([_finite_level(n) for n in n_levels])[:, None]
    repeats = spec.driver.L <= 0.0

    def active_set(v, k):
        active = v < h_field[k]
        if spec.boundary_mode == "clamp-to-data":
            active[:, 0] = active[:, -1] = False
        return active

    def penalized(k, kern, b, v, rows):
        active = active_set(v, k)
        dtn_rows = dtn[rows]
        new = solve_backward_step(kern, b + dtn_rows * h_field[k] * active, dtn_rows * active)
        return new, repeats and (active_set(new, k) == active).all(axis=1)

    return _march(spec, grid, penalized, [f"penalized inner iteration (n = {n})" for n in n_levels],
                  h_field)


def solve_penalized(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                    n_penalty: int) -> PenalizedSolution:
    """Backward implicit Euler for the penalized equation at level n.

    Each step solves (I - dt A) u_k = u_{k+1} + dt [f(t_k, ., u_k, sigma D u_k)
    + n (u_k - h_k)^-].  The stiff penalty is resolved implicitly on the
    current active set, which is the node-wise exact damping of the penalty
    term by 1 / (1 + dt n) and keeps the inner fixed point contractive for
    every n; only the driver lag limits dt.  A penalty ladder of one level.
    A step ends when its iterate moves by at most the spec's ``inner_tol``
    or, for a driver with L = 0, as soon as a solve's row keeps the active
    set that solve used; ``inner_iteration_counts`` are the solves made per
    step.
    """
    h_field = obstacle_field(spec, grid)
    u, counts = _one_level(_penalized_march(spec, grid, [n_penalty], h_field), grid)
    r = float(n_penalty) * np.maximum(h_field - u, 0.0)
    return PenalizedSolution(n_penalty=n_penalty, u_values=u, r_values=r,
                             inner_iteration_counts=counts)


def as_obstacle_solution(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                         pen: PenalizedSolution) -> ObstacleSolution:
    """View a penalized solve as an obstacle solution: its contact set for
    ``solution.csv``, and in ``diagnostics`` the obstacle field ``h_field``
    that the Skorokhod functional reads."""
    h_field = obstacle_field(spec, grid)
    return ObstacleSolution(
        u_values=pen.u_values, r_values=pen.r_values,
        contact_mask=h_field - pen.u_values >= -_contact_tol(spec, h_field),
        diagnostics={"h_field": h_field})


# ---------------------------------------------------------------------------
# complementarity route

def _lcp_step(ab: np.ndarray, b: np.ndarray, h_row: np.ndarray, v0: np.ndarray,
              mode: str, lcp_tol: float):
    """Solve min(v - h, M v - b) = 0, M = I - dt A, by policy iteration.

    ``ab`` holds M, the full (nx + 2) banded system of ``mode`` (an implicit
    kernel's ``bands``); clamp-to-data boundary rows are identity rows, never
    active.  Each iteration takes the active set S = {v - h < M v - b} of the
    last iterate (of v0, plus the nodes where v0 <= h), sets v = h on S and
    solves M v = b off S by one banded solve of the decoupled system (the
    grid's ``_tridiagonal_solve``, LAPACK ``dgtsv`` called directly).
    For an M-matrix (Howard's algorithm) S changes at most n times, so the
    step ends within n + 1 solves: when max|min(v - h, M v - b)| <= lcp_tol or
    when S repeats, v then being exact.  Returns (v, solves, M v - b).
    """
    n = b.size
    free = np.ones(n, dtype=bool)  # rows that may be active
    if mode == "clamp-to-data":
        free[[0, -1]] = False
    act = free & ((v0 <= h_row) | (v0 - h_row < _banded_matvec(ab, v0) - b))
    for solves in range(1, n + 2):
        A, rhs = ab, b
        if act.any():
            hs = np.where(act, h_row, 0.0)
            rhs = b - (_banded_matvec(ab, hs) - ab[1] * hs)
            rhs[act] = h_row[act]
            A = ab.copy()  # decouple the active nodes: v = h holds exactly there
            A[:, act] = 0.0
            A[1, act] = 1.0
            A[0, 1:][act[:-1]] = 0.0
            A[2, :-1][act[1:]] = 0.0
        v = _tridiagonal_solve(A, rhs)
        w = _banded_matvec(ab, v) - b
        new = free & (v - h_row < w)
        if np.max(np.abs(np.minimum(v - h_row, w))) <= lcp_tol or np.array_equal(new, act):
            return v, solves, w
        act = new
    raise LcpStall(f"active set still changing after {n + 1} policy iterations "
                   f"(residual {np.max(np.abs(np.minimum(v - h_row, w))):.3e})")


def solve_psor(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> ObstacleSolution:
    """Backward stepping with an exact complementarity solve (``_lcp_step``)
    per step, at the spec's ``lcp_tol``.

    The name is kept from the projected-SOR step this replaced, because
    ``solve --method psor`` and the callers across the package use it.  The
    measure density is r = (M u - b) / dt on the contact set and zero off it.
    ``sweep_counts`` are the active-set solves per step, summed over the
    driver refinements that ``refine_counts`` counts.
    """
    h_field = obstacle_field(spec, grid)
    dt, lcp_tol = grid.dt, spec.lcp_tol
    resid = np.empty((grid.nt, grid.nx + 2))
    sweep_counts = np.zeros(grid.nt, dtype=int)
    final = spec.driver.L <= 0.0   # the step is exact, and with L = 0 b is free of v

    def lcp(k, kern, b, v, rows):
        v, solves, resid[k] = _lcp_step(kern.bands, b[0], h_field[k], v[0], spec.boundary_mode,
                                        lcp_tol)
        sweep_counts[k] += solves
        return v[None], final

    u, refine_counts = _one_level(_march(spec, grid, lcp, ["driver refinement"], h_field), grid)
    # residual-based measure density on the binding set; the support uses
    # the tighter lcp_tol so that min(u - h, r) stays below lcp_tol even
    # though r carries a 1/dt amplification of the step residual
    r = np.zeros_like(u)
    binding = u[:-1, 1:-1] - h_field[:-1, 1:-1] <= lcp_tol
    r[:-1, 1:-1] = np.where(binding, np.maximum(resid[:, 1:-1], 0.0) / dt, 0.0)
    ctol = _contact_tol(spec, h_field)
    return ObstacleSolution(
        u_values=u, r_values=r, contact_mask=u - h_field <= ctol,
        diagnostics={
            "sweep_counts": sweep_counts,
            "refine_counts": refine_counts,
            "h_field": h_field,
        },
    )


# ---------------------------------------------------------------------------
# penalization schedule

def _weight_profile(grid: SpaceTimeGrid, weight: Weight) -> tuple[np.ndarray, np.ndarray]:
    """rho^2 at the nodes and at the cell midpoints."""
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])
    return weight.rho(grid.x_nodes) ** 2, weight.rho(mid) ** 2


def _l2_sq(row: np.ndarray, rho2: np.ndarray, dx: float) -> float:
    """Weighted L2 norm squared of one row, rho2 from ``_weight_profile``."""
    return float(np.sum(row**2 * rho2) * dx)


def _grad_sq(row: np.ndarray, rho2_mid: np.ndarray, dx: float) -> float:
    """Weighted L2 norm squared of one row's cell gradients."""
    g = np.diff(row) / dx
    return float(np.sum(g**2 * rho2_mid) * dx)


def _fold_ladder(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_levels, h_field: np.ndarray,
                 ref: np.ndarray) -> dict:
    """March the penalty levels ``n_levels`` in lockstep and fold each slice
    into the study's statistics, per level j:

    * ``gap``: max (h - u_j), at most 0 exactly when r_j = n_j (h - u_j)^+
      is 0 everywhere; ``dist``: max |u_j - ref|;
    * for j >= 1, of the increment d = u_j - u_{j-1}: ``worst``, ``at``, its
      min and the min's first (k, i) in C order, as ``np.argmin`` of the
      whole field would find it; ``sup``, max |d|; ``terms``, row k's term
      of its space-time norm.

    No level's field is held.  ``done`` is the number of leading levels that
    completed and ``error`` the divergence that stopped the others (None
    when all did).
    """
    nl = len(n_levels)
    rho2, rho2_mid = _weight_profile(grid, spec.weight)
    out = {"worst": np.full(nl, np.inf), "at": [None] * nl, "sup": np.zeros(nl),
           "terms": np.zeros((nl, grid.nt + 1)), "gap": np.full(nl, -np.inf),
           "dist": np.zeros(nl), "done": nl, "error": None}
    worst, at, sup, terms, gap, dist = (out[key] for key in
                                        ("worst", "at", "sup", "terms", "gap", "dist"))
    try:
        for k, rows, _ in _penalized_march(spec, grid, n_levels, h_field):
            live = len(rows)
            inc = slice(1, live)   # the levels with an increment, row j - 1 of delta
            delta = rows[1:] - rows[:-1]
            lo = delta.min(axis=1)
            for j in np.flatnonzero(lo <= worst[inc]):  # slices come in falling k
                worst[j + 1], at[j + 1] = lo[j], (k, int(np.argmin(delta[j])))
            sup[inc] = np.maximum(sup[inc], np.max(np.abs(delta), axis=1))
            terms[inc, k] = (np.sum(delta**2 * rho2, axis=1) * grid.dx
                             + np.sum((np.diff(delta, axis=1) / grid.dx) ** 2 * rho2_mid,
                                      axis=1) * grid.dx) * grid.dt
            gap[:live] = np.maximum(gap[:live], np.max(h_field[k] - rows, axis=1))
            dist[:live] = np.maximum(dist[:live], np.max(np.abs(rows - ref[k]), axis=1))
    except InnerDivergence as exc:
        out["done"], out["error"] = exc.level, exc
    return out


def penalization_study(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_schedule,
                       reference: ObstacleSolution) -> PenalizationStudy:
    """Run the penalty schedule, assert nodewise monotone increase, and record
    each level's increments and its sup distance to the ``reference`` solution.

    The schedule must be nonempty, strictly increasing and start at n >= 1.
    If a level produces an exactly inactive penalty (r = 0) the study
    short-circuits: all later levels solve the same unconstrained problem.
    The whole schedule is one lockstep march (``_fold_ladder``), and no
    level's field is held.  The outcome is that of a level-by-level run: in
    schedule order each level raises its divergence, then its monotonicity
    violation against the level before, then ends the study if its penalty
    is inactive.
    """
    n_schedule = [int(n) for n in n_schedule]
    if not n_schedule:
        raise ValueError("n_schedule is empty")
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    folds = _fold_ladder(spec, grid, n_schedule, obstacle_field(spec, grid), reference.u_values)
    levels, sups, norms, dists = [], [], [], []
    for j, n in enumerate(n_schedule):
        if j == folds["done"]:
            raise folds["error"]
        levels.append(n)
        dists.append(float(folds["dist"][j]))
        if j:
            worst = float(folds["worst"][j])
            if worst < -DEFAULT_MONO_TOL:
                k, i = folds["at"][j]
                raise MonotonicityViolation(
                    f"u_n decreased by {-worst:.3e} at t = {grid.t_nodes[k]:.6g}, "
                    f"x = {grid.x_nodes[i]:.6g} between n = {n_schedule[j - 1]} and n = {n}; "
                    f"inner_tol may be too loose")
            sups.append(float(folds["sup"][j]))
            # the row terms summed in forward order: cumsum adds sequentially
            norms.append(float(np.sqrt(np.cumsum(folds["terms"][j])[-1])))
        if folds["gap"][j] <= 0.0:
            break

    return PenalizationStudy(n_levels=levels, sup_increments=np.asarray(sups),
                             norm_increments=np.asarray(norms),
                             distances_to_reference=np.asarray(dists))


# ---------------------------------------------------------------------------
# Picard outer loop

def contraction_gamma(spec: ObstacleProblemSpec) -> float:
    """Weight exponent making the frozen-driver map a strict contraction;
    ``ValueError`` when the weight e^{gamma T} is beyond float range."""
    lam = spec.coefficients.lambda_ell
    big = spec.coefficients.Lambda_ell
    L = spec.driver.L
    try:
        gamma = 1.0 + 4.0 * L**2 + 8.0 * big**2 * L**2 / lam + big / (2.0 * lam)
        weight = math.exp(gamma * spec.T)
    except OverflowError:   # L**2 or the weight past float range
        weight = math.inf
    if not math.isfinite(weight):
        raise ValueError(f"contraction weight e^(gamma T) beyond float range for L = {L:g}, "
                         f"lambda = {lam:g}, Lambda = {big:g}, T = {spec.T:g}")
    return gamma


def v_gamma_norm(grid: SpaceTimeGrid, weight: Weight, fld: np.ndarray, gamma: float,
                 lam: float) -> float:
    """Exponentially weighted solution norm: sup-in-time of the weighted L2
    norm plus the space-time weighted L2 norms of the field and its gradient,
    all under the multiplier e^{gamma t}.  A field whose squares pass float
    range has an infinite norm, which the caller reports."""
    wk = np.exp(gamma * grid.t_nodes)
    rho2, rho2_mid = _weight_profile(grid, weight)
    sup_term = 0.0
    l2_term = 0.0
    grad_term = 0.0
    with np.errstate(over="ignore"):
        for k in range(grid.nt + 1):
            sl = _l2_sq(fld[k], rho2, grid.dx)
            sup_term = max(sup_term, wk[k] * sl)
            l2_term += wk[k] * sl * grid.dt
            grad_term += wk[k] * _grad_sq(fld[k], rho2_mid, grid.dx) * grid.dt
    return float(np.sqrt(sup_term + l2_term + 0.5 * lam * grad_term))


def frozen_driver(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                  u: np.ndarray) -> ObstacleProblemSpec:
    """``spec`` with its driver frozen along a grid field u, L = M_growth = 0:
    f(t, x, y, z) is the row f(t, x, u_k, sigma Du_k) of the grid time t = t_k
    whatever x, y and z, so only the grid routes may take the result."""
    rows = {t: _driver_row(spec, grid, t, u[k], _sigma_row(spec, grid, t))
            for k, t in enumerate(grid.t_nodes.tolist())}
    return replace(spec, driver=Driver(f=lambda t, x, y, z: rows[t], L=0.0, M_growth=0.0,
                                       g=lambda t, x: np.abs(rows[t])))


def picard_outer(spec: ObstacleProblemSpec, grid: SpaceTimeGrid):
    """Iterate v -> ``solve_psor(frozen_driver(spec, grid, v))``, the linear problem.

    Distances between consecutive iterates are measured in the e^{gamma t}
    weighted norm with the contraction exponent from ``contraction_gamma``.
    Drivers with L = 0 need one pass and produce an empty trace.
    """
    gamma = contraction_gamma(spec)
    lam = spec.coefficients.lambda_ell
    v = np.zeros((grid.nt + 1, grid.nx + 2))
    if spec.driver.L == 0.0:
        sol = solve_psor(frozen_driver(spec, grid, v), grid)
        return sol, PicardTrace(gamma=gamma, distances=[], ratios=[])

    distances, ratios = [], []
    expanding = 0
    for _ in range(PICARD_MAX_OUTER):
        sol = solve_psor(frozen_driver(spec, grid, v), grid)
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
        if d <= PICARD_OUTER_TOL:
            break
    else:
        raise NoContraction(f"picard outer loop did not reach {PICARD_OUTER_TOL} in "
                            f"{PICARD_MAX_OUTER} iterations")
    trace = PicardTrace(gamma=gamma, distances=distances, ratios=ratios)
    return sol, trace


# ---------------------------------------------------------------------------
# obstacle stability

def obstacle_stability(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, h1, h2) -> StabilityReport:
    """Sup-norm solution distance against sup-norm obstacle distance, ``spec``
    solved by ``solve_psor`` with its obstacle replaced by ``h1`` and by ``h2``.

    Both obstacles must stay below the terminal value at T.
    """
    phi = terminal_field(spec, grid)
    for h in (h1, h2):
        h_end = np.asarray(h(float(grid.t_nodes[grid.nt]), grid.x_nodes), dtype=float)
        if np.max(h_end - phi) > 1e-12 * (1.0 + np.max(np.abs(phi))):
            raise ValueError("obstacle exceeds the terminal value at T")
    sols = [solve_psor(replace(spec, obstacle=replace(spec.obstacle, h=h)), grid) for h in (h1, h2)]
    du = float(np.max(np.abs(sols[0].u_values - sols[1].u_values)))
    dh = float(np.max(np.abs(sols[0].diagnostics["h_field"] - sols[1].diagnostics["h_field"])))
    if dh == 0.0:
        ratio = 0.0 if du == 0.0 else float("inf")
    else:
        ratio = du / dh
    return StabilityReport(solution_distance=du, obstacle_distance=dh, ratio=ratio,
                           passed=bool(ratio <= STABILITY_C))
