"""Independent oracles used by the tests: kept deliberately separate from the
package so each check has a second route to the same number.

The paper's energy identity, weighted a priori estimate, Aronson envelope,
obstacle replacement and g-integral term are computed here, not in the
package: no command runs them, and the tests check those estimates through
these routines."""

from __future__ import annotations

import dataclasses
import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from parobs.errors import ParobsError


@dataclass
class StoredEnsemble:
    """Every X and dW row of an ensemble held whole, as the package held them
    before it kept only increments and checkpoints."""
    s: float
    x_start: float
    dt_path: float
    path_count: int
    seed: int
    t_nodes: np.ndarray          # n_steps + 1 times from s to T
    X: np.ndarray                # (n_steps + 1, M)
    dW: np.ndarray | None        # (n_steps, M); None when not stored

    @property
    def n_steps(self) -> int:
        return len(self.t_nodes) - 1


def stored_simulate_paths(spec, s, x, dt_path, path_count, seed, store_dw=True):
    """The storing simulator, block by block: each block of BLOCK_SIZE paths
    draws its (n_steps, BLOCK_SIZE) normals at once and steps its own columns.
    The package's per-block stepper, on any number of threads, and its
    checkpoint replay must reproduce every X and dW row bit for bit."""
    from parobs.errors import MissingDerivative
    from parobs.stochastic import BLOCK_SIZE

    coef = spec.coefficients
    if coef.a_x is None:
        raise MissingDerivative("path simulation needs the coefficient derivative a_x")
    horizon = spec.T - s
    if dt_path <= 0 or dt_path > horizon + 1e-15:
        raise ValueError("need 0 < dt_path <= T - s")
    n_steps = int(round(horizon / dt_path))
    if abs(n_steps * dt_path - horizon) > 1e-9 * max(1.0, spec.T):
        raise ValueError("dt_path must divide T - s")
    t_nodes = s + dt_path * np.arange(n_steps + 1)

    X = np.empty((n_steps + 1, path_count))
    dW = np.empty((n_steps, path_count)) if store_dw else None
    sdt = np.sqrt(dt_path)
    done = 0
    block = 0
    while done < path_count:
        bs = min(BLOCK_SIZE, path_count - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, block])))
        # always draw the full block so path i sees the same stream for any
        # path_count (prefix stability); the tail of the last block is unused
        z = rng.standard_normal((n_steps, BLOCK_SIZE))[:, :bs]
        cols = slice(done, done + bs)
        X[0, cols] = x
        xk = np.full(bs, float(x))
        for k in range(n_steps):
            t = float(t_nodes[k])
            drift = 0.5 * np.asarray(coef.a_x(t, xk), dtype=float)
            sig = np.sqrt(np.asarray(coef.a(t, xk), dtype=float))
            dw = sdt * z[k]
            xk = xk + drift * dt_path + sig * dw
            X[k + 1, cols] = xk
            if store_dw:
                dW[k, cols] = dw
        done += bs
        block += 1
    return StoredEnsemble(s=s, x_start=float(x), dt_path=dt_path, path_count=path_count,
                          seed=seed, t_nodes=t_nodes, X=X, dW=dW)


def binomial_american_put(s0, strike, rate, sigma, T, steps):
    """Cox-Ross-Rubinstein tree with early exercise."""
    dt = T / steps
    up = np.exp(sigma * np.sqrt(dt))
    down = 1.0 / up
    p = (np.exp(rate * dt) - down) / (up - down)
    disc = np.exp(-rate * dt)
    j = np.arange(steps + 1)
    v = np.maximum(strike - s0 * up ** (2 * j - steps), 0.0)
    for m in range(steps - 1, -1, -1):
        j = np.arange(m + 1)
        s = s0 * up ** (2 * j - m)
        v = np.maximum(np.maximum(strike - s, 0.0), disc * (p * v[1:] + (1 - p) * v[:-1]))
    return float(v[0])


def dense_lcp_solve(M, b, h, tol=1e-11):
    """Solve min(u - h, M u - b) = 0 by enumerating active sets (n <= ~14).

    Returns the unique solution for M-matrices.  Brute force on purpose.
    """
    n = len(b)
    for mask in range(2 ** n):
        active = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        u = np.empty(n)
        u[active] = h[active]
        free = ~active
        if free.any():
            A = M[np.ix_(free, free)]
            rhs = b[free] - M[np.ix_(free, active)] @ h[active]
            u[free] = np.linalg.solve(A, rhs)
        resid = M @ u - b
        if np.all(u[free] >= h[free] - tol) and np.all(resid[active] >= -tol):
            return u
    raise RuntimeError("no consistent active set found")


def psor_lcp_solve(ab, b, h, omega=1.5, tol=1e-13, max_sweeps=100_000):
    """Solve min(u - h, M u - b) = 0 by red-black projected SOR.

    M is tridiagonal, given by its three bands in ``scipy.linalg.solve_banded``
    layout.  Every row is swept, boundary rows included, so one routine covers
    identity (Dirichlet) and zero-flux boundary rows.  Iterative on purpose:
    it reaches the solution by a route that shares nothing with an active-set
    solve.
    """
    n = b.size
    diag = ab[1]
    lo = np.zeros(n)
    up = np.zeros(n)
    lo[1:] = ab[2, :-1]   # M[i, i - 1]
    up[:-1] = ab[0, 1:]   # M[i, i + 1]
    vp = np.zeros(n + 2)  # zero-padded iterate
    vp[1:-1] = np.maximum(h, b / diag)
    colors = (np.arange(1, n + 1, 2), np.arange(2, n + 1, 2))
    for _ in range(max_sweeps):
        for idx in colors:
            i = idx - 1
            gs = (b[i] - lo[i] * vp[idx - 1] - up[i] * vp[idx + 1]) / diag[i]
            vp[idx] = np.maximum(h[i], vp[idx] + omega * (gs - vp[idx]))
        v = vp[1:-1]
        mv = diag * v + lo * vp[:-2] + up * vp[2:]
        if np.max(np.abs(np.minimum(v - h, mv - b))) <= tol:
            return v.copy()
    raise RuntimeError("PSOR did not reach the tolerance")


def heat_bump_value(t, x, T, width=1.0, height=1.0):
    """u(t, x) for the half-Laplacian backward equation with Gaussian terminal
    bump: the convolution has variance width^2 + (T - t)."""
    v = width**2 + (T - t)
    return height * width / np.sqrt(v) * np.exp(-0.5 * np.asarray(x) ** 2 / v)


def heat_bump_gradient(t, x, T, width=1.0, height=1.0):
    v = width**2 + (T - t)
    x = np.asarray(x)
    return -height * width * x / v**1.5 * np.exp(-0.5 * x**2 / v)


def brute_force_lipschitz(f, t, x, y_grid, z_grid):
    """Max |df| / (|dy| + |dz|) over all pairs of a dense (y, z) lattice."""
    yy, zz = np.meshgrid(y_grid, z_grid, indexing="ij")
    vals = f(t, x, yy, zz).ravel()
    ys, zs = yy.ravel(), zz.ravel()
    best = 0.0
    for i in range(len(vals)):
        dy = np.abs(ys - ys[i]) + np.abs(zs - zs[i])
        ok = dy > 0
        best = max(best, float(np.max(np.abs(vals[ok] - vals[i]) / dy[ok])))
    return best


def gaussian_kernel_weight_ratio(phi, rho, T, x_grid):
    """Quadrature oracle for the weighted terminal-data ratio with the exact
    unit-diffusion heat kernel: R = (int int |phi(y)| g_T(y - x) rho(x) dy dx)
    / (int |phi| rho dx)."""
    dx = x_grid[1] - x_grid[0]
    g = np.exp(-0.5 * (x_grid[None, :] - x_grid[:, None]) ** 2 / T) / np.sqrt(2 * np.pi * T)
    inner = g @ np.abs(phi(x_grid)) * dx
    num = float(np.sum(inner * rho(x_grid)) * dx)
    den = float(np.sum(np.abs(phi(x_grid)) * rho(x_grid)) * dx)
    return num / den


def lstsq_polynomial_fit(x, y, degree):
    """Fitted values of the least-squares regression of y on the monomials
    1, z, .., z^degree of the standardized x, by SVD (``np.linalg.lstsq``)."""
    mean, spread = float(x.mean()), float(x.std())
    if spread > 1e-12 * (1.0 + abs(mean)):
        x = (x - mean) / spread
    design = np.vander(x, degree + 1, increasing=True)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    return design @ coef


def storing_lsmc(spec, ensemble, basis_degree, n_penalty=math.inf, implicit=False):
    """The LSMC backward loop with every field stored: Y (n + 1, m), Z and dK
    (n, m), plus Y0 and its batch CI.

    ``n_penalty`` is the level n, inf for the reflected scheme; ``ensemble``
    holds X whole, as ``stored_simulate_paths`` returns it.  Same arithmetic
    as the package schemes, dK = y - c included, but it materializes the
    per-date values as it goes instead of keeping regression coefficients,
    so it is the reference their accessors must reproduce bit for bit.

    With ``implicit`` the value step is the one the package ran before it
    took the explicit step: the driver iterated to 1e-13 in y, y = max((c +
    w h) / (1 + w), c) with c = cont + dt f(t, x, y, z), up to 100 times.
    It is the reference the explicit step is held to within a stated
    tolerance, and equal to it bit for bit for a driver free of y.
    """
    from parobs.stochastic import _Projection

    n, m = ensemble.n_steps, ensemble.path_count
    dt = ensemble.dt_path
    obs = spec.obstacle
    f = spec.driver.f
    w = dt * float(n_penalty)
    edges = np.linspace(0, m, 11).astype(int)
    batches = [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def toward(a, h):
        return h if math.isinf(w) else (a + w * h) / (1.0 + w)

    def resolve(t, xk, cont, zk, h_k):
        if not implicit:
            c = cont + dt * np.asarray(f(t, xk, cont, zk), dtype=float)
            return np.maximum(toward(c, h_k), c), c
        y = cont
        for _ in range(100):
            c = cont + dt * np.asarray(f(t, xk, y, zk), dtype=float)
            y_new = np.maximum(toward(c, h_k), c)
            if np.max(np.abs(y_new - y)) <= 1e-13 * (1.0 + np.max(np.abs(y_new))):
                return y_new, c
            y = y_new
        raise RuntimeError("driver iteration stalled")

    Y = np.empty((n + 1, m))
    Z = np.empty((n, m))
    dK = np.zeros((n, m))
    V = np.asarray(obs.phi(ensemble.X[n]), dtype=float)
    Y[n] = V.copy()
    batch_y0 = None
    for k in range(n - 1, -1, -1):
        t = float(ensemble.t_nodes[k])
        xk = ensemble.X[k]
        h_k = np.broadcast_to(np.asarray(obs.h(t, xk), dtype=float), (m,)).astype(float)
        if k == 0:
            cont = np.full(m, V.mean())
            z_target = (V - cont) * ensemble.dW[k] / dt
            zk = np.full(m, z_target.mean())
            batch_y0 = []
            for sl in batches:
                cont_b = np.full(sl.stop - sl.start, V[sl].mean())
                zk_b = np.full(sl.stop - sl.start,
                               ((V[sl] - V[sl].mean()) * ensemble.dW[k, sl] / dt).mean())
                yb, _ = resolve(t, xk[sl], cont_b, zk_b, h_k[sl])
                batch_y0.append(float(yb.mean()))
        else:
            proj = _Projection(xk, basis_degree)
            cont = proj.coef(V) @ proj.B
            z_target = (V - cont) * ensemble.dW[k] / dt
            zk = proj.coef(z_target) @ proj.B
        y_fit, c_fit = resolve(t, xk, cont, zk, h_k)
        dK[k] = y_fit - c_fit
        vstar = V + dt * np.asarray(f(t, xk, y_fit, zk), dtype=float)
        V = np.where(h_k >= c_fit, toward(vstar, h_k), vstar)
        Y[k] = y_fit
        Z[k] = zk
    y0 = float(Y[0].mean())
    ci = 1.96 * float(np.std(batch_y0, ddof=1)) / np.sqrt(len(batch_y0))
    return Y, Z, dK, y0, ci


def stored_convergence_table(spec, ensemble, n_schedule, basis_degree):
    """``penalization_convergence_mc``'s distances from fields held whole:
    ``storing_lsmc`` per level on an ensemble that holds X and dW whole.

    Returns (y_distance, k_distance, y_ci, k_ci): per level, the sup over
    dates of the RMS distance of Y and of K (summed in forward date order) to
    the reflected scheme over all paths, and 1.96 standard errors of that sup
    over ten contiguous path batches.
    """
    m, n = ensemble.path_count, ensemble.n_steps
    edges = np.linspace(0, m, 11).astype(int)
    slices = [slice(None)] + [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def running_k(dK):
        K = np.zeros((n + 1, m))
        for k in range(n):
            K[k + 1] = K[k] + dK[k]
        return K

    Y_ref, _, dK_ref, _, _ = storing_lsmc(spec, ensemble, basis_degree)
    K_ref = running_k(dK_ref)
    y_sup, k_sup = [], []
    for n_penalty in n_schedule:
        Y, _, dK, _, _ = storing_lsmc(spec, ensemble, basis_degree, n_penalty)
        dy, dk = Y[:n] - Y_ref[:n], running_k(dK) - K_ref
        y_sup.append([max(0.0, max(float(np.sqrt(np.mean(d[sl] * d[sl]))) for d in dy))
                      for sl in slices])
        k_sup.append([max(float(np.sqrt(np.mean(d[sl] * d[sl]))) for d in dk) for sl in slices])
    y_sup, k_sup = np.array(y_sup), np.array(k_sup)

    def ci(batches):
        return 1.96 * np.std(batches, axis=1, ddof=1) / np.sqrt(batches.shape[1])

    return y_sup[:, 0], k_sup[:, 0], ci(y_sup[:, 1:]), ci(k_sup[:, 1:])


def implicit_chain_dp(spec, grid, s_index):
    """Chain-dp's (Y, dK) with the value step implicit in the driver's y: per
    slice ``c = cont + dt f(t, x, y, z)`` iterated from y = cont to 1e-13,
    up to 100 times, then Y = max(h, c), as the package computed it before
    it took the explicit step ``f(t, x, cont, z)``.  The reference the
    explicit step is held to within a stated tolerance."""
    from parobs.grid import _step_kernels
    from parobs.solver import (boundary_values, central_gradient, obstacle_field,
                               terminal_field, _sigma_row)

    clamp = spec.boundary_mode == "clamp-to-data"
    h_field = obstacle_field(spec, grid)
    bnd = boundary_values(spec, grid, h_field) if clamp else None
    Y = np.empty((grid.nt - s_index + 1, grid.nx + 2))
    dK = np.zeros_like(Y)
    Y[-1] = terminal_field(spec, grid)
    for k, t, kern in _step_kernels(spec, grid, s_index):
        j = k - s_index
        cont = kern.apply(Y[j + 1])
        z_proxy = _sigma_row(spec, grid, t) * central_gradient(cont, grid.dx)
        y = cont.copy()
        for _ in range(100):
            c = cont + grid.dt * np.asarray(spec.driver.f(t, grid.x_nodes, y, z_proxy), dtype=float)
            converged = np.max(np.abs(c - y)) <= 1e-13 * (1.0 + np.max(np.abs(c)))
            y = c
            if converged:
                break
        else:
            raise RuntimeError(f"chain-dp driver iteration stalled at step {k}")
        Y[j] = np.maximum(h_field[k], y)
        dK[j] = np.maximum(h_field[k] - y, 0.0)
        if clamp:
            Y[j, 0], Y[j, -1] = bnd[k]
            dK[j, 0] = dK[j, -1] = 0.0
    return Y, dK


def three_pass_ac_path_sums(spec, grid, ensemble, sol):
    """``ac-measure``'s path loop with one full ``interp_space_time`` pass per
    field, on an ensemble that holds X whole (``stored_simulate_paths``): the
    per-path backward-equation residual of (u, sigma Du, K~) and K~_T.  The
    package gathers all three fields from one stencil per date and must
    reproduce these arrays bit for bit."""
    from parobs.grid import interp_space_time
    from parobs.solver import z_field

    z_grid = z_field(spec, grid, sol.u_values)
    n, m = ensemble.n_steps, ensemble.path_count
    dt = ensemble.dt_path
    total = np.zeros(m)
    k_tilde = np.zeros(m)
    u_start = interp_space_time(grid, sol.u_values, float(ensemble.t_nodes[0]), ensemble.X[0])
    for k in range(n):
        t = float(ensemble.t_nodes[k])
        xk = ensemble.X[k]
        u_itp = interp_space_time(grid, sol.u_values, t, xk)
        z_itp = interp_space_time(grid, z_grid, t, xk)
        r_itp = interp_space_time(grid, sol.r_values, t, xk)
        fval = np.asarray(spec.driver.f(t, xk, u_itp, z_itp), dtype=float)
        total += fval * dt + r_itp * dt - z_itp * ensemble.dW[k]
        k_tilde += r_itp * dt
    phi_T = np.asarray(spec.obstacle.phi(ensemble.X[n]), dtype=float)
    return phi_T + total - u_start, k_tilde


def scipy_halton(n, seed):
    """scipy's scrambled Halton points in [0, 1)^4, the reference for the
    package's numpy version of the same sequence."""
    return qmc.Halton(d=4, seed=seed).random(n)


def per_value_solution_csv(path, provenance, grid, sol):
    """solution.csv written node by node, formatting one numpy scalar at a
    time.  The CLI formats whole time slabs and must write the same bytes."""
    def cell(v):
        return format(float(v), ".17g") if isinstance(v, (int, float, np.floating)) else str(v)

    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance}\n")
        fh.write("t,x,u,r,contact\n")
        for k, t in enumerate(grid.t_nodes):
            for i, x in enumerate(grid.x_nodes):
                row = (t, x, sol.u_values[k, i], sol.r_values[k, i], int(sol.contact_mask[k, i]))
                fh.write(",".join(cell(v) for v in row) + "\n")


def operator_apply(op, u_full):
    """(A u) at the interior nodes of the flux-form operator ``op`` on one
    slice; ``u_full`` includes the boundary values."""
    return op.lower * u_full[:-2] + op.diag * u_full[1:-1] + op.upper * u_full[2:]


# the Skorokhod functional of a penalized solution at level n is of size C / n
SKOROKHOD_PENALTY_CONSTANT = 10.0


def reflected_mc_measure_identity(ctx, s, x):
    """``measure-identity`` with its left side E int xi dK from reflected-mc K
    along the paths of ``ctx.reflected_mc`` from the snapped start with the
    context's seed, and a statistical part of 1.96 standard errors: the
    route ``check_measure_identity`` took with ``method="reflected-mc"``,
    which no command ran.  Same ``CheckReport`` as that route, bit for bit.

    The route is only quantitative when the regression basis spans the
    value function: its per-date increments (h - C)^+ inherit the full basis
    misfit, which swamps increments of size r dt on kinked payoffs.
    """
    from itertools import islice

    from parobs.stochastic import _obstacle_row
    from parobs.verify import (_TINY, REL_BUDGET, _report, _snap_indices,
                               default_test_functions)

    spec, grid, sol = ctx.spec, ctx.grid, ctx.sol
    test_functions = default_test_functions(spec)
    s_idx, x_idx = _snap_indices(grid, s, x)

    # left side first, so the fit runs with no density held
    lefts = {name: 0.0 for name, _ in test_functions}
    stat = 0.0
    mc = ctx.reflected_mc(s_idx, x_idx, ctx.seed)
    ens = mc.ensemble
    per_path = {name: np.zeros(ens.path_count) for name, _ in test_functions}
    with closing(ens._read(backward=False)) as path_rows:
        for k, xk, _ in islice(path_rows, ens.n_steps):
            t = float(ens.t_nodes[k])
            dk = mc._evaluate(k, xk, mc._basis_at(k, xk), _obstacle_row(ens, k, xk))[3]
            for name, xi in test_functions:
                per_path[name] += np.asarray(xi(t, xk), dtype=float) * dk
    for name, _ in test_functions:
        lefts[name] = float(per_path[name].mean())
        stat = max(stat, 1.96 * float(per_path[name].std(ddof=1)) / np.sqrt(ens.path_count))

    # right side: sum of xi p r over cells, one pass per test function
    dens = ctx.density(s_idx, x_idx)
    rights = {name: 0.0 for name, _ in test_functions}
    for rel_k, k in enumerate(range(s_idx, grid.nt)):
        t = float(grid.t_nodes[k])
        pm = dens.values[rel_k]
        row = pm * sol.r_values[k] * grid.dt
        for name, xi in test_functions:
            rights[name] += float(np.sum(np.asarray(xi(t, grid.x_nodes), dtype=float) * row))

    rows = {}
    worst = 0.0
    for name, _ in test_functions:
        l, r = lefts[name], rights[name]
        scale = max(abs(l), abs(r))
        rel = 0.0 if scale < _TINY else abs(l - r) / scale
        rows[name] = {"left": l, "right": r, "rel": rel}
        worst = max(worst, rel / REL_BUDGET)
    return _report("measure-identity", worst, 1.0, REL_BUDGET, stat, rows)


def reference_banded_solve(ab, b):
    """``scipy.linalg.solve_banded((1, 1), ab, b)``: the wrapper the package's
    direct LAPACK ``dgtsv`` call must match bit for bit."""
    from scipy.linalg import solve_banded

    return solve_banded((1, 1), ab, b)


def assembled_step_solve(op, dt, rhs_full, extra_diag=None, mode="clamp-to-data"):
    """One backward step assembled from the operator, as the solvers took it
    before they stepped through the kernel: the banded (I - dt A) of ``mode``
    plus ``extra_diag`` (interior length nx or full length nx + 2), solved by
    ``solve_banded``.  The package's kernel step must match it bit for bit."""
    from scipy.linalg import solve_banded

    n = op.diag.size + 2
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 1.0 - dt * op.diag
    ab[0, 2:] = -dt * op.upper
    ab[2, :n - 2] = -dt * op.lower
    if mode == "clamp-to-data":
        ab[1, 0] = ab[1, -1] = 1.0
    else:
        ab[1, 0] = 1.0 + dt * op.lower[0]
        ab[0, 1] = -dt * op.lower[0]
        ab[1, -1] = 1.0 + dt * op.upper[-1]
        ab[2, -2] = -dt * op.upper[-1]
    if extra_diag is not None:
        extra_diag = np.asarray(extra_diag, dtype=float)
        if extra_diag.size == n:
            ab[1] += extra_diag
        else:
            ab[1, 1:-1] += extra_diag
    return solve_banded((1, 1), ab, rhs_full)


def mass_vector_evolution(spec, grid, start_index, rho=None):
    """The rho dx start measure over interior starts carried forward slice by
    slice with one implicit kernel per step, as ``weighted-bounds`` did with
    its own loop; yields (k, w_k) for k = start_index .. nt."""
    from parobs.grid import transition_kernel

    w = np.zeros(grid.nx + 2)
    w[1:-1] = grid.dx if rho is None else grid.dx * rho[1:-1]
    yield start_index, w
    for k in range(start_index, grid.nt):
        kern = transition_kernel(spec, grid, k, scheme="implicit")
        w = kern.apply_T(w)
        yield k + 1, w


def lone_penalized(spec, grid, n_penalty, inner_tol=1e-11, max_inner=200):
    """One penalty level marched alone, as the package did before its levels
    marched in lockstep: one implicit kernel built per step, one row per
    iterate, each step ended only when its iterate moves by at most
    ``inner_tol``.  Returns a ``PenalizedSolution``, which the lockstep
    levels must match bit for bit.  Its ``confirmed`` attribute marks the
    steps whose last solve only confirmed the row before it: a second or
    later iteration that moved nothing at all."""
    from parobs.errors import InnerDivergence
    from parobs.grid import solve_backward_step, transition_kernel
    from parobs.solver import (PenalizedSolution, _driver_row, _sigma_row, boundary_values,
                               obstacle_field, terminal_field)

    dt = grid.dt
    h_field = obstacle_field(spec, grid)
    dtn = dt * float(n_penalty)
    label = f"penalized inner iteration (n = {n_penalty})"
    u = np.empty((grid.nt + 1, grid.nx + 2))
    u[grid.nt] = terminal_field(spec, grid)
    bnd = boundary_values(spec, grid, h_field) if spec.boundary_mode == "clamp-to-data" else None
    scale = 1.0 + float(np.max(np.abs(u[grid.nt]))) + float(np.max(np.abs(h_field)))
    counts = np.zeros(grid.nt, dtype=int)
    confirmed = np.zeros(grid.nt, dtype=bool)
    for k in range(grid.nt - 1, -1, -1):
        kern = transition_kernel(spec, grid, k)
        t = float(grid.t_nodes[k])
        sigma = _sigma_row(spec, grid, t)
        v = u[k + 1].copy()
        if bnd is not None:
            v[0], v[-1] = bnd[k]
        for m in range(max_inner):
            b = u[k + 1] + dt * _driver_row(spec, grid, t, v, sigma)
            if bnd is not None:
                b[0], b[-1] = bnd[k]
            active = v < h_field[k]
            if bnd is not None:
                active[0] = active[-1] = False
            v_new = solve_backward_step(kern, b + dtn * h_field[k] * active, dtn * active)
            diff = float(np.max(np.abs(v_new - v)))
            v = v_new
            if not np.isfinite(diff) or np.max(np.abs(v)) > 1e12 * scale:
                raise InnerDivergence(f"{label} diverged at step {k}")
            if diff <= inner_tol:
                counts[k], confirmed[k] = m + 1, m >= 1 and diff == 0.0
                break
        else:
            raise InnerDivergence(f"{label} did not converge within {max_inner} iterations "
                                  f"at step {k}; reduce dt relative to L")
        u[k] = v
    r = float(n_penalty) * np.maximum(h_field - u, 0.0)
    sol = PenalizedSolution(n_penalty=n_penalty, u_values=u, r_values=r,
                            inner_iteration_counts=counts)
    sol.confirmed = confirmed
    return sol


def sequential_penalization_study(spec, grid, n_schedule, reference, inner_tol=1e-11):
    """The penalization study as a loop over the levels, each solved whole by
    ``lone_penalized`` and compared with the one before: the loop the package
    ran before it marched the levels in lockstep."""
    from parobs.errors import MonotonicityViolation
    from parobs.solver import (DEFAULT_MONO_TOL, PenalizationStudy, _grad_sq, _l2_sq,
                               _weight_profile)

    def space_time_norm(fld):
        rho2, rho2_mid = _weight_profile(grid, spec.weight)
        total = 0.0
        for k in range(grid.nt + 1):
            total += (_l2_sq(fld[k], rho2, grid.dx) + _grad_sq(fld[k], rho2_mid, grid.dx)) * grid.dt
        return float(np.sqrt(total))

    n_schedule = [int(n) for n in n_schedule]
    levels, sups, norms, dists = [], [], [], []
    prev = None
    for n in n_schedule:
        sol = lone_penalized(spec, grid, n, inner_tol=inner_tol)
        levels.append(n)
        dists.append(float(np.max(np.abs(sol.u_values - reference.u_values))))
        if prev is not None:
            delta = sol.u_values - prev.u_values
            worst = float(delta.min())
            if worst < -DEFAULT_MONO_TOL:
                k, i = np.unravel_index(int(np.argmin(delta)), delta.shape)
                raise MonotonicityViolation(
                    f"u_n decreased by {-worst:.3e} at t = {grid.t_nodes[k]:.6g}, "
                    f"x = {grid.x_nodes[i]:.6g} between n = {prev.n_penalty} and n = {n}; "
                    f"inner_tol may be too loose")
            sups.append(float(np.max(np.abs(delta))))
            norms.append(space_time_norm(delta))
        prev = sol
        if float(np.max(sol.r_values)) == 0.0:
            break
    return PenalizationStudy(
        n_levels=levels, sup_increments=np.asarray(sups), norm_increments=np.asarray(norms),
        distances_to_reference=np.asarray(dists))


def sequential_minimality(spec, grid, sol, n_schedule):
    """The minimality statistics as a loop over the levels, each solved whole
    by ``lone_penalized``: (overshoot, final_gap) against the complementarity
    solution ``sol``."""
    overshoot = 0.0
    last = None
    for n in n_schedule:
        pen = lone_penalized(spec, grid, int(n))
        overshoot = max(overshoot, float(np.max(pen.u_values - sol.u_values)))
        last = pen
    return overshoot, float(np.max(np.abs(last.u_values - sol.u_values)))


# ---------------------------------------------------------------------------
# paper estimates: routines the tests check that no command runs

@dataclass
class AprioriReport:
    left: float
    right: float
    ratio: float


def energy_identity_residual(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                             sol: ObstacleSolution, cutoff: np.ndarray) -> np.ndarray:
    """Per-time residual of the localized energy identity.

    The spatial pairing uses the exact discrete summation by parts of the
    flux-form operator, so the residual isolates the time-quadrature error and
    vanishes at the rate O(dt) under refinement.
    """
    from parobs.solver import _driver_row, _sigma_row

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
        fv = _driver_row(spec, grid, t, u[k], _sigma_row(spec, grid, t))
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
    from parobs.solver import _grad_sq, _l2_sq, _weight_profile

    u, r = sol.u_values, sol.r_values
    p_plus = np.maximum(np.asarray(dominating_p, dtype=float), 0.0)
    rho2, rho2_mid = _weight_profile(grid, weight)
    dx = grid.dx

    sup_u = max(_l2_sq(u[k], rho2, dx) for k in range(grid.nt + 1))
    grad_u = sum(_grad_sq(u[k], rho2_mid, dx) * grid.dt for k in range(grid.nt + 1))
    mu_term = float(sum(np.sum(np.abs(u[k]) * rho2 * r[k]) * grid.dx * grid.dt
                        for k in range(grid.nt + 1)))
    left = sup_u + grad_u + mu_term

    phi = u[grid.nt]
    sup_p = max(_l2_sq(p_plus[k], rho2, dx) for k in range(grid.nt + 1))
    right = _l2_sq(phi, rho2, dx) + sup_p
    for k in range(grid.nt):
        dpdt = (p_plus[k + 1] - p_plus[k]) / grid.dt
        g_row = np.broadcast_to(
            np.asarray(spec.driver.g(float(grid.t_nodes[k]), grid.x_nodes), dtype=float),
            grid.x_nodes.shape)
        right += (_l2_sq(dpdt, rho2, dx) + _grad_sq(p_plus[k], rho2_mid, dx)
                  + _l2_sq(g_row, rho2, dx)) * grid.dt

    if right > 0:
        ratio = left / right
    else:
        ratio = 0.0 if left == 0.0 else float("inf")
    return AprioriReport(left=float(left), right=float(right), ratio=float(ratio))


def unconstrained_march(spec, grid, inner_tol=1e-11, max_inner=200):
    """The obstacle-free problem by a plain backward loop: from u(T) = phi,
    each step iterates v -> P (u_{k+1} + dt f(t_k, ., v, sigma D v)) with the
    step's implicit kernel (``kern.apply`` over ``grid._step_kernels``) until
    v moves by at most ``inner_tol``, the boundary nodes clamped to phi under
    clamp-to-data.  Returns the field u of shape (nt + 1, nx + 2)."""
    from parobs.errors import InnerDivergence
    from parobs.grid import _step_kernels
    from parobs.solver import _driver_row, _sigma_row, terminal_field

    phi = terminal_field(spec, grid)
    clamp = spec.boundary_mode == "clamp-to-data"
    u = np.empty((grid.nt + 1, grid.nx + 2))
    u[grid.nt] = phi
    for k, t, kern in _step_kernels(spec, grid):
        sigma = _sigma_row(spec, grid, t)
        v = u[k + 1].copy()
        if clamp:
            v[0], v[-1] = phi[0], phi[-1]
        for _ in range(max_inner):
            b = u[k + 1] + grid.dt * _driver_row(spec, grid, t, v, sigma)
            if clamp:
                b[0], b[-1] = phi[0], phi[-1]
            v_new = kern.apply(b)
            diff = float(np.max(np.abs(v_new - v)))
            v = v_new
            if diff <= inner_tol:
                break
        else:
            raise InnerDivergence(f"unconstrained step did not converge at step {k}")
        u[k] = v
    return u


def tabulated_obstacle(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                       h_field: np.ndarray) -> ObstacleProblemSpec:
    """``spec`` with its obstacle h replaced by a grid table: h(t, x) is the
    row of ``h_field`` at the grid time t, whatever x, so only the grid
    routes may take the result."""
    rows = {float(t): h_field[k] for k, t in enumerate(grid.t_nodes)}
    return dataclasses.replace(spec, obstacle=dataclasses.replace(spec.obstacle,
                                                                  h=lambda t, x: rows[t]))


def obstacle_replacement_check(spec: ObstacleProblemSpec, grid: SpaceTimeGrid) -> float:
    """Max nodewise gap between the solutions with obstacles h and h v u_free,
    where u_free solves the unconstrained problem (both gaps vanish in the
    continuum); the obstacle h v u_free is a tabulated spec."""
    from parobs.solver import solve_psor

    u_free = unconstrained_march(spec, grid)
    sol_h = solve_psor(spec, grid)
    h_max = np.maximum(sol_h.diagnostics["h_field"], u_free)
    sol_max = solve_psor(tabulated_obstacle(spec, grid, h_max), grid)
    return float(np.max(np.abs(sol_h.u_values - sol_max.u_values)))


def frozen_reward_field(spec, grid, u):
    """f(t, x, u, sigma Du) on every slice of a grid field u (``_driver_row``):
    the running reward of the Snell recursion, one row per time slice."""
    from parobs.solver import _driver_row, _sigma_row

    out = np.empty_like(u)
    for k, t in enumerate(grid.t_nodes):
        t = float(t)
        out[k] = _driver_row(spec, grid, t, u[k], _sigma_row(spec, grid, t))
    return out


def snell_recursion(spec, grid, reward_field, s_index, x_index):
    """Exhaustive optimal-stopping value on the grid chain by backward induction.

    ``reward_field`` is the running reward f evaluated along the solved field,
    one row per time slice.  The recursion the package ran before the
    exhaustive value became chain-dp under the frozen driver.
    """
    from parobs.grid import _step_kernels
    from parobs.solver import boundary_values, obstacle_field, terminal_field

    clamp = spec.boundary_mode == "clamp-to-data"
    h_field = obstacle_field(spec, grid)
    bnd = boundary_values(spec, grid, h_field) if clamp else None
    V = terminal_field(spec, grid).copy()
    for k, _, kern in _step_kernels(spec, grid, s_index):
        cont = kern.apply(V)
        V = np.maximum(h_field[k], cont + grid.dt * reward_field[k])
        if clamp:
            V[0], V[-1] = bnd[k]
    return float(V[x_index])


ENVELOPE_C_MAX = 64.0
ENVELOPE_BURN_IN_FRAC = 0.4


class GridTooCoarse(ParobsError):
    """The envelope check has an empty evaluation region on this grid."""


@dataclass(frozen=True)
class AronsonEnvelope:
    c_low: float
    C_high: float
    passed: bool


def _envelope_gap(density: DensityTable, grid: SpaceTimeGrid, s_index: int, C: float, side: str,
                  trim_mask: np.ndarray, x0: float) -> float:
    """Worst signed violation of the C-envelope over the trimmed region.

    The reference shape is the unit-diffusion heat kernel with variance
    (t - s); the upper envelope is C g(.; C v), the lower C^{-1} g(.; v / C).
    Negative gap means the envelope holds everywhere.
    """
    worst = -np.inf
    dens = density.values / grid.dx
    for k in range(1, len(dens)):
        sel = trim_mask[k]
        if not np.any(sel):
            continue
        v = grid.t_nodes[s_index + k] - grid.t_nodes[s_index]
        r = grid.x_nodes[sel] - x0
        g = np.exp(-r**2 / (2.0 * C * v)) / np.sqrt(2.0 * np.pi * C * v) if side == "upper" \
            else np.exp(-r**2 * C / (2.0 * v)) / np.sqrt(2.0 * np.pi * v / C)
        env = C * g if side == "upper" else g / C
        p = dens[k, sel]
        gap = (p - env) if side == "upper" else (env - p)
        worst = max(worst, float(gap.max()))
    return worst


def aronson_envelope_check(density: DensityTable, grid: SpaceTimeGrid, s_index: int, x_index: int,
                           trim_mass: float = 1e-8) -> AronsonEnvelope:
    """Fit the smallest two-sided Gaussian envelope constants for the density
    that ``solve_density`` started on ``grid`` at node (s_index, x_index).

    Points carrying less than ``trim_mass`` per node are excluded, as is the
    initial layer of slices (ENVELOPE_BURN_IN_FRAC): the discrete kernel
    starts as a near-delta whose standardized tails carry an excess kurtosis
    of order dt / (t - s), so envelope constants are only meaningful after the
    chain has mixed.  Both envelopes are monotone in C, so bisection applies.
    """
    n_slices = len(density.values)
    if n_slices < 3:
        raise GridTooCoarse("density table has too few time slices to trim")
    first = max(1, int(ENVELOPE_BURN_IN_FRAC * (n_slices - 1)) + 1)
    trim_mask = density.values > trim_mass
    trim_mask[:first] = False
    trim_mask[:, 0] = trim_mask[:, -1] = False
    if not trim_mask.any():
        raise GridTooCoarse("trimmed region is empty")
    x0 = float(grid.x_nodes[x_index])

    def gap(C, side):
        return _envelope_gap(density, grid, s_index, C, side, trim_mask, x0)

    def fit(side: str) -> float:
        lo, hi = 1.0, 1.0
        if gap(lo, side) <= 0.0:
            # C = 1 already works: tighten below 1 to report the smallest constant
            lo = 1.0 / ENVELOPE_C_MAX
            if gap(lo, side) <= 0.0:
                return lo
            hi = 1.0
        else:
            while gap(hi, side) > 0.0:
                hi *= 2.0
                if hi > ENVELOPE_C_MAX:
                    return float("inf")
            lo = hi / 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid, side) > 0.0:
                lo = mid
            else:
                hi = mid
        return hi

    c_high = fit("upper")
    c_low = fit("lower")
    passed = np.isfinite(c_high) and np.isfinite(c_low)
    return AronsonEnvelope(c_low=float(c_low), C_high=float(c_high), passed=bool(passed))


@dataclass
class GIntegral:
    value: float
    ci: float


def estimate_g_integral(ensemble: PathEnsemble, g) -> GIntegral:
    """Monte Carlo estimate of E integral_s^T |g(t, X_t)|^2 dt (trapezoid in t)."""
    n, m = ensemble.n_steps, ensemble.path_count
    acc = np.zeros(m)
    with closing(ensemble._read(backward=False)) as rows:
        for k, xk, _ in rows:
            w = 0.5 if k in (0, n) else 1.0
            vals = np.asarray(g(float(ensemble.t_nodes[k]), xk), dtype=float)
            acc += w * np.broadcast_to(vals, (m,)) ** 2
    acc *= ensemble.dt_path
    value = float(acc.mean())
    ci = 1.96 * float(acc.std(ddof=1)) / np.sqrt(m) if m > 1 else 0.0
    return GIntegral(value=value, ci=ci)
