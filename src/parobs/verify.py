"""Cross-checks between the deterministic and stochastic halves.

Every check produces a ``CheckReport`` whose budget splits into a named bias
part (discretization / regression, calibrated per scenario and frozen in the
scenario file) and a statistical part (3 confidence intervals).  Checks are
pure: identical inputs give identical reports.

Multi-part checks are normalized: ``discrepancy`` is the worst measured-over-
allowed ratio and the budget is 1, so pass <=> discrepancy <= budget always
holds; the raw per-part numbers live in ``details``.  ``CALIBRATION_DEFAULTS``
holds each ``calibration.*`` budget a scenario leaves out; the fixed budgets
are the other module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .grid import (
    DensityTable,
    SpaceTimeGrid,
    evolve_law,
    interp_space_time,
    interp_stencil,
    solve_density,
    transition_kernel,
)
from .problem import ObstacleProblemSpec
from .solver import DEFAULT_MONO_TOL, ObstacleSolution, solve_penalized, solve_psor, z_field
from .stochastic import (
    LsmcEstimate,
    PathEnsemble,
    RbsdeEstimate,
    rbsde_chain_dp,
    rbsde_reflected_mc,
    simulate_paths,
)

__all__ = [
    "CheckReport",
    "check_representation_u",
    "check_representation_z",
    "check_measure_identity",
    "check_interval_measure",
    "check_skorokhod",
    "check_ac_measure",
    "check_weighted_bounds",
    "check_minimality",
]

_TINY = 1e-12
CALIBRATION_DEFAULTS = {"fk_bias": 1.0, "z_budget": 0.05, "ac_residual_budget": 5e-2,
                        "weighted_lo": 0.2, "weighted_hi": 5.0}
REL_BUDGET = 5e-2
SKOROKHOD_PSOR_BUDGET = 1e-8
SKOROKHOD_PENALTY_CONSTANT = 10.0
K_BIAS_CONSTANT = 2.0
WEIGHTED_PHIS = (("one", np.ones_like), ("gauss-bump", lambda x: np.exp(-0.5 * x**2)),
                 ("tilted", lambda x: 1.0 / (1.0 + x**2)))


@dataclass
class CheckReport:
    name: str
    discrepancy: float
    budget: float
    bias_part: float
    stat_part: float
    passed: bool
    provenance: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _report(name, discrepancy, budget, bias, stat, provenance, details):
    return CheckReport(name=name, discrepancy=float(discrepancy), budget=float(budget),
                       bias_part=float(bias), stat_part=float(stat),
                       passed=bool(discrepancy <= budget), provenance=provenance or {},
                       details=details)


def _snap_indices(grid: SpaceTimeGrid, s: float, x: float):
    s_idx = int(np.clip(round(s / grid.dt), 0, grid.nt - 1))
    x_idx = int(np.clip(round((x - grid.x_nodes[0]) / grid.dx), 1, grid.nx))
    return s_idx, x_idx


def _chain_from(spec, grid, s_idx: int, chain: RbsdeEstimate | None) -> RbsdeEstimate:
    """The chain-dp field from slice ``s_idx``: ``chain`` when given, else built.

    The field does not depend on the start node, so one estimate from
    ``s_idx`` serves every check that starts there.
    """
    if chain is None:
        return rbsde_chain_dp(spec, grid, s_idx, 0)
    if len(chain.t_nodes) != grid.nt - s_idx + 1:
        raise ValueError(f"chain-dp estimate starts at slice {grid.nt + 1 - len(chain.t_nodes)}, "
                         f"the check needs slice {s_idx}")
    return chain


def _density_from(spec, grid, s_idx: int, x_idx: int, dens: DensityTable | None) -> DensityTable:
    """The density from node (s_idx, x_idx): ``dens`` when given, else solved."""
    if dens is None:
        return solve_density(spec, grid, s_idx, x_idx)
    if (dens.s_index, dens.x_index) != (s_idx, x_idx):
        raise ValueError(f"density starts at node {(dens.s_index, dens.x_index)}, "
                         f"the check needs node {(s_idx, x_idx)}")
    return dens


# ---------------------------------------------------------------------------

def check_representation_u(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, probes,
                           mc_params: dict, sol: ObstacleSolution | None = None,
                           bias_constant: float = CALIBRATION_DEFAULTS["fk_bias"],
                           chain_budget: float = 1e-3,
                           provenance: dict | None = None,
                           probe0_mc: Callable[[], LsmcEstimate] | None = None,
                           chain: RbsdeEstimate | None = None) -> CheckReport:
    """Feynman-Kac check: grid solution against reflected-mc and chain-dp values.

    Per probe, the Monte Carlo budget is 3 CI + bias_constant (dt + dx^2); the
    chain comparison must sit within ``chain_budget``.  ``mc_params`` holds
    the scenario's ``paths``, ``dt_path``, ``seed`` and ``basis_degree``, all
    required.  Probe ``j`` simulates with seed ``seed + j`` from its snapped
    node.  ``probe0_mc`` returns the reflected-mc estimate on probe 0's
    ensemble and ``chain`` is the chain-dp estimate from slice 0; each is
    computed here when not given.  Probe 0 is evaluated last, so that a
    shared estimate behind ``probe0_mc`` is built only once no other probe's
    ensemble is alive.
    """
    if sol is None:
        sol = solve_psor(spec, grid)
    chain = _chain_from(spec, grid, 0, chain)
    paths = int(mc_params["paths"])
    dt_path = float(mc_params["dt_path"])
    seed = int(mc_params["seed"])
    degree = int(mc_params["basis_degree"])
    bias = bias_constant * (grid.dt + grid.dx**2)

    rows = [None] * len(probes)
    ratios = [0.0] * len(probes)
    stats = [0.0] * len(probes)
    for j in ([*range(1, len(probes)), 0] if probes else []):
        s_idx, x_idx = _snap_indices(grid, *probes[j])
        s_snap, x_snap = float(grid.t_nodes[s_idx]), float(grid.x_nodes[x_idx])
        u_val = float(sol.u_values[s_idx, x_idx])
        if j == 0 and probe0_mc is not None:
            mc = probe0_mc()
        else:
            mc = rbsde_reflected_mc(spec, simulate_paths(spec, s_snap, x_snap, dt_path, paths,
                                                         seed + j), degree)
        stats[j] = 3.0 * mc.ci
        mc_budget = stats[j] + bias
        mc_disc = abs(u_val - mc.Y0)
        chain_disc = abs(u_val - chain.Y[s_idx, x_idx])
        ratios[j] = max(mc_disc / max(mc_budget, _TINY), chain_disc / chain_budget)
        rows[j] = {"s": s_snap, "x": x_snap, "u": u_val, "mc_Y0": mc.Y0, "mc_ci": mc.ci,
                   "chain_Y0": float(chain.Y[s_idx, x_idx]), "mc_disc": mc_disc,
                   "mc_budget": mc_budget, "chain_disc": chain_disc}
        del mc  # the next probe is simulated with no ensemble or estimate held
    worst = 0.0
    worst_bias = worst_stat = 0.0
    for ratio, stat in zip(ratios, stats):
        if ratio >= worst:
            worst, worst_bias, worst_stat = ratio, bias, stat
    return _report("representation-u", worst, 1.0, worst_bias, worst_stat, provenance,
                   {"probes": rows, "chain_budget": chain_budget})


def check_representation_z(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                           ensemble: PathEnsemble, sol: ObstacleSolution | None = None,
                           basis_degree: int = 3,
                           z_budget: float = CALIBRATION_DEFAULTS["z_budget"],
                           provenance: dict | None = None,
                           mc: LsmcEstimate | None = None) -> CheckReport:
    """Time-integrated RMS distance between sigma Du along paths and the MC Z.

    ``mc`` is the reflected-mc estimate on ``ensemble`` at ``basis_degree``;
    it is computed here when not given.
    """
    if sol is None:
        sol = solve_psor(spec, grid)
    z_grid = z_field(spec, grid, sol.u_values)
    if mc is None:
        mc = rbsde_reflected_mc(spec, ensemble, basis_degree)
    acc = 0.0
    for k in range(ensemble.n_steps):
        zpde = interp_space_time(grid, z_grid, float(ensemble.t_nodes[k]), ensemble.x(k))
        acc += float(np.mean((zpde - mc.z_at(k)) ** 2)) * ensemble.dt_path
    value = float(np.sqrt(acc))
    return _report("representation-z", value, z_budget, z_budget, 0.0, provenance,
                   {"mse_time_integral": acc, "paths": ensemble.path_count})


def default_test_functions(spec: ObstacleProblemSpec):
    T = spec.T
    return [
        ("one", lambda t, x: np.ones_like(np.asarray(x, dtype=float))),
        ("cos-x", lambda t, x: np.cos(np.asarray(x, dtype=float))),
        ("time-bump", lambda t, x: np.exp(-((t - 0.5 * T) / (0.25 * T)) ** 2)
                                   * np.ones_like(np.asarray(x, dtype=float))),
    ]


def check_measure_identity(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, s: float, x: float,
                           sol: ObstacleSolution | None = None,
                           mc_params: dict | None = None, method: str = "chain-dp",
                           provenance: dict | None = None,
                           chain: RbsdeEstimate | None = None,
                           dens: DensityTable | None = None) -> CheckReport:
    """E int xi dK against the p-weighted cell sums of the measure density.

    The left side uses the exact chain-dp increments weighted by the discrete
    density (default) or reflected-mc K along simulated paths.  The MC route
    (``mc_params`` with every ``mc.*`` key, as in ``check_representation_u``)
    is only quantitative when the regression basis spans the value function:
    its per-date increments (h - C)^+ inherit the full basis misfit, which
    swamps increments of size r dt on kinked payoffs.  ``chain`` (the chain-dp
    estimate from the snapped start slice) and ``dens`` (the density from the
    snapped start node) are computed here when not given.
    """
    if sol is None:
        sol = solve_psor(spec, grid)
    test_functions = default_test_functions(spec)
    s_idx, x_idx = _snap_indices(grid, s, x)
    dens = _density_from(spec, grid, s_idx, x_idx, dens)

    # right side: sum of xi p r over cells, one pass per test function
    rights = {name: 0.0 for name, _ in test_functions}
    for rel_k, k in enumerate(range(s_idx, grid.nt)):
        t = float(grid.t_nodes[k])
        pm = dens.values[rel_k]
        row = pm * sol.r_values[k] * grid.dt
        for name, xi in test_functions:
            rights[name] += float(np.sum(np.asarray(xi(t, grid.x_nodes), dtype=float) * row))

    lefts = {name: 0.0 for name, _ in test_functions}
    stat = 0.0
    if method == "chain-dp":
        chain = _chain_from(spec, grid, s_idx, chain)
        for rel_k, k in enumerate(range(s_idx, grid.nt)):
            t = float(grid.t_nodes[k])
            row = dens.values[rel_k] * chain.dK[rel_k]
            for name, xi in test_functions:
                lefts[name] += float(np.sum(np.asarray(xi(t, grid.x_nodes), dtype=float) * row))
    elif method == "reflected-mc":
        if mc_params is None:
            raise ValueError("the reflected-mc route needs mc_params")
        paths = int(mc_params["paths"])
        dt_path = float(mc_params["dt_path"])
        seed = int(mc_params["seed"])
        degree = int(mc_params["basis_degree"])
        ens = simulate_paths(spec, float(grid.t_nodes[s_idx]), float(grid.x_nodes[x_idx]),
                             dt_path, paths, seed)
        mc = rbsde_reflected_mc(spec, ens, degree)
        per_path = {name: np.zeros(paths) for name, _ in test_functions}
        for k in range(ens.n_steps):
            t = float(ens.t_nodes[k])
            _, _, dk = mc.at(k)
            for name, xi in test_functions:
                per_path[name] += np.asarray(xi(t, ens.x(k)), dtype=float) * dk
        for name, _ in test_functions:
            lefts[name] = float(per_path[name].mean())
            stat = max(stat, 1.96 * float(per_path[name].std(ddof=1)) / np.sqrt(paths))
    else:
        raise ValueError(f"unknown method {method!r}")

    rows = {}
    worst = 0.0
    for name, _ in test_functions:
        l, r = lefts[name], rights[name]
        scale = max(abs(l), abs(r))
        rel = 0.0 if scale < _TINY else abs(l - r) / scale
        rows[name] = {"left": l, "right": r, "rel": rel}
        worst = max(worst, rel / REL_BUDGET)
    return _report("measure-identity", worst, 1.0, REL_BUDGET, stat, provenance, rows)


def check_interval_measure(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t1: float, t2: float,
                           F: tuple[float, float], sol: ObstacleSolution | None = None,
                           provenance: dict | None = None,
                           chain: RbsdeEstimate | None = None) -> CheckReport:
    """mu([t1, t2] x F) from cell sums against the chain expectation from every
    grid start integrated over the truncation.

    ``chain`` is the chain-dp estimate from the first slice at or after t1;
    it is computed here when not given.
    """
    if sol is None:
        sol = solve_psor(spec, grid)
    k1 = int(np.ceil(t1 / grid.dt - 1e-12))
    k2 = int(np.floor(t2 / grid.dt + 1e-12))  # steps with t1 <= t_k < t2
    f_mask = (grid.x_nodes >= F[0] - 1e-12) & (grid.x_nodes <= F[1] + 1e-12)
    f_mask[0] = f_mask[-1] = False

    left = 0.0
    for k in range(max(k1, 0), min(k2, grid.nt)):
        left += float(np.sum(sol.r_values[k, f_mask])) * grid.dx * grid.dt

    right = 0.0
    if k2 > k1 and k1 < grid.nt:
        chain = _chain_from(spec, grid, k1, chain)
        # evolve the dx start measure with the mass-conserving reflecting
        # kernel: the continuum identity integrates starts over all of R, so
        # flux through the truncation must cancel rather than absorb; the
        # law is carried only as far as the last slice summed
        w0 = np.zeros(grid.nx + 2)
        w0[1:-1] = grid.dx
        laws = evolve_law(spec, grid, w0, k1, mode="reflecting")
        for k, w in islice(laws, min(k2, grid.nt) - k1):
            right += float(np.sum(w[f_mask] * chain.dK[k - k1, f_mask]))

    scale = max(abs(left), abs(right))
    rel = 0.0 if scale < _TINY else abs(left - right) / scale
    return _report("interval-measure", rel / REL_BUDGET, 1.0, REL_BUDGET, 0.0, provenance,
                   {"left": left, "right": right, "t1": t1, "t2": t2, "F": list(F)})


def check_skorokhod(sol: ObstacleSolution, n_penalty: int | None = None,
                    provenance: dict | None = None) -> CheckReport:
    """Normalized flat-off-contact functional sum (u - h) r / sum r.

    Exactly zero off contact for ``solve_psor`` by construction; of size C / n for a
    penalized solution at level n (C = SKOROKHOD_PENALTY_CONSTANT).
    """
    h_field = sol.diagnostics.get("h_field")
    if h_field is None:
        raise ValueError("solution lacks the obstacle field needed for the Skorokhod check")
    num = float(np.sum((sol.u_values - h_field) * sol.r_values))
    den = float(np.sum(sol.r_values))
    value = 0.0 if den < _TINY else abs(num) / den
    budget = SKOROKHOD_PSOR_BUDGET if n_penalty is None else SKOROKHOD_PENALTY_CONSTANT / n_penalty
    return _report("skorokhod", value, budget, budget, 0.0, provenance,
                   {"numerator": num, "normalizer": den, "n_penalty": n_penalty})


def _ac_path_sums(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, ensemble: PathEnsemble,
                  sol: ObstacleSolution) -> tuple[np.ndarray, np.ndarray]:
    """Per-path backward-equation residual of (u, sigma Du, K~) and K~_T.

    One interpolation stencil per date serves u, sigma Du and r.
    """
    z_grid = z_field(spec, grid, sol.u_values)
    n, m = ensemble.n_steps, ensemble.path_count
    dt = ensemble.dt_path
    total = np.zeros(m)
    k_tilde = np.zeros(m)
    for k in range(n):
        t = float(ensemble.t_nodes[k])
        xk = ensemble.x(k)
        stencil = interp_stencil(grid, t, xk)
        u_itp = stencil.gather(sol.u_values)
        z_itp = stencil.gather(z_grid)
        r_itp = stencil.gather(sol.r_values)
        if k == 0:
            u_start = u_itp
        fval = np.asarray(spec.driver.f(t, xk, u_itp, z_itp), dtype=float)
        total += fval * dt + r_itp * dt - z_itp * ensemble.dW[k]
        k_tilde += r_itp * dt
    phi_T = np.asarray(spec.obstacle.phi(ensemble.x(n)), dtype=float)
    return phi_T + total - u_start, k_tilde


def check_ac_measure(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, ensemble: PathEnsemble,
                     sol: ObstacleSolution | None = None, basis_degree: int = 3,
                     residual_budget: float = CALIBRATION_DEFAULTS["ac_residual_budget"],
                     provenance: dict | None = None,
                     mc: LsmcEstimate | None = None,
                     chain: RbsdeEstimate | None = None,
                     dens: DensityTable | None = None) -> CheckReport:
    """Absolute-continuity check: K~ = int r(t, X_t) dt built from the grid
    density must make (u, sigma Du, K~) satisfy the backward equation along
    paths, and its terminal mean must match the chain K expectation.

    The reflected-mc terminal K is reported alongside for reference: its
    per-date increments (h - C)^+ collect the positive part of the regression
    error, a bias whose ratio to the CI does not shrink with the sample size,
    so the exact chain expectation is the sound comparison target.  ``mc`` is
    that estimate on ``ensemble`` at ``basis_degree``.  ``chain`` (the
    chain-dp estimate from the snapped start slice) and ``dens`` (the density
    from the snapped start node) are the chain-side references.  Each is
    computed here when not given.
    """
    if sol is None:
        sol = solve_psor(spec, grid)
    residual, k_tilde = _ac_path_sums(spec, grid, ensemble, sol)
    m = ensemble.path_count
    res_rms = float(np.sqrt(np.mean(residual**2)))

    # exact chain expectation of K_T from the snapped ensemble start
    s_idx, x_idx = _snap_indices(grid, float(ensemble.t_nodes[0]), ensemble.x_start)
    chain = _chain_from(spec, grid, s_idx, chain)
    dens = _density_from(spec, grid, s_idx, x_idx, dens)
    k_chain = 0.0
    for rel_k in range(grid.nt - s_idx):
        k_chain += float(np.sum(dens.values[rel_k] * chain.dK[rel_k]))

    mean_gap = abs(float(k_tilde.mean()) - k_chain)
    stat = 3.0 * 1.96 * float(k_tilde.std(ddof=1)) / np.sqrt(m)
    k_budget = stat + K_BIAS_CONSTANT * (grid.dt + grid.dx**2)
    worst = max(res_rms / residual_budget, mean_gap / max(k_budget, _TINY))

    if mc is None:
        mc = rbsde_reflected_mc(spec, ensemble, basis_degree)
    k_mc_mean = float(mc.K_T.mean())
    return _report("ac-measure", worst, 1.0, residual_budget, stat, provenance,
                   {"bsde_residual_rms": res_rms, "k_mean_gap": mean_gap,
                    "k_tilde_mean": float(k_tilde.mean()), "k_chain_mean": k_chain,
                    "k_mc_mean_reference": k_mc_mean, "k_budget": k_budget})


def check_weighted_bounds(spec: ObstacleProblemSpec, grid: SpaceTimeGrid,
                          bounds: tuple[float, float] = (CALIBRATION_DEFAULTS["weighted_lo"],
                                                         CALIBRATION_DEFAULTS["weighted_hi"]),
                          provenance: dict | None = None) -> CheckReport:
    """Two-sided weighted-norm equivalence ratios for terminal and running data.

    R(phi) compares the rho-weighted mass of E |phi(X_T)| against that of phi
    (phi in WEIGHTED_PHIS, running data g = 1, rho the spec's weight);
    the check also reports the max pointwise kernel-bound ratio
    E |phi(X_T)|^2 rho^2(x) sqrt(T - s) / |phi|^2_{2, rho}.
    """
    rho = spec.weight.rho(grid.x_nodes)

    # the rho dx start measure over interior starts, carried to every slice
    w0 = np.zeros(grid.nx + 2)
    w0[1:-1] = grid.dx * rho[1:-1]
    evo = list(evolve_law(spec, grid, w0, 0))
    w_final = evo[-1][1]

    rows = {}
    worst = 0.0
    lo, hi = bounds
    for name, phi_fn in WEIGHTED_PHIS:
        vals = np.abs(np.asarray(phi_fn(grid.x_nodes), dtype=float))
        num = float(np.sum(vals * w_final))
        den = float(np.sum(vals[1:-1] * rho[1:-1]) * grid.dx)
        R = num / den if den > 0 else float("inf")
        rows[name] = R
        worst = max(worst, R / hi, lo / R if R > 0 else float("inf"))

    g_num = g_den = 0.0
    for _, w in evo:
        g_num += float(np.sum(w)) * grid.dt
        g_den += float(np.sum(rho[1:-1]) * grid.dx) * grid.dt
    R_g = g_num / g_den if g_den > 0 else float("inf")
    worst = max(worst, R_g / hi, lo / R_g if R_g > 0 else float("inf"))

    # pointwise kernel-bound shape for the bump probe, by one backward pass
    bump = np.exp(-0.5 * grid.x_nodes**2)
    norm_sq = float(np.sum((bump[1:-1] * rho[1:-1]) ** 2) * grid.dx)
    v = bump**2
    max_shape = 0.0
    for k in range(grid.nt - 1, -1, -1):
        v = transition_kernel(spec, grid, k).apply(v)
        t_gap = spec.T - float(grid.t_nodes[k])
        if t_gap >= 0.25 * spec.T:
            ratio = float(np.max(v[1:-1] * rho[1:-1] ** 2)) * np.sqrt(t_gap) / norm_sq
            max_shape = max(max_shape, ratio)

    details = {"R": rows, "R_g": R_g, "kernel_bound_max_ratio": max_shape, "bounds": list(bounds)}
    return _report("weighted-bounds", worst, 1.0, hi, 0.0, provenance, details)


def check_minimality(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, n_schedule,
                     sol_psor: ObstacleSolution | None = None, gap_budget: float = 1e-3,
                     provenance: dict | None = None) -> CheckReport:
    """Penalized solutions approach the unique complementarity solution from below."""
    if sol_psor is None:
        sol_psor = solve_psor(spec, grid)
    overshoot = 0.0
    last = None
    for n in n_schedule:
        pen = solve_penalized(spec, grid, int(n))
        overshoot = max(overshoot, float(np.max(pen.u_values - sol_psor.u_values)))
        last = pen
    gap = float(np.max(np.abs(last.u_values - sol_psor.u_values)))
    worst = max(overshoot / DEFAULT_MONO_TOL, gap / gap_budget)
    return _report("minimality", worst, 1.0, gap_budget, 0.0, provenance,
                   {"overshoot": overshoot, "final_gap": gap,
                    "n_final": int(n_schedule[-1])})
