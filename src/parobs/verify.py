"""Cross-checks between the deterministic and stochastic halves.

Every check produces a ``CheckReport`` whose budget splits into a named bias
part (discretization / regression, calibrated per scenario and frozen in the
scenario file) and a statistical part (3 confidence intervals).  Checks are
pure: identical inputs give identical reports.

Multi-part checks are normalized: ``discrepancy`` is the worst measured-over-
allowed ratio and the budget is 1, so pass <=> discrepancy <= budget always
holds; the raw per-part numbers live in ``details``.  ``CALIBRATION_DEFAULTS``
holds each ``calibration.*`` budget a scenario leaves out; the fixed budgets
are the other module constants.  A check reads its calibrated budgets from
the ``VerifyContext`` it is given, and its solves stop at the tolerances of
the context's spec; its own arguments say only what to check.

A check reads the objects it shares with other checks (the complementarity
solution, the Monte Carlo ensemble and its reflected-LSMC fit, the forward
sweep over that ensemble, the chain-dp field and the densities) from a
``VerifyContext``, which builds each of them once, on first read.  The sweep
is one forward pass over the fit's ensemble for ``representation-z`` and
``ac-measure`` together: per date one row of X and dW from the ensemble's
read-ahead reader, one interpolation stencil and one gather of sigma Du
serve both checks.  The context keeps what it builds until it goes itself.
``CHECKS`` is the one table of the checks ``verify`` runs: per name, how the
check is called.  ``run_checks`` runs names from it in order on one context.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .errors import ScenarioError
from .grid import (
    DensityTable,
    SpaceTimeGrid,
    _step_kernels,
    evolve_law,
    interp_stencil,
    solve_density,
    transition_kernel,  # noqa: F401  (not called here; the bench's tracer tests bind it)
)
from .problem import ObstacleProblemSpec
from .solver import DEFAULT_MONO_TOL, ObstacleSolution, _penalized_march, solve_psor, z_field
from .stochastic import (
    LsmcEstimate,
    RbsdeEstimate,
    rbsde_chain_dp,
    rbsde_reflected_mc,
    simulate_paths,
)

__all__ = [
    "CheckReport",
    "VerifyContext",
    "CHECKS",
    "ALL_CHECKS",
    "select_checks",
    "run_checks",
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
CHAIN_BUDGET = 1e-3
SKOROKHOD_PSOR_BUDGET = 1e-8
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
    details: dict = field(default_factory=dict)


def _report(name, discrepancy, budget, bias, stat, details):
    return CheckReport(name=name, discrepancy=float(discrepancy), budget=float(budget),
                       bias_part=float(bias), stat_part=float(stat),
                       passed=bool(discrepancy <= budget), details=details)


class VerifyContext:
    """One verify run's inputs and the objects its checks share.

    ``mc_params`` holds ``paths``, ``dt_path``, ``seed`` and ``basis_degree``;
    ``calibration`` overrides ``CALIBRATION_DEFAULTS``, resolved once, here,
    and read by the checks from the context.  The complementarity solve and
    ``minimality``'s penalized march stop at the tolerances of ``spec``.
    Each shared object is built on first read, so a run whose checks never
    read one never builds it, and kept as long as the context:

    * ``sol``: the complementarity (PSOR) solution;
    * ``lsmc``: the reflected-LSMC fit on the run's ensemble (its
      ``ensemble``), simulated from time 0 at the grid node ``x_index`` that
      the domain midpoint ``probe_x`` snaps to, with the run seed;
    * ``sweep``: the ``PathSweep`` sums of one forward pass over that
      ensemble, read by ``representation-z`` and ``ac-measure``;
    * ``chain``: the chain-dp field from slice 0; its row k is the row k of
      the field from any start slice k1 <= k, bit for bit;
    * ``densities``: the densities ``density`` has solved, keyed by start node.
    """

    def __init__(self, spec: ObstacleProblemSpec, grid: SpaceTimeGrid, mc_params: dict,
                 calibration: dict | None = None):
        self.spec, self.grid = spec, grid
        self.paths = int(mc_params["paths"])
        self.dt_path = float(mc_params["dt_path"])
        self.seed = int(mc_params["seed"])
        self.basis_degree = int(mc_params["basis_degree"])
        self.calibration = {**CALIBRATION_DEFAULTS, **(calibration or {})}
        self.probe_x = 0.5 * (spec.x_lo + spec.x_hi)
        _, self.x_index = grid.nearest_node(0.0, self.probe_x)

    @cached_property
    def sol(self) -> ObstacleSolution:
        return solve_psor(self.spec, self.grid)

    @cached_property
    def lsmc(self) -> LsmcEstimate:
        return self._fit(0, self.x_index, self.seed)

    @cached_property
    def sweep(self) -> PathSweep:
        return _path_sweep(self.grid, self.sol, self.lsmc)

    @cached_property
    def chain(self) -> RbsdeEstimate:
        return rbsde_chain_dp(self.spec, self.grid, 0)

    @cached_property
    def densities(self) -> dict:
        return {}

    def density(self, s_idx: int, x_idx: int) -> DensityTable:
        """The density from grid node (s_idx, x_idx)."""
        if (s_idx, x_idx) not in self.densities:
            self.densities[s_idx, x_idx] = solve_density(self.spec, self.grid, s_idx, x_idx)
        return self.densities[s_idx, x_idx]

    def reflected_mc(self, s_idx: int, x_idx: int, seed: int) -> LsmcEstimate:
        """The reflected-LSMC fit on an ensemble from grid node (s_idx, x_idx)
        with ``seed``: ``lsmc`` for its node and seed, else a fit not kept."""
        if (s_idx, x_idx, seed) == (0, self.x_index, self.seed):
            return self.lsmc
        return self._fit(s_idx, x_idx, seed)

    def _fit(self, s_idx: int, x_idx: int, seed: int) -> LsmcEstimate:
        ens = simulate_paths(self.spec, float(self.grid.t_nodes[s_idx]),
                             float(self.grid.x_nodes[x_idx]), self.dt_path, self.paths, seed)
        return rbsde_reflected_mc(ens, self.basis_degree)


# ---------------------------------------------------------------------------

def check_representation_u(ctx: VerifyContext, probes) -> CheckReport:
    """Feynman-Kac check: grid solution against reflected-LSMC and chain-dp values.

    Per probe, the Monte Carlo budget is 3 CI + fk_bias (dt + dx^2), with the
    context's calibrated fk_bias; the chain comparison must sit within
    ``CHAIN_BUDGET``.  Probe ``j`` is fitted by ``ctx.reflected_mc`` from its
    snapped node with seed ``seed + j``.
    Probe 0 is evaluated last, so that when it is the context's shared fit,
    that fit is built only once no other probe's ensemble is alive.
    """
    grid, sol, chain = ctx.grid, ctx.sol, ctx.chain
    bias = ctx.calibration["fk_bias"] * (grid.dt + grid.dx**2)

    rows = [None] * len(probes)
    ratios = [0.0] * len(probes)
    stats = [0.0] * len(probes)
    for j in ([*range(1, len(probes)), 0] if probes else []):
        s_idx, x_idx = grid.nearest_node(*probes[j])
        s_snap, x_snap = float(grid.t_nodes[s_idx]), float(grid.x_nodes[x_idx])
        u_val = float(sol.u_values[s_idx, x_idx])
        mc = ctx.reflected_mc(s_idx, x_idx, ctx.seed + j)
        stats[j] = 3.0 * mc.ci
        mc_budget = stats[j] + bias
        mc_disc = abs(u_val - mc.Y0)
        chain_disc = abs(u_val - chain.Y[s_idx, x_idx])
        ratios[j] = max(mc_disc / max(mc_budget, _TINY), chain_disc / CHAIN_BUDGET)
        rows[j] = {"s": s_snap, "x": x_snap, "u": u_val, "mc_Y0": mc.Y0, "mc_ci": mc.ci,
                   "chain_Y0": float(chain.Y[s_idx, x_idx]), "mc_disc": mc_disc,
                   "mc_budget": mc_budget, "chain_disc": chain_disc}
        del mc  # the next probe is simulated with no ensemble or estimate held
    worst = 0.0
    worst_bias = worst_stat = 0.0
    for ratio, stat in zip(ratios, stats):
        if ratio >= worst:
            worst, worst_bias, worst_stat = ratio, bias, stat
    return _report("representation-u", worst, 1.0, worst_bias, worst_stat,
                   {"probes": rows, "chain_budget": CHAIN_BUDGET})


def check_representation_z(ctx: VerifyContext) -> CheckReport:
    """Time-integrated RMS distance between sigma Du along the context's
    ensemble and the Z of its reflected-LSMC fit, from the context's sweep,
    within the calibrated ``z_budget``."""
    acc = ctx.sweep.z_mse
    value = float(np.sqrt(acc))
    z_budget = ctx.calibration["z_budget"]
    return _report("representation-z", value, z_budget, z_budget, 0.0,
                   {"mse_time_integral": acc, "paths": ctx.lsmc.ensemble.path_count})


def default_test_functions(spec: ObstacleProblemSpec):
    T = spec.T
    return [
        ("one", lambda t, x: np.ones_like(np.asarray(x, dtype=float))),
        ("cos-x", lambda t, x: np.cos(np.asarray(x, dtype=float))),
        ("time-bump", lambda t, x: np.exp(-((t - 0.5 * T) / (0.25 * T)) ** 2)
                                   * np.ones_like(np.asarray(x, dtype=float))),
    ]


def check_measure_identity(ctx: VerifyContext, s: float, x: float) -> CheckReport:
    """E int xi dK against the p-weighted cell sums of the measure density.

    The left side sums the exact chain-dp increments weighted by the
    discrete density from the snapped start, so the check has no
    statistical part.
    """
    spec, grid, sol = ctx.spec, ctx.grid, ctx.sol
    test_functions = default_test_functions(spec)
    s_idx, x_idx = grid.nearest_node(s, x)

    # one pass: xi p dK on the chain (left) and xi p r dt over cells (right);
    # the chain-dp field is built before the density is solved
    chain, dens = ctx.chain, ctx.density(s_idx, x_idx)
    lefts = {name: 0.0 for name, _ in test_functions}
    rights = dict(lefts)
    for rel_k, k in enumerate(range(s_idx, grid.nt)):
        t = float(grid.t_nodes[k])
        pm = dens.values[rel_k]
        left_row = pm * chain.dK[k]
        right_row = pm * sol.r_values[k] * grid.dt
        for name, xi in test_functions:
            weights = np.asarray(xi(t, grid.x_nodes), dtype=float)
            lefts[name] += float(np.sum(weights * left_row))
            rights[name] += float(np.sum(weights * right_row))

    rows = {}
    worst = 0.0
    for name, _ in test_functions:
        l, r = lefts[name], rights[name]
        scale = max(abs(l), abs(r))
        rel = 0.0 if scale < _TINY else abs(l - r) / scale
        rows[name] = {"left": l, "right": r, "rel": rel}
        worst = max(worst, rel / REL_BUDGET)
    return _report("measure-identity", worst, 1.0, REL_BUDGET, 0.0, rows)


def check_interval_measure(ctx: VerifyContext, t1: float, t2: float,
                           F: tuple[float, float]) -> CheckReport:
    """mu([t1, t2] x F) from cell sums against the chain expectation from every
    grid start integrated over the truncation.

    mu lives on [0, T], so a window that starts before 0 is summed from 0.
    """
    spec, grid, sol = ctx.spec, ctx.grid, ctx.sol
    k1 = max(int(np.ceil(t1 / grid.dt - 1e-12)), 0)
    k2 = int(np.floor(t2 / grid.dt + 1e-12))  # steps with t1 <= t_k < t2
    f_mask = (grid.x_nodes >= F[0] - 1e-12) & (grid.x_nodes <= F[1] + 1e-12)
    f_mask[0] = f_mask[-1] = False

    left = 0.0
    for k in range(k1, min(k2, grid.nt)):
        left += float(np.sum(sol.r_values[k, f_mask])) * grid.dx * grid.dt

    right = 0.0
    if k2 > k1 and k1 < grid.nt:
        # evolve the dx start measure under the spec's reflecting twin, whose
        # kernels conserve mass: the continuum identity integrates starts over
        # all of R, so flux through the truncation must cancel rather than
        # absorb; the law is carried only as far as the last slice summed
        w0 = np.zeros(grid.nx + 2)
        w0[1:-1] = grid.dx
        laws = evolve_law(replace(spec, boundary_mode="reflecting"), grid, w0, k1)
        for k, w in islice(laws, min(k2, grid.nt) - k1):
            right += float(np.sum(w[f_mask] * ctx.chain.dK[k, f_mask]))

    scale = max(abs(left), abs(right))
    rel = 0.0 if scale < _TINY else abs(left - right) / scale
    return _report("interval-measure", rel / REL_BUDGET, 1.0, REL_BUDGET, 0.0,
                   {"left": left, "right": right, "t1": t1, "t2": t2, "F": list(F)})


def check_skorokhod(sol: ObstacleSolution) -> CheckReport:
    """Normalized flat-off-contact functional sum (u - h) r / sum r of a
    complementarity solution: exactly zero off contact by construction, so
    within ``SKOROKHOD_PSOR_BUDGET``.
    """
    h_field = sol.diagnostics.get("h_field")
    if h_field is None:
        raise ValueError("solution lacks the obstacle field needed for the Skorokhod check")
    num = float(np.sum((sol.u_values - h_field) * sol.r_values))
    den = float(np.sum(sol.r_values))
    value = 0.0 if den < _TINY else abs(num) / den
    return _report("skorokhod", value, SKOROKHOD_PSOR_BUDGET, SKOROKHOD_PSOR_BUDGET, 0.0,
                   {"numerator": num, "normalizer": den})


class PathSweep(NamedTuple):
    """What ``representation-z`` and ``ac-measure`` read from one forward
    pass over an ensemble (``_path_sweep``); it holds no path row."""
    z_mse: float             # time integral of the mean squared sigma Du - Z gap
    residual: np.ndarray     # per-path backward-equation residual of (u, sigma Du, K~)
    k_tilde: np.ndarray      # per-path K~_T = int r(t, X_t) dt


def _path_sweep(grid: SpaceTimeGrid, sol: ObstacleSolution, mc: LsmcEstimate) -> PathSweep:
    """The ``PathSweep`` of the ensemble of ``mc``, in one forward pass,
    under the ensemble's problem.

    Per date: one row of X and dW from the ensemble's forward reader, whose
    helper steps the next date meanwhile, one interpolation stencil that
    serves u, sigma Du and r, and the fit's Z from that row.  Each row is
    used only at its own date; the terminal row gives phi(X_T).
    """
    ensemble = mc.ensemble
    spec = ensemble.spec
    z_grid = z_field(spec, grid, sol.u_values)
    n, m = ensemble.n_steps, ensemble.path_count
    dt = ensemble.dt_path
    z_mse = 0.0
    total = np.zeros(m)
    k_tilde = np.zeros(m)
    with closing(ensemble._read(backward=False)) as rows:
        for k, xk, dw in rows:
            if k == n:
                total += np.asarray(spec.obstacle.phi(xk), dtype=float)
                break
            t = float(ensemble.t_nodes[k])
            stencil = interp_stencil(grid, t, xk)
            u_itp = stencil.gather(sol.u_values)
            z_itp = stencil.gather(z_grid)
            r_itp = stencil.gather(sol.r_values)
            if k == 0:
                u_start = u_itp
            z_mse += float(np.mean((z_itp - mc._z(k, xk)) ** 2)) * dt
            fval = np.asarray(spec.driver.f(t, xk, u_itp, z_itp), dtype=float)
            total += fval * dt + r_itp * dt - z_itp * dw
            k_tilde += r_itp * dt
    return PathSweep(z_mse, total - u_start, k_tilde)


def check_ac_measure(ctx: VerifyContext) -> CheckReport:
    """Absolute-continuity check: K~ = int r(t, X_t) dt built from the grid
    density must make (u, sigma Du, K~) satisfy the backward equation along
    the context's ensemble, within the calibrated ``ac_residual_budget``, and
    its terminal mean must match the chain K expectation from the ensemble's
    start node.

    The terminal K of the context's reflected-LSMC fit is reported alongside
    for reference: its per-date increments (h - C)^+ collect the positive
    part of the regression error, a bias whose ratio to the CI does not
    shrink with the sample size, so the exact chain expectation is the sound
    comparison target.
    """
    grid, mc = ctx.grid, ctx.lsmc
    residual_budget = ctx.calibration["ac_residual_budget"]
    residual, k_tilde = ctx.sweep.residual, ctx.sweep.k_tilde
    res_rms = float(np.sqrt(np.mean(residual**2)))

    chain, dens = ctx.chain, ctx.density(0, ctx.x_index)
    k_chain = 0.0
    for k in range(grid.nt):
        k_chain += float(np.sum(dens.values[k] * chain.dK[k]))

    mean_gap = abs(float(k_tilde.mean()) - k_chain)
    stat = 3.0 * 1.96 * float(k_tilde.std(ddof=1)) / np.sqrt(k_tilde.size)
    k_budget = stat + K_BIAS_CONSTANT * (grid.dt + grid.dx**2)
    worst = max(res_rms / residual_budget, mean_gap / max(k_budget, _TINY))

    k_mc_mean = float(mc.K_T.mean())
    return _report("ac-measure", worst, 1.0, residual_budget, stat,
                   {"bsde_residual_rms": res_rms, "k_mean_gap": mean_gap,
                    "k_tilde_mean": float(k_tilde.mean()), "k_chain_mean": k_chain,
                    "k_mc_mean_reference": k_mc_mean, "k_budget": k_budget})


def check_weighted_bounds(ctx: VerifyContext) -> CheckReport:
    """Two-sided weighted-norm equivalence ratios for terminal and running data.

    R(phi) compares the rho-weighted mass of E |phi(X_T)| against that of phi
    (phi in WEIGHTED_PHIS, running data g = 1, rho the spec's weight); each
    ratio must lie within the calibrated [weighted_lo, weighted_hi].  The
    check also reports the max pointwise kernel-bound ratio
    E |phi(X_T)|^2 rho^2(x) sqrt(T - s) / |phi|^2_{2, rho}.
    """
    spec, grid = ctx.spec, ctx.grid
    lo, hi = ctx.calibration["weighted_lo"], ctx.calibration["weighted_hi"]
    rho = spec.weight.rho(grid.x_nodes)

    # the rho dx start measure over interior starts, carried to every slice;
    # the running-data sums fold each slice as it comes, the last one is kept
    w0 = np.zeros(grid.nx + 2)
    w0[1:-1] = grid.dx * rho[1:-1]
    g_num = g_den = 0.0
    for _, w_final in evolve_law(spec, grid, w0, 0):
        g_num += float(np.sum(w_final)) * grid.dt
        g_den += float(np.sum(rho[1:-1]) * grid.dx) * grid.dt

    rows = {}
    worst = 0.0
    for name, phi_fn in WEIGHTED_PHIS:
        vals = np.abs(np.asarray(phi_fn(grid.x_nodes), dtype=float))
        num = float(np.sum(vals * w_final))
        den = float(np.sum(vals[1:-1] * rho[1:-1]) * grid.dx)
        R = num / den if den > 0 else float("inf")
        rows[name] = R
        worst = max(worst, R / hi, lo / R if R > 0 else float("inf"))

    R_g = g_num / g_den if g_den > 0 else float("inf")
    worst = max(worst, R_g / hi, lo / R_g if R_g > 0 else float("inf"))

    # pointwise kernel-bound shape for the bump probe, by one backward pass
    bump = np.exp(-0.5 * grid.x_nodes**2)
    norm_sq = float(np.sum((bump[1:-1] * rho[1:-1]) ** 2) * grid.dx)
    v = bump**2
    max_shape = 0.0
    for k, t, kern in _step_kernels(spec, grid):
        v = kern.apply(v)
        t_gap = spec.T - t
        if t_gap >= 0.25 * spec.T:
            ratio = (float(np.max(v[1:-1] * rho[1:-1] ** 2)) * np.sqrt(t_gap) / norm_sq
                     if norm_sq > 0 else float("inf"))
            max_shape = max(max_shape, ratio)

    details = {"R": rows, "R_g": R_g, "kernel_bound_max_ratio": max_shape, "bounds": [lo, hi]}
    return _report("weighted-bounds", worst, 1.0, hi, 0.0, details)


def check_minimality(ctx: VerifyContext, n_schedule, gap_budget: float = 1e-3) -> CheckReport:
    """Penalized solutions approach the unique complementarity solution from below.

    The levels march in lockstep against the obstacle field of ``ctx.sol``;
    each slice is folded into every level's overshoot max(u_n - u) and the
    last level's gap max |u_n - u|, so no level's field is held.  A level
    that diverges raises as a level-by-level run would: the first in the
    schedule.
    """
    sol = ctx.sol.u_values
    levels = [int(n) for n in n_schedule]
    over = np.full(len(levels), -np.inf)
    gap = 0.0
    for k, rows, _ in _penalized_march(ctx.spec, ctx.grid, levels, ctx.sol.diagnostics["h_field"]):
        d = rows - sol[k]
        over[:len(d)] = np.maximum(over[:len(d)], np.max(d, axis=1))
        gap = max(gap, float(np.max(np.abs(d[-1]))))
    overshoot = max(0.0, *over.tolist())  # in schedule order, as the level loop took it
    worst = max(overshoot / DEFAULT_MONO_TOL, gap / gap_budget)
    return _report("minimality", worst, 1.0, gap_budget, 0.0,
                   {"overshoot": overshoot, "final_gap": gap,
                    "n_final": int(n_schedule[-1])})


# ---------------------------------------------------------------------------
# The registry of the checks `verify` runs

# Each entry calls its check through this module's globals, so a rebinding of
# a ``check_*`` attribute reaches the registry too.
CHECKS: dict[str, Callable[[VerifyContext], CheckReport]] = {
    "representation-u": lambda c: check_representation_u(
        c, [(0.0, c.probe_x), (0.25 * c.spec.T, c.probe_x),
            (0.0, c.probe_x + 0.25 * (c.spec.x_hi - c.spec.x_lo) / 2)]),
    "representation-z": lambda c: check_representation_z(c),
    "measure-identity": lambda c: check_measure_identity(c, 0.0, c.probe_x),
    "interval-measure": lambda c: check_interval_measure(
        c, 0.0, c.spec.T, (c.spec.x_lo, c.spec.x_hi)),
    "skorokhod": lambda c: check_skorokhod(c.sol),
    "ac-measure": lambda c: check_ac_measure(c),
    "weighted-bounds": lambda c: check_weighted_bounds(c),
    "minimality": lambda c: check_minimality(c, [2**j for j in range(4, 13, 2)]),
}
ALL_CHECKS = tuple(CHECKS)


def select_checks(text: str) -> tuple[str, ...]:
    """The check names of a ``--checks`` value: 'all' or comma-separated names."""
    names = ALL_CHECKS if text == "all" else tuple(text.split(","))
    for name in names:
        if name not in CHECKS:
            raise ScenarioError(f"unknown check {name!r}; choose from {ALL_CHECKS}")
    return names


def run_checks(ctx: VerifyContext, names) -> list[CheckReport]:
    """The reports of the named checks, run in order on ``ctx``."""
    return [CHECKS[name](ctx) for name in names]
