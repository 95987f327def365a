import dataclasses

import numpy as np
import pytest

import parobs.grid as grid_mod
import parobs.solver as solver_mod
from parobs.errors import InnerDivergence, MonotonicityViolation, NoContraction
from parobs.grid import DiscreteOperator, SpaceTimeGrid, _banded_backward_matrix, assemble_operator
from parobs.problem import Coefficients, Driver, ObstacleData, ObstacleProblemSpec, Weight
from parobs.solver import (
    DEFAULT_LCP_TOL,
    PenalizedSolution,
    _contact_tol,
    _lcp_step,
    contraction_gamma,
    obstacle_field,
    obstacle_stability,
    penalization_study,
    picard_outer,
    solve_penalized,
    solve_psor,
    terminal_field,
)

from oracles import (
    apriori_norm_report,
    dense_lcp_solve,
    energy_identity_residual,
    obstacle_replacement_check,
    psor_lcp_solve,
    snell_recursion,
    unconstrained_march,
)


def _zeros(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_driver():
    return Driver(f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
                  L=0.0, M_growth=0.0, g=_zeros)


def _unit_coef(a0=1.0):
    return Coefficients(a=lambda t, x: a0 * np.ones_like(np.asarray(x, float)),
                        a_x=_zeros, lambda_ell=a0, Lambda_ell=a0)


def _make_spec(h, phi, f=None, L=0.0, T=0.5, x_lo=-6.0, x_hi=6.0, a0=1.0,
               h_growth=(40.0, 1.0)):
    driver = _zero_driver() if f is None else Driver(f=f, L=L, M_growth=L, g=_zeros)
    return ObstacleProblemSpec(
        coefficients=_unit_coef(a0), driver=driver,
        obstacle=ObstacleData(h=h, phi=phi, h_growth=h_growth),
        T=T, weight=Weight(1.0), x_lo=x_lo, x_hi=x_hi,
    )


# ---------------------------------------------------------------------------
# trivial scenarios

def test_constant_scenario_both_methods(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    psor = solve_psor(spec, grid)
    assert np.max(np.abs(psor.u_values - 1.0)) == 0.0
    assert np.max(psor.r_values) == 0.0
    assert np.max(psor.diagnostics["sweep_counts"]) == 1
    for n in (1, 16, 1024):
        pen = solve_penalized(spec, grid, n)
        assert np.max(np.abs(pen.u_values - 1.0)) <= 1e-13
        assert np.max(pen.r_values) <= 1e-10


def test_inactive_obstacle_matches_unconstrained(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 80, 60)
    pen = solve_penalized(spec, grid, 64)
    free = unconstrained_march(spec, grid)
    assert np.max(np.abs(pen.u_values - free)) <= 1e-11
    assert np.max(pen.r_values) == 0.0


def test_quadratic_obstacle_exact_solution(quad_scenario):
    spec = quad_scenario.spec
    grid = SpaceTimeGrid.build(spec, 120, 80)
    exact = 1.0 - grid.x_nodes**2
    psor = solve_psor(spec, grid)
    assert np.max(np.abs(psor.u_values - exact[None, :])) <= 1e-10
    assert np.max(np.abs(psor.r_values[:grid.nt, 1:-1] - 1.0)) <= 1e-8
    pen = solve_penalized(spec, grid, 4096)
    gap = np.abs(pen.u_values - psor.u_values).max()
    assert gap == pytest.approx(1.0 / 4096, rel=1e-3)


# ---------------------------------------------------------------------------
# PSOR against the dense LCP oracle

def _psor_vs_oracle(spec, nx, nt):
    grid = SpaceTimeGrid.build(spec, nx, nt)
    sol = solve_psor(spec, grid)
    h_field = obstacle_field(spec, grid)
    bnd_lo = max(h_field[0, 0], terminal_field(spec, grid)[0])
    bnd_hi = max(h_field[0, -1], terminal_field(spec, grid)[-1])
    u = terminal_field(spec, grid).copy()
    worst = 0.0
    for k in range(grid.nt - 1, -1, -1):
        op = assemble_operator(spec, grid, k)
        n = grid.nx
        M = np.zeros((n, n))
        idx = np.arange(n)
        M[idx, idx] = 1.0 - grid.dt * op.diag
        M[idx[1:], idx[:-1]] = -grid.dt * op.lower[1:]
        M[idx[:-1], idx[1:]] = -grid.dt * op.upper[:-1]
        b = u[1:-1].copy()
        b[0] += grid.dt * op.lower[0] * bnd_lo
        b[-1] += grid.dt * op.upper[-1] * bnd_hi
        u_int = dense_lcp_solve(M, b, h_field[k, 1:-1])
        u = np.concatenate(([bnd_lo], u_int, [bnd_hi]))
        worst = max(worst, float(np.max(np.abs(sol.u_values[k] - u))))
    return worst


def test_psor_matches_dense_active_set_enumeration_quadratic():
    spec = _make_spec(h=lambda t, x: 1.0 - np.asarray(x, float) ** 2,
                      phi=lambda x: 1.0 - np.asarray(x, float) ** 2,
                      T=0.25, x_lo=-3.0, x_hi=3.0)
    assert _psor_vs_oracle(spec, 11, 6) <= 1e-9


def test_psor_matches_dense_active_set_enumeration_put_payoff():
    payoff = lambda x: np.maximum(1.0 - np.exp(np.asarray(x, float)), 0.0)
    spec = _make_spec(h=lambda t, x: payoff(x), phi=payoff, T=0.25,
                      x_lo=-1.5, x_hi=1.5, a0=0.09, h_growth=(1.0, 0.0))
    assert _psor_vs_oracle(spec, 12, 8) <= 1e-9


def test_put_solution_structure(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 150, 100)
    sol = solve_psor(spec, grid)
    h_field = sol.diagnostics["h_field"]
    assert np.min(sol.u_values - h_field) >= -_contact_tol(spec, h_field)
    assert np.array_equal(sol.u_values[grid.nt], terminal_field(spec, grid))
    assert np.min(sol.r_values) >= 0.0
    assert np.all(sol.r_values[~sol.contact_mask] == 0.0)
    # complementarity
    comp = np.minimum(sol.u_values - h_field, sol.r_values)
    assert np.max(comp[:, 1:-1]) <= DEFAULT_LCP_TOL * max(1.0, np.max(sol.r_values))
    # early-exercise boundary x*(t) nondecreasing toward expiry (one-node slack)
    front = []
    for k in range(grid.nt):
        contact = np.flatnonzero(sol.contact_mask[k, 1:-1])
        front.append(contact.max() if contact.size else -1)
    front = np.asarray(front)
    assert np.all(np.diff(front) >= -1)


# ---------------------------------------------------------------------------
# penalization schedule

def test_penalization_monotone_and_gap(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    psor = solve_psor(spec, grid)
    study = penalization_study(spec, grid, [2**j for j in range(4, 13, 2)], psor)
    assert np.all(np.diff(study.sup_increments) < 0)
    limit = solve_penalized(spec, grid, study.n_levels[-1])
    assert np.max(limit.u_values - psor.u_values) <= 1e-7  # approach from below
    assert study.distances_to_reference[-1] <= 2e-3
    # gap shrinks like 1/n against the psor oracle
    gaps = [np.abs(solve_penalized(spec, grid, n).u_values - psor.u_values).max()
            for n in (256, 1024, 4096)]
    assert gaps[1] <= 0.3 * gaps[0]
    assert gaps[2] <= 0.3 * gaps[1]


def test_penalization_study_short_circuits_when_inactive(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    study = penalization_study(spec, grid, [16, 32, 64, 128], solve_psor(spec, grid))
    assert study.n_levels == [16]
    assert np.max(solve_penalized(spec, grid, study.n_levels[-1]).r_values) == 0.0
    assert study.sup_increments.size == 0


def test_penalized_invariants():
    spec = _make_spec(h=lambda t, x: 1.0 - np.asarray(x, float) ** 2,
                      phi=lambda x: 1.0 - np.asarray(x, float) ** 2)
    grid = SpaceTimeGrid.build(spec, 50, 30)
    pen = solve_penalized(spec, grid, 37)
    assert np.min(pen.r_values) >= 0.0
    h_field = obstacle_field(spec, grid)
    overshoot = np.maximum(pen.u_values - h_field, 0.0)
    assert np.max(pen.r_values * overshoot) == 0.0


def test_monotonicity_violation_guard():
    """The drift kappa z on a grid with kappa sigma dx > a breaks the discrete
    comparison principle: u_n decreases between n = 2 and n = 4."""
    payoff = lambda x: np.maximum(1.0 - np.exp(np.asarray(x, float)), 0.0)
    spec = _make_spec(h=lambda t, x: payoff(x), phi=payoff,
                      f=lambda t, x, y, z: 4.0 * np.asarray(z, float), L=4.0,
                      x_lo=-3.0, x_hi=3.0, h_growth=(1.0, 0.0))
    grid = SpaceTimeGrid.build(spec, 8, 10)
    with pytest.raises(MonotonicityViolation, match="between n = 2 and n = 4"):
        penalization_study(spec, grid, [2, 4, 8], solve_psor(spec, grid))


def test_inner_divergence_for_stiff_driver():
    spec = _make_spec(h=lambda t, x: _zeros(t, x) - 10.0,
                      phi=lambda x: np.exp(-0.5 * np.asarray(x, float) ** 2),
                      f=lambda t, x, y, z: -50.0 * np.asarray(y, float), L=50.0,
                      T=1.0, h_growth=(11.0, 0.0))
    grid = SpaceTimeGrid.build(spec, 30, 5)  # dt L = 10
    with pytest.raises(InnerDivergence):
        solve_penalized(spec, grid, 4)


def test_zero_lcp_tolerance_terminates(put_scenario):
    # a residual of exactly zero is out of reach in floating point; the
    # active-set step still ends, when its active set repeats
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 10)
    sol = solve_psor(dataclasses.replace(spec, lcp_tol=0.0), grid)
    h_field = sol.diagnostics["h_field"]
    off = ~sol.contact_mask
    assert np.all(np.minimum(sol.u_values - h_field, sol.r_values)[off] == 0.0)
    assert np.all(sol.diagnostics["sweep_counts"] <= grid.nx + 3)


# ---------------------------------------------------------------------------
# Picard outer loop

def test_picard_single_pass_without_y_dependence(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 50, 30)
    sol, trace = picard_outer(spec, grid)
    assert trace.ratios == []
    assert trace.distances == []
    ref = solve_psor(spec, grid)
    assert np.max(np.abs(sol.u_values - ref.u_values)) <= 1e-12


def test_picard_single_pass_for_tx_only_driver():
    spec = _make_spec(h=lambda t, x: _zeros(t, x) - 10.0,
                      phi=lambda x: np.exp(-0.5 * np.asarray(x, float) ** 2),
                      f=lambda t, x, y, z: np.cos(np.asarray(x, float)) + 0.0 * np.asarray(y, float),
                      L=0.0, h_growth=(11.0, 0.0))
    # L = 0 with g != 0: the map does not depend on the iterate
    spec = ObstacleProblemSpec(
        coefficients=spec.coefficients,
        driver=Driver(f=spec.driver.f, L=0.0, M_growth=0.0,
                      g=lambda t, x: np.ones_like(np.asarray(x, float))),
        obstacle=spec.obstacle, T=spec.T, weight=spec.weight,
        x_lo=spec.x_lo, x_hi=spec.x_hi)
    _, trace = picard_outer(spec, SpaceTimeGrid.build(spec, 40, 20))
    assert trace.ratios == []


def test_picard_contracts_on_put(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    gamma = contraction_gamma(spec)
    lam, big, L = spec.coefficients.lambda_ell, spec.coefficients.Lambda_ell, spec.driver.L
    assert gamma == pytest.approx(1.0 + 4 * L**2 + 8 * big**2 * L**2 / lam + big / (2 * lam))
    sol, trace = picard_outer(spec, grid)
    assert len(trace.ratios) >= 1
    assert all(r <= 0.6 for r in trace.ratios)
    ref = solve_psor(spec, grid)
    assert np.max(np.abs(sol.u_values - ref.u_values)) <= 1e-6


def test_picard_no_contraction_guard(monkeypatch, put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 20, 10)
    state = {"m": 0}

    def fake_psor(spec_, grid_, **kwargs):
        state["m"] += 1
        u = np.full((grid_.nt + 1, grid_.nx + 2), (-3.0) ** state["m"])
        return solver_mod.ObstacleSolution(u_values=u, r_values=np.zeros_like(u),
                                           contact_mask=np.zeros(u.shape, dtype=bool),
                                           diagnostics={})

    monkeypatch.setattr(solver_mod, "solve_psor", fake_psor)
    with pytest.raises(NoContraction):
        picard_outer(spec, grid)


# ---------------------------------------------------------------------------
# identities, stability, replacement

def test_energy_residual_constant_is_zero(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    sol = solve_psor(spec, grid)
    xi = np.maximum(0.0, 1.0 - (grid.x_nodes / 6.0) ** 2)
    xi[0] = xi[-1] = 0.0
    residual = energy_identity_residual(spec, grid, sol, xi)
    assert np.max(np.abs(residual)) <= 1e-14


def test_energy_residual_first_order(heat_scenario):
    spec = heat_scenario.spec
    values = []
    for nt in (40, 80, 160):
        grid = SpaceTimeGrid.build(spec, 100, nt)
        sol = solve_psor(spec, grid)
        xi = np.maximum(0.0, 1.0 - (grid.x_nodes / 6.0) ** 2) ** 2
        xi[0] = xi[-1] = 0.0
        values.append(np.max(np.abs(energy_identity_residual(spec, grid, sol, xi))))
    assert values[1] <= 0.6 * values[0]
    assert values[2] <= 0.6 * values[1]


def test_energy_residual_requires_compact_cutoff(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 20, 10)
    sol = solve_psor(spec, grid)
    with pytest.raises(ValueError):
        energy_identity_residual(spec, grid, sol, np.ones(grid.nx + 2))


def test_apriori_report_zero_data():
    spec = _make_spec(h=lambda t, x: _zeros(t, x) - 1.0, phi=lambda x: np.zeros_like(np.asarray(x, float)),
                      h_growth=(2.0, 0.0))
    grid = SpaceTimeGrid.build(spec, 30, 20)
    sol = solve_psor(spec, grid)
    rep = apriori_norm_report(spec, grid, sol, spec.weight, np.zeros_like(sol.u_values))
    assert rep.left == pytest.approx(0.0, abs=1e-18)
    assert rep.ratio == 0.0


def test_apriori_report_constant(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 20)
    sol = solve_psor(spec, grid)
    rep = apriori_norm_report(spec, grid, sol, spec.weight, obstacle_field(spec, grid))
    assert np.isfinite(rep.ratio)
    assert rep.left > 0 and rep.right > 0


def test_apriori_ratio_stable_under_refinement(put_scenario):
    spec = put_scenario.spec
    ratios = []
    for nx, nt in ((100, 100), (150, 150), (200, 200)):
        grid = SpaceTimeGrid.build(spec, nx, nt)
        sol = solve_psor(spec, grid)
        rep = apriori_norm_report(spec, grid, sol, spec.weight, obstacle_field(spec, grid))
        ratios.append(rep.ratio)
    mid = ratios[1]
    assert all(abs(r - mid) <= 0.2 * mid for r in ratios)


def test_obstacle_stability_identical_and_shifted():
    base = lambda t, x: 1.0 - np.asarray(x, float) ** 2 - 0.01
    phi = lambda x: 1.0 - np.asarray(x, float) ** 2
    spec = _make_spec(h=base, phi=phi)
    grid = SpaceTimeGrid.build(spec, 40, 30)
    same = obstacle_stability(spec, grid, base, base)
    assert same.solution_distance == 0.0 and same.ratio == 0.0
    eps = 1e-3
    shifted = obstacle_stability(spec, grid, base,
                                 lambda t, x: base(t, x) + eps)
    assert shifted.obstacle_distance == pytest.approx(eps)
    assert shifted.solution_distance <= eps * (1 + 1e-6)  # comparison principle
    assert shifted.passed


def test_obstacle_stability_refuses_an_obstacle_above_phi_before_solving(heat_scenario,
                                                                        monkeypatch):
    """Each obstacle is checked against phi at T before either is solved."""
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    monkeypatch.setattr(solver_mod, "solve_psor", lambda *a, **k: pytest.fail("solved"))
    h1 = spec.obstacle.h
    above = lambda t, x: np.asarray(spec.obstacle.phi(x), float) + 1e-6
    for pair in ((h1, above), (above, h1)):
        with pytest.raises(ValueError, match="terminal value"):
            obstacle_stability(spec, grid, *pair)


def test_obstacle_stability_deactivated_pair(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    h1 = spec.obstacle.h
    h2 = lambda t, x: np.asarray(h1(t, x), float) - 1e6
    rep = obstacle_stability(spec, grid, h1, h2)
    assert rep.solution_distance == 0.0


def test_replacement_inactive_and_put(heat_scenario, put_scenario):
    # zero in exact arithmetic
    grid_h = SpaceTimeGrid.build(heat_scenario.spec, 60, 40)
    assert obstacle_replacement_check(heat_scenario.spec, grid_h) <= 1e-8
    grid_p = SpaceTimeGrid.build(put_scenario.spec, 200, 200)
    assert obstacle_replacement_check(put_scenario.spec, grid_p) <= 5e-4


def test_heat_solution_matches_closed_form_convolution(heat_scenario):
    from oracles import heat_bump_value

    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 200, 200)
    sol = solve_psor(spec, grid)
    worst = 0.0
    for k in (0, 50, 100, 150):
        t = float(grid.t_nodes[k])
        exact = heat_bump_value(t, grid.x_nodes, spec.T)
        worst = max(worst, float(np.max(np.abs(sol.u_values[k] - exact))))
    assert worst <= 2e-3


def _reflected(spec):
    return ObstacleProblemSpec(
        coefficients=spec.coefficients, driver=spec.driver, obstacle=spec.obstacle,
        T=spec.T, weight=spec.weight, x_lo=spec.x_lo, x_hi=spec.x_hi,
        boundary_mode="reflecting")


def test_reflecting_mode_preserves_constants(constant_scenario):
    spec = _reflected(constant_scenario.spec)
    grid = SpaceTimeGrid.build(spec, 40, 30)
    psor = solve_psor(spec, grid)
    assert np.max(np.abs(psor.u_values - 1.0)) <= 1e-13
    pen = solve_penalized(spec, grid, 64)
    assert np.max(np.abs(pen.u_values - 1.0)) <= 1e-12
    assert np.max(np.abs(unconstrained_march(spec, grid) - 1.0)) <= 1e-13


def test_reflecting_mode_matches_clamp_in_the_interior(heat_scenario):
    clamp = heat_scenario.spec
    refl = _reflected(clamp)
    grid = SpaceTimeGrid.build(clamp, 120, 80)
    u_c = solve_psor(clamp, grid).u_values
    u_r = solve_psor(refl, grid).u_values
    core = np.abs(grid.x_nodes) <= 4.0
    assert np.max(np.abs(u_c[:, core] - u_r[:, core])) <= 1e-9


# ---------------------------------------------------------------------------
# the active-set step against the enumeration and PSOR oracles

def _random_step(rng, n, mode):
    """One step system on n nodes: random positive face coefficients and dt,
    random obstacle, data and warm start (dx = 1)."""
    a = rng.uniform(0.05, 2.0, n - 1)
    op = DiscreteOperator(lower=0.5 * a[:-1], diag=-0.5 * (a[:-1] + a[1:]), upper=0.5 * a[1:])
    dt = rng.uniform(0.01, 5.0)
    h = rng.normal(size=n)
    b = rng.normal(size=n)
    if mode == "clamp-to-data":
        b[[0, -1]] = np.maximum(b[[0, -1]], h[[0, -1]])  # boundary values max(h, data)
    return op, dt, b, h, rng.normal(size=n)


def _checked_step(ab, b, h, v0, mode):
    n = b.size
    v, solves, w = _lcp_step(ab, b, h, v0, mode, DEFAULT_LCP_TOL)
    assert np.all(v >= h)
    assert np.max(np.abs(np.minimum(v - h, w))) <= DEFAULT_LCP_TOL
    assert 1 <= solves <= n + 1
    return v


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_lcp_step_matches_active_set_enumeration(mode):
    rng = np.random.default_rng(20260808 if mode == "reflecting" else 7)
    for _ in range(24):
        n = int(rng.integers(3, 13))
        op, dt, b, h, v0 = _random_step(rng, n, mode)
        ab = _banded_backward_matrix(op, dt, mode=mode)
        v = _checked_step(ab, b, h, v0, mode)
        M = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        assert np.max(np.abs(v - dense_lcp_solve(M, b, h))) <= 1e-12


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_lcp_step_matches_psor_oracle(mode):
    rng = np.random.default_rng(11 if mode == "reflecting" else 3)
    for _ in range(4):
        op, dt, b, h, v0 = _random_step(rng, 100, mode)
        ab = _banded_backward_matrix(op, dt, mode=mode)
        v = _checked_step(ab, b, h, v0, mode)
        assert np.max(np.abs(v - psor_lcp_solve(ab, b, h))) <= 1e-8


# ---------------------------------------------------------------------------
# fixed costs per step

def test_march_evaluates_the_sigma_row_once_per_step(put_scenario):
    """The penalized put iterates several times per step, but the sigma row
    of sigma D v, a(t_k, x) on the nx + 2 nodes, is evaluated once per step.  At
    the nx + 1 cell faces the march probes a(t_k, .) once per step; the put's a
    is a constant scalar, so its one kernel build adds one face call."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    calls = []

    def counting_a(t, x):
        calls.append(np.shape(x))
        return spec.coefficients.a(t, x)

    counted = dataclasses.replace(
        spec, coefficients=dataclasses.replace(spec.coefficients, a=counting_a))
    pen = solve_penalized(counted, grid, 1024)
    assert calls.count((grid.nx + 2,)) == grid.nt
    assert calls.count((grid.nx + 1,)) == grid.nt + 1
    assert int(pen.inner_iteration_counts.min()) > 1
    assert np.array_equal(pen.u_values, solve_penalized(spec, grid, 1024).u_values)


def test_driver_and_sigma_rows_equal_the_broadcast_copies(put_scenario):
    """``_driver_row`` and ``_sigma_row`` equal the broadcast-and-copy rows
    they replaced, for evaluators that return full rows and scalars; a float
    row of the right shape is returned as is, not copied."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 30, 10)
    t, u_row, shape = 0.1, np.cos(grid.x_nodes), grid.x_nodes.shape
    stored = np.linspace(-1.0, 1.0, grid.nx + 2)
    drivers = (lambda t, x, y, z: 0.05 * y - 0.02 * z, lambda t, x, y, z: 0.25,
               lambda t, x, y, z: stored)
    for a in (lambda t, x: 0.09 * np.ones_like(x), lambda t, x: 0.09):
        for f in drivers:
            s = dataclasses.replace(
                spec, coefficients=dataclasses.replace(spec.coefficients, a=a),
                driver=dataclasses.replace(spec.driver, f=f))
            sigma = solver_mod._sigma_row(s, grid, t)
            old_sigma = np.broadcast_to(np.sqrt(np.asarray(a(t, grid.x_nodes), dtype=float)),
                                        shape).astype(float)
            assert sigma.shape == shape and np.array_equal(sigma, old_sigma)
            z = sigma * solver_mod.central_gradient(u_row, grid.dx)
            old = np.broadcast_to(np.asarray(f(t, grid.x_nodes, u_row, z), dtype=float),
                                  shape).astype(float)
            row = solver_mod._driver_row(s, grid, t, u_row, sigma)
            assert row.shape == shape and row.dtype == float and np.array_equal(row, old)
    assert solver_mod._driver_row(s, grid, t, u_row, sigma) is stored


def test_frozen_driver_is_a_spec_whose_march_forms_no_sigma_row(put_scenario, monkeypatch):
    """``frozen_driver`` tabulates f(t, x, u, sigma Du) along u on the grid's
    slices, with L = M_growth = 0: its f returns the row of the grid time t
    whatever (x, y, z).  A march of it, as of any driver with L = 0, takes one
    exact solve per step and forms no sigma row; the put's own march forms
    one per step."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 20)
    u = solve_psor(spec, grid).u_values
    frozen = solver_mod.frozen_driver(spec, grid, u)
    assert (frozen.driver.L, frozen.driver.M_growth) == (0.0, 0.0)
    assert dataclasses.replace(frozen, driver=spec.driver) == spec
    for k, t in enumerate(grid.t_nodes.tolist()):
        row = solver_mod._driver_row(spec, grid, t, u[k], solver_mod._sigma_row(spec, grid, t))
        assert np.array_equal(frozen.driver.f(t, None, None, None), row)
    calls = []
    real = solver_mod._sigma_row
    monkeypatch.setattr(solver_mod, "_sigma_row", lambda *a: calls.append(a[2]) or real(*a))
    sol = solve_psor(frozen, grid)
    assert calls == [] and np.all(sol.diagnostics["refine_counts"] == 1)
    solve_psor(spec, grid)
    assert len(calls) == grid.nt


@pytest.mark.parametrize("family", ["constant", "american-put", "custom-polynomial"])
def test_constant_coefficient_families_return_scalars(family):
    """The families with a constant coefficient return the scalars a0 and
    0.0; the Euler step, the sigma row and the operator they give equal those
    of full-row copies of the same coefficients, bit for bit."""
    from parobs.scenarios import build_family
    from parobs.stochastic import _euler_step

    spec = build_family(family, {"problem.T": 0.5, "problem.x_lo": -2.0, "problem.x_hi": 2.0,
                                 **({"problem.sigma": 0.3} if family == "american-put"
                                    else {"problem.a0": 1.7})})
    coef = spec.coefficients
    x = np.random.default_rng(8).normal(0.0, 0.7, 5000)
    assert np.ndim(coef.a(0.1, x)) == 0 and np.ndim(coef.a_x(0.1, x)) == 0
    assert coef.a_x(0.1, x) == 0.0 and coef.a(0.1, x) == coef.lambda_ell
    full = dataclasses.replace(coef, a=lambda t, x: coef.a(t, x) * np.ones_like(x),
                               a_x=lambda t, x: np.full_like(x, coef.a_x(t, x)))
    full_spec = dataclasses.replace(spec, coefficients=full)
    dw = np.random.default_rng(9).normal(0.0, 0.05, x.size)
    assert np.array_equal(_euler_step(coef, 0.1, x, 0.0025, dw),
                          _euler_step(full, 0.1, x, 0.0025, dw))
    grid = SpaceTimeGrid.build(spec, 30, 10)
    for k in (0, 4, grid.nt):
        t = float(grid.t_nodes[k])
        assert np.array_equal(solver_mod._sigma_row(spec, grid, t),
                              solver_mod._sigma_row(full_spec, grid, t))
        op, full_op = assemble_operator(spec, grid, k), assemble_operator(full_spec, grid, k)
        for band in ("lower", "diag", "upper"):
            assert np.array_equal(getattr(op, band), getattr(full_op, band)), band


def _arrays(result):
    """The arrays of a solver's result, for bitwise comparison."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, PenalizedSolution):
        return [result.u_values, result.r_values, result.inner_iteration_counts]
    d = result.diagnostics
    return [result.u_values, result.r_values, result.contact_mask, d["sweep_counts"],
            d["refine_counts"]]


@pytest.mark.parametrize("name", ["constant_scenario", "heat_scenario", "sine_scenario",
                                  "put_scenario", "quad_scenario"])
def test_march_builds_one_kernel_for_a_constant_coefficient(name, request, monkeypatch):
    """Every loop over step kernels takes them from ``grid._step_kernels``:
    the solvers' march, chain-dp, the Snell recursion of the oracles,
    ``evolve_law`` (of the spec and of its reflecting twin) and the
    weighted-bounds check.  A coefficient that returns a scalar builds one
    kernel per loop, and a scalar that changes with t one per change; every
    output equals that of the same coefficient returned as full rows, one
    kernel per step, bit for bit."""
    from parobs.grid import evolve_law
    from parobs.stochastic import rbsde_chain_dp
    from parobs.verify import VerifyContext, check_weighted_bounds

    spec = request.getfixturevalue(name).spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    built = []
    real = grid_mod.transition_kernel
    monkeypatch.setattr(grid_mod, "transition_kernel",
                        lambda *args, **kwargs: built.append(args[2]) or real(*args, **kwargs))

    def with_a(a):
        return dataclasses.replace(spec, coefficients=dataclasses.replace(spec.coefficients, a=a))

    def rows_of(a):
        return with_a(lambda t, x: np.broadcast_to(np.asarray(a(t, x), float), np.shape(x)).copy())

    def chain(s):
        est = rbsde_chain_dp(s, grid, s_index)
        return [est.Y, est.dK]

    def weighted(s):
        rep = check_weighted_bounds(VerifyContext(s, grid, mc))
        return [rep.discrepancy, rep.details]

    reward = np.random.default_rng(5).normal(size=(grid.nt + 1, grid.nx + 2))
    w0 = np.zeros(grid.nx + 2)
    w0[1:-1] = grid.dx
    s_index, x_index = 7, grid.nx // 2
    mc = {"paths": 1000, "dt_path": spec.T / 10, "seed": 1, "basis_degree": 3}
    nt, late = grid.nt, grid.nt - s_index
    loops = (  # (outputs of a spec, loops over kernels, steps per loop)
        (lambda s: _arrays(solve_psor(s, grid)), 1, nt),
        (lambda s: _arrays(solve_penalized(s, grid, 256)), 1, nt),
        (chain, 1, late),
        (lambda s: [snell_recursion(s, grid, reward, s_index, x_index)], 1, late),
        (lambda s: [w for _, w in evolve_law(s, grid, w0, s_index)], 1, late),
        (lambda s: [w for _, w in evolve_law(dataclasses.replace(s, boundary_mode="reflecting"),
                                             grid, w0, s_index)], 1, late),
        (weighted, 2, nt),
    )
    a_spec = spec.coefficients.a
    a_of_t = lambda t, x: 1.0 + t  # a scalar that changes at every step
    scalar = np.ndim(a_spec(0.0, grid.x_nodes)) == 0
    for run, n_loops, n_steps in loops:
        for a, kernels in ((a_spec, n_loops if scalar else n_loops * n_steps),
                           (a_of_t, n_loops * n_steps)):
            built.clear()
            got = run(with_a(a))
            assert len(built) == kernels
            built.clear()
            want = run(rows_of(a))
            assert len(built) == n_loops * n_steps
            for x, y in zip(got, want, strict=True):
                assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y

