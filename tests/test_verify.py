import dataclasses
import itertools
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

import parobs.grid as grid_mod
from parobs.grid import SpaceTimeGrid, evolve_law
from parobs.solver import as_obstacle_solution, solve_penalized, solve_psor
from parobs.stochastic import rbsde_chain_dp, simulate_paths
from parobs.verify import (
    VerifyContext,
    check_ac_measure,
    check_interval_measure,
    check_measure_identity,
    check_minimality,
    check_representation_u,
    check_representation_z,
    check_skorokhod,
    check_weighted_bounds,
    default_test_functions,
)

from oracles import (SKOROKHOD_PENALTY_CONSTANT, gaussian_kernel_weight_ratio,
                     reflected_mc_measure_identity)


def _mc(paths, dt_path, seed):
    return {"paths": paths, "dt_path": dt_path, "seed": seed, "basis_degree": 3}


@pytest.fixture(scope="module")
def quad200(quad_scenario):
    """A context on obstacle-quad at 200 x 200; the tests share its solution,
    chain-dp field and densities."""
    grid = SpaceTimeGrid.build(quad_scenario.spec, 200, 200)
    return VerifyContext(quad_scenario.spec, grid, quad_scenario.mc_params)


def test_representation_u_trivial_on_constant(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    rep = check_representation_u(VerifyContext(spec, grid, _mc(1000, spec.T / 30, 1)),
                                 [(0.0, 0.0), (0.3, 2.0)])
    assert rep.passed
    assert rep.discrepancy == pytest.approx(0.0, abs=1e-9)


def test_representation_u_reduces_to_feynman_kac_when_inactive(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 120, 100)
    rep = check_representation_u(VerifyContext(spec, grid, _mc(20_000, spec.T / 100, 3)),
                                 [(0.0, 0.0)])
    assert rep.passed


def test_representation_z_closed_form_heat(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 150, 100)
    ctx = VerifyContext(spec, grid, _mc(20_000, spec.T / 100, 5), {"z_budget": 0.2})
    rep = check_representation_z(ctx)
    assert rep.passed


def test_measure_identity_trivial_and_active(heat_scenario, quad_scenario, quad200):
    spec_h = heat_scenario.spec
    grid_h = SpaceTimeGrid.build(spec_h, 80, 60)
    rep = check_measure_identity(VerifyContext(spec_h, grid_h, heat_scenario.mc_params), 0.0, 0.0)
    assert rep.passed
    assert all(v["left"] == 0.0 and v["right"] == 0.0 for v in rep.details.values())

    rep_q = check_measure_identity(quad200, 0.0, 0.0)
    assert rep_q.passed
    assert rep_q.discrepancy <= 1e-10  # both sides identical sums on the chain

    ctx_mc = VerifyContext(quad_scenario.spec, quad200.grid,
                           _mc(20_000, quad_scenario.spec.T / 200, 6))
    rep_mc = reflected_mc_measure_identity(ctx_mc, 0.0, 0.0)
    assert rep_mc.passed


def test_interval_measure_windows(quad_scenario, quad200):
    spec = quad_scenario.spec
    total = check_interval_measure(quad200, 0.0, spec.T, (spec.x_lo, spec.x_hi))
    assert total.passed
    window = check_interval_measure(quad200, 0.1, 0.3, (-1.0, 1.0))
    assert window.passed
    degenerate = check_interval_measure(quad200, 0.2, 0.2, (spec.x_lo, spec.x_hi))
    assert degenerate.details["left"] == 0.0 and degenerate.details["right"] == 0.0
    # mu lives on [0, T]: a window opened before 0 sums what the one from 0 does
    early = check_interval_measure(quad200, -0.1, 0.3, (-1.0, 1.0)).details
    from_0 = check_interval_measure(quad200, 0.0, 0.3, (-1.0, 1.0)).details
    assert (early["left"], early["right"]) == (from_0["left"], from_0["right"]) != (0.0, 0.0)


def test_interval_measure_outside_contact(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    rep = check_interval_measure(VerifyContext(spec, grid, put_scenario.mc_params), 0.0, spec.T,
                                 (1.0, 2.0))
    # far out of the money u - h sits below the binding tolerance, leaving
    # residual dust in r; both sides are zero up to that dust
    assert rep.details["left"] <= 1e-12 and rep.details["right"] <= 1e-12
    assert rep.passed


def test_skorokhod_psor_and_penalized_levels(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 120, 100)
    sol = solve_psor(spec, grid)
    assert check_skorokhod(sol).passed
    values = []
    for n in (64, 256, 1024):
        pen = solve_penalized(spec, grid, n)
        rep = check_skorokhod(as_obstacle_solution(spec, grid, pen))
        assert rep.discrepancy <= SKOROKHOD_PENALTY_CONSTANT / n
        values.append(rep.discrepancy)
    assert values[2] < values[1] < values[0]  # decreasing in n


def test_skorokhod_guards_zero_normalizer(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    rep = check_skorokhod(solve_psor(spec, grid))
    assert rep.discrepancy == 0.0 and rep.passed


def test_ac_measure_inactive(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    rep = check_ac_measure(VerifyContext(spec, grid, _mc(10_000, spec.T / 80, 8),
                                         {"ac_residual_budget": 0.05}))
    assert rep.passed
    assert rep.details["k_tilde_mean"] == 0.0


def test_weighted_bounds_unit_ratio_and_quadrature_oracle(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 200, 150)
    rep = check_weighted_bounds(VerifyContext(spec, grid, heat_scenario.mc_params))
    assert rep.passed
    assert rep.details["R"]["one"] == pytest.approx(1.0, abs=1e-3)
    assert 0.5 <= rep.details["R"]["gauss-bump"] <= 2.0
    oracle = gaussian_kernel_weight_ratio(lambda x: np.exp(-0.5 * x**2),
                                          spec.weight.rho, spec.T,
                                          np.linspace(-8, 8, 801))
    assert rep.details["R"]["gauss-bump"] == pytest.approx(oracle, abs=2e-2)
    assert rep.details["R_g"] == pytest.approx(1.0, abs=2e-3)
    assert np.isfinite(rep.details["kernel_bound_max_ratio"])


def test_weighted_bounds_holds_one_law_row(sine_scenario):
    """The law is carried slice by slice and folded as it comes: at nx = 800
    the check peaks at its step kernel and a few rows, under half of the
    nt + 1 law rows that a list of the whole law held (120 rows)."""
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 800, 100)
    ctx = VerifyContext(spec, grid, sine_scenario.mc_params)
    tracemalloc.start()
    try:
        check_weighted_bounds(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * grid.nt * (grid.nx + 2) * 8


def test_minimality_equalities(heat_scenario, quad_scenario):
    grid_h = SpaceTimeGrid.build(heat_scenario.spec, 60, 40)
    rep_h = check_minimality(VerifyContext(heat_scenario.spec, grid_h, heat_scenario.mc_params),
                             [16, 64])
    assert rep_h.passed
    assert rep_h.details["final_gap"] <= 1e-8

    grid_q = SpaceTimeGrid.build(quad_scenario.spec, 60, 40)
    rep_q = check_minimality(VerifyContext(quad_scenario.spec, grid_q, quad_scenario.mc_params),
                             [256, 4096])
    assert rep_q.passed
    assert rep_q.details["overshoot"] <= 1e-10


def test_reports_are_pure(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    sol = solve_psor(spec, grid)
    r1 = check_skorokhod(sol)
    r2 = check_skorokhod(sol)
    assert (r1.discrepancy, r1.budget, r1.passed) == (r2.discrepancy, r2.budget, r2.passed)
    m1, m2 = (reflected_mc_measure_identity(VerifyContext(spec, grid, _mc(2000, spec.T / 40, 4)),
                                            0.0, -0.2) for _ in range(2))
    assert m1.details == m2.details


def test_statistical_budget_halves_with_four_times_paths(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    probes = [(0.0, 0.0)]
    small = check_representation_u(VerifyContext(spec, grid, _mc(4000, spec.T / 80, 9)), probes)
    big = check_representation_u(VerifyContext(spec, grid, _mc(16_000, spec.T / 80, 9)), probes)
    ratio = big.stat_part / small.stat_part
    assert ratio == pytest.approx(0.5, abs=0.15)


def test_default_test_functions_shapes(put_scenario):
    fns = default_test_functions(put_scenario.spec)
    assert [name for name, _ in fns] == ["one", "cos-x", "time-bump"]
    x = np.linspace(-1, 1, 5)
    for _, fn in fns:
        assert np.asarray(fn(0.1, x)).shape == x.shape


def test_scheme_agreement_on_cheap_scenarios(constant_scenario, heat_scenario, sine_scenario):
    # |Y0(chain-dp) - Y0(reflected-mc)| within 3 CI plus the calibrated bias
    for sc in (constant_scenario, heat_scenario, sine_scenario):
        spec = sc.spec
        grid = SpaceTimeGrid.build(spec, 100, 80)
        rep = check_representation_u(VerifyContext(spec, grid, _mc(20_000, spec.T / 80, 13),
                                                   sc.calibration), [(0.0, 0.0)])
        assert rep.passed, sc.name


def test_mc_z_estimator_against_closed_form_gradient(heat_scenario):
    from oracles import heat_bump_gradient

    spec = heat_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 100, 20_000, 15)
    from parobs.stochastic import rbsde_reflected_mc

    mc = rbsde_reflected_mc(ens, 3)
    acc = 0.0
    with closing(ens._read(backward=False)) as rows:
        for k, xk, _ in itertools.islice(rows, ens.n_steps):
            exact = heat_bump_gradient(float(ens.t_nodes[k]), xk, spec.T)
            acc += float(np.mean((exact - mc._z(k, xk)) ** 2)) * ens.dt_path
    assert np.sqrt(acc) <= 0.2  # same budget the scenario freezes for rep-z


def test_representation_z_exact_zero_on_constant(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    rep = check_representation_z(VerifyContext(spec, grid, _mc(2000, spec.T / 30, 16),
                                               {"z_budget": 1e-8}))
    assert rep.passed
    assert rep.discrepancy <= 1e-12


@pytest.mark.parametrize("t1, t2", [(0.0, None), (0.1, 0.3), (0.25, 0.26)])
def test_interval_measure_carries_the_law_only_to_the_last_slice_summed(
        monkeypatch, quad_scenario, quad200, t1, t2):
    """Each summed slice after the first costs one kernel step, and none is
    taken past the last one; the sum is the unbounded loop's on the chain-dp
    field started at the window's first slice, to the bit, although the
    check reads the context's field from slice 0 at a row offset."""
    spec = quad_scenario.spec
    grid = quad200.grid
    quad200.sol, quad200.chain  # built before the kernel calls are counted
    t2 = spec.T if t2 is None else t2
    k1 = int(np.ceil(t1 / grid.dt - 1e-12))
    k_end = min(int(np.floor(t2 / grid.dt + 1e-12)), grid.nt)
    chain = rbsde_chain_dp(spec, grid, k1)
    f_mask = (grid.x_nodes >= -1.0 - 1e-12) & (grid.x_nodes <= 1.0 + 1e-12)
    f_mask[0] = f_mask[-1] = False
    w0 = np.zeros(grid.nx + 2)
    w0[1:-1] = grid.dx
    right = 0.0
    for k, w in evolve_law(dataclasses.replace(spec, boundary_mode="reflecting"), grid, w0, k1):
        if k >= k_end:
            break
        right += float(np.sum(w[f_mask] * chain.dK[k - k1, f_mask]))

    steps = []
    real = grid_mod._step_kernels

    def counted(*args, **kwargs):   # the kernel steps taken, whether built or shared
        for step in real(*args, **kwargs):
            steps.append(step[0])
            yield step

    monkeypatch.setattr(grid_mod, "_step_kernels", counted)
    rep = check_interval_measure(quad200, t1, t2, (-1.0, 1.0))
    assert steps == list(range(k1, k_end - 1))  # slices summed: k1 .. k_end - 1
    assert rep.details["right"] == right


@pytest.mark.parametrize("name", ["put_scenario", "quad_scenario", "sine_scenario"])
def test_chain_from_slice_0_serves_later_starts_by_row_offset(request, name):
    """Row k of the chain-dp field from slice 0 is row k - k1 of the field
    from slice k1, bit for bit, which is how the checks read the context's
    one field from any start slice."""
    spec = request.getfixturevalue(name).spec
    grid = SpaceTimeGrid.build(spec, 60, 100)
    whole = rbsde_chain_dp(spec, grid, 0)
    for k1 in (1, 17, 50, 99):
        late = rbsde_chain_dp(spec, grid, k1)
        for field in ("Y", "dK"):
            assert np.array_equal(getattr(whole, field)[k1:], getattr(late, field)), (k1, field)
