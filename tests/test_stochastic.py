import contextlib
import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

import parobs.stochastic as stochastic
from parobs.errors import MissingDerivative, RegressionSingular
from parobs.grid import SpaceTimeGrid, solve_density
from parobs.problem import Coefficients, Driver, ObstacleData, ObstacleProblemSpec, Weight
from parobs.scenarios import build_family
from parobs.solver import obstacle_field, solve_psor
from parobs.stochastic import (
    BLOCK_SIZE,
    N_BATCHES,
    moment_ratio_probe,
    optimal_stopping_value,
    penalization_convergence_mc,
    rbsde_chain_dp,
    rbsde_penalized_mc,
    rbsde_reflected_mc,
    simulate_paths,
    _obstacle_row,
    _Projection,
)

from conftest import read_all, x_rows
from oracles import (
    binomial_american_put,
    estimate_g_integral,
    frozen_reward_field,
    implicit_chain_dp,
    lstsq_polynomial_fit,
    stored_convergence_table,
    stored_simulate_paths,
    snell_recursion,
    storing_lsmc,
    unconstrained_march,
)


def _const_family(a0=1.0, value=1.0, T=1.0):
    return build_family("constant", {
        "problem.T": T, "problem.x_lo": -8.0, "problem.x_hi": 8.0,
        "problem.alpha": 1.0, "problem.value": value, "problem.a0": a0,
    })


# ---------------------------------------------------------------------------
# path simulation

def _terminal(ens):
    """X_T of an ensemble, read forward without holding the other dates."""
    for xk in x_rows(ens):
        pass
    return xk


def test_paths_reproducible_and_prefix_stable():
    spec = _const_family()
    e1 = simulate_paths(spec, 0.0, 0.3, 0.05, 1000, seed=42)
    e2 = simulate_paths(spec, 0.0, 0.3, 0.05, 1000, seed=42)
    bigger = simulate_paths(spec, 0.0, 0.3, 0.05, 1500, seed=42)
    other = simulate_paths(spec, 0.0, 0.3, 0.05, 1000, seed=43)
    ref = stored_simulate_paths(spec, 0.0, 0.3, 0.05, 1500, seed=42)
    n = e1.n_steps
    for backward in (True, False):
        rows = [read_all(ens, backward) for ens in (e1, e2, bigger, other)]
        for (k, x1, dw1), (_, x2, dw2), (_, xb, dwb), (_, xo, dwo) in zip(*rows, strict=True):
            assert np.array_equal(x1, x2) and np.array_equal(xb[:1000], x1), k
            assert np.array_equal(xb, ref.X[k]), k
            if k < n:
                assert np.array_equal(dw1, dw2) and np.array_equal(dw1, ref.dW[k, :1000]), k
                assert np.array_equal(dwb[:1000], dw1) and np.array_equal(dwb, ref.dW[k]), k
                assert not np.array_equal(dwo, dw1), k
            if k == n:
                assert not np.array_equal(xo, x1)


SCENARIO_FIXTURES = ["constant_scenario", "heat_scenario", "sine_scenario", "put_scenario",
                     "quad_scenario"]


@pytest.mark.parametrize("name", SCENARIO_FIXTURES)
@pytest.mark.parametrize("start", [0.0, 0.25], ids=["s=0", "s=T/4"])
def test_ensemble_rows_equal_the_storing_simulator(name, start, request):
    """Block stepping, checkpoints and segment replay give every X_k and dW_k
    of the block-by-block storing simulator, read backward and forward, and
    a forward read of a streaming ensemble gives them too."""
    spec = request.getfixturevalue(name).spec
    s, x0 = start * spec.T, 0.5 * (spec.x_lo + spec.x_hi)
    dt = (spec.T - s) / 40
    m = 3 * BLOCK_SIZE + 123
    ref = stored_simulate_paths(spec, s, x0, dt, m, seed=17)
    ens = simulate_paths(spec, s, x0, dt, m, seed=17)
    n = ens.n_steps
    assert n == ref.n_steps and np.array_equal(ens.t_nodes, ref.t_nodes)
    for backward in (True, False):
        for k, x, dw in read_all(ens, backward):
            assert np.array_equal(x, ref.X[k]), (backward, k)
            assert dw is None if k == n else np.array_equal(dw, ref.dW[k]), (backward, k)
    streamed = simulate_paths(spec, s, x0, dt, m, seed=17, store_dw=False)
    for k, x, dw in read_all(streamed, backward=False):
        assert np.array_equal(x, ref.X[k]), k
        assert dw is None if k == n else np.array_equal(dw, ref.dW[k]), k


def test_ensemble_holds_increments_and_checkpoints_only(monkeypatch):
    """A stored ensemble holds X checkpoints and, in place of its increments,
    one Philox state per block and checkpoint: no increment row.  A streaming
    ensemble holds neither: it is read forward, and a backward read raises
    before any thread starts."""
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.01, 3000, seed=5)   # n = 100, stride 8
    assert ens.X.stride == 8   # ceil(sqrt(100 / 2))
    # 13 checkpoints (dates 0, 8, .., 96) plus X_T; one block of 3000 paths,
    # whose state is a 4-word counter, a 2-word key and a 4-word buffer
    assert ens.X.nbytes == 14 * 3000 * 8 and ens.dW.nbytes == 13 * 1 * 10 * 8
    for holder in (ens.X, ens.dW):
        with pytest.raises(TypeError):
            holder[3]   # no date indexing: a stale X[k] or dW[k] must not read a row
    for backward in (True, False):   # checkpoint, replayed and stepped rows alike
        with contextlib.closing(ens._read(backward)) as rows:
            for k, xk, dw in rows:
                for row in (xk, dw) if k in (0, 8, 15, ens.n_steps) else ():
                    if row is not None:
                        with pytest.raises(ValueError):
                            row[0] = 1.0
    for state in ens.dW.states:
        with pytest.raises(ValueError):
            state[0]["state"]["counter"][0] = 1
    streamed = simulate_paths(spec, 0.0, 0.0, 0.01, 3000, seed=5, store_dw=False)
    assert streamed.dW is None and streamed.X.nbytes == 0
    assert [k for k, _, _ in read_all(streamed, backward=False)] == list(range(101))
    started = []
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self.name))
    with pytest.raises(ValueError, match="backward"):
        next(streamed._read(backward=True))
    assert started == []


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_stored_simulation_peaks_near_its_increments():
    """A stored simulation holds its 21 checkpoint rows and the stepper's
    working rows, far below the (n, m) increment field it used to hold."""
    spec = _const_family()
    n, m = 200, 20_000
    ens, peak = _traced_peak(lambda: simulate_paths(spec, 0.0, 0.0, spec.T / n, m, seed=6))
    assert ens.n_steps == n and ens.X.nbytes == 21 * m * 8
    assert peak <= n * m * 8 / 5   # 0.14 of the field measured; 1.11 while dW was held


def test_streaming_moment_probe_holds_no_path_by_date_field():
    spec = _const_family()
    n, m = 200, 20_000
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / n, m, seed=6, store_dw=False)
    mr, peak = _traced_peak(lambda: moment_ratio_probe(ens, 4.0))
    assert peak <= n * m * 8 / 8
    ref = stored_simulate_paths(spec, 0.0, 0.0, spec.T / n, m, seed=6, store_dw=False)
    sup = np.abs(ref.X).max(axis=0)
    assert mr.sup_moment == float((sup**4.0).mean())
    assert mr.terminal_moment == float((np.abs(ref.X[-1]) ** 4.0).mean())


def test_brownian_variance_and_increment_mean():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.01, 40_000, seed=7)
    ref = stored_simulate_paths(spec, 0.0, 0.0, 0.01, 40_000, seed=7)
    means = np.full(ens.n_steps, np.nan)
    with contextlib.closing(ens._read(backward=False)) as rows:
        for k, xk, dw in rows:
            if k == 0:
                assert np.all(xk == 0.0)
            elif k == ens.n_steps:
                var = xk.var()
                break
            assert np.array_equal(dw, ref.dW[k]), k
            means[k] = abs(dw.mean())
    ci = 3.0 * np.sqrt(2.0 / ens.path_count)  # var of chi2 estimate ~ 2 T^2 / M
    assert abs(var - 1.0) <= ci
    assert np.max(means) <= 4.0 * np.sqrt(ens.dt_path / ens.path_count)


def test_scaled_diffusion_variance():
    spec = _const_family(a0=4.0)
    ens = simulate_paths(spec, 0.0, 1.0, 0.01, 40_000, seed=11, store_dw=False)
    assert abs(_terminal(ens).var() - 4.0) <= 4.0 * 3.0 * np.sqrt(2.0 / ens.path_count)


def test_missing_derivative_raises():
    base = _const_family()
    spec = ObstacleProblemSpec(
        coefficients=Coefficients(a=base.coefficients.a, a_x=None, lambda_ell=1.0, Lambda_ell=1.0),
        driver=base.driver, obstacle=base.obstacle, T=1.0, weight=Weight(1.0),
        x_lo=-8.0, x_hi=8.0)
    with pytest.raises(MissingDerivative):
        simulate_paths(spec, 0.0, 0.0, 0.1, 10, seed=0)


def test_sine_law_matches_grid_density(sine_scenario):
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 200, 200)
    center = int(round((0.0 - grid.x_nodes[0]) / grid.dx))
    dens = solve_density(spec, grid, 0, center)
    ens = simulate_paths(spec, 0.0, float(grid.x_nodes[center]), spec.T / 200, 100_000,
                         seed=5, store_dw=False)
    # histogram on blocks of 4 cells to keep per-bin noise below the budget
    stride = 4
    edges = grid.x_nodes[::stride]
    hist, _ = np.histogram(_terminal(ens), bins=edges)
    emp = hist / ens.path_count
    pde = np.add.reduceat(dens.values[-1][:len(edges) - 1 + (len(grid.x_nodes) - len(edges))],
                          np.arange(0, (len(edges) - 1) * stride, stride))[:len(edges) - 1]
    assert float(np.sum(np.abs(emp - pde))) <= 5e-2


# ---------------------------------------------------------------------------
# probes

def test_moment_probe_requires_p_at_least_four():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.1, 100, seed=1, store_dw=False)
    with pytest.raises(ValueError):
        moment_ratio_probe(ens, 2.0)


def test_moment_probe_degenerate_diffusion_ratio_one():
    spec = _const_family(a0=1e-12)
    ens = simulate_paths(spec, 0.0, 5.0, 0.05, 2000, seed=3, store_dw=False)
    mr = moment_ratio_probe(ens, 4.0)
    assert mr.ratio == pytest.approx(1.0, abs=1e-4)


def test_moment_probe_brownian_range():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.02, 200_000, seed=9, store_dw=False)
    mr = moment_ratio_probe(ens, 4.0)
    assert 1.0 <= mr.ratio <= 3.5
    assert mr.ci > 0


def test_g_integral_exact_for_constant():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.05, 500, seed=2, store_dw=False)
    gi = estimate_g_integral(ens, lambda t, x: np.ones_like(np.asarray(x, float)))
    assert gi.value == pytest.approx(1.0, abs=1e-12)
    assert gi.ci == 0.0


def test_g_integral_linear_probe():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.01, 50_000, seed=4, store_dw=False)
    gi = estimate_g_integral(ens, lambda t, x: np.asarray(x, float))
    assert abs(gi.value - 0.5) <= 3.0 * gi.ci + 0.01  # int_0^1 t dt = 1/2


def test_g_integral_truncation_indicator_small(heat_scenario):
    spec = heat_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, 0.02, 20_000, seed=12, store_dw=False)
    gi = estimate_g_integral(ens, lambda t, x: (np.abs(np.asarray(x, float)) > 7.0).astype(float))
    assert gi.value <= 1e-4


# ---------------------------------------------------------------------------
# chain dp

def test_chain_dp_constant(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    est = rbsde_chain_dp(spec, grid, 0)
    assert est.Y[0, 20] == pytest.approx(1.0, abs=1e-13)
    assert np.max(est.dK) == 0.0
    assert np.max(obstacle_field(spec, grid) - est.Y) <= 0.0


def test_chain_dp_inactive_equals_plain_solver(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 80, 60)
    est = rbsde_chain_dp(spec, grid, 0)
    free = unconstrained_march(spec, grid)
    assert np.max(np.abs(est.Y - free)) <= 1e-10
    assert np.max(est.dK) == 0.0


def test_chain_dp_takes_one_sigma_row_per_step(sine_scenario):
    """A driver that reads z takes one a(t_k, x) row per step on the nx + 2
    nodes for its sigma Du proxy; sine_coef's own driver, with L = 0, takes
    none."""
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 50, 30)
    calls = []

    def counting_a(t, x):
        calls.append(np.shape(x))
        return spec.coefficients.a(t, x)

    counted = dataclasses.replace(
        spec, coefficients=dataclasses.replace(spec.coefficients, a=counting_a))
    reads_z = Driver(f=lambda t, x, y, z: 0.1 * np.asarray(z, dtype=float), L=0.1, M_growth=0.1,
                     g=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)))
    s_index = 4
    rbsde_chain_dp(counted, grid, s_index)
    assert calls.count((grid.nx + 2,)) == 0
    calls.clear()
    rbsde_chain_dp(dataclasses.replace(counted, driver=reads_z), grid, s_index)
    assert calls.count((grid.nx + 2,)) == grid.nt - s_index


def test_chain_dp_forms_no_sigma_row_for_a_driver_with_l_zero(heat_scenario, monkeypatch):
    """heat_bump's driver has L = 0: chain-dp gives it z = 0 and forms no sigma
    row, and its Y and dK are bit for bit those of the recursion that forms
    sigma Du on every step (``implicit_chain_dp``, whose loop ends at once on
    a driver free of y)."""
    import parobs.solver as solver_mod

    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 80, 60)
    Y, dK = implicit_chain_dp(spec, grid, 3)
    calls = []
    real = solver_mod._sigma_row

    def counting(spec_, grid_, t):
        calls.append(t)
        return real(spec_, grid_, t)

    for module in (solver_mod, stochastic):
        monkeypatch.setattr(module, "_sigma_row", counting)
    est = rbsde_chain_dp(spec, grid, 3)
    assert calls == []
    assert est.Y.tobytes() == Y.tobytes() and est.dK.tobytes() == dK.tobytes()


def test_chain_dp_put_against_binomial(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 200, 200)
    ix = int(round((0.0 - grid.x_nodes[0]) / grid.dx))
    est = rbsde_chain_dp(spec, grid, 0)
    crr = binomial_american_put(float(np.exp(grid.x_nodes[ix])), 1.0, 0.06, 0.3, 0.5, 2000)
    assert abs(est.Y[0, ix] - crr) <= 5e-3
    assert np.min(est.dK) >= 0.0


def test_chain_dp_monotone_in_obstacle(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    base = rbsde_chain_dp(spec, grid, 0).Y[0, 30]
    raised_obstacle = ObstacleData(
        h=lambda t, x: np.asarray(spec.obstacle.h(t, x), float) + 0.1,
        phi=lambda x: np.asarray(spec.obstacle.phi(x), float) + 0.1,
        h_growth=spec.obstacle.h_growth)
    spec2 = ObstacleProblemSpec(coefficients=spec.coefficients, driver=spec.driver,
                                obstacle=raised_obstacle, T=spec.T, weight=spec.weight,
                                x_lo=spec.x_lo, x_hi=spec.x_hi)
    assert rbsde_chain_dp(spec2, grid, 0).Y[0, 30] >= base - 1e-12


# ---------------------------------------------------------------------------
# regression schemes

def _lsmc_rows(est):
    """(k, X_k, Y_k, Z_k, dK_k) per date k < n of an LSMC estimate, from one
    forward reader pass through its date update, then (n, X_T, phi(X_T),
    None, None); every row is copied."""
    ens = est.ensemble
    with contextlib.closing(ens._read(backward=False)) as rows:
        for k, xk, _ in rows:
            if k == ens.n_steps:
                yield k, xk.copy(), np.array(ens.spec.obstacle.phi(xk), dtype=float), None, None
                return
            y, _, z, dk = est._evaluate(k, xk, est._basis_at(k, xk), _obstacle_row(ens, k, xk))
            yield k, xk.copy(), y, z, dk


def _fields(est):
    """An LSMC estimate's per-date values stacked into (Y, Z, dK) fields, Y
    with its terminal row phi(X_T): (n + 1, m), (n, m), (n, m)."""
    rows = list(_lsmc_rows(est))
    return (np.vstack([r[2] for r in rows]), np.vstack([r[3] for r in rows[:-1]]),
            np.vstack([r[4] for r in rows[:-1]]))


def _k_cumulative(dK):
    """K with K(s) = 0; one more row than dK."""
    out = np.zeros((dK.shape[0] + 1,) + dK.shape[1:])
    np.cumsum(dK, axis=0, out=out[1:])
    return out


def test_mc_schemes_exact_on_constant(constant_scenario):
    spec = constant_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, 0.05, 4000, seed=21)
    for est in (rbsde_reflected_mc(ens, 2),
                rbsde_penalized_mc(ens, 64, 2)):
        _, Z, dK = _fields(est)
        assert est.Y0 == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(dK)) <= 1e-12
        assert np.max(np.abs(Z)) <= 1e-12
        # Y >= h on every date, the terminal phi(X_T) included
        for k, x_k, y_k, _, _ in _lsmc_rows(est):
            h_k = np.asarray(spec.obstacle.h(float(ens.t_nodes[k]), x_k), dtype=float)
            assert np.max(h_k - y_k) <= 1e-12, k


def test_penalized_mc_inactive_collapses_to_terminal_mean(heat_scenario):
    spec = heat_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, 0.05, 4000, seed=22)
    est = rbsde_penalized_mc(ens, 256, 3)
    _, _, dK = _fields(est)
    assert est.Y0 == pytest.approx(float(np.mean(spec.obstacle.phi(_terminal(ens)))), abs=1e-12)
    assert np.max(dK) == 0.0


def test_reflected_mc_contact_everywhere(quad_scenario):
    spec = quad_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 100, 20_000, seed=23)
    est = rbsde_reflected_mc(ens, 3)
    Y, _, dK = _fields(est)
    h_vals = np.array([spec.obstacle.h(float(t), xk) for t, xk in zip(ens.t_nodes, x_rows(ens))])
    # Y sticks to the obstacle except for fit extrapolation at extreme paths
    assert np.mean(np.abs(Y - h_vals)) <= 5e-3
    assert np.quantile(np.abs(Y - h_vals), 0.99) <= 2e-2
    k_total = _k_cumulative(dK)[-1].mean()
    assert k_total == pytest.approx(spec.T, rel=5e-2)  # r = 1 so K_T = T


def test_k_monotone_and_zero_at_start(put_scenario):
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, -0.2, spec.T / 100, 5000, seed=24)
    for est in (rbsde_reflected_mc(ens, 3), rbsde_penalized_mc(ens, 256, 3)):
        K = _k_cumulative(_fields(est)[2])
        assert np.all(K[0] == 0.0)
        assert np.min(np.diff(K, axis=0)) >= 0.0
    chain = rbsde_chain_dp(spec, SpaceTimeGrid.build(spec, 60, 40), 0)
    assert np.min(chain.dK) >= 0.0


def test_discrete_skorokhod_flat_off_contact(put_scenario):
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, -0.2, spec.T / 100, 5000, seed=25)
    est = rbsde_reflected_mc(ens, 3)
    for k, x_k, y_k, _, dk_k in _lsmc_rows(est):
        if k == ens.n_steps:
            continue
        h_k = np.asarray(spec.obstacle.h(float(ens.t_nodes[k]), x_k), float)
        gap = (y_k - h_k) * dk_k
        assert np.max(np.abs(gap)) <= 1e-12  # dK > 0 only where Y = h exactly


def test_regression_singular_for_degenerate_cloud():
    spec = _const_family(a0=1e-30)
    ens = simulate_paths(spec, 0.0, 1.0, 0.1, 1024, seed=26)
    with pytest.raises(RegressionSingular):
        rbsde_reflected_mc(ens, 3)


def test_regression_singular_for_degenerate_cloud_at_origin():
    spec = _const_family(a0=1e-30)
    ens = simulate_paths(spec, 0.0, 0.0, 0.1, 1024, seed=26)
    with pytest.raises(RegressionSingular):
        rbsde_reflected_mc(ens, 3)


def test_regression_singular_for_two_point_cloud():
    rng = np.random.default_rng(41)
    x = np.where(rng.random(5000) < 0.3, -1.0, 2.0)
    with pytest.raises(RegressionSingular):
        _Projection(x, 3)
    # a degree-0 fit needs no spread: it is the sample mean
    y = rng.standard_normal(5000)
    proj = _Projection(np.full(5000, 1.0), 0)
    assert np.allclose(proj.coef(y) @ proj.B, y.mean(), rtol=1e-14)


@pytest.mark.parametrize("cloud", ["gaussian", "uniform", "skewed"])
def test_projection_matches_lstsq_oracle(cloud):
    rng = np.random.default_rng(["gaussian", "uniform", "skewed"].index(cloud))
    m = 20_000
    x = {"gaussian": lambda: 0.3 + 0.2 * rng.standard_normal(m),
         "uniform": lambda: rng.uniform(-1.0, 3.0, m),
         "skewed": lambda: rng.gamma(4.0, 1.0, m)}[cloud]()  # skewness 1
    targets = (np.sin(2.0 * x) + 0.3 * rng.standard_normal(m),
               np.maximum(1.0 - x, 0.0) * rng.standard_normal(m))
    for degree in range(7):
        proj = _Projection(x, degree)
        for y in targets:  # one factorization serves both right-hand sides
            ref = lstsq_polynomial_fit(x, y, degree)
            assert np.max(np.abs(proj.coef(y) @ proj.B - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["put_scenario", "sine_scenario"])
def test_lsmc_accessors_match_storing_oracle(name, request):
    spec = request.getfixturevalue(name).spec
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, spec.T / 40, 3000, seed=32)
    stored = stored_simulate_paths(spec, 0.0, x0, spec.T / 40, 3000, seed=32)
    for n_penalty, est in ((math.inf, rbsde_reflected_mc(ens, 3)),
                           (256, rbsde_penalized_mc(ens, 256, 3))):
        Y, Z, dK, y0, ci = storing_lsmc(spec, stored, 3, n_penalty)
        assert (est.Y0, est.ci) == (y0, ci)
        for k, x_k, y_k, z_k, dk_k in _lsmc_rows(est):
            assert np.array_equal(y_k, Y[k]), k
            if k < ens.n_steps:
                assert np.array_equal(z_k, Z[k]) and np.array_equal(dk_k, dK[k]), k
                assert np.array_equal(est._z(k, x_k), Z[k]), k
        # K_T is summed in the scheme's backward date order
        k_back = np.zeros(ens.path_count)
        for k in range(ens.n_steps - 1, -1, -1):
            k_back += dK[k]
        assert np.array_equal(est.K_T, k_back)
        assert np.allclose(est.K_T, dK.sum(axis=0), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n_penalty", [16, 256, 4096, 16384])
def test_penalized_dk_matches_the_penalty_increment(put_scenario, n_penalty):
    """The penalized dK = y - c equals the penalty increment dt n (h - y)^+
    of the same y up to rounding: within 1e-12 of max|dK| at every date."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 40, 3000, seed=35)
    est = rbsde_penalized_mc(ens, n_penalty, 3)
    drift, dk_max = 0.0, 0.0
    for k, x_k, y_k, _, dk_k in _lsmc_rows(est):
        if k == ens.n_steps:
            continue
        h_k = np.asarray(spec.obstacle.h(float(ens.t_nodes[k]), x_k), dtype=float)
        penalty = ens.dt_path * n_penalty * np.maximum(h_k - y_k, 0.0)
        drift = max(drift, float(np.max(np.abs(dk_k - penalty))))
        dk_max = max(dk_max, float(np.max(np.abs(dk_k))))
    assert dk_max > 0.0
    assert drift <= 1e-12 * dk_max


@pytest.mark.parametrize("n_penalty", [-20, 0, math.nan])
def test_penalized_mc_rejects_a_level_below_one(put_scenario, n_penalty):
    """A level below 1, or NaN, raises ``ValueError`` as ``solve_penalized``
    does (n = -20 returned a negative Y0, and dt n = -1 divided by zero)."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 40, 3000, seed=35)
    with pytest.raises(ValueError, match="n_penalty must be >= 1"):
        rbsde_penalized_mc(ens, n_penalty, 3)


def test_lsmc_forms_each_continuation_once(monkeypatch, put_scenario):
    """The backward pass fits each date's continuation once, for the Z target
    and the value update alike (two ``_fitted`` calls per date, with Z's),
    and stays bit-identical to the storing oracle."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 40, 3000, seed=34)
    stored = stored_simulate_paths(spec, 0.0, 0.0, spec.T / 40, 3000, seed=34)
    calls = []
    real = stochastic._fitted
    monkeypatch.setattr(stochastic, "_fitted",
                        lambda *args: calls.append(args[1] is None) or real(*args))
    est = rbsde_reflected_mc(ens, 3)
    assert len(calls) == 2 * ens.n_steps
    Y, _, _, y0, ci = storing_lsmc(spec, stored, 3)
    assert (est.Y0, est.ci) == (y0, ci)
    assert all(np.array_equal(y_k, Y[k]) for k, _, y_k, _, _ in _lsmc_rows(est))


def test_driver_is_called_once_per_date(put_scenario):
    """The explicit value step calls the driver once per date: a reflected
    fit makes one call per date in its value step, one in its V update and
    one per batch of the start date's CI (266 calls here when the step
    iterated the driver in y), and chain-dp one per step."""
    spec = put_scenario.spec
    calls = []

    def counting_f(t, x, y, z):
        calls.append(np.shape(x))
        return spec.driver.f(t, x, y, z)

    counted = dataclasses.replace(spec, driver=dataclasses.replace(spec.driver, f=counting_f))
    ens = simulate_paths(counted, 0.0, 0.0, counted.T / 40, 3000, seed=36)
    rbsde_reflected_mc(ens, 3)
    assert len(calls) == 2 * ens.n_steps + N_BATCHES == 90
    calls.clear()
    grid = SpaceTimeGrid.build(counted, 60, 40)
    s_index = 4
    rbsde_chain_dp(counted, grid, s_index)
    assert calls == [(grid.nx + 2,)] * (grid.nt - s_index)


def test_explicit_value_step_within_its_order_of_the_implicit_one(put_scenario, sine_scenario):
    """Against the step implicit in the driver's y, the explicit step moves
    each date by dt |f(y) - f(c)| <= L dt^2 |f|, so n_steps dates move by at
    most n_steps L dt^2 max |f|.  The put's driver -r y + kappa z stays below
    0.1 in size (|y| <= strike = 1, |z| <= sigma = 0.3), so the fit's Y0
    and chain-dp's Y and dK must lie within 0.1 n_steps L dt^2 of the
    implicit reference (3.75e-5 at 40 dates; 9.7e-8, 3.3e-6 and 5.0e-7
    measured).  A driver
    free of y (sine_coef) gives the implicit value bit for bit."""
    spec = put_scenario.spec
    n = 40
    dt = spec.T / n
    bound = 0.1 * n * spec.driver.L * dt**2
    ens = simulate_paths(spec, 0.0, 0.0, dt, 3000, seed=37)
    stored = stored_simulate_paths(spec, 0.0, 0.0, dt, 3000, seed=37)
    _, _, _, y0_implicit, _ = storing_lsmc(spec, stored, 3, implicit=True)
    y0 = rbsde_reflected_mc(ens, 3).Y0
    assert 0.0 < abs(y0 - y0_implicit) <= bound
    grid = SpaceTimeGrid.build(spec, 60, n)
    Y, dK = implicit_chain_dp(spec, grid, 0)
    chain = rbsde_chain_dp(spec, grid, 0)
    assert 0.0 < np.max(np.abs(chain.Y - Y)) <= bound
    assert np.max(np.abs(chain.dK - dK)) <= bound

    spec = sine_scenario.spec
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, spec.T / n, 3000, seed=37)
    stored = stored_simulate_paths(spec, 0.0, x0, spec.T / n, 3000, seed=37)
    for n_penalty, est in ((math.inf, rbsde_reflected_mc(ens, 3)),
                           (256, rbsde_penalized_mc(ens, 256, 3))):
        Y, _, dK, y0, ci = storing_lsmc(spec, stored, 3, n_penalty, implicit=True)
        assert (est.Y0, est.ci) == (y0, ci)
        for k, _, y_k, _, dk_k in _lsmc_rows(est):
            assert np.array_equal(y_k, Y[k]), k
            assert k == ens.n_steps or np.array_equal(dk_k, dK[k]), k
    grid = SpaceTimeGrid.build(spec, 60, n)
    chain, (Y, dK) = rbsde_chain_dp(spec, grid, 0), implicit_chain_dp(spec, grid, 0)
    assert np.array_equal(chain.Y, Y) and np.array_equal(chain.dK, dK)


def test_reflected_mc_holds_no_path_by_date_field(put_scenario):
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 200, 20_000, seed=33)
    field_bytes = ens.n_steps * ens.path_count * 8  # one (n, m) float64 field: 32 MB
    est, peak = _traced_peak(lambda: rbsde_reflected_mc(ens, 3))
    assert peak <= field_bytes / 4
    assert est.coef.shape == (200, 2, 4) and est.K_T.shape == (20_000,)


def test_readers_hold_one_segment_plus_a_spare_row_pair(put_scenario, monkeypatch):
    """A backward reader writes into at most one replay segment's X and dW
    rows (2 stride - 1) plus one spare pair, and a forward reader into five
    rows; a forward pass peaks near those rows, and the rows of both equal
    the storing simulator's."""
    spec = put_scenario.spec
    m = 20_000
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 200, m, seed=33)
    assert ens.X.stride == 10
    ref = stored_simulate_paths(spec, 0.0, 0.0, spec.T / 200, m, seed=33)
    taken = []
    real_take = stochastic._Handoff.take
    monkeypatch.setattr(stochastic._Handoff, "take",
                        lambda self: taken.append(real_take(self)) or taken[-1])
    for backward, bound in ((True, 2 * ens.X.stride + 1), (False, 5)):
        taken.clear()
        with contextlib.closing(ens._read(backward)) as rows:
            for k, xk, dw in rows:
                if k in (0, 95, ens.n_steps):
                    assert np.array_equal(xk, ref.X[k]), (backward, k)
                    assert dw is None if k == ens.n_steps else np.array_equal(dw, ref.dW[k])
        assert 0 < len({id(row) for row in taken}) <= bound, backward
    del ref
    taken.clear()

    def forward_pass():
        with contextlib.closing(ens._read(False)) as rows:
            for _ in rows:
                pass

    _, peak = _traced_peak(forward_pass)
    assert peak <= 8 * m * 8   # five slot rows and the stepper's block rows; 6.3 rows measured


def test_basis_degree_capped_and_path_floor():
    spec = _const_family()
    ens = simulate_paths(spec, 0.0, 0.0, 0.1, 1200, seed=27)
    with pytest.raises(ValueError):
        rbsde_reflected_mc(ens, 7)
    with pytest.raises(ValueError, match="0..6"):
        rbsde_reflected_mc(ens, -1)
    small = simulate_paths(spec, 0.0, 0.0, 0.1, 200, seed=27)
    with pytest.raises(ValueError):
        rbsde_reflected_mc(small, 3)


def test_convergence_table_zero_on_constant(constant_scenario):
    spec = constant_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, 0.1, 2000, seed=28)
    tab = penalization_convergence_mc(ens, [4, 16, 64], 2)
    assert np.max(tab.y_distance) <= 1e-12
    assert np.max(tab.k_distance) <= 1e-12


def test_convergence_table_inactive_within_noise(heat_scenario):
    spec = heat_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, 0.05, 4000, seed=29)
    tab = penalization_convergence_mc(ens, [16, 256], 3)
    assert np.max(tab.y_distance) <= 1e-10
    assert np.max(tab.k_distance) <= 1e-10


def test_each_level_of_a_ladder_fit_is_its_one_level_fit(put_scenario):
    """One backward pass over the levels (inf, 16, 256, 4096) fits each level
    bit for bit as its own one-level pass: coefficients, K_T, Y0 and ci."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.5 * (spec.x_lo + spec.x_hi), spec.T / 40, 3000, seed=35)
    levels = (math.inf, 16.0, 256.0, 4096.0)
    ladder = stochastic._mc_backward(ens, 3, levels)
    assert [est.n_penalty for est in ladder] == list(levels)
    for est in ladder:
        lone = (rbsde_reflected_mc(ens, 3) if math.isinf(est.n_penalty)
                else rbsde_penalized_mc(ens, est.n_penalty, 3))
        assert est.coef.tobytes() == lone.coef.tobytes()
        assert est.K_T.tobytes() == lone.K_T.tobytes()
        assert (est.Y0, est.ci) == (lone.Y0, lone.ci)
    assert len({est.Y0 for est in ladder}) == len(levels)


def test_convergence_table_reads_the_ensemble_once_each_way(put_scenario, monkeypatch):
    """The convergence table opens one backward reader for the reflected
    scheme and all its levels, and one forward reader for its sweep; a
    schedule holding a level below 1 raises the ``rbsde_penalized_mc``
    error before any read."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.5 * (spec.x_lo + spec.x_hi), spec.T / 20, 2000, seed=36)
    reads, real = [], stochastic.PathEnsemble._read

    def counting(self, backward):
        reads.append(backward)
        return real(self, backward)

    monkeypatch.setattr(stochastic.PathEnsemble, "_read", counting)
    penalization_convergence_mc(ens, [16, 64, 256, 1024], 3)
    assert reads == [True, False]
    reads.clear()
    for bad in (0, -4):
        with pytest.raises(ValueError, match="n_penalty must be >= 1") as info:
            penalization_convergence_mc(ens, [16, 256, bad], 3)
        with pytest.raises(ValueError) as lone:
            rbsde_penalized_mc(ens, bad, 3)
        assert str(info.value) == str(lone.value)
    assert reads == []


def test_convergence_sweep_builds_each_basis_once(put_scenario, monkeypatch):
    """The backward pass and the forward sweep each build each date's basis
    once for every level, and the table equals the one from fields held whole, bit for bit."""
    spec = put_scenario.spec
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, spec.T / 40, 3000, seed=34)
    schedule = [16, 256, 4096]
    calls = []

    def counted(x, degree):
        calls.append(degree)
        return real_basis(x, degree)

    real_basis = stochastic._basis
    monkeypatch.setattr(stochastic, "_basis", counted)
    tab = penalization_convergence_mc(ens, schedule, 3)
    n = ens.n_steps
    # one basis per date k > 0 in the backward pass, then one per date in the sweep
    assert len(calls) == (n - 1) + (n - 1)
    stored = stored_simulate_paths(spec, 0.0, x0, spec.T / 40, 3000, seed=34)
    ref = stored_convergence_table(spec, stored, schedule, 3)
    for got, want in zip((tab.y_distance, tab.k_distance, tab.y_ci, tab.k_ci), ref, strict=True):
        assert np.array_equal(got, want)
    assert np.all(tab.y_distance > 0.0) and np.all(tab.k_distance > 0.0)


def test_each_pass_evaluates_the_obstacle_once_per_date(put_scenario):
    """The convergence table's backward pass and forward sweep each evaluate
    h(t_k, X_k) once per date for the reflected scheme and all its levels,
    not once per level; a one-level fit makes one call per date too."""
    spec = put_scenario.spec
    calls = []

    def counted(t, x):
        calls.append(t)
        return spec.obstacle.h(t, x)

    counting = dataclasses.replace(spec, obstacle=dataclasses.replace(spec.obstacle, h=counted))
    ens = simulate_paths(counting, 0.0, 0.5 * (spec.x_lo + spec.x_hi), spec.T / 20, 2000,
                         seed=37)
    n = ens.n_steps
    assert calls == []
    penalization_convergence_mc(ens, [16, 256, 4096], 3)
    dates = ens.t_nodes[:n].tolist()
    assert calls == dates[::-1] + dates
    calls.clear()
    rbsde_reflected_mc(ens, 3)
    assert calls == dates[::-1]


# ---------------------------------------------------------------------------
# optimal stopping

def test_stopping_constant_scenario(constant_scenario):
    spec = constant_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 30)
    sol = solve_psor(spec, grid)
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 30, 2000, seed=30)
    sv = optimal_stopping_value(grid, sol, ens)
    assert sv.rule_value == pytest.approx(1.0, abs=1e-12)
    assert sv.snell_value == pytest.approx(1.0, abs=1e-12)
    assert sv.gap <= 1e-12


def test_stopping_inactive_obstacle_never_stops(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    sol = solve_psor(spec, grid)
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 80, 20_000, seed=31)
    sv = optimal_stopping_value(grid, sol, ens)
    # rule never triggers: value = E phi(X_T), the plain solution
    ix = int(round((0.0 - grid.x_nodes[0]) / grid.dx))
    assert abs(sv.rule_value - sol.u_values[0, ix]) <= 3.0 * sv.rule_ci + 5e-3
    assert sv.gap <= 3.0 * sv.rule_ci + 5e-3


def test_snell_equals_chain_dp_without_driver_dependence(quad_scenario):
    spec = quad_scenario.spec
    grid = SpaceTimeGrid.build(spec, 100, 80)
    sol = solve_psor(spec, grid)
    ix = 30
    chain = rbsde_chain_dp(spec, grid, 0)
    snell = snell_recursion(spec, grid, frozen_reward_field(spec, grid, sol.u_values), 0, ix)
    assert snell == chain.Y[0, ix]  # bit-identical recursions when f ignores (y, z)


@pytest.mark.parametrize("name", ["constant_scenario", "heat_scenario", "sine_scenario",
                                  "put_scenario", "quad_scenario"])
def test_stop_value_snell_is_chain_dp_under_the_frozen_driver(request, name):
    """stop-value's exhaustive value, chain-dp on the spec whose driver is
    frozen along the solved field, equals the Snell recursion with that
    field's reward, bit for bit: each step is cont + dt reward_k, max(h, .)
    and clamped edges.  The put's driver depends on (y, z), so there the
    frozen driver is what makes the two agree."""
    spec = request.getfixturevalue(name).spec
    grid = SpaceTimeGrid.build(spec, 60, 40)
    sol = solve_psor(spec, grid)
    reward = frozen_reward_field(spec, grid, sol.u_values)
    x0 = 0.5 * (spec.x_lo + spec.x_hi) + 0.3
    for s_index in (0, 13):
        s = float(grid.t_nodes[s_index])
        ens = simulate_paths(spec, s, x0, (spec.T - s) / 9, 200, seed=3)
        x_index = int(np.clip(round((x0 - grid.x_nodes[0]) / grid.dx), 0, grid.nx + 1))
        sv = optimal_stopping_value(grid, sol, ens)
        assert sv.snell_value == snell_recursion(spec, grid, reward, s_index, x_index), s_index


def test_chain_dp_skorokhod_exact(put_scenario):
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 80, 60)
    chain = rbsde_chain_dp(spec, grid, 0)
    h_field = obstacle_field(spec, grid)
    assert np.max(np.abs((chain.Y - h_field) * chain.dK)) == 0.0


def test_estimates_deterministic_for_fixed_inputs(put_scenario):
    spec = put_scenario.spec
    e1 = simulate_paths(spec, 0.0, -0.1, spec.T / 50, 4000, seed=99)
    e2 = simulate_paths(spec, 0.0, -0.1, spec.T / 50, 4000, seed=99)
    a = rbsde_reflected_mc(e1, 3)
    b = rbsde_reflected_mc(e2, 3)
    assert a.Y0 == b.Y0 and a.ci == b.ci
    (a_Y, _, a_dK), (b_Y, _, b_dK) = _fields(a), _fields(b)
    assert np.array_equal(a_Y, b_Y) and np.array_equal(a_dK, b_dK)
