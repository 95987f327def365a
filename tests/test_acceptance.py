"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier fixtures
(reference-resolution solutions and the 1e5-path ensemble) are shared across
criteria.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from parobs.grid import SpaceTimeGrid, solve_density
from parobs.solver import (
    contraction_gamma,
    penalization_study,
    picard_outer,
    solve_penalized,
    solve_psor,
)
from parobs.stochastic import (
    moment_ratio_probe,
    optimal_stopping_value,
    penalization_convergence_mc,
    rbsde_chain_dp,
    rbsde_reflected_mc,
    simulate_paths,
)
from parobs.verify import (
    VerifyContext,
    check_measure_identity,
    check_representation_u,
    check_skorokhod,
    default_test_functions,
)

from conftest import scenario_path
from oracles import (binomial_american_put, energy_identity_residual, frozen_reward_field,
                     reflected_mc_measure_identity, snell_recursion)

SCHEDULE = [2**j for j in range(4, 15)]


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def atm_index(grid):
    return int(round((0.0 - grid.x_nodes[0]) / grid.dx))


@pytest.fixture(scope="module")
def put200(put_scenario):
    grid = SpaceTimeGrid.build(put_scenario.spec, 200, 200)
    return grid, solve_psor(put_scenario.spec, grid)


@pytest.fixture(scope="module")
def quad200(quad_scenario):
    grid = SpaceTimeGrid.build(quad_scenario.spec, 200, 200)
    return grid, solve_psor(quad_scenario.spec, grid)


@pytest.fixture(scope="module")
def put_chain(put_scenario, put200):
    grid, _ = put200
    return rbsde_chain_dp(put_scenario.spec, grid, 0)


@pytest.fixture(scope="module")
def put_ensemble(put_scenario, put200):
    grid, _ = put200
    x0 = float(grid.x_nodes[atm_index(grid)])
    return simulate_paths(put_scenario.spec, 0.0, x0, put_scenario.spec.T / 200,
                          100_000, int(put_scenario.mc_params["seed"]))


@pytest.fixture(scope="module")
def penalization_runs(put_scenario, quad_scenario, put200, quad200):
    """Criterion 1/2 shared artifact: full schedules on both active scenarios."""
    t0 = time.time()
    out = {}
    for name, sc, (grid, psor) in (("american-put", put_scenario, put200),
                                   ("obstacle-quad", quad_scenario, quad200)):
        out[name] = (grid, psor, penalization_study(sc.spec, grid, SCHEDULE, psor))
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_1_penalization_monotone(penalization_runs):
    elapsed = penalization_runs["elapsed"]
    worst_gap = 0.0
    for name in ("american-put", "obstacle-quad"):
        _, _, study = penalization_runs[name]
        assert study.n_levels == SCHEDULE
        worst_gap = max(worst_gap, float(study.distances_to_reference[-1]))
    passed = worst_gap <= 1e-3 and elapsed <= 60.0
    report("criterion-1 penalization-monotonicity", passed,
           f"final gap {worst_gap:.2e} <= 1e-3, schedules 2^4..2^14 in {elapsed:.1f}s")


def test_criterion_2_uniqueness_minimality(all_scenarios, penalization_runs):
    worst_gap, worst_over = 0.0, 0.0
    for name, sc in all_scenarios.items():
        if name in ("american-put", "obstacle-quad"):
            grid, psor, study = penalization_runs[name]
        else:
            grid = SpaceTimeGrid.build(sc.spec, int(sc.grid_params["nx"]),
                                       int(sc.grid_params["nt"]))
            psor = solve_psor(sc.spec, grid)
            study = penalization_study(sc.spec, grid, [16, 64, 256], psor)
        # the study holds no field: its last level, marched alone, is bit for bit the ladder's
        limit = solve_penalized(sc.spec, grid, study.n_levels[-1])
        gap = float(study.distances_to_reference[-1])
        over = float(np.max(limit.u_values - psor.u_values))
        worst_gap, worst_over = max(worst_gap, gap), max(worst_over, over)
    passed = worst_gap <= 1e-3 and worst_over <= 1e-7
    report("criterion-2 uniqueness-minimality", passed,
           f"max gap {worst_gap:.2e} <= 1e-3, from below (overshoot {worst_over:.1e})")


def test_criterion_3_skorokhod(all_scenarios, penalization_runs):
    worst = 0.0
    for name, sc in all_scenarios.items():
        if name in ("american-put", "obstacle-quad"):
            _, psor, _ = penalization_runs[name]
        else:
            grid = SpaceTimeGrid.build(sc.spec, int(sc.grid_params["nx"]),
                                       int(sc.grid_params["nt"]))
            psor = solve_psor(sc.spec, grid)
        rep = check_skorokhod(psor)
        assert rep.passed
        worst = max(worst, rep.discrepancy)
    report("criterion-3 skorokhod", worst <= 1e-8,
           f"max normalized complementarity {worst:.2e} <= 1e-8")


def test_criterion_4_feynman_kac(put_scenario, put200, put_chain):
    grid, _ = put200
    spec = put_scenario.spec
    t0 = time.time()
    probes = [(0.0, 0.0), (0.0, -0.15), (0.0, 0.15), (0.125, 0.0), (0.25, -0.1)]
    rep = check_representation_u(VerifyContext(spec, grid, put_scenario.mc_params,
                                               put_scenario.calibration), probes)
    elapsed = time.time() - t0
    worst_mc = max(r["mc_disc"] / r["mc_budget"] for r in rep.details["probes"])
    worst_chain = max(r["chain_disc"] for r in rep.details["probes"])
    passed = rep.passed and elapsed <= 300.0
    report("criterion-4 feynman-kac", passed,
           f"5 probes, worst mc ratio {worst_mc:.2f}, worst chain gap {worst_chain:.1e} "
           f"<= 1e-3, {elapsed:.0f}s")


def test_criterion_5_measure_identity(put_scenario, quad_scenario, put200, quad200):
    results = []
    for sc, (grid, _) in ((put_scenario, put200), (quad_scenario, quad200)):
        rep = check_measure_identity(VerifyContext(sc.spec, grid, sc.mc_params), 0.0, 0.0)
        worst = max(v["rel"] for v in rep.details.values())
        results.append((f"{sc.name} chain", worst))
        assert rep.passed
    mcp = dict(quad_scenario.mc_params)
    mcp["paths"] = 100_000
    rep_mc = reflected_mc_measure_identity(VerifyContext(quad_scenario.spec, quad200[0], mcp),
                                           0.0, 0.0)
    worst_mc = max(v["rel"] for v in rep_mc.details.values())
    results.append((f"{quad_scenario.name} reflected-mc", worst_mc))
    passed = rep_mc.passed and all(w <= 5e-2 for _, w in results)
    detail = ", ".join(f"{n}={w:.3f}" for n, w in results)
    report("criterion-5 measure-identity", passed, detail +
           " (american-put MC route documented as basis-misfit-dominated in the ledger)")


def test_criterion_6_binomial_oracle(put_scenario, put200, put_chain):
    grid, _ = put200
    ix = atm_index(grid)
    s0 = float(np.exp(grid.x_nodes[ix]))
    crr = binomial_american_put(s0, 1.0, 0.06, 0.3, 0.5, 2000)
    gap = abs(put_chain.Y[0, ix] - crr)
    report("criterion-6 binomial-oracle", gap <= 5e-3,
           f"|chain-dp Y0 - CRR(2000)| = {gap:.2e} <= 5e-3")


def test_criterion_7_heat_kernel(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 400, 400)
    center = 201
    x0 = float(grid.x_nodes[center])
    dens = solve_density(spec, grid, 0, center)
    gauss = np.exp(-0.5 * (grid.x_nodes - x0) ** 2 / spec.T) / np.sqrt(2 * np.pi * spec.T)
    l1 = float(np.sum(np.abs(dens.values[-1, 1:-1] / grid.dx - gauss[1:-1])) * grid.dx)
    report("criterion-7 heat-kernel", l1 <= 2e-2,
           f"L1 distance to the exact Gaussian {l1:.2e} <= 2e-2 at nx=nt=400")


def test_criterion_8_contraction(all_scenarios, put_scenario, put200):
    grid, _ = put200
    spec = put_scenario.spec
    gamma = contraction_gamma(spec)
    lam, big, L = spec.coefficients.lambda_ell, spec.coefficients.Lambda_ell, spec.driver.L
    assert gamma == pytest.approx(1.0 + 4 * L**2 + 8 * big**2 * L**2 / lam + big / (2 * lam))
    _, trace = picard_outer(spec, grid)
    worst = max(trace.ratios)
    # NoContraction must never trigger on any shipped scenario
    for name, sc in all_scenarios.items():
        if name == "american-put":
            continue
        g = SpaceTimeGrid.build(sc.spec, 60, 60)
        picard_outer(sc.spec, g)
    report("criterion-8 contraction", worst <= 0.6,
           f"gamma={gamma:.4f}, ratios beyond first iteration <= {worst:.3f} <= 0.6")


def test_criterion_9_moment_inequality(heat_scenario, sine_scenario):
    t0 = time.time()
    rows = []
    for sc in (heat_scenario, sine_scenario):
        spec = sc.spec
        base = moment_ratio_probe(
            simulate_paths(spec, 0.0, 0.0, spec.T / 50, 250_000, 77, store_dw=False), 4.0)
        fine = moment_ratio_probe(
            simulate_paths(spec, 0.0, 0.0, spec.T / 100, 1_000_000, 77, store_dw=False), 4.0)
        shift = abs(fine.ratio - base.ratio) / base.ratio
        rows.append((sc.name, base.ratio, fine.ratio, shift))
    elapsed = time.time() - t0
    passed = all(np.isfinite(b) and np.isfinite(f) and s <= 0.2 for _, b, f, s in rows) \
        and elapsed <= 120.0
    detail = ", ".join(f"{n}: {b:.3f}->{f:.3f} ({100*s:.1f}%)" for n, b, f, s in rows)
    report("criterion-9 moment-inequality", passed, detail + f", {elapsed:.0f}s")


def test_criterion_10_energy_identity(heat_scenario, put_scenario):
    slopes = []
    for sc, support in ((heat_scenario, 6.0), (put_scenario, 1.6)):
        values = []
        for nt in (100, 200, 400):
            grid = SpaceTimeGrid.build(sc.spec, 200, nt)
            sol = solve_psor(sc.spec, grid)
            xi = np.maximum(0.0, 1.0 - (grid.x_nodes / support) ** 2) ** 2
            xi[0] = xi[-1] = 0.0
            values.append(np.max(np.abs(energy_identity_residual(sc.spec, grid, sol, xi))))
        dts = np.log([sc.spec.T / nt for nt in (100, 200, 400)])
        slope = float(np.polyfit(dts, np.log(values), 1)[0])
        slopes.append((sc.name, slope))
    passed = all(s >= 0.9 for _, s in slopes)
    report("criterion-10 energy-identity", passed,
           ", ".join(f"{n}: fitted rate {s:.2f}" for n, s in slopes) + " (>= 0.9)")


def test_criterion_11_penalized_mc_convergence(put_scenario, put_ensemble):
    spec = put_scenario.spec
    tab = penalization_convergence_mc(put_ensemble, [2**j for j in range(4, 15, 2)],
                                      int(put_scenario.mc_params["basis_degree"]))
    dy, dk = tab.y_distance, tab.k_distance
    mono = np.all(np.diff(dy) <= 2.0 * tab.y_ci[1:]) and np.all(np.diff(dk) <= 2.0 * tab.k_ci[1:])
    final_ok = dy[-1] <= 2e-2 and dk[-1] <= 2e-2
    report("criterion-11 penalized-mc-convergence", bool(mono and final_ok),
           f"dY {dy[0]:.3f}->{dy[-1]:.4f}, dK {dk[0]:.3f}->{dk[-1]:.4f}, "
           f"nonincreasing, final <= 2e-2")


def test_criterion_12_optimal_stopping(put_scenario, quad_scenario, put200, quad200,
                                       put_ensemble, put_chain):
    grid, sol = put200
    sv = optimal_stopping_value(grid, sol, put_ensemble)
    gap_ok = sv.gap <= 5e-3
    qgrid, qsol = quad200
    ix = atm_index(qgrid)
    chain_q = rbsde_chain_dp(quad_scenario.spec, qgrid, 0)
    snell_q = snell_recursion(quad_scenario.spec, qgrid,
                              frozen_reward_field(quad_scenario.spec, qgrid, qsol.u_values), 0, ix)
    exact_ok = abs(snell_q - chain_q.Y[0, ix]) <= 1e-12
    report("criterion-12 optimal-stopping", gap_ok and exact_ok,
           f"rule-vs-snell gap {sv.gap:.2e} <= 5e-3; snell == chain-dp to "
           f"{abs(snell_q - chain_q.Y[0, ix]):.1e} when f is (y,z)-independent")


def test_criterion_13_determinism(tmp_path):
    scenario = scenario_path("obstacle_quad")
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-m", "parobs.cli", "--scenario", str(scenario),
             "--out", str(out), "verify", "--checks", "all"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("verify_report.csv", "verify_report.txt"))
    report("criterion-13 determinism", identical,
           "verify --checks all byte-identical across two fresh processes")
