"""The penalty ladder: levels marched in lockstep by one backward pass.

Every level of a lockstep march must be the lone march of that level, bit
for bit, and the penalization study and the minimality check built on it
must equal their level-by-level loops, errors included.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import parobs.solver as solver_mod
from parobs.errors import InnerDivergence, MonotonicityViolation
from parobs.grid import SpaceTimeGrid
from parobs.problem import Coefficients, Driver, ObstacleData, ObstacleProblemSpec, Weight
from parobs.solver import (_penalized_march, obstacle_field, penalization_study, solve_penalized,
                           solve_psor)
from parobs.verify import CHECKS, VerifyContext, check_minimality

from oracles import (lone_penalized, sequential_minimality, sequential_penalization_study)

SCENARIOS = ["constant_scenario", "heat_scenario", "sine_scenario", "put_scenario",
             "quad_scenario"]
MINIMALITY = [2**j for j in range(4, 13, 2)]
STUDY = [2**j for j in range(4, 13)]


def _grid(spec):
    return SpaceTimeGrid.build(spec, 60, 40)


def _lockstep(spec, grid, levels):
    """Every level's field and iteration counts from one lockstep march."""
    u = np.empty((len(levels), grid.nt + 1, grid.nx + 2))
    counts = np.zeros((len(levels), grid.nt), dtype=int)
    for k, rows, its in _penalized_march(spec, grid, levels, obstacle_field(spec, grid)):
        assert len(rows) == len(levels)
        u[:, k] = rows
        if k < grid.nt:
            counts[:, k] = its
    return u, counts


@pytest.mark.parametrize("name", SCENARIOS)
def test_lockstep_levels_are_their_lone_marches(name, request):
    """Every lockstep level is bit for bit its lone march and the old loop
    (``lone_penalized``), which ends a step only when the iterate stops
    moving.  With L = 0 a step ends when its row keeps the active set its
    solve used, so it makes one solve fewer than the old loop exactly where
    the old loop's last solve only confirmed the row before it; with L > 0
    (the put) the counts are the old loop's."""
    spec = request.getfixturevalue(name).spec
    grid = _grid(spec)
    h_field = obstacle_field(spec, grid)
    u, counts = _lockstep(spec, grid, MINIMALITY)
    for level, n in enumerate(MINIMALITY):
        lone = lone_penalized(spec, grid, n)
        one = solve_penalized(spec, grid, n)
        for sol in (lone, one):
            assert np.array_equal(u[level], sol.u_values)
            assert np.array_equal(float(n) * np.maximum(h_field - u[level], 0.0), sol.r_values)
        assert np.array_equal(counts[level], one.inner_iteration_counts)
        saved = lone.confirmed if spec.driver.L <= 0.0 else 0
        assert np.array_equal(counts[level], lone.inner_iteration_counts - saved)


def _dgtsv_calls(monkeypatch, fn) -> int:
    """The ``dgtsv`` calls that ``fn()`` makes."""
    import parobs.grid as grid_mod

    calls, real = [], grid_mod.dgtsv
    monkeypatch.setattr(grid_mod, "dgtsv", lambda *args: calls.append(1) or real(*args))
    fn()
    monkeypatch.setattr(grid_mod, "dgtsv", real)
    return len(calls)


def test_minimality_makes_one_dgtsv_call_per_step(sine_scenario, monkeypatch):
    """On sine_coef (L = 0, an obstacle that never binds) each level's first
    solve keeps the empty active set it used, so at the benchmark's grid the
    check's ladder makes one block solve per step: 200, where solving again
    to see the rows not move made 400."""
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 800, 200)
    ctx = VerifyContext(spec, grid, sine_scenario.mc_params)
    ctx.sol
    assert _dgtsv_calls(monkeypatch, lambda: CHECKS["minimality"](ctx)) == grid.nt == 200


def test_the_put_makes_the_old_loops_solves(put_scenario, monkeypatch):
    """The put's driver has L > 0: its penalized steps end only when the
    iterate stops moving, with as many solves as the old loop made."""
    spec = put_scenario.spec
    grid = _grid(spec)
    old = int(lone_penalized(spec, grid, 1024).inner_iteration_counts.sum())
    pen = []
    assert _dgtsv_calls(monkeypatch, lambda: pen.append(solve_penalized(spec, grid, 1024))) == old
    assert int(pen[0].inner_iteration_counts.sum()) == old == 170


def _assert_same_study(study, ref_study):
    assert study.n_levels == ref_study.n_levels
    for key in ("sup_increments", "norm_increments", "distances_to_reference"):
        assert np.array_equal(getattr(study, key), getattr(ref_study, key)), key


@pytest.mark.parametrize("name", SCENARIOS)
def test_study_and_minimality_equal_their_level_loops(name, request):
    sc = request.getfixturevalue(name)
    grid = _grid(sc.spec)
    ctx = VerifyContext(sc.spec, grid, sc.mc_params)
    _assert_same_study(penalization_study(sc.spec, grid, STUDY, ctx.sol),
                       sequential_penalization_study(sc.spec, grid, STUDY, ctx.sol))
    _assert_same_study(penalization_study(sc.spec, grid, STUDY[:1], ctx.sol),
                       sequential_penalization_study(sc.spec, grid, STUDY[:1], ctx.sol))
    rep = check_minimality(ctx, MINIMALITY)
    overshoot, gap = sequential_minimality(sc.spec, grid, ctx.sol, MINIMALITY)
    assert (rep.details["overshoot"], rep.details["final_gap"]) == (overshoot, gap)
    assert rep.discrepancy == max(overshoot / solver_mod.DEFAULT_MONO_TOL, gap / 1e-3)


def test_an_inactive_level_inside_the_schedule_ends_the_study(monkeypatch, put_scenario):
    """A level past the first whose penalty is inactive ends the study.
    Forced here on the put at level 256: the study must equal the level loop
    run up to 256."""
    spec = put_scenario.spec
    grid = _grid(spec)
    fold = solver_mod._fold_ladder

    def inactive_at_256(spec_, grid_, n_levels, *args):
        out = fold(spec_, grid_, n_levels, *args)
        out["gap"][n_levels.index(256)] = 0.0
        return out

    monkeypatch.setattr(solver_mod, "_fold_ladder", inactive_at_256)
    ref = solve_psor(spec, grid)
    _assert_same_study(penalization_study(spec, grid, STUDY, ref),
                       sequential_penalization_study(spec, grid, [16, 32, 64, 128, 256], ref))


def _with_trigger(spec, grid, node, triggers):
    """``spec`` with its driver replaced by 1e20 at grid node ``node`` on the
    steps k of ``triggers`` {k: threshold} where the iterate exceeds the
    threshold: the levels that climb past it there diverge."""
    base = spec.driver.f
    x_star = grid.x_nodes[node]
    t_thr = {float(grid.t_nodes[k]): thr for k, thr in triggers.items()}

    def f(t, x, y, z):
        out = np.asarray(base(t, x, y, z), dtype=float)
        if t not in t_thr:
            return out
        return np.where((x == x_star) & (np.asarray(y) > t_thr[t]), 1e20, out)

    return dataclasses.replace(spec, driver=dataclasses.replace(spec.driver, f=f))


def _raised(fn):
    with pytest.raises((InnerDivergence, MonotonicityViolation)) as info:
        fn()
    return type(info.value), str(info.value)


def test_later_level_divergence_raises_as_the_level_loop(put_scenario):
    """On the put at node 15, u_64 < 0.4148 < u_256 at t_0 and
    u_256 < 0.4151 < u_1024 at t_5: levels 1024 and 4096 diverge first in the
    march (at step 5), level 256 later (at step 0); the level loop raises
    level 256's divergence, and so must the ladder."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 20)
    bad = _with_trigger(spec, grid, 15, {0: 0.4148, 5: 0.4151})
    want = (InnerDivergence, "penalized inner iteration (n = 256) diverged at step 0")
    sol = solve_psor(spec, grid)
    assert _raised(lambda: sequential_penalization_study(bad, grid, STUDY, sol)) == want
    assert _raised(lambda: penalization_study(bad, grid, STUDY, sol)) == want
    assert _raised(lambda: sequential_minimality(bad, grid, sol, MINIMALITY)) == want
    ctx = VerifyContext(bad, grid, put_scenario.mc_params)
    ctx.sol = sol
    assert _raised(lambda: check_minimality(ctx, MINIMALITY)) == want


def _non_monotone_spec(kappa=4.0):
    """A put payoff with the driver kappa z: on a grid with kappa sigma dx > a
    the central-difference drift breaks the discrete comparison principle, and
    u_n decreases in n between n = 2 and n = 4."""
    payoff = lambda x: np.maximum(1.0 - np.exp(np.asarray(x, float)), 0.0)
    return ObstacleProblemSpec(
        coefficients=Coefficients(a=lambda t, x: 1.0, a_x=lambda t, x: 0.0,
                                  lambda_ell=1.0, Lambda_ell=1.0),
        driver=Driver(f=lambda t, x, y, z: kappa * np.asarray(z, float), L=kappa,
                      M_growth=kappa, g=lambda t, x: np.zeros_like(np.asarray(x, float))),
        obstacle=ObstacleData(h=lambda t, x: payoff(x), phi=payoff, h_growth=(1.0, 0.0)),
        T=0.5, weight=Weight(1.0), x_lo=-3.0, x_hi=3.0)


@pytest.mark.parametrize("schedule, threshold, kind", [
    ([2, 4, 8, 16, 32], 0.83, MonotonicityViolation),  # 16 and 32 diverge, after the break
    ([2, 4, 8], 0.6, InnerDivergence),                  # 4 diverges before its comparison
])
def test_errors_keep_the_level_loop_order(schedule, threshold, kind):
    """At node 1 and t_0 the levels reach 0.56, 0.69, 0.80, 0.86 and 0.89
    for n = 2, 4, 8, 16, 32."""
    spec = _non_monotone_spec()
    grid = SpaceTimeGrid.build(spec, 8, 10)
    bad = _with_trigger(spec, grid, 1, {0: threshold})
    ref = solve_psor(spec, grid)
    want = _raised(lambda: sequential_penalization_study(bad, grid, schedule, ref))
    assert want[0] is kind
    assert _raised(lambda: penalization_study(bad, grid, schedule, ref)) == want


def test_minimality_holds_less_than_one_field(sine_scenario):
    """At nx = 800 the check holds, beyond the context's solution, less than
    one (nt + 1, nx + 2) field: the level-by-level loop held several."""
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 800, 100)
    ctx = VerifyContext(spec, grid, sine_scenario.mc_params)
    ctx.sol
    tracemalloc.start()
    try:
        rep = check_minimality(ctx, MINIMALITY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < (grid.nt + 1) * (grid.nx + 2) * 8


def test_study_holds_less_than_three_fields(put_scenario):
    """At nx = 800 the penalization study holds, beyond its reference, less
    than three (nt + 1, nx + 2) fields: its obstacle field and the ladder's
    rows, with no level's field.  Marching the first level alone held four."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 800, 100)
    ref = solve_psor(spec, grid)
    tracemalloc.start()
    try:
        study = penalization_study(spec, grid, STUDY, ref)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert study.n_levels == STUDY
    assert peak < 3 * (grid.nt + 1) * (grid.nx + 2) * 8


@pytest.mark.parametrize("name", SCENARIOS)
def test_study_makes_one_dgtsv_call_per_ladder_iterate(name, request, monkeypatch):
    """The study calls no ``solve_penalized``: its whole schedule is one
    march, whose every iterate solves all its live levels by one ``dgtsv``
    call."""
    import parobs.grid as grid_mod

    spec = request.getfixturevalue(name).spec
    grid = _grid(spec)
    ref = solve_psor(spec, grid)
    counts = {"dgtsv": 0, "step": 0, "solve_penalized": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(grid_mod, "dgtsv", counted("dgtsv", grid_mod.dgtsv))
    monkeypatch.setattr(solver_mod, "solve_backward_step",
                        counted("step", solver_mod.solve_backward_step))
    monkeypatch.setattr(solver_mod, "solve_penalized",
                        counted("solve_penalized", solver_mod.solve_penalized))
    penalization_study(spec, grid, STUDY, ref)
    assert counts["solve_penalized"] == 0
    assert counts["dgtsv"] == counts["step"] >= grid.nt
