import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import parobs
import parobs.solver as solver_mod
from parobs.errors import CflViolation
from parobs.grid import (
    SpaceTimeGrid,
    _banded_transpose,
    _tridiagonal_solve,
    assemble_operator,
    evolve_law,
    interp_space_time,
    solve_backward_step,
    solve_density,
    transition_kernel,
)
from parobs.problem import Coefficients, Driver, ObstacleData, ObstacleProblemSpec, Weight

from oracles import (
    GridTooCoarse,
    aronson_envelope_check,
    assembled_step_solve,
    mass_vector_evolution,
    operator_apply,
    reference_banded_solve,
)


def _const_spec(a0=1.0, T=1.0, half_width=8.0, nx_center=True):
    ones = lambda t, x: a0 * np.ones_like(np.asarray(x, float))
    zer = lambda t, x: np.zeros_like(np.asarray(x, float))
    return ObstacleProblemSpec(
        coefficients=Coefficients(a=ones, a_x=zer, lambda_ell=a0, Lambda_ell=a0),
        driver=Driver(f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)),
                      L=0.0, M_growth=0.0, g=zer),
        obstacle=ObstacleData(h=lambda t, x: np.full_like(np.asarray(x, float), -10.0),
                              phi=lambda x: np.exp(-0.5 * np.asarray(x, float) ** 2),
                              h_growth=(11.0, 0.0)),
        T=T, weight=Weight(1.0), x_lo=-half_width, x_hi=half_width,
    )


def _sine_spec():
    a = lambda t, x: 1.0 + 0.5 * np.sin(np.asarray(x, float)) * np.exp(-t)
    a_x = lambda t, x: 0.5 * np.cos(np.asarray(x, float)) * np.exp(-t)
    base = _const_spec()
    return ObstacleProblemSpec(
        coefficients=Coefficients(a=a, a_x=a_x, lambda_ell=0.5, Lambda_ell=1.5),
        driver=base.driver, obstacle=base.obstacle, T=1.0, weight=Weight(1.0),
        x_lo=-10.0, x_hi=10.0,
    )


def test_constant_coefficient_stencil():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 50, 10)
    op = assemble_operator(spec, grid, 0)
    scale = 1.0 / (2.0 * grid.dx**2)
    assert np.allclose(op.lower, scale)
    assert np.allclose(op.upper, scale)
    assert np.allclose(op.diag, -2.0 * scale)


def test_affine_field_in_kernel_of_operator():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 40, 10)
    u = 2.0 * grid.x_nodes + 3.0
    assert np.max(np.abs(operator_apply(assemble_operator(spec, grid, 0), u))) < 1e-12


def test_row_sums_zero_for_variable_coefficient():
    spec = _sine_spec()
    grid = SpaceTimeGrid.build(spec, 80, 20)
    for k in (0, 7, 20):
        op = assemble_operator(spec, grid, k)
        scale = float(np.max(np.abs(op.diag)))
        assert np.max(np.abs(op.lower + op.diag + op.upper)) <= 1e-14 * scale
        assert np.max(np.abs(operator_apply(op, np.ones(grid.nx + 2)))) <= 1e-14 * scale


def test_discrete_conservation_telescopes_to_boundary_flux():
    spec = _sine_spec()
    grid = SpaceTimeGrid.build(spec, 60, 10)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.nx + 2)
    op = assemble_operator(spec, grid, 3)
    total = float(np.sum(operator_apply(op, u)) * grid.dx)
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])
    a_mid = spec.coefficients.a(float(grid.t_nodes[3]), mid)
    flux = (a_mid[-1] * (u[-1] - u[-2]) - a_mid[0] * (u[1] - u[0])) / (2.0 * grid.dx)
    assert total == pytest.approx(flux, abs=1e-13)


def _grid_with_cfl_dt(spec, nx):
    dx = (spec.x_hi - spec.x_lo) / (nx + 1)
    dt = dx * dx / 2.0
    nt = int(round(spec.T / dt))
    spec_t = ObstacleProblemSpec(coefficients=spec.coefficients, driver=spec.driver,
                                 obstacle=spec.obstacle, T=nt * dt, weight=spec.weight,
                                 x_lo=spec.x_lo, x_hi=spec.x_hi)
    return spec_t, SpaceTimeGrid.build(spec_t, nx, nt)


def test_explicit_kernel_quarter_half_quarter():
    spec, grid = _grid_with_cfl_dt(_const_spec(), 99)
    kern = transition_kernel(spec, grid, 0, scheme="explicit")
    P = kern.apply(np.eye(grid.nx + 2))
    mid = grid.nx // 2
    assert P[mid, mid - 1:mid + 2] == pytest.approx([0.25, 0.5, 0.25])
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12


def test_explicit_kernel_cfl_violation():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 200, 50)  # dt far above dx^2
    with pytest.raises(CflViolation):
        transition_kernel(spec, grid, 0, scheme="explicit")


def _dense_step_matrix(spec, grid, t_index):
    """Dense clamp-to-data M = I - dt A, built entry by entry as an oracle."""
    op = assemble_operator(spec, grid, t_index)
    n = grid.nx + 2
    dense = np.eye(n)
    idx = np.arange(1, n - 1)
    dense[idx, idx] -= grid.dt * op.diag
    dense[idx, idx - 1] -= grid.dt * op.lower
    dense[idx, idx + 1] -= grid.dt * op.upper
    return dense


def test_implicit_kernel_matches_dense_inverse():
    spec = _sine_spec()
    grid = SpaceTimeGrid.build(spec, 18, 6)
    kern = transition_kernel(spec, grid, 2, scheme="implicit")
    n = grid.nx + 2
    dense = _dense_step_matrix(spec, grid, 2)
    P = kern.apply(np.eye(n))
    assert np.allclose(P, np.linalg.inv(dense), atol=1e-12)
    assert P.min() >= 0.0
    assert kern.clamp_magnitude <= 1e-14
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12


def test_implicit_kernel_interior_symmetry():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 99, 20)
    P = transition_kernel(spec, grid, 0).apply(np.eye(grid.nx + 2))
    mid = 50
    assert P[mid, mid + 3] == pytest.approx(P[mid, mid - 3], rel=1e-10)
    assert P[30, 40] == pytest.approx(P[40, 30], rel=1e-10)


def test_density_close_to_gaussian_and_mass_conserved():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 201, 100)
    center = (grid.nx + 2) // 2
    x0 = float(grid.x_nodes[center])
    dens = solve_density(spec, grid, 0, center)
    assert np.min(dens.mass) >= 0.999
    assert dens.mass_ok
    gauss = np.exp(-0.5 * (grid.x_nodes - x0) ** 2 / spec.T) / np.sqrt(2 * np.pi * spec.T)
    l1 = float(np.sum(np.abs(dens.values[-1, 1:-1] / grid.dx - gauss[1:-1])) * grid.dx)
    assert l1 <= 2e-2
    assert dens.values.min() >= 0.0


def test_density_symmetry_for_even_coefficient():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 101, 30)  # odd interior count puts x = 0 on a node
    center = (grid.nx + 2 - 1) // 2
    assert abs(grid.x_nodes[center]) < 1e-14
    dens = solve_density(spec, grid, 0, center)
    final = dens.values[-1]
    assert np.max(np.abs(final - final[::-1])) <= 1e-12


def test_density_single_step_is_kernel_row():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 60, 40)
    dens = solve_density(spec, grid, grid.nt - 1, 30)
    kern = transition_kernel(spec, grid, grid.nt - 1)
    assert np.allclose(dens.values[-1], kern.apply(np.eye(grid.nx + 2))[30], atol=1e-14)


def test_density_refinement_first_order_or_better():
    spec = _const_spec()
    tables = {}
    for n in (100, 200, 400):
        grid = SpaceTimeGrid.build(spec, n, n)
        center = (n + 2) // 2
        tables[n] = (grid, solve_density(spec, grid, 0, center))
    g_coarse = tables[100][0]

    def density_on_coarse(n):
        grid, dens = tables[n]
        field = dens.values[-1][None, :] / grid.dx
        tiny = SpaceTimeGrid.build(spec, grid.nx, 1)
        return interp_space_time(tiny, np.vstack([field, field]), 0.0, g_coarse.x_nodes)

    d1 = float(np.sum(np.abs(density_on_coarse(100) - density_on_coarse(200))) * g_coarse.dx)
    d2 = float(np.sum(np.abs(density_on_coarse(200) - density_on_coarse(400))) * g_coarse.dx)
    assert d2 <= 0.5 * d1


def test_aronson_envelope_unit_diffusion(heat_scenario):
    spec = heat_scenario.spec
    grid = SpaceTimeGrid.build(spec, 400, 400)
    dens = solve_density(spec, grid, 0, 201)
    env = aronson_envelope_check(dens, grid, 0, 201)
    assert env.passed
    assert env.C_high == pytest.approx(1.0, abs=5e-2)
    assert env.c_low == pytest.approx(1.0, abs=5e-2)


def test_aronson_envelope_sine_coefficient(sine_scenario):
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 400, 400)
    env = aronson_envelope_check(solve_density(spec, grid, 0, 201), grid, 0, 201)
    assert env.passed
    assert env.C_high <= 4.0


def test_aronson_degenerate_grid_raises():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 6, 2)
    dens = solve_density(spec, grid, 0, 3)
    with pytest.raises(GridTooCoarse):
        aronson_envelope_check(dens, grid, 0, 3, trim_mass=2.0)


def test_interp_space_time_matches_nodes():
    spec = _const_spec()
    grid = SpaceTimeGrid.build(spec, 20, 10)
    field = np.add.outer(grid.t_nodes, grid.x_nodes)
    # exact at nodes, linear in between, left-constant in t
    assert interp_space_time(grid, field, grid.t_nodes[3], grid.x_nodes[7]) == \
        pytest.approx(field[3, 7])
    xq = 0.5 * (grid.x_nodes[4] + grid.x_nodes[5])
    assert interp_space_time(grid, field, 0.0, xq) == pytest.approx(0.5 * (field[0, 4] + field[0, 5]))
    tq = 0.5 * (grid.t_nodes[2] + grid.t_nodes[3])
    assert interp_space_time(grid, field, tq, grid.x_nodes[4]) == pytest.approx(field[2, 4])


def test_reflecting_kernel_conserves_total_mass(heat_scenario):
    from parobs.problem import ObstacleProblemSpec

    base = heat_scenario.spec
    spec = ObstacleProblemSpec(
        coefficients=base.coefficients, driver=base.driver, obstacle=base.obstacle,
        T=base.T, weight=base.weight, x_lo=base.x_lo, x_hi=base.x_hi,
        boundary_mode="reflecting")
    grid = SpaceTimeGrid.build(spec, 80, 40)
    kern = transition_kernel(spec, grid, 0)
    assert np.max(np.abs(kern.apply(np.eye(grid.nx + 2)).sum(axis=1) - 1.0)) <= 1e-12
    dens = solve_density(spec, grid, 0, 41)
    total = dens.values.sum(axis=1)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


@pytest.mark.parametrize("scheme, mode", [("implicit", "clamp-to-data"), ("implicit", "reflecting"),
                                          ("explicit", "clamp-to-data"), ("explicit", "reflecting")])
def test_kernel_apply_T_is_the_transpose_of_apply(scheme, mode):
    spec, grid = _grid_with_cfl_dt(_const_spec(), 29)
    spec = dataclasses.replace(spec, boundary_mode=mode)
    kern = transition_kernel(spec, grid, 0, scheme=scheme)
    eye = np.eye(grid.nx + 2)
    P = kern.apply(eye)
    assert np.allclose(kern.apply_T(eye), P.T, rtol=0.0, atol=1e-15)
    v = np.random.default_rng(5).standard_normal(grid.nx + 2)
    assert np.allclose(kern.apply(v), P @ v, rtol=0.0, atol=1e-15)


def test_solve_density_matches_dense_inverse_recursion(sine_scenario):
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 200, int(sine_scenario.grid_params["nt"]))
    x0 = (grid.nx + 2) // 2
    dens = solve_density(spec, grid, 0, x0)
    p = np.zeros(grid.nx + 2)
    p[x0] = 1.0
    for k in range(grid.nt):
        p = np.linalg.inv(_dense_step_matrix(spec, grid, k)).T @ p
        assert np.max(np.abs(dens.values[k + 1] - p)) <= 1e-14


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_banded_forward_evolution_is_nonnegative(all_scenarios, mode):
    for name, sc in all_scenarios.items():
        spec = dataclasses.replace(sc.spec, boundary_mode=mode)
        grid = SpaceTimeGrid.build(spec, 800, int(sc.grid_params["nt"]))
        dens = solve_density(spec, grid, 0, (grid.nx + 2) // 2)
        assert dens.values.min() >= 0.0, name


def test_density_and_kernel_memory_stay_linear_in_nx(sine_scenario):
    spec = sine_scenario.spec
    grid = SpaceTimeGrid.build(spec, 4000, 2)
    tracemalloc.start()
    try:
        solve_density(spec, grid, 0, (grid.nx + 2) // 2)
        transition_kernel(spec, grid, 0).apply(np.ones(grid.nx + 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one dense (nx + 2)^2 kernel alone would take 128 MB


# ---------------------------------------------------------------------------
# the one step operator: solver steps and forward laws through the kernel

def _random_row_spec(rng, nx, mode):
    """A spec on [-1, 1] whose coefficient at the nx + 1 cell faces is a fixed
    random row, scaled in t so that every step has its own row."""
    row = rng.uniform(0.05, 3.0, nx + 1)
    base = _const_spec()
    return dataclasses.replace(
        base, coefficients=Coefficients(a=lambda t, x: row * (1.0 + t), a_x=None,
                                        lambda_ell=0.05, Lambda_ell=6.0),
        T=rng.uniform(0.01, 2.0), x_lo=-1.0, x_hi=1.0, boundary_mode=mode)


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_kernel_step_is_the_assembled_step_bit_for_bit(mode):
    rng = np.random.default_rng(808 if mode == "reflecting" else 17)
    for _ in range(40):
        nx = int(rng.integers(1, 120))
        spec = _random_row_spec(rng, nx, mode)
        grid = SpaceTimeGrid.build(spec, nx, int(rng.integers(1, 6)))
        k = int(rng.integers(0, grid.nt))
        kern = transition_kernel(spec, grid, k)
        assert kern.mode == mode
        op = assemble_operator(spec, grid, k)
        b = rng.normal(size=nx + 2)
        extra = rng.uniform(0.0, 50.0, nx + 2) * (rng.random(nx + 2) < 0.5)
        if mode == "clamp-to-data":
            extra[[0, -1]] = 0.0
        assert np.array_equal(kern.apply(b), assembled_step_solve(op, grid.dt, b, mode=mode))
        assert np.array_equal(solve_backward_step(kern, b, extra),
                              assembled_step_solve(op, grid.dt, b, extra, mode))


def test_backward_step_rejects_the_explicit_kernel():
    spec, grid = _grid_with_cfl_dt(_const_spec(), 29)
    kern = transition_kernel(spec, grid, 0, scheme="explicit")
    with pytest.raises(ValueError):
        solve_backward_step(kern, np.ones(grid.nx + 2), np.zeros(grid.nx + 2))


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_evolve_law_is_the_mass_vector_loop(mode):
    rng = np.random.default_rng(99 if mode == "reflecting" else 5)
    for _ in range(12):
        nx = int(rng.integers(1, 150))
        spec = _random_row_spec(rng, nx, mode)
        grid = SpaceTimeGrid.build(spec, nx, int(rng.integers(1, 40)))
        s_index = int(rng.integers(0, grid.nt))
        rho = rng.uniform(0.1, 2.0, nx + 2)
        w0 = np.zeros(nx + 2)
        w0[1:-1] = grid.dx * rho[1:-1]
        laws = list(evolve_law(spec, grid, w0, s_index))
        ref = list(mass_vector_evolution(spec, grid, s_index, rho=rho))
        assert [k for k, _ in laws] == [k for k, _ in ref] == list(range(s_index, grid.nt + 1))
        assert all(np.array_equal(w, w_ref) for (_, w), (_, w_ref) in zip(laws, ref))


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_evolve_law_stays_nonnegative_and_reflecting_keeps_mass(mode):
    rng = np.random.default_rng(2024 if mode == "reflecting" else 4)
    for _ in range(12):
        nx = int(rng.integers(1, 150))
        spec = _random_row_spec(rng, nx, mode)
        grid = SpaceTimeGrid.build(spec, nx, int(rng.integers(1, 40)))
        w0 = rng.uniform(0.0, 1.0, nx + 2) * (rng.random(nx + 2) < 0.7)
        w0[int(rng.integers(0, nx + 2))] += 1.0
        for _, w in evolve_law(spec, grid, w0, int(rng.integers(0, grid.nt))):
            assert w.min() >= 0.0
            if mode == "reflecting":
                assert abs(w.sum() - w0.sum()) <= 1e-13 * w0.sum()


# ---------------------------------------------------------------------------
# the one banded solve: LAPACK dgtsv called directly

def _assert_matches_reference(ab, b, diag=None):
    ab0, b0 = ab.copy(), b.copy()
    full = ab
    if diag is not None:
        full = ab.copy()
        full[1] = diag
    x = _tridiagonal_solve(ab, b, diag)
    assert np.array_equal(x, reference_banded_solve(full, b))
    assert x.shape == b.shape
    assert np.array_equal(ab, ab0) and np.array_equal(b, b0)  # inputs untouched


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_tridiagonal_solve_is_solve_banded_on_kernel_bands(mode):
    rng = np.random.default_rng(31 if mode == "reflecting" else 13)
    for _ in range(40):
        nx = int(rng.integers(1, 200))
        spec = _random_row_spec(rng, nx, mode)
        grid = SpaceTimeGrid.build(spec, nx, int(rng.integers(1, 6)))
        kern = transition_kernel(spec, grid, int(rng.integers(0, grid.nt)))
        extra = rng.uniform(0.0, 1e4, nx + 2) * (rng.random(nx + 2) < 0.5)
        for b in (rng.normal(size=nx + 2), rng.normal(size=(nx + 2, int(rng.integers(1, 9))))):
            _assert_matches_reference(kern.bands, b)
            _assert_matches_reference(_banded_transpose(kern.bands), b)
            _assert_matches_reference(kern.bands, b, kern.bands[1] + extra)


@pytest.mark.parametrize("mode", ["clamp-to-data", "reflecting"])
def test_tridiagonal_solve_is_solve_banded_on_lcp_systems(monkeypatch, mode):
    """Every decoupled active-set system that ``_lcp_step`` solves."""
    seen = []

    def recording(ab, b, diag=None):
        seen.append((ab.copy(), b.copy()))
        return _tridiagonal_solve(ab, b, diag)

    monkeypatch.setattr(solver_mod, "_tridiagonal_solve", recording)
    rng = np.random.default_rng(77 if mode == "reflecting" else 66)
    for _ in range(12):
        nx = int(rng.integers(1, 120))
        spec = _random_row_spec(rng, nx, mode)
        grid = SpaceTimeGrid.build(spec, nx, 2)
        ab = transition_kernel(spec, grid, 0).bands
        h = rng.normal(size=nx + 2)
        b = rng.normal(size=nx + 2)
        if mode == "clamp-to-data":
            b[[0, -1]] = np.maximum(b[[0, -1]], h[[0, -1]])
        solver_mod._lcp_step(ab, b, h, rng.normal(size=nx + 2), mode, 1e-10)
    assert len(seen) > 12  # some steps took more than one active set
    for A, rhs in seen:
        _assert_matches_reference(A, rhs)


@pytest.mark.parametrize("where", ["lower", "diag", "upper", "diag-override", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tridiagonal_solve_rejects_nonfinite_input(where, bad):
    rng = np.random.default_rng(5)
    n = 9
    ab = rng.uniform(-1.0, 1.0, (3, n))
    ab[1] += 4.0
    b = rng.normal(size=(n, 2))
    diag = ab[1].copy() if where == "diag-override" else None
    target = {"lower": (ab, (2, 3)), "diag": (ab, (1, 3)), "upper": (ab, (0, 3)),
              "diag-override": (diag, 3), "rhs": (b, (3, 1))}[where]
    target[0][target[1]] = bad
    with pytest.raises(ValueError):
        _tridiagonal_solve(ab, b, diag)
    if diag is None:
        with pytest.raises(ValueError):
            reference_banded_solve(ab, b)


def test_tridiagonal_solve_rejects_a_singular_system():
    ab = np.array([[0.0, 1.0, 0.0, 1.0],
                   [1.0, 0.0, 1.0, 2.0],
                   [0.0, 1.0, 1.0, 0.0]])  # row 1 of the matrix is zero
    b = np.ones(4)
    with pytest.raises(LinAlgError, match="singular"):
        reference_banded_solve(ab, b)
    with pytest.raises(LinAlgError, match="singular"):
        _tridiagonal_solve(ab, b)
    regular = ab.copy()
    regular[1, 1] = 2.0
    _tridiagonal_solve(regular, b)
    with pytest.raises(LinAlgError, match="singular"):
        _tridiagonal_solve(regular, b, ab[1])


def test_tridiagonal_solve_batches_diagonals_row_by_row():
    """(L, n) diagonals and right-hand sides: row l is the 1-D solve with
    diag[l] and b[l], bit for bit; no input is overwritten, and a NaN in one
    row or one singular row fails the batch as it fails the row."""
    rng = np.random.default_rng(41)
    n, levels = 57, 5
    ab = rng.uniform(-1.0, 0.0, (3, n))
    ab[1] = 3.0
    diag = ab[1] + rng.uniform(0.0, 1e3, (levels, n)) * (rng.random((levels, n)) < 0.5)
    b = rng.normal(size=(levels, n))
    ab0, diag0, b0 = ab.copy(), diag.copy(), b.copy()
    x = _tridiagonal_solve(ab, b, diag)
    assert x.shape == b.shape
    for row, d, rhs in zip(x, diag, b):
        assert np.array_equal(row, _tridiagonal_solve(ab, rhs, d))
    assert np.array_equal(ab, ab0) and np.array_equal(diag, diag0) and np.array_equal(b, b0)
    bad = b.copy()
    bad[3, 7] = np.nan
    with pytest.raises(ValueError):
        _tridiagonal_solve(ab, bad, diag)
    singular = diag.copy()
    singular[2] = 0.0
    singular[2, 1:] = ab[1, 1:]
    ab_zero_row = ab.copy()
    ab_zero_row[0, 1] = ab_zero_row[2, 0] = 0.0  # row 0 of the matrix is then diag[0] alone
    with pytest.raises(LinAlgError, match="singular"):
        _tridiagonal_solve(ab_zero_row, b, singular)


def test_a_ladder_is_one_block_diagonal_dgtsv_call(monkeypatch):
    """(L, n) diagonals for L = 1 .. 12 are solved by one ``dgtsv`` call, and
    every level equals its own ``dgtsv`` solve bit for bit, also where a
    subdiagonal entry outweighs the diagonal and ``dgtsv`` exchanges rows.
    A NaN or inf anywhere in the ladder raises ``ValueError``, and one
    singular level raises ``LinAlgError``."""
    import parobs.grid as grid_mod
    from parobs._lapack import dgtsv

    calls = []

    def counting(*args):
        calls.append(args[1].size)
        return dgtsv(*args)

    monkeypatch.setattr(grid_mod, "dgtsv", counting)
    rng = np.random.default_rng(53)
    pivoted = 0
    for levels in range(1, 13):
        n = int(rng.integers(2, 60))
        ab = rng.normal(size=(3, n))
        diag = rng.normal(size=(levels, n)) * rng.choice([0.05, 4.0], size=(levels, n))
        pivoted += int(np.sum(np.abs(ab[2, :-1]) > np.abs(diag[:, :-1])))
        b = rng.normal(size=(levels, n))
        calls.clear()
        x = _tridiagonal_solve(ab, b, diag)
        assert calls == [levels * n]
        for row, d, rhs in zip(x, diag, b):
            want, info = dgtsv(ab[2, :-1], d, ab[0, 1:], rhs)[3:]
            assert info == 0 and row.tobytes() == want.tobytes()
        for bad in (np.nan, np.inf, -np.inf):
            for target in (ab, diag, b):
                broken = target.copy()
                broken[tuple(int(rng.integers(0, size)) for size in broken.shape)] = bad
                args = [broken if t is target else t for t in (ab, b, diag)]
                with pytest.raises(ValueError):
                    _tridiagonal_solve(*args)
        decoupled = ab.copy()
        decoupled[0, 1] = decoupled[2, 0] = 0.0   # row 0 of a level is then diag[0] alone
        _tridiagonal_solve(decoupled, b, diag)
        singular = diag.copy()
        singular[int(rng.integers(0, levels)), 0] = 0.0
        with pytest.raises(LinAlgError, match="singular"):
            _tridiagonal_solve(decoupled, b, singular)
    assert pivoted > 50


def test_no_module_imports_solve_banded():
    """One banded-solve entry point: ``grid._tridiagonal_solve``."""
    src = Path(parobs.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if "solve_banded" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
