"""Inventory of the public API: defaulted parameters and the names the
benchmark binds.

Adding a keyword option to a public function is a deliberate edit of the
bound below, and renaming a function, parameter or constant that ``bench/``
reads fails here before it fails the benchmark.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import parobs

SRC = Path(__file__).resolve().parents[1] / "src" / "parobs"
BENCH = Path(__file__).resolve().parents[1] / "bench"
MAX_DEFAULTED = 14
# parameters no caller set, folded into module constants, the checks' shared
# objects and Monte Carlo settings, and their calibrated budgets, which they
# now read from a ``VerifyContext``, the provenance and start node nothing read,
# the problem and start the Monte Carlo routines read from their ensemble, and
# the routes and levels only tests took (now in ``tests/oracles.py``), and the
# problem data passed beside the spec: a frozen driver, a shifted obstacle
# and a boundary mode are now specs of their own
REMOVED = {
    "grid.solve_density": ("mass_tol",),
    "problem.lipschitz_probe": ("t_range", "x_range", "value_scale"),
    "stochastic.rbsde_chain_dp": ("x_index",),
    "solver.penalization_study": ("mono_tol",),
    "stochastic.rbsde_reflected_mc": ("spec",),
    "stochastic.rbsde_penalized_mc": ("spec",),
    "stochastic.penalization_convergence_mc": ("spec",),
    "stochastic.optimal_stopping_value": ("spec", "s", "x"),
    "solver.picard_outer": ("max_outer", "outer_tol"),
    "solver.obstacle_stability": ("delta", "stability_C"),
    "verify.check_representation_u": ("mc_params", "sol", "probe0_mc", "chain",
                                      "bias_constant", "chain_budget", "provenance"),
    "verify.check_representation_z": ("ensemble", "sol", "basis_degree", "mc", "z_budget",
                                      "provenance"),
    "verify.check_measure_identity": ("rel_budget", "test_functions", "sol", "mc_params",
                                      "chain", "dens", "provenance", "method"),
    "verify.check_interval_measure": ("rel_budget", "sol", "chain", "provenance"),
    "verify.check_skorokhod": ("psor_budget", "penalty_constant", "provenance", "n_penalty"),
    "verify.check_ac_measure": ("k_bias_constant", "ensemble", "sol", "basis_degree", "mc",
                                "chain", "dens", "residual_budget", "provenance"),
    "verify.check_minimality": ("mono_tol", "sol_psor", "provenance"),
    "verify.check_weighted_bounds": ("weight", "phis", "g", "spec", "grid", "bounds",
                                     "provenance"),
    "solver.solve_psor": ("driver_field", "obstacle_field_override"),
    "solver.obstacle_field": ("h",),
    "grid.evolve_law": ("mode",),
}
# names that belong to ``tests/oracles.py``, not the package: routines no
# command runs, their result types and constants, the obstacle-free solve,
# and the Snell recursion with its reward table, which stop-value replaced by
# chain-dp under ``solver.frozen_driver``
MOVED_TO_ORACLES = (
    "energy_identity_residual", "apriori_norm_report", "AprioriReport",
    "obstacle_replacement_check", "solve_unconstrained", "aronson_envelope_check",
    "AronsonEnvelope", "_envelope_gap", "ENVELOPE_C_MAX", "ENVELOPE_BURN_IN_FRAC",
    "estimate_g_integral", "GIntegral", "GridTooCoarse", "reflected_mc_measure_identity",
    "SKOROKHOD_PENALTY_CONSTANT", "operator_apply", "snell_envelope_value", "snell_recursion",
    "frozen_driver_field", "frozen_reward_field", "tabulated_obstacle",
)
# public functions that no package code calls yet, each kept for a caller that
# a ROADMAP item gives it
UNCALLED_ALLOWED = {
    "problem.lipschitz_probe",  # ROADMAP item 9 gives it a caller
    "stochastic.penalization_convergence_mc",  # ROADMAP item 2 gives it a CLI route
    # the one-level penalized fit: the convergence table fits its levels in
    # one backward pass, and the bench tracer wraps this name
    "stochastic.rbsde_penalized_mc",
}
# arguments the tracer's probes read from a bound call
PROBE_PARAMETERS = {
    "grid.transition_kernel": ("grid", "t_index", "scheme", "mode"),
    "grid.interp_space_time": ("t", "x"),
    "solver.solve_psor": ("grid",),
    "solver.solve_penalized": ("grid",),
    "stochastic.rbsde_reflected_mc": ("ensemble", "basis_degree"),
    "stochastic.rbsde_penalized_mc": ("ensemble", "basis_degree"),
    "cli.write_csv": ("path",),
}


def _public_functions():
    """module.name -> function, for every public function defined in parobs."""
    out = {}
    for info in pkgutil.iter_modules(parobs.__path__):
        mod = importlib.import_module(f"parobs.{info.name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def _parameters(qualname):
    return inspect.signature(_public_functions()[qualname]).parameters


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _tracer():
    return _bench_module("tracer")


def test_defaulted_parameter_count_is_bounded():
    defaulted = [f"{q}({p.name})" for q, fn in _public_functions().items()
                 for p in inspect.signature(fn).parameters.values()
                 if p.default is not inspect.Parameter.empty]
    assert len(defaulted) <= MAX_DEFAULTED, defaulted


def test_folded_parameters_stay_gone():
    back = [(q, p) for q, names in REMOVED.items() for p in names if p in _parameters(q)]
    assert back == []
    assert not hasattr(importlib.import_module("parobs.stochastic"), "solution_reward_field")
    # the study's reference is required; the Monte Carlo fits and the path
    # sweep take their problem from the ensemble, and nothing defaults a basis
    assert _parameters("solver.penalization_study")["reference"].default is inspect.Parameter.empty
    # the moments command's --p is the exponent's one default
    assert _parameters("stochastic.moment_ratio_probe")["p_exponent"].default is \
        inspect.Parameter.empty
    stochastic = importlib.import_module("parobs.stochastic")
    verify = importlib.import_module("parobs.verify")
    assert "spec" not in inspect.signature(stochastic._mc_backward).parameters
    assert list(inspect.signature(verify._path_sweep).parameters) == ["grid", "sol", "mc"]
    assert [q for q in ("stochastic.rbsde_reflected_mc", "stochastic.rbsde_penalized_mc",
                        "stochastic.penalization_convergence_mc")
            if _parameters(q)["basis_degree"].default is not inspect.Parameter.empty] == []
    assert not hasattr(verify, "_chain_from") and not hasattr(verify, "_density_from")
    assert set(inspect.signature(verify.VerifyContext).parameters) == {
        "spec", "grid", "mc_params", "calibration", "tolerances"}
    grid = importlib.import_module("parobs.grid")
    solver = importlib.import_module("parobs.solver")
    # the frozen driver and the boundary mode reach the marchers through the spec
    marchers = [inspect.signature(fn).parameters for fn in (solver._march, grid._step_kernels)]
    assert [p for p in ("driver_field", "mode") for params in marchers if p in params] == []
    assert [f.name for f in dataclasses.fields(solver.PenalizationStudy)
            if f.default is not dataclasses.MISSING] == []
    never_read = [(verify.CheckReport, "provenance"), (grid.TransitionKernel, "t_index"),
                  (grid.DensityTable, "s_index"), (solver.PenalizationStudy, "monotone"),
                  (stochastic.RbsdeEstimate, "scheme"), (stochastic.RbsdeEstimate, "ci"),
                  (grid.DiscreteOperator, "t_index"), (grid.DiscreteOperator, "t"),
                  (stochastic.LsmcEstimate, "scheme"), (stochastic.LsmcEstimate, "t_nodes"),
                  (stochastic.LsmcEstimate, "spec"), (stochastic.LsmcEstimate, "obstacle_slack"),
                  (solver.ObstacleSolution, "method")]
    never_read += [(stochastic.RbsdeEstimate, name)
                   for name in ("Z", "obstacle_slack", "Y0", "t_nodes")]
    never_read += [(grid.DensityTable, name)
                   for name in ("x_index", "t_nodes", "x_nodes", "dx")]
    assert [(cls.__name__, name) for cls, name in never_read
            if name in {f.name for f in dataclasses.fields(cls)}] == []
    assert not hasattr(grid.DensityTable, "density")
    assert not hasattr(grid.DiscreteOperator, "row_sums")
    problem = importlib.import_module("parobs.problem")
    # the random-access replay route, the methods only tests called and the
    # segment-per-call forward route
    deleted = [(stochastic.PathEnsemble, ("x", "dw", "_segment_rows", "_replay",
                                          "_stored_steps", "_segment", "rows", "_advance")),
               (stochastic.LsmcEstimate, ("at", "z_at", "_row")),
               (stochastic._Projection, ("fit",)), (problem.HypothesisReport, ("entry",)),
               (grid.DiscreteOperator, ("apply",))]
    assert [(cls.__name__, name) for cls, names in deleted for name in names
            if hasattr(cls, name)] == []


def test_test_only_routines_stay_out_of_the_package():
    modules = [parobs] + [importlib.import_module(f"parobs.{info.name}")
                          for info in pkgutil.iter_modules(parobs.__path__)]
    back = [(mod.__name__, name) for mod in modules for name in MOVED_TO_ORACLES
            if hasattr(mod, name)]
    assert back == []


def _uncalled_public_functions(src):
    """module.name of every public module-level function, and
    module.Class.name of every public method of a class, in ``src/*.py``
    (``__init__.py`` aside) whose name no package module uses as a name or
    an attribute; imports and ``__all__`` strings are not uses."""
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                defined.update((f"{path.stem}.{node.name}.{item.name}", item.name)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {qualname for qualname, name in defined.items() if name not in used}


def test_every_public_function_has_a_caller_in_the_package():
    """A routine only the tests call belongs in ``tests/oracles.py``, and a
    method only the tests call goes: the tests reach the same values
    through the package's own passes.  No method is allowed uncalled."""
    assert _uncalled_public_functions(SRC) == UNCALLED_ALLOWED


def test_names_the_benchmark_binds_are_present():
    from parobs.grid import TransitionKernel
    from parobs.scenarios import Scenario
    from parobs.solver import DEFAULT_LCP_TOL

    tracer = _tracer()
    functions = _public_functions()
    traced = set(tracer._probes()) | {n for names in tracer.TIMES.values() for n in names}
    assert sorted(traced - set(functions)) == []
    for qualname, params in PROBE_PARAMETERS.items():
        assert set(params) <= set(_parameters(qualname)), qualname
    assert isinstance(float(TransitionKernel.clamp_magnitude), float)
    assert importlib.import_module("parobs.verify").transition_kernel is \
        importlib.import_module("parobs.grid").transition_kernel
    assert isinstance(_parameters("verify.check_minimality")["gap_budget"].default, float)
    assert DEFAULT_LCP_TOL > 0
    assert "tolerances" in {f.name for f in dataclasses.fields(Scenario)}


def test_ensembles_keep_the_attributes_the_tracer_reads():
    """The tracer sizes every ``simulate_paths`` result by ``X.nbytes`` and
    ``dW``, counts draws from ``n_steps`` and ``path_count``, and keys each
    LSMC call by its ensemble's seed, start and step."""
    from parobs.scenarios import build_family
    from parobs.stochastic import simulate_paths

    assert list(_parameters("stochastic.simulate_paths")) == [
        "spec", "s", "x", "dt_path", "path_count", "seed", "store_dw"]
    spec = build_family("constant", {"problem.T": 1.0, "problem.x_lo": -8.0,
                                     "problem.x_hi": 8.0, "problem.alpha": 1.0,
                                     "problem.value": 1.0, "problem.a0": 1.0})
    probes = _tracer()._probes()
    for store_dw in (True, False):
        ens = simulate_paths(spec, 0.0, 0.5, 0.1, 1000, 3, store_dw=store_dw)
        held = probes["stochastic.simulate_paths"]({}, ens)
        assert held == {"used": 10 * 1000, "drawn": 10 * 8192,
                        "bytes": ens.X.nbytes + (ens.dW.nbytes if store_dw else 0)}
        assert (ens.dW is not None) == store_dw
        key = probes["stochastic.rbsde_reflected_mc"]({"ensemble": ens, "basis_degree": 3},
                                                      None)["key"]
        assert key == (3, 0.0, 0.5, 0.1, 1000, 3)


def test_the_check_registry_is_what_the_tracer_times(tmp_path):
    """The tracer times each check by rebinding ``verify.check_*``; the
    registry calls every check through those module attributes, so a run of
    ``verify`` under an installed tracer records one span per check."""
    from parobs.cli import main
    from parobs.verify import CHECKS

    tracer = _tracer()
    assert tuple(CHECKS) == tracer.CHECKS
    assert set(_bench_module("workloads").VERIFY_GRID_CHECKS.split(",")) <= set(CHECKS)
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "constant.cfg"
    traced = tracer.Tracer()
    traced.install()
    try:
        code = main(["--scenario", str(scenario), "--out", str(tmp_path), "verify",
                     "--checks", "skorokhod,weighted-bounds"])
    finally:
        traced.uninstall()
    assert code == 0
    names = [span[0] for span in traced.spans]
    assert names.count("verify.check_skorokhod") == 1
    assert names.count("verify.check_weighted_bounds") == 1
