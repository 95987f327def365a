import sys
import threading
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from parobs.cli import main
from parobs.errors import ScenarioError
from parobs.grid import SpaceTimeGrid
from parobs.scenarios import load_scenario

from conftest import scenario_path, x_rows
from oracles import per_value_solution_csv


def run(args):
    return main([str(a) for a in args])


@contextmanager
def warnings_to_stderr():
    """Every warning printed to stderr, as a command-line run prints them."""
    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = to_stderr
        yield


def test_solve_constant_psor(tmp_path):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path, "solve",
                "--method", "psor"])
    assert code == 0
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0].startswith("# scenario=constant hash=")
    assert lines[1] == "t,x,u,r,contact"
    body = np.array([row.split(",") for row in lines[2:]], dtype=float)
    assert np.all(body[:, 2] == 1.0)
    assert np.all(body[:, 3] == 0.0)
    assert (tmp_path / "diagnostics.csv").exists()


def test_solve_penalized_writes_measure_field(tmp_path):
    code = run(["--scenario", scenario_path("obstacle_quad"), "--out", tmp_path,
                "--seed", 7, "solve", "--method", "penalized", "--penalty", 1024])
    assert code == 0
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    body = np.array([row.split(",") for row in lines[2:]], dtype=float)
    interior = body[np.abs(body[:, 1]) < 5.9]
    # exact-oracle regression: u = 1 - x^2 to O(1/n), r = 1
    assert np.max(np.abs(interior[:, 2] - (1.0 - interior[:, 1] ** 2))) <= 2e-3
    active = interior[interior[:, 0] < 0.5]
    assert np.quantile(np.abs(active[:, 3] - 1.0), 0.95) <= 1e-2
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[1] == "step,t,inner_iterations" and diag[2].startswith("0,0,")


def test_missing_scenario_exits_2(tmp_path, capsys):
    code = run(["--scenario", tmp_path / "nope.cfg", "--out", tmp_path, "solve"])
    assert code == 2
    assert "code=2" in capsys.readouterr().err


def test_unknown_study_exits_2(tmp_path):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "study", "--study", "nonsense"])
    assert code == 2


def test_unknown_check_exits_2(tmp_path):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "verify", "--checks", "bogus"])
    assert code == 2


def test_unknown_check_exits_2_before_loading_the_scenario(tmp_path, capsys):
    code = run(["--scenario", tmp_path / "nope.cfg", "--out", tmp_path,
                "verify", "--checks", "skorokhod,bogus"])
    assert code == 2
    assert "unknown check 'bogus'" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path):
    bad = tmp_path / "stiff.cfg"
    bad.write_text(
        "scenario.name = stiff\n"
        "problem.family = american-put\n"
        "problem.strike = 1.0\n"
        "problem.rate = 2000.0\n"
        "problem.sigma = 0.3\n"
        "problem.T = 0.5\n"
        "problem.x_lo = -2.0\n"
        "problem.x_hi = 2.0\n"
        "problem.alpha = 1.0\n"
        "grid.nx = 20\n"
        "grid.nt = 5\n"
    )
    # PSOR regularizes the stiff driver (u = h is the true solution), but the
    # penalized inner fixed point genuinely oscillates at dt L >> 1
    code = run(["--scenario", bad, "--out", tmp_path / "o", "solve",
                "--method", "penalized", "--penalty", 1024])
    assert code == 3


@pytest.mark.parametrize("sigma", ["0", "-0.3", "1e300"])
def test_put_nonpositive_sigma_exits_2(tmp_path, capsys, sigma):
    """sigma = 0 divides by zero in the put's drift, sigma < 0 flips its
    sign and sigma = 1e300 overflows a = sigma^2; all are scenario errors,
    reported before any work."""
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(scenario_path("american_put").read_text().replace(
        "problem.sigma = 0.3", f"problem.sigma = {sigma}"))
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "stop-value"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: code=2 kind=ScenarioError") and err.count("\n") == 1
    assert "sigma > 0 with sigma^2 finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, code", [
    ("problem.rate", 2),     # L**2 overflowed
    ("problem.strike", 3),   # the norm's squares overflow
])
def test_picard_study_beyond_float_range_prints_one_error_line(tmp_path, capsys, key, code):
    """A put whose contraction weight e^(gamma T) is beyond float range is
    rejected before any solve (rate = 1e300 raised an ``OverflowError``
    traceback from ``contraction_gamma``, exit 1).  A solution whose weighted
    norm overflows is a numeric failure (strike = 1e300 printed numpy's
    overflow warning above the ``error:`` line).  Either way the whole stderr
    is one ``error:`` line."""
    cfg = _small_put(tmp_path, ((key, "1e300"),))
    with warnings_to_stderr():
        code_got = run(["--scenario", cfg, "--out", tmp_path / "o", "study", "--study", "picard"])
    assert code_got == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: code={code} "), err


def test_failed_allocation_exits_3(tmp_path, capsys, monkeypatch):
    """A failed allocation is a numeric failure (exit 3 and one error line),
    not a verification failure; the grid build raises it here, allocating
    nothing."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB for an array")

    monkeypatch.setattr(SpaceTimeGrid, "build", no_memory)
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o", "solve"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: code=3 kind=MemoryError") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_scenario_parser_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("problem.family = constant\nproblem.T = 1\nbogus.key = 1\n")
    with pytest.raises(ScenarioError):
        load_scenario(p)
    p.write_text("problem.family = constant\nproblem.T = 1\nproblem.T = 2\n")
    with pytest.raises(ScenarioError):
        load_scenario(p)
    p.write_text("problem.family = constant\nproblem.T = 1\nproblem.x_lo = -1\n"
                 "problem.x_hi = 1\nproblem.nonsense = 3\n")
    with pytest.raises(ScenarioError):
        load_scenario(p)


def test_nonfinite_horizon_exits_2_before_solving(tmp_path, capsys):
    cfg = tmp_path / "nan_T.cfg"
    cfg.write_text(scenario_path("constant").read_text().replace("problem.T = 1.0",
                                                                 "problem.T = nan"))
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "solve"])
    assert code == 2
    assert "kind=ScenarioError" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("problem.x_hi = 8.0", "problem.x_hi = 1e300"),   # dx^2 overflows
    ("problem.T = 1.0", "problem.T = 1e300"),         # dt / dx^2 beyond 1 / eps
], ids=["x_hi", "T"])
def test_grid_steps_out_of_range_exit_2_before_solving(tmp_path, capsys, monkeypatch, old, new):
    """A truncation or horizon whose grid steps float64 cannot carry is
    rejected where the grid is built: exit 2, the whole stderr one ``error:`` line with no
    numpy warning above it, and no solve (x_hi = 1e300 raised an
    ``OverflowError`` traceback from ``dx**2``, and T = 1e300 ran the solver
    into ``LcpStall``, exit 3)."""
    import parobs.cli

    def to_stderr(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the scenario was rejected")

    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(scenario_path("constant").read_text().replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = to_stderr   # printed as a command-line run prints them
        code = run(["--scenario", cfg, "--out", tmp_path / "o", "solve"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: code=2 kind=ValueError detail=grid steps out of range")
    assert not (tmp_path / "o").exists()


def test_zero_paths_exits_2_instead_of_writing_nan(tmp_path):
    cfg = tmp_path / "zero_paths.cfg"
    cfg.write_text(scenario_path("constant").read_text().replace("mc.paths = 2000",
                                                                 "mc.paths = 0"))
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "moments"])
    assert code == 2
    assert not (tmp_path / "o" / "moments.csv").exists()


def test_a_nonfinite_result_exits_3_without_a_csv(tmp_path, capsys):
    """``problem.value = 1e300`` overflows the stopping rule's sample
    variance, so ``rule_ci`` is inf: ``stop-value`` exits 3, its whole
    stderr the one ``error:`` line with no numpy warning above it, and
    writes no stop_value.csv.  Every short table's lines refuse NaN and inf
    alike."""
    from parobs.cli import _csv_line
    from parobs.errors import NonFiniteOutput

    cfg = tmp_path / "huge_value.cfg"
    cfg.write_text(scenario_path("constant").read_text().replace("problem.value = 1.0",
                                                                 "problem.value = 1e300"))
    with warnings_to_stderr():
        code = run(["--scenario", cfg, "--out", tmp_path / "o", "stop-value"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: code=3 kind=NonFiniteOutput detail=") and ",inf," in err[0]
    assert not (tmp_path / "o" / "stop_value.csv").exists()
    assert _csv_line(("check", 3, 1.5, np.float64(-2.0))) == "check,3,1.5,-2\n"
    for bad in (np.nan, np.inf, -np.inf, np.float64("nan")):
        with pytest.raises(NonFiniteOutput):
            _csv_line(("check", 1.0, bad, 1))


@pytest.mark.parametrize("old, new, command, csv", [
    ("problem.a0 = 1.0", "problem.a0 = 1e-300", ["moments"], "moments.csv"),
    ("problem.alpha = 1.0", "problem.alpha = 1e30",
     ["verify", "--checks", "weighted-bounds"], "verify_report.csv"),
    ("problem.x_lo = -8.0", "problem.x_lo = -1e30",
     ["verify", "--checks", "weighted-bounds"], "verify_report.csv"),
], ids=["moments-a0", "weighted-bounds-alpha", "weighted-bounds-x_lo"])
def test_a_zero_normalizer_exits_3_without_a_warning(tmp_path, capsys, old, new, command, csv):
    """A zero terminal moment (paths that never leave 0) leaves ``moments``'
    ratio NaN, and a weight or bump that underflows to 0 on every node
    leaves ``weighted-bounds``' ratios infinite; each exits 3 with its one
    ``error:`` line, no division warning above it, and no CSV."""
    cfg = tmp_path / "zero_norm.cfg"
    cfg.write_text(scenario_path("constant").read_text().replace(old, new))
    with warnings_to_stderr():
        code = run(["--scenario", cfg, "--out", tmp_path / "o", *command])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: code=3 kind=NonFiniteOutput detail=")
    assert not (tmp_path / "o" / csv).exists()


def test_moments_with_a_huge_p_exits_3_without_a_warning(tmp_path, capsys):
    """``--p 1e300`` overflows both moments to inf: ``moments`` exits 3 with
    its one ``error:`` line, no overflow warning above it, and no CSV."""
    with warnings_to_stderr():
        code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                    "moments", "--p", "1e300"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: code=3 kind=NonFiniteOutput detail=")
    assert not (tmp_path / "o" / "moments.csv").exists()


@pytest.mark.parametrize("lines", [
    ["calibration.weighted_lo = 3.0", "calibration.weighted_hi = 1.0"],
    ["calibration.weighted_hi = 0.1"],
    ["calibration.weighted_lo = 6.0"],
], ids=["both", "hi-against-default-lo", "lo-against-default-hi"])
def test_weighted_lo_above_weighted_hi_exits_2(tmp_path, capsys, lines):
    """A resolved ``weighted_lo`` above ``weighted_hi`` is an invalid
    scenario, whether both keys are given or one against the other's
    default: loading it raises ``ScenarioError``, and ``verify`` exits 2 with
    one ``error:`` line before any check runs."""
    text = "".join(row + "\n" for row in scenario_path("constant").read_text().splitlines()
                   if not row.startswith("calibration.weighted_"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "".join(line + "\n" for line in lines))
    with pytest.raises(ScenarioError, match="weighted_lo"):
        load_scenario(cfg)
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "verify", "--checks",
                "weighted-bounds"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: code=2 kind=ScenarioError"), err
    assert not (tmp_path / "o").exists()


_SCENARIO_OF = {"problem.bump_width": "sine_coef"}   # family keys; the rest are constant's


@pytest.mark.parametrize("line", ["problem.x_lo = -inf", "grid.nx = 0", "grid.nt = -3",
                                  "mc.dt_path = 0", "calibration.fk_bias = nan",
                                  "problem.bump_width = 0", "problem.bump_width = 1e-300"])
def test_scenario_parser_rejects_out_of_range_numbers(tmp_path, capsys, monkeypatch, line):
    """An out-of-range value fails the scenario's load: ``solve`` and
    ``stop-value`` exit 2 with one ``error:`` line, no warning and no solve.
    (A sine-coef bump width of 0 or 1e-300 made phi's x / width divide by
    zero or overflow its square, and both commands exited 0.)"""
    import parobs.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the scenario was rejected")

    key = line.split(" =", 1)[0]
    name = _SCENARIO_OF.get(key, "constant")
    text = "".join(row + "\n" for row in scenario_path(name).read_text().splitlines()
                   if not row.startswith(key + " "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + line + "\n")
    with pytest.raises(ScenarioError, match=key):
        load_scenario(cfg)
    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    monkeypatch.setattr(parobs.cli, "solve_penalized", no_solve)
    for command in (["solve"], ["stop-value"]):
        with warnings_to_stderr():
            assert run(["--scenario", cfg, "--out", tmp_path / "o", *command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: code=2 kind=ScenarioError"), err
    assert not (tmp_path / "o").exists()


def test_penalization_study_csv(tmp_path):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "study", "--study", "penalization", "--max-level", 6])
    assert code == 0
    lines = (tmp_path / "penalization_study.csv").read_text().splitlines()
    assert lines[1] == "n,sup_increment,norm_increment,distance_to_psor"
    rows = np.array([r.split(",") for r in lines[2:]], dtype=float)
    assert rows.shape[0] == 1  # short-circuits at the first level
    assert np.all(rows[:, 1:] == 0.0)


@pytest.mark.parametrize("name", ["american_put", "constant", "heat_bump", "obstacle_quad",
                                  "sine_coef"])
def test_stability_study_csv(tmp_path, name):
    code = run(["--scenario", scenario_path(name), "--out", tmp_path,
                "study", "--study", "stability", "--eps", 1e-3])
    assert code == 0
    txt = (tmp_path / "stability_study.csv").read_text().splitlines()
    row = txt[2].split(",")
    assert float(row[2]) == pytest.approx(1e-3)  # sup |h1 - h2| = eps
    assert float(row[3]) <= 3.0  # ratio within the configured constant
    assert int(float(row[4])) == 1


def test_verify_subset_and_exit_codes(tmp_path):
    code = run(["--scenario", scenario_path("obstacle_quad"), "--out", tmp_path,
                "verify", "--checks", "skorokhod,interval-measure,minimality"])
    assert code == 0
    report = (tmp_path / "verify_report.txt").read_text()
    assert report.count("[PASS]") == 3


def test_simulate_and_moments_and_stop_value(tmp_path):
    assert run(["--scenario", scenario_path("constant"), "--out", tmp_path, "simulate"]) == 0
    summary = (tmp_path / "ensemble_summary.csv").read_text().splitlines()
    assert summary[1] == "t,mean,var,min,max"
    assert run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "moments", "--p", 4]) == 0
    assert (tmp_path / "moments.csv").exists()
    assert run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "stop-value"]) == 0
    row = (tmp_path / "stop_value.csv").read_text().splitlines()[2].split(",")
    assert float(row[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(row[3]) <= 1e-12


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["--scenario", scenario_path("obstacle_quad"), "--out", out, "verify",
                    "--checks", "skorokhod,measure-identity,minimality"])
        assert code == 0
    for name in ("verify_report.csv", "verify_report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unknown_flag_exits_2(tmp_path):
    assert run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "solve", "--definitely-not-a-flag"]) == 2
    assert run(["--scenario", scenario_path("constant"), "--out", tmp_path,
                "--threads", 2, "solve"]) == 2


@pytest.mark.parametrize("line", ["grid.nxx = 100", "mc.pathz = 10", "tolerances.lcp_tl = 1e-6",
                                  "tolerances.omega = 1.5", "calibration.z_budgett = 9"])
def test_unknown_key_in_any_section_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(scenario_path("constant").read_text() + line + "\n")
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "solve"])
    assert code == 2
    err = capsys.readouterr().err
    assert "kind=ScenarioError" in err and line.split(" =")[0] in err
    assert not (tmp_path / "o").exists()


def _tolerances(spec):
    """A spec's solver tolerances: (lcp_tol, inner_tol, max_inner)."""
    return spec.lcp_tol, spec.inner_tol, spec.max_inner


def _record_specs(monkeypatch, module, *names):
    """Record the tolerances of the spec, the first argument, of every call
    to each of ``names`` through ``module``: name -> list of tuples."""
    recorded = {name: [] for name in names}
    for name in names:
        def wrapper(spec, *args, _name=name, _real=getattr(module, name)):
            recorded[_name].append(_tolerances(spec))
            return _real(spec, *args)
        monkeypatch.setattr(module, name, wrapper)
    return recorded


def test_tolerance_overrides_reach_the_solver(tmp_path, monkeypatch):
    """``solve`` hands both methods the spec that carries every
    ``tolerances.*`` key; the penalized route reads all but ``lcp_tol``."""
    import parobs.cli

    recorded = _record_specs(monkeypatch, parobs.cli, "solve_psor", "solve_penalized")
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(scenario_path("constant").read_text()
                   + "tolerances.lcp_tol = 1e-6\ntolerances.inner_tol = 1e-11\n")
    for method in ("psor", "penalized"):
        assert run(["--scenario", cfg, "--out", tmp_path / method, "solve",
                    "--method", method]) == 0
    assert recorded == {"solve_psor": [(1e-6, 1e-11, 200)], "solve_penalized": [(1e-6, 1e-11, 200)]}


def _scenario_with(tmp_path, name, pairs, stem):
    """``scenarios/<name>.cfg`` with each (key, value) of ``pairs`` set,
    written to ``tmp_path / <stem>.cfg``."""
    text = scenario_path(name).read_text()
    for key, value in pairs:
        text = "".join(row + "\n" for row in text.splitlines() if not row.startswith(key + " "))
        text += f"{key} = {value}\n"
    cfg = tmp_path / f"{stem}.cfg"
    cfg.write_text(text)
    return cfg


def _small_put(tmp_path, extra=()):
    return _scenario_with(tmp_path, "american_put",
                          (("grid.nx", "40"), ("grid.nt", "40"), ("mc.paths", "2000"),
                           ("mc.dt_path", "0.0125"), *extra), "small_put")


def test_verify_all_shares_one_reflected_mc_estimate(tmp_path, monkeypatch):
    import parobs.verify
    from parobs import stochastic
    from parobs.grid import solve_density

    calls = {"rbsde_reflected_mc": 0, "rbsde_chain_dp": 0, "solve_density": 0}
    seeds = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(spec, s, x, dt_path, path_count, seed, **kwargs):
        seeds.append(seed)
        return stochastic.simulate_paths(spec, s, x, dt_path, path_count, seed, **kwargs)

    for fn in (stochastic.rbsde_reflected_mc, stochastic.rbsde_chain_dp, solve_density):
        monkeypatch.setattr(parobs.verify, fn.__name__, counted(fn))
    monkeypatch.setattr(parobs.verify, "simulate_paths", recorded)
    cfg = _small_put(tmp_path)
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "verify"])
    assert code == 0
    # representation-u probes 1 and 2 each simulate and regress their own
    # ensemble; probe 0 is the shared estimate, which representation-z and
    # ac-measure reuse, and it is built last so no second ensemble is alive
    assert calls == {"rbsde_reflected_mc": 3, "rbsde_chain_dp": 1, "solve_density": 1}
    seed = int(load_scenario(cfg).mc_params["seed"])
    assert seeds == [seed + 1, seed + 2, seed]


def _small_put_setup(tmp_path, extra=()):
    from parobs.solver import solve_psor

    sc = load_scenario(_small_put(tmp_path, extra))
    grid = SpaceTimeGrid.build(sc.spec, 40, 40)
    return sc.spec, grid, solve_psor(sc.spec, grid)


def _small_put_context(tmp_path, extra=()):
    """The context ``verify`` builds for the small put."""
    from parobs.verify import VerifyContext

    sc = load_scenario(_small_put(tmp_path, extra))
    return VerifyContext(sc.spec, SpaceTimeGrid.build(sc.spec, 40, 40), sc.mc_params,
                         sc.calibration)


def test_shared_estimate_gives_the_same_reports(tmp_path):
    """representation-z and ac-measure read one shared fit from one context
    and report what each reports on a context of its own."""
    from parobs.verify import run_checks

    names = ["representation-z", "ac-measure"]
    shared = run_checks(_small_put_context(tmp_path), names)
    assert shared == [run_checks(_small_put_context(tmp_path), [name])[0] for name in names]


def test_verify_representation_u_matches_unshared_probes(tmp_path):
    """The registry's representation-u takes probe 0 from the context's
    shared fit; every probe reads what a fresh ensemble from its snapped node
    with seed ``seed + j`` gives."""
    from parobs.stochastic import rbsde_reflected_mc, simulate_paths
    from parobs.verify import run_checks

    ctx = _small_put_context(tmp_path)
    rep, = run_checks(ctx, ["representation-u"])
    probes = rep.details["probes"]
    assert (probes[0]["s"], probes[0]["x"]) == (0.0, float(ctx.grid.x_nodes[ctx.x_index]))
    for j, row in enumerate(probes):
        ens = simulate_paths(ctx.spec, row["s"], row["x"], ctx.dt_path, ctx.paths, ctx.seed + j)
        own = rbsde_reflected_mc(ens, ctx.basis_degree)
        assert (row["mc_Y0"], row["mc_ci"]) == (own.Y0, own.ci)


@pytest.mark.parametrize("checks", ["all", "ac-measure,representation-z,representation-u"])
def test_verify_peaks_below_one_path_by_date_field(tmp_path, checks):
    """A verify run on 2e4 paths and 200 dates never holds one (n, m) float64
    field, also when representation-u's probes 1 and 2 simulate and fit their
    own ensembles while the shared ensemble and fit are held for probe 0."""
    import tracemalloc

    from parobs.verify import run_checks, select_checks

    n, m = 200, 20_000
    ctx = _small_put_context(tmp_path, (("mc.paths", str(m)), ("mc.dt_path", "0.0025")))
    assert ctx.spec.T / ctx.dt_path == pytest.approx(n)
    tracemalloc.start()
    try:
        reports = run_checks(ctx, select_checks(checks))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.name for r in reports] == list(select_checks(checks))
    assert peak < n * m * 8


def test_ac_measure_one_stencil_matches_three_interpolation_passes(tmp_path):
    """The shared sweep's one stencil per date gives ac-measure's sums of
    three interpolation passes over the stored paths and representation-z's
    sum of its own pass, bit for bit."""
    from oracles import stored_simulate_paths, storing_lsmc, three_pass_ac_path_sums
    from parobs.grid import interp_space_time
    from parobs.solver import z_field
    from parobs.stochastic import rbsde_reflected_mc, simulate_paths
    from parobs.verify import _path_sweep

    # a truncation narrow enough that paths leave it through both edges on
    # their own, so the clamped branch of the stencil is exercised
    spec, grid, sol = _small_put_setup(tmp_path, (("problem.x_lo", "-0.4"),
                                                  ("problem.x_hi", "0.4")))
    ens = simulate_paths(spec, 0.0, 0.0, 0.0125, 3000, seed=11)
    assert min(float(xk.min()) for xk in x_rows(ens)) < spec.x_lo
    assert max(float(xk.max()) for xk in x_rows(ens)) > spec.x_hi
    mc = rbsde_reflected_mc(ens, 3)
    z_mse, residual, k_tilde = _path_sweep(grid, sol, mc)
    stored = stored_simulate_paths(spec, 0.0, 0.0, 0.0125, 3000, seed=11)
    ref_residual, ref_k_tilde = three_pass_ac_path_sums(spec, grid, stored, sol)
    assert np.array_equal(residual, ref_residual)
    assert np.array_equal(k_tilde, ref_k_tilde)
    assert np.all(np.isfinite(residual))
    z_grid, ref_z_mse = z_field(spec, grid, sol.u_values), 0.0
    _, Z, _, _, _ = storing_lsmc(spec, stored, 3)
    for k in range(stored.n_steps):
        zpde = interp_space_time(grid, z_grid, float(stored.t_nodes[k]), stored.X[k])
        ref_z_mse += float(np.mean((zpde - Z[k]) ** 2)) * stored.dt_path
    assert z_mse == ref_z_mse > 0.0


@pytest.mark.parametrize("line", ["mc.basis_degree = -1", "mc.basis_degree = 7",
                                  "mc.seed = -5", "calibration.ac_residual_budget = 0",
                                  "calibration.weighted_hi = 0", "calibration.z_budget = -1"])
def test_mc_keys_out_of_range_exit_2_before_solving(tmp_path, capsys, monkeypatch, line):
    import parobs.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the scenario was rejected")

    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    key = line.split(" =", 1)[0]
    text = "".join(row + "\n" for row in scenario_path("constant").read_text().splitlines()
                   if not row.startswith(key + " "))
    cfg = tmp_path / "bad_mc.cfg"
    cfg.write_text(text + line + "\n")
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "verify"])
    assert code == 2
    err = capsys.readouterr().err
    assert "kind=ScenarioError" in err and key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                "--seed", -5, "stop-value"])
    assert code == 2
    assert "kind=ScenarioError" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_moments_nonfinite_exponent_exits_2(tmp_path, capsys, p):
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                "moments", "--p", p])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o" / "moments.csv").exists()


@pytest.mark.parametrize("p", ["nan", "3"])
def test_moments_bad_exponent_exits_2_before_simulating(tmp_path, capsys, monkeypatch, p):
    import parobs.cli

    def no_simulate(*args, **kwargs):
        raise AssertionError("the ensemble was simulated before --p was rejected")

    monkeypatch.setattr(parobs.cli, "simulate_paths", no_simulate)
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                "moments", "--p", p])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--p" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["stop-value"],
                                     ["study", "--study", "penalization", "--max-level", "5"]],
                         ids=["stop-value", "study-penalization"])
def test_tolerance_overrides_reach_stop_value_and_study(tmp_path, monkeypatch, command):
    import parobs.cli

    recorded = _record_specs(monkeypatch, parobs.cli, "solve_psor", "penalization_study")
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(scenario_path("constant").read_text()
                   + "tolerances.lcp_tol = 1e-3\ntolerances.inner_tol = 1e-11\n")
    assert run(["--scenario", cfg, "--out", tmp_path / "o", *command]) == 0
    assert recorded["solve_psor"] == [(0.001, 1e-11, 200)]
    assert recorded["penalization_study"] == ([(0.001, 1e-11, 200)] if command[0] == "study"
                                              else [])


_TOLERANCES = (("tolerances.lcp_tol", "1e-9"), ("tolerances.inner_tol", "1e-10"),
               ("tolerances.max_inner", "150"))


def test_verify_minimality_and_solution_read_the_context_tolerances(tmp_path, monkeypatch):
    """``tolerances.*`` reach the shared complementarity solve and every
    penalty level that ``minimality`` marches, on the context's spec."""
    import parobs.verify

    recorded = _record_specs(monkeypatch, parobs.verify, "solve_psor", "_penalized_march")
    code = run(["--scenario", _small_put(tmp_path, _TOLERANCES), "--out", tmp_path / "o",
                "verify", "--checks", "minimality"])
    assert code == 0
    assert recorded == {"solve_psor": [(1e-9, 1e-10, 150)],
                        "_penalized_march": [(1e-9, 1e-10, 150)]}


@pytest.mark.parametrize("study", ["picard", "stability"])
def test_picard_and_stability_studies_honour_tolerances(tmp_path, monkeypatch, study):
    """Every solve of the frozen-driver and shifted-obstacle specs carries
    the scenario's tolerances."""
    import parobs.solver

    calls = _record_specs(monkeypatch, parobs.solver, "solve_psor")["solve_psor"]
    code = run(["--scenario", _small_put(tmp_path, _TOLERANCES), "--out", tmp_path / "o",
                "study", "--study", study])
    assert code == 0
    assert calls and all(c == (1e-9, 1e-10, 150) for c in calls)


def test_stability_study_stops_at_max_inner(tmp_path, capsys):
    """One driver refinement cannot converge a step of the put's Lipschitz
    driver, so ``tolerances.max_inner = 1`` stops the stability study with
    exit 3, as it stops ``solve``."""
    cfg = _small_put(tmp_path, (("tolerances.max_inner", "1"),))
    for command in (["solve"], ["study", "--study", "stability"]):
        assert run(["--scenario", cfg, "--out", tmp_path / "o", *command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: code=3") and "within 1 iterations" in err


def test_a_step_that_keeps_its_active_set_ends_within_max_inner_1(tmp_path):
    """heat_bump's driver has L = 0 and its obstacle never binds, so each
    step's first penalized solve keeps the empty active set it used, which
    ends the step.  Under ``tolerances.max_inner = 1`` the penalized solve
    therefore writes the default run's solution with one solve per step,
    where a second solve that only confirmed the row used to pass the limit
    (exit 3)."""
    command = ["solve", "--method", "penalized"]
    assert run(["--scenario", scenario_path("heat_bump"), "--out", tmp_path / "base",
                *command]) == 0
    cfg = tmp_path / "one.cfg"
    cfg.write_text(scenario_path("heat_bump").read_text() + "tolerances.max_inner = 1\n")
    assert run(["--scenario", cfg, "--out", tmp_path / "one", *command]) == 0

    def body(run_dir, name):   # the provenance line names the scenario file's hash
        return (tmp_path / run_dir / name).read_text().splitlines()[1:]

    assert body("one", "solution.csv") == body("base", "solution.csv")
    assert body("one", "diagnostics.csv") == body("base", "diagnostics.csv")
    assert {row.rsplit(",", 1)[1] for row in body("one", "diagnostics.csv")[1:]} == {"1"}


def test_penalization_study_honours_max_inner(tmp_path, monkeypatch):
    """The study's one lockstep march, which carries every level, runs on
    a spec with the scenario's inner_tol and max_inner."""
    import parobs.solver

    seen = _record_specs(monkeypatch, parobs.solver, "_penalized_march")["_penalized_march"]
    code = run(["--scenario", _small_put(tmp_path, _TOLERANCES), "--out", tmp_path / "o",
                "study", "--study", "penalization", "--max-level", "6"])
    assert code == 0
    assert seen == [(1e-9, 1e-10, 150)]  # levels 2^4, 2^5 and 2^6 in lockstep


def test_derived_specs_keep_the_scenario_tolerances(tmp_path, monkeypatch):
    """A scenario's three ``tolerances.*`` keys land on its spec, and every
    spec derived from it by ``replace`` keeps them: the frozen driver, both
    shifted-obstacle specs of the stability study and the reflecting twin
    that ``interval-measure`` evolves its law under."""
    import parobs.solver
    import parobs.verify
    from parobs.solver import frozen_driver, obstacle_stability
    from parobs.verify import VerifyContext, check_interval_measure

    sc = load_scenario(_small_put(tmp_path, _TOLERANCES))
    assert _tolerances(sc.spec) == (1e-9, 1e-10, 150)
    assert sc.tolerances == {"lcp_tol": 1e-9, "inner_tol": 1e-10, "max_inner": 150}
    grid = SpaceTimeGrid.build(sc.spec, 40, 40)
    frozen = frozen_driver(sc.spec, grid, np.zeros((grid.nt + 1, grid.nx + 2)))
    assert _tolerances(frozen) == (1e-9, 1e-10, 150)
    solves = _record_specs(monkeypatch, parobs.solver, "solve_psor")["solve_psor"]
    h1 = sc.spec.obstacle.h
    obstacle_stability(sc.spec, grid, h1, lambda t, x: h1(t, x) - 1e-3)
    assert solves == [(1e-9, 1e-10, 150)] * 2
    laws = _record_specs(monkeypatch, parobs.verify, "evolve_law")["evolve_law"]
    check_interval_measure(VerifyContext(sc.spec, grid, sc.mc_params), 0.0, sc.spec.T,
                           (sc.spec.x_lo, sc.spec.x_hi))
    assert laws == [(1e-9, 1e-10, 150)]


@pytest.mark.parametrize("key", ["lcp_tol", "inner_tol"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_nonpositive_solver_tolerance_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                                             key, value):
    import parobs.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the scenario was rejected")

    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    cfg = tmp_path / "bad_tol.cfg"
    cfg.write_text(scenario_path("american_put").read_text() + f"tolerances.{key} = {value}\n")
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "solve", "--method", "psor"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"tolerances.{key}" in err and "positive" in err
    assert not (tmp_path / "o").exists()


def test_penalization_study_max_level_below_schedule_start_exits_2(tmp_path, capsys,
                                                                  monkeypatch):
    import parobs.cli

    def no_load(*args, **kwargs):
        raise AssertionError("the scenario was loaded before --max-level was rejected")

    monkeypatch.setattr(parobs.cli, "load_scenario", no_load)
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                "study", "--study", "penalization", "--max-level", 3])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--max-level" in err
    assert not (tmp_path / "o").exists()


def test_penalization_study_max_level_beyond_float_range_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch):
    """The level 2^1024 is not a finite float, so ``--max-level 1024`` is
    refused with one ``error:`` line before the scenario loads: no PSOR
    reference and no penalty level is solved first."""
    import parobs.cli

    def no_load(*args, **kwargs):
        raise AssertionError("the scenario was loaded before --max-level was rejected")

    monkeypatch.setattr(parobs.cli, "load_scenario", no_load)
    code = run(["--scenario", scenario_path("american_put"), "--out", tmp_path / "o",
                "study", "--study", "penalization", "--max-level", 1024])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: code=2"), err
    assert "2^1024" in err[0] and "--max-level" in err[0]
    assert not (tmp_path / "o").exists()


def test_stop_value_reads_both_values_at_the_paths_start(tmp_path):
    """With ``problem.strike = 2.5`` the small put's obstacle binds at every
    path's start, so each path stops at date 0 with reward h(0, X_0).  The
    paths start on the grid node where the exhaustive value is read (x = 0
    lies between nodes at nx = 40), and chain-dp gives h there too: the rule
    value is the mean of 2000 copies of that h, and the gap is that mean's
    rounding alone."""
    cfg = _small_put(tmp_path, (("problem.strike", "2.5"),))
    assert run(["--scenario", cfg, "--out", tmp_path / "o", "stop-value"]) == 0
    rule_value, _, snell_value, gap = map(float, (tmp_path / "o" / "stop_value.csv")
                                          .read_text().splitlines()[2].split(","))
    spec = load_scenario(cfg).spec
    grid = SpaceTimeGrid.build(spec, 40, 40)
    _, x_index = grid.nearest_node(0.0, 0.0)
    h = float(spec.obstacle.h(0.0, grid.x_nodes[x_index]))
    assert snell_value == h and rule_value == float(np.full(2000, h).mean())
    assert gap == abs(rule_value - h) <= 4 * np.spacing(h)


def _bounded_arange(monkeypatch, limit=10**7):
    """``np.arange(n)`` with n above ``limit`` raises instead of allocating,
    so that a date count past its cap fails a test rather than filling the
    machine's shared memory."""
    real = np.arange

    def arange(*args, **kwargs):
        if len(args) == 1 and not kwargs and args[0] > limit:
            raise AssertionError(f"np.arange({args[0]}) would allocate")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


@pytest.mark.parametrize("command", ["simulate", "moments", "stop-value"])
def test_too_many_path_dates_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    """``mc.dt_path = 1e-9`` asks for 5e8 dates of the small put's paths: each
    forward command exits 2 with one ``error:`` line naming the cap, before
    the date array is sized or a solve runs."""
    import parobs.cli
    from parobs.stochastic import MAX_PATH_DATES

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before dt_path was refused")

    _bounded_arange(monkeypatch)
    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    cfg = _small_put(tmp_path, (("mc.dt_path", "1e-9"),))
    assert run(["--scenario", cfg, "--out", tmp_path / "o", command]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: code=2 kind=ValueError"), err
    assert f"more than {MAX_PATH_DATES} path dates" in err[0]
    assert not (tmp_path / "o").exists()


def test_simulate_and_stop_value_hold_no_increments(tmp_path, monkeypatch):
    import parobs.cli
    from parobs.stochastic import simulate_paths

    ensembles = []

    def recorded(*args, **kwargs):
        ensembles.append(simulate_paths(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(parobs.cli, "simulate_paths", recorded)
    for command in ("simulate", "stop-value"):
        assert run(["--scenario", scenario_path("constant"), "--out", tmp_path, command]) == 0
    assert len(ensembles) == 2
    assert all(ens.dW is None for ens in ensembles)


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_stability_study_bad_eps_exits_2_before_solving(tmp_path, capsys, monkeypatch, eps):
    import parobs.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before --eps was rejected")

    monkeypatch.setattr(parobs.cli, "solve_psor", no_solve)
    code = run(["--scenario", scenario_path("constant"), "--out", tmp_path / "o",
                "study", "--study", "stability", "--eps", eps])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--eps" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["psor", "penalized"])
def test_solution_csv_matches_per_value_writer(tmp_path, monkeypatch, method):
    import parobs.cli

    solved = {}

    def record(fn):
        def wrapper(spec, grid, *args, **kwargs):
            solved["grid"] = grid
            solved["sol"] = fn(spec, grid, *args, **kwargs)
            return solved["sol"]
        return wrapper

    monkeypatch.setattr(parobs.cli, "solve_psor", record(parobs.cli.solve_psor))
    monkeypatch.setattr(parobs.cli, "as_obstacle_solution",
                        record(parobs.cli.as_obstacle_solution))
    code = run(["--scenario", scenario_path("obstacle_quad"), "--out", tmp_path,
                "solve", "--method", method])
    assert code == 0
    written = (tmp_path / "solution.csv").read_bytes()
    provenance = written.split(b"\n", 1)[0].decode()[2:]
    per_value_solution_csv(tmp_path / "oracle.csv", provenance, solved["grid"], solved["sol"])
    assert written == (tmp_path / "oracle.csv").read_bytes()


def test_solution_csv_matches_per_value_writer_on_awkward_values(tmp_path):
    from parobs.cli import _solution_slabs, write_csv
    from parobs.solver import ObstacleSolution

    grid = SpaceTimeGrid(nx=2, nt=1, dx=1.0, dt=1.0, x_nodes=np.array([-0.0, 0.1, 1e300, 3.0]),
                         t_nodes=np.array([0.0, 1.0 / 3.0]))
    u = np.array([[-0.0, 5e-324, 1e300, 2.0], [0.1, 1.0 / 3.0, -7.0, 2.0 ** 60]])
    r = np.array([[0.0, -1e-300, 12345678901234567.0, 0.30000000000000004],
                  [-5e-324, 1.0, 1e22, np.pi]])
    contact = np.array([[True, False, True, False], [False, False, True, True]])
    sol = ObstacleSolution(u_values=u, r_values=r, contact_mask=contact)
    write_csv(tmp_path / "solution.csv", "synthetic", ["t", "x", "u", "r", "contact"],
              _solution_slabs(grid, sol))
    per_value_solution_csv(tmp_path / "oracle.csv", "synthetic", grid, sol)
    written = (tmp_path / "solution.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written.splitlines()[2:4] == [b"0,-0,-0,0,1",
                                         b"0,0.10000000000000001,4.9406564584124654e-324,-1e-300,0"]


def test_budgets_without_calibration_lines_equal_the_check_defaults(tmp_path, monkeypatch):
    """With no calibration.* line in the scenario, every check ``verify``
    runs reads ``CALIBRATION_DEFAULTS`` from its context, the budgets a
    direct check call on a context built without calibration reads, so both
    judge by the same budget."""
    import parobs.verify
    from parobs.verify import CALIBRATION_DEFAULTS, CheckReport

    cfg = _small_put(tmp_path)
    cfg.write_text("".join(row + "\n" for row in cfg.read_text().splitlines()
                           if not row.startswith("calibration.")))
    sc = load_scenario(cfg)
    assert sc.calibration == {}
    names = ("check_representation_u", "check_representation_z", "check_ac_measure",
             "check_weighted_bounds")
    seen = {}
    for name in names:
        def recording(ctx, *args, _name=name):
            seen[_name] = dict(ctx.calibration)
            return CheckReport(_name, 0.0, 1.0, 0.0, 0.0, True)
        monkeypatch.setattr(parobs.verify, name, recording)
    code = run(["--scenario", cfg, "--out", tmp_path / "o", "verify", "--checks",
                "representation-u,representation-z,ac-measure,weighted-bounds"])
    assert code == 0
    direct = parobs.verify.VerifyContext(sc.spec, SpaceTimeGrid.build(sc.spec, 40, 40),
                                         sc.mc_params)
    assert seen == {name: direct.calibration for name in names}
    assert direct.calibration == CALIBRATION_DEFAULTS


@pytest.mark.parametrize("command", [
    ["solve", "--method", "penalized", "--penalty", "1" + "0" * 400],
    ["study", "--study", "penalization", "--max-level", "1030"],
], ids=["solve-penalty", "study-max-level"])
def test_penalty_level_beyond_float_range_exits_2(tmp_path, command):
    """A penalty level no float holds is a usage error, reported on one
    ``error:`` line, not an ``OverflowError`` traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "parobs.cli", "--scenario",
                          str(scenario_path("american_put")), "--out", str(tmp_path), *command],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: code=2 kind=ValueError")
    assert "penalty level" in lines[0]
    assert "Traceback" not in out.stderr


FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e300", "1e-300", "1e-9", "2.5")
FUZZ_KEYS = {"constant": ("mc.paths", "mc.dt_path", "mc.seed"),
             "small_put": ("mc.paths", "mc.dt_path", "mc.seed", "problem.strike",
                           "problem.rate"),
             "small_sine": ("problem.a0", "problem.amp", "problem.bump_height",
                            "problem.bump_width", "problem.obstacle_level")}
SMALL = (("grid.nx", "40"), ("grid.nt", "40"), ("mc.paths", "2000"))
FUZZ_SCENARIOS = {"constant": ("constant", ()),
                  "small_put": ("american_put", SMALL + (("mc.dt_path", "0.0125"),)),
                  "small_sine": ("sine_coef", SMALL + (("mc.dt_path", "0.025"),))}
FUZZ_CSV = {"simulate": "ensemble_summary.csv", "moments": "moments.csv",
            "stop-value": "stop_value.csv"}


def _fuzz(tmp_path, capsys, scenario, draws, argv, csvs):
    """The contract failures of ``argv`` run in process on the fuzz scenario
    ``scenario`` with each (key, value) of ``draws`` set, one draw at a time:
    an exit code outside 0 to 3, a nonzero exit that does not print exactly
    one ``error:`` line, an exit 0 that prints anything or whose ``csvs``
    hold a NaN or inf, an exception that escapes (a traceback on the command
    line), a printed warning, or a thread that outlives the call."""
    name, base = FUZZ_SCENARIOS[scenario]
    failures = []
    for i, (key, value) in enumerate(draws):
        cfg = _scenario_with(tmp_path, name, (*base, (key, value)), scenario)
        out = tmp_path / f"o{i}"
        before = threading.active_count()
        with warnings_to_stderr():
            try:
                code = run(["--scenario", cfg, "--out", out, *argv])
            except Exception as exc:   # printed as a traceback on the command line
                failures.append((key, value, f"escaped {type(exc).__name__}: {exc}"))
                capsys.readouterr()
                continue
        err = capsys.readouterr().err.splitlines()
        if code not in (0, 1, 2, 3):
            failures.append((key, value, f"exit {code}"))
        if code == 0:
            if err:
                failures.append((key, value, f"stderr at exit 0: {err}"))
            for csv in csvs:
                body = (out / csv).read_text().splitlines()[2:]
                cells = np.array([line.split(",") for line in body], dtype=float)
                if not np.isfinite(cells).all():
                    failures.append((key, value, f"non-finite {csv} cell at exit 0"))
        elif len(err) != 1 or not err[0].startswith(f"error: code={code} "):
            failures.append((key, value, f"exit {code} with stderr {err}"))
        if threading.active_count() != before:
            failures.append((key, value, "a thread outlived the call"))
    return failures


@pytest.mark.parametrize("command", list(FUZZ_CSV))
@pytest.mark.parametrize("scenario", list(FUZZ_KEYS))
def test_seeded_fuzz_of_the_forward_commands(tmp_path, capsys, monkeypatch, scenario, command):
    """Every key of ``FUZZ_KEYS`` set to each of ``FUZZ_VALUES``, one key at
    a time, then ``command`` run in process under the contract of ``_fuzz``.

    No draw is skipped: none asks for a large array.  ``mc.paths`` and
    ``mc.seed`` parse as ints, so every non-integer draw is a scenario
    error, and 0 and -1 paths fail the positivity check before any
    ensemble is sized.  ``mc.dt_path = 1e-9`` and ``1e-300`` ask
    ``simulate_paths`` for more dates than its cap, which it refuses before
    sizing the date array (``np.arange`` is guarded, so an escape fails the
    draw without allocating); 1e300 and 2.5 exceed the horizon.
    """
    _bounded_arange(monkeypatch)
    draws = [(key, value) for key in FUZZ_KEYS[scenario] for value in FUZZ_VALUES]
    assert _fuzz(tmp_path, capsys, scenario, draws, [command], [FUZZ_CSV[command]]) == []


# the grid commands that solve, with the CSVs an exit 0 writes
FUZZ_SOLVES = {
    "solve-psor": (["solve", "--method", "psor"], ["solution.csv", "diagnostics.csv"]),
    "solve-penalized": (["solve", "--method", "penalized"], ["solution.csv", "diagnostics.csv"]),
    "study-picard": (["study", "--study", "picard"], ["picard_study.csv"]),
    "study-stability": (["study", "--study", "stability"], ["stability_study.csv"]),
    "study-penalization": (["study", "--study", "penalization", "--max-level", "6"],
                           ["penalization_study.csv"]),
}


@pytest.mark.parametrize("command", list(FUZZ_SOLVES))
def test_seeded_fuzz_of_the_tolerance_keys(tmp_path, capsys, command):
    """Each ``tolerances.*`` key set to each of ``FUZZ_VALUES`` on the small
    put, one key per draw, then a solving command run in process under the
    contract of ``_fuzz``.  One key at a time bounds the work: a huge
    ``max_inner`` with a tiny ``inner_tol`` would iterate as long as it is
    asked to.  ``max_inner`` parses as an int, so only its integer draws
    reach the positivity check; ``inner_tol = 1e-300`` is below round-off,
    and the penalized routes exit 3 at ``max_inner``.
    """
    draws = [(f"tolerances.{key}", value) for key in ("lcp_tol", "inner_tol", "max_inner")
             for value in FUZZ_VALUES]
    assert _fuzz(tmp_path, capsys, "small_put", draws, *FUZZ_SOLVES[command]) == []
