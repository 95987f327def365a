"""Command-line interface: scenario loading, dispatch, deterministic reports.

Outputs are CSV files with a provenance comment line (scenario name, content
hash, seed) and numbers serialized with 17 significant digits, so identical
invocations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error,
3 numeric failure inside a solver or scheme, or an allocation that failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

from .errors import NonFiniteOutput, ParobsError, ScenarioError
from .grid import SpaceTimeGrid
from .problem import validate_hypotheses
from .scenarios import Scenario, load_scenario
from .solver import (
    as_obstacle_solution,
    obstacle_stability,
    penalization_study,
    picard_outer,
    solve_penalized,
    solve_psor,
)
from .stochastic import moment_ratio_probe, optimal_stopping_value, simulate_paths
from .verify import VerifyContext, run_checks, select_checks


def _f17(v) -> str:
    return format(float(v), ".17g")


def _csv_line(row) -> str:
    """One CSV line: numbers with 17 significant digits, anything else as str.
    A NaN or infinite number raises ``NonFiniteOutput``."""
    if not all(math.isfinite(v) for v in row if isinstance(v, (int, float, np.floating))):
        raise NonFiniteOutput("non-finite value in the result row " + ",".join(map(str, row)))
    return ",".join(_f17(v) if isinstance(v, (int, float, np.floating)) else str(v)
                    for v in row) + "\n"


def write_csv(path: Path, provenance: str, header: list, lines) -> None:
    """Every CSV the CLI writes goes through here: a provenance comment, the
    header, then ``lines``, text blocks of whole lines (``_solution_slabs``
    for solution.csv, ``_csv_line`` for the short tables).  A table whose
    cells can be non-finite passes a list of lines formed before the call, so
    that such a value leaves no file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _provenance(sc: Scenario, seed: int) -> str:
    return f"scenario={sc.name} hash={sc.content_hash} seed={seed} units=model"


def _load(args) -> tuple[Scenario, SpaceTimeGrid, int]:
    if args.seed is not None and args.seed < 0:
        raise ScenarioError(f"--seed must be non-negative, got {args.seed}")
    sc = load_scenario(args.scenario)
    # the grid's steps are checked before the hypothesis probes, which
    # overflow on a truncation no float64 grid can carry
    grid = SpaceTimeGrid.build(sc.spec, int(sc.grid_params["nx"]), int(sc.grid_params["nt"]))
    report = validate_hypotheses(sc.spec)
    if not report.passed:
        failing = [e.name for e in report.entries if not e.passed]
        raise ScenarioError(f"scenario {sc.name} fails hypotheses: {failing}")
    seed = args.seed if args.seed is not None else int(sc.mc_params["seed"])
    return sc, grid, seed


def _penalized_tolerances(sc: Scenario) -> dict:
    """The scenario's tolerance overrides but ``lcp_tol``, which penalized solves lack.

    The complementarity routes take every ``tolerances.*`` key, so they are
    passed ``sc.tolerances`` as it is."""
    return {key: value for key, value in sc.tolerances.items() if key != "lcp_tol"}


def _solution_slabs(grid, sol):
    """solution.csv's lines, one text block per time slab.  Each x node is
    formatted once, and each slab is one %-format of a line template repeated
    over the nodes, applied to the slab's values interleaved; "%.17g" and "%d"
    give the text _csv_line gives row by row."""
    n = grid.x_nodes.size
    vals = [None] * (4 * n)
    vals[0::4] = [f"{x:.17g}" for x in grid.x_nodes.tolist()]
    for k, t in enumerate(grid.t_nodes.tolist()):
        vals[1::4] = sol.u_values[k].tolist()
        vals[2::4] = sol.r_values[k].tolist()
        vals[3::4] = sol.contact_mask[k].tolist()
        yield (f"{t:.17g},%s,%.17g,%.17g,%d\n" * n) % tuple(vals)


def cmd_solve(args) -> int:
    sc, grid, seed = _load(args)
    out = Path(args.out)
    if args.method == "psor":
        sol = solve_psor(sc.spec, grid, **sc.tolerances)
        diag_rows = [(k, grid.t_nodes[k], sol.diagnostics["sweep_counts"][k],
                      sol.diagnostics["refine_counts"][k]) for k in range(grid.nt)]
        diag_header = ["step", "t", "psor_sweeps", "driver_refines"]
    elif args.method == "penalized":
        pen = solve_penalized(sc.spec, grid, args.penalty,
                              **_penalized_tolerances(sc))
        sol = as_obstacle_solution(sc.spec, grid, pen)
        diag_rows = zip(range(grid.nt), grid.t_nodes, pen.inner_iteration_counts)
        diag_header = ["step", "t", "inner_iterations"]
    else:
        raise ScenarioError(f"unknown method {args.method!r}")
    prov = _provenance(sc, seed) + f" method={args.method}"
    write_csv(out / "solution.csv", prov, ["t", "x", "u", "r", "contact"],
              _solution_slabs(grid, sol))
    # counts and grid times, all finite, formed as written: a list of these lines beside
    # sol raised a four-call solve pass's peak RSS by 0.8 MB at nx = 800
    write_csv(out / "diagnostics.csv", prov, diag_header, map(_csv_line, diag_rows))
    return 0


def cmd_study(args) -> int:
    # checked before the scenario is loaded, as moments checks --p
    if args.study == "stability" and not (np.isfinite(args.eps) and args.eps > 0):
        raise ScenarioError(f"--eps must be a finite number > 0, got {args.eps}")
    if args.study == "penalization" and args.max_level < 4:
        raise ScenarioError(f"--max-level must be at least 4 (the schedule starts "
                            f"at 2^4), got {args.max_level}")
    if args.study == "penalization" and args.max_level > 1023:
        raise ValueError(f"penalty level n = 2^{args.max_level} is not a finite float; "
                         f"--max-level must be at most 1023")
    sc, grid, seed = _load(args)
    out = Path(args.out)
    prov = _provenance(sc, seed) + f" study={args.study}"
    if args.study == "penalization":
        schedule = [2**j for j in range(4, args.max_level + 1)]
        psor = solve_psor(sc.spec, grid, **sc.tolerances)
        study = penalization_study(sc.spec, grid, schedule, psor, **_penalized_tolerances(sc))
        # the first level has no increment
        rows = zip(study.n_levels, [0.0, *study.sup_increments], [0.0, *study.norm_increments],
                   study.distances_to_reference)
        write_csv(out / "penalization_study.csv", prov,
                  ["n", "sup_increment", "norm_increment", "distance_to_psor"],
                  [_csv_line(r) for r in rows])
    elif args.study == "picard":
        sol, trace = picard_outer(sc.spec, grid, **sc.tolerances)
        rows = [(i + 1, d, trace.ratios[i - 1] if i >= 1 else 0.0)
                for i, d in enumerate(trace.distances)]
        write_csv(out / "picard_study.csv", prov + f" gamma={_f17(trace.gamma)}",
                  ["iteration", "distance", "ratio"], [_csv_line(r) for r in rows])
    elif args.study == "stability":
        # shifted down, so that h2 <= h1 <= phi at T wherever h1 touches phi
        eps = args.eps
        h1 = sc.spec.obstacle.h
        h2 = lambda t, x: np.asarray(h1(t, x), dtype=float) - eps
        rep = obstacle_stability(sc.spec, grid, h1, h2, **sc.tolerances)
        write_csv(out / "stability_study.csv", prov,
                  ["eps", "solution_distance", "obstacle_distance", "ratio", "passed"],
                  [_csv_line((eps, rep.solution_distance, rep.obstacle_distance, rep.ratio,
                              int(rep.passed)))])
    else:
        raise ScenarioError(f"unknown study {args.study!r}")
    return 0


def cmd_verify(args) -> int:
    names = select_checks(args.checks)  # checked before the scenario is loaded
    sc, grid, seed = _load(args)
    mc = {**sc.mc_params, "seed": seed}
    reports = run_checks(VerifyContext(sc.spec, grid, mc, sc.calibration, sc.tolerances), names)
    out = Path(args.out)
    prov = _provenance(sc, seed)
    rows = [(r.name, r.discrepancy, r.budget, r.bias_part, r.stat_part, int(r.passed))
            for r in reports]
    write_csv(out / "verify_report.csv", prov,
              ["check", "discrepancy", "budget", "bias_part", "stat_part", "passed"],
              [_csv_line(r) for r in rows])
    lines = [f"# {prov}"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: discrepancy={_f17(r.discrepancy)} "
                     f"budget={_f17(r.budget)}")
    text = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "verify_report.txt").write_text(text)
    sys.stdout.write(text)
    if not all(r.passed for r in reports):
        failing = ",".join(r.name for r in reports if not r.passed)
        sys.stderr.write(f"error: code=1 kind=CheckFailure detail={failing}\n")
        return 1
    return 0


def cmd_simulate(args) -> int:
    sc, grid, seed = _load(args)
    spec = sc.spec
    mc = sc.mc_params
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, float(mc["dt_path"]), int(mc["paths"]), seed,
                         store_dw=False)
    with closing(ens._read(backward=False)) as path_rows:
        rows = [(ens.t_nodes[k], float(xk.mean()), float(xk.var()), float(xk.min()),
                 float(xk.max())) for k, xk, _ in path_rows]
    write_csv(Path(args.out) / "ensemble_summary.csv", _provenance(sc, seed),
              ["t", "mean", "var", "min", "max"], [_csv_line(r) for r in rows])
    return 0


def cmd_stop_value(args) -> int:
    sc, grid, seed = _load(args)
    spec = sc.spec
    sol = solve_psor(spec, grid, **sc.tolerances)
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, float(sc.mc_params["dt_path"]),
                         int(sc.mc_params["paths"]), seed, store_dw=False)
    sv = optimal_stopping_value(grid, sol, ens)
    write_csv(Path(args.out) / "stop_value.csv", _provenance(sc, seed),
              ["rule_value", "rule_ci", "snell_value", "gap"],
              [_csv_line((sv.rule_value, sv.rule_ci, sv.snell_value, sv.gap))])
    return 0


def cmd_moments(args) -> int:
    # checked before the ensemble is simulated; moment_ratio_probe checks it too
    if not (np.isfinite(args.p) and args.p >= 4):
        raise ScenarioError(f"--p must be a finite number >= 4, got {args.p}")
    sc, grid, seed = _load(args)
    spec = sc.spec
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    ens = simulate_paths(spec, 0.0, x0, float(sc.mc_params["dt_path"]),
                         int(sc.mc_params["paths"]), seed, store_dw=False)
    mr = moment_ratio_probe(ens, args.p)
    write_csv(Path(args.out) / "moments.csv", _provenance(sc, seed),
              ["p", "ratio", "ci", "sup_moment", "terminal_moment"],
              [_csv_line((mr.p, mr.ratio, mr.ci, mr.sup_moment, mr.terminal_moment))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parobs",
                                     description="Obstacle-problem solver and RBSDE cross-checker")
    parser.add_argument("--scenario", required=True, help="path to a scenario .cfg file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the obstacle problem")
    p.add_argument("--method", choices=("psor", "penalized"), default="psor")
    p.add_argument("--penalty", type=int, default=1024)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="run a parameter study")
    p.add_argument("--study", required=True, choices=("penalization", "picard", "stability"))
    p.add_argument("--max-level", type=int, default=14, help="top exponent of the 2^j schedule")
    p.add_argument("--eps", type=float, default=1e-3, help="obstacle shift for the stability study")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", help="run representation/measure checks")
    p.add_argument("--checks", default="all", help="'all' or comma-separated check names")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="simulate the diffusion ensemble")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stop-value", help="optimal stopping rule vs exhaustive value")
    p.set_defaults(func=cmd_stop_value)

    p = sub.add_parser("moments", help="running-sup moment ratio probe")
    p.add_argument("--p", type=float, default=4.0)
    p.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: code=2 kind={type(exc).__name__} detail={exc}\n")
        return 2
    except (ParobsError, MemoryError) as exc:
        sys.stderr.write(f"error: code=3 kind={type(exc).__name__} detail={exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
