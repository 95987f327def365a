"""Output gates: checks on the files one CLI call wrote.

A gate failure marks the call as a failed operation; it never aborts the run.
The gates read outputs back through the public parobs API, so they run in a
process that has ``src`` on its path.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from pathlib import Path


def _rows(path: Path):
    """Data rows of a parobs CSV: the provenance comment and header are skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def nonfinite_cells(path: Path) -> int:
    """Number of numeric cells that are NaN or infinite."""
    import numpy as np

    try:  # all-numeric files, such as solution.csv, parse fast as one array
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)
        return int(np.count_nonzero(~np.isfinite(data)))
    except ValueError:
        pass
    bad = 0
    for row in _rows(path)[1]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a text column, such as a check name
            if not math.isfinite(value):
                bad += 1
    return bad


def solution_problems(path: Path, cfg: Path, argv: list) -> list:
    """``u >= h - lcp_tol`` and ``r = 0`` off contact, against the scenario's obstacle.

    A penalized solve is by construction below the obstacle by r / n on its
    contact set, so there the lower bound applies to u + r / n.
    """
    import numpy as np
    from parobs import load_scenario
    from parobs.cli import build_parser
    from parobs.solver import DEFAULT_LCP_TOL

    args = build_parser().parse_args(argv)
    t, x, u, r, contact = np.loadtxt(path, delimiter=",", comments="#", skiprows=2,
                                     ndmin=2).T
    sc = load_scenario(cfg)
    h = np.broadcast_to(np.asarray(sc.spec.obstacle.h(t, x), dtype=float), u.shape)
    lcp_tol = float(sc.tolerances.get("lcp_tol", DEFAULT_LCP_TOL))
    lower = u + r / args.penalty if args.method == "penalized" else u
    problems = []
    below = int(np.count_nonzero(lower < h - lcp_tol))
    if below:
        problems.append(f"{path.name}: {below} nodes below the obstacle by more than {lcp_tol:g}")
    off = int(np.count_nonzero((contact == 0) & (r != 0)))
    if off:
        problems.append(f"{path.name}: {off} nodes with r != 0 off contact")
    return problems


def budget_uses(out: Path) -> dict:
    """discrepancy / budget per check, from the reports a call wrote.

    ``verify_report.csv`` gives one entry per check.  The penalization study
    gives ``penalization-gap``: its finest level's distance to PSOR over the
    gap budget of the minimality check.
    """
    uses = {}
    report = out / "verify_report.csv"
    if report.exists():
        header, rows = _rows(report)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            uses[row[col["check"]]] = float(row[col["discrepancy"]]) / float(row[col["budget"]])
    study = out / "penalization_study.csv"
    if study.exists():
        from parobs.verify import check_minimality
        gap_budget = inspect.signature(check_minimality).parameters["gap_budget"].default
        header, rows = _rows(study)
        uses["penalization-gap"] = float(rows[-1][header.index("distance_to_psor")]) / gap_budget
    return uses


def check_call(argv: list, out: Path, cfg: Path) -> list:
    """Every gate problem in the outputs of one CLI call; empty when it is correct."""
    problems = []
    csvs = sorted(out.glob("*.csv"))
    if not csvs:
        problems.append("no CSV written")
    for path in csvs:
        bad = nonfinite_cells(path)
        if bad:
            problems.append(f"{path.name}: {bad} non-finite cells")
    report = out / "verify_report.csv"
    if report.exists():
        header, rows = _rows(report)
        col = {name: i for i, name in enumerate(header)}
        failing = [row[col["check"]] for row in rows if row[col["passed"]] != "1"]
        if failing:
            problems.append(f"verify_report.csv: checks not passed: {failing}")
    solution = out / "solution.csv"
    if solution.exists():
        problems += solution_problems(solution, cfg, argv)
    return problems


def csv_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
