"""The benchmark's workloads and the seeded generation of their inputs.

Each workload is a closed loop with one client: the CLI calls of a pass run
back to back in one fresh process.  A workload starts from a shipped scenario
file and overrides only ``grid.nx`` and ``mc.seed``; parobs sees nothing but
the generated ``.cfg`` file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Held out for confirming a claimed gain: do not use this seed while a change
# is being written or tuned.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                 # file under scenarios/
    calls: tuple                  # CLI arguments after --scenario and --out
    why: str
    overrides: dict = field(default_factory=dict)


VERIFY_GRID_CHECKS = "measure-identity,interval-measure,skorokhod,weighted-bounds,minimality"

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-mc", "american_put.cfg", (("verify", "--checks", "all"),),
        "all eight checks on american-put with 1e5 paths; Monte Carlo (LSMC regression and "
        "path simulation) dominates"),
    Workload(
        "verify-grid", "sine_coef.cfg", (("verify", "--checks", VERIFY_GRID_CHECKS),),
        "grid-side checks on sine-coef at nx = 800; the dense transition kernel dominates and "
        "its time-dependent coefficient defeats operator caching",
        overrides={"grid.nx": 800}),
    Workload(
        "solve-fine", "american_put.cfg",
        (("solve", "--method", "psor"), ("solve", "--method", "penalized"),
         ("study", "--study", "penalization"), ("study", "--study", "picard")),
        "solvers as producers on american-put at nx = 800; PSOR sweeps, penalized inner "
        "loops and CSV writing dominate",
        overrides={"grid.nx": 800}),
)}


def mc_seed(seed: int) -> int:
    """The scenario's ``mc.seed`` for a benchmark seed."""
    return random.Random(seed).randrange(1, 2**31)


def generate(workload: Workload, seed: int, scenarios: Path, dest: Path) -> Path:
    """Write the workload's scenario file for ``seed`` into ``dest``."""
    overrides = {**workload.overrides, "mc.seed": mc_seed(seed)}
    lines, seen = [], set()
    for line in (scenarios / workload.scenario).read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in overrides:
            line = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in overrides.items() if key not in seen]
    path = dest / f"{workload.name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def sizes(cfg: Path) -> dict:
    """grid and mc sizes as the generated file states them."""
    out = {}
    for line in cfg.read_text().splitlines():
        key, _, value = line.partition("=")
        key = key.strip()
        if key in ("grid.nx", "grid.nt", "mc.paths", "mc.dt_path", "mc.seed"):
            out[key] = value.strip()
    return out
