"""Self-test of the benchmark runner: the three workload shapes at toy sizes.

The toy workloads keep each real workload's CLI calls but run them on the
constant scenario with a 12 x 12 grid, so every pass takes well under a
second besides the interpreter start-up.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import run as bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

TOY = {"grid.nx": 12, "grid.nt": 12}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = ("problem.validate_calls", "grid.kernel_calls", "grid.assemble_calls",
                 "grid.step_solve_calls", "solver.psor_calls", "solver.penalized_calls",
                 "stochastic.lsmc_calls", "stochastic.chain_dp_calls", "solver.psor_sweeps",
                 "solver.penalized_inner_iters", "stochastic.path_steps", "cli.rows_written")


def toy(name: str, calls=None):
    w = replace(WORKLOADS[name], scenario="constant.cfg", overrides=TOY)
    return w if calls is None else replace(w, calls=calls)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_workload_emits_every_metric(name):
    plain = bench.run(toy(name), seed=3, seconds=0, trace=False)["result"]
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    out = bench.run(toy(name), seed=3, seconds=0, trace=True)
    traced = out["result"]
    assert traced["correct"] and traced["failed"] == 0
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["failed_ratio"] == 0
    # the layers' self times and the uncovered rest add up to the traced wall time
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert m["trace.other_s"] >= 0 and layers > 0
    assert layers + m["trace.other_s"] == pytest.approx(out["record"]["passes"][1]["wall_s"])
    assert m["problem.validate_calls"] == len(WORKLOADS[name].calls)
    assert m["cli.rows_written"] > 0


def test_deterministic_counts_repeat():
    runs = [bench.run(toy("verify-mc"), seed=5, seconds=0, trace=True)["result"]["metrics"]
            for _ in range(2)]
    for name in DETERMINISTIC:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["stochastic.path_steps"]["value"] > 0


def test_failing_gate_counts_against_failed_ratio():
    calls = WORKLOADS["verify-grid"].calls + (("verify", "--checks", "no-such-check"),)
    out = bench.run(toy("verify-grid", calls), seed=3, seconds=0, trace=True)
    result = out["result"]
    assert not result["correct"] and result["failed"] == 2 and result["attempted"] == 4
    assert result["metrics"]["failed_ratio"]["value"] == 0.5


def test_nonfinite_and_obstacle_gates(tmp_path):
    cfg = generate(toy("solve-fine"), 3, BENCH.parent / "scenarios", tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution.csv").write_text(
        "# scenario=constant\nt,x,u,r,contact\n0,0,1,0,1\n0,1,0.5,0,0\n0,2,nan,0,0\n0,3,1,2,0\n")
    problems = gates.check_call(["--scenario", str(cfg), "--out", str(out), "solve"], out, cfg)
    assert any("non-finite" in p for p in problems)
    assert any("below the obstacle" in p for p in problems)
    assert any("off contact" in p for p in problems)


def test_tracer_leaves_no_unwrapped_original():
    sys.path.insert(0, str(BENCH.parent / "src"))
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        import parobs.cli
        import parobs.verify
        # every binding of a traced function is the one shared wrapper
        assert parobs.cli.solve_psor is parobs.solver.solve_psor is parobs.verify.solve_psor
        assert parobs.verify.transition_kernel.__wrapped__.__module__ == "parobs.grid"
    finally:
        tracer.uninstall()
    assert not hasattr(parobs.cli.solve_psor, "__wrapped__")
