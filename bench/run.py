"""Benchmark runner for parobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; only the Python standard library is
needed here, while ``src/parobs`` and ``scenarios/`` come from the checkout.
The runner writes the workload's scenario file for the seed into a temporary
directory under ``.bench_out/``, then:

* ``--trace 0``: times the set-up (``SETUP_REPEATS`` fresh processes that
  import parobs and load, validate and grid the scenario) and runs untraced
  passes, each in a fresh process, until they have measured S seconds (at
  least one pass).
  It reports the end-to-end metrics as medians over those samples.
* ``--trace 1``: runs one untraced and one traced pass and reports the
  per-layer metrics of the traced pass (see ``tracer.py``).

Every pass's outputs go through the gates in ``gates.py``; a CLI call that
exits non-zero or writes an output that fails a gate counts as failed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with the machine,
versions, sizes and every sample is written to ``.bench_out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracer import UNITS as LAYER_UNITS  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, Workload, generate, sizes  # noqa: E402

SETUP_REPEATS = 3
BLAS_THREADS = 1      # at or below nproc on any machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0   # a run gives up rather than overrun this
# checks whose budget use is mostly Monte Carlo sampling noise at the shipped
# path counts; they are gated and traced but kept out of budget_use_max
NOISY_CHECKS = ("representation-u",)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "budget_use_max": "1"}
PER_LAYER = {**LAYER_UNITS, "trace.overhead_s": "s", "failed_ratio": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = child_env()
        work = ROOT / ".bench_out" / "work"
        work.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
        self.cfg = generate(workload, seed, ROOT / "scenarios", self.tmp)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _spawn(self, args: list, stdout, err_path: Path):
        with open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                    env=self.env, cwd=ROOT, stdout=stdout, stderr=err,
                                    text=True)
        watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        return proc, watchdog

    def setup_seconds(self) -> float:
        """Seconds from spawning a fresh process until it reports ready."""
        err = self.tmp / "setup.err"
        t0 = time.perf_counter()
        proc, watchdog = self._spawn(["setup", str(self.cfg)], subprocess.PIPE, err)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if line != "ready\n" or rc != 0:
            raise BenchError(f"set-up process failed (exit {rc}): {err.read_text()[-2000:]}")
        return elapsed

    def run_pass(self, index: int, trace: bool) -> dict:
        """One workload pass in a fresh process; returns the child's result."""
        out = self.tmp / f"pass{index}"
        out.mkdir()
        calls = [["--scenario", str(self.cfg), "--out", str(out / f"call{j}"), *argv]
                 for j, argv in enumerate(self.workload.calls)]
        spec = out / "spec.json"
        result = out / "result.json"
        spec.write_text(json.dumps({"calls": calls, "trace": trace, "cfg": str(self.cfg),
                                    "result": str(result)}))
        err = out / "stderr.txt"
        proc, watchdog = self._spawn(["pass", str(spec)], subprocess.DEVNULL, err)
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if rc != 0 or not result.exists():
            raise BenchError(f"pass process failed (exit {rc}): {err.read_text()[-2000:]}")
        data = json.loads(result.read_text())
        shutil.rmtree(out)
        return data


def call_failed(call: dict) -> bool:
    return call["rc"] != 0 or bool(call["problems"])


def budget_use_max(passes: list) -> float:
    uses = [u for p in passes for c in p["calls"]
            for name, u in c["budget_use"].items() if name not in NOISY_CHECKS]
    return max(uses, default=0.0)


def untraced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setups = [runner.setup_seconds() for _ in range(SETUP_REPEATS)]
    passes, walls = [], []
    while not walls or sum(walls) < seconds:
        if walls and runner.deadline - time.monotonic() < 2.0 * walls[-1] + 10.0:
            break
        passes.append(runner.run_pass(len(passes), trace=False))
        walls.append(passes[-1]["wall_s"])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        "budget_use_max": budget_use_max(passes),
    }
    record = {"setup_samples_s": setups, "passes": passes, "wall_samples": len(walls)}
    return metrics, record


def traced(runner: Runner) -> tuple[dict, dict]:
    base = runner.run_pass(0, trace=False)
    tr = runner.run_pass(1, trace=True)
    for b, t in zip(base["calls"], tr["calls"]):
        if b["hashes"] != t["hashes"]:
            t["problems"].append("traced outputs differ from untraced outputs")
    metrics = dict(tr["layers"])
    metrics["trace.overhead_s"] = tr["wall_s"] - base["wall_s"]
    passes = [base, tr]
    calls = [c for p in passes for c in p["calls"]]
    metrics["failed_ratio"] = sum(map(call_failed, calls)) / len(calls)
    return metrics, {"passes": passes}


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "platform": platform.platform(), "blas_env": {v: str(BLAS_THREADS) for v in BLAS_VARS}}
    if hasattr(os, "sched_getaffinity"):
        info["usable_cpus"] = len(os.sched_getaffinity(0))
    for lib in ("numpy", "scipy"):
        try:
            info[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            info[lib] = None
    for path, key, field in (("/proc/cpuinfo", "cpu", "model name"),
                             ("/proc/meminfo", "memory", "MemTotal")):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(field):
                    info[key] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            info[key] = None
    try:
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                        capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        info["commit"] = None
    # identifies the code where the checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run the benchmark once; returns the result line's object and the record."""
    start = time.monotonic()
    runner = Runner(workload, seed, start + RUN_LIMIT_S)
    try:
        metrics, record = traced(runner) if trace else untraced(runner, seconds)
        cfg_sizes = sizes(runner.cfg)
    finally:
        runner.close()
    units = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    calls = [c for p in record["passes"] for c in p["calls"]]
    failed = sum(map(call_failed, calls))
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record.update({"workload": workload.name, "why": workload.why, "seed": seed,
                   "held_out_seed": seed == HELD_OUT_SEED, "trace": trace,
                   "seconds": seconds, "sizes": cfg_sizes, "calls": list(workload.calls),
                   "machine": machine(), "run_s": time.monotonic() - start, "result": result})
    return {"result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "parobs" / "cli.py", ROOT / "scenarios" / workload.scenario]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: not a parobs checkout, missing {missing}\n")
        return 2
    try:
        out = run(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    records = ROOT / ".bench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(out["record"], indent=1))
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps(out["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
