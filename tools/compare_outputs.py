"""Compare every CLI output of the working tree against a git ref.

    python tools/compare_outputs.py <git-ref>

Extracts <git-ref> with ``git archive`` into a temporary directory, then runs
76 command x scenario pairs against both trees.  55 run ``solve`` with both
methods, ``study`` penalization, picard and stability, ``verify`` with three
check lists (``all``, the benchmark's grid-side subset, and the Monte Carlo
checks out of their default order, so that ``representation-u`` runs after
the shared reflected-LSMC fit already exists and its probes 1 and 2 simulate
while that fit is held), ``simulate``, ``stop-value`` and ``moments``, each
on the five scenarios under ``scenarios/``.  21 run the seven commands that
solve on the grid on three ``VARIANTS``: shipped scenarios with
``tolerances.*`` lines appended, written into each run root, so that a route
that drops a tolerance shows.  Each tree runs with its own ``src`` on
PYTHONPATH and its own scenario files, under the same relative paths, so
error text that names a path matches too.  Any difference in the
CSVs or ``verify_report.txt`` (compared by sha256 digest and size), stdout,
stderr or exit code is reported.  Each line also shows both sides' wall
seconds, CPU seconds (user plus system, summed over the child's threads, so
CPU above wall shows helper threads at work) and peak RSS, the child's own
``ru_maxrss``, and the last line names the pairs with the largest
working-tree-over-ref peak-RSS and wall ratios; these are informational
only, and the wall seconds are those of two runs sharing the machine.
Exit status: 0 when every pair is byte-identical, 1 otherwise.

Uses the standard library only; runs two CLI processes at a time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = ("american_put", "constant", "heat_bump", "obstacle_quad", "sine_coef")
COMMANDS = {
    "solve-psor": ["solve", "--method", "psor"],
    "solve-penalized": ["solve", "--method", "penalized"],
    "study-penalization": ["study", "--study", "penalization"],
    "study-picard": ["study", "--study", "picard"],
    "study-stability": ["study", "--study", "stability"],
    "verify": ["verify", "--checks", "all"],
    "verify-grid": ["verify", "--checks",
                    "measure-identity,interval-measure,skorokhod,weighted-bounds,minimality"],
    "verify-mc": ["verify", "--checks", "ac-measure,representation-z,representation-u"],
    "simulate": ["simulate"],
    "stop-value": ["stop-value"],
    "moments": ["moments"],
}
# generated scenarios: name -> (shipped scenario, lines appended to it).  On
# the put every line moves some output, so a dropped override shows; every
# heat_bump step ends after one solve whatever max_inner is, so heat_max1
# shows a route that needs a second solve per step (exit 3) instead
VARIANTS = {
    "put_tol": ("american_put", ("tolerances.lcp_tol = 1e-4", "tolerances.inner_tol = 1e-6")),
    "put_max1": ("american_put", ("tolerances.max_inner = 1",)),
    "heat_max1": ("heat_bump", ("tolerances.max_inner = 1",)),
}
VARIANT_COMMANDS = ("solve-psor", "solve-penalized", "study-penalization", "study-picard",
                    "study-stability", "verify-grid", "stop-value")
# one thread per BLAS and OpenMP pool, so the two concurrent runs do not
# contend; both trees run under the same settings
ENV_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _digest(path: Path) -> tuple:
    """A file's sha256 digest and size.  The tool keeps no output's bytes, so
    its own size stays small: a forked child's ``ru_maxrss`` counts the pages
    it shared with this process before ``exec``."""
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest(), path.stat().st_size


def run_pair(tree: Path, run_root: Path, command: str, scenario: str) -> dict:
    """One CLI call in ``run_root``; returns its exit code, streams, output
    files' digests, wall and CPU seconds and peak RSS in MB."""
    out = Path("out") / f"{command}-{scenario}"
    cfg = f"{'variants' if scenario in VARIANTS else 'scenarios'}/{scenario}.cfg"
    argv = [sys.executable, "-m", "parobs.cli", "--scenario", cfg,
            "--out", str(out), *COMMANDS[command]]
    env = {**os.environ, **ENV_PINS, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_root, env=env, stdout=stdout, stderr=stderr)
        # reap the child here, so its own resource usage is what we read
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        streams = {"stdout": stdout.read(), "stderr": stderr.read()}
    files = {p.name: _digest(p) for p in sorted((run_root / out).glob("*"))
             if p.suffix == ".csv" or p.name == "verify_report.txt"}
    return {"exit": proc.returncode, **streams, "files": files, "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}  # Linux reports kilobytes


def differences(a: dict, b: dict) -> list:
    diffs = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) != b["files"].get(name):
            diffs.append(name)
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base = tmp / "ref"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", ref],
                                 stdout=subprocess.PIPE)
        if archive.returncode != 0:  # git has said why on stderr
            return 2
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        roots = {}
        for side, tree in (("ref", base), ("work", REPO)):
            roots[side] = tmp / f"run-{side}"
            roots[side].mkdir()
            (roots[side] / "scenarios").symlink_to(tree / "scenarios")
            (roots[side] / "variants").mkdir()
            for name, (scenario, lines) in VARIANTS.items():
                text = (tree / "scenarios" / f"{scenario}.cfg").read_text()
                (roots[side] / "variants" / f"{name}.cfg").write_text(
                    text + "".join(line + "\n" for line in lines))
        pairs = [(c, s) for c in COMMANDS for s in SCENARIOS]
        pairs += [(c, v) for v in VARIANTS for c in VARIANT_COMMANDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {(side, c, s): pool.submit(run_pair, tree, roots[side], c, s)
                       for c, s in pairs
                       for side, tree in (("ref", base), ("work", REPO))}
            results = {key: f.result() for key, f in futures.items()}
    failed = 0
    for c, s in pairs:
        ref_run, work_run = results[("ref", c, s)], results[("work", c, s)]
        diffs = differences(ref_run, work_run)
        status = "identical" if not diffs else "DIFFERS: " + ", ".join(diffs)
        print(f"{c:<20} {s:<14} exit {ref_run['exit']}/{work_run['exit']}  "
              f"wall {ref_run['wall_s']:.2f}/{work_run['wall_s']:.2f} s  "
              f"cpu {ref_run['cpu_s']:.2f}/{work_run['cpu_s']:.2f} s  "
              f"rss {ref_run['peak_rss_mb']:.0f}/{work_run['peak_rss_mb']:.0f} MB  "
              f"{len(work_run['files'])} files  {status}")
        failed += bool(diffs)
    print(f"{len(pairs) - failed} of {len(pairs)} pairs byte-identical against {ref}")

    def largest(key, fmt, unit):
        """The pair with the largest working-tree-over-ref ratio of ``key``."""
        def ratio(pair):
            return results[("work", *pair)][key] / results[("ref", *pair)][key]

        c, s = max(pairs, key=ratio)
        return (f"{c} {s}, {results[('ref', c, s)][key]:{fmt}} -> "
                f"{results[('work', c, s)][key]:{fmt}} {unit} ({ratio((c, s)):.2f}x)")

    print(f"largest peak-RSS ratio: {largest('peak_rss_mb', '.0f', 'MB')}; "
          f"largest wall ratio: {largest('wall_s', '.2f', 's')}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
