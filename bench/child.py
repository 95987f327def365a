"""The fresh-process side of the benchmark.

    python3 bench/child.py setup CFG...   import parobs, load, validate and grid
                                          every CFG, then print "ready"
    python3 bench/child.py pass SPEC      run one workload pass as SPEC (JSON)
                                          describes it and write its result

``src`` must be on PYTHONPATH.  A pass calls ``parobs.cli.main`` once per CLI
call, back to back, and times them; the peak RSS is read before the output
gates run, so it covers the pass and nothing else.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def setup(cfgs: list) -> int:
    import parobs

    for cfg in cfgs:
        sc = parobs.load_scenario(cfg)
        if not parobs.validate_hypotheses(sc.spec).passed:
            sys.stderr.write(f"error: {cfg} fails validate_hypotheses\n")
            return 1
        parobs.SpaceTimeGrid.build(sc.spec, int(sc.grid_params["nx"]), int(sc.grid_params["nt"]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def run_pass(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import parobs.cli as cli

    calls = []
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        c0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # counted as a failed call; the pass goes on
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        calls.append({"argv": argv, "rc": rc, "seconds": time.perf_counter() - c0})
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        layers = tracer.summary(wall)
        tracer.uninstall()

    import gates
    for call in calls:
        out = Path(call["argv"][call["argv"].index("--out") + 1])
        try:
            call["problems"] = gates.check_call(call["argv"], out, Path(spec["cfg"]))
            call["budget_use"] = gates.budget_uses(out)
        except Exception as exc:  # unreadable output fails the call, not the run
            call["problems"] = [f"gate error: {type(exc).__name__}: {exc}"]
            call["budget_use"] = {}
        call["hashes"] = gates.csv_hashes(out)
    result = {"wall_s": wall, "peak_rss_kb": peak_kb, "calls": calls, "layers": layers}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def main(argv: list) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1:])
    if len(argv) == 2 and argv[0] == "pass":
        return run_pass(argv[1])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
