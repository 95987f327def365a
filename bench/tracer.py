"""Span tracer for the parobs modules, installed from outside the package.

``Tracer.install`` wraps every public function defined in the seven parobs
modules and rebinds every ``parobs`` module attribute that refers to one of
them, because ``cli``, ``verify``, ``stochastic`` and ``solver`` import most of
their callees with ``from ... import``.  Each wrapped call records a span
(name, start, end, parent) in memory; ``summary`` turns the spans into the
per-layer metrics once the pass is over.

Function metrics named ``<layer>.<what>_s`` are inclusive span times of the
named functions.  ``<layer>.self_s`` is the layer's self time: its spans minus
the part covered by their child spans.  The layer self times plus
``trace.other_s`` (wall time covered by no span) add up to the traced wall
time.

Counts come from span counts or from what the wrapped calls return.  The
less obvious ones:

* ``grid.kernel_distinct_ratio``: distinct (nx, nt, t_index, scheme, mode)
  over ``transition_kernel`` calls; ``grid.kernel_bytes`` is computed as
  calls x (nx + 2)^2 x 8.
* ``solver.cells_per_s``: nx x nt summed over PSOR and penalized solves,
  over their inclusive time.
* ``stochastic.rng_draw_ratio``: normals used over normals drawn, each block
  of ``BLOCK_SIZE`` paths drawing in full; ``stochastic.ensemble_bytes`` is
  the largest ensemble's ``X`` plus ``dW``.
* ``stochastic.lsmc_fits``: two regressions per date after the first, per
  LSMC call; ``stochastic.lsmc_distinct_ratio`` is distinct (ensemble,
  basis degree) over LSMC calls, an ensemble being identified by its seed,
  start, step and path count.
* ``cli.rows_written`` and ``cli.bytes_written``: data rows and bytes of the
  files ``write_csv`` wrote, counted after the pass.

Ratios and maxima over no calls read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from pathlib import Path

LAYERS = ("scenarios", "problem", "grid", "solver", "stochastic", "verify", "cli")
CHECKS = ("representation-u", "representation-z", "measure-identity", "interval-measure",
          "skorokhod", "ac-measure", "weighted-bounds", "minimality")
COMMANDS = ("solve", "study", "verify")

# metric -> functions whose inclusive span time it sums
TIMES = {
    "scenarios.load_s": ("scenarios.load_scenario",),
    "problem.validate_s": ("problem.validate_hypotheses",),
    "grid.kernel_s": ("grid.transition_kernel",),
    "grid.density_s": ("grid.solve_density",),
    "grid.assemble_s": ("grid.assemble_operator",),
    "grid.step_solve_s": ("grid.solve_backward_step",),
    "grid.interp_s": ("grid.interp_space_time",),
    "solver.psor_s": ("solver.solve_psor",),
    "solver.penalized_s": ("solver.solve_penalized",),
    "stochastic.simulate_s": ("stochastic.simulate_paths",),
    "stochastic.lsmc_s": ("stochastic.rbsde_reflected_mc", "stochastic.rbsde_penalized_mc"),
    "stochastic.chain_dp_s": ("stochastic.rbsde_chain_dp",),
    "cli.write_s": ("cli.write_csv",),
}
TIMES.update({f"verify.{c}_s": ("verify.check_" + c.replace("-", "_"),) for c in CHECKS})
TIMES.update({f"cli.{c}_s": ("cli.cmd_" + c,) for c in COMMANDS})

# metric -> functions whose call count it reports
CALLS = {
    "problem.validate_calls": ("problem.validate_hypotheses",),
    "grid.kernel_calls": ("grid.transition_kernel",),
    "grid.assemble_calls": ("grid.assemble_operator",),
    "grid.step_solve_calls": ("grid.solve_backward_step",),
    "solver.psor_calls": ("solver.solve_psor",),
    "solver.penalized_calls": ("solver.solve_penalized",),
    "stochastic.lsmc_calls": ("stochastic.rbsde_reflected_mc", "stochastic.rbsde_penalized_mc"),
    "stochastic.chain_dp_calls": ("stochastic.rbsde_chain_dp",),
}

# per-layer metric name -> unit, in the order the benchmark reports them
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in TIMES},
    **{name: "count" for name in CALLS},
    "grid.kernel_distinct_ratio": "1",
    "grid.kernel_bytes": "bytes",
    "grid.kernel_clamp_max": "1",
    "grid.interp_points": "count",
    "solver.psor_sweeps": "count",
    "solver.psor_refines": "count",
    "solver.penalized_inner_iters": "count",
    "solver.picard_iters": "count",
    "solver.picard_ratio_max": "1",
    "solver.cells_per_s": "1/s",
    "stochastic.path_steps": "count",
    "stochastic.rng_draw_ratio": "1",
    "stochastic.ensemble_bytes": "bytes",
    "stochastic.lsmc_fits": "count",
    "stochastic.lsmc_distinct_ratio": "1",
    **{f"verify.{c}.budget_use": "1" for c in CHECKS},
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "trace.other_s": "s",
}


def _bound_args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _probes():
    """Functions whose arguments or results feed a count, keyed by span name.

    Each probe runs after its span has ended and returns a small record kept
    with the span; it must not hold on to large arrays.
    """
    import numpy as np

    def kernel(a, r):
        g = a["grid"]
        return {"key": (g.nx, g.nt, int(a["t_index"]), a["scheme"], a["mode"]),
                "bytes": (g.nx + 2) ** 2 * 8, "clamp": float(r.clamp_magnitude)}

    def interp(a, r):
        return {"points": int(np.broadcast(np.asarray(a["t"]), np.asarray(a["x"])).size)}

    def psor(a, r):
        d = r.diagnostics
        return {"sweeps": int(np.sum(d["sweep_counts"])), "refines": int(np.sum(d["refine_counts"])),
                "cells": a["grid"].nx * a["grid"].nt}

    def penalized(a, r):
        return {"inner": int(np.sum(r.inner_iteration_counts)),
                "cells": a["grid"].nx * a["grid"].nt}

    def picard(a, r):
        trace = r[1]
        return {"iters": len(trace.distances),
                "ratio_max": max((float(x) for x in trace.ratios), default=0.0)}

    def simulate(a, r):
        # every block of BLOCK_SIZE paths draws its full set of normals
        block = sys.modules["parobs.stochastic"].BLOCK_SIZE
        drawn = r.n_steps * block * -(-r.path_count // block)
        nbytes = r.X.nbytes + (r.dW.nbytes if r.dW is not None else 0)
        return {"used": r.n_steps * r.path_count, "drawn": drawn, "bytes": nbytes}

    def lsmc(a, r):
        e = a["ensemble"]
        return {"key": (e.seed, e.s, e.x_start, e.dt_path, e.path_count, int(a["basis_degree"])),
                "fits": 2 * max(e.n_steps - 1, 0)}

    def check(a, r):
        return {"use": float(r.discrepancy) / float(r.budget) if r.budget else float("inf")}

    def write(a, r):
        return {"path": str(a["path"])}

    out = {
        "grid.transition_kernel": kernel,
        "grid.interp_space_time": interp,
        "solver.solve_psor": psor,
        "solver.solve_penalized": penalized,
        "solver.picard_outer": picard,
        "stochastic.simulate_paths": simulate,
        "stochastic.rbsde_reflected_mc": lsmc,
        "stochastic.rbsde_penalized_mc": lsmc,
        "cli.write_csv": write,
    }
    out.update({"verify.check_" + c.replace("-", "_"): check for c in CHECKS})
    return out


class Tracer:
    """Wraps the parobs modules' public functions and keeps their spans."""

    def __init__(self):
        # span: [name, start, end, parent index, probe record]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict = {}   # original function -> wrapper
        self._patched: list = []    # (module, attribute, original)

    def install(self) -> None:
        import parobs  # noqa: F401  (loads every submodule the package imports)

        probes = _probes()
        traced = set()
        for layer in LAYERS:
            mod = importlib.import_module(f"parobs.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._wrappers[obj] = self._wrap(name, obj, probes.get(name))
                traced.add(name)
        missing = sorted((set(probes) | {n for names in TIMES.values() for n in names}) - traced)
        if missing:
            raise RuntimeError(f"traced functions not found in parobs: {missing}")
        for mod in self._parobs_modules():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patched.append((mod, attr, obj))
        left = self.unwrapped()
        if left:
            raise RuntimeError(f"unwrapped originals left after patching: {left}")

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def unwrapped(self) -> list[str]:
        """Module attributes that still refer to an original traced function."""
        return [f"{mod.__name__}.{attr}" for mod in self._parobs_modules()
                for attr, obj in vars(mod).items()
                if isinstance(obj, types.FunctionType) and obj in self._wrappers]

    @staticmethod
    def _parobs_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "parobs" or n.startswith("parobs."))]

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        bind = _bound_args(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(bind(args, kwargs), result)
            return result
        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics {name: value} from the spans of one pass of ``wall_s``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        incl: dict[str, float] = {}
        count: dict[str, int] = {}
        selft = {layer: 0.0 for layer in LAYERS}
        records: dict[str, list] = {}
        for i, (name, start, end, parent, rec) in enumerate(spans):
            count[name] = count.get(name, 0) + 1
            selft[name.split(".", 1)[0]] += (end - start) - child[i]
            if rec is not None:
                records.setdefault(name, []).append(rec)
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] = incl.get(name, 0.0) + (end - start)

        m = {f"{layer}.self_s": selft[layer] for layer in LAYERS}
        for metric, names in TIMES.items():
            m[metric] = sum(incl.get(n, 0.0) for n in names)
        for metric, names in CALLS.items():
            m[metric] = sum(count.get(n, 0) for n in names)

        kern = records.get("grid.transition_kernel", [])
        m["grid.kernel_distinct_ratio"] = len({r["key"] for r in kern}) / len(kern) if kern else 0.0
        m["grid.kernel_bytes"] = sum(r["bytes"] for r in kern)
        m["grid.kernel_clamp_max"] = max((r["clamp"] for r in kern), default=0.0)
        m["grid.interp_points"] = sum(r["points"] for r in records.get("grid.interp_space_time", []))

        psor = records.get("solver.solve_psor", [])
        pen = records.get("solver.solve_penalized", [])
        m["solver.psor_sweeps"] = sum(r["sweeps"] for r in psor)
        m["solver.psor_refines"] = sum(r["refines"] for r in psor)
        m["solver.penalized_inner_iters"] = sum(r["inner"] for r in pen)
        pic = records.get("solver.picard_outer", [])
        m["solver.picard_iters"] = sum(r["iters"] for r in pic)
        m["solver.picard_ratio_max"] = max((r["ratio_max"] for r in pic), default=0.0)
        solve_s = m["solver.psor_s"] + m["solver.penalized_s"]
        cells = sum(r["cells"] for r in psor + pen)
        m["solver.cells_per_s"] = cells / solve_s if solve_s > 0 else 0.0

        sim = records.get("stochastic.simulate_paths", [])
        m["stochastic.path_steps"] = sum(r["used"] for r in sim)
        drawn = sum(r["drawn"] for r in sim)
        m["stochastic.rng_draw_ratio"] = m["stochastic.path_steps"] / drawn if drawn else 0.0
        m["stochastic.ensemble_bytes"] = max((r["bytes"] for r in sim), default=0)
        lsmc = records.get("stochastic.rbsde_reflected_mc", []) + \
            records.get("stochastic.rbsde_penalized_mc", [])
        m["stochastic.lsmc_fits"] = sum(r["fits"] for r in lsmc)
        m["stochastic.lsmc_distinct_ratio"] = len({r["key"] for r in lsmc}) / len(lsmc) if lsmc else 0.0

        for c in CHECKS:
            recs = records.get("verify.check_" + c.replace("-", "_"), [])
            m[f"verify.{c}.budget_use"] = max((r["use"] for r in recs), default=0.0)

        paths = [r["path"] for r in records.get("cli.write_csv", [])]
        rows = nbytes = 0
        for p in paths:
            data = Path(p).read_bytes()
            nbytes += len(data)
            rows += max(data.count(b"\n") - 2, 0)  # provenance and header lines
        m["cli.rows_written"] = rows
        m["cli.bytes_written"] = nbytes
        m["trace.other_s"] = wall_s - covered
        return m
