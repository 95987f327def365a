"""Scenario files: flat key/value text with dotted sections, builtin families.

Schema (all numeric values parse as floats unless noted):

    scenario.name        = <string>
    problem.family       = constant | sine-coef | american-put | custom-polynomial
    problem.T            = horizon
    problem.x_lo, problem.x_hi = truncation interval
    problem.alpha        = weight exponent (rho = (1 + x^2)^(-alpha))
    problem.*            = family parameters, see the builders below
    grid.nx, grid.nt     = reference resolution (ints)
    mc.paths, mc.seed    = ensemble size and master seed (ints)
    mc.dt_path           = path step
    mc.basis_degree      = regression basis degree (int)
    tolerances.*         = optional solver tolerance overrides, keys and defaults in
                           verify.TOLERANCE_DEFAULTS
    calibration.*        = frozen budgets (positive), keys and defaults in
                           verify.CALIBRATION_DEFAULTS

Lines starting with '#' are comments.  Unknown keys are rejected in every
section so typos cannot silently change a run, and so are non-finite numbers,
grid.nx, grid.nt, mc.paths, mc.dt_path or a tolerances.* or calibration.*
value <= 0, a negative mc.seed and an mc.basis_degree outside 0..6;
american-put rejects problem.sigma <= 0 and a sigma whose square overflows,
and sine-coef a problem.bump_width <= 0 or one so narrow that
(x / bump_width)^2 overflows on the truncation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .problem import Coefficients, Driver, ObstacleData, ObstacleProblemSpec, Weight
from .stochastic import MAX_BASIS_DEGREE
from .verify import CALIBRATION_DEFAULTS, TOLERANCE_DEFAULTS

__all__ = ["Scenario", "load_scenario", "build_family", "FAMILIES"]

_SECTIONS = ("scenario", "problem", "grid", "mc", "tolerances", "calibration")
_KEYS = {  # the numeric sections' keys; build_family checks problem.*
    "grid": ("nx", "nt"),
    "mc": ("paths", "seed", "dt_path", "basis_degree"),
    "tolerances": tuple(TOLERANCE_DEFAULTS),
    "calibration": tuple(CALIBRATION_DEFAULTS),
}
_INT_KEYS = {"grid.nx", "grid.nt", "mc.paths", "mc.seed", "mc.basis_degree",
             "tolerances.max_inner"}
_POSITIVE_KEYS = {"grid.nx", "grid.nt", "mc.paths", "mc.dt_path", "tolerances.lcp_tol",
                  "tolerances.inner_tol", "tolerances.max_inner",
                  *(f"calibration.{key}" for key in CALIBRATION_DEFAULTS)}
_RANGES = {"mc.seed": (0, np.inf), "mc.basis_degree": (0, MAX_BASIS_DEGREE)}  # bounds included


@dataclass
class Scenario:
    name: str
    spec: ObstacleProblemSpec
    grid_params: dict
    mc_params: dict
    tolerances: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    family: str = ""
    content_hash: str = ""
    path: str = ""


def _parse_kv(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        section = key.split(".", 1)[0]
        if section not in _SECTIONS:
            raise ScenarioError(f"line {lineno}: unknown section {section!r}")
        if key in out:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_number(key: str, text: str):
    """An int for integer keys, a finite float otherwise; positive or within
    its range where required."""
    try:
        value = int(text) if key in _INT_KEYS else float(text)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: {exc}") from exc
    if not np.isfinite(value):
        raise ScenarioError(f"key {key!r}: value {text!r} is not finite")
    if key in _POSITIVE_KEYS and not value > 0:
        raise ScenarioError(f"key {key!r}: value {text!r} must be positive")
    lo, hi = _RANGES.get(key, (-np.inf, np.inf))
    if not lo <= value <= hi:
        raise ScenarioError(f"key {key!r}: value {text!r} outside [{lo}, {hi}]")
    return value


def _pop_float(kv: dict, key: str, default=None) -> float:
    if key not in kv:
        if default is None:
            raise ScenarioError(f"missing required key {key!r}")
        return float(default)
    return _parse_number(key, kv.pop(key))


def _zeros(v) -> np.ndarray:
    return np.zeros_like(np.asarray(v, dtype=float))


def _constant_a(a0: float) -> Coefficients:
    """a(t, x) = a0, a scalar, so that one implicit kernel serves a whole march."""
    return Coefficients(a=lambda t, x: a0, a_x=lambda t, x: 0.0, lambda_ell=a0, Lambda_ell=a0)


def _zero_driver() -> Driver:
    return Driver(f=lambda t, x, y, z: _zeros(y), L=0.0, M_growth=0.0, g=lambda t, x: _zeros(x))


def build_family(family: str, params: dict) -> ObstacleProblemSpec:
    """Construct the problem spec for one builtin family.

    ``params`` is consumed; leftovers raise, so every parameter is spelled
    correctly or not at all.
    """
    T = _pop_float(params, "problem.T")
    x_lo = _pop_float(params, "problem.x_lo")
    x_hi = _pop_float(params, "problem.x_hi")
    alpha = _pop_float(params, "problem.alpha", 1.0)
    boundary = params.pop("problem.boundary", "clamp-to-data")
    weight = Weight(alpha=alpha)

    if family == "constant":
        c = _pop_float(params, "problem.value", 1.0)
        coef = _constant_a(_pop_float(params, "problem.a0", 1.0))
        driver = _zero_driver()
        obstacle = ObstacleData(h=lambda t, x: np.full_like(np.asarray(x, dtype=float), c),
                                phi=lambda x: np.full_like(np.asarray(x, dtype=float), c),
                                h_growth=(abs(c) + 1.0, 0.0))
    elif family == "sine-coef":
        a0 = _pop_float(params, "problem.a0", 1.0)
        amp = _pop_float(params, "problem.amp", 0.5)
        if not 0 <= amp < a0:
            raise ScenarioError("sine-coef needs 0 <= amp < a0 for ellipticity")
        bump_height = _pop_float(params, "problem.bump_height", 1.0)
        bump_width = _pop_float(params, "problem.bump_width", 1.0)
        # phi squares x / bump_width on the truncation
        reach = max(abs(x_lo), abs(x_hi)) / bump_width if bump_width > 0 else np.inf
        if not np.isfinite(reach * reach):
            raise ScenarioError("sine-coef needs problem.bump_width > 0 with (x / bump_width)^2 "
                                f"finite on [x_lo, x_hi], got {bump_width}")
        level = _pop_float(params, "problem.obstacle_level", -10.0)

        def a_fn(t, x):
            return a0 + amp * np.sin(np.asarray(x, dtype=float)) * np.exp(-t)

        def a_x_fn(t, x):
            return amp * np.cos(np.asarray(x, dtype=float)) * np.exp(-t)

        coef = Coefficients(a=a_fn, a_x=a_x_fn, lambda_ell=a0 - amp, Lambda_ell=a0 + amp)
        driver = _zero_driver()
        obstacle = ObstacleData(
            h=lambda t, x: np.full_like(np.asarray(x, dtype=float), level),
            phi=lambda x: bump_height * np.exp(-0.5 * (np.asarray(x, dtype=float) / bump_width) ** 2),
            h_growth=(abs(level) + 1.0, 0.0))
    elif family == "american-put":
        strike = _pop_float(params, "problem.strike", 1.0)
        rate = _pop_float(params, "problem.rate", 0.06)
        sigma = _pop_float(params, "problem.sigma", 0.2)
        # kappa divides by sigma, a negative sigma flips its sign, and a = sigma^2
        if not (sigma > 0 and np.isfinite(sigma * sigma)):
            raise ScenarioError(f"american-put needs sigma > 0 with sigma^2 finite, got {sigma}")
        kappa = (rate - 0.5 * sigma**2) / sigma  # drift carried by the z-argument
        coef = _constant_a(sigma**2)
        L = max(rate, abs(kappa))
        driver = Driver(f=lambda t, x, y, z: -rate * np.asarray(y, dtype=float) + kappa * np.asarray(z, dtype=float),
                        L=L, M_growth=L,
                        g=lambda t, x: _zeros(x))
        payoff = lambda x: np.maximum(strike - np.exp(np.asarray(x, dtype=float)), 0.0)
        obstacle = ObstacleData(h=lambda t, x: payoff(x), phi=payoff,
                                h_growth=(strike, 0.0))
    elif family == "custom-polynomial":
        c0 = _pop_float(params, "problem.c0", 1.0)
        c1 = _pop_float(params, "problem.c1", 0.0)
        c2 = _pop_float(params, "problem.c2", -1.0)
        coef = _constant_a(_pop_float(params, "problem.a0", 1.0))
        driver = _zero_driver()

        def poly(x):
            x = np.asarray(x, dtype=float)
            return c0 + c1 * x + c2 * x**2

        growth_c = abs(c0) + abs(c1) + abs(c2) + 1.0
        obstacle = ObstacleData(h=lambda t, x: poly(x), phi=poly, h_growth=(growth_c, 1.0))
    else:
        raise ScenarioError(f"unknown problem family {family!r}")

    if params:
        raise ScenarioError(f"unused problem parameters: {sorted(params)}")
    try:
        return ObstacleProblemSpec(coefficients=coef, driver=driver, obstacle=obstacle,
                                   T=T, weight=weight, x_lo=x_lo, x_hi=x_hi,
                                   boundary_mode=boundary)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


FAMILIES = ("constant", "sine-coef", "american-put", "custom-polynomial")


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    text = path.read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    kv = _parse_kv(text)

    name = kv.pop("scenario.name", path.stem)
    family = kv.pop("problem.family", None)
    if family is None:
        raise ScenarioError("missing problem.family")

    problem_params = {k: v for k, v in kv.items() if k.startswith("problem.")}
    for k in problem_params:
        kv.pop(k)
    spec = build_family(family, problem_params)

    def take(section):
        out = {}
        for k in [k for k in kv if k.startswith(section + ".")]:
            short = k.split(".", 1)[1]
            if short not in _KEYS[section]:
                raise ScenarioError(f"unknown key {k!r}; {section} takes {list(_KEYS[section])}")
            out[short] = _parse_number(k, kv.pop(k))
        return out

    grid_params = take("grid")
    mc_params = take("mc")
    tolerances = take("tolerances")
    calibration = take("calibration")
    if kv:
        raise ScenarioError(f"unused keys: {sorted(kv)}")
    lo, hi = ({**CALIBRATION_DEFAULTS, **calibration}[k] for k in ("weighted_lo", "weighted_hi"))
    if lo > hi:
        raise ScenarioError(f"calibration.weighted_lo = {lo} exceeds weighted_hi = {hi}")
    grid_params.setdefault("nx", 200)
    grid_params.setdefault("nt", 200)
    mc_params.setdefault("paths", 10_000)
    mc_params.setdefault("seed", 20260808)
    mc_params.setdefault("dt_path", spec.T / grid_params["nt"])
    mc_params.setdefault("basis_degree", 3)
    return Scenario(name=name, spec=spec, grid_params=grid_params, mc_params=mc_params,
                    tolerances=tolerances, calibration=calibration, family=family,
                    content_hash=digest, path=str(path))
