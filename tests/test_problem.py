import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parobs.errors import EvaluatorFailure
from parobs.problem import (
    Coefficients,
    Driver,
    ObstacleData,
    ObstacleProblemSpec,
    Weight,
    _scrambled_halton,
    lipschitz_probe,
    validate_hypotheses,
)

from conftest import scenario_path
from oracles import brute_force_lipschitz, scipy_halton


def _zeros(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _spec(a=None, a_x=None, lam=1.0, big=1.0, f=None, L=0.0, M=0.0, g=None,
          h=None, phi=None, h_growth=(2.0, 0.0), T=1.0):
    a = a or (lambda t, x: np.ones_like(np.asarray(x, dtype=float)))
    f = f or (lambda t, x, y, z: np.zeros_like(np.asarray(y, dtype=float)))
    h = h or (lambda t, x: _zeros(t, x))
    phi = phi or (lambda x: np.ones_like(np.asarray(x, dtype=float)))
    return ObstacleProblemSpec(
        coefficients=Coefficients(a=a, a_x=a_x or _zeros, lambda_ell=lam, Lambda_ell=big),
        driver=Driver(f=f, L=L, M_growth=M, g=g or _zeros),
        obstacle=ObstacleData(h=h, phi=phi, h_growth=h_growth),
        T=T, weight=Weight(1.0), x_lo=-8.0, x_hi=8.0,
    )


def test_constant_data_passes_with_zero_violations():
    report = validate_hypotheses(_spec(), probe_count=200, seed=3)
    assert report.passed
    assert all(e.max_violation == 0.0 for e in report.entries)


def test_sine_coefficient_within_declared_bounds():
    spec = _spec(a=lambda t, x: 1.0 + 0.5 * np.sin(np.asarray(x, float)) * np.exp(-t),
                 lam=0.5, big=1.5)
    assert validate_hypotheses(spec, probe_count=400, seed=1).passed


def test_terminal_below_obstacle_fails_with_witness():
    spec = _spec(phi=lambda x: np.zeros_like(np.asarray(x, float)),
                 h=lambda t, x: np.ones_like(np.asarray(x, float)))
    report = validate_hypotheses(spec, probe_count=64, seed=0)
    assert not report.passed
    entry = {e.name: e for e in report.entries}["terminal-dominates-obstacle"]
    assert not entry.passed
    assert entry.witness[0] == pytest.approx(spec.T)


def test_undeclared_ellipticity_fails():
    spec = _spec(a=lambda t, x: 2.0 * np.ones_like(np.asarray(x, float)), lam=1.0, big=1.5)
    report = validate_hypotheses(spec)
    assert not {e.name: e for e in report.entries}["ellipticity"].passed


def test_evaluator_failure_on_nonfinite():
    spec = _spec(a=lambda t, x: np.full_like(np.asarray(x, float), np.nan))
    with pytest.raises(EvaluatorFailure):
        validate_hypotheses(spec)


def test_scalar_evaluator_failure_names_no_empty_index():
    spec = _spec(a=lambda t, x: np.full_like(np.asarray(x, float), np.nan))
    with pytest.raises(EvaluatorFailure) as info:
        validate_hypotheses(spec)
    assert "index" not in str(info.value)
    assert str(info.value).startswith("a is non-finite at probe (")


@pytest.mark.parametrize("scalar", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
def test_scalar_nan_from_h_names_its_probe(scalar):
    """The scalar fast path of the finiteness check still names the probe."""
    calls = []

    def h(t, x):
        if np.ndim(x):
            return np.zeros_like(np.asarray(x, float))
        calls.append((t, x))
        return scalar(np.nan if len(calls) == 5 else 0.0)

    with pytest.raises(EvaluatorFailure) as info:
        validate_hypotheses(_spec(h=h))
    assert str(info.value) == f"h is non-finite at probe {calls[4]}"


def test_validation_is_deterministic():
    spec = _spec(f=lambda t, x, y, z: -0.05 * np.asarray(y, float), L=0.05, M=0.05)
    r1 = validate_hypotheses(spec, probe_count=128, seed=9)
    r2 = validate_hypotheses(spec, probe_count=128, seed=9)
    assert [(e.name, e.max_violation, e.witness) for e in r1.entries] == \
           [(e.name, e.max_violation, e.witness) for e in r2.entries]


def test_lipschitz_probe_linear_driver():
    drv = Driver(f=lambda t, x, y, z: -0.05 * np.asarray(y, float), L=0.05, M_growth=0.05,
                 g=_zeros)
    assert lipschitz_probe(drv, 64, seed=2) == pytest.approx(0.05, rel=1e-12)


def test_lipschitz_probe_zero_driver():
    drv = Driver(f=lambda t, x, y, z: np.zeros_like(np.asarray(y, float)), L=0.0,
                 M_growth=0.0, g=_zeros)
    assert lipschitz_probe(drv, 64, seed=2) == 0.0


def test_lipschitz_probe_mixed_driver_matches_brute_force():
    r, kappa = 0.05, 0.1
    f = lambda t, x, y, z: -r * np.asarray(y, float) + kappa * np.asarray(z, float)
    drv = Driver(f=f, L=max(r, kappa), M_growth=max(r, kappa), g=_zeros)
    est = lipschitz_probe(drv, 128, seed=5)
    grid = np.linspace(-3, 3, 13)
    exact = brute_force_lipschitz(f, 0.3, 0.7, grid, grid)
    assert exact == pytest.approx(max(r, kappa), rel=1e-9)
    assert 0.1 <= est <= 0.15
    assert est <= exact * (1 + 1e-9)


def test_weight_properties():
    w = Weight(alpha=1.0)
    x = np.linspace(0, 10, 50)
    rho = w.rho(x)
    assert rho[0] == 1.0
    assert np.all(np.diff(rho) <= 0)
    assert np.all(w.rho(np.array([-3.0])) == w.rho(np.array([3.0])))
    assert np.all(Weight(alpha=0.0).rho(x) == 1.0)
    with pytest.raises(ValueError):
        Weight(alpha=-1.0)


def test_every_shipped_scenario_passes(all_scenarios):
    for name, sc in all_scenarios.items():
        report = validate_hypotheses(sc.spec, probe_count=256, seed=0)
        assert report.passed, f"{name}: {[e.name for e in report.entries if not e.passed]}"


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_spec_rejects_nonfinite_horizon(T):
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(_spec(), T=T)


def test_spec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        _spec(T=-1.0)
    good = _spec()
    with pytest.raises(ValueError):
        ObstacleProblemSpec(coefficients=good.coefficients, driver=good.driver,
                            obstacle=good.obstacle, T=1.0, x_lo=2.0, x_hi=-2.0)


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 12345])
@pytest.mark.parametrize("n", [1, 2, 255, 256, 1000])
def test_scrambled_halton_matches_scipy(seed, n):
    assert np.array_equal(_scrambled_halton(n, seed), scipy_halton(n, seed))


def test_import_does_not_load_scipy_stats():
    import parobs

    # a fresh interpreter, importing the same parobs the tests import
    src = str(Path(parobs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, parobs, parobs.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cli_runs_without_scipy_package_init(tmp_path):
    """A solve and a regression-backed check bind LAPACK from scipy's compiled
    wrapper alone: neither ``scipy`` nor ``scipy.linalg`` is imported."""
    import parobs

    src = str(Path(parobs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cfg = str(scenario_path("constant"))
    code = (
        "import sys, parobs, parobs.cli\n"
        "for argv in (['solve', '--method', 'psor'], ['verify', '--checks', 'representation-z']):\n"
        f"    assert parobs.cli.main(['--scenario', {cfg!r}, '--out', {str(tmp_path)!r}] + argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip().splitlines()[-1] == "['scipy.linalg._flapack']"
