"""The LAPACK binding in ``parobs._lapack`` against scipy's public wrappers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg import lapack as public

import parobs
from parobs import _lapack
from parobs.grid import _tridiagonal_solve
from parobs.stochastic import _Projection


def _tridiagonal(rng, n):
    ab = rng.normal(size=(3, n))
    ab[1] += 4.0 * np.sign(ab[1])  # diagonally dominant, so nonsingular
    return ab


def _spd(rng, n=4):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def test_routines_are_scipys():
    assert _lapack.dgtsv is public.dgtsv
    assert _lapack.dpotrf is public.dpotrf
    assert _lapack.dpotrs is public.dpotrs


@pytest.mark.parametrize("seed", range(5))
def test_tridiagonal_solve_is_public_dgtsv(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    ab = _tridiagonal(rng, n)
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        ref = public.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3]
        assert np.array_equal(_tridiagonal_solve(ab, b), ref)


@pytest.mark.parametrize("seed", range(5))
def test_cholesky_is_cho_factor_and_cho_solve(seed):
    rng = np.random.default_rng(seed)
    a = _spd(rng)
    c, lower = cho_factor(a, lower=True)
    assert np.array_equal(_lapack.cho_factor_lower(a), c)
    for b in (rng.normal(size=4), rng.normal(size=(4, 2))):
        assert np.array_equal(_lapack.cho_solve_lower(c, b), cho_solve((c, lower), b))
    # a degree-3 projection factors a 4 x 4 Gram matrix
    x = rng.normal(size=500)
    proj = _Projection(x, 3)
    factor = cho_factor(proj.B @ proj.B.T, lower=True)
    y = np.sin(x)
    assert np.array_equal(proj.coef(y), cho_solve(factor, proj.B @ y))


def test_errors_are_scipys():
    rng = np.random.default_rng(9)
    ab = _tridiagonal(rng, 6)
    bad = ab.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _tridiagonal_solve(bad, np.ones(6))
    with pytest.raises(LinAlgError, match="^singular matrix$"):
        _tridiagonal_solve(np.zeros((3, 6)), np.ones(6))

    a = _spd(rng)
    c = _lapack.cho_factor_lower(a)
    nan = a.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.cho_factor_lower(nan)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.cho_solve_lower(c, np.array([1.0, np.nan, 0.0, 0.0]))
    indefinite = np.diag([1.0, 2.0, -1.0, 3.0])
    with pytest.raises(LinAlgError) as ref:
        cho_factor(indefinite, lower=True)
    with pytest.raises(LinAlgError) as ours:
        _lapack.cho_factor_lower(indefinite)
    assert str(ours.value) == str(ref.value)


def test_public_fallback_gives_the_same_results():
    """With the direct load made to fail in a fresh interpreter, the binding
    takes ``scipy.linalg.lapack`` and solves bit for bit as this one does."""
    rng = np.random.default_rng(4)
    ab, b, a = _tridiagonal(rng, 8), rng.normal(size=8), _spd(rng)
    inputs = {"ab": ab.tolist(), "b": b.tolist(), "a": a.tolist()}
    code = (
        "import importlib.util, json, sys\n"
        "importlib.util.find_spec = lambda *args, **kwargs: None\n"
        "import numpy as np\n"
        "from parobs import _lapack\n"
        "from parobs.grid import _tridiagonal_solve\n"
        f"inp = {{k: np.array(v) for k, v in {inputs!r}.items()}}\n"
        "c = _lapack.cho_factor_lower(inp['a'])\n"
        "out = [_tridiagonal_solve(inp['ab'], inp['b']), c, _lapack.cho_solve_lower(c, inp['b'][:4])]\n"
        "print(json.dumps({'module': _lapack._flapack.__name__,\n"
        "                  'out': [x.tobytes().hex() for x in out]}))\n")
    src = str(Path(parobs.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    got = json.loads(run.stdout)
    assert got["module"] == "scipy.linalg.lapack"
    c = _lapack.cho_factor_lower(a)
    want = [_tridiagonal_solve(ab, b), c, _lapack.cho_solve_lower(c, b[:4])]
    assert got["out"] == [x.tobytes().hex() for x in want]
