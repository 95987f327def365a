"""The three LAPACK routines the package calls: ``dgtsv``, ``dpotrf``, ``dpotrs``.

They come from scipy's compiled f2py wrapper ``scipy/linalg/_flapack``,
loaded straight from its file under its own name, ``scipy.linalg._flapack``.
That skips the package init of ``scipy`` and ``scipy.linalg`` (a clone of
numpy's namespace, ``numpy.f2py``, ``numpy.testing``: about 0.4 s and 20 MB
per process).  The routines are the very objects ``scipy.linalg.lapack``
exports, and a later ``import scipy.linalg`` reuses this module, so results
are bit-identical either way.  If the direct load fails, the public
``scipy.linalg.lapack`` serves instead.

``cho_factor_lower`` and ``cho_solve_lower`` call ``dpotrf`` and ``dpotrs``
as ``scipy.linalg.cho_factor(a, lower=True)`` and ``cho_solve`` do, with
their finiteness checks, errors and messages, but without their per-call
batch wrapper.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.linalg._flapack"


def _load():
    """scipy's ``_flapack`` extension, loaded from its file without scipy's
    package init, or the public ``scipy.linalg.lapack`` if that fails."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")  # imports nothing
    folders = getattr(spec, "submodule_search_locations", None) or ()
    paths = [os.path.join(folder, "linalg", "_flapack" + suffix) for folder in folders
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in filter(os.path.isfile, paths):
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NAME, path, loader=loader))
            loader.exec_module(module)
        except ImportError:
            break
        sys.modules[_NAME] = module
        return module
    from scipy.linalg import lapack
    return lapack


_flapack = _load()
dgtsv = _flapack.dgtsv
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs


def cho_factor_lower(a: np.ndarray) -> np.ndarray:
    """The factor of ``scipy.linalg.cho_factor(a, lower=True)``: L in the lower
    triangle, the upper triangle of ``a`` left above it."""
    c, info = dpotrf(np.asarray_chkfinite(a), lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         'on entry to "POTRF".')
    return c


def cho_solve_lower(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((c, True), b)`` for a factor from ``cho_factor_lower``."""
    x, info = dpotrs(np.asarray_chkfinite(c), np.asarray_chkfinite(b), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x
