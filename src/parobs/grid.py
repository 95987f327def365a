"""Space-time grid, flux-form operator, the one-step kernel, densities.

The operator is assembled in finite-volume (flux) form at cell midpoints,

    (A u)_i = (1 / (2 dx^2)) [ a_{i+1/2} (u_{i+1} - u_i) - a_{i-1/2} (u_i - u_{i-1}) ],

which preserves the divergence structure exactly: interior row sums are zero
and discrete summation by parts holds to machine precision.  The grid carries
nx interior nodes plus the two truncation-boundary nodes.

``transition_kernel`` holds the banded step matrix M = I - dt A with the
boundary rows of its mode.  It is the step of every time loop: the solvers'
backward steps (``solve_backward_step`` with a penalty diagonal per level of
a penalty ladder, or the complementarity step on its bands), the chain
recursions (``apply``)
and the forward laws (``evolve_law``, by ``apply_T``).  Every banded solve
in the package goes through ``_tridiagonal_solve``, which calls LAPACK
``dgtsv`` directly: the routine ``scipy.linalg.solve_banded`` ends in for
(1, 1) bands, without the wrapper's per-call cost.  A penalty ladder's
levels take one call, as one block-diagonal system.  ``dgtsv`` is bound by
``parobs._lapack`` from scipy's compiled wrapper without importing
``scipy.linalg``; ``LinAlgError`` is numpy's class, which scipy re-exports.
``MASS_TOL`` is a density's allowed mass loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgtsv
from .errors import CflViolation
from .problem import ObstacleProblemSpec

__all__ = [
    "SpaceTimeGrid",
    "DiscreteOperator",
    "TransitionKernel",
    "DensityTable",
    "InterpStencil",
    "assemble_operator",
    "transition_kernel",
    "solve_backward_step",
    "evolve_law",
    "solve_density",
    "interp_stencil",
    "interp_space_time",
]

MASS_TOL = 1e-3

@dataclass(frozen=True)
class SpaceTimeGrid:
    nx: int
    nt: int
    dx: float
    dt: float
    x_nodes: np.ndarray  # nx + 2 positions, boundary included
    t_nodes: np.ndarray  # nt + 1 times, t_0 = 0, t_nt = T

    @classmethod
    def build(cls, spec: ObstacleProblemSpec, nx: int, nt: int) -> "SpaceTimeGrid":
        if nx < 1 or nt < 1:
            raise ValueError("nx and nt must be positive")
        dx, dt = (spec.x_hi - spec.x_lo) / (nx + 1), spec.T / nt
        # dx * dx, where a float's dx**2 raises OverflowError; past dt Lambda /
        # dx^2 = 1 / eps the identity in the step matrix I - dt A rounds away
        if not (0.0 < dx * dx < np.inf and 0.0 < dt < np.inf
                and dt * spec.coefficients.Lambda_ell * np.finfo(float).eps <= dx * dx):
            raise ValueError(f"grid steps out of range: dx = {dx:.3g}, dt = {dt:.3g}; "
                             "need finite dx^2 > 0 and dt Lambda / dx^2 <= 1 / eps")
        x_nodes = np.linspace(spec.x_lo, spec.x_hi, nx + 2)
        t_nodes = np.linspace(0.0, spec.T, nt + 1)
        return cls(nx=nx, nt=nt, dx=dx, dt=dt, x_nodes=x_nodes, t_nodes=t_nodes)

    def nearest_node(self, t: float, x: float) -> tuple[int, int]:
        """The (time, space) indices of the node nearest (t, x): a slice a
        backward pass can start from (0 .. nt - 1) and an interior node
        (1 .. nx), never a boundary node, whose value the boundary mode sets."""
        return (int(np.clip(round(t / self.dt), 0, self.nt - 1)),
                int(np.clip(round((x - self.x_nodes[0]) / self.dx), 1, self.nx)))


@dataclass(frozen=True)
class DiscreteOperator:
    """Tridiagonal action of the flux-form operator on one time slice.

    ``lower``, ``diag``, ``upper`` are the coefficients of rows 1..nx (the
    interior nodes); ``lower[i]`` multiplies the left neighbour of interior
    node i, which for i = 0 is the boundary node.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray


def _full_row(values, shape) -> np.ndarray:
    """``values`` as a float array of ``shape``, copied only to convert or broadcast."""
    row = np.asarray(values, dtype=float)
    return row if row.shape == shape else np.broadcast_to(row, shape).astype(float)


def assemble_operator(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t_index: int) -> DiscreteOperator:
    if not 0 <= t_index <= grid.nt:
        raise ValueError(f"t_index {t_index} out of range")
    t = float(grid.t_nodes[t_index])
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])  # nx + 1 midpoints
    a_mid = _full_row(spec.coefficients.a(t, mid), mid.shape)
    scale = 1.0 / (2.0 * grid.dx**2)
    lower = a_mid[:-1] * scale
    upper = a_mid[1:] * scale
    return DiscreteOperator(lower=lower, diag=-(lower + upper), upper=upper)


def _banded_backward_matrix(op: DiscreteOperator, dt: float, mode: str = "clamp-to-data"):
    """Banded form of the full (nx+2) system (I - dt A); dt < 0 gives I + |dt| A.

    clamp-to-data: boundary rows are identity (Dirichlet).  reflecting:
    boundary rows keep only the inner face flux (zero flux through the
    truncation), which preserves constants and conserves mass.
    """
    n = op.diag.size + 2
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 1.0 - dt * op.diag
    ab[0, 2:] = -dt * op.upper   # superdiagonal M[j-1, j] for interior rows
    ab[2, :n - 2] = -dt * op.lower  # subdiagonal M[j+1, j] for interior rows
    if mode == "clamp-to-data":
        ab[1, 0] = ab[1, -1] = 1.0
    elif mode == "reflecting":
        ab[1, 0] = 1.0 + dt * op.lower[0]
        ab[0, 1] = -dt * op.lower[0]
        ab[1, -1] = 1.0 + dt * op.upper[-1]
        ab[2, -2] = -dt * op.upper[-1]
    else:
        raise ValueError(f"unknown boundary mode {mode!r}")
    return ab


def _tridiagonal_solve(ab: np.ndarray, b: np.ndarray, diag: np.ndarray | None = None) -> np.ndarray:
    """Solve the (1, 1)-banded system ``ab`` (solve_banded storage) for b.

    ``diag``, when given, replaces the main diagonal ``ab[1]``.  One LAPACK
    ``dgtsv`` call, the routine ``solve_banded((1, 1), ab, b)`` ends in, so
    the result is the same to the bit; b may be 1-D or (n, k).  A ladder of
    L systems that share the off-diagonals passes ``diag`` and b as (L, n),
    and row l of the result solves with diag[l] and b[l]: the one call solves
    the block-diagonal system of all L n unknowns, with zero couplings.
    ``dgtsv`` exchanges no rows across a zero subdiagonal entry, and the
    couplings only add zeros, so each block is its lone solve (a zero entry
    may change sign).  Kept from ``solve_banded``: ``ValueError`` for NaN or
    inf anywhere in ab, diag or b, ``LinAlgError`` for a singular system or
    ladder level, and no input is overwritten.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()
            and (diag is None or np.isfinite(diag).all())):
        raise ValueError("array must not contain infs or NaNs")
    if diag is None or diag.ndim == 1:
        dl, d, du, rhs = ab[2, :-1], ab[1] if diag is None else diag, ab[0, 1:], b
    else:
        off = np.zeros((2,) + diag.shape)   # each level's sub- and superdiagonal, then a zero
        off[0, :, :-1], off[1, :, :-1] = ab[2, :-1], ab[0, 1:]
        (dl, du), d, rhs = off.reshape(2, -1)[:, :-1], diag.ravel(), b.ravel()
    x, info = dgtsv(dl, d, du, rhs)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x.reshape(b.shape)


def _banded_transpose(ab: np.ndarray) -> np.ndarray:
    """Transpose a (1, 1)-banded matrix in solve_banded storage."""
    out = np.zeros_like(ab)
    out[1] = ab[1]
    out[0, 1:] = ab[2, :-1]
    out[2, :-1] = ab[0, 1:]
    return out


def _banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a (1, 1)-banded matrix in solve_banded storage with v along axis 0."""
    v = np.asarray(v, dtype=float)
    shape = (-1,) + (1,) * (v.ndim - 1)
    out = ab[1].reshape(shape) * v
    out[:-1] += ab[0, 1:].reshape(shape) * v[1:]
    out[1:] += ab[2, :-1].reshape(shape) * v[:-1]
    return out


@dataclass(frozen=True)
class TransitionKernel:
    """One-step Markov law of the grid chain over dt (row-stochastic), held banded.

    ``bands`` are the three diagonals in solve_banded layout: of M = I - dt A
    for the implicit scheme (P = M^{-1}), of P = I + dt A itself for the
    explicit one, with the boundary rows of ``mode``: identity rows under
    clamp-to-data, zero-flux rows under reflecting.  The implicit kernel's
    M is also the solvers' backward step; ``apply`` solves M u = b.  P is never
    formed; ``apply`` and ``apply_T`` take one banded solve
    (``_tridiagonal_solve``, LAPACK ``dgtsv`` called directly) or one
    tridiagonal product, on a vector or on the columns of an (nx + 2, k)
    array.  ``clamp_magnitude`` reads 0.0 because nothing is clipped: no
    dense P exists whose round-off negatives could be.
    """

    scheme: str
    mode: str
    bands: np.ndarray
    clamp_magnitude = 0.0

    def _act(self, ab: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.scheme == "implicit":
            return _tridiagonal_solve(ab, v)
        return _banded_matvec(ab, v)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """P v: the conditional expectation of v one step ahead."""
        return self._act(self.bands, v)

    def apply_T(self, p: np.ndarray) -> np.ndarray:
        """P^T p: the law p carried one step forward."""
        return self._act(_banded_transpose(self.bands), p)


def transition_kernel(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, t_index: int,
                      scheme: str = "implicit", mode: str | None = None) -> TransitionKernel:
    """Transition kernel for the step t_index -> t_index + 1.

    Explicit: P = I + dt A, valid under the positivity CFL dt <= dx^2 / Lambda.
    Implicit: P = (I - dt A)^{-1}, nonnegative by the M-matrix structure.
    ``mode`` defaults to the spec's boundary mode.
    """
    op = assemble_operator(spec, grid, t_index)
    mode = spec.boundary_mode if mode is None else mode
    if scheme == "explicit":
        if grid.dt > grid.dx**2 / spec.coefficients.Lambda_ell * (1.0 + 1e-12):
            raise CflViolation(
                f"explicit kernel needs dt <= dx^2/Lambda = {grid.dx**2 / spec.coefficients.Lambda_ell:.3e},"
                f" got dt = {grid.dt:.3e}")
        bands = _banded_backward_matrix(op, -grid.dt, mode)
    elif scheme == "implicit":
        bands = _banded_backward_matrix(op, grid.dt, mode)
    else:
        raise ValueError(f"unknown kernel scheme {scheme!r}")
    return TransitionKernel(scheme=scheme, mode=mode, bands=bands)


def solve_backward_step(kern: TransitionKernel, rhs_full: np.ndarray,
                        extra_diag: np.ndarray) -> np.ndarray:
    """Solve (M + diag(extra_diag)) u = rhs on the full node set, M = I - dt A
    the implicit kernel's bands; ``extra_diag`` (length nx + 2) is the
    implicit penalty term.  Without it the step is ``kern.apply(rhs)``.
    The shared bands are not copied: only the sum diagonal is new.  With
    rhs and extra_diag of shape (L, nx + 2), row l solves its own system, and
    the L systems take one ``dgtsv`` call.
    """
    if kern.scheme != "implicit":
        raise ValueError("a backward step needs the implicit kernel")
    return _tridiagonal_solve(kern.bands, rhs_full, kern.bands[1] + extra_diag)


def _step_kernels(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, s_index: int = 0,
                  backward: bool = True):
    """(k, t_k, implicit kernel of step k in the spec's boundary mode) for the
    steps k = s_index .. nt - 1, from the last down when ``backward``, else up.

    The bands depend on a(t_k, .) alone.  While ``a`` returns a scalar (the
    constant-coefficient families), a kernel is built only when that scalar
    changes, so a constant a builds one kernel per march; the steps share its
    bands read-only.  An ``a`` that returns a row builds one kernel per step.
    Every time loop over kernels takes them from here: the solvers' marcher,
    the chain recursions, ``evolve_law`` and the weighted-bounds check.
    """
    mid = 0.5 * (grid.x_nodes[:-1] + grid.x_nodes[1:])
    steps = range(grid.nt - 1, s_index - 1, -1) if backward else range(s_index, grid.nt)
    kern, scalar = None, True
    for k in steps:
        t = float(grid.t_nodes[k])
        if scalar:
            a = spec.coefficients.a(t, mid)
            scalar = np.ndim(a) == 0
        if not scalar or kern is None or a != a_kern:
            kern, a_kern = transition_kernel(spec, grid, k, mode=spec.boundary_mode), a
        yield k, t, kern


def evolve_law(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, w0: np.ndarray, s_index: int):
    """Carry the law (or any start measure) w0 at slice s_index forward by the
    implicit kernels: yields (k, w_k), w_{k+1} = P_k^T w_k, for k = s_index .. nt.

    The kernels take the spec's boundary mode: reflecting rows conserve total
    mass, clamp-to-data rows keep what reaches the boundary nodes.
    """
    w = w0
    yield s_index, w
    for k, _, kern in _step_kernels(spec, grid, s_index, backward=False):
        w = kern.apply_T(w)
        yield k + 1, w


@dataclass(frozen=True)
class DensityTable:
    """Discrete fundamental solution started from a unit point mass.

    ``values[k]`` is the probability mass per node k slices after the start;
    divide by dx for a density.  ``mass`` tracks interior mass per slice; under
    clamp-to-data what crosses the truncation stays in the boundary nodes.
    """

    values: np.ndarray  # (n_slices, nx + 2) mass per node
    mass: np.ndarray
    mass_ok: bool


def solve_density(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, s_index: int,
                  x_index: int) -> DensityTable:
    """Forward-iterate p(t_{k+1}) = P^T p(t_k) from a point mass at (s, x).

    ``mass_ok`` flags whether every interior slice keeps mass within MASS_TOL
    of one; a False value signals the truncation is too narrow for this start.
    """
    if not 0 <= s_index < grid.nt:
        raise ValueError("s_index must satisfy 0 <= s_index < nt")
    if not 0 <= x_index <= grid.nx + 1:
        raise ValueError("x_index out of range")
    values = np.empty((grid.nt - s_index + 1, grid.nx + 2))
    start = np.zeros(grid.nx + 2)
    start[x_index] = 1.0
    for k, p in evolve_law(spec, grid, start, s_index):
        values[k - s_index] = p
    mass = values[:, 1:-1].sum(axis=1)
    return DensityTable(values=values, mass=mass, mass_ok=bool(np.min(mass) >= 1.0 - MASS_TOL))


class InterpStencil(NamedTuple):
    """Time row ``k``, left node ``j`` and weight ``w`` of a space-time
    interpolation; ``gather`` evaluates any grid field on it."""
    k: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def gather(self, field: np.ndarray) -> np.ndarray:
        if self.k.ndim == 0:  # one time row: index it once, then gather in 1-D
            row = field[int(self.k)]
            return (1.0 - self.w) * row[self.j] + self.w * row[self.j + 1]
        return (1.0 - self.w) * field[self.k, self.j] + self.w * field[self.k, self.j + 1]


def interp_stencil(grid: SpaceTimeGrid, t, x) -> InterpStencil:
    """The stencil of ``interp_space_time`` at (t, x): left-constant in t,
    piecewise linear in x, queries clamped to the cylinder."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    k = np.clip(np.floor(t / grid.dt + 1e-12).astype(int), 0, grid.nt)
    xq = np.clip(x, grid.x_nodes[0], grid.x_nodes[-1])
    j = np.clip(((xq - grid.x_nodes[0]) / grid.dx).astype(int), 0, grid.nx)
    w = (xq - grid.x_nodes[j]) / grid.dx
    return InterpStencil(k, j, w)


def interp_space_time(grid: SpaceTimeGrid, field: np.ndarray, t, x) -> np.ndarray:
    """Interpolate a grid field: piecewise linear in x, left-constant in t.

    ``field`` has shape (nt + 1, nx + 2); t and x broadcast.  Queries are
    clamped to the cylinder.  Several fields at the same points share one
    ``interp_stencil``.
    """
    return interp_stencil(grid, t, x).gather(field)
