"""Diffusion path simulation, reflected-BSDE schemes, and optimal stopping.

Three routes estimate the RBSDE triple (Y, Z, K):

* ``rbsde_chain_dp``: exact backward dynamic programming on the grid Markov
  chain -- the noise-free oracle.
* ``rbsde_penalized_mc``: least-squares Monte Carlo for the BSDE with the
  upward penalty n (y - h)^-, at a level n.
* ``rbsde_reflected_mc``: discretely reflected least-squares Monte Carlo, the
  same date update at n = inf, the limit of the penalized BSDEs.

Both fits are one-level calls of one backward pass with a level axis
(``_mc_backward``), which fits ``penalization_convergence_mc``'s reflected
scheme and whole penalty ladder at once.  The exhaustive stopping value is
chain-dp under the driver frozen along u.

Paths are generated from counter-based Philox streams keyed by (seed, block)
(Salmon et al., SC 2011); the block layout is a fixed module constant, and
the first paths of a larger ensemble coincide with a smaller one.  One
per-block routine steps every consumer's paths: it advances one block of
``BLOCK_SIZE`` paths through a run of dates on that block's own stream,
drawing one full row of normals per date and running the Euler step on the
block's slice.  The blocks of a stored simulation are claimed from one shared
counter by the calling thread and ``min(cores, n_blocks) - 1`` helper
threads, ``cores`` being the CPUs this process may run on, and the helpers
are joined before it returns.  A block writes only its own slices of rows the
caller owns, so every row, checkpoint and stream state is bit-identical for
any worker count and any order in which the blocks run.

A stored ensemble holds no increment row: it keeps X at checkpoint dates and,
at each of them, every block's Philox state.  A segment replayed from its
checkpoint re-draws the segment's normals from the saved states and re-runs
the Euler step, so every row is bit-identical to the forward pass
(checkpointed reversal, after Griewank and Walther's ``revolve``).  Every
pass over an ensemble (the LSMC backward fits, the forward distance pass of
``penalization_convergence_mc``, ``verify``'s forward sweeps,
``moment_ratio_probe`` and ``optimal_stopping_value``) reads
``(k, X_k, dW_k)`` from ``PathEnsemble._read``: one helper thread steps the
next rows, backward segment by segment or forward one date ahead, into a
fixed set of row slots while the pass works on the current date; see
``_read_ahead``.  A forward read steps fresh streams, so it reads a streaming
ensemble too; only the stored pass of ``simulate_paths`` steps on all cores.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ._lapack import cho_factor_lower, cho_solve_lower
from .errors import MissingDerivative, RegressionSingular
from .grid import SpaceTimeGrid, _full_row, _step_kernels, interp_space_time
from .problem import ObstacleProblemSpec
from .solver import (
    ObstacleSolution,
    boundary_values,
    frozen_driver,
    obstacle_field,
    terminal_field,
    z_field,
    _contact_tol,
    _driver_row,
    _sigma_row,
)

__all__ = [
    "PathEnsemble",
    "RbsdeEstimate",
    "LsmcEstimate",
    "MomentRatio",
    "ConvergenceTable",
    "StoppingValue",
    "simulate_paths",
    "moment_ratio_probe",
    "rbsde_chain_dp",
    "rbsde_penalized_mc",
    "rbsde_reflected_mc",
    "penalization_convergence_mc",
    "optimal_stopping_value",
]

BLOCK_SIZE = 8192  # fixed stream granularity; part of the reproducibility contract
N_BATCHES = 10
MAX_BASIS_DEGREE = 6


def _block_rng(seed: int, b: int, state: dict | None = None) -> np.random.Generator:
    """Block b's Philox stream, keyed by (seed, b), at its start or at ``state``.

    A block draws one full ``BLOCK_SIZE`` row per date, so path i sees the
    same stream for any path_count (prefix stability); the tail of the last
    block is drawn and unused.  A state is the stream's counter, key and a
    four-word buffer, 80 bytes; restored, the stream draws the same rows
    again, bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, b])))
    if state is not None:
        rng.bit_generator.state = state
    return rng


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _for_each_block(n_blocks: int, work) -> None:
    """Run ``work(b)`` for b = 0 .. n_blocks - 1 on the calling thread and
    ``min(_usable_cores(), n_blocks) - 1`` helper threads.

    Every thread claims the next block from one shared counter until none is
    left, so the caller never waits for a block that no thread has started,
    and the helpers are joined before this returns.  A block that raises does
    not stop the others; after the join, the lowest failing block's exception
    is raised.  ``work`` must write only its own block's slices and call no
    public parobs function (the bench tracer keeps one span stack).
    """
    claim, lock, errors = itertools.count(), threading.Lock(), {}

    def run():
        while True:
            with lock:
                b = next(claim)
            if b >= n_blocks:
                return
            try:
                work(b)
            except Exception as exc:  # re-raised in the caller after the join
                errors[b] = exc

    helpers = []
    try:
        for _ in range(min(_usable_cores(), n_blocks) - 1):
            helper = threading.Thread(target=run, name="parobs-block")
            helper.start()
            helpers.append(helper)
        run()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]


class _Closed(Exception):
    """Raised in a read-ahead helper whose reader has been closed."""


class _Handoff:
    """What a reader and its read-ahead helper share: ``capacity`` row
    buffers of ``m`` floats, and the batches the helper has filled.  The
    helper ``take``s a free row to write into, waiting while none is free,
    and ``put``s each batch; the reader ``get``s the batches and ``give``s
    rows back once their date has been read.  After ``close``, ``take``
    raises ``_Closed``, and a helper waiting for a row is woken to raise it."""

    def __init__(self, capacity: int, m: int):
        import queue   # here, so that a run with no ensemble pass does not load it
        self._free, self._ready = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(capacity):
            self._free.put(np.empty(m))
        self._closed = False

    def take(self) -> np.ndarray:
        row = None if self._closed else self._free.get()
        if row is None:
            raise _Closed
        return row

    def give(self, *rows) -> None:
        """Return the slot rows among ``rows``: the writable ones (checkpoint
        rows are read-only and stay with the ensemble)."""
        for row in rows:
            if row is not None and row.flags.writeable:
                self._free.put(row)

    def put(self, batch) -> None:
        self._ready.put(batch)

    def get(self):
        return self._ready.get()

    def close(self) -> None:
        self._closed = True
        self._free.put(None)


def _read_ahead(batches, handoff: _Handoff):
    """Yield the batches of the generator ``batches``, which one helper thread
    runs ahead of the reader, writing only into rows it takes from
    ``handoff``.

    On one usable core no helper starts and ``batches`` runs inline.  An
    exception raised in the helper is raised here, as itself.  However the
    reader ends (exhausted, raising or closed), ``handoff`` is closed, which
    wakes a helper waiting for a row, and the helper is joined.  The helper
    must call no public parobs function (the bench tracer keeps one span
    stack).
    """
    if _usable_cores() == 1:
        yield from batches
        return
    done = object()

    def run():
        outcome = done
        try:
            for batch in batches:
                handoff.put(batch)
        except Exception as exc:  # raised in the reader; _Closed goes unread
            outcome = exc
        finally:
            handoff.put(outcome)

    helper = threading.Thread(target=run, name="parobs-reader")
    helper.start()
    try:
        while (batch := handoff.get()) is not done:
            if isinstance(batch, Exception):
                raise batch
            yield batch
    finally:
        handoff.close()
        helper.join()


def _read_only(row: np.ndarray) -> np.ndarray:
    view = row.view()
    view.flags.writeable = False
    return view


def _euler_step(coef, t: float, xk: np.ndarray, dt: float, dw: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One Euler-Maruyama step of dX = (a_x / 2) dt + sqrt(a) dW on a row of paths."""
    drift = 0.5 * np.asarray(coef.a_x(t, xk), dtype=float)
    sig = np.sqrt(np.asarray(coef.a(t, xk), dtype=float))
    return np.add(xk + drift * dt, sig * dw, out=out)


class _Checkpoints:
    """The X rows an ensemble holds: X at every ``stride``-th date and X_T,
    read-only.  ``nbytes`` counts them.  There is no date indexing: rows are
    read through ``PathEnsemble._read``, so a stale ``ensemble.X[k]`` raises
    instead of reading a checkpoint row."""

    __slots__ = ("stride", "rows")

    def __init__(self, stride: int, rows: np.ndarray):
        rows.flags.writeable = False
        self.stride = stride
        self.rows = rows

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes


class _StreamStates:
    """What an ensemble holds in place of its increments: ``states[j]`` is
    every block's stream state at checkpoint j, its arrays read-only.
    ``nbytes`` counts those arrays.  There is no date indexing: increments
    are re-drawn and read through ``PathEnsemble._read``, so a stale
    ``ensemble.dW[k]`` raises."""

    __slots__ = ("states",)

    def __init__(self, states: list):
        self.states = tuple(states)
        for a in self._arrays():
            a.flags.writeable = False

    def _arrays(self):
        for state in self.states:
            for block_state in state:
                yield from block_state["state"].values()   # counter and key
                yield block_state["buffer"]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())


@dataclass(eq=False)
class PathEnsemble:
    """Euler-Maruyama paths from (s, x_start), held as X checkpoints and the
    stream states that re-draw their increments.

    A stored ensemble (``store_dw=True``) holds ``X`` at every
    ``X.stride``-th date and at T, and in ``dW`` every block's Philox state
    at each of those dates; it holds no increment row.  A replayed segment
    comes from its checkpoint: each block's stream re-draws the segment's
    normals, ``sqrt(dt_path) * z`` forms its increments and the same Euler
    step its X rows, so every row is bit-identical to the one the forward
    pass computed.

    A streaming ensemble (``store_dw=False``) holds no rows and no states.
    Every pass reads ``_read(backward)``, which yields ``(k, X_k, dW_k)``
    for every date, backward (replaying segment j - 1 while the pass reads
    segment j; stored ensembles only) or forward (stepping fresh streams one
    date ahead, either kind), from one helper thread; the rows are read-only
    views into the reader's slots, valid until the next row is read.  Both
    directions and the stored pass run the blocks through ``_step_block``;
    the bytes do not depend on the worker count.
    """
    spec: ObstacleProblemSpec = field(repr=False)
    s: float
    x_start: float
    dt_path: float
    path_count: int
    seed: int
    t_nodes: np.ndarray          # n_steps + 1 times from s to T
    X: _Checkpoints = field(repr=False)
    dW: _StreamStates | None = field(repr=False)   # None when streaming

    @property
    def n_steps(self) -> int:
        return len(self.t_nodes) - 1

    def _read(self, backward: bool):
        """Yield ``(k, X_k, dW_k)`` for k = n_steps down to 0 when ``backward``,
        else for k = 0 up to n_steps; ``dW_{n_steps}`` is None.

        One helper thread (``_read_ahead``) steps the rows into slot rows
        that the reader has given back.  Backward, it replays segment j - 1
        date by date from its checkpoint while the reader reads segment j:
        one segment's ``2 X.stride - 1`` X and dW rows plus one spare row, so
        the reader does not wait at a segment boundary.  Forward, it steps
        fresh streams one date ahead in five rows, and reads a streaming
        ensemble too.  The rows yielded are read-only, and a slot row is
        valid until the next date is read.  Close the reader
        (``contextlib.closing``) so that its helper is joined however the
        pass ends.
        """
        if backward and self.dW is None:
            raise ValueError("a streaming ensemble (store_dw=False) has no checkpoints "
                             "to read backward from")
        n = self.n_steps
        handoff = _Handoff(2 * self.X.stride if backward else 5, self.path_count)
        batches = self._replayed(handoff.take) if backward else self._stepped(handoff.take)
        with closing(_read_ahead(batches, handoff)) as ahead:
            for batch in ahead:
                for k, xk, dw in (reversed(batch) if backward else batch):
                    yield k, _read_only(xk), None if k == n else _read_only(dw)
                    handoff.give(xk, dw)

    def _replayed(self, take):
        """Batches for a backward read: first [(n_steps, X_T, None)], then per
        segment, last to first, its dates' (k, X_k, dW_k) in date order,
        replayed from the checkpoint into rows from ``take``."""
        n, stride = self.n_steps, self.X.stride
        yield [(n, self.X.rows[-1], None)]
        for j in range(len(self.dW.states) - 1, -1, -1):
            rngs = [_block_rng(self.seed, b, state)
                    for b, state in enumerate(self.dW.states[j])]
            stop = min((j + 1) * stride, n)
            batch, xk = [], self.X.rows[j]
            for k in range(j * stride, stop):
                dw, x_next = take(), (take() if k + 1 < stop else None)
                self._step_date(rngs, k, xk, dw, x_next)
                batch.append((k, xk, dw))
                xk = x_next
            yield batch

    def _stepped(self, take):
        """Batches for a forward read: [(k, X_k, dW_k)] for each date, then
        [(n_steps, X_T, None)], stepped from fresh streams into rows from
        ``take``."""
        rngs = [_block_rng(self.seed, b) for b in range(self._n_blocks)]
        xk = take()
        xk.fill(self.x_start)
        for k in range(self.n_steps):
            dw, x_next = take(), take()
            self._step_date(rngs, k, xk, dw, x_next)
            yield [(k, xk, dw)]
            xk = x_next
        yield [(self.n_steps, xk, None)]

    def _step_date(self, rngs: list, k: int, xk: np.ndarray, dw: np.ndarray,
                   x_next: np.ndarray | None) -> None:
        """Date k on every block in turn (``_step_block``): dW_k into ``dw``
        and, unless ``x_next`` is None, X_{k+1} into ``x_next``."""
        for b, rng in enumerate(rngs):
            self._step_block(b, rng, k, k + 1, xk, dw=dw, x_next=x_next)

    @property
    def _n_blocks(self) -> int:
        return -(-self.path_count // BLOCK_SIZE)

    def _step_block(self, b: int, rng: np.random.Generator, k0: int, k1: int, x0,
                    dw: np.ndarray | None = None, x_next: np.ndarray | None = None,
                    marks: np.ndarray | None = None, states: list | None = None) -> None:
        """Advance block b's paths from X_{k0} through dates [k0, k1).

        Per date the block's stream ``rng`` draws one full ``BLOCK_SIZE`` row,
        ``sqrt(dt_path) * z`` forms the block's increments and ``_euler_step``
        its next X.  ``x0`` is X_{k0}, a full row or the scalar start.  Only
        block b's slices of the caller's rows are written: with ``dw`` (one
        date, k1 = k0 + 1) the increment to ``dw`` and, unless ``x_next`` is
        None, X_{k1} to ``x_next``; with ``marks``, X at every
        ``X.stride``-th date and X_{k1} to ``marks``, and the stream's state
        at each such date to ``states[k // stride][b]``.
        """
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, self.path_count)
        coef, dt, sdt = self.spec.coefficients, self.dt_path, np.sqrt(self.dt_path)
        stride = self.X.stride
        z = np.empty(BLOCK_SIZE)
        xk = x0[lo:hi] if np.ndim(x0) else np.full(hi - lo, x0)
        for k in range(k0, k1):
            if marks is not None and k % stride == 0:
                marks[k // stride, lo:hi] = xk
                states[k // stride][b] = rng.bit_generator.state
            rng.standard_normal(out=z)
            dw_k = z[:hi - lo] if dw is None else dw[lo:hi]
            np.multiply(sdt, z[:hi - lo], out=dw_k)
            if dw is None:
                xk = _euler_step(coef, float(self.t_nodes[k]), xk, dt, dw_k)
            elif x_next is not None:
                _euler_step(coef, float(self.t_nodes[k]), xk, dt, dw_k, out=x_next[lo:hi])
        if marks is not None:
            marks[-1, lo:hi] = xk


def simulate_paths(spec: ObstacleProblemSpec, s: float, x: float, dt_path: float,
                   path_count: int, seed: int, store_dw: bool = True) -> PathEnsemble:
    """Euler-Maruyama paths of dX = (a_x / 2) dt + sqrt(a) dW started at (s, x).

    The drift a_x / 2 is the Ito form of the divergence-form generator for
    continuously differentiable coefficients; ``a_x`` must be supplied.  With
    ``store_dw`` the paths are simulated here and kept replayable: X
    checkpoints plus the stream states that re-draw the increments between
    them, stepped on all cores (``_for_each_block``).  Without it nothing is
    simulated until the ensemble is read forward (``PathEnsemble._read``).
    """
    coef = spec.coefficients
    if coef.a_x is None:
        raise MissingDerivative("path simulation needs the coefficient derivative a_x")
    horizon = spec.T - s
    if dt_path <= 0 or dt_path > horizon + 1e-15:
        raise ValueError("need 0 < dt_path <= T - s")
    n_steps = int(round(horizon / dt_path))
    if abs(n_steps * dt_path - horizon) > 1e-9 * max(1.0, spec.T):
        raise ValueError("dt_path must divide T - s")
    t_nodes = s + dt_path * np.arange(n_steps + 1)
    # a replayed segment holds two rows per date (X and dW), so ceil(sqrt(n/2))
    # dates between checkpoints balances the checkpoint rows against them
    stride = math.isqrt(max(n_steps - 1, 0) // 2) + 1
    ens = PathEnsemble(spec=spec, s=s, x_start=float(x), dt_path=dt_path,
                       path_count=path_count, seed=seed, t_nodes=t_nodes,
                       X=_Checkpoints(stride, np.empty((0, path_count))), dW=None)
    if not store_dw:
        return ens
    marks = np.empty((len(range(0, n_steps, stride)) + 1, path_count))
    states = [[None] * ens._n_blocks for _ in range(len(marks) - 1)]
    rngs = [_block_rng(seed, b) for b in range(ens._n_blocks)]
    _for_each_block(len(rngs), lambda b: ens._step_block(b, rngs[b], 0, n_steps, ens.x_start,
                                                         marks=marks, states=states))
    states = [tuple(state) for state in states]
    ens.X, ens.dW = _Checkpoints(stride, marks), _StreamStates(states)
    return ens


@dataclass
class MomentRatio:
    p: float
    ratio: float
    ci: float
    sup_moment: float
    terminal_moment: float


def _batch_slices(m: int):
    edges = np.linspace(0, m, N_BATCHES + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def moment_ratio_probe(ensemble: PathEnsemble, p_exponent: float) -> MomentRatio:
    """Ratio of the p-th moment of the running sup to the terminal p-th moment.

    Defined for finite p >= 4 only (the range the estimate is proved for);
    ``p_exponent`` has no default, the ``moments`` command's ``--p`` being
    its one source.  The ratio is NaN when the terminal moment is zero.  The
    CI is 1.96 times the spread of the ratio over ten contiguous path
    batches.
    """
    if not (np.isfinite(p_exponent) and p_exponent >= 4):
        raise ValueError(f"p_exponent must be a finite number >= 4, got {p_exponent}")
    sup = None
    with closing(ensemble._read(backward=False)) as rows:
        for _, xk, _ in rows:   # the running sup is folded date by date
            if sup is None:
                sup = np.abs(xk)
            else:
                np.maximum(sup, np.abs(xk), out=sup)
        with np.errstate(over="ignore"):  # an overflowing moment stays inf for the CSV writer to refuse
            sup_p, term_p = sup**p_exponent, np.abs(xk) ** p_exponent
    num, den = float(sup_p.mean()), float(term_p.mean())
    ratios = []
    for sl in _batch_slices(ensemble.path_count):
        d = float(term_p[sl].mean())
        if d > 0:
            ratios.append(float(sup_p[sl].mean()) / d)
    ci = 1.96 * float(np.std(ratios, ddof=1)) / np.sqrt(len(ratios)) if len(ratios) > 1 else 0.0
    ratio = num / den if den > 0 else float("nan")
    return MomentRatio(p=p_exponent, ratio=ratio, ci=ci, sup_moment=num, terminal_moment=den)


# ---------------------------------------------------------------------------
# RBSDE schemes

@dataclass
class RbsdeEstimate:
    """The chain-dp field on the grid: one row of Y and of dK per time slice,
    from the start slice to T."""
    Y: np.ndarray
    dK: np.ndarray


def rbsde_chain_dp(spec: ObstacleProblemSpec, grid: SpaceTimeGrid, s_index: int) -> RbsdeEstimate:
    """Reflected backward dynamic programming on the grid chain, with the
    explicit step Y = max(h, c), c = cont + dt f(t, x, cont, z), z = sigma
    D cont; a driver with L = 0 is given z = 0, and no sigma row is formed.

    Conditional expectations are exact kernel applications, so the estimate
    carries no regression noise and no confidence interval.
    """
    if not 0 <= s_index < grid.nt:
        raise ValueError("s_index out of range")
    clamp = spec.boundary_mode == "clamp-to-data"
    h_field = obstacle_field(spec, grid)
    bnd = boundary_values(spec, grid, h_field) if clamp else None
    dt = grid.dt
    n_slices = grid.nt - s_index + 1

    Y = np.empty((n_slices, grid.nx + 2))
    dK = np.zeros_like(Y)
    Y[-1] = terminal_field(spec, grid)

    for k, t, kern in _step_kernels(spec, grid, s_index):
        j = k - s_index
        cont = kern.apply(Y[j + 1])
        sigma = _sigma_row(spec, grid, t) if spec.driver.L > 0.0 else None
        c = cont + dt * _driver_row(spec, grid, t, cont, sigma)
        Y[j] = np.maximum(h_field[k], c)
        dK[j] = np.maximum(h_field[k] - c, 0.0)
        if clamp:
            Y[j, 0], Y[j, -1] = bnd[k]
            dK[j, 0] = dK[j, -1] = 0.0
    return RbsdeEstimate(Y=Y, dK=dK)


def _basis(x: np.ndarray, degree: int) -> np.ndarray:
    """Probabilists' Hermite rows He_0 .. He_degree of the standardized x, (degree + 1, m).

    Built by He_{k+1} = z He_k - k He_{k-1}; the rows span the same space as
    the monomials 1, x, .., x^degree, and for a near-Gaussian cloud their Gram
    matrix is close to diag(0!, 1!, .., degree!) times the sample size.
    """
    B = np.empty((degree + 1, x.size))
    B[0] = 1.0
    if degree >= 1:
        mean, spread = float(x.mean()), float(x.std())
        if spread <= 1e-12 * (1.0 + abs(mean)):
            raise RegressionSingular(
                f"sample spread {spread:.3g} too small for a degree-{degree} basis")
        B[1] = (x - mean) / spread
        for k in range(1, degree):
            np.multiply(B[1], B[k], out=B[k + 1])
            B[k + 1] -= k * B[k - 1]
    return B


class _Projection:
    """Least-squares projection onto the Hermite basis of one regression date.

    The Gram matrix G = B B^T is rank-tested and Cholesky-factored once; every
    ``coef`` at that date reuses the factor.
    """

    def __init__(self, x: np.ndarray, degree: int):
        self.B = _basis(x, degree)
        gram = self.B @ self.B.T
        eig = np.linalg.eigvalsh(gram)
        if eig[0] <= 1e-12 * eig[-1]:
            raise RegressionSingular(
                f"Gram eigenvalue ratio {eig[0] / eig[-1]:.3g} <= 1e-12; "
                "basis too rich for the sample")
        self._factor = cho_factor_lower(gram)

    def coef(self, target: np.ndarray) -> np.ndarray:
        """Basis coefficients of the least-squares regression of ``target``."""
        return cho_solve_lower(self._factor, self.B @ target)


class _StartProjection:
    """The start date's projection: all paths coincide, so there is no basis
    and the fit is the sample mean, carried as coefficient 0."""

    B = None

    def __init__(self, degree: int):
        self.size = degree + 1

    def coef(self, target: np.ndarray) -> np.ndarray:
        c = np.zeros(self.size)
        c[0] = target.mean()
        return c


def _obstacle_row(ensemble: PathEnsemble, k: int, xk: np.ndarray) -> np.ndarray:
    """h(t_k, X_k), one entry per path: one evaluation per date serves every level."""
    return _full_row(ensemble.spec.obstacle.h(float(ensemble.t_nodes[k]), xk),
                     (ensemble.path_count,))


def _fitted(c: np.ndarray, B: np.ndarray | None, m: int) -> np.ndarray:
    """Fitted values c @ B of basis coefficients; with no basis (the start date,
    where all paths coincide) the fit is the constant c[0]."""
    return np.full(m, c[0]) if B is None else c @ B


@dataclass(eq=False)
class LsmcEstimate:
    """A least-squares Monte Carlo estimate of the RBSDE triple (Y, Z, K),
    stored as its per-date regression coefficients.

    ``n_penalty`` is the level n: the BSDE penalized by n (y - h)^-, or the
    discretely reflected one at n = inf; every level runs one date update.

    ``coef[k]`` holds the continuation and Z coefficients on the Hermite
    basis of X_k, shaped (n, 2, basis_degree + 1); date 0 holds the two
    sample means in column 0.  A pass over the ensemble's reader rebuilds
    each date's basis from its row X_k: ``_evaluate`` re-runs the date's
    value update, bit-identical to the backward pass, and ``_z`` gives Z_k
    alone, so Y, Z and dK are evaluated one date at a time and no (n, m)
    field is ever held.  ``K_T`` is the per-path terminal K, summed in
    backward date order.  The ensemble carries the spec and the dates.
    """
    n_penalty: float
    Y0: float
    ci: float
    coef: np.ndarray = field(repr=False)
    K_T: np.ndarray = field(repr=False)
    ensemble: PathEnsemble = field(repr=False)
    basis_degree: int

    def _z(self, k: int, xk: np.ndarray) -> np.ndarray:
        """Z_k from the row X_k."""
        return _fitted(self.coef[k, 1], self._basis_at(k, xk), self.ensemble.path_count)

    def _basis_at(self, k: int, xk: np.ndarray) -> np.ndarray | None:
        return None if k == 0 else _basis(xk, self.basis_degree)

    def _evaluate(self, k: int, xk: np.ndarray, B: np.ndarray | None, h_k: np.ndarray,
                  cont: np.ndarray | None = None):
        """The date-k update from ``coef[k]`` on the row X_k, its obstacle
        row ``h_k`` (``_obstacle_row``): fitted continuation and Z, the
        per-path explicit value step (``_resolve``) and the K increment.
        ``cont``, when given, is the fitted continuation the caller has
        already formed.

        Returns (y, c, z, dK): fitted value, pre-reflection value, Z and K
        increment, one entry per path.  dK = y - c at every level, from the
        date's own backward equation Y = C + dK.
        """
        m = self.ensemble.path_count
        t = float(self.ensemble.t_nodes[k])
        if cont is None:
            cont = _fitted(self.coef[k, 0], B, m)
        zk = _fitted(self.coef[k, 1], B, m)
        y, c = self._resolve(t, xk, cont, zk, h_k)
        return y, c, zk, y - c

    def _toward(self, a: np.ndarray, h: np.ndarray) -> np.ndarray:
        """(a + w h) / (1 + w) with w = dt n: a moved toward the obstacle h
        by the implicit penalty step; h itself at n = inf (reflection)."""
        w = self.ensemble.dt_path * self.n_penalty
        return h if math.isinf(w) else (a + w * h) / (1.0 + w)

    def _resolve(self, t, xk, cont, zk, h_k):
        """Per-path explicit value step; returns (fitted y, pre-reflection c).

        One driver call, at the continuation: c = cont + dt f(t, x, cont, z)
        (Bouchard and Touzi 2004; Gobet, Lemor and Warin 2005), within order
        L dt^2 of the step implicit in y.  y = max((c + w h) / (1 + w), c)
        solves y = c + dt n (y - h)^- exactly, so it is stable for all n.
        """
        c = cont + self.ensemble.dt_path * np.asarray(
            self.ensemble.spec.driver.f(t, xk, cont, zk), dtype=float)
        return np.maximum(self._toward(c, h_k), c), c

    def _fit_date(self, k: int, xk: np.ndarray, dw: np.ndarray, proj, h_k: np.ndarray,
                  V: np.ndarray) -> np.ndarray:
        """Backward date k on the date's projection ``proj`` and obstacle
        row ``h_k``: fit ``coef[k]`` to the realized value V of date k + 1,
        add dK to ``K_T``, set ``Y0`` and ``ci`` at k = 0, and return the
        realized value of date k."""
        m, dt = self.ensemble.path_count, self.ensemble.dt_path
        t = float(self.ensemble.t_nodes[k])
        self.coef[k, 0] = proj.coef(V)
        # centering the Z target with the fitted continuation changes nothing
        # in expectation (E[C(X) dW] = 0) and removes the O(1/dt) variance
        # carried by the level of V
        cont = _fitted(self.coef[k, 0], proj.B, m)
        self.coef[k, 1] = proj.coef((V - cont) * dw / dt)
        y_fit, c_fit, zk, dk = self._evaluate(k, xk, proj.B, h_k, cont)
        del cont
        if k == 0:
            batch_y0 = []
            for sl in _batch_slices(m):
                cont_b = np.full(sl.stop - sl.start, V[sl].mean())
                zk_b = np.full(sl.stop - sl.start, ((V[sl] - V[sl].mean()) * dw[sl] / dt).mean())
                yb, _ = self._resolve(t, xk[sl], cont_b, zk_b, h_k[sl])
                batch_y0.append(float(yb.mean()))
            self.Y0 = float(y_fit.mean())
            self.ci = 1.96 * float(np.std(batch_y0, ddof=1)) / np.sqrt(len(batch_y0))
        vstar = V + dt * np.asarray(self.ensemble.spec.driver.f(t, xk, y_fit, zk), dtype=float)
        self.K_T += dk
        # the value step's penalty map applied to the realized value on the
        # fitted active set, so accumulated regression noise is damped toward
        # h instead of compounding through the stiff penalty
        return np.where(h_k >= c_fit, self._toward(vstar, h_k), vstar)


def _mc_backward(ensemble: PathEnsemble, basis_degree: int, levels: tuple) -> list:
    """One ``LsmcEstimate`` per penalty level of ``levels`` (each >= 1; inf:
    reflected) from one LSMC backward pass, for the problem the ensemble was
    simulated under.  Per date the levels share one reader row, one obstacle
    row, one Hermite basis and one Gram factor (``_Projection``); each keeps
    its own V, coefficients, value step and K (``LsmcEstimate._fit_date``),
    so each is bit for bit its one-level fit.

    The regression target is the realized per-path value V, not the fitted
    field: exercising (or penalizing against) the realized rollforward keeps
    the well-known upward bias of fitted-value iteration from compounding
    over many reflection dates.  At the start date all paths coincide, so
    the regression degenerates to the plain mean there.
    """
    bad = [level for level in levels if not level >= 1]   # NaN too
    if bad:
        raise ValueError(f"n_penalty must be >= 1, got {bad[0]}")
    if ensemble.dW is None:
        raise ValueError("regression schemes need a stored ensemble (store_dw=True)")
    if not 0 <= basis_degree <= MAX_BASIS_DEGREE:
        raise ValueError(f"basis degree must lie in 0..{MAX_BASIS_DEGREE}")
    if ensemble.path_count < 1000:
        raise ValueError("regression schemes need at least 1000 paths")
    n, m = ensemble.n_steps, ensemble.path_count
    ests = [LsmcEstimate(n_penalty=float(level), Y0=float("nan"), ci=float("nan"),
                         coef=np.zeros((n, 2, basis_degree + 1)), K_T=np.zeros(m),
                         ensemble=ensemble, basis_degree=basis_degree) for level in levels]

    with closing(ensemble._read(backward=True)) as rows:
        _, x_n, _ = next(rows)
        V = [np.asarray(ensemble.spec.obstacle.phi(x_n), dtype=float)] * len(ests)
        for k, xk, dw in rows:
            proj = _Projection(xk, basis_degree) if k > 0 else _StartProjection(basis_degree)
            h_k = _obstacle_row(ensemble, k, xk)
            for j, est in enumerate(ests):
                V[j] = est._fit_date(k, xk, dw, proj, h_k, V[j])
    return ests


def rbsde_penalized_mc(ensemble: PathEnsemble, n_penalty: int, basis_degree: int) -> LsmcEstimate:
    """Least-squares Monte Carlo for the BSDE with driver f + n (y - h)^-.

    The driver is evaluated at the continuation (the explicit value step),
    the stiff penalty by its exact scalar implicit step, and K grows by
    Y - C per date, which is n (Y - h)^- dt.  The level must be at least 1.
    """
    return _mc_backward(ensemble, basis_degree, (n_penalty,))[0]


def rbsde_reflected_mc(ensemble: PathEnsemble, basis_degree: int) -> LsmcEstimate:
    """Discretely reflected LSMC, the level n = inf: Y = max(h, C + dt f(t, X,
    C, Z)), C the continuation; K grows by the deficit where the obstacle binds."""
    return _mc_backward(ensemble, basis_degree, (math.inf,))[0]


@dataclass
class ConvergenceTable:
    n_schedule: list
    y_distance: np.ndarray
    k_distance: np.ndarray
    y_ci: np.ndarray
    k_ci: np.ndarray


def penalization_convergence_mc(ensemble: PathEnsemble, n_schedule,
                                basis_degree: int) -> ConvergenceTable:
    """Sup-in-time estimator distances between the penalized and reflected
    schemes under common random numbers, per penalty level.

    Every level must be at least 1, checked before any work.  One backward
    pass (``_mc_backward``) fits the reflected scheme and every level, and
    the RMS distances are streamed forward date by date through the
    estimates' date updates, with K accumulated in forward date order; each
    pass builds each date's basis and obstacle row once for all levels.  Y
    carries no terminal row: it is phi(X_T) in both schemes, a distance of 0.
    """
    ref, *pens = _mc_backward(ensemble, basis_degree, (math.inf, *map(int, n_schedule)))
    m, n_steps = ensemble.path_count, ensemble.n_steps
    slices = [slice(None)] + _batch_slices(m)

    def rms(d):
        """RMS of d over the whole ensemble (entry 0) and over each batch."""
        return [float(np.sqrt(np.mean(d[sl] * d[sl]))) for sl in slices]

    # RMS distance per (level, date, slice); the terminal Y row stays 0
    y_rms = np.zeros((len(pens), n_steps + 1, len(slices)))
    k_rms = np.zeros_like(y_rms)
    ref_K = np.zeros(m)
    pen_K = [np.zeros(m) for _ in pens]
    with closing(ensemble._read(backward=False)) as rows:
        for k, xk, _ in itertools.islice(rows, n_steps):
            B, h_k = ref._basis_at(k, xk), _obstacle_row(ensemble, k, xk)
            ref_y, _, _, ref_dk = ref._evaluate(k, xk, B, h_k)
            for j, pen in enumerate(pens):
                pen_y, _, _, pen_dk = pen._evaluate(k, xk, B, h_k)
                y_rms[j, k] = rms(pen_y - ref_y)
                k_rms[j, k] = rms(pen_K[j] - ref_K)
                pen_K[j] += pen_dk
            ref_K += ref_dk
    for j in range(len(pens)):
        k_rms[j, n_steps] = rms(pen_K[j] - ref_K)

    y_sup, k_sup = y_rms.max(axis=1), k_rms.max(axis=1)   # (level, slice)

    def ci(batches):
        return 1.96 * np.std(batches, axis=1, ddof=1) / np.sqrt(batches.shape[1])

    return ConvergenceTable(n_schedule=[int(n) for n in n_schedule],
                            y_distance=y_sup[:, 0], k_distance=k_sup[:, 0],
                            y_ci=ci(y_sup[:, 1:]), k_ci=ci(k_sup[:, 1:]))


# ---------------------------------------------------------------------------
# optimal stopping

@dataclass
class StoppingValue:
    rule_value: float
    rule_ci: float
    snell_value: float
    gap: float


def optimal_stopping_value(grid: SpaceTimeGrid, sol: ObstacleSolution,
                           ensemble: PathEnsemble) -> StoppingValue:
    """Value of the first-contact stopping rule versus the exhaustive chain
    value, both from the ensemble's start (s, x) under its problem.

    The rule stops at the first time u(t, X_t) touches the obstacle (within
    the contact tolerance); its value is estimated along the ensemble, with
    the running reward read from the solved field.  The exhaustive value is
    ``rbsde_chain_dp`` of the driver frozen along that field (``frozen_driver``).
    """
    spec, s, x = ensemble.spec, ensemble.s, ensemble.x_start
    h_field = obstacle_field(spec, grid)
    ctol = _contact_tol(spec, h_field)
    gap_field = sol.u_values - h_field
    z_grid = z_field(spec, grid, sol.u_values)

    n, m = ensemble.n_steps, ensemble.path_count
    dt = ensemble.dt_path
    reward = np.zeros(m)
    alive = np.ones(m, dtype=bool)
    with closing(ensemble._read(backward=False)) as rows:
        for k, xk, _ in rows:
            if k == n or not alive.any():
                break
            t = float(ensemble.t_nodes[k])
            g = interp_space_time(grid, gap_field, t, xk[alive])
            idx = np.flatnonzero(alive)
            stop_now = g <= ctol
            stopping = idx[stop_now]
            if stopping.size:
                reward[stopping] += np.asarray(spec.obstacle.h(t, xk[stopping]), dtype=float)
                alive[stopping] = False
            running = idx[~stop_now]
            if running.size:
                u_itp = interp_space_time(grid, sol.u_values, t, xk[running])
                z_itp = interp_space_time(grid, z_grid, t, xk[running])
                fval = np.asarray(spec.driver.f(t, xk[running], u_itp, z_itp), dtype=float)
                reward[running] += np.broadcast_to(fval, running.shape) * dt
        if alive.any():
            reward[alive] += np.asarray(spec.obstacle.phi(xk[alive]), dtype=float)  # xk is X_T

    rule_value = float(reward.mean())
    with np.errstate(over="ignore"):  # an overflowing spread stays inf for the CSV writer to refuse
        rule_ci = 1.96 * float(reward.std(ddof=1)) / np.sqrt(m) if m > 1 else 0.0
    s_index = int(np.clip(round(s / grid.dt), 0, grid.nt - 1))
    x_index = int(np.clip(round((x - grid.x_nodes[0]) / grid.dx), 0, grid.nx + 1))
    frozen = frozen_driver(spec, grid, sol.u_values)
    snell = float(rbsde_chain_dp(frozen, grid, s_index).Y[0, x_index])
    return StoppingValue(rule_value=rule_value, rule_ci=rule_ci, snell_value=snell,
                         gap=abs(rule_value - snell))
