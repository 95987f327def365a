"""Block stepping on worker threads and the read-ahead readers' helper
thread: the bytes do not depend on the worker count, errors surface in the
caller, no thread outlives a call or a pass, and the bench tracer sees the
same spans with helpers as without."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import parobs.stochastic as stochastic
from parobs.cli import main
from parobs.errors import InnerDivergence
from parobs.grid import SpaceTimeGrid
from parobs.solver import solve_psor
from parobs.stochastic import (BLOCK_SIZE, moment_ratio_probe, optimal_stopping_value,
                               penalization_convergence_mc, rbsde_reflected_mc, simulate_paths)

from conftest import read_all
from oracles import stored_simulate_paths

SCENARIO_FIXTURES = ["constant_scenario", "heat_scenario", "sine_scenario", "put_scenario",
                     "quad_scenario"]
WORKERS = (1, 2, 3, 20)
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workers(monkeypatch):
    """Set the number of cores the stepper sees; returns the setter."""
    def set_workers(n):
        monkeypatch.setattr(stochastic, "_usable_cores", lambda: n)
    return set_workers


@pytest.fixture
def counted_blocks(monkeypatch):
    """The block counts of the ``_for_each_block`` calls made since the
    fixture was set up."""
    calls = []
    real = stochastic._for_each_block

    def counted(n_blocks, work):
        calls.append(n_blocks)
        real(n_blocks, work)

    monkeypatch.setattr(stochastic, "_for_each_block", counted)
    return calls


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started since the fixture was set up."""
    names = []
    real_start = threading.Thread.start

    def start(self):
        names.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def _assert_reader_rows(ens, ref, backward, label):
    rows = read_all(ens, backward)
    n = ens.n_steps
    assert [k for k, _, _ in rows] == (list(range(n, -1, -1)) if backward
                                       else list(range(n + 1))), label
    for k, x, dw in rows:
        assert np.array_equal(x, ref.X[k]), (label, backward, k)
        assert (dw is None) if k == n else np.array_equal(dw, ref.dW[k]), (label, backward, k)


@pytest.mark.parametrize("name", SCENARIO_FIXTURES)
def test_rows_do_not_depend_on_the_worker_count(name, request, workers, started):
    """Every X_k and dW_k equals the block-by-block storing simulator's for
    1, 2, 3 and 20 workers, read forward before and after the checkpoints are
    recorded and backward, and so do the checkpoints and stream states of the
    1-worker ensemble.  ``simulate_paths`` starts no thread; a reader pass
    starts one helper thread, and none on one usable core, where it steps
    inline, after the first backward read's block workers."""
    spec = request.getfixturevalue(name).spec
    x0 = 0.5 * (spec.x_lo + spec.x_hi)
    dt = spec.T / 20
    for m in (1000, BLOCK_SIZE, 3 * BLOCK_SIZE + 123):
        ref = stored_simulate_paths(spec, 0.0, x0, dt, m, seed=31)
        first = None
        for w in WORKERS:
            workers(w)
            started.clear()
            ens = simulate_paths(spec, 0.0, x0, dt, m, seed=31)
            assert started == [], (m, w)
            blocks = ["parobs-block"] * (min(w, -(-m // BLOCK_SIZE)) - 1)
            reader = [] if w == 1 else ["parobs-reader"]
            for backward, threads in ((False, reader), (True, blocks + reader),
                                      (True, reader), (False, reader)):
                started.clear()
                _assert_reader_rows(ens, ref, backward, (m, w))
                assert started == threads, (m, w, backward)
            if first is None:
                first = ens
                continue
            assert np.array_equal(ens.X.rows, first.X.rows)
            assert _states(ens) == _states(first)


def _states(ens):
    """Every block's Philox state at every checkpoint, as comparable values."""
    return [[(b["state"]["counter"].tobytes(), b["state"]["key"].tobytes(),
              b["buffer"].tobytes(), b["buffer_pos"], b["has_uint32"], b["uinteger"])
             for b in state] for state in ens.dW.states]


@pytest.mark.parametrize("n", [1, 7, 20, 200])
def test_a_forward_pass_steps_on_one_helper(constant_scenario, counted_blocks, workers,
                                            started, n):
    """A forward pass over n dates, before or after the checkpoints are
    recorded, makes no ``_for_each_block`` call and starts at most one helper
    (none on one core), and yields the storing simulator's rows; only the
    first backward read claims blocks, in one call."""
    spec = constant_scenario.spec
    ref = stored_simulate_paths(spec, 0.0, 0.0, spec.T / n, 1000, seed=3)
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / n, 1000, seed=3)
    assert ens.n_steps == n and counted_blocks == []
    for recorded in (False, True):
        if recorded:
            read_all(ens, backward=True)
            assert counted_blocks == [1]
        for w in WORKERS:
            workers(w)
            counted_blocks.clear()
            started.clear()
            _assert_reader_rows(ens, ref, False, (recorded, w))
            assert counted_blocks == [], (recorded, w)
            assert started == ([] if w == 1 else ["parobs-reader"]), (recorded, w)


def test_only_the_first_backward_read_records(put_scenario, counted_blocks, workers):
    """``simulate_paths`` and any number of forward reads make no
    ``_for_each_block`` call and record nothing; the first backward read
    makes one call, a second read none.  The recorded checkpoints, and the
    rows and increments replayed from them, equal the storing simulator's bit
    for bit."""
    spec = put_scenario.spec
    m = 3 * BLOCK_SIZE + 123
    ref = stored_simulate_paths(spec, 0.0, 0.0, spec.T / 20, m, seed=13)
    workers(2)
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, m, seed=13)
    for _ in range(3):
        _assert_reader_rows(ens, ref, False, "forward")
    assert counted_blocks == [] and ens.dW is None and ens.X.nbytes == 0
    _assert_reader_rows(ens, ref, True, "first backward")
    assert counted_blocks == [4]
    n, stride = ens.n_steps, ens.X.stride
    assert np.array_equal(ens.X.rows, ref.X[[*range(0, n, stride), n]])
    assert len(ens.dW.states) == len(range(0, n, stride))
    rows, states = ens.X.rows, ens.dW.states
    _assert_reader_rows(ens, ref, True, "second backward")
    _assert_reader_rows(ens, ref, False, "forward after")
    assert counted_blocks == [4]
    assert ens.X.rows is rows and ens.dW.states is states   # kept, not recorded again


def test_reflected_fit_does_not_depend_on_the_worker_count(put_scenario, workers, started):
    """The reflected fit (a backward reader pass, the ensemble's first) and
    the convergence table (one backward pass and one forward pass) are
    bit-identical for 1, 2, 3 and 20 workers; each pass starts at most one
    helper, none on one core, and the fit's recording one block worker per
    further core and block."""
    spec = put_scenario.spec
    fits, tables = [], []
    for w in WORKERS:
        workers(w)
        ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, 3 * BLOCK_SIZE + 123, seed=8)
        started.clear()
        fits.append(rbsde_reflected_mc(ens, 3))
        assert started == ["parobs-block"] * (min(w, 4) - 1) + ([] if w == 1 else
                                                                ["parobs-reader"]), w
        started.clear()
        tables.append(penalization_convergence_mc(ens, [16, 256], 3))
        assert started == ([] if w == 1 else ["parobs-reader"] * 2), w   # 1 fit pass, 1 sweep
    for fit in fits[1:]:
        assert np.array_equal(fit.coef, fits[0].coef)
        assert np.array_equal(fit.K_T, fits[0].K_T)
        assert (fit.Y0, fit.ci) == (fits[0].Y0, fits[0].ci)
    for table in tables[1:]:
        for field in ("y_distance", "k_distance", "y_ci", "k_ci"):
            assert np.array_equal(getattr(table, field), getattr(tables[0], field)), field


def _failing(spec, fails):
    """``spec`` with an ``a_x`` that raises ``fails[n](t)`` on a block of n
    paths where that returns an exception, and is the spec's otherwise."""
    real = spec.coefficients.a_x

    def a_x(t, x):
        exc = fails.get(np.size(x), lambda t: None)(t)
        if exc is not None:
            raise exc
        return real(t, x)
    return dataclasses.replace(spec, coefficients=dataclasses.replace(spec.coefficients,
                                                                      a_x=a_x))


def test_a_failing_block_surfaces_in_the_caller(constant_scenario, workers):
    """A coefficient that raises on the tail block raises in the caller with
    its own type and text, for any worker count, in every stepping pass: the
    recording of the first backward read, a replay and a forward read."""
    spec = constant_scenario.spec
    m = 2 * BLOCK_SIZE + 123
    bad = _failing(spec, {123: lambda t: ZeroDivisionError("tail block")})
    good = simulate_paths(spec, 0.0, 0.0, spec.T / 20, m, seed=2)
    read_all(good, backward=True)   # records the checkpoints that ``replaying`` replays
    for w in WORKERS:
        workers(w)
        for backward in (True, False):   # the recording pass, then a forward read
            unread = simulate_paths(bad, 0.0, 0.0, spec.T / 20, m, seed=2)
            with pytest.raises(ZeroDivisionError, match="^tail block$"):
                read_all(unread, backward)
            assert unread.dW is None and unread.X.nbytes == 0
        replaying = dataclasses.replace(good, spec=bad)
        for backward in (True, False):   # raised in the readers' helper on 2+ cores
            with pytest.raises(ZeroDivisionError, match="^tail block$"):
                read_all(replaying, backward)
        with pytest.raises(ZeroDivisionError, match="^tail block$"):
            rbsde_reflected_mc(replaying, 3)


def test_the_lowest_failing_block_wins(constant_scenario, workers):
    """When several blocks fail, the lowest block's exception is raised, even
    when a higher block fails first: from the first backward read's
    recording, which leaves no thread behind, and from ``_for_each_block``
    itself."""
    spec = constant_scenario.spec
    # the tail block fails at once, the two full blocks only from t = T / 2 on
    bad = _failing(spec, {
        123: lambda t: ValueError("tail block"),
        BLOCK_SIZE: lambda t: KeyError("full block") if t >= spec.T / 2 else None,
    })
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        ens = simulate_paths(bad, 0.0, 0.0, spec.T / 20, 2 * BLOCK_SIZE + 123, seed=2)
        with pytest.raises(KeyError, match="full block"):
            read_all(ens, backward=True)
        assert threading.active_count() == before, w

    order = []

    def work(b):
        if b == 1:
            time.sleep(0.05)   # blocks 3 and 6 fail before block 1 does
        order.append(b)
        if b in (1, 3, 6):
            raise RuntimeError(f"block {b}")

    for w in WORKERS:
        workers(w)
        order.clear()
        with pytest.raises(RuntimeError, match="^block 1$"):
            stochastic._for_each_block(8, work)
        assert sorted(order) == list(range(8))   # a failure stops no other block


def test_every_block_is_claimed_once_under_contention(put_scenario, workers):
    """With more workers than cores and a short switch interval, the shared
    claim counter hands out every block exactly once (a lost update would
    run a block twice or skip one), and the stored pass's checkpoints and
    stream states, recorded by the first backward read, replay the storing
    simulator's rows."""
    spec = put_scenario.spec
    m = 5 * BLOCK_SIZE + 7
    ref = stored_simulate_paths(spec, 0.0, 0.0, spec.T / 10, m, seed=12)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers(20)
        for _ in range(50):
            done = []
            stochastic._for_each_block(64, done.append)
            runs.append(sorted(done))
        ens = simulate_paths(spec, 0.0, 0.0, spec.T / 10, m, seed=12)
        rows = read_all(ens, backward=True)   # records on 6 blocks, 6 threads
    finally:
        sys.setswitchinterval(interval)
    assert runs == [list(range(64))] * 50
    assert [k for k, _, _ in rows] == list(range(ens.n_steps, -1, -1))
    for k, x, dw in rows:
        assert np.array_equal(x, ref.X[k]), k
        assert dw is None if k == ens.n_steps else np.array_equal(dw, ref.dW[k]), k


def test_no_thread_outlives_a_stepping_call(sine_scenario, workers):
    spec = sine_scenario.spec
    m = 3 * BLOCK_SIZE + 123
    bad = _failing(spec, {123: lambda t: ArithmeticError("tail block")})
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, m, seed=4)
        assert threading.active_count() == before
        with pytest.raises(ArithmeticError):
            read_all(simulate_paths(bad, 0.0, 0.0, spec.T / 20, m, seed=4), backward=True)
        assert threading.active_count() == before
        # forward before and after the first backward read, which records
        for backward in (False, True, True, False):
            with closing(ens._read(backward)) as rows:
                for _ in rows:   # the helper may end before the last rows are read
                    assert threading.active_count() <= before + (w > 1)
            assert threading.active_count() == before
            with pytest.raises(ArithmeticError):
                read_all(dataclasses.replace(ens, spec=bad), backward)
            assert threading.active_count() == before


def _close_within(rows, seconds=30.0):
    """Close a reader on a watchdog thread; whether it finished in time."""
    closer = threading.Thread(target=rows.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


@pytest.mark.parametrize("backward", [True, False])
def test_a_reader_that_stops_early_joins_its_helper(put_scenario, workers, backward):
    """A reader closed after a few dates, or while its helper waits for a
    slot row, returns at once and leaves no thread behind; so does a pass
    that breaks out of a closed reader, on any worker count."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, 3 * BLOCK_SIZE + 123, seed=9)
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        rows = ens._read(backward)
        next(rows)
        time.sleep(0.2)   # the helper fills every free slot, then waits for one
        assert threading.active_count() == before + (w > 1)
        assert _close_within(rows)
        assert threading.active_count() == before
        with closing(ens._read(backward)) as rows:
            for k, _, _ in rows:
                if k == 12:
                    break
        assert threading.active_count() == before


def test_a_failing_consumer_surfaces_its_own_error(put_scenario, workers, monkeypatch):
    """A pass whose consumer raises mid-pass (``_resolve`` at one date of the
    backward fit, a sweep's body at one date) raises that error and leaves
    no thread behind, on any worker count."""
    spec = put_scenario.spec
    ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, 3 * BLOCK_SIZE + 123, seed=10)
    t_bad = float(ens.t_nodes[7])
    real = stochastic.LsmcEstimate._resolve

    def resolve(self, t, *args):
        if t == t_bad:
            raise InnerDivergence("stalled at date 7")
        return real(self, t, *args)

    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(stochastic.LsmcEstimate, "_resolve", resolve)
            with pytest.raises(InnerDivergence, match="^stalled at date 7$"):
                rbsde_reflected_mc(ens, 3)
        assert threading.active_count() == before
        for backward in (True, False):
            with pytest.raises(KeyError, match="date 7"):
                with closing(ens._read(backward)) as rows:
                    for k, _, _ in rows:
                        if k == 7:
                            raise KeyError("date 7")
            assert threading.active_count() == before


def test_a_stopping_pass_that_raises_joins_its_helper(put_scenario, workers):
    """``optimal_stopping_value`` on an ensemble whose driver raises
    at one date raises that error and leaves no thread behind."""
    spec = put_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 40)
    sol = solve_psor(spec, grid)
    real_f = spec.driver.f
    t_bad = 7 * (spec.T / 20)

    def f(t, x, y, z):
        if t == t_bad:
            raise FloatingPointError("driver at date 7")
        return real_f(t, x, y, z)

    bad = dataclasses.replace(spec, driver=dataclasses.replace(spec.driver, f=f))
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        ens = simulate_paths(bad, 0.0, 0.0, spec.T / 20, 3 * BLOCK_SIZE + 123, seed=5)
        assert float(ens.t_nodes[7]) == t_bad
        with pytest.raises(FloatingPointError, match="^driver at date 7$") as caught:
            optimal_stopping_value(grid, sol, ens)
        # counted while the traceback, and so the pass's frame, is still held
        assert threading.active_count() == before and caught.tb is not None


def test_a_moment_pass_whose_helper_raises_surfaces_the_error(constant_scenario, workers):
    """``moment_ratio_probe`` on an ensemble whose ``a_x`` raises on
    the tail block from T / 2 on (in the reader's helper on 2+ cores) raises
    that error, with its own type and text, and leaves no thread behind."""
    spec = constant_scenario.spec
    bad = _failing(spec, {123: lambda t: LookupError("tail block") if t >= spec.T / 2 else None})
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        ens = simulate_paths(bad, 0.0, 0.0, spec.T / 20, 2 * BLOCK_SIZE + 123, seed=6)
        with pytest.raises(LookupError, match="^tail block$") as caught:
            moment_ratio_probe(ens, 4.0)
        assert threading.active_count() == before and caught.tb is not None


def test_a_stopping_pass_that_ends_at_date_0_joins_its_helper(quad_scenario, workers):
    """On obstacle_quad ``u = h`` everywhere, so every path stops at date 0
    and ``optimal_stopping_value`` breaks out of its forward pass while the
    helper waits for a slot row; the pass leaves no thread behind."""
    spec = quad_scenario.spec
    grid = SpaceTimeGrid.build(spec, 40, 40)
    sol = solve_psor(spec, grid)
    for w in WORKERS:
        workers(w)
        before = threading.active_count()
        ens = simulate_paths(spec, 0.0, 0.0, spec.T / 20, 3 * BLOCK_SIZE + 123, seed=7)
        sv = optimal_stopping_value(grid, sol, ens)
        assert sv.rule_value == pytest.approx(float(spec.obstacle.h(0.0, 0.0)), abs=1e-12)
        assert sv.rule_ci == pytest.approx(0.0, abs=1e-12)
        assert threading.active_count() == before


def test_importing_the_cli_starts_no_thread():
    code = ("import sys, threading\n"
            "import parobs.cli\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["1", "False"]


def test_the_tracer_sees_the_same_spans_with_helpers(tmp_path, workers, started):
    """With the bench's tracer installed, ``verify --checks representation-z``
    on the small put (with enough paths for three blocks), a simulation, a
    reflected fit and a forward sweep, records the same span names and
    parents with one worker as with two: the block workers and the readers'
    helpers call no public function, so no span is opened off the caller's
    thread."""
    from test_api import _tracer
    from test_cli import _small_put

    cfg = _small_put(tmp_path, (("mc.paths", str(2 * BLOCK_SIZE + 123)),))
    spans = {}
    for w in (1, 2):
        workers(w)
        started.clear()
        tracer = _tracer().Tracer()
        tracer.install()
        try:
            assert main(["--scenario", str(cfg), "--out", str(tmp_path / f"o{w}"), "verify",
                         "--checks", "representation-z"]) == 0
        finally:
            tracer.uninstall()
        # the fit's first backward read's block worker, then one reader
        # helper each for the fit and the sweep
        assert started == ([] if w == 1 else ["parobs-block"] + ["parobs-reader"] * 2)
        assert not tracer._stack
        spans[w] = [(name, tracer.spans[parent][0] if parent >= 0 else None)
                    for name, _, _, parent, _ in tracer.spans]
    assert spans[1] == spans[2]
    assert {"stochastic.simulate_paths", "stochastic.rbsde_reflected_mc",
            "verify.check_representation_z"} <= {name for name, _ in spans[1]}
