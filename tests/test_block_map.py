"""The row-block map behind every full-grid kernel: on two or more CPUs
the caller runs the first half of an array's blocks and one worker
thread the second.  The worker must behave like the caller: the same
errors in the same order, the caller's numpy errstate, a worker of its
own in a forked child, and no thread at all for one-block arrays."""

import contextvars
import importlib
import importlib.util
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from galab._integrate import cumulative_integral
from galab.errors import NonFiniteFieldError
from galab.expressions import evaluate_on_grid
from galab.grid import Field, GridSpec, _each_block, _row_blocks, dbar, residual
from galab import potential
from galab.potential import _integrate_form

from conftest import assert_same_bits, child_env, sample, zeros

#: 600 x 256 complex: four blocks, the worker's half from row 256 on
GRID = GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256)
WORKER_ROW = 500

TWO_CPUS = len(os.sched_getaffinity(0)) > 1 if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1) > 1

_NONFINITE = "field has non-finite values at active nodes"

#: source run both here and in a one-CPU child: dbar, the four potentials
#: of a probe pair and a seed pair, the simple transform, both its maps and
#: the transformed potential on GRID, gathered in ``outputs``
_KERNELS = """
import numpy as np
from galab.grid import Field, GridSpec, dbar
from galab.moutard import moutard_simple, transformed_potential
from galab.potential import omega
g = GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256)
rates = (1 + 2j, 0.3 - 0.2j, 0.5 + 0.4j, -0.6 + 0.3j)
f, fp, psi, psip = (Field(g, np.exp(g.z * c)) for c in rates)
u = Field(g, np.zeros(g.shape(), complex))
om_ff, om_pf, om_fp, om_pp = (omega(a, b, bp, c) for a, b, bp, c in (
    (f, fp, (0, 0), 20j), (psi, fp, (300, 9), 0), (f, psip, (599, 255), 0.5j),
    (psi, psip, (7, 100), 0)))
m = moutard_simple(u, f, fp, om_ff)
outputs = [dbar(f).values, om_ff.im, om_pf.im, om_fp.im, om_pp.im, m.u_tilde.values,
           m.map_psi(psi, om_pf).values, m.map_psi_plus(psip, om_fp).values,
           transformed_potential(om_pp, om_pf, om_fp, om_ff).im]
"""


def test_the_fixture_array_splits_between_caller_and_worker():
    blocks = _row_blocks(np.empty(GRID.shape(), complex))
    head = blocks[:(len(blocks) + 1) // 2]
    assert len(blocks) >= 2 and head[-1].stop <= WORKER_ROW < GRID.nx


class TestOrderAndErrors:
    BLOCKS = [slice(k, k + 1) for k in range(6)]

    def test_results_in_block_order_with_one_thread_per_half(self):
        threads = set()

        def fn(rows):
            threads.add(threading.get_ident())
            return rows.start

        assert _each_block(fn, self.BLOCKS) == list(range(6))
        assert len(threads) == (2 if TWO_CPUS else 1)

    def test_here_keeps_every_block_in_the_caller(self):
        # LU blocks: numpy's stacked det and solve run slower on two threads
        caller = threading.get_ident()
        assert _each_block(lambda rows: threading.get_ident(), self.BLOCKS,
                           here=True) == [caller] * 6

    def test_first_failing_block_raises_once_both_halves_end(self):
        ran = []

        def fn(rows):
            ran.append(rows.start)
            if rows.start in (1, 4):
                raise ValueError(f"block {rows.start} failed")

        with pytest.raises(ValueError, match="^block 1 failed$"):
            _each_block(fn, self.BLOCKS)
        # the caller stops at block 1 of 0-2, the worker at block 4 of 3-5
        assert sorted(ran) == ([0, 1, 3, 4] if TWO_CPUS else [0, 1])

    def test_a_failure_in_the_worker_half_alone_raises_in_the_caller(self):
        def fn(rows):
            if rows.start == 5:
                raise KeyError("last block")
            return rows.start

        with pytest.raises(KeyError, match="last block"):
            _each_block(fn, self.BLOCKS)
        assert _each_block(lambda rows: rows.start, self.BLOCKS) == list(range(6))

    def test_every_block_sees_the_callers_context(self):
        var = contextvars.ContextVar("galab_test_var", default="unset")
        token = var.set("caller")
        try:
            assert _each_block(lambda rows: var.get(), self.BLOCKS) == ["caller"] * 6
        finally:
            var.reset(token)


class TestWorkerHalf:
    def test_nonfinite_active_node_raises_the_serial_text(self):
        psi = sample(GRID, lambda z: z * z)
        psi.values[WORKER_ROW, 7] = np.nan
        with pytest.raises(NonFiniteFieldError, match=f"^{_NONFINITE}$"):
            residual(zeros(GRID), psi)
        with pytest.raises(NonFiniteFieldError, match=f"^{_NONFINITE}$"):
            Field(GRID, psi.values)

    def test_floating_point_faults_follow_the_callers_errstate(self):
        # exp(400 x + 400) overflows only where x > 0.77, from row 532 on
        src = "exp(400 * x + 400)"
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                evaluate_on_grid(src, GRID)
        with np.errstate(all="ignore"):
            values = evaluate_on_grid(src, GRID)
        assert np.isfinite(values[:WORKER_ROW]).all() and np.isinf(values[-1]).all()
        big = np.zeros(GRID.shape())
        big[WORKER_ROW:] = 1e300
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                cumulative_integral(big, 1e10, axis=1)
        with np.errstate(all="ignore"):
            assert np.isinf(cumulative_integral(big, 1e10, axis=1)[WORKER_ROW:]).any()

    def test_floating_point_faults_in_the_workers_orientation(self):
        # the worker integrates y-then-x, a down its columns: 1e308 off the
        # basepoint's column overflows in those running sums alone
        assert len(_row_blocks(np.empty(GRID.shape()))) >= 2
        a, b = np.zeros(GRID.shape()), np.zeros(GRID.shape())
        a[:, 1:] = 1e308
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                _integrate_form(a, b, GRID, (0, 0))
        with np.errstate(all="ignore"):
            w, defect = _integrate_form(a, b, GRID, (0, 0))
        assert not w.any() and defect == np.inf

    def test_outputs_match_a_one_cpu_process(self):
        # the same kernels with the map held in the caller, in a child
        # pinned to one CPU, where no worker starts
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs sched_setaffinity")
        probe = ("import os, sys, threading\n"
                 "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "before = threading.active_count()\n"
                 f"{_KERNELS}\n"
                 "print(before, threading.active_count())\n"
                 "sys.stdout.flush()\n"
                 "for out in outputs:\n"
                 "    os.write(1, out.tobytes())\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        line, data = proc.stdout.split(b"\n", 1)
        before, after = map(int, line.split())
        assert before == after
        here = {}
        exec(_KERNELS, here)
        assert here["g"] == GRID and len(_row_blocks(here["om_ff"].im)) >= 2
        for want in here["outputs"]:
            got, data = data[:want.nbytes], data[want.nbytes:]
            assert_same_bits(np.frombuffer(got, want.dtype).reshape(GRID.shape()), want)
        assert not data


def _traced_functions() -> list[tuple[str, str]]:
    """(module, function) of every public galab function bench/tracing.py wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("galab_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return list(tracing.LAYERS)


def test_traced_functions_run_in_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack per process, so a traced function
    # called from the worker would be timed inside the caller's open span;
    # the worker runs only private block functions, one L-path orientation
    # of each potential among them
    calls, wrappers = [], {}
    for mod_name, attr in _traced_functions():
        fn = getattr(importlib.import_module(f"galab.{mod_name}"), attr)

        def guarded(*args, _fn=fn, _name=attr, **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fn(*args, **kwargs)
        wrappers[id(fn)] = fn, guarded
    for name, mod in list(sys.modules.items()):  # every binding, as the tracer rebinds
        if name == "galab" or name.startswith("galab."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    monkeypatch.setattr(mod, attr, wrappers[id(value)][1])
    orientations, integrate_into = [], potential._integrate_into

    def recorded(*args):
        orientations.append(threading.current_thread() is threading.main_thread())
        return integrate_into(*args)
    monkeypatch.setattr(potential, "_integrate_into", recorded)
    assert threading.current_thread() is threading.main_thread()
    here = {}
    exec(_KERNELS, here)
    names = {name for name, _ in calls}
    assert {"omega", "cumulative_integral", "moutard_simple", "transformed_potential"} <= names
    assert all(main for _, main in calls)
    assert len(orientations) == 8
    assert orientations.count(False) == (4 if TWO_CPUS else 0)


def _fork_child(conn) -> None:
    conn.send_bytes(dbar(sample(GRID, lambda z: np.exp(z))).values.tobytes())
    conn.close()


def test_a_forked_child_starts_its_own_worker():
    want = dbar(sample(GRID, lambda z: np.exp(z))).values  # the parent's worker runs
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_fork_child, args=(child,))
    proc.start()
    child.close()
    try:
        assert parent.poll(20), "the child's block map did not finish within 20 s"
        got = np.frombuffer(parent.recv_bytes(), complex).reshape(GRID.shape())
    finally:
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    assert_same_bits(got, want)


def test_callers_on_several_threads_share_one_worker():
    # a fresh process, four callers racing to the first map and then
    # switching often: each map returns its own blocks, one worker starts
    probe = ("import sys, threading\n"
             "from galab.grid import _each_block\n"
             "blocks = [slice(k, k + 1) for k in range(6)]\n"
             "bad = []\n"
             "def caller(tag):\n"
             "    for _ in range(300):\n"
             "        if _each_block(lambda rows: (tag, rows.start), blocks) != \\\n"
             "                [(tag, k) for k in range(6)]:\n"
             "            bad.append(tag)\n"
             "sys.setswitchinterval(1e-6)\n"
             "threads = [threading.Thread(target=caller, args=(t,)) for t in range(4)]\n"
             "for t in threads: t.start()\n"
             "for t in threads: t.join(60)\n"
             "print(sum(t.is_alive() for t in threads), len(bad), threading.active_count())\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    alive, bad, threads = map(int, proc.stdout.split())
    assert (alive, bad, threads) == (0, 0, 2 if TWO_CPUS else 1)


def test_one_block_runs_start_no_thread():
    # every bundled scenario is one block; canonical-pole-removal runs
    # remove_pole on the 480 x 81 pole strip
    probe = ("import sys, tempfile, threading\n"
             "from galab.cli import main\n"
             "from galab.scenarios import PIPELINES, bundled_scenarios, load_scenario\n"
             "before = threading.active_count()\n"
             "with tempfile.TemporaryDirectory() as out:\n"
             "    for name in bundled_scenarios():\n"
             "        pipeline = load_scenario(name).pipeline\n"
             "        main([pipeline, '--scenario', name, '--out', out])\n"
             "print(before, threading.active_count())\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.splitlines()[-1].split())
    assert before == after
