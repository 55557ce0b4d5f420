"""The row-block map behind every full-grid kernel: on two or more CPUs
the caller runs the first half of an array's blocks and one worker
thread the second.  The worker must behave like the caller: the same
errors in the same order, the caller's numpy errstate, a worker of its
own in a forked child, and no thread at all for one-block arrays."""

import contextvars
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from galab._integrate import cumulative_integral
from galab.errors import NonFiniteFieldError
from galab.expressions import evaluate_on_grid
from galab.grid import Field, GridSpec, _each_block, _row_blocks, dbar, residual

from conftest import assert_same_bits, child_env, sample, zeros

#: 600 x 256 complex: four blocks, the worker's half from row 256 on
GRID = GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256)
WORKER_ROW = 500

TWO_CPUS = len(os.sched_getaffinity(0)) > 1 if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1) > 1

_NONFINITE = "field has non-finite values at active nodes"


def test_the_fixture_array_splits_between_caller_and_worker():
    blocks = _row_blocks(np.empty(GRID.shape(), complex))
    head = blocks[:(len(blocks) + 1) // 2]
    assert len(blocks) >= 2 and head[-1].stop <= WORKER_ROW < GRID.nx


class TestOrderAndErrors:
    BLOCKS = [slice(k, k + 1) for k in range(6)]

    def test_results_in_block_order_with_one_scratch_per_thread(self):
        made, threads = [], set()

        def fn(rows, scratch):
            threads.add(threading.get_ident())
            return rows.start, scratch

        out = _each_block(fn, self.BLOCKS, lambda m: (made.append(m) or object(),))
        assert [start for start, _ in out] == list(range(6))
        assert len(made) == len({id(s) for _, s in out}) == (2 if TWO_CPUS else 1)
        assert len(threads) == len(made)

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

    def test_outputs_match_a_one_cpu_process(self):
        # the same kernels with the map held in the caller, in a child
        # pinned to one CPU, where no worker starts
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs sched_setaffinity")
        probe = ("import os, sys, threading\n"
                 "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "import numpy as np\n"
                 "from galab.grid import Field, GridSpec, dbar\n"
                 "g = GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256)\n"
                 "before = threading.active_count()\n"
                 "out = dbar(Field(g, np.exp(g.z * (1 + 2j)))).values\n"
                 "print(before, threading.active_count())\n"
                 "sys.stdout.flush()\n"
                 "os.write(1, out.tobytes())\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        line, data = proc.stdout.split(b"\n", 1)
        before, after = map(int, line.split())
        assert before == after
        want = dbar(Field(GRID, np.exp(GRID.z * (1 + 2j)))).values
        assert_same_bits(np.frombuffer(data, complex).reshape(GRID.shape()), want)


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
