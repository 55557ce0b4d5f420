"""Self-test of the benchmark's checks and tracer.

Run from the root of a checkout:  python3 bench/selftest.py

Each workload runs a short untraced pass with one deliberately failing
input appended: the run must finish every item, count exactly that item
as failed in ``ok_frac`` and report ``correct: false``.  A hung child
must be killed and a hung in-process call interrupted.  The tracer must
rebind every galab name of a wrapped function and restore it afterwards.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

import run as bench
import tracing
import workloads as wl

ROOT = Path.cwd()


def failing_item(workload: str, good: list):
    """One input of the workload that must fail its checks."""
    if workload == "cli-suite":
        return wl.CliItem("no-such-scenario", "series", 0)
    if workload == "refine-ladder":
        # unit seeds with a zero constant: omega(f1, f1+) vanishes on a row
        return wl.LadderItem("1", "1", "exp(z)", "exp(z)", 0j)
    # a negative leading seed coefficient is rejected by synthesize_seeds
    return dataclasses.replace(good[0], beta=(-1.0, 0.0, 0.0))


def check_failure_counted() -> None:
    real = wl.make_items

    def with_failure(workload, seed, root, n_items):
        good = real(workload, seed, root, n_items)
        return good + [failing_item(workload, good)]

    for workload in bench.WORKLOADS:
        wl.make_items = with_failure
        try:
            run = bench.Run(workload, 1, 1.0, False, ROOT)
            result = run.execute()
        finally:
            wl.make_items = real
        ok_frac = result["metrics"]["ok_frac"]["value"]
        n = result["attempted"]
        assert result["failed"] == 1, (workload, result["failed"], run.failures)
        assert not result["correct"], workload
        assert ok_frac == (n - 1) / n, (workload, ok_frac, n)
        print(f"selftest {workload}: {n} items, 1 failed, ok_frac {ok_frac:.4f}: "
              f"{run.failures[0]}")


def check_hang_fails() -> None:
    """A hung child is killed and a hung call interrupted, both in time."""
    code, seconds, _ = wl.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                                dict(os.environ), timeout=1.0)
    assert code is None and seconds < 10, (code, seconds)
    real = wl.ITEM_TIMEOUT_S
    wl.ITEM_TIMEOUT_S = 1.0
    try:
        wl.guarded(time.sleep, 30)
    except wl.ItemTimeout:
        pass
    else:
        raise AssertionError("a hung in-process item was not interrupted")
    finally:
        wl.ITEM_TIMEOUT_S = real
    print("selftest hang: child killed and call interrupted after 1 s")


def check_rebinding() -> None:
    import galab.scenarios
    import galab.series

    originals = (galab.scenarios.dz_op, galab.scenarios.omega,
                 galab.series.meromorphic_certify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = (galab.scenarios.dz_op, galab.scenarios.omega,
                   galab.series.meromorphic_certify)
        for before, after in zip(originals, patched):
            assert getattr(after, "__wrapped__", None) is before, before
    finally:
        tracer.uninstall()
    assert (galab.scenarios.dz_op, galab.scenarios.omega,
            galab.series.meromorphic_certify) == originals
    print("selftest tracer: aliases rebound by identity and restored")


def main() -> int:
    if not (ROOT / "src" / "galab" / "__init__.py").is_file():
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    check_rebinding()
    check_hang_fails()
    check_failure_counted()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
