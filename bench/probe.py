"""Set-up probe: one fresh interpreter imports galab, makes a run's
inputs and warms up, and prints how long each part took.

Usage: python3 bench/probe.py WORKLOAD SEED N_ITEMS

Run from the root of a checkout with ``src`` on PYTHONPATH.  The last
line of standard output is ``{"import_s": ..., "setup_s": ...}``; the
set-up time is import plus input generation plus warm-up.
"""

import json
import sys
import time
from pathlib import Path

import workloads as wl


def main() -> int:
    workload, seed, n_items = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    t0 = time.perf_counter()
    import galab
    import galab.cli  # noqa: F401  (the entry point a user starts from)
    import_s = time.perf_counter() - t0
    items = wl.make_items(workload, seed, Path.cwd(), n_items)
    wl.warm_up(galab, workload, items)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
