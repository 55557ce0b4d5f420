"""Show which of galab's outputs and timings depend on OpenBLAS.

    python3 tools/blas_kernels.py [--calls 25] [--processes 2]

First, every bundled scenario runs with its CSV dumps in two child
processes, both with ``OPENBLAS_NUM_THREADS=1``: one under OpenBLAS's
default kernel for this CPU, one with ``OPENBLAS_CORETYPE=Sandybridge``.
The script lists the outputs whose bytes differ.  A ``np.tensordot`` in
each child is the control: if its bytes are equal as well, the variable
was not honoured (an OpenBLAS built without DYNAMIC_ARCH, another BLAS,
or another CPU family), and the list shows nothing.

Second, ``dbar`` of a seeded complex field is timed at 256², 512² and
1024², with BLAS threads unset and with ``OPENBLAS_NUM_THREADS=1``.
Each child process times ``--calls`` calls after one warm-up call and
reports their median.  ``--processes`` processes run per setting, the
settings alternating, and the range of their medians is printed.

galab is imported from this checkout's ``src/``.  Outputs go to a
temporary directory that is removed at the end.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (256, 512, 1024)


def child_outputs(out: Path) -> dict:
    """SHA-256 of every bundled output written to ``out``, and the control's."""
    import numpy as np
    from galab.scenarios import bundled_scenarios, load_scenario, run_scenario
    for name in bundled_scenarios():
        run_scenario(load_scenario(name), out)
    rng = np.random.default_rng(1)
    data = rng.standard_normal((5, 4096)) + 1j * rng.standard_normal((5, 4096))
    control = np.tensordot(np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0, data, axes=(0, 0))
    return {"outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())},
            "control": hashlib.sha256(control.tobytes()).hexdigest()}


def child_times(calls: int) -> dict:
    """Median ms of ``calls`` dbar calls at each size."""
    import numpy as np
    from galab.grid import Field, GridSpec, dbar
    rng = np.random.default_rng(7)
    medians = {}
    for n in SIZES:
        grid = GridSpec(0.0, 1.0, 1.0, 2.0, n, n)
        f = Field(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        dbar(f)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            dbar(f)
            times.append(time.perf_counter() - t0)
        medians[n] = 1e3 * statistics.median(times)
    return medians


def run_child(args: list, **blas) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")}
    env.update(blas, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, __file__, *args], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--calls", type=int, default=25)
    ap.add_argument("--processes", type=int, default=2)
    ap.add_argument("--child-outputs", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--child-times", action="store_true", help=argparse.SUPPRESS)
    opts = ap.parse_args()
    if opts.child_outputs:
        print(json.dumps(child_outputs(opts.child_outputs)))
        return
    if opts.child_times:
        print(json.dumps(child_times(opts.calls)))
        return

    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for coretype in ("default", "Sandybridge"):
            out = Path(tmp, coretype)
            out.mkdir()
            blas = {} if coretype == "default" else {"OPENBLAS_CORETYPE": coretype}
            runs[coretype] = run_child(["--child-outputs", str(out)],
                                       OPENBLAS_NUM_THREADS="1", **blas)
    default, other = runs["default"], runs["Sandybridge"]
    changed = [name for name, digest in default["outputs"].items()
               if other["outputs"][name] != digest]
    honoured = default["control"] != other["control"]
    print(f"OPENBLAS_CORETYPE=Sandybridge against the default kernel "
          f"(control tensordot {'changes' if honoured else 'does not change: not honoured'}): "
          f"{len(changed)} of {len(default['outputs'])} outputs change bytes")
    for name in changed:
        print(f"  {name}")

    settings = {"BLAS threads unset": {}, "OPENBLAS_NUM_THREADS=1": {"OPENBLAS_NUM_THREADS": "1"}}
    medians = {label: [] for label in settings}
    for _ in range(opts.processes):
        for label, blas in settings.items():
            medians[label].append(run_child(["--child-times", "--calls", str(opts.calls)],
                                            **blas))
    print(f"dbar, median ms of {opts.calls} calls, range over {opts.processes} processes")
    for n in SIZES:
        cells = [f"{label} {min(m[str(n)] for m in ms):.2f}-{max(m[str(n)] for m in ms):.2f}"
                 for label, ms in medians.items()]
        print(f"  {n}^2: " + "; ".join(cells))


if __name__ == "__main__":
    main()
