"""Time each stage of a pole-strip item in process.

    OPENBLAS_NUM_THREADS=1 python3 tools/pole_stages.py [--seed 31] [--profiles 60] \\
        [--repeats 3] [--grid NX,NY]

An item is what ``bench/workloads.py``'s ``run_pole`` times: synthesize
the certified coefficient and the seed pair of one seeded profile on the
480x81 strip (or on ``--grid``, the same strip at another resolution),
then remove the pole.  The profiles are the benchmark's
own (``pole_items``).  Each stage is timed by rebinding its name, in this
process only, in the module that calls it; the library has no timers.
The script runs on trees from before the cached fit projectors too: there
the residue's fit is a fifth ``fit_laurent_profile`` call, and its
``diff_axis`` runs over the whole grid.

Each profile runs ``--repeats`` times.  A stage's time is its inclusive
time within one item, summed over its calls: the median over repeats
per profile, then the median over profiles.  Indented stages run inside
the stage above them, so a parent's time includes theirs.  "calls" is
per item.  The last line is the tracemalloc peak of the first profile's
item, run once more untimed, and of its ``omega_singular`` call: what
that call allocates above what was traced when it started, the seeds'
two fields (computed and cached inside it) included, also in complex
grids of the strip's shape.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import galab  # noqa: E402
from galab import series, singularity  # noqa: E402
from galab.grid import GridSpec  # noqa: E402
import workloads as wl  # noqa: E402

#: (depth, module, name the module calls, label), in table order
STAGES = (
    (0, singularity, "synthesize_singular_u", "synthesize_singular_u"),
    (1, series, "meromorphic_certify", "meromorphic_certify"),
    (0, singularity, "synthesize_seeds", "synthesize_seeds"),
    (1, singularity, "solve_recursion", "solve_recursion"),
    (0, singularity, "remove_pole", "remove_pole"),
    (1, singularity, "omega_singular", "omega_singular"),
    (1, singularity, "moutard_simple", "moutard_simple"),
    (1, singularity, "contour_profile", "contour_profile (4 rungs)"),
    (2, singularity, "fit_laurent_profile", "fit_laurent_profile"),
    (1, singularity, "diff_axis", "diff_axis (the residue's dW/dx)"),
)


@contextmanager
def timed(spent: dict, calls: dict):
    """Each stage rebound to a wrapper that adds its time to ``spent``."""
    saved = []
    for _, module, name, label in STAGES:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _label=label, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                spent[_label] += time.perf_counter() - t0
                calls[_label] += 1
        saved.append((module, name, fn))
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def item(grid, profile) -> float:
    """run_pole's timed region, on a profile built outside it."""
    prof, beta, beta_plus = profile
    t0 = time.perf_counter()
    u_star, _ = singularity.synthesize_singular_u(prof, grid)
    f, fp = singularity.synthesize_seeds(prof, beta, beta_plus, grid, wl.POLE_ORDER)
    result = singularity.remove_pole(u_star, f, fp)
    elapsed = time.perf_counter() - t0
    if not result.passed:
        raise SystemExit(f"pole_stages: an item failed: {result.verdict}")
    return elapsed


def peaks(grid, profile) -> tuple[int, int]:
    """tracemalloc peaks in bytes: one item's, and its omega_singular's above
    what was traced when that call started."""
    fn, before, inner = singularity.omega_singular, [], []

    def wrapper(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        before.append(peak)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            inner.append(tracemalloc.get_traced_memory()[1] - current)
    singularity.omega_singular = wrapper
    tracemalloc.start()
    try:
        item(grid, profile)
        return max(tracemalloc.get_traced_memory()[1], *before), max(inner)
    finally:
        tracemalloc.stop()
        singularity.omega_singular = fn


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--profiles", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--grid", default=f"{wl.STRIP['nx']},{wl.STRIP['ny']}",
                        metavar="NX,NY", help="strip resolution (default: the benchmark's)")
    args = parser.parse_args()

    nx, ny = (int(n) for n in args.grid.split(","))
    grid = GridSpec(**{**wl.STRIP, "nx": nx, "ny": ny})
    items = wl.pole_items(args.seed, args.profiles)
    item(grid, wl.pole_profile(galab, items[0]))  # warm-up, as the benchmark's
    per = defaultdict(lambda: defaultdict(list))  # label -> profile -> times
    calls = defaultdict(int)
    for _ in range(args.repeats):
        for k, it in enumerate(items):
            spent = defaultdict(float)
            profile = wl.pole_profile(galab, it)  # a new profile: nothing certified
            with timed(spent, calls):
                per["item"][k].append(item(grid, profile))
            for label, s in spent.items():
                per[label][k].append(s)

    n = args.repeats * len(items)
    print(f"seed {args.seed}, {len(items)} profiles x {args.repeats} repeats, "
          f"strip {grid.nx}x{grid.ny}")
    print(f"{'stage':<40} {'calls':>6} {'ms':>8}")
    for depth, label in [(0, "item")] + [(d, label) for d, _, _, label in STAGES]:
        times = [statistics.median(ts) for ts in per[label].values()]
        ms = 1e3 * statistics.median(times) if times else 0.0
        count = calls[label] / n if label != "item" else 1.0
        print(f"{'  ' * depth + label:<40} {count:>6.2f} {ms:>8.3f}")
    item_peak, omega_peak = peaks(grid, wl.pole_profile(galab, items[0]))
    print(f"tracemalloc peak: item {item_peak / 1e6:.1f} MB, omega_singular "
          f"{omega_peak / 1e6:.1f} MB ({omega_peak / (16 * nx * ny):.2f} complex grids)")


if __name__ == "__main__":
    main()
