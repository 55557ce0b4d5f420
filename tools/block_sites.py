"""Time every block-map site of galab with its worker thread on and off.

    OPENBLAS_NUM_THREADS=1 python3 tools/block_sites.py [NXxNY ...] [--pairs N]

Sites are the kernels that run ``galab.grid._each_block`` over two or more
row blocks, timed on each grid given (default 1024x1024).  "off" sets this
process's entry of ``galab.grid._WORKERS`` to None for the call, so every
block runs in the caller, and restores the worker after it; the library
has no switch for this.  A second table times the selections the map
keeps against their alternatives, forced by rebinding a module's
``_each_block`` in this process:

- ``here=`` for one-block orientation maps, on 96x96 and the 480x81 strip;
- ``here=`` for LU blocks (three seeds), in ``_det_nodes`` and ``_subtract_solved``;
- the two-orientation map of ``omega`` against one orientation after the other;
- ``_sum_steps``' row-add loop against ``cumsum`` (axis 0, a real grid).

Each pair times both sides once, alternating which runs first; the table
gives both medians in ms and the pairs that the first side won.
"""

import argparse
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from galab import grid, moutard, potential  # noqa: E402
from galab._integrate import _sum_steps, cumulative_integral  # noqa: E402
from galab.expressions import evaluate_on_grid  # noqa: E402
from galab.grid import Field, GridSpec, dbar, diff_axis, residual  # noqa: E402


def pairs(first, second, n: int) -> tuple[float, float, int, int]:
    times = ([], [])
    for k in range(n):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            (first, second)[side]()
            times[side].append(time.perf_counter() - t0)
    return (1e3 * statistics.median(times[0]), 1e3 * statistics.median(times[1]),
            sum(a < b for a, b in zip(*times)), n)


def serial(fn):
    def run():
        pid = os.getpid()
        saved, grid._WORKERS[pid] = grid._WORKERS[pid], None
        try:
            fn()
        finally:
            grid._WORKERS[pid] = saved
    return run


@contextmanager
def rebound(module, each):
    """``module._each_block`` replaced by ``each(original, fn, blocks, here)``."""
    original = module._each_block
    module._each_block = lambda fn, blocks, here=False: each(original, fn, blocks, here)
    try:
        yield
    finally:
        module._each_block = original


def forced(module, fn, here: bool):
    def run():
        with rebound(module, lambda each, f, blocks, _: each(f, blocks, here)):
            fn()
    return run


def row(name: str, shape, result) -> None:
    print("{:36s} {:>10s} {:9.3f} {:9.3f}   {}/{}".format(name, shape, *result))


def inputs(nx: int, ny: int) -> dict:
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, nx, ny)
    f, fp, psi, psip = (Field(g, evaluate_on_grid(f"exp({c}*z)", g)) for c in
                        ("(0.5+0.2i)", "(0.3-0.4i)", "(2.5+1.0i)", "(-1.2+2.8i)"))
    u = Field(g, np.zeros(g.shape(), complex))
    om_ff = potential.omega(f, fp, (0, 0), 20j)
    om_pf, om_fp, om_pp = (potential.omega(a, b) for a, b in ((psi, fp), (f, psip), (psi, psip)))
    a, b = potential._form_components(psi, psip)
    return dict(g=g, f=f, fp=fp, psi=psi, psip=psip, u=u, om_ff=om_ff, om_pf=om_pf,
                om_fp=om_fp, om_pp=om_pp, a=a, b=b, m=moutard.moutard_simple(u, f, fp, om_ff))


def sites(nx: int, ny: int) -> None:
    d, shape = inputs(nx, ny), f"{nx}x{ny}"
    g, m = d["g"], d["m"]
    calls = {
        "evaluate_on_grid": lambda: evaluate_on_grid("exp((2.5+1.0i)*z)*zbar", g),
        "Field (finite check)": lambda: Field(g, d["psi"].values),
        "dbar": lambda: dbar(d["psi"]),
        "diff_axis (axis 1)": lambda: diff_axis(d["psi"].values, g.hy, 1),
        "residual": lambda: residual(d["u"], d["psi"]),
        "cumulative_integral (axis 0)": lambda: cumulative_integral(d["a"], g.hx, 0),
        "_form_components": lambda: potential._form_components(d["psi"], d["psip"]),
        "_integrate_form": lambda: potential._integrate_form(d["a"], d["b"], g, (0, 0)),
        "omega": lambda: potential.omega(d["psi"], d["psip"]),
        "_det_nodes (N = 1)": lambda: potential._det_nodes(d["om_ff"].im[..., None, None], g),
        "moutard_simple": lambda: moutard.moutard_simple(d["u"], d["f"], d["fp"], d["om_ff"]),
        "map_psi": lambda: m.map_psi(d["psi"], d["om_pf"]),
        "transformed_potential": lambda: moutard.transformed_potential(
            d["om_pp"], d["om_pf"], d["om_fp"], d["om_ff"]),
    }
    for name, fn in calls.items():
        fn()
        row(name, shape, pairs(fn, serial(fn), ARGS.pairs))


def selections(nx: int, ny: int) -> None:
    shape = f"{nx}x{ny}"
    for sx, sy in ((96, 96), (480, 81)):
        d = inputs(sx, sy)
        form = lambda: potential._integrate_form(d["a"], d["b"], d["g"], (0, 0))
        row("here=True, one-block orientations", f"{sx}x{sy}",
            pairs(form, forced(potential, form, False), ARGS.pairs))
    d = inputs(nx, ny)
    g, rng = d["g"], np.random.default_rng(3)
    w3 = 5 * np.eye(3) + rng.uniform(-0.5, 0.5, (nx, ny, 3, 3))  # diagonally dominant
    fs = [d[k].values for k in ("f", "psi", "fp")]
    rhs = [[v.imag for v in fs], [v.real for v in fs]]
    det3 = lambda: potential._det_nodes(w3, g)
    solve3 = lambda: moutard._subtract_solved(g, w3, fs, d["u"].values, rhs)
    row("here=True, _det_nodes (N = 3)", shape, pairs(det3, forced(potential, det3, False), 5))
    row("here=True, _subtract_solved (N = 3)", shape,
        pairs(solve3, forced(moutard, solve3, False), 5))

    om = lambda: potential.omega(d["psi"], d["psip"])

    def one_after_other():
        tasks = lambda each, fn, blocks, here: (
            [fn(t) for t in blocks] if isinstance(blocks[0], tuple) else each(fn, blocks, here))
        with rebound(potential, tasks):
            om()
    row("orientation map, omega", shape, pairs(om, one_after_other, ARGS.pairs))

    w = potential._integrate_form(d["a"], d["b"], g, (0, 0))[0]
    fm, outs = d["a"], [w.copy(), w.copy()]
    by_rows, by_cumsum = (lambda k=k: _sum_steps(fm, outs[k], g.hx, k == 0) for k in (0, 1))
    row("_sum_steps by_rows vs cumsum", shape, pairs(by_rows, by_cumsum, ARGS.pairs))
    outs = [w.copy(), w.copy()]
    by_rows(), by_cumsum()
    assert outs[0].tobytes() == outs[1].tobytes(), "the two sums differ"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="*", default=["1024x1024"])
    parser.add_argument("--pairs", type=int, default=21)
    ARGS = parser.parse_args()
    grid._each_block(lambda rows: None, [slice(0, 1), slice(1, 2)])  # starts the worker
    if not grid._WORKERS[os.getpid()]:
        sys.exit("one CPU: there is no worker to compare against")
    print(f"{'site':36s} {'grid':>10s} {'on ms':>9s} {'off ms':>9s}   on won")
    for nx, ny in (map(int, s.split("x")) for s in ARGS.shapes):
        sites(nx, ny)
    print(f"\n{'selection':36s} {'grid':>10s} {'kept ms':>9s} {'other ms':>9s}   kept won")
    for nx, ny in (map(int, s.split("x")) for s in ARGS.shapes):
        selections(nx, ny)
