"""Command-line front end: run verification scenarios and write reports.

Usage:  galab <pipeline> --scenario FILE_OR_NAME [--out DIR] [--grid NX,NY]
        [--tol T] [--order K] [--jobs N]
        galab --list-scenarios

Exit codes: 0 all checks passed, 1 configuration error, 2 check failed.
The output directory defaults to $GALAB_OUT, then ./galab-out.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import GalabError, ScenarioError
from .scenarios import PIPELINES, bundled_scenarios, load_scenario, run_scenario


def _run_one(ref: str, pipeline: str, out: str,
             grid: tuple[int, int] | None, tol: float | None,
             order: int | None) -> tuple[int, str]:
    try:
        scn = load_scenario(ref, grid_override=grid, tol_override=tol,
                            order_override=order)
        if scn.pipeline != pipeline:
            raise ScenarioError(
                f"scenario {scn.name!r} declares pipeline {scn.pipeline!r}, "
                f"but was invoked as {pipeline!r}")
        code, report = run_scenario(scn, out)
        status = "ok" if code == 0 else "FAILED"
        return code, f"[{status}] {scn.name}: report {report}"
    except (ScenarioError, MemoryError) as exc:  # a grid numpy cannot allocate
        return 1, f"[config error] {ref}: {exc}"
    except GalabError as exc:
        return 2, f"[error] {ref}: {type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list-scenarios" in argv:
        for name in bundled_scenarios():
            print(name)
        return 0

    flags = argparse.ArgumentParser(add_help=False)  # shared by every subcommand
    flags.add_argument("--scenario", action="append", required=True, metavar="FILE_OR_NAME",
                       help="scenario file path or bundled scenario name (repeatable)")
    flags.add_argument("--out", default=None, help="report directory")
    flags.add_argument("--grid", default=None, metavar="NX,NY", help="override grid resolution")
    flags.add_argument("--tol", type=float, default=None,
                       help="override the pipeline's primary tolerance")
    flags.add_argument("--order", type=int, default=None,
                       help="override the series truncation order")
    flags.add_argument("--jobs", type=int, default=1, help="run scenarios concurrently")
    parser = argparse.ArgumentParser(
        prog="galab",
        description="verification pipelines for quadrature-generated "
                    "transforms of generalized analytic functions")
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        sub.add_parser(name, help=f"run a {name} scenario", parents=[flags])
    args = parser.parse_args(argv)

    out = args.out or os.environ.get("GALAB_OUT") or "galab-out"
    grid = None
    if args.grid:
        try:
            nx, ny = (int(v) for v in args.grid.split(","))
        except ValueError:
            parser.error("--grid expects NX,NY")
        grid = (nx, ny)

    refs = args.scenario
    if args.jobs > 1 and len(refs) > 1:
        # the process pool pulls in multiprocessing, socket and logging;
        # a single-scenario run does not pay for importing them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_one, ref, args.pipeline, out, grid,
                                   args.tol, args.order) for ref in refs]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(ref, args.pipeline, out, grid, args.tol, args.order)
                   for ref in refs]

    worst = 0
    for code, message in results:
        print(message)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
