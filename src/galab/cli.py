"""Command-line front end: run verification scenarios and write reports.

Usage:  galab <pipeline> --scenario FILE_OR_NAME [--out DIR] [--grid NX,NY]
        [--tol T] [--order K] [--jobs N]
        galab --list-scenarios

Exit codes: 0 all checks passed, 1 configuration or usage error, 2 check
failed. The output directory defaults to $GALAB_OUT, then ./galab-out.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import GalabError, ScenarioError
from .scenarios import PIPELINES, bundled_scenarios, load_scenario, run_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error: exit 1, not 2
        raise ScenarioError(f"{self.prog}: {message}")


def _run_one(ref: str, pipeline: str, out: str,
             overrides: dict[str, dict[str, str]]) -> tuple[int, str]:
    try:
        scn = load_scenario(ref, overrides)
        if scn.pipeline != pipeline:
            raise ScenarioError(
                f"scenario {scn.name!r} declares pipeline {scn.pipeline!r}, "
                f"but was invoked as {pipeline!r}")
        code, report = run_scenario(scn, out)
        status = "ok" if code == 0 else "FAILED"
        return code, f"[{status}] {scn.name}: report {report}"
    # MemoryError: a grid numpy cannot allocate; OSError: an --out, report
    # or CSV path that cannot be written
    except (ScenarioError, MemoryError, OSError) as exc:
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
    flags.add_argument("--tol", default=None, help="override the pipeline's primary tolerance")
    flags.add_argument("--order", default=None, help="override the series truncation order")
    flags.add_argument("--jobs", type=int, default=1, help="run scenarios concurrently")
    parser = _Parser(
        prog="galab",
        description="verification pipelines for quadrature-generated "
                    "transforms of generalized analytic functions")
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        sub.add_parser(name, help=f"run a {name} scenario", parents=[flags])
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            sub.choices[args.pipeline].error(f"argument --jobs: {args.jobs} is below 1")
    except ScenarioError as exc:
        print(f"[config error] {exc}")
        return 1

    out = args.out or os.environ.get("GALAB_OUT") or "galab-out"
    # each flag is the text of a scenario value, read and checked by the loader
    nx, _, ny = (args.grid or "").partition(",")  # "30,30,4" leaves ny = "30,4", not an int
    overrides = {section: values for section, values, flag in (
        ("grid", {"nx": nx, "ny": ny}, args.grid),
        ("tolerances", {PIPELINES[args.pipeline][1]["tolerances"].split()[0]: args.tol},
         args.tol),
        ("profile", {"order": args.order}, args.order)) if flag is not None}

    refs = args.scenario
    if args.jobs > 1 and len(refs) > 1:
        # the process pool pulls in multiprocessing, socket and logging;
        # a single-scenario run does not pay for importing them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_one, ref, args.pipeline, out, overrides)
                       for ref in refs]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(ref, args.pipeline, out, overrides) for ref in refs]

    worst = 0
    for code, message in results:
        print(message)
        worst = max(worst, code)
    return worst


def run() -> int:
    """The process entry point: ``main()``, then ``gc.freeze()``, so the
    interpreter's shutdown collections skip every object alive at exit,
    the ~22k that the imports leave among them.  In-process callers use
    ``main()``, which leaves the collector as it found it."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
