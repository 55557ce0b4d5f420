"""Every layer that ``bench/run.py --trace 1`` expects of a workload is
reached: one pole-strip item, one 256^2 refine-ladder rung and every
bundled scenario through the CLI run under bench/tracing.py's Tracer, and
``layer_metrics`` must name no expected layer without a call.  A traced
benchmark run with such a layer reads ``correct: false``."""

import importlib.util
import sys
from pathlib import Path

import pytest

import galab
import galab.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
ROOT = BENCH.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"galab_bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: its dataclasses look it up
    return module


tracing, wl = _load("tracing"), _load("workloads")


def _cli_suite(out):
    codes = {item.name: galab.cli.main(wl.cli_argv(item, out)[3:])
             for item in wl.cli_items(7, ROOT, 1)}
    assert set(codes.values()) == {0}, codes


def _refine_ladder(out):
    _, figures = wl.run_ladder(galab, wl.ladder_items(7, 1)[0], wl.LADDER[:1])
    assert figures["rungs"][0]["loop"] <= wl.LOOP_DEFECT_TOL


def _pole_strip(out):
    grid = galab.GridSpec(**wl.STRIP)
    assert wl.run_pole(galab, grid, wl.pole_items(7, 1)[0])[1] == "pass"


@pytest.mark.parametrize("workload, run", [("cli-suite", _cli_suite),
                                           ("refine-ladder", _refine_ladder),
                                           ("pole-strip", _pole_strip)])
def test_traced_workload_reaches_every_expected_layer(workload, run, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(tmp_path)
    finally:
        tracer.uninstall()
    agg = {}
    tracing.merge(agg, tracer.snapshot())
    _, missing = tracing.layer_metrics(agg, workload, 1.0)
    assert missing == []
