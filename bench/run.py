"""Benchmark of galab: three closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload refine-ladder --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the provenance and the figures
behind the metrics.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os

#: one BLAS thread on every commit, set before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

WORKLOADS = ("cli-suite", "refine-ladder", "pole-strip")

#: fresh-interpreter set-up probes (probe.py) spread evenly through each
#: run, so they see the same host drift as the items; setup_s is their median
SETUP_PROBES = 9

#: the tail is the highest percentile with at least this many items beyond
TAIL_BEYOND = 10


def setup_probe(workload: str, seed: int, n_items: int, env: dict) -> dict:
    """Import, input and warm-up seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload,
         str(seed), str(n_items)],
        env=env, capture_output=True, text=True, timeout=wl.ITEM_TIMEOUT_S,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of the order statistics, with Beta(p (n + 1),
    (1 - p) (n + 1)) weights.  Item times cluster by scenario (cli-suite)
    and by the host's fast and slow phases; a single order statistic
    jumps by the whole gap between two clusters when one item crosses
    it, while these weights move smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = 32 * n  # midpoint rule for the Beta mass of each rank
    logs = [(a - 1) * math.log((k + 0.5) / cells)
            + (b - 1) * math.log1p(-(k + 0.5) / cells) for k in range(cells)]
    top = max(logs)
    w = [0.0] * n
    for k, log_pdf in enumerate(logs):
        w[k * n // cells] += math.exp(log_pdf - top)
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def tail(times: list[float], labels: list[str] | None = None
         ) -> tuple[float, float, int]:
    """(value, percentile, items beyond) of the tail.

    The percentile is the highest with at least TAIL_BEYOND items beyond
    it, by nearest rank; its value is the ``quantile`` estimate there.

    With ``labels``, the rank moves down while it sits on a cut between
    scenarios: a rank where no scenario has items both at or below it
    and above it.  There the value would jump with the order in which
    two scenarios' times happen to fall.  A run too short to have a tail
    above the median reports the median, as percentile 50."""
    order = sorted(range(len(times)), key=times.__getitem__)
    n = len(order)
    rank = n - TAIL_BEYOND
    if labels is not None:
        last = {labels[i]: pos for pos, i in enumerate(order)}
        reach = []  # reach[k]: highest position of a label seen in order[:k + 1]
        for i in order:
            reach.append(max(last[labels[i]], reach[-1] if reach else 0))
        while rank > n // 2 + 1 and reach[rank - 1] < rank:
            rank -= 1
    if rank <= n // 2 + 1:
        return quantile(times, 0.5), 50.0, n // 2
    return quantile(times, rank / n), 100.0 * rank / n, n - rank


def provenance(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS,
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            "seed": seed}


def code_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "galab").rglob("*.py")))


class Run:
    """Timed items, check outcomes and set-up probes of one run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 root: Path):
        self.workload, self.seed, self.trace, self.root = workload, seed, trace, root
        self.n_items = max(2, round(seconds / wl.NOMINAL_ITEM_S[workload]))
        self.env = wl.child_env(root)
        self.times: list[float] = []
        self.labels: list[str] = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.nodes = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[dict] = []
        self.peak_rss_mb = 0.0
        self.agg: dict = {}
        self.info: dict = {}

    def loop(self, items: list, run_item) -> None:
        """The closed loop: ``run_item(item, traced)`` returns before the
        next item is sent.  Set-up probes run between items, spread
        evenly.  A traced run times each item of the first half twice,
        untraced then traced, so both halves do the same work; in
        cli-suite the half is whole passes, so every scenario is traced."""
        if self.trace:
            unit = len({item.name for item in items}) if self.workload == "cli-suite" else 1
            half = items[:unit * max(1, len(items) // unit // 2)]
            plan = [(item, traced) for item in half for traced in (False, True)]
        else:
            plan = [(item, False) for item in items]
        probe_at = {round(k * len(plan) / SETUP_PROBES) for k in range(SETUP_PROBES)}
        for i, (item, traced) in enumerate(plan):
            if i in probe_at:
                self.probes.append(setup_probe(self.workload, self.seed,
                                               self.n_items, self.env))
            run_item(item, traced)

    def record(self, seconds: float, ok: bool, nodes: int, label: str,
               traced: bool, detail: str = "") -> None:
        self.times.append(seconds)
        self.labels.append(label)
        self.nodes += nodes
        if traced:
            self.traced_s += seconds
        else:
            self.untraced_s += seconds
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {detail}")

    # ------------------------------------------------------------ cli-suite

    def run_cli(self, items: list) -> None:
        out = wl.out_dir(self.root)
        trace_file = out / "trace.json"
        first: dict[str, bytes] = {}
        identical = 0

        def run_item(item, traced):
            nonlocal identical
            argv = wl.cli_argv(item, out)
            if traced:
                argv[1:3] = [str(Path(__file__).with_name("trace_child.py")),
                             str(trace_file)]
            code, seconds, rss = wl.spawn(argv, self.env)
            ok, detail, data = wl.check_cli(item, code, out, first)
            identical += data == first.get(item.name)
            if traced:
                self._merge_child(trace_file)
            else:
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
            self.record(seconds, ok, item.nodes, item.name, traced, detail)

        try:
            wl.spawn(wl.cli_argv(items[0], out), self.env)  # untimed warm-up
            self.loop(items, run_item)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            try:
                out.parent.rmdir()
            except OSError:
                pass  # another run's output is still there
        digest = hashlib.sha256()
        for name in sorted(first):
            digest.update(name.encode() + b"\0" + first[name] + b"\0")
        self.info["reports_sha256"] = digest.hexdigest()
        self.info["passes"] = len(items) // len({it.name for it in items})
        self.info["scenario_p50_s"] = {
            name: statistics.median(t for t, lab in zip(self.times, self.labels)
                                    if lab == name)
            for name in sorted(set(self.labels))}
        self.agg["identical_frac"] = identical / max(1, len(self.times))

    def _merge_child(self, trace_file: Path) -> None:
        try:
            snap = json.loads(trace_file.read_text())
            trace_file.unlink()
        except (OSError, ValueError):
            return  # the child died before saving; its item has failed
        tracing.merge(self.agg, snap)

    # ---------------------------------------------------------- in process

    def run_in_process(self, items: list) -> None:
        sys.path.insert(0, str(self.root / "src"))
        import galab as g

        wl.warm_up(g, self.workload, items)
        index = {item: k for k, item in enumerate(dict.fromkeys(items))}
        if self.workload == "refine-ladder":
            call = lambda item: wl.run_ladder(g, item)
        else:
            grid = g.GridSpec(**wl.STRIP)
            call = lambda item: wl.run_pole(g, grid, item)
        self.loop(items, lambda item, traced: self._item(call, item, index[item],
                                                         traced))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _item(self, call, item, k: int, traced: bool) -> None:
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            seconds, result = wl.guarded(call, item)
            ok, detail = self._check(result)
        except Exception as exc:  # an item that raises fails; the run goes on
            seconds = time.perf_counter() - t0
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracing.merge(self.agg, tracer.snapshot())
        self.record(seconds, ok, item.nodes, f"{type(item).__name__} {k}", traced,
                    detail)

    def _check(self, result) -> tuple[bool, str]:
        if self.workload == "pole-strip":
            return result == "pass", f"verdict {result!r}"
        ok, detail, order = wl.check_ladder(result)
        self.info["min_order"] = min(self.info.get("min_order", math.inf), order)
        return ok, detail

    # --------------------------------------------------------------- report

    def item_times(self) -> list[float]:
        """The times the quantiles are taken over.  An in-process item
        timed in several passes (pole-strip) counts once, at the median
        of its timings; a cli-suite item is one scenario run."""
        if self.workload == "cli-suite":
            return self.times
        by_item: dict[str, list[float]] = {}
        for label, seconds in zip(self.labels, self.times):
            by_item.setdefault(label, []).append(seconds)
        return [statistics.median(t) for t in by_item.values()]

    def execute(self) -> dict:
        self.info["provenance"] = provenance(self.seed)
        self.info["workload"] = self.workload
        items = wl.make_items(self.workload, self.seed, self.root, self.n_items)
        setup_probe(self.workload, self.seed, self.n_items, self.env)  # warm caches
        if self.workload == "cli-suite":
            self.run_cli(items)
        else:
            self.run_in_process(items)
        attempted = len(self.times)
        times = self.item_times()
        value, pct, beyond = tail(times,
                                  self.labels if self.workload == "cli-suite" else None)
        run_s = self.untraced_s
        import_s = statistics.median(p["import_s"] for p in self.probes)
        setup_s = statistics.median(p["setup_s"] for p in self.probes)
        self.info.update(items=attempted, distinct_items=len(times),
                         tail_percentile=round(pct, 2),
                         tail_items_beyond=beyond, setup_probes=len(self.probes),
                         import_s=import_s, failures=self.failures)
        if self.trace:
            metrics, missing = tracing.layer_metrics(self.agg, self.workload,
                                                     self.traced_s)
            metrics["cli.import_s"] = (import_s, "s")
            metrics["reporting.identical_frac"] = (
                self.agg.get("identical_frac", 0.0), "ratio")
            metrics["trace.overhead_frac"] = (self.traced_s / run_s - 1.0, "ratio")
            metrics["code.lines"] = (code_lines(self.root), "lines")
            if missing:
                self.info["layers_without_calls"] = missing
        else:
            missing = []
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (run_s, "s"),
                "item_s.p50": (quantile(times, 0.5), "s"),
                "item_s.tail": (value, "s"),
                "nodes_per_s": (self.nodes / run_s, "nodes/s"),
                "peak_rss_mb": (self.peak_rss_mb, "MB"),
                "ok_frac": ((attempted - self.failed) / attempted, "ratio"),
            }
        return {"correct": self.failed == 0 and not missing,
                "attempted": attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "galab" / "__init__.py").is_file():
        print(f"bench: no galab sources under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    result = run.execute()
    print(json.dumps(run.info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
