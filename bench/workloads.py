"""Seeded inputs, items and output checks of the three workloads.

Every workload is a closed loop driven by one client: the next item is
sent only after the previous one has returned.  ``cli_items``,
``ladder_items`` and ``pole_items`` turn a workload seed into the inputs
of a run; galab sees only those inputs.  ``spawn``, ``run_ladder`` and
``run_pole`` time the calls into galab; the ``check_*`` functions and
the verdict test read the outputs outside the timed region.
"""

from __future__ import annotations

import configparser
import cmath
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: items longer than this count as hung and fail; the longest item, a
#: ladder, takes about 2.2 s, and a run must end within 180 s
ITEM_TIMEOUT_S = 20.0

#: per-item cost at the commit that defined the benchmark (2 CPUs); the
#: item count of a run is fixed from ``--seconds`` and these, so both
#: commits of a comparison do the same work and ``run_s`` stays comparable
NOMINAL_ITEM_S = {"cli-suite": 0.45, "refine-ladder": 2.2, "pole-strip": 0.054}

#: refine-ladder: dyadic rungs; 2048^2 is left out (10 s and 1.25 GB a rung)
LADDER = (256, 512, 1024)
#: centred square: moduli of exp(c z) stay moderate while h |c| keeps the
#: truncation error well above rounding at 1024^2
DOMAIN = (-0.5, 0.5, -0.5, 0.5)
MIN_ORDER = 3.5
LOOP_DEFECT_TOL = 1e-6

#: pole-strip: the bundled 480 x 81 strip around the contour x = 0
STRIP = dict(x_min=-0.1, x_max=0.1, y_min=1.0, y_max=2.0, nx=480, ny=81,
             excluded_band=0.002)
POLE_ORDER = 8
Y_INTERVAL = (1.0, 2.0)
#: each profile is timed once per pass and counts at its median timing:
#: the host has slow phases of about a second, and with every timing an
#: item one phase could make the tail (ten runs spread 24-34% on it)
POLE_PASSES = 4


class ItemTimeout(Exception):
    """An in-process item ran longer than ITEM_TIMEOUT_S."""


def _cplx(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real:.6f}{sign}{abs(z.imag):.6f}i)"


# ---------------------------------------------------------------- cli-suite

@dataclass(frozen=True)
class CliItem:
    name: str
    pipeline: str
    nodes: int


def cli_items(seed: int, root: Path, n_items: int) -> list[CliItem]:
    """Whole passes over the bundled scenarios, each in seeded order."""
    scenarios = []
    for ini in sorted((root / "src" / "galab" / "scenarios").glob("*.ini")):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(ini)
        nodes = (cp.getint("grid", "nx") * cp.getint("grid", "ny")
                 if cp.has_section("grid") else 0)
        scenarios.append(CliItem(ini.stem, cp["scenario"]["pipeline"], nodes))
    rng = random.Random(seed)
    passes = max(1, round(n_items / len(scenarios)))
    items = []
    for _ in range(passes):
        order = list(scenarios)
        rng.shuffle(order)
        items.extend(order)
    return items


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GALAB_OUT", None)
    return env


def spawn(argv: list[str], env: dict, timeout: float = ITEM_TIMEOUT_S
          ) -> tuple[int | None, float, float]:
    """Run a child to completion: (exit code or None if killed, wall s,
    child peak RSS in MB).  The child's stdout and stderr are dropped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0


def cli_argv(item: CliItem, out: Path) -> list[str]:
    return [sys.executable, "-m", "galab.cli", item.pipeline,
            "--scenario", item.name, "--out", str(out)]


def check_cli(item: CliItem, code: int | None, out: Path,
              first: dict[str, bytes]) -> tuple[bool, str, bytes]:
    """Exit code 0, ``"passed": true``, and bytes equal to pass one."""
    if code is None:
        return False, "timed out", b""
    report = out / f"{item.name}.report.json"
    try:
        data = report.read_bytes()
    except OSError as exc:
        return False, f"exit {code}, no report: {exc}", b""
    if code != 0:
        return False, f"exit code {code}", data
    if b'"passed":true' not in data:
        return False, "report does not say passed", data
    ref = first.setdefault(item.name, data)
    if data != ref:
        return False, "report differs from the first pass", data
    return True, "", data


# ------------------------------------------------------------ refine-ladder

@dataclass(frozen=True)
class LadderItem:
    f1: str
    f1_plus: str
    psi: str
    psi_plus: str
    constant: complex

    @property
    def nodes(self) -> int:
        return sum(n * n for n in LADDER)


def _seed_constant(a: complex, b: complex) -> complex:
    """Imaginary constant keeping |omega(f1, f1+)| >= 8 on the domain.

    omega = 2i (Im P(z) - Im P(z0)) + c with P' = exp((a + b) z).  The
    transform divides by omega: with a floor of 2 instead of 8, about a
    quarter of the ladders amplified the residual 20 to 120 times (still
    at 4th order), beyond the factor of 10 their check allows."""
    s = a + b
    xs = [DOMAIN[0] + (DOMAIN[1] - DOMAIN[0]) * i / 64 for i in range(65)]
    ys = [DOMAIN[2] + (DOMAIN[3] - DOMAIN[2]) * j / 64 for j in range(65)]
    p0 = cmath.exp(s * complex(DOMAIN[0], DOMAIN[2])) / s
    spread = max(abs((cmath.exp(s * complex(x, y)) / s - p0).imag)
                 for x in xs for y in ys)
    return complex(0.0, 8.0 * (spread + 1.0))


def ladder_items(seed: int, n_items: int) -> list[LadderItem]:
    """Holomorphic exponential seeds and probes with seeded rates.

    Probe rates of modulus 2.5 to 3.5 keep the truncation error at 1024^2
    well above rounding; with 1.5 to 2.5, some ladders observed order 3.4
    because rounding set their residual at the finest rung."""
    rng = random.Random(seed)

    def rate(lo: float, hi: float) -> complex:
        r = rng.uniform(lo, hi)
        t = rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))

    items = []
    for _ in range(n_items):
        a, b = rate(0.3, 1.0), rate(0.3, 1.0)
        c, d = rate(2.5, 3.5), rate(2.5, 3.5)
        items.append(LadderItem(f"exp({_cplx(a)}*z)", f"exp({_cplx(b)}*z)",
                                f"exp({_cplx(c)}*z)", f"exp({_cplx(d)}*z)",
                                _seed_constant(a, b)))
    return items


def run_ladder(g, item: LadderItem, sizes: tuple[int, ...] = LADDER
               ) -> tuple[float, dict]:
    """One dyadic ladder of the simple-transform pipeline.

    Returns the wall time of the galab calls and the per-rung figures
    the checks read."""
    import numpy as np

    rungs = []
    elapsed = 0.0
    for n in sizes:
        t0 = time.perf_counter()
        grid = g.GridSpec(*DOMAIN, n, n)
        u = g.Field(grid, np.zeros((n, n), dtype=complex))
        f1 = g.Field(grid, g.evaluate_on_grid(item.f1, grid))
        f1p = g.Field(grid, g.evaluate_on_grid(item.f1_plus, grid))
        psi = g.Field(grid, g.evaluate_on_grid(item.psi, grid))
        psip = g.Field(grid, g.evaluate_on_grid(item.psi_plus, grid))
        om_ff = g.omega(f1, f1p, (0, 0), item.constant)
        om_pf = g.omega(psi, f1p, (0, 0), 0.0)
        om_fp = g.omega(f1, psip, (0, 0), 0.0)
        om_pp = g.omega(psi, psip, (0, 0), 0.0)
        loop = g.loop_defect(f1, f1p)
        result = g.moutard_simple(u, f1, f1p, om_ff)
        psi_t = result.map_psi(psi, om_pf)
        psip_t = result.map_psi_plus(psip, om_fp)
        om_t = g.transformed_potential(om_pp, om_pf, om_fp, om_ff)
        before = g.residual(u, psi)
        after = g.residual(result.u_tilde, psi_t)
        defect = float(np.max(np.abs(
            g.dz(g.Field(grid, om_t.values)).values
            - psi_t.values * psip_t.values)))
        elapsed += time.perf_counter() - t0
        h4 = max(grid.hx, grid.hy) ** 4 * max(1.0, psi.max_abs())
        rungs.append({"n": n, "before": before, "after": after, "h4": h4,
                      "loop": loop, "dz_defect": defect})
    return elapsed, {"rungs": rungs}


def check_ladder(figures: dict) -> tuple[bool, str, float]:
    """Residual after <= 10 (before + h^4) on every rung, the seed pair
    closed, and observed order >= MIN_ORDER; returns the worst order."""
    rungs = figures["rungs"]
    for r in rungs:
        if not r["after"] <= 10.0 * (r["before"] + r["h4"]):
            return False, f"residual after {r['after']:.3e} at {r['n']}^2", 0.0
        if not r["loop"] <= LOOP_DEFECT_TOL:
            return False, f"loop defect {r['loop']:.3e} at {r['n']}^2", 0.0
    orders = [math.log2(a["after"] / b["after"]) for a, b in zip(rungs, rungs[1:])]
    worst = min(orders)
    if not worst >= MIN_ORDER:
        return False, f"observed order {worst:.3f} below {MIN_ORDER}", worst
    return True, "", worst


# --------------------------------------------------------------- pole-strip

@dataclass(frozen=True)
class PoleItem:
    phi: tuple[float, ...]
    r0_im: tuple[float, ...]
    r1_re: tuple[float, ...]
    beta: tuple[float, ...]
    beta_plus: tuple[float, ...]

    @property
    def nodes(self) -> int:
        return STRIP["nx"] * STRIP["ny"]


def pole_items(seed: int, n_items: int) -> list[PoleItem]:
    """Certified profiles: real cubic phi, r-1 = -1/2, imaginary r0,
    Im r1 = phi''/2, and leading seed coefficients positive on [1, 2]."""
    rng = random.Random(seed)

    def coeffs(k: int, scale: float) -> tuple[float, ...]:
        return tuple(rng.uniform(-scale, scale) for _ in range(k))

    def positive() -> tuple[float, ...]:
        # c0 + c1 (y - 1) + c2 (y - 1)^2 stays >= c0 - |c1| - |c2| > 0.5
        c0, c1, c2 = rng.uniform(1.0, 2.0), *coeffs(2, 0.25)
        return (c0 - c1 + c2, c1 - 2.0 * c2, c2)

    return [PoleItem(coeffs(4, 0.15), coeffs(2, 0.15), coeffs(2, 0.15),
                     positive(), positive()) for _ in range(n_items)]


def pole_profile(g, item: PoleItem):
    poly = lambda c: g.FunctionOnInterval.from_poly(list(c), Y_INTERVAL)
    phi = poly(item.phi)
    phi_pp = [2.0 * item.phi[2], 6.0 * item.phi[3]]
    r1 = [complex(re, 0.5 * pp) for re, pp in zip(item.r1_re, phi_pp)]
    r = {-1: poly([-0.5]), 0: poly([1j * v for v in item.r0_im]), 1: poly(r1)}
    return (g.PoleProfile(phi, r), poly(item.beta), poly(item.beta_plus))


def run_pole(g, grid, item: PoleItem) -> tuple[float, str]:
    """Synthesize the certified coefficient and seeds, remove the pole."""
    profile, beta, beta_plus = pole_profile(g, item)
    t0 = time.perf_counter()
    u_star, _ = g.synthesize_singular_u(profile, grid)
    f, fp = g.synthesize_seeds(profile, beta, beta_plus, grid, POLE_ORDER)
    result = g.remove_pole(u_star, f, fp)
    return time.perf_counter() - t0, result.verdict


# ------------------------------------------------------------ set-up

def make_items(workload: str, seed: int, root: Path, n_items: int) -> list:
    """The inputs of one run, from the workload seed alone."""
    if workload == "cli-suite":
        return cli_items(seed, root, n_items)
    if workload == "refine-ladder":
        return ladder_items(seed, n_items)
    profiles = pole_items(seed, max(1, n_items // POLE_PASSES))
    return profiles * POLE_PASSES


def warm_up(g, workload: str, items: list) -> None:
    """Warm up on small inputs: the bundled scenarios are loaded and
    parsed, a ladder runs its smallest rung, the strip runs one profile."""
    if workload == "cli-suite":
        for name in sorted({item.name for item in items}):
            g.scenarios.load_scenario(name)
    elif workload == "refine-ladder":
        run_ladder(g, items[0], LADDER[:1])
    else:
        run_pole(g, g.GridSpec(**STRIP), items[0])


# ---------------------------------------------------------------- helpers

def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_TIMEOUT_S:.0f} s")


def guarded(fn, *args):
    """Call ``fn`` with a wall-clock limit; raises ItemTimeout on expiry."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def out_dir(root: Path) -> Path:
    """Fresh directory for CLI output under the checkout's build area."""
    base = root / ".bench_build"
    base.mkdir(exist_ok=True)
    path = base / f"cli-out-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path
