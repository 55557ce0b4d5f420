"""Scenario configs and the verification pipelines they drive.

A scenario is an INI file with a [scenario] section naming one
pipeline, a [grid] section, expression strings for the fields involved,
imaginary integration constants, and optional tolerance overrides.
Each pipeline runs its checks and writes a deterministic JSON report
plus CSV dumps of the key output grids.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import reporting
from .conformal import HolomorphicChart, check_commutativity
from .errors import ExactnessError, GalabError, NonFiniteFieldError, ScenarioError
from .expressions import as_function_of_z, constant_value, evaluate_on_grid, \
    parse_expression
from .grid import Field, GridSpec, _peak_abs, _scrub, dz as dz_op, residual, write_csv
from .moutard import (SeedSet, compose_simple, invert_simple, moutard_rank_n,
                      moutard_simple, seed_annihilation_max, transformed_potential)
from .potential import REAL_DRIFT_TOL, Potential, loop_defect, omega
from .series import (FunctionOnInterval, PoleProfile, pole_order_check,
                     meromorphic_certify, series_residual, solve_recursion)
from .singularity import remove_pole, synthesize_seeds, synthesize_singular_u

_DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "loop_defect": 1e-8,
    "expect": 1e-9,
    "residual_after": 1e-8,
    "potential_identity": 1e-7,
    "re_omega": 1e-9,
    "seed_annihilation": 1e-10,
    "agreement": 1e-8,
    "roundtrip": 1e-10,
    "commutativity": 1e-8,
    "defects": 1e-12,
    "worst_y": None,  # defaults to one cell of the check grid
}


@dataclass
class Scenario:
    name: str
    pipeline: str
    claim: str
    grid: GridSpec | None
    basepoint: tuple[int, int]
    expressions: dict[str, str]
    constants: dict[str, complex]
    chart: dict[str, str]
    profile: dict[str, object]
    tolerances: dict[str, float]
    expect: dict[str, str]
    source: str = ""

    def tol(self, key: str) -> float:
        if key in self.tolerances:
            return self.tolerances[key]
        return _DEFAULT_TOLERANCES[key]

    def expression(self, key: str) -> str:
        if key not in self.expressions:
            raise ScenarioError(
                f"scenario {self.name!r}: pipeline {self.pipeline!r} needs "
                f"expression {key!r}")
        return self.expressions[key]

    def require_grid(self) -> GridSpec:
        if self.grid is None:
            raise ScenarioError(
                f"scenario {self.name!r}: pipeline {self.pipeline!r} needs "
                f"a [grid] section")
        return self.grid

    def field(self, key: str) -> Field:
        grid = self.require_grid()
        try:
            return Field(grid, _scrub(grid, evaluate_on_grid(self.expression(key), grid)))
        except NonFiniteFieldError as exc:
            raise ScenarioError(
                f"scenario {self.name!r}: expression {key!r}: {exc}") from exc

    def constant(self, key: str) -> complex:
        return self.constants.get(key, 0.0)


def bundled_scenarios() -> list[str]:
    root = resources.files("galab").joinpath("scenarios")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def _scenario_text(ref: str) -> tuple[str, str]:
    path = Path(ref)
    if path.exists():
        return path.read_text(), str(path)
    res = resources.files("galab").joinpath("scenarios", f"{ref}.ini")
    if res.is_file():
        return res.read_text(), f"bundled:{ref}"
    raise ScenarioError(f"scenario {ref!r} not found (no such file or bundled name)")


def load_scenario(ref: str, grid_override: tuple[int, int] | None = None,
                  tol_override: float | None = None,
                  order_override: int | None = None) -> Scenario:
    """Load a scenario from a path or a bundled name."""
    text, source = _scenario_text(ref)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario {ref!r}: {exc}") from exc
    if "scenario" not in parser:
        raise ScenarioError(f"scenario {ref!r} has no [scenario] section")
    meta = parser["scenario"]
    name = meta.get("name", Path(ref).stem)
    pipeline = meta.get("pipeline", "")
    if pipeline not in PIPELINES:
        raise ScenarioError(f"scenario {name!r}: unknown pipeline {pipeline!r}")

    grid = None
    basepoint = (0, 0)
    if "grid" in parser:
        gsec = parser["grid"]
        try:
            kwargs = dict(
                x_min=gsec.getfloat("x_min"), x_max=gsec.getfloat("x_max"),
                y_min=gsec.getfloat("y_min"), y_max=gsec.getfloat("y_max"),
                nx=gsec.getint("nx"), ny=gsec.getint("ny"))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"scenario {name!r}: bad [grid] section: {exc}")
        if gsec.get("excluded_band") is not None:
            kwargs["excluded_band"] = gsec.getfloat("excluded_band")
        if grid_override is not None:
            kwargs["nx"], kwargs["ny"] = grid_override
        if min(kwargs["nx"], kwargs["ny"]) < 5:  # the stencils' width
            raise ScenarioError(f"scenario {name!r}: grid needs >= 5 nodes per axis")
        try:
            grid = GridSpec(**kwargs)
        except ValueError as exc:
            raise ScenarioError(f"scenario {name!r}: invalid grid: {exc}")
        if gsec.get("basepoint"):
            try:
                i, j = (int(v) for v in gsec.get("basepoint").split(","))
            except ValueError as exc:
                raise ScenarioError(
                    f"scenario {name!r}: basepoint must be i,j: {exc}")
            if not (0 <= i < grid.nx and 0 <= j < grid.ny):
                raise ScenarioError(
                    f"scenario {name!r}: basepoint {i},{j} is off the grid")
            basepoint = (i, j)

    constants = {}
    if "constants" in parser:
        for key, val in parser["constants"].items():
            try:
                constants[key] = constant_value(val)
            except GalabError as exc:
                raise ScenarioError(
                    f"scenario {name!r}: bad constant {key!r}: {exc}")
            if abs(constants[key].real) > REAL_DRIFT_TOL:
                raise ScenarioError(
                    f"scenario {name!r}: constant {key!r} is not imaginary")

    expressions = dict(parser["expressions"]) if "expressions" in parser else {}
    for key, src in expressions.items():
        try:
            parse_expression(src)
        except GalabError as exc:
            raise ScenarioError(
                f"scenario {name!r}: expression {key!r} does not parse: {exc}")

    tolerances = {}
    if "tolerances" in parser:
        for key, val in parser["tolerances"].items():
            try:
                tolerances[key] = float(val)
            except ValueError as exc:
                raise ScenarioError(f"scenario {name!r}: bad tolerance {key!r}: {exc}")
    if tol_override is not None:
        tolerances[PIPELINES[pipeline][1]] = tol_override
    for key, val in tolerances.items():
        if not (math.isfinite(val) and val >= 0):
            raise ScenarioError(
                f"scenario {name!r}: tolerance {key!r} = {val} is not >= 0")

    profile: dict[str, object] = {}
    if "profile" in parser:
        profile = _parse_profile_section(parser["profile"], name)
    if order_override is not None:
        profile["order"] = order_override
    if profile.get("order", 0) < 0:
        raise ScenarioError(f"scenario {name!r}: order {profile['order']} is below 0")

    return Scenario(name=name, pipeline=pipeline, claim=meta.get("claim", ""),
                    grid=grid, basepoint=basepoint, expressions=expressions,
                    constants=constants,
                    chart=dict(parser["chart"]) if "chart" in parser else {},
                    profile=profile, tolerances=tolerances,
                    expect=dict(parser["expect"]) if "expect" in parser else {},
                    source=source)


def _parse_profile_section(sec, name: str) -> dict[str, object]:
    out: dict[str, object] = {}
    if sec.get("interval") is None:
        raise ScenarioError(f"scenario {name!r}: [profile] needs interval = a,b")
    try:
        a, b = (float(v) for v in sec.get("interval").split(","))
        out["order"] = int(sec.get("order", "8"))
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: bad [profile] section: {exc}")
    out["interval"] = (a, b)
    for key, val in sec.items():
        if key in ("interval", "order"):
            continue
        out[key] = _parse_function(val, (a, b), name, key)
        if (key in ("beta_minus1", "beta_plus_minus1", "im_beta1")
                and not out[key].is_real(1e-12)):
            raise ScenarioError(f"scenario {name!r}: {key!r} must be real-valued")
    return out


def _parse_function(text: str, interval, scenario_name: str,
                    key: str) -> FunctionOnInterval:
    kind, _, body = text.partition(":")
    kind = kind.strip()
    values = []
    for item in body.split(","):
        item = item.strip()
        if item:
            try:
                values.append(constant_value(item))
            except GalabError as exc:
                raise ScenarioError(
                    f"scenario {scenario_name!r}: bad coefficient in {key!r}: {exc}")
    make = {"poly": FunctionOnInterval.from_poly,
            "samples": FunctionOnInterval.from_samples}.get(kind)
    if make is not None:
        try:
            return make(values, interval)
        except ValueError as exc:  # degree cap, too few samples, non-finite
            raise ScenarioError(
                f"scenario {scenario_name!r}: bad function {key!r}: {exc}")
    raise ScenarioError(
        f"scenario {scenario_name!r}: function {key!r} must start with "
        f"'poly:' or 'samples:'")


# ---------------------------------------------------------------------------
# pipeline runners

class _Checks:
    """Accumulates named pass/fail checks for the report."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, value: float, threshold: float) -> None:
        self.items.append({"name": name, "value": float(value),
                           "threshold": float(threshold),
                           "passed": bool(value <= threshold)})

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        item = {"name": name, "passed": bool(ok)}
        if detail:
            item["detail"] = detail
        self.items.append(item)

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.items)


def _expect_deviation(scn: Scenario, checks: _Checks, name: str,
                      values: np.ndarray) -> None:
    if name not in scn.expect:
        return
    expected = evaluate_on_grid(scn.expect[name], scn.grid)
    dev = float(_peak_abs(scn.grid, values - expected))
    checks.add(f"expect_{name}", dev, scn.tol("expect"))


def _grid_json(grid: GridSpec | None) -> dict | None:
    if grid is None:
        return None
    out = {"x_min": grid.x_min, "x_max": grid.x_max, "y_min": grid.y_min,
           "y_max": grid.y_max, "nx": grid.nx, "ny": grid.ny}
    if grid.excluded_band is not None:
        out["excluded_band"] = grid.excluded_band
    return out


def run_residual(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    u = scn.field("u")
    psi = scn.field("psi")
    metrics = {"residual_direct": residual(u, psi, "direct")}
    checks.add("residual_direct", metrics["residual_direct"], scn.tol("residual"))
    if "psi_plus" in scn.expressions:
        psi_plus = scn.field("psi_plus")
        metrics["residual_conjugate"] = residual(u, psi_plus, "conjugate")
        checks.add("residual_conjugate", metrics["residual_conjugate"],
                   scn.tol("residual"))
    return metrics


def run_potential(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    psi = scn.field("psi")
    psi_plus = scn.field("psi_plus")
    metrics: dict = {"loop_defect": loop_defect(psi, psi_plus)}
    if "loop_defect" in scn.expect:
        target = float(constant_value(scn.expect["loop_defect"]).real)
        checks.add("loop_defect_matches", abs(metrics["loop_defect"] - target),
                   scn.tol("loop_defect"))
    else:
        checks.add("loop_defect", metrics["loop_defect"], scn.tol("loop_defect"))
    expect_error = scn.expect.get("exactness_error", "").lower() == "true"
    try:
        pot = omega(psi, psi_plus, scn.basepoint, scn.constant("constant"))
    except ExactnessError as exc:
        metrics["exactness_error"] = str(exc)
        checks.require("exactness_error_raised", expect_error, str(exc))
        return metrics
    if expect_error:
        checks.require("exactness_error_raised", False,
                       "expected ExactnessError was not raised")
        return metrics
    metrics.update(pot.summary())
    checks.add("max_real_drift", pot.real_drift, 1e-10)
    _expect_deviation(scn, checks, "omega", pot.values)
    dumps["omega"] = pot.values
    return metrics


def _pair_omegas(scn: Scenario, fields: dict[str, Field],
                 *pairs: str) -> list[Potential]:
    """Potential of each "a b" field pair, with the scenario constant
    omega_<a>_<b> where ``_plus`` is written ``p`` ("psi f1_plus" reads
    omega_psi_f1p)."""
    return [omega(fields[a], fields[b], scn.basepoint,
                  scn.constant(f"omega_{a}_{b.replace('_plus', 'p')}"))
            for a, b in map(str.split, pairs)]


def run_transform(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    fields = {k: scn.field(k) for k in "u f1 f1_plus psi".split()}
    u, f1, f1_plus, psi = fields.values()
    om_ff, om_pf = _pair_omegas(scn, fields, "f1 f1_plus", "psi f1_plus")
    result = moutard_simple(u, f1, f1_plus, om_ff)
    psi_t = result.map_psi(psi, om_pf)
    metrics = {
        "n_seeds": 1,
        "det_omega_min": result.det_min,
        "residual_before": residual(u, psi, "direct"),
        "residual_after": residual(result.u_tilde, psi_t, "direct"),
        "seed_annihilation_max": result.map_psi(f1, om_ff).max_abs(),
    }
    checks.add("residual_after", metrics["residual_after"],
               scn.tol("residual_after"))
    checks.add("seed_annihilation", metrics["seed_annihilation_max"],
               scn.tol("seed_annihilation"))
    _expect_deviation(scn, checks, "u_tilde", result.u_tilde.values)
    _expect_deviation(scn, checks, "psi_tilde", psi_t.values)
    if "psi_plus" in scn.expressions:
        psi_plus = fields["psi_plus"] = scn.field("psi_plus")
        om_fp, om_pp = _pair_omegas(scn, fields, "f1 psi_plus", "psi psi_plus")
        psi_plus_t = result.map_psi_plus(psi_plus, om_fp)
        metrics["residual_after_conjugate"] = residual(result.u_tilde, psi_plus_t,
                                                       "conjugate")
        checks.add("residual_after_conjugate",
                   metrics["residual_after_conjugate"], scn.tol("residual_after"))
        om_t = transformed_potential(om_pp, om_pf, om_fp, om_ff)
        defect = float(_peak_abs(scn.grid, dz_op(Field(scn.grid, om_t.values)).values
                                 - psi_t.values * psi_plus_t.values))
        metrics["transformed_potential_defect"] = defect
        metrics["transformed_potential_re_max"] = float(_peak_abs(scn.grid, om_t.values.real))
        checks.add("transformed_potential_defect", defect, scn.tol("potential_identity"))
        checks.add("transformed_potential_re_max",
                   metrics["transformed_potential_re_max"], scn.tol("re_omega"))
    dumps["u_tilde"] = result.u_tilde.values
    dumps["psi_tilde"] = psi_t.values
    return metrics


def run_compose(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    fields = {k: scn.field(k) for k in "u f1 f1_plus f2 f2_plus psi".split()}
    u, f1, f1p, f2, f2p, psi = fields.values()
    om11, om21, om12, om22, om_p1, om_p2 = _pair_omegas(
        scn, fields, "f1 f1_plus", "f2 f1_plus", "f1 f2_plus", "f2 f2_plus",
        "psi f1_plus", "psi f2_plus")

    seedset = SeedSet.build(u, [(f1, f1p), (f2, f2p)], [[om11, om21], [om12, om22]])
    rank2 = moutard_rank_n(seedset)
    composed = compose_simple(u, f1, f1p, f2, f2p, om11, om21, om12, om22)

    u_a, u_b = rank2.u_tilde, composed.u_tilde
    dev_u = float(_peak_abs(scn.grid, u_a.values - u_b.values)) / max(u_a.max_abs(), 1.0)
    psi_a = rank2.map_psi(psi, [om_p1, om_p2])
    psi_b = composed.map_psi(psi, [om_p1, om_p2])
    dev_p = float(_peak_abs(scn.grid, psi_a.values - psi_b.values)) / max(psi_a.max_abs(), 1.0)
    metrics = {
        "n_seeds": 2,
        "det_omega_min": rank2.det_min,
        "u_agreement": dev_u,
        "psi_agreement": dev_p,
        "seed_annihilation_max": seed_annihilation_max(rank2, seedset),
        "residual_before": residual(u, psi, "direct"),
        "residual_after": residual(rank2.u_tilde, psi_a, "direct"),
    }
    checks.add("u_agreement", dev_u, scn.tol("agreement"))
    checks.add("psi_agreement", dev_p, scn.tol("agreement"))
    dumps["u_tilde"] = rank2.u_tilde.values
    return metrics


def run_invert(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    fields = {k: scn.field(k) for k in "u f1 f1_plus psi psi_plus".split()}
    u, f1, f1p, psi, psi_plus = fields.values()
    om_ff, om_pf, om_fp = _pair_omegas(scn, fields, "f1 f1_plus", "psi f1_plus",
                                       "f1 psi_plus")

    m1 = moutard_simple(u, f1, f1p, om_ff)
    psi_t = m1.map_psi(psi, om_pf)
    psi_plus_t = m1.map_psi_plus(psi_plus, om_fp)
    inv = invert_simple(m1, f1, f1p, om_ff)
    psi_back = inv.map_psi(psi_t, om_pf)
    psi_plus_back = inv.map_psi_plus(psi_plus_t, om_fp)

    def rel(a: Field, b: Field) -> float:
        return float(_peak_abs(scn.grid, a.values - b.values)) / max(b.max_abs(), 1.0)

    metrics = {
        "roundtrip_u": rel(inv.u_tilde, u),
        "roundtrip_psi": rel(psi_back, psi),
        "roundtrip_psi_plus": rel(psi_plus_back, psi_plus),
    }
    for key, value in metrics.items():
        checks.add(key, value, scn.tol("roundtrip"))
    _expect_deviation(scn, checks, "psi_tilde", psi_t.values)
    dumps["psi_roundtrip"] = psi_back.values
    return metrics


def run_conformal(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    for key in ("forward", "derivative", "inverse"):
        if key not in scn.chart:
            raise ScenarioError(
                f"scenario {scn.name!r}: [chart] needs {key!r}")
    chart = HolomorphicChart(
        forward=as_function_of_z(scn.chart["forward"]),
        derivative=as_function_of_z(scn.chart["derivative"]),
        inverse=as_function_of_z(scn.chart["inverse"]),
        strip=scn.require_grid())
    kwargs = {}
    if "omega_ff_z" in scn.chart:
        kwargs["d_side_omega_ff"] = as_function_of_z(scn.chart["omega_ff_z"])
        kwargs["d_side_omega_pf"] = as_function_of_z(scn.chart["omega_pf_z"])
    result = check_commutativity(
        chart,
        as_function_of_z(scn.expression("u")),
        as_function_of_z(scn.expression("f1")),
        as_function_of_z(scn.expression("f1_plus")),
        as_function_of_z(scn.expression("psi")),
        basepoint=scn.basepoint,
        constant_ff=scn.constant("omega_f1_f1p"),
        constant_pf=scn.constant("omega_psi_f1p"), **kwargs)
    metrics = {"u_deviation": result.u_deviation,
               "psi_deviation": result.psi_deviation}
    checks.add("u_deviation", result.u_deviation, scn.tol("commutativity"))
    checks.add("psi_deviation", result.psi_deviation, scn.tol("commutativity"))
    return metrics


def _profile_from_scenario(scn: Scenario) -> PoleProfile:
    prof = scn.profile
    if not prof:
        raise ScenarioError(f"scenario {scn.name!r}: needs a [profile] section")
    if "phi" not in prof:
        raise ScenarioError(f"scenario {scn.name!r}: [profile] needs phi")
    r = {}
    for key, value in prof.items():
        if key.startswith("r") and key[1:].lstrip("-").isdigit():
            r[int(key[1:])] = value
    if -1 not in r:
        raise ScenarioError(f"scenario {scn.name!r}: [profile] needs r-1")
    return PoleProfile(prof["phi"], r, n=1)


def run_series(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    profile = _profile_from_scenario(scn)
    metrics: dict = {}
    order_res = pole_order_check(profile, n_prime=1)
    metrics["order_constraints"] = order_res.to_json()
    if "order_constraints" in scn.expect:
        want_pass = scn.expect["order_constraints"] == "pass"
        checks.require("order_constraints", order_res.ok == want_pass,
                       order_res.condition)
    cert = meromorphic_certify(profile)
    metrics["certificate"] = cert.to_json()
    want = scn.expect.get("certify", "pass")
    if want == "pass":
        checks.require("certify", cert.ok, cert.condition)
    else:
        detail = want.partition(":")[2]
        checks.require("certify_rejects", (not cert.ok)
                       and detail in cert.condition, cert.condition)
        if "worst_y" in scn.expect:
            target = float(scn.expect["worst_y"])
            cell = scn.tolerances.get("worst_y")
            if cell is None:
                a, b = profile.phi.interval
                cell = (b - a) / (len(profile.phi.nodes()) - 1)
            checks.add("worst_y_localized", abs(cert.worst_y - target), cell)
        return metrics

    if "beta_minus1" in scn.profile:
        order = int(scn.profile["order"])
        zero = FunctionOnInterval.constant(0.0, profile.phi)
        series = solve_recursion(profile, scn.profile["beta_minus1"],
                                 scn.profile.get("im_beta1", zero), order)
        defects = series_residual(profile, series)
        metrics["series"] = series.to_json()
        metrics["defects"] = defects
        checks.add("series_defects", max(defects), scn.tol("defects"))
    return metrics


def run_remove_pole(scn: Scenario, checks: _Checks, dumps: dict) -> dict:
    profile = _profile_from_scenario(scn)
    if scn.grid is None or scn.grid.excluded_band is None:
        raise ScenarioError(
            f"scenario {scn.name!r}: remove-pole needs a grid with excluded_band")
    if "beta_minus1" not in scn.profile or "beta_plus_minus1" not in scn.profile:
        raise ScenarioError(
            f"scenario {scn.name!r}: [profile] needs beta_minus1 and "
            f"beta_plus_minus1")
    order = int(scn.profile["order"])
    u_star, _ = synthesize_singular_u(profile, scn.grid)
    f_star, f_star_plus = synthesize_seeds(
        profile, scn.profile["beta_minus1"], scn.profile["beta_plus_minus1"],
        scn.grid, order)
    flat_tol = scn.tolerances.get("flat")
    result = remove_pole(u_star, f_star, f_star_plus,
                         scn.constant("constant"), flat_tol=flat_tol)
    metrics = result.to_json()
    checks.require("verdict", result.passed, result.verdict)
    if flat_tol is not None:
        sup_full = result.u_tilde.max_abs()
        metrics["sup_full_strip"] = sup_full
        checks.add("flat_cancellation", sup_full, flat_tol)
    dumps["u_tilde"] = result.u_tilde.values
    dumps["omega"] = result.omega.values
    return metrics


#: pipeline name -> (runner, the tolerance key the --tol flag overrides),
#: in the order ``galab --help`` lists the subcommands
PIPELINES = {
    "residual": (run_residual, "residual"),
    "potential": (run_potential, "loop_defect"),
    "transform": (run_transform, "residual_after"),
    "compose": (run_compose, "agreement"),
    "invert": (run_invert, "roundtrip"),
    "conformal": (run_conformal, "commutativity"),
    "series": (run_series, "defects"),
    "remove-pole": (run_remove_pole, "flat"),
}


def run_scenario(scn: Scenario, out_dir: str | Path) -> tuple[int, Path]:
    """Run one scenario; returns (exit_code, report_path).

    Exit code 0 when every check passes, 2 when any fails or a model
    error stops the pipeline.  Configuration problems raise
    ScenarioError (the CLI maps those to exit code 1).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks = _Checks()
    dumps: dict[str, np.ndarray] = {}
    error = None
    try:
        metrics = PIPELINES[scn.pipeline][0](scn, checks, dumps)
    except ScenarioError:
        raise
    except GalabError as exc:
        metrics = {}
        error = f"{type(exc).__name__}: {exc}"
        checks.require("pipeline_completed", False, error)
    report = {
        "schema": reporting.SCHEMA_VERSION,
        "name": scn.name,
        "pipeline": scn.pipeline,
        "claim": scn.claim,
        "grid": _grid_json(scn.grid),
        "metrics": metrics,
        "checks": checks.items,
        "passed": checks.passed,
    }
    if error is not None:
        report["error"] = error
    report_path = out / f"{scn.name}.report.json"
    with open(report_path, "w") as fh:
        reporting.dump(report, fh)
    for field_name, values in dumps.items():
        write_csv(out / f"{scn.name}.{field_name}.csv", scn.grid, values)
    return (0 if checks.passed else 2), report_path
