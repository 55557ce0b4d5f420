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
import re
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import reporting
from .errors import ExactnessError, GalabError, NonFiniteFieldError, ScenarioError
from .expressions import as_function_of_z, constant_value, evaluate_on_grid, \
    parse_expression
from .grid import Field, GridSpec, _peak_abs, _scrub, dz as dz_op, residual, write_csv
from .potential import REAL_DRIFT_TOL, loop_defect, omega

_DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "loop_defect": 1e-8,
    "expect": 1e-9,
    "residual_after": 1e-8,
    "potential_identity": 1e-7,
    "seed_annihilation": 1e-10,
    "agreement": 1e-8,
    "roundtrip": 1e-10,
    "commutativity": 1e-8,
    "defects": 1e-12,
}


@dataclass
class Scenario:
    name: str
    pipeline: str
    claim: str
    grid: GridSpec | None
    basepoint: tuple[int, int]
    expressions: dict[str, object]  # parsed expressions
    constants: dict[str, complex]
    chart: dict[str, object]
    profile: dict[str, object]  # order, the PoleProfile as "pole", seed functions
    tolerances: dict[str, float]  # the defaults, updated by the file's
    expect: dict[str, object]  # parsed expressions and words

    def field(self, key: str) -> Field:
        grid = self.grid
        try:
            return Field(grid, _scrub(grid, evaluate_on_grid(self.expressions[key], grid)))
        except NonFiniteFieldError as exc:
            raise ScenarioError(
                f"scenario {self.name!r}: expression {key!r}: {exc}") from exc

    def constant(self, key: str) -> complex:
        return self.constants.get(key, 0.0)


def bundled_scenarios() -> list[str]:
    root = resources.files("galab").joinpath("scenarios")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def _scenario_text(ref: str) -> str:
    path = Path(ref)
    if path.exists():
        return path.read_text()
    res = resources.files("galab").joinpath("scenarios", f"{ref}.ini")
    if res.is_file():
        return res.read_text()
    raise ScenarioError(f"scenario {ref!r} not found (no such file or bundled name)")


def load_scenario(ref: str, overrides: dict[str, dict[str, str]] | None = None) -> Scenario:
    """Load a scenario from a path or a bundled name; ``overrides``
    ({section: {key: text}}, the CLI flags) is merged into the file's
    text and read and checked as if it were written there."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_scenario_text(ref))
        parser.read_dict(overrides or {})
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario {ref!r}: {exc}") from exc
    if "scenario" not in parser:
        raise ScenarioError(f"scenario {ref!r} has no [scenario] section")
    meta = parser["scenario"]
    name = meta.get("name", Path(ref).stem)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"scenario name {name!r} is not a plain file name")
    pipeline = meta.get("pipeline", "")
    if pipeline not in PIPELINES:
        raise ScenarioError(f"scenario {name!r}: unknown pipeline {pipeline!r}")

    reads = {"DEFAULT": "", "scenario": "name? pipeline claim?", **PIPELINES[pipeline][1]}
    # [DEFAULT] first, before its keys show in every section; then the
    # sections the pipeline reads that the file lacks
    for section in dict.fromkeys([*parser, *reads]):
        if section not in reads:
            raise ScenarioError(f"scenario {name!r}: pipeline {pipeline!r} reads no [{section}]")
        keys, given = reads[section].split(), parser[section] if section in parser else {}
        for key in given:
            if re.sub(r"^r-?[0-9]+$", "r<j>", key) not in {k.rstrip("?") for k in keys}:
                raise ScenarioError(f"scenario {name!r}: pipeline {pipeline!r} "
                                    f"reads no [{section}] key {key!r}")
        for key in keys if section not in ("constants", "tolerances", "expect") else ():
            if not key.endswith("?") and key not in given:
                raise ScenarioError(f"scenario {name!r}: [{section}] needs {key!r}")

    grid = None
    basepoint = (0, 0)
    if "grid" in parser:
        gsec = parser["grid"]
        try:
            kwargs = {k: float(gsec[k]) for k in ("x_min", "x_max", "y_min", "y_max")}
            kwargs.update(nx=int(gsec["nx"]), ny=int(gsec["ny"]))
            if "excluded_band" in gsec:
                kwargs["excluded_band"] = float(gsec["excluded_band"])
            i, j = (int(v) for v in gsec.get("basepoint", "0,0").split(","))
        except ValueError as exc:
            raise ScenarioError(f"scenario {name!r}: bad [grid] section: {exc}")
        if min(kwargs["nx"], kwargs["ny"]) < 5:  # the stencils' width
            raise ScenarioError(f"scenario {name!r}: grid needs >= 5 nodes per axis")
        try:
            grid = GridSpec(**kwargs)
        except ValueError as exc:
            raise ScenarioError(f"scenario {name!r}: invalid grid: {exc}")
        if not (0 <= i < grid.nx and 0 <= j < grid.ny):
            raise ScenarioError(f"scenario {name!r}: basepoint {i},{j} is off the grid")
        basepoint = (i, j)

    constants = {}
    for key, val in parser["constants"].items() if "constants" in parser else ():
        try:
            constants[key] = constant_value(val)
        except GalabError as exc:
            raise ScenarioError(
                f"scenario {name!r}: bad constant {key!r}: {exc}")
        if abs(constants[key].real) > REAL_DRIFT_TOL:
            raise ScenarioError(
                f"scenario {name!r}: constant {key!r} is not imaginary")

    expressions, chart = _parsed(parser, "expressions", name), _parsed(parser, "chart", name)
    if ("omega_ff_z" in chart) != ("omega_pf_z" in chart):
        raise ScenarioError(
            f"scenario {name!r}: [chart] needs omega_ff_z and omega_pf_z together")

    tolerances = dict(_DEFAULT_TOLERANCES)
    for key, text in parser["tolerances"].items() if "tolerances" in parser else ():
        tolerances[key] = val = _number(name, f"tolerance {key!r}", text)
        if val < 0:
            raise ScenarioError(f"scenario {name!r}: tolerance {key!r} = {val} is not >= 0")

    profile = _parse_profile_section(parser["profile"], name) if "profile" in parser else {}
    if profile.get("order", 0) < 0:
        raise ScenarioError(f"scenario {name!r}: order {profile['order']} is below 0")
    if grid is not None and profile:  # the seed functions share phi's nodes
        try:
            profile["phi"].values_on(grid.ys)
        except GalabError as exc:
            raise ScenarioError(f"scenario {name!r}: [profile] does not fit the [grid]: {exc}")

    expect = dict(parser["expect"]) if "expect" in parser else {}
    if "worst_y" in expect:
        _number(name, "worst_y", expect["worst_y"])
    for key, words, text in (("certify", "pass|fail:.*", "pass or fail:<condition>"),
                             ("order_constraints", "pass|fail", "pass or fail"),
                             ("exactness_error", "(?i:true|false)", "true or false")):
        if key in expect and not re.fullmatch(words, expect[key]):
            raise ScenarioError(f"scenario {name!r}: [expect] {key} must be {text}")
    if "worst_y" in expect and not expect.get("certify", "").startswith("fail:"):
        raise ScenarioError(f"scenario {name!r}: [expect] worst_y needs certify = fail:...")
    if parser.has_option("tolerances", "worst_y") and "worst_y" not in expect:
        raise ScenarioError(f"scenario {name!r}: [tolerances] worst_y needs [expect] worst_y")
    # keys a run skips: after an expected refusal, or where closed forms fix the constants
    for skips, text, keys in (
            (expect.get("certify", "").startswith("fail:"), "certify = fail:...",
             (("profile", "beta_minus1"), ("tolerances", "defects"))),
            (expect.get("exactness_error", "").lower() == "true", "exactness_error = true",
             (("expect", "omega"), ("constants", "constant"))),
            ("omega_ff_z" in chart, "[chart] omega_ff_z",
             (("constants", "omega_f1_f1p"), ("constants", "omega_psi_f1p")))):
        for section, key in keys if skips else ():
            if parser.has_option(section, key):
                raise ScenarioError(f"scenario {name!r}: [{section}] {key} is not read "
                                    f"with {text}")
    for key in ("im_beta1", "order"):  # read by the recursion, which needs beta_minus1
        if parser.has_option("profile", key) and "beta_minus1" not in profile:
            raise ScenarioError(f"scenario {name!r}: [profile] {key} needs beta_minus1")
    expect.update(_parsed(parser, "expect", name,
                          ("omega", "u_tilde", "psi_tilde", "loop_defect")))
    if "loop_defect" in expect:
        try:
            value = constant_value(expect["loop_defect"])
        except GalabError as exc:
            raise ScenarioError(f"scenario {name!r}: [expect] loop_defect: {exc}")
        if abs(value.imag) > REAL_DRIFT_TOL:  # a loop defect is real
            raise ScenarioError(f"scenario {name!r}: [expect] loop_defect is not real")
        expect["loop_defect"] = _number(name, "[expect] loop_defect", value.real)

    return Scenario(name=name, pipeline=pipeline, claim=meta.get("claim", ""),
                    grid=grid, basepoint=basepoint, expressions=expressions,
                    constants=constants, chart=chart, profile=profile,
                    tolerances=tolerances, expect=expect)


def _parsed(parser, section: str, name: str, keys=None) -> dict[str, object]:
    """The section's expressions (``keys`` only, if given), parsed once; a
    syntax error is a configuration error."""
    out = {}
    for key, src in (parser[section].items() if section in parser else ()):
        if keys is not None and key not in keys:
            continue
        try:
            out[key] = parse_expression(src)
        except GalabError as exc:
            raise ScenarioError(
                f"scenario {name!r}: [{section}] {key!r} does not parse: {exc}")
    return out


def _number(name: str, what: str, text: str | float) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: bad {what}: {exc}")
    if not math.isfinite(value):
        raise ScenarioError(f"scenario {name!r}: {what} = {value} is not finite")
    return value


def _parse_profile_section(sec, name: str) -> dict[str, object]:
    """The pole profile and the section's seed functions, built and
    checked against phi."""
    from .series import DEFAULT_ORDER, PoleProfile, _check_seed
    r = {}
    try:
        a, b = (float(v) for v in sec["interval"].split(","))
        out: dict[str, object] = {"order": int(sec.get("order", DEFAULT_ORDER))}
        for key, val in sec.items():
            if key in ("interval", "order"):
                continue
            fn = _parse_function(val, (a, b), name, key)
            if index := re.fullmatch(r"r(-?[0-9]+)", key):
                r[int(index[1])] = fn
            else:
                out[key] = fn
        out["pole"] = PoleProfile(out["phi"], r)  # checks each r_j against phi
        for key in sorted(out.keys() - {"order", "phi", "pole"}):
            _check_seed(out["phi"], out[key], key)
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: bad [profile] section: {exc}")
    return out


def _parse_function(text: str, interval, scenario_name: str,
                    key: str) -> FunctionOnInterval:
    from .series import FunctionOnInterval
    kind, _, body = text.partition(":")
    make = {"poly": FunctionOnInterval.from_poly,
            "samples": FunctionOnInterval.from_samples}.get(kind.strip())
    if make is None:
        raise ScenarioError(
            f"scenario {scenario_name!r}: function {key!r} must start with "
            f"'poly:' or 'samples:'")
    try:
        return make([constant_value(item) for item in map(str.strip, body.split(",")) if item],
                    interval)
    except (GalabError, ValueError) as exc:  # a bad coefficient, degree cap, too few samples
        raise ScenarioError(f"scenario {scenario_name!r}: bad function {key!r}: {exc}")


# ---------------------------------------------------------------------------
# pipeline runners

class _Checks:
    """The record of one run of a scenario: its metrics, its named
    pass/fail checks and the grids to dump as CSV."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.metrics: dict = {}
        self.items: list[dict] = []
        self.dumps: dict[str, np.ndarray] = {}

    def add(self, name: str, value: float, threshold: float | str) -> None:
        """Check value <= threshold, a number or a tolerance key."""
        if isinstance(threshold, str):
            threshold = self.scn.tolerances[threshold]
        self.items.append({"name": name, "value": float(value),
                           "threshold": float(threshold),
                           "passed": bool(value <= threshold)})

    def measure(self, name: str, value: float, key: str) -> None:
        """Record a metric and its same-named check against tolerance ``key``."""
        self.metrics[name] = float(value)
        self.add(name, value, key)

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        item = {"name": name, "passed": bool(ok)}
        if detail:
            item["detail"] = detail
        self.items.append(item)

    def expect(self, name: str, values: np.ndarray) -> None:
        """Check values against the scenario's [expect] expression ``name``, if any."""
        if name in self.scn.expect:
            grid = self.scn.grid
            expected = evaluate_on_grid(self.scn.expect[name], grid)
            self.add(f"expect_{name}", _peak_abs(grid, values - expected), "expect")

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.items)


def _rel(a: Field, ref: Field) -> float:
    """Peak |a - ref| over active nodes, relative to max(max |ref|, 1)."""
    return float(_peak_abs(ref.grid, a.values - ref.values)) / max(ref.max_abs(), 1.0)


def run_residual(scn: Scenario, run: _Checks) -> None:
    u, psi = scn.field("u"), scn.field("psi")
    run.measure("residual_direct", residual(u, psi, "direct"), "residual")
    if "psi_plus" in scn.expressions:
        run.measure("residual_conjugate", residual(u, scn.field("psi_plus"), "conjugate"),
                    "residual")


def run_potential(scn: Scenario, run: _Checks) -> None:
    psi, psi_plus = scn.field("psi"), scn.field("psi_plus")
    run.metrics["loop_defect"] = defect = loop_defect(psi, psi_plus)
    if "loop_defect" in scn.expect:
        run.add("loop_defect_matches", abs(defect - scn.expect["loop_defect"]),
                "loop_defect")
    else:
        run.add("loop_defect", defect, "loop_defect")
    expect_error = scn.expect.get("exactness_error", "").lower() == "true"
    try:
        pot = omega(psi, psi_plus, scn.basepoint, scn.constant("constant"))
    except ExactnessError as exc:
        run.metrics["exactness_error"] = str(exc)
        run.require("exactness_error_raised", expect_error, str(exc))
        return
    if expect_error:
        run.require("exactness_error_raised", False, "expected ExactnessError was not raised")
        return
    run.metrics.update(pot.summary())
    run.add("max_real_drift", pot.real_drift, 1e-10)
    run.expect("omega", pot.values)
    run.dumps["omega"] = pot.values


def _inputs(scn: Scenario, names: str, *pairs: str) -> list:
    """The named fields, then the potential of each "a b" field pair, with
    the scenario constant omega_<a>_<b> where ``_plus`` is written ``p``
    ("psi f1_plus" reads omega_psi_f1p)."""
    fields = {k: scn.field(k) for k in names.split()}
    return [*fields.values(), *(omega(fields[a], fields[b], scn.basepoint,
                                      scn.constant(f"omega_{a}_{b.replace('_plus', 'p')}"))
                                for a, b in map(str.split, pairs))]


def run_transform(scn: Scenario, run: _Checks) -> None:
    from .moutard import moutard_simple, transformed_potential
    u, f1, f1_plus, psi, psi_plus, om_ff, om_pf, om_fp, om_pp = _inputs(
        scn, "u f1 f1_plus psi psi_plus", "f1 f1_plus", "psi f1_plus", "f1 psi_plus",
        "psi psi_plus")
    result = moutard_simple(u, f1, f1_plus, om_ff)
    psi_t = result.map_psi(psi, om_pf)
    run.metrics.update(n_seeds=1, det_omega_min=result.det_min,
                       residual_before=residual(u, psi, "direct"))
    run.measure("residual_after", residual(result.u_tilde, psi_t, "direct"), "residual_after")
    run.metrics["seed_annihilation_max"] = result.map_psi(f1, om_ff).max_abs()
    run.add("seed_annihilation", run.metrics["seed_annihilation_max"], "seed_annihilation")
    run.expect("u_tilde", result.u_tilde.values)
    run.expect("psi_tilde", psi_t.values)
    psi_plus_t = result.map_psi_plus(psi_plus, om_fp)
    run.measure("residual_after_conjugate",
                residual(result.u_tilde, psi_plus_t, "conjugate"), "residual_after")
    om_t = transformed_potential(om_pp, om_pf, om_fp, om_ff)
    d_om_t = dz_op(Field(scn.grid, om_t.values)).values
    run.measure("transformed_potential_defect",
                _peak_abs(scn.grid, d_om_t - psi_t.values * psi_plus_t.values),
                "potential_identity")
    run.dumps.update(u_tilde=result.u_tilde.values, psi_tilde=psi_t.values)


def run_compose(scn: Scenario, run: _Checks) -> None:
    from .moutard import SeedSet, compose_simple, moutard_rank_n, seed_annihilation_max
    u, f1, f1p, f2, f2p, psi, om11, om21, om12, om22, om_p1, om_p2 = _inputs(
        scn, "u f1 f1_plus f2 f2_plus psi", "f1 f1_plus", "f2 f1_plus", "f1 f2_plus",
        "f2 f2_plus", "psi f1_plus", "psi f2_plus")
    seedset = SeedSet.build(u, [(f1, f1p), (f2, f2p)], [[om11, om21], [om12, om22]])
    rank2 = moutard_rank_n(seedset)
    composed = compose_simple(u, f1, f1p, f2, f2p, om11, om21, om12, om22)
    psi_a = rank2.map_psi(psi, [om_p1, om_p2])
    run.metrics.update(n_seeds=2, det_omega_min=rank2.det_min,
                       seed_annihilation_max=seed_annihilation_max(rank2, seedset),
                       residual_before=residual(u, psi, "direct"),
                       residual_after=residual(rank2.u_tilde, psi_a, "direct"))
    run.measure("u_agreement", _rel(composed.u_tilde, rank2.u_tilde), "agreement")
    run.measure("psi_agreement", _rel(composed.map_psi(psi, [om_p1, om_p2]), psi_a),
                "agreement")
    run.dumps["u_tilde"] = rank2.u_tilde.values


def run_invert(scn: Scenario, run: _Checks) -> None:
    from .moutard import invert_simple, moutard_simple
    u, f1, f1p, psi, psi_plus, om_ff, om_pf, om_fp = _inputs(
        scn, "u f1 f1_plus psi psi_plus", "f1 f1_plus", "psi f1_plus", "f1 psi_plus")
    m1 = moutard_simple(u, f1, f1p, om_ff)
    psi_t = m1.map_psi(psi, om_pf)
    inv = invert_simple(m1, f1, f1p, om_ff)
    psi_back = inv.map_psi(psi_t, om_pf)
    psi_plus_back = inv.map_psi_plus(m1.map_psi_plus(psi_plus, om_fp), om_fp)
    run.measure("roundtrip_u", _rel(inv.u_tilde, u), "roundtrip")
    run.measure("roundtrip_psi", _rel(psi_back, psi), "roundtrip")
    run.measure("roundtrip_psi_plus", _rel(psi_plus_back, psi_plus), "roundtrip")
    run.expect("psi_tilde", psi_t.values)
    run.dumps["psi_roundtrip"] = psi_back.values


def run_conformal(scn: Scenario, run: _Checks) -> None:
    from .conformal import HolomorphicChart, check_commutativity
    chart = HolomorphicChart(
        *(as_function_of_z(scn.chart[k]) for k in ("forward", "derivative", "inverse")),
        strip=scn.grid)
    # load_scenario admits omega_ff_z only with omega_pf_z
    d_side = [as_function_of_z(scn.chart[k]) for k in ("omega_ff_z", "omega_pf_z")
              if k in scn.chart]
    result = check_commutativity(
        chart, *(as_function_of_z(scn.expressions[k]) for k in ("u", "f1", "f1_plus", "psi")),
        d_side_omegas=d_side or None, basepoint=scn.basepoint,
        constant_ff=scn.constant("omega_f1_f1p"),
        constant_pf=scn.constant("omega_psi_f1p"))
    run.measure("u_deviation", result.u_deviation, "commutativity")
    run.measure("psi_deviation", result.psi_deviation, "commutativity")


def run_series(scn: Scenario, run: _Checks) -> None:
    from .series import meromorphic_certify, pole_order_check, series_residual, solve_recursion
    profile = scn.profile["pole"]
    order_res = pole_order_check(profile, n_prime=1)
    run.metrics["order_constraints"] = order_res.to_json()
    if "order_constraints" in scn.expect:
        want_pass = scn.expect["order_constraints"] == "pass"
        run.require("order_constraints", order_res.ok == want_pass, order_res.condition)
    cert = meromorphic_certify(profile)
    run.metrics["certificate"] = cert.to_json()
    want = scn.expect.get("certify", "pass")
    if want == "pass":
        run.require("certify", cert.ok, cert.condition)
    else:
        detail = want.partition(":")[2]
        run.require("certify_rejects", (not cert.ok) and detail in cert.condition,
                    cert.condition)
        if "worst_y" in scn.expect and cert.worst_y is not None:  # None: it certified
            cell = scn.tolerances.get("worst_y")
            if cell is None:  # one cell of the check grid
                a, b = profile.phi.interval
                cell = (b - a) / (len(profile.phi.nodes()) - 1)
            run.add("worst_y_localized", abs(cert.worst_y - float(scn.expect["worst_y"])),
                    cell)
        return

    if "beta_minus1" in scn.profile:
        series = solve_recursion(profile, scn.profile["beta_minus1"],
                                 scn.profile.get("im_beta1"), scn.profile["order"])
        run.metrics["series"] = series.to_json()
        run.metrics["defects"] = defects = series_residual(profile, series)
        run.add("series_defects", max(defects), "defects")


def run_remove_pole(scn: Scenario, run: _Checks) -> None:
    from .singularity import remove_pole, synthesize_seeds, synthesize_singular_u
    profile = scn.profile["pole"]
    u_star, _ = synthesize_singular_u(profile, scn.grid)
    f_star, f_star_plus = synthesize_seeds(
        profile, scn.profile["beta_minus1"], scn.profile["beta_plus_minus1"],
        scn.grid, scn.profile["order"])
    result = remove_pole(u_star, f_star, f_star_plus, scn.constant("constant"))
    run.metrics.update(result.to_json())
    run.require("verdict", result.passed, result.verdict)
    if "flat" in scn.tolerances:
        run.metrics["sup_full_strip"] = result.u_tilde.max_abs()
        run.add("flat_cancellation", run.metrics["sup_full_strip"], "flat")
    run.dumps.update(u_tilde=result.u_tilde.values, omega=result.omega.values)


_GRID = "x_min x_max y_min y_max nx ny excluded_band?"

#: pipeline name -> (runner, {section: the keys it reads}), in the order
#: ``galab --help`` lists the subcommands. Keys in [constants],
#: [tolerances] and [expect] are optional, the others required unless
#: marked "?"; r<j> stands for r-1, r0, r1, ...; the first [tolerances] key
#: is the one the --tol flag sets
PIPELINES = {
    "residual": (run_residual, {"grid": _GRID, "expressions": "u psi psi_plus?",
                                "tolerances": "residual"}),
    "potential": (run_potential, {
        "grid": f"{_GRID} basepoint?", "expressions": "psi psi_plus", "constants": "constant",
        "tolerances": "loop_defect expect", "expect": "omega loop_defect exactness_error"}),
    "transform": (run_transform, {
        "grid": f"{_GRID} basepoint?", "expressions": "u f1 f1_plus psi psi_plus",
        "constants": "omega_f1_f1p omega_psi_f1p omega_f1_psip omega_psi_psip",
        "tolerances": "residual_after seed_annihilation potential_identity expect",
        "expect": "u_tilde psi_tilde"}),
    "compose": (run_compose, {
        "grid": f"{_GRID} basepoint?", "expressions": "u f1 f1_plus f2 f2_plus psi",
        "constants": "omega_f1_f1p omega_f2_f1p omega_f1_f2p omega_f2_f2p omega_psi_f1p "
                     "omega_psi_f2p", "tolerances": "agreement"}),
    "invert": (run_invert, {
        "grid": f"{_GRID} basepoint?", "expressions": "u f1 f1_plus psi psi_plus",
        "constants": "omega_f1_f1p omega_psi_f1p omega_f1_psip",
        "tolerances": "roundtrip expect", "expect": "psi_tilde"}),
    "conformal": (run_conformal, {
        "grid": f"{_GRID} basepoint?", "expressions": "u f1 f1_plus psi",
        "chart": "forward derivative inverse omega_ff_z? omega_pf_z?",
        "constants": "omega_f1_f1p omega_psi_f1p", "tolerances": "commutativity"}),
    "series": (run_series, {"profile": "interval phi order? r<j>? beta_minus1? im_beta1?",
                            "tolerances": "defects worst_y",
                            "expect": "certify order_constraints worst_y"}),
    "remove-pole": (run_remove_pole, {  # its fits need the band
        "grid": _GRID.rstrip("?"), "constants": "constant", "tolerances": "flat",
        "profile": "interval phi order? r<j>? beta_minus1 beta_plus_minus1"}),
}


def run_scenario(scn: Scenario, out_dir: str | Path) -> tuple[int, Path]:
    """Run one scenario; returns (exit_code, report_path).

    Exit code 0 when every check passes, 2 when any fails or a model
    error stops the pipeline.  Configuration problems raise
    ScenarioError (the CLI maps those to exit code 1).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _Checks(scn)
    error = None
    try:
        PIPELINES[scn.pipeline][0](scn, run)
    except ScenarioError:
        raise
    except GalabError as exc:
        run.metrics = {}
        error = f"{type(exc).__name__}: {exc}"
        run.require("pipeline_completed", False, error)
    report = {
        "schema": reporting.SCHEMA_VERSION,
        "name": scn.name,
        "pipeline": scn.pipeline,
        "claim": scn.claim,
        "grid": None if scn.grid is None else {
            k: v for k, v in asdict(scn.grid).items() if v is not None},
        "metrics": run.metrics,
        "checks": run.items,
        "passed": run.passed,
    }
    if error is not None:
        report["error"] = error
    report_path = out / f"{scn.name}.report.json"
    with open(report_path, "w") as fh:
        reporting.dump(report, fh)
    for field_name, values in run.dumps.items():
        write_csv(out / f"{scn.name}.{field_name}.csv", scn.grid, values)
    return (0 if run.passed else 2), report_path
