"""Scenario configs and the verification pipelines they drive.

A scenario is an INI file with a [scenario] section naming one
pipeline, a [grid] section, expression strings for the fields involved,
imaginary integration constants, and optional tolerance overrides.
Each pipeline runs its checks and writes a deterministic JSON report
plus CSV dumps of the key output grids.
"""

from __future__ import annotations

import cmath
import configparser
import re
from dataclasses import asdict, dataclass
from functools import partial
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
    expect: dict[str, object]  # parsed expressions, numbers and words

    def field(self, key: str) -> Field:
        grid = self.grid
        try:
            return Field(grid, _scrub(grid, evaluate_on_grid(self.expressions[key], grid)))
        except NonFiniteFieldError as exc:
            raise ScenarioError(f"scenario {self.name!r}: [expressions] {key}: {exc}") from exc

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


#: what a key's value must be: its own kind if the table has one, else its
#: section's. A tuple is a set of words, and "fail:<condition>" stands for
#: "fail:" and a non-empty condition. README's "Scenario files" states this
#: table and _RELATIONS, and the tests hold it to both
_KINDS = {
    "[scenario]": "text", "[grid]": "number", "[grid] nx": "nodes", "[grid] ny": "nodes",
    "[grid] basepoint": "index pair", "[expressions]": "expression", "[chart]": "expression",
    "[constants]": "imaginary", "[profile]": "function", "[profile] interval": "interval",
    "[profile] order": "count", "[tolerances]": "tolerance", "[expect]": "expression",
    "[expect] loop_defect": "real", "[expect] worst_y": "number",
    "[expect] certify": ("pass", "fail:<condition>"),
    "[expect] order_constraints": ("pass", "fail"),
    "[expect] exactness_error": ("true", "false"),
}

#: (key, "needs" or "is not read with", other key, the prefix its value
#: must start with): a key is read only where its rows hold
_RELATIONS = [
    ("[expect] worst_y", "needs", "[expect] certify", "fail:"),
    ("[tolerances] worst_y", "needs", "[expect] worst_y", ""),
    # read by the recursion, which needs beta_minus1
    ("[profile] im_beta1", "needs", "[profile] beta_minus1", ""),
    ("[profile] order", "needs", "[profile] beta_minus1", ""),
    # keys a run skips after an expected refusal
    ("[profile] beta_minus1", "is not read with", "[expect] certify", "fail:"),
    ("[tolerances] defects", "is not read with", "[expect] certify", "fail:"),
    ("[expect] omega", "is not read with", "[expect] exactness_error", "true"),
    ("[constants] constant", "is not read with", "[expect] exactness_error", "true"),
]


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
    values: dict[str, dict] = {section: {} for section in reads}
    # [DEFAULT] first, before its keys show in every section; then the
    # sections the pipeline reads that the file lacks
    for section in dict.fromkeys([*parser, *reads]):
        if section not in reads:
            raise ScenarioError(f"scenario {name!r}: pipeline {pipeline!r} reads no [{section}]")
        keys, given = reads[section].split(), parser[section] if section in parser else {}
        for key, text in given.items():
            if re.sub(r"^r-?[0-9]+$", "r<j>", key) not in {k.rstrip("?") for k in keys}:
                raise ScenarioError(f"scenario {name!r}: [{section}] {key}: pipeline "
                                    f"{pipeline!r} reads no such key")
            try:
                values[section][key] = _read(
                    _KINDS.get(f"[{section}] {key}", _KINDS[f"[{section}]"]), text)
            except (GalabError, ValueError) as exc:
                raise ScenarioError(f"scenario {name!r}: [{section}] {key}: {exc}") from exc
        for key in keys if section not in ("constants", "tolerances", "expect") else ():
            if not key.endswith("?") and key not in given:
                raise ScenarioError(f"scenario {name!r}: [{section}] {key}: is missing")

    read = {f"[{s}] {key}": v for s, given in values.items() for key, v in given.items()}
    for key, verb, other, prefix in _RELATIONS:
        holds = other in read and (not prefix or read[other].startswith(prefix))
        if key in read and holds != (verb == "needs"):
            raise ScenarioError(f"scenario {name!r}: {key} {verb} {other}"
                                + (f" = {prefix}" if prefix else ""))

    try:
        grid, basepoint = _grid(values.get("grid"))
        profile = _profile(values["profile"], grid) if "profile" in values else {}
    except (GalabError, ValueError) as exc:
        raise ScenarioError(f"scenario {name!r}: {exc}") from exc
    return Scenario(name=name, pipeline=pipeline, claim=meta.get("claim", ""), grid=grid,
                    basepoint=basepoint, profile=profile,
                    tolerances={**_DEFAULT_TOLERANCES, **values.get("tolerances", {})},
                    **{s: values.get(s, {}) for s in ("expressions", "constants", "chart",
                                                      "expect")})


def _read(kind, text: str):
    """The value of a key of ``kind`` (see _KINDS) written as ``text``;
    a ValueError or GalabError says why the text is not one."""
    if isinstance(kind, tuple):  # a word, in any case; a condition keeps its own
        word, colon, condition = text.partition(":")
        if word.lower() + (colon and ":<condition>") not in kind or colon and not condition:
            raise ValueError(f"must be {' or '.join(kind)}")
        return word.lower() + colon + condition
    if kind == "text":
        return text
    if kind == "expression":
        return parse_expression(text)
    if kind == "function":  # made on [profile] interval once that is read
        from .series import FunctionOnInterval
        mode, _, body = text.partition(":")
        if mode.strip() not in ("poly", "samples"):
            raise ValueError("must start with 'poly:' or 'samples:'")
        return partial(getattr(FunctionOnInterval, f"from_{mode.strip()}"),
                       [constant_value(item) for item in map(str.strip, body.split(",")) if item])
    if kind in ("interval", "index pair"):
        pair = tuple(_read("number" if kind == "interval" else "count", item)
                     for item in text.split(","))
        if len(pair) != 2 or kind == "interval" and not pair[0] < pair[1]:
            raise ValueError("must be a, b with a < b" if kind == "interval" else "must be i,j")
        return pair
    value = (constant_value if kind in ("imaginary", "real") else
             int if kind in ("nodes", "count") else float)(text)
    if not cmath.isfinite(value):
        raise ValueError("is not finite")
    if kind == "imaginary" and abs(value.real) > REAL_DRIFT_TOL:
        raise ValueError("is not imaginary")
    if kind == "real" and abs(value.imag) > REAL_DRIFT_TOL:
        raise ValueError("is not real")
    # a grid axis needs the stencils' width of nodes
    if kind in ("tolerance", "count") and value < 0 or kind == "nodes" and value < 5:
        raise ValueError(f"is below {5 if kind == 'nodes' else 0}")
    return value.real if kind == "real" else value


def _grid(values: dict | None) -> tuple[GridSpec | None, tuple[int, int]]:
    """[grid]'s GridSpec and basepoint; (None, (0, 0)) where a pipeline has no grid."""
    if values is None:
        return None, (0, 0)
    i, j = values.pop("basepoint", (0, 0))
    try:
        grid = GridSpec(**values)
    except ValueError as exc:
        raise ValueError(f"invalid grid: {exc}") from exc
    if not (i < grid.nx and j < grid.ny):
        raise ValueError(f"[grid] basepoint: {i},{j} is off the grid")
    return grid, (i, j)


def _profile(values: dict, grid: GridSpec | None) -> dict[str, object]:
    """The pole profile and [profile]'s seed functions, made on its interval
    and checked against phi and, where the pipeline has one, the grid."""
    from .series import DEFAULT_ORDER, PoleProfile, _check_seed
    out: dict[str, object] = {"order": values.get("order", DEFAULT_ORDER)}
    fns = {}
    for key, make in values.items():
        if key in ("interval", "order"):
            continue
        try:  # a degree cap, too few samples, a non-finite coefficient
            fns[key] = make(values["interval"])
        except ValueError as exc:
            raise ValueError(f"[profile] {key}: {exc}") from exc
    r = {int(key[1:]): key for key in fns if re.fullmatch(r"r-?[0-9]+", key)}
    lead = r[min(r)] if min(r, default=0) < 0 else None
    for key, fn in fns.items():  # phi, the seed functions and the leading r_j are real
        if (key == lead or key not in r.values()) and not fn.is_real():
            raise ValueError(f"[profile] {key}: is not real")
    out.update((key, fn) for key, fn in fns.items() if key not in r.values())
    try:
        # checks each r_j against phi
        out["pole"] = PoleProfile(out["phi"], {j: fns[key] for j, key in r.items()})
        for key in sorted(out.keys() - {"order", "phi", "pole"}):
            _check_seed(out["phi"], out[key], key)
    except ValueError as exc:
        raise ValueError(f"bad [profile] section: {exc}") from exc
    if grid is not None:  # the seed functions share phi's nodes
        try:
            out["phi"].values_on(grid.ys)
        except GalabError as exc:
            raise ValueError(f"[profile] does not fit the [grid]: {exc}") from exc
    return out


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
    expect_error = scn.expect.get("exactness_error") == "true"
    try:
        pot = omega(psi, psi_plus, scn.basepoint, scn.constant("constant"))
    except ExactnessError as exc:
        run.metrics["exactness_error"] = str(exc)
        run.require("exactness_error_raised", expect_error, str(exc))
        return
    if expect_error:
        run.require("exactness_error_raised", False, "expected ExactnessError was not raised")
        return
    run.metrics["path_defect"] = pot.path_defect
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
    *maps, ff, pf = (as_function_of_z(scn.chart[k]) for k in (
        "forward", "derivative", "inverse", "omega_ff_z", "omega_pf_z"))
    result = check_commutativity(
        HolomorphicChart(*maps, scn.grid),
        *(as_function_of_z(scn.expressions[k]) for k in ("u", "f1", "f1_plus", "psi")),
        (ff, pf), scn.basepoint)
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
            run.add("worst_y_localized", abs(cert.worst_y - scn.expect["worst_y"]), cell)
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
        "chart": "forward derivative inverse omega_ff_z omega_pf_z",
        "tolerances": "commutativity"}),
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
