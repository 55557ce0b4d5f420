"""Every check of the bundled reports can fail: one planted fault per check.

``data/check_faults.json`` has one row per (scenario, check) pair that
the 15 bundled reports hold.  A row names the --grid flag of its runs
(null: the scenario's own grid) and one fault: an override
[section, key, text] of the scenario, a wrong input, or a patch from
PATCHES, a wrong line of the library.  Without the fault the run passes;
with it the run exits 2 and the report holds that check failed.  A run
may stop after the check, as the recursion stops on a profile that
failed its certificate, but a fault that stops the run before the check
shows nothing about it.  A check no fault moves cannot fail, and a new
check needs a row.  This is mutation analysis (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import configparser
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from galab import conformal, moutard, potential, series
from galab.cli import main
from galab.grid import Field
from galab.scenarios import bundled_scenarios, load_scenario

ROWS = json.loads((Path(__file__).parent / "data" / "check_faults.json").read_text())["rows"]


def _coefficient_sign(orig):  # u~ = u - f conj(f+) / omega
    def transform(u, fs, fps, w, det_min):
        result = orig(u, fs, fps, w, det_min)
        return dataclasses.replace(result, u_tilde=Field(u.grid, 2 * u.values
                                                         - result.u_tilde.values))
    return transform


def _unconjugated_seed(orig):  # u~ = u + f f+ / omega
    def transform(u, fs, fps, w, det_min):
        wrong = orig(u, fs, [v.conj() for v in fps], w, det_min)
        return dataclasses.replace(orig(u, fs, fps, w, det_min), u_tilde=wrong.u_tilde)
    return transform


#: name -> (module, function, the faulty function made from the original);
#: the fault replaces the function in every galab module that imported it
PATCHES = {
    "coefficient-sign": (moutard, "_transform", _coefficient_sign),
    "unconjugated-seed": (moutard, "_transform", _unconjugated_seed),
    # psi~ = psi + f omega_pf / omega
    "map-sign": (moutard, "_mapped", lambda orig: lambda grid, seeds, w, base, omegas: Field(
        grid, 2 * base.values - orig(grid, seeds, w, base, omegas).values)),
    # (pp ff + pf fp) / ff
    "transformed-potential-sign": (moutard, "transformed_potential", lambda orig: (
        lambda pp, pf, fp, ff: orig(pp, potential.Potential(pf.grid, -pf.im), fp, ff))),
    # the inverse's r = -1/W read as +1/W
    "inverse-r-sign": (moutard, "invert_simple", lambda orig: lambda m1, f1, f1p, om: orig(
        m1, f1, f1p, potential.Potential(om.grid, -om.im))),
    "omega-constant-doubled": (potential, "omega", lambda orig: (
        lambda psi, psi_plus, basepoint=(0, 0), constant=0.0:
        orig(psi, psi_plus, basepoint, 2 * constant))),
    # |dz/dtau|^2 for |dz/dtau|, dz/dtau for its square root
    "u-weight-squared": (conformal, "pushforward_u", lambda orig: lambda u, chart: Field(
        chart.strip, orig(u, chart).values * abs(chart.derivative_on_strip))),
    "psi-weight-full": (conformal, "pushforward_psi", lambda orig: lambda psi, chart: Field(
        chart.strip, orig(psi, chart).values * chart.sqrt_derivative)),
    # |r_-1| = n' for n'/2
    "order-check-doubled": (series, "pole_order_check", lambda orig: (
        lambda profile, n_prime: orig(profile, 2 * n_prime))),
    # 2 dbar psi against u conj(psi), not 2 u conj(psi)
    "residual-half-coefficient": (series, "series_residual", lambda orig: (
        lambda profile, s: orig(series.PoleProfile(
            profile.phi, {j: 0.5 * fn for j, fn in profile.r.items()}), s))),
}


def _plant(monkeypatch, name: str) -> None:
    module, function, make = PATCHES[name]
    original = getattr(module, function)
    faulty = make(original)
    for key, mod in list(sys.modules.items()):
        if key.startswith("galab") and vars(mod).get(function) is original:
            monkeypatch.setattr(mod, function, faulty)


def _run(name: str, grid: str | None, out: Path, override=None) -> tuple[int, dict]:
    """The CLI's exit code and the report's checks by name."""
    ref = name
    if override is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(resources.files("galab").joinpath(
            "scenarios", f"{name}.ini").read_text())
        section, key, text = override
        parser.read_dict({section: {key: text}})
        ref = out / f"{name}.ini"
        with open(ref, "w") as fh:
            parser.write(fh)
    code = main([load_scenario(name).pipeline, "--scenario", str(ref), "--out", str(out),
                 *(["--grid", grid] if grid else [])])
    report = json.loads((out / f"{name}.report.json").read_text())
    return code, {check["name"]: check for check in report["checks"]}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The clean run of a scenario on a grid, run once."""
    runs = {}

    def get(name: str, grid: str | None) -> tuple[int, dict]:
        if (name, grid) not in runs:
            runs[name, grid] = _run(name, grid, tmp_path_factory.mktemp("clean"))
        return runs[name, grid]
    return get


def test_the_table_holds_every_bundled_check_once(clean):
    keys = [(row["scenario"], row["check"]) for row in ROWS]
    assert len(set(keys)) == len(keys)
    assert all(("patch" in row) != ("override" in row) for row in ROWS)
    assert set(keys) == {(name, check) for name in bundled_scenarios()
                         for check in clean(name, None)[1]}


@pytest.mark.parametrize("row", ROWS, ids=[f"{r['scenario']}:{r['check']}" for r in ROWS])
def test_the_fault_fails_its_check(row, clean, tmp_path, monkeypatch, capsys):
    name, check, grid = row["scenario"], row["check"], row["grid"]
    code, checks = clean(name, grid)
    assert code == 0 and checks[check]["passed"], checks
    if "patch" in row:
        _plant(monkeypatch, row["patch"])
    code, checks = _run(name, grid, tmp_path, row.get("override"))
    capsys.readouterr()
    assert code == 2 and checks[check]["passed"] is False, checks
