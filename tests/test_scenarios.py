import json
import re
import subprocess
import sys
from importlib import resources
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import galab
from galab.cli import main
from galab.errors import ScenarioError
from galab.potential import Potential
from galab.scenarios import _KINDS, _RELATIONS, PIPELINES, _Checks, bundled_scenarios, \
    load_scenario, run_remove_pole, run_scenario

from conftest import child_env

ALL_BUNDLED = bundled_scenarios()


def _sampled_profile(n: int, y_min: str = "1.0") -> tuple[str, str]:
    """An edit of canonical-pole-removal: its [grid] y_min set, and its four
    [profile] functions written as n samples each."""
    between = ("y_max = 2.0\nnx = 480\nny = 81\nexcluded_band = 0.002\n\n"
               "[profile]\ninterval = 1.0, 2.0\n")
    functions = (("phi", "0"), ("r-1", "-0.5"), ("beta_minus1", "1"), ("beta_plus_minus1", "1"))
    return ("y_min = 1.0\n" + between + "".join(f"{k} = poly: {v}\n" for k, v in functions),
            f"y_min = {y_min}\n" + between
            + "".join(f"{k} = samples: {', '.join([v] * n)}\n" for k, v in functions))


#: configuration faults that must exit 1 with "[config error]": the
#: scenario run, an (old, new) edit of its text, extra CLI flags, and a
#: fragment of the message: the key's "[section] key" where it is about one
CONFIG_PROBES = {
    "basepoint-off-grid": ("transform-simple-basic", (
        "nx = 96\nny = 96", "nx = 16\nny = 16\nbasepoint = 99,0"), [],
        "[grid] basepoint: 99,0 is off the grid"),
    "real-constant": ("transform-simple-basic",
                      ("omega_f1_f1p = 2i", "omega_f1_f1p = 1"), [],
                      "[constants] omega_f1_f1p: is not imaginary"),
    "negative-order": ("series-recursion-canonical", None, ["--order", "-3"],
                       "[profile] order: is below 0"),
    "grid-below-stencil": ("transform-simple-basic", None, ["--grid", "4,4"],
                           "[grid] nx: is below 5"),
    "constant-not-finite": ("transform-simple-basic",
                            ("omega_f1_f1p = 2i", "omega_f1_f1p = 1e400i"), [],
                            "[constants] omega_f1_f1p: is not finite"),
    "nan-tolerance": ("transform-simple-basic", None, ["--tol", "nan"],
                      "[tolerances] residual_after: is not finite"),
    "pole-at-active-node": ("residual-holomorphic", ("u = 0", "u = 1/x"), [], "[expressions] u"),
    "expression-nests-too-deeply": ("residual-holomorphic",
                                    ("u = 0", "u = " + "(" * 300 + "0" + ")" * 300), [],
                                    "[expressions] u"),
    "exponent-overflow": ("transform-simple-basic",
                          ("psi = z\n", "psi = z^10^30\n"), [], "[expressions] psi"),
    "coefficient-overflow": ("series-recursion-canonical",
                             ("beta_minus1 = poly: 1\n",
                              "beta_minus1 = poly: 1e400\n"), [], "[profile] beta_minus1"),
    "profile-degree-cap": ("series-recursion-canonical",
                           ("phi = poly: 0\n", "phi = poly: " + "0," * 17 + "0\n"), [],
                           "[profile] phi"),
    "profile-empty-poly": ("series-recursion-canonical",
                           ("phi = poly: 0\n", "phi = poly:\n"), [], "[profile] phi"),
    "profile-few-samples": ("series-recursion-canonical",
                            ("phi = poly: 0\n", "phi = samples: 0,0,0\n"), [], "[profile] phi"),
    "complex-beta-minus1": ("series-recursion-canonical",
                            ("beta_minus1 = poly: 1\n", "beta_minus1 = poly: 1i\n"), [],
                            "[profile] beta_minus1: is not real"),
    "complex-im-beta1": ("series-recursion-canonical",
                         ("beta_minus1 = poly: 1\n",
                          "beta_minus1 = poly: 1\nim_beta1 = poly: 0, 2i\n"), [],
                         "[profile] im_beta1: is not real"),
    "complex-beta-plus": ("canonical-pole-removal",
                          ("beta_plus_minus1 = poly: 1\n",
                           "beta_plus_minus1 = poly: 1, 1i\n"), [],
                          "[profile] beta_plus_minus1: is not real"),
    "grid-without-x-min": ("transform-simple-basic", ("x_min = 0.0\n", ""), [],
                           "[grid] x_min: is missing"),
    "grid-without-ny": ("transform-simple-basic", ("ny = 96\n", ""), [], "[grid] ny: is missing"),
    "band-not-a-number": ("remove-pole-generic",
                          ("excluded_band = 0.002", "excluded_band = abc"), [],
                          "[grid] excluded_band"),
    "band-not-finite": ("remove-pole-generic",
                        ("excluded_band = 0.002", "excluded_band = nan"), [],
                        "[grid] excluded_band: is not finite"),
    "grid-bound-not-finite": ("remove-pole-generic", ("x_max = 0.1", "x_max = inf"), [],
                              "[grid] x_max: is not finite"),
    "complex-phase": ("series-recursion-canonical",
                      ("phi = poly: 0\n", "phi = poly: 0, 1i\n"), [],
                      "[profile] phi: is not real"),
    "complex-leading-coefficient": ("series-recursion-canonical",
                                    ("r-1 = poly: -0.5\n", "r-1 = poly: -0.5i\n"), [],
                                    "[profile] r-1: is not real"),
    "profile-mixed-kinds": ("series-recursion-canonical",
                            ("r-1 = poly: -0.5\n", "r-1 = samples: " + "-0.5, " * 4 + "-0.5\n"),
                            [], "bad [profile] section: cannot mix"),
    "worst-y-not-a-number": ("series-certify-reject-r0",
                             ("worst_y = 2.0", "worst_y = abc"), [], "[expect] worst_y"),
    "worst-y-not-finite": ("series-certify-reject-r0",
                           ("worst_y = 2.0", "worst_y = inf"), [],
                           "[expect] worst_y: is not finite"),
    "chart-half-closed-form": ("conformal-scaling",
                               ("omega_pf_z = 4*exp(z/4) - conj(4*exp(z/4))\n", ""), [],
                               "[chart] omega_pf_z: is missing"),
    "chart-syntax-error": ("conformal-scaling", ("forward = 2*z\n", "forward = 2*z +\n"), [],
                           "[chart] forward"),
    "expect-syntax-error": ("transform-simple-basic",
                            ("psi_tilde = 1i*y", "psi_tilde = abc"), [], "[expect] psi_tilde"),
    "loop-defect-syntax-error": ("potential-closed-loop",
                                 ("loop_defect = 4.0", "loop_defect = 4.0 +"), [],
                                 "[expect] loop_defect"),
    "loop-defect-grid-variable": ("potential-closed-loop",
                                  ("loop_defect = 4.0", "loop_defect = x"), [],
                                  "[expect] loop_defect"),
    "loop-defect-not-finite": ("potential-closed-loop",
                               ("loop_defect = 4.0", "loop_defect = 1/0"), [],
                               "[expect] loop_defect: is not finite"),
    "loop-defect-not-real": ("potential-closed-loop",
                             ("loop_defect = 4.0", "loop_defect = 4.0 + 7i"), [],
                             "[expect] loop_defect: is not real"),
    "tolerance-unknown-key": ("transform-simple-basic",
                              ("residual_after = 1e-10", "residual_afterr = 1e-30"), [],
        "[tolerances] residual_afterr: pipeline 'transform' reads no such key"),
    "profile-seed-mixed-kinds": ("series-recursion-canonical",
                                 ("beta_minus1 = poly: 1\n",
                                  "beta_minus1 = samples: 1,1,1,1,1\n"), [],
                                 "bad [profile] section: cannot mix"),
    "profile-unknown-key": ("series-recursion-canonical",
                            ("beta_minus1 = poly: 1\n", "beta_minus_1 = poly: 1\n"), [],
                            "[profile] beta_minus_1: pipeline 'series' reads no such key"),
    "profile-key-not-read": ("series-recursion-canonical",
                             ("beta_minus1 = poly: 1\n",
                              "beta_minus1 = poly: 1\nbeta_plus_minus1 = poly: 1\n"), [],
                             "[profile] beta_plus_minus1: pipeline 'series' reads no such key"),
    "profile-key-not-read-by-remove-pole": ("canonical-pole-removal",
                                            ("beta_plus_minus1 = poly: 1\n",
                                             "beta_plus_minus1 = poly: 1\nim_beta1 = poly: 0\n"),
                                            [],
        "[profile] im_beta1: pipeline 'remove-pole' reads no such key"),
    "certify-unknown-word": ("series-recursion-canonical",
                             ("certify = pass", "certify = maybe"), [],
                             "[expect] certify: must be pass or fail:<condition>"),
    "order-constraints-unknown-word": ("series-recursion-canonical",
                                       ("order_constraints = pass",
                                        "order_constraints = maybe"), [],
                                       "[expect] order_constraints: must be pass or fail"),
    "exactness-error-unknown-word": ("potential-closed-loop",
                                     ("exactness_error = true", "exactness_error = yes"), [],
                                     "[expect] exactness_error: must be true or false"),
    "order-flag-on-residual": ("residual-holomorphic", None, ["--order", "5"],
                               "pipeline 'residual' reads no [profile]"),
    "grid-flag-on-series": ("series-recursion-canonical", None, ["--grid", "30,30"],
                            "pipeline 'series' reads no [grid]"),
    "grid-flag-not-numbers": ("transform-simple-basic", None, ["--grid", "foo"], "[grid] nx"),
    "grid-flag-three-values": ("transform-simple-basic", None, ["--grid", "30,30,4"], "[grid] ny"),
    "tol-flag-not-a-number": ("transform-simple-basic", None, ["--tol", "abc"],
                              "[tolerances] residual_after"),
    "order-flag-not-an-int": ("series-recursion-canonical", None, ["--order", "5.5"],
                              "[profile] order"),
    "grid-section-in-series": ("series-recursion-canonical", ("[expect]", (
        "[grid]\nx_min = 0.0\nx_max = 1.0\ny_min = 1.0\ny_max = 2.0\nnx = 30\nny = 30\n\n"
        "[expect]")), [], "pipeline 'series' reads no [grid]"),
    "chart-section-in-transform": ("transform-simple-basic",
                                   ("[expressions]", "[chart]\nforward = z\n\n[expressions]"),
                                   [], "pipeline 'transform' reads no [chart]"),
    "chart-without-inverse": ("conformal-scaling", ("inverse = z/2\n", ""), [],
                              "[chart] inverse: is missing"),
    "band-missing-for-remove-pole": ("remove-pole-generic", ("excluded_band = 0.002\n", ""),
                                     [], "[grid] excluded_band: is missing"),
    "expression-misspelled": ("residual-holomorphic", ("psi_plus =", "psi_plsu ="), [],
                              "[expressions] psi_plsu: pipeline 'residual' reads no such key"),
    "expect-misspelled": ("invert-roundtrip", ("psi_tilde =", "psi_tilda ="), [],
                          "[expect] psi_tilda: pipeline 'invert' reads no such key"),
    "tolerances-section-misspelled": ("residual-holomorphic",
                                      ("[tolerances]\nresidual = 1e-8",
                                       "[tolerance]\nresidual = 1e-30"), [],
                                      "pipeline 'residual' reads no [tolerance]"),
    "transform-without-psi-plus": ("transform-simple-basic", ("psi_plus = 1\n", ""), [],
                                   "[expressions] psi_plus: is missing"),
    "im-beta1-without-beta-minus1": ("series-recursion-canonical",
                                     ("beta_minus1 = poly: 1\norder = 8\n",
                                      "im_beta1 = poly: 7\n"), [],
                                     "[profile] im_beta1 needs [profile] beta_minus1"),
    "order-without-beta-minus1": ("series-recursion-canonical",
                                  ("beta_minus1 = poly: 1\n", ""), [],
                                  "[profile] order needs [profile] beta_minus1"),
    "beta-minus1-with-certify-fail": ("series-certify-reject-r0",
                                      ("r0 = poly: 0.1, -0.2, 0.1\n",
                                       "r0 = poly: 0.1, -0.2, 0.1\nbeta_minus1 = poly: 1\n"),
                                      [],
        "[profile] beta_minus1 is not read with [expect] certify = fail:"),
    "im-beta1-with-certify-fail": ("series-certify-reject-r0",
                                   ("r0 = poly: 0.1, -0.2, 0.1\n",
                                    "r0 = poly: 0.1, -0.2, 0.1\nim_beta1 = poly: 0\n"), [],
                                   "[profile] im_beta1 needs [profile] beta_minus1"),
    "defects-with-certify-fail": ("series-certify-reject-r0",
                                  ("worst_y = 2.0\n",
                                   "worst_y = 2.0\n\n[tolerances]\ndefects = 1e-30\n"), [],
        "[tolerances] defects is not read with [expect] certify = fail:"),
    "order-flag-on-certify-fail": ("series-certify-reject-r0", None, ["--order", "5"],
                                   "[profile] order needs [profile] beta_minus1"),
    # a remove-pole run samples the profile on the grid's ny nodes on [y_min, y_max]
    "samples-off-grid-count": ("canonical-pole-removal", _sampled_profile(5), [],
                               "[profile] does not fit the [grid]"),
    "samples-off-grid-flag": ("canonical-pole-removal", _sampled_profile(81),
                              ["--grid", "480,41"], "[profile] does not fit the [grid]"),
    "samples-off-grid-y-min": ("canonical-pole-removal", _sampled_profile(81, "1.5"), [],
                               "[profile] does not fit the [grid]"),
    "tol-flag-on-certify-fail": ("series-certify-reject-r0", None, ["--tol", "1e-30"],
                                 "[tolerances] defects is not read with [expect] certify = fail:"),
    "default-section": ("residual-holomorphic",
                        ("[scenario]", "[DEFAULT]\nresidual = 1e-30\n\n[scenario]"), [],
                        "[DEFAULT] residual: pipeline 'residual' reads no such key"),
    "constant-misspelled-in-transform": ("transform-simple-basic",
                                         ("omega_psi_f1p =", "omega_psi_f1px ="), [],
        "[constants] omega_psi_f1px: pipeline 'transform' reads no such key"),
    "constant-misspelled-in-compose": ("compose-rank2", ("omega_f2_f1p =", "omega_f2_f1px ="),
                                       [],
        "[constants] omega_f2_f1px: pipeline 'compose' reads no such key"),
    "constant-misspelled-in-invert": ("invert-roundtrip", ("omega_f1_psip =", "omega_f1_psipx ="),
                                      [],
        "[constants] omega_f1_psipx: pipeline 'invert' reads no such key"),
    "expect-not-read-by-invert": ("invert-roundtrip",
                                  ("[expect]\n", "[expect]\nu_tilde = 12345\n"), [],
                                  "[expect] u_tilde: pipeline 'invert' reads no such key"),
    "tolerance-of-invert-in-transform": ("transform-simple-basic",
                                         ("[tolerances]\n", "[tolerances]\nroundtrip = 1e-30\n"),
                                         [],
        "[tolerances] roundtrip: pipeline 'transform' reads no such key"),
    "tolerance-of-residual-in-transform": ("transform-simple-basic",
                                           ("[tolerances]\n",
                                            "[tolerances]\nresidual = 1e-30\n"), [],
        "[tolerances] residual: pipeline 'transform' reads no such key"),
    "expression-of-compose-in-transform": ("transform-simple-basic",
                                           ("[expressions]\n", "[expressions]\nf2 = 1e300\n"),
                                           [],
        "[expressions] f2: pipeline 'transform' reads no such key"),
    "profile-without-phi": ("series-recursion-canonical", ("phi = poly: 0\n", ""), [],
                            "[profile] phi: is missing"),
    "profile-without-interval": ("series-recursion-canonical", ("interval = 1.0, 2.0\n", ""),
                                 [], "[profile] interval: is missing"),
    "worst-y-without-expected-rejection": ("series-recursion-canonical",
                                           ("certify = pass", "certify = pass\nworst_y = 1.5"),
                                           [], "[expect] worst_y needs [expect] certify = fail:"),
    "worst-y-tolerance-without-expected-worst-y": ("series-recursion-canonical",
                                                   ("defects = 1e-12",
                                                    "defects = 1e-12\nworst_y = 1e-30"), [],
                                                   "[tolerances] worst_y needs [expect] worst_y"),
    "omega-with-expected-exactness-error": ("potential-closed-loop",
                                            ("exactness_error = true",
                                             "exactness_error = true\nomega = 0"), [],
        "[expect] omega is not read with [expect] exactness_error = true"),
    "constant-with-expected-exactness-error": ("potential-closed-loop", (
        "[expect]\n", "[constants]\nconstant = 0.37i\n\n[expect]\n"), [],
        "[constants] constant is not read with [expect] exactness_error = true"),
    "constant-beside-closed-form-rotation": ("conformal-rotation", (
        "[tolerances]\n", "[constants]\nomega_f1_f1p = 99i\n\n[tolerances]\n"), [],
        "pipeline 'conformal' reads no [constants]"),
    "constant-beside-closed-form-scaling": ("conformal-scaling", (
        "[tolerances]\n", "[constants]\nomega_psi_f1p = -7i\n\n[tolerances]\n"), [],
        "pipeline 'conformal' reads no [constants]"),
    "name-with-separator": ("residual-holomorphic",
                            ("name = residual-holomorphic", "name = sub/x"), [],
                            "scenario name 'sub/x' is not a plain file name"),
    "name-escapes-out": ("residual-holomorphic",
                         ("name = residual-holomorphic", "name = ../escaped"), [],
                         "scenario name '../escaped' is not a plain file name"),
    "interval-empty": ("series-recursion-canonical",
                       ("interval = 1.0, 2.0\n", "interval = 1.0, 1.0\n"), [],
                       "[profile] interval: must be a, b with a < b"),
    "interval-reversed": ("series-recursion-canonical",
                          ("interval = 1.0, 2.0\n", "interval = 2.0, 1.0\n"), [],
                          "[profile] interval: must be a, b with a < b"),
    "interval-not-finite": ("series-recursion-canonical",
                            ("interval = 1.0, 2.0\n", "interval = 1.0, nan\n"), [],
                            "[profile] interval: is not finite"),
    "interval-one-number": ("series-recursion-canonical",
                            ("interval = 1.0, 2.0\n", "interval = 1.0\n"), [],
                            "[profile] interval: must be a, b with a < b"),
    "certify-empty-condition": ("series-certify-reject-r0",
                                ("certify = fail:Re r0", "certify = fail:"), [],
                                "[expect] certify: must be pass or fail:<condition>"),
    "unknown-flag": ("residual-holomorphic", None, ["--bogus"], "unrecognized arguments: --bogus"),
    "jobs-below-one": ("residual-holomorphic", None, ["--jobs", "0"],
                       "argument --jobs: 0 is below 1"),
}

#: model faults that must exit 2 with the typed error in the report and
#: no traceback: the scenario run, an (old, new) edit of its text, and
#: the error's class
MODEL_PROBES = {
    "seed-residual": ("compose-rank2", ("f2 = z\nf2_plus = z\n",
                                        "f2 = exp(3*z)\nf2_plus = exp(-3*z)\n"),
                      "SeedResidualError"),
    "wrong-inverse": ("conformal-scaling", ("inverse = z/2\n", "inverse = z/3\n"),
                      "DegenerateChartError"),
    "profile-double-pole": ("series-recursion-canonical",
                            ("r-1 = poly: -0.5\n", "r-2 = poly: 7\nr-1 = poly: -0.5\n"),
                            "NormalizationError"),
    "series-seed-vanishes": ("series-recursion-canonical",
                             ("beta_minus1 = poly: 1\n", "beta_minus1 = poly: 0\n"),
                             "SingularModelError"),
    # omega vanishes between nodes: Im omega = 2b/x + ... + 30 changes sign
    # inside the left slab, and 2(y - 1) - 1 at y = 1.5, between grid lines
    "pole-seed-vanishes": ("remove-pole-generic",
                           ("order = 8\n", "order = 8\n\n[constants]\nconstant = 30i\n"),
                           "ZeroPotentialError"),
    "seed-potential-vanishes": ("transform-simple-basic",
                                ("omega_f1_f1p = 2i\n", "omega_f1_f1p = -1i\n"),
                                "ZeroPotentialError"),
}

#: _det_nodes calls per bundled scenario: one per potential or matrix a
#: transform divides by, however many functions read it
SCANS = {"canonical-pole-removal": 1, "compose-rank2": 3, "conformal-identity": 2,
         "conformal-rotation": 2, "conformal-scaling": 2, "invert-roundtrip": 2,
         "remove-pole-generic": 1, "transform-potential-identity": 1,
         "transform-simple-basic": 1}


def run_cli(args):
    return main(list(args))


class TestLoading:
    def test_bundled_names_resolve(self):
        for name in ALL_BUNDLED:
            scn = load_scenario(name)
            assert scn.name == name

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-scenario")

    def test_expressions_validated_at_load(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("""
[scenario]
name = bad
pipeline = residual
[grid]
x_min = 0.0
x_max = 1.0
y_min = 1.0
y_max = 2.0
nx = 16
ny = 16
[expressions]
u = 0
psi = 1 +
""")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    @pytest.mark.parametrize("name", ["", ".", "..", "sub/x", "../escaped", "a\\b", "a\0b"])
    def test_name_must_be_a_plain_file_name(self, name, tmp_path):
        # run_scenario joins the name to --out
        text = resources.files("galab").joinpath(
            "scenarios", "residual-holomorphic.ini").read_text()
        path = tmp_path / "probe.ini"
        path.write_text(text.replace("name = residual-holomorphic", f"name = {name}"))
        with pytest.raises(ScenarioError, match="not a plain file name"):
            load_scenario(str(path))

    def test_grid_override(self):
        scn = load_scenario("transform-simple-basic", {"grid": {"nx": "32", "ny": "48"}})
        assert scn.grid.nx == 32 and scn.grid.ny == 48

    def test_order_override(self):
        scn = load_scenario("canonical-pole-removal", {"profile": {"order": "5"}})
        assert scn.profile["order"] == 5

    def test_order_flag_end_to_end(self, tmp_path):
        code = run_cli(["series", "--scenario", "series-recursion-canonical",
                        "--out", str(tmp_path), "--order", "5"])
        assert code == 0
        report = json.loads(
            (tmp_path / "series-recursion-canonical.report.json").read_text())
        assert report["metrics"]["series"]["K"] == 5

    @pytest.mark.parametrize("order, code", [(5, 2), (6, 0)])
    def test_seed_order_closes_the_potential(self, order, code, tmp_path):
        # the seed potential's path defect is the seed series' truncation:
        # 5.3e-5 at order 5 and 9.9e-7 at order 6, against a bound of 1e-5
        assert run_cli(["remove-pole", "--scenario", "remove-pole-generic",
                        "--out", str(tmp_path), "--order", str(order)]) == code
        report = json.loads((tmp_path / "remove-pole-generic.report.json").read_text())
        assert ("not closed" in report["metrics"]["verdict"]) == (code == 2)


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_scenario_passes(self, name, tmp_path):
        scn = load_scenario(name)
        code, report_path = run_scenario(scn, tmp_path)
        report = json.loads(report_path.read_text())
        assert code == 0, report["checks"]
        assert report["passed"] is True
        assert report["schema"] == 1
        assert report["claim"]

    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_reports_are_deterministic(self, name, tmp_path):
        scn = load_scenario(name)
        _, path_a = run_scenario(scn, tmp_path / "a")
        _, path_b = run_scenario(scn, tmp_path / "b")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_csv_dump_written(self, tmp_path):
        scn = load_scenario("transform-simple-basic")
        run_scenario(scn, tmp_path)
        csv = tmp_path / "transform-simple-basic.u_tilde.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + scn.grid.nx * scn.grid.ny


def test_no_transform_projects_a_complex_potential(tmp_path, monkeypatch):
    # the transforms hand Potential real ims; only the conformal
    # scenarios' closed-form curved-side potentials come in complex,
    # through Potential.from_values
    seen, post_init = [], Potential.__post_init__
    monkeypatch.setattr(Potential, "__post_init__",
                        lambda self: (seen.append(np.iscomplexobj(self.im)), post_init(self)))
    projected = set()
    for name in ALL_BUNDLED:
        seen.clear()
        run_scenario(load_scenario(name), tmp_path)
        if any(seen):
            projected.add(name)
    assert projected == {"conformal-identity", "conformal-rotation", "conformal-scaling"}


class TestCliBehavior:
    def test_list_scenarios(self, capsys):
        assert run_cli(["--list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert "canonical-pole-removal" in out
        assert "invert-roundtrip" in out

    def test_exit_zero_on_pass(self, tmp_path):
        code = run_cli(["potential", "--scenario", "potential-unit-pair",
                        "--out", str(tmp_path)])
        assert code == 0

    def test_exit_one_on_missing_expression(self, tmp_path):
        path = tmp_path / "missing.ini"
        path.write_text("""
[scenario]
name = missing
pipeline = transform
[grid]
x_min = 0.0
x_max = 1.0
y_min = 1.0
y_max = 2.0
nx = 16
ny = 16
[expressions]
u = 0
psi = z
""")
        code = run_cli(["transform", "--scenario", str(path),
                        "--out", str(tmp_path)])
        assert code == 1

    def test_exit_one_on_wrong_pipeline(self, tmp_path):
        code = run_cli(["residual", "--scenario", "invert-roundtrip",
                        "--out", str(tmp_path)])
        assert code == 1

    def test_usage_errors_are_config_errors(self, capsys):
        # no --scenario, an unknown pipeline, no pipeline; the flag probes
        # in CONFIG_PROBES cover an unknown flag and --jobs 0
        for args in (["residual"], ["nope"], []):
            assert run_cli(args) == 1
            assert capsys.readouterr().out.startswith("[config error] galab")
        with pytest.raises(SystemExit) as exc:
            run_cli(["residual", "--help"])
        assert exc.value.code == 0

    def test_exit_one_on_unknown_scenario(self, tmp_path):
        code = run_cli(["residual", "--scenario", "nope",
                        "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("probe", sorted(CONFIG_PROBES))
    def test_exit_one_on_bad_configuration(self, probe, tmp_path, capsys):
        name, edit, flags, fragment = CONFIG_PROBES[probe]
        ref = name
        if edit is not None:
            text = resources.files("galab").joinpath(
                "scenarios", f"{name}.ini").read_text()
            assert edit[0] in text
            ref = tmp_path / "probe.ini"
            ref.write_text(text.replace(*edit))
        code = run_cli([load_scenario(name).pipeline, "--scenario", str(ref),
                        "--out", str(tmp_path), *flags])
        out = capsys.readouterr().out
        assert code == 1, out
        assert out.startswith("[config error]") and fragment in out, out

    @pytest.mark.parametrize("probe", sorted(MODEL_PROBES))
    def test_exit_two_on_model_fault(self, probe, tmp_path):
        name, edit, error = MODEL_PROBES[probe]
        text = resources.files("galab").joinpath("scenarios", f"{name}.ini").read_text()
        assert edit[0] in text
        path = tmp_path / "probe.ini"
        path.write_text(text.replace(*edit))
        proc = subprocess.run(
            [sys.executable, "-m", "galab.cli", load_scenario(name).pipeline,
             "--scenario", str(path), "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("[FAILED]") and "Traceback" not in proc.stderr
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert report["error"].startswith(f"{error}: ")

    def test_compose_scans_its_matrix_once(self, tmp_path, monkeypatch):
        scans, det_nodes = [], galab.moutard._det_nodes

        def counted(om, grid):
            scans.append(om.shape)
            return det_nodes(om, grid)

        monkeypatch.setattr(galab.moutard, "_det_nodes", counted)
        code, _ = run_scenario(load_scenario("compose-rank2"), tmp_path)
        assert code == 0
        assert [s for s in scans if s[-1] == 2] == [(96, 96, 2, 2)]

    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_each_potential_is_scanned_once(self, name, tmp_path, monkeypatch):
        scans, det_nodes = [], galab.potential._det_nodes

        def counted(w, grid):
            scans.append(w.shape)
            return det_nodes(w, grid)

        for module in (galab.moutard, galab.potential):
            monkeypatch.setattr(module, "_det_nodes", counted)
        code, _ = run_scenario(load_scenario(name), tmp_path)
        assert code == 0 and len(scans) == SCANS.get(name, 0), scans

    def test_exit_two_when_series_overflows(self, tmp_path, capsys):
        # 2 r0 conj(beta_-1) = 2e400 is not a float: the pipeline stops
        # with a typed error in its report, not a traceback
        text = resources.files("galab").joinpath(
            "scenarios", "series-recursion-canonical.ini").read_text()
        path = tmp_path / "overflow.ini"
        path.write_text(text.replace("r-1 = poly: -0.5\n",
                                     "r-1 = poly: -0.5\nr0 = poly: 1e200i\n")
                        .replace("beta_minus1 = poly: 1\n",
                                 "beta_minus1 = poly: 1e200\n"))
        code = run_cli(["series", "--scenario", str(path), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2, out
        assert out.startswith("[FAILED]") and err == ""
        report = json.loads(
            (tmp_path / "series-recursion-canonical.report.json").read_text())
        assert report["passed"] is False
        assert report["error"].startswith("NonFiniteCoefficientError")
        completed = [c for c in report["checks"] if c["name"] == "pipeline_completed"]
        assert completed and completed[0]["passed"] is False

    def test_exit_two_when_an_expected_rejection_certifies(self, tmp_path):
        # without its r0 term the profile certifies: the expected rejection
        # fails, and there is no worst node to localize
        text = resources.files("galab").joinpath(
            "scenarios", "series-certify-reject-r0.ini").read_text()
        path = tmp_path / "certifies.ini"
        path.write_text(text.replace("r0 = poly: 0.1, -0.2, 0.1\n", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "galab.cli", "series", "--scenario", str(path),
             "--out", str(tmp_path)], capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.startswith("[FAILED]") and "Traceback" not in proc.stderr
        report = json.loads((tmp_path / "series-certify-reject-r0.report.json").read_text())
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["certify_rejects"]

    def test_exit_two_on_failed_check(self, tmp_path):
        code = run_cli(["residual", "--scenario", "residual-holomorphic",
                        "--out", str(tmp_path), "--tol", "1e-30"])
        assert code == 2
        report = json.loads(
            (tmp_path / "residual-holomorphic.report.json").read_text())
        assert report["passed"] is False

    def test_grid_flag(self, tmp_path):
        code = run_cli(["potential", "--scenario", "potential-unit-pair",
                        "--out", str(tmp_path), "--grid", "32,32"])
        assert code == 0
        report = json.loads(
            (tmp_path / "potential-unit-pair.report.json").read_text())
        assert report["grid"]["nx"] == 32

    def test_jobs_flag_runs_multiple(self, tmp_path):
        code = run_cli(["series", "--scenario", "series-recursion-canonical",
                        "--scenario", "series-certify-reject-r0",
                        "--jobs", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "series-recursion-canonical.report.json").exists()
        assert (tmp_path / "series-certify-reject-r0.report.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_below_a_file_is_a_config_error(self, jobs, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run_cli(["potential", "--scenario", "potential-unit-pair",
                        "--scenario", "potential-closed-loop", "--grid", "32,32",
                        "--jobs", jobs, "--out", str(tmp_path / "file" / "out")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line.split(":")[0] for line in lines] == [
            "[config error] potential-unit-pair", "[config error] potential-closed-loop"]
        assert all("Not a directory" in line for line in lines), lines

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_csv_path_taken_by_a_directory_is_a_config_error(self, jobs, tmp_path, capsys):
        (tmp_path / "potential-unit-pair.omega.csv").mkdir()
        code = run_cli(["potential", "--scenario", "potential-unit-pair",
                        "--scenario", "potential-closed-loop", "--grid", "32,32",
                        "--jobs", jobs, "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("[config error] potential-unit-pair: "), lines
        assert "potential-unit-pair.omega.csv" in lines[0]
        assert lines[1].startswith("[ok] potential-closed-loop"), lines

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GALAB_OUT", str(tmp_path / "env-out"))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["series", "--scenario", "series-recursion-canonical"])
        assert code == 0
        assert (tmp_path / "env-out"
                / "series-recursion-canonical.report.json").exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "galab.cli", "series", "--scenario",
             "series-recursion-canonical", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "series-recursion-canonical" in proc.stdout

    def test_unallocatable_grid_is_a_config_error(self, tmp_path):
        # numpy refuses the 233 TiB array at once, so nothing is allocated
        proc = subprocess.run(
            [sys.executable, "-m", "galab.cli", "transform", "--scenario",
             "transform-simple-basic", "--grid", "4000000,4000000", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("[config error] transform-simple-basic: Unable to allocate")
        assert proc.stdout.count("\n") == 1

    def test_single_run_skips_process_pool_import(self, tmp_path):
        # concurrent.futures drags in multiprocessing, socket and logging;
        # only --jobs > 1 needs it
        probe = ("import sys\nfrom galab.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print('concurrent.futures' in sys.modules)\n"
                 "sys.exit(code)\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "series", "--scenario",
             "series-recursion-canonical", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_numpy_polynomial_is_not_imported(self, tmp_path):
        # the pole layers carry their own trimseq, polyder and polyval
        probe = ("import sys\nimport galab.cli\n"
                 "print('numpy.polynomial' in sys.modules)\n"
                 "code = galab.cli.main(sys.argv[1:])\n"
                 "print('numpy.polynomial' in sys.modules)\n"
                 "sys.exit(code)\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "remove-pole", "--scenario",
             "canonical-pole-removal", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == lines[-1] == "False"


class _Recorder(dict):
    """A dict that adds (section, key) to ``seen`` for each key looked up in it."""

    def __init__(self, data, section, seen):
        super().__init__(data)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return super().__getitem__(key)

    def __contains__(self, key):
        self.seen.add((self.section, key))
        return super().__contains__(key)

    def get(self, key, default=None):
        self.seen.add((self.section, key))
        return super().get(key, default)


def test_pipeline_rows_cover_what_the_runners_read():
    # every key a runner looks up in a scenario section, through
    # Scenario.constant, _Checks.add or the section itself, is in its
    # pipeline's row, and --tol sets a tolerance the runner reads
    seen = {pipeline: set() for pipeline in PIPELINES}
    for name in ALL_BUNDLED:
        scn = load_scenario(name)
        for section in ("expressions", "constants", "chart", "tolerances", "expect"):
            setattr(scn, section, _Recorder(getattr(scn, section), section, seen[scn.pipeline]))
        run = _Checks(scn)
        PIPELINES[scn.pipeline][0](scn, run)
        assert run.passed, name
    tol_keys = {}
    for pipeline, (_, row) in PIPELINES.items():
        keys = {(section, key.rstrip("?")) for section, text in row.items()
                for key in text.split()}
        assert seen[pipeline] <= keys, sorted(seen[pipeline] - keys)
        tol_keys[pipeline] = row["tolerances"].split()[0]
        assert ("tolerances", tol_keys[pipeline]) in seen[pipeline]
    assert tol_keys == {"residual": "residual", "potential": "loop_defect",
                        "transform": "residual_after", "compose": "agreement",
                        "invert": "roundtrip", "conformal": "commutativity",
                        "series": "defects", "remove-pole": "flat"}


def _reads(pipeline: str) -> set[tuple[str, str]]:
    """The (section, key) pairs the pipeline's row names, "?" dropped."""
    return {(section, key.rstrip("?")) for section, text in PIPELINES[pipeline][1].items()
            for key in text.split()}


def _pair(ref: str) -> tuple[str, str]:
    """("expect", "worst_y") for "[expect] worst_y"; ("grid", "") for "[grid]"."""
    section, _, key = ref[1:].partition("]")
    return section, key.strip()


def test_schema_tables_name_what_the_pipelines_read():
    # a misspelled key in a kind row would never apply
    read = set().union(*map(_reads, PIPELINES))
    sections = {section for section, _ in read}
    assert {f"[{section}]" for section in sections} <= _KINDS.keys()  # each has a kind
    for ref in _KINDS:
        section, key = _pair(ref)
        assert (section, key) in read if key else section in sections | {"scenario"}, ref


@pytest.mark.parametrize("row", _RELATIONS, ids=lambda row: f"{row[0]} {row[1]} {row[2]}")
def test_every_relation_is_live(row):
    # a row whose keys no pipeline reads together never fires: one left
    # behind when a pipeline stops reading a key fails here
    key, _, other, _ = row
    assert any({_pair(key), _pair(other)} <= _reads(p) for p in PIPELINES), row


def _readme_table(header: str) -> list[list[str]]:
    """The rows of the table under ``header`` in README's "Scenario files"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("## Scenario files\n")[1].split("\n## ")[0]
    rows = takewhile(lambda row: row.startswith("|"), text.split(f"{header}\n")[1].splitlines())
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in list(rows)[1:]]


def _readme_keys(cell: str) -> set[tuple[str, str]]:
    """The (section, key) pairs of a key cell such as "the grid box;
    `[expressions]` `u`, `psi`"."""
    keys, section = set(), None
    for part in cell.split(";"):
        if "the grid box" in part:
            section = "grid"
            keys |= {("grid", key) for key in "x_min x_max y_min y_max nx ny".split()}
        for token in re.findall(r"`([^`]+)`", part):
            if token.startswith("["):
                section = token[1:-1]
            else:
                keys.add((section, token))
    return keys


def test_readme_key_table_is_the_pipelines_rows():
    rows = _readme_table("| Pipeline | Required keys | Optional keys |")
    assert [row[0].strip("`") for row in rows] == list(PIPELINES)
    for name, required, optional in rows:
        want = {True: set(), False: set()}
        for section, text in PIPELINES[name.strip("`")][1].items():
            for key in text.split():
                optional_key = key.endswith("?") or section in ("constants", "tolerances",
                                                                "expect")
                want[optional_key].add((section, key.rstrip("?")))
        assert _readme_keys(required) == want[False], name
        assert _readme_keys(optional) == want[True], name


def test_readme_states_every_kind_and_relation():
    kinds = [(key.strip("`"), kind) for key, kind in _readme_table("| Key | Kind |")]
    assert kinds == [(key, " or ".join(f"`{w}`" for w in kind) if isinstance(kind, tuple)
                      else kind) for key, kind in _KINDS.items()]
    relations = [(key.strip("`"), rule, *other.strip("`").partition(" = ")[::2])
                 for key, rule, other in _readme_table("| Key | Rule | Other key |")]
    assert relations == _RELATIONS


def _mutations(text: str):
    """Pairs of a mutation of the scenario text and the exit codes it may
    end in. With each `key = value` line dropped, its value set to abc, or
    a `poly: c0, ...` value rewritten as the five samples c0 (so that one
    profile function is in the other mode), any code; with the key
    renamed by appending x, exactly 1."""
    lines = text.splitlines(keepends=True)
    section = ""
    for i, line in enumerate(lines):
        section = line.strip() if line.startswith("[") else section
        key, eq, value = line.partition("=")
        if eq:
            yield "".join(lines[:i] + lines[i + 1:]), (0, 1, 2)
            yield "".join(lines[:i] + [f"{key.strip()} = abc\n"] + lines[i + 1:]), (0, 1, 2)
            kind, _, coeffs = value.partition(":")
            if kind.strip() == "poly":
                samples = ", ".join([coeffs.split(",")[0].strip()] * 5)
                yield "".join(lines[:i] + [f"{key.strip()} = samples: {samples}\n"]
                              + lines[i + 1:]), (0, 1, 2)
            yield "".join(lines[:i] + [f"{key.strip()}x ={value}"] + lines[i + 1:]), (1,)


class TestMutatedScenarios:
    """Every mutation of a bundled scenario ends in an exit code it may
    end in, never in an exception out of the CLI; an unknown key is a
    configuration error."""

    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_exit_code_for_every_mutation(self, name, tmp_path, capsys):
        pipeline = load_scenario(name).pipeline
        # the series pipeline has no grid; pole removal needs its strip
        flags = [] if pipeline in ("series", "remove-pole") else ["--grid", "24,24"]
        text = resources.files("galab").joinpath("scenarios", f"{name}.ini").read_text()
        path = tmp_path / f"{name}.ini"
        for mutated, codes in _mutations(text):
            path.write_text(mutated)
            try:
                code = run_cli([pipeline, "--scenario", str(path),
                                "--out", str(tmp_path / "out"), *flags])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} escaped on\n{mutated}")
            assert code in codes, mutated
        capsys.readouterr()


class TestPoleRemovalWithANodeOnTheWindow:
    """At odd nx a node sits on |x| = delta, where linspace stores +x a
    hair past delta and -x exactly on it; the fit windows must still
    take mirror-image columns on the two sides of the contour."""

    @pytest.mark.parametrize("grid", [{"nx": "481", "ny": "81"}, {"nx": "961", "ny": "161"}])
    @pytest.mark.parametrize("name", ["remove-pole-generic", "canonical-pole-removal"])
    def test_residue_vanishes(self, name, grid):
        # the pipeline run_scenario reports, without the CSV dumps
        run = _Checks(scn := load_scenario(name, {"grid": grid}))
        run_remove_pole(scn, run)
        assert run.passed, run.metrics["verdict"]
        assert run.metrics["residue_c_minus1"] < 1e-9
