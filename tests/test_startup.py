"""What a command-line run loads and builds before it computes: the
package's public names, the modules each pipeline pulls in, and the
help text of the argument parsers."""

import contextlib
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import galab
from galab.cli import main
from galab.scenarios import PIPELINES, bundled_scenarios, load_scenario

from conftest import child_env

#: the package's public names, by the module that defines each
PUBLIC = {
    "conformal": ["CommutativityResult", "HolomorphicChart", "check_commutativity",
                  "identity_chart", "pushforward_psi", "pushforward_u", "tracked_sqrt"],
    "errors": ["BandRequiredError", "BranchError", "DegenerateChartError", "ExactnessError",
               "ExpressionError", "FitError", "GalabError", "MeromorphicViolation",
               "NonFiniteCoefficientError", "NonFiniteFieldError", "NonRealCoefficientError",
               "NormalizationError", "PositivityError", "ScenarioError", "SeedResidualError",
               "ShapeError", "SingularModelError", "SingularOmegaError", "StencilError",
               "ZeroPotentialError"],
    "expressions": ["as_function_of_z", "constant_value", "evaluate_on_grid",
                    "parse_expression"],
    "grid": ["Field", "GridSpec", "dbar", "dz", "residual", "write_csv"],
    "moutard": ["SeedSet", "TransformResult", "compose_simple", "invert_simple",
                "moutard_rank_n", "moutard_simple", "seed_annihilation_max",
                "transformed_potential"],
    "potential": ["Potential", "loop_defect", "omega", "omega_singular"],
    "series": ["CheckResult", "CoefficientSeries", "FunctionOnInterval", "PoleProfile",
               "conjugate_profile", "pole_order_check", "meromorphic_certify",
               "normalize_profile", "series_residual", "solve_recursion"],
    "singularity": ["LaurentFit", "PoleRemovalResult", "SingularFieldModel",
                    "fit_laurent_profile", "remove_pole", "synthesize_seeds",
                    "synthesize_singular_u"],
}

#: what every CLI run loads: the front end and what loading a scenario
#: needs, the potential layer included (its REAL_DRIFT_TOL, and
#: ``scenarios.omega``, which bench/selftest.py reads)
_FRONT = {"galab", "galab.cli", "galab.errors", "galab.expressions", "galab.grid",
          "galab.reporting", "galab.scenarios", "galab.potential", "galab._integrate"}

#: pipeline -> the galab modules a CLI run of it may load
MAY_LOAD = {
    "residual": _FRONT,
    "potential": _FRONT,
    "transform": _FRONT | {"galab.moutard"},
    "compose": _FRONT | {"galab.moutard"},
    "invert": _FRONT | {"galab.moutard"},
    "conformal": _FRONT | {"galab.moutard", "galab.conformal"},
    "series": _FRONT | {"galab.series"},
    "remove-pole": _FRONT | {"galab.moutard", "galab.series", "galab.singularity"},
}


def _loaded_after(code: str, *args: str) -> set[str]:
    """The galab modules a fresh interpreter holds after running ``code``,
    which ends by printing them one per line after a ``--`` line."""
    probe = code + ("\nprint('--')\n"
                    "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'galab'))\n")
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + probe, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(proc.stdout.split("--\n", 1)[1].split())


def test_import_galab_loads_no_submodule():
    assert _loaded_after("import galab") == {"galab"}


def test_cli_import_loads_no_transform_module():
    assert _loaded_after("import galab.cli") == _FRONT


@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_cli_run_loads_only_its_pipeline(pipeline, tmp_path):
    names = [n for n in bundled_scenarios() if load_scenario(n).pipeline == pipeline]
    assert names
    flags = [arg for name in names for arg in ("--scenario", name)]
    loaded = _loaded_after("from galab.cli import main\n"
                           "assert main(sys.argv[1:]) == 0",
                           pipeline, *flags, "--out", str(tmp_path))
    assert loaded <= MAY_LOAD[pipeline], sorted(loaded - MAY_LOAD[pipeline])


def test_public_names():
    names = sorted(n for group in PUBLIC.values() for n in group)
    assert sorted(galab.__all__) == names
    assert set(names) <= set(dir(galab))
    star: dict = {}
    exec("from galab import *", star)
    assert sorted(n for n in star if n != "__builtins__") == names
    for module, group in PUBLIC.items():
        mod = importlib.import_module(f"galab.{module}")
        for name in group:
            assert getattr(galab, name) is getattr(mod, name), name
        assert getattr(galab, module) is mod


def test_public_names_follow_their_module(monkeypatch):
    # a name rebound in its module, as a tracer does, is seen through
    # the package at once and restored with it
    import galab.potential

    original = galab.potential.omega
    monkeypatch.setattr(galab.potential, "omega", lambda *a: None)
    assert galab.omega is galab.potential.omega is not original
    monkeypatch.undo()
    assert galab.omega is original


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        galab.no_such_name


def _help_texts() -> str:
    parts = []
    for args in [[]] + [[name] for name in PIPELINES]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
            main([*args, "--help"])
        assert done.value.code == 0
        parts.append(f"$ galab {' '.join(args + ['--help'])}\n{out.getvalue()}")
    return "".join(parts)


def test_help_text_is_unchanged(monkeypatch):
    # argparse wraps at $COLUMNS; the record was taken at 80
    monkeypatch.setenv("COLUMNS", "80")
    want = (Path(__file__).parent / "data" / "cli_help.txt").read_text()
    assert _help_texts() == want
