"""What a command-line run loads and builds before it computes, and how
its process ends: the package's public names, the modules each pipeline
pulls in, the help text of the argument parsers and the ``run`` entry
point that freezes the collector at exit."""

import ast
import contextlib
import gc
import importlib
import inspect
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
                  "pushforward_psi", "pushforward_u", "tracked_sqrt"],
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


def test_no_public_tolerance_keyword():
    # every bound is a module constant (README, "Fixed tolerances"): no
    # public function or public method takes tol or a name ending in _tol
    found = []
    for name in (n for group in PUBLIC.values() for n in group):
        obj = getattr(galab, name)
        members = [(name, obj)] if not inspect.isclass(obj) else [
            (f"{name}.{attr}", getattr(obj, attr)) for attr in dir(obj)
            if not attr.startswith("_")]
        found += [f"{where}({param})" for where, fn in members
                  if inspect.isfunction(fn) or inspect.ismethod(fn)
                  for param in inspect.signature(fn).parameters
                  if param == "tol" or param.endswith("_tol")]
    assert found == []


def _raise_sites(error: str) -> list[str]:
    """module.function of each ``raise error`` in the package's source."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == error:
                found.append(where)
            visit(child, where)

    for path in sorted(Path(galab.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_certification_raises_meromorphic_violation():
    # meromorphic_certify is the pole layer's one judge of a profile: the
    # recursion and the seed synthesis do not re-check the certificate
    assert _raise_sites("MeromorphicViolation") == ["series._require_certified"]


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


#: ``python -m galab.cli ARGS``, then the exit code and whether the
#: collector's objects were frozen on the way out
_RUN_AS_MAIN = """
import gc, runpy
try:
    runpy.run_module("galab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "frozen", gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("args, code", [
    (["residual", "--scenario", "residual-holomorphic"], 0),  # passes
    (["residual", "--scenario", "nope"], 1),  # a config error
    (["transform", "--scenario", "transform-simple-basic", "--tol", "1e-30"], 2),  # fails
])
def test_run_freezes_the_collector_at_exit(args, code, tmp_path):
    args = [*args, "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", _RUN_AS_MAIN, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.stdout.splitlines()[-1] == f"exit {code} frozen True", proc.stderr
    # in process, main() gives the same code and freezes nothing
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == code
    assert gc.get_freeze_count() == 0


def test_run_help_exits_zero():
    proc = subprocess.run([sys.executable, "-c", _RUN_AS_MAIN, "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.stdout.splitlines()[-1] == "exit 0 frozen True", proc.stderr
    assert proc.stdout.startswith("usage: galab")


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {
        "galab": "galab.cli:run"}
