"""Numerical laboratory for generalized analytic functions.

Fields on rectangular grids, quadrature-built pair potentials, the
seed-generated transforms with their composition and inversion laws,
holomorphic changes of variables, formal Laurent analysis of contour
poles, and the pipeline that removes a simple pole by one transform.

Each public name is looked up in its module, which loads on first use.
"""

from importlib import import_module

_EXPORTS = {
    "conformal": "CommutativityResult HolomorphicChart check_commutativity pushforward_psi "
                 "pushforward_u tracked_sqrt",
    "errors": "BandRequiredError BranchError DegenerateChartError ExactnessError "
              "ExpressionError FitError GalabError MeromorphicViolation "
              "NonFiniteCoefficientError NonFiniteFieldError NonRealCoefficientError "
              "NormalizationError PositivityError ScenarioError SeedResidualError ShapeError "
              "SingularModelError SingularOmegaError StencilError ZeroPotentialError",
    "expressions": "as_function_of_z constant_value evaluate_on_grid parse_expression",
    "grid": "Field GridSpec dbar dz residual write_csv",
    "moutard": "SeedSet TransformResult compose_simple invert_simple moutard_rank_n "
               "moutard_simple seed_annihilation_max transformed_potential",
    "potential": "Potential loop_defect omega omega_singular",
    "series": "CheckResult CoefficientSeries FunctionOnInterval PoleProfile conjugate_profile "
              "pole_order_check meromorphic_certify normalize_profile series_residual "
              "solve_recursion",
    "singularity": "LaurentFit PoleRemovalResult SingularFieldModel fit_laurent_profile "
                   "remove_pole synthesize_seeds synthesize_singular_u",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
