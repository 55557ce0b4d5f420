"""Numerical laboratory for generalized analytic functions.

Fields on rectangular grids, quadrature-built pair potentials, the
seed-generated transforms with their composition and inversion laws,
holomorphic changes of variables, formal Laurent analysis of contour
poles, and the pipeline that removes a simple pole by one transform.
"""

from .conformal import (CommutativityResult, HolomorphicChart,
                        check_commutativity, identity_chart, pushforward_psi,
                        pushforward_u, tracked_sqrt)
from .errors import (BandRequiredError, BranchError, DegenerateChartError,
                     ExactnessError, ExpressionError, FitError, GalabError,
                     MeromorphicViolation, NonFiniteCoefficientError, NonFiniteFieldError,
                     NonRealCoefficientError, NormalizationError, PositivityError,
                     ScenarioError, SeedResidualError, ShapeError, SingularModelError,
                     SingularOmegaError, StencilError, ZeroPotentialError)
from .expressions import as_function_of_z, constant_value, evaluate_on_grid, \
    parse_expression
from .grid import Field, GridSpec, dbar, dz, residual, write_csv
from .moutard import (SeedSet, TransformResult, compose_simple, invert_simple,
                      moutard_rank_n, moutard_simple, seed_annihilation_max,
                      transformed_potential)
from .potential import Potential, loop_defect, omega, omega_singular
from .series import (CheckResult, CoefficientSeries, FunctionOnInterval,
                     PoleProfile, conjugate_profile, pole_order_check,
                     meromorphic_certify, normalize_profile, series_residual,
                     solve_recursion)
from .singularity import (LaurentFit, PoleRemovalResult, SingularFieldModel,
                          fit_laurent_profile, remove_pole, synthesize_seeds,
                          synthesize_singular_u)

__version__ = "0.1.0"
