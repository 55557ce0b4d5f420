"""Exception types shared across the library."""


class GalabError(Exception):
    """Base class for all library errors."""


class StencilError(GalabError):
    """Grid too small for the finite-difference stencil."""


class ShapeError(GalabError):
    """Fields on incompatible grids, or a sampled function off its own nodes."""


class NonFiniteFieldError(GalabError, ValueError):
    """A field has non-finite values at nodes that take part in norms."""


class SingularModelError(GalabError, ValueError):
    """A singular field model is malformed, or a series' pole coefficient vanishes."""


class BandRequiredError(GalabError, ValueError):
    """A contour-pole computation got a grid without an excluded band."""


class NonFiniteCoefficientError(GalabError, ValueError):
    """A coefficient function of y has non-finite values."""


class NonRealCoefficientError(GalabError, ValueError):
    """A coefficient function that must be real has an imaginary part."""


class ExactnessError(GalabError):
    """The integrated 1-form is not closed within tolerance.

    Signals that the supplied pair is not a solution/conjugate-solution
    pair, so the potential is path dependent.
    """


class ZeroPotentialError(GalabError):
    """A pair potential vanishes where a transform needs to divide by it."""


class SingularOmegaError(GalabError):
    """The seed potential matrix is singular at one or more grid nodes."""


class SeedResidualError(GalabError, ValueError):
    """A seed pair does not solve the equations within tolerance."""


class DegenerateChartError(GalabError, ValueError):
    """A chart is not a valid change of variables on the strip: its
    derivative vanishes, or it is not inverted or not injective."""


class BranchError(GalabError):
    """No continuous square-root branch can be tracked on the strip."""


class NormalizationError(GalabError):
    """Pole profile is not in (or cannot be put in) normalized form."""


class MeromorphicViolation(GalabError):
    """Leading coefficients violate the local solvability conditions."""


class PositivityError(GalabError):
    """A leading coefficient required to be strictly positive is not."""


class FitError(GalabError):
    """Not enough samples for the Laurent coefficient fit."""


class ExpressionError(GalabError):
    """Problem parsing or evaluating an expression string."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ScenarioError(GalabError):
    """Scenario configuration is invalid or incomplete."""
