"""Removing a simple contour pole by a simple transform.

Given a certified singular coefficient and a seed pair whose leading
1/x coefficients are strictly positive, the simple transform built from
the seed pair produces a coefficient that stays bounded near the
contour: the 1/x parts cancel between the original coefficient and the
seed term.  Boundedness is checked on a shrinking ladder of sub-strips
together with per-row Laurent fits of the transformed coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import (BandRequiredError, FitError, NonFiniteFieldError, PositivityError,
                     SingularModelError)
from .grid import Field, GridSpec, _scrub, diff_axis
from .moutard import TransformResult, moutard_simple
from .potential import Potential, omega_singular
from .series import (DEFAULT_ORDER, CoefficientSeries, FunctionOnInterval, PoleProfile,
                     _require_certified, conjugate_profile, polyval, solve_recursion)

#: ladder of sub-strip half-widths, as fractions of the full half-width
LADDER_FRACTIONS = (0.5, 0.25, 0.125, 0.0625)

#: fit basis for the boundedness diagnostics; the smooth orders soak up
#: regular Laurent content so the pole coefficients are unbiased
FIT_ORDERS = (-2, -1, 0, 1, 2, 3, 4)

#: fitted pole coefficients must be below REL * |c0| + ABS
CANCEL_REL = 1e-6
CANCEL_ABS = 1e-8

#: allowed growth of the sup between consecutive ladder rungs
SUP_GROWTH = 1.05
SUP_ABS = 1e-9

#: 1/x coefficient of dw/dx must be below REL * |its 1/x^2 coefficient| + ABS
RESIDUE_REL = 1e-4
RESIDUE_ABS = 1e-8

#: largest path defect of the seed potential (certified: 9.9e-7 at order 6)
PATH_DEFECT_TOL = 1e-5

#: fewest columns a Laurent fit takes on either side of the contour
FIT_MIN_COLUMNS = 6


@dataclass(frozen=True)
class SingularFieldModel(Field):
    """Field of the form exp(i*phi(y)) * leading(y) / x + smooth remainder.

    A coefficient's model carries twice its profile's phase, and a
    conjugate-side seed the conjugate profile's shifted phase.  The
    values are formed once, on construction; the in-band 1/x blowup is
    zeroed where it is not representable (x = 0 columns), and a grid
    with an active x = 0 node raises.
    """

    values: np.ndarray = dc_field(init=False, repr=False)
    leading: FunctionOnInterval
    phi: FunctionOnInterval
    smooth_remainder: Field
    series: CoefficientSeries | None = None

    def __post_init__(self):
        grid = self.grid
        if self.smooth_remainder.grid != grid:
            raise SingularModelError("smooth remainder lives on a different grid")
        vals = self.smooth_remainder.values  # checked on float views
        if not (np.isfinite(vals.real).all() and np.isfinite(vals.imag).all()):
            raise NonFiniteFieldError("smooth remainder must be finite on the closed strip")
        lead = np.exp(1j * self.phi.values_on(grid.ys).real) * self.leading.values_on(grid.ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            # numpy divides complex by real as a multiply by the reciprocal,
            # cast to complex; 1/x is infinite only on x = 0, in the band
            sing = lead[None, :] * (1.0 / grid.xs).astype(complex)[:, None]
        object.__setattr__(self, "values", np.add(_scrub(grid, sing), vals, out=sing))
        super().__post_init__()


def _laurent_model(grid: GridSpec, phi: FunctionOnInterval, coeff, top: int,
                   series: CoefficientSeries | None = None) -> SingularFieldModel:
    """exp(i*phi) * sum_{j=-1..top} coeff(j) x^j as a model on the grid:
    leading coeff(-1), the terms j >= 0 summed into the remainder."""
    phase = np.exp(1j * phi.values_on(grid.ys).real)
    remainder = _power_sum(grid, phase, [coeff(j) for j in range(top + 1)])
    return SingularFieldModel(grid, coeff(-1), phi, Field(grid, remainder), series)


def _power_sum(grid: GridSpec, phase: np.ndarray,
               coeffs: list[FunctionOnInterval]) -> np.ndarray:
    """phase(y) * sum_j coeffs[j](y) x^j on the grid, as one real product
    of the Vandermonde matrix of the abscissae with the (K, ny) table
    phase * coeffs[j] read as float pairs; it rounds like a K-term dot
    product, within (K + 2) eps of the sum of the terms' moduli."""
    if coeffs and coeffs[0].mode == "samples":
        table = np.stack([fn.values_on(grid.ys) for fn in coeffs])
    else:
        # one Horner pass over the zero-padded columns; the padding
        # leaves every value's bits as evaluating each column alone
        stacked = np.zeros((max((fn.data.size for fn in coeffs), default=1),
                            len(coeffs)), dtype=complex)
        for j, fn in enumerate(coeffs):
            stacked[:fn.data.size, j] = fn.data
        table = polyval(grid.ys, stacked)
    table = np.multiply(phase, table, out=table)
    powers = np.vander(grid.xs, len(coeffs), increasing=True)
    return (powers @ table.view(float)).view(complex)


def synthesize_singular_u(profile: PoleProfile, grid: GridSpec
                          ) -> tuple[SingularFieldModel, SingularFieldModel]:
    """Sample the certified singular coefficient on a strip grid.

    Returns its model, the full field with its split into the explicit
    1/x part and the bounded remainder, in both slots of the pair.
    """
    _require_certified(profile)
    # u = exp(2i*phi) * sum_j r_j x^j; doubling phi is exact
    model = _laurent_model(grid, 2.0 * profile.phi, profile.r_fn, max(profile.r))
    return model, model


def synthesize_seeds(profile: PoleProfile, beta_minus1: FunctionOnInterval,
                     beta_plus_minus1: FunctionOnInterval, grid: GridSpec,
                     order: int = DEFAULT_ORDER,
                     im_beta1: FunctionOnInterval | None = None,
                     im_beta1_plus: FunctionOnInterval | None = None
                     ) -> tuple[SingularFieldModel, SingularFieldModel]:
    """Seed pair with prescribed positive leading coefficients.

    The direct seed solves the recursion for the profile itself; the
    conjugate seed solves it for the conjugate profile, which carries
    the shifted phase.
    """
    for name, fn in (("beta_minus1", beta_minus1),
                     ("beta_plus_minus1", beta_plus_minus1)):
        vals = fn.sample().real
        if np.min(vals) <= 0.0:
            raise PositivityError(f"{name} must be strictly positive "
                                  f"(min {np.min(vals):.3e})")
    series_f = solve_recursion(profile, beta_minus1, im_beta1, order)
    series_fp = solve_recursion(conjugate_profile(profile), beta_plus_minus1,
                                im_beta1_plus, order)
    return tuple(_laurent_model(grid, series.phi, series.beta_fn, series.order, series)
                 for series in (series_f, series_fp))


@dataclass(frozen=True)
class LaurentFit:
    """Per-row least-squares Laurent coefficients of a grid field."""

    orders: tuple[int, ...]
    coeffs: np.ndarray  # shape (len(orders), ny)
    sup: float  # max |field| on the fitted nodes

    def coeff(self, order: int) -> np.ndarray:
        return self.coeffs[self.orders.index(order)]

    def max_abs(self, order: int) -> float:
        return float(np.max(np.abs(self.coeff(order))))


#: slack of the |x| windows, in grid steps
WINDOW_SLACK = 1e-9


def _window(grid: GridSpec, lo: float, hi: float) -> np.ndarray:
    """Columns with lo <= |x| <= hi, up to WINDOW_SLACK * hx at both ends.

    linspace can put a node a hair past a bound on one side of the
    contour and exactly on it on the other (x = +0.05 is stored as
    0.05000000000000000278 at nx = 481); the slack keeps the two sides
    mirror images, so a fit sees the same columns left and right.
    """
    ax, slack = np.abs(grid.xs), WINDOW_SLACK * grid.hx
    return (ax >= lo - slack) & (ax <= hi + slack)


@lru_cache(maxsize=32)
def _projector(grid: GridSpec, orders: tuple[int, ...],
               x_window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, P): the rows a fit of ``orders`` reads, and its least-squares
    projector: P @ values[rows] are the fitted coefficients.

    The design depends on the grid, orders and window alone, so it is
    built once per GridSpec value: P = D^-1 A^+, A^+ the SVD pseudo-inverse
    of the design in t = x / delta (delta the largest selected |x|) and
    D = diag(delta^k).  On exact Laurent polynomials A^+ errs by up to
    3.5x lstsq's error, where R^-1 Q^T from a QR errs by up to 5x.  Both
    arrays are read-only; too few columns raise FitError.
    """
    xs = grid.xs
    sel = (np.abs(xs) > 0) & _window(grid, *x_window)
    sel[grid.band_rows] = False
    n_right = int(np.count_nonzero(sel & (xs > 0)))
    n_left = int(np.count_nonzero(sel & (xs < 0)))
    if min(n_right, n_left) < FIT_MIN_COLUMNS:
        raise FitError(
            f"need >= {FIT_MIN_COLUMNS} columns per side, have {n_left} left / "
            f"{n_right} right")
    rows = np.flatnonzero(sel)
    delta = float(np.max(np.abs(xs[rows])))
    design = np.stack([(xs[rows] / delta) ** k for k in orders], axis=1)
    proj = np.linalg.pinv(design) / (delta ** np.array(orders, dtype=float))[:, None]
    rows.flags.writeable = proj.flags.writeable = False
    return rows, proj


def fit_laurent_profile(field: Field, orders: tuple[int, ...],
                        x_window: tuple[float, float]) -> LaurentFit:
    """Fit sum_k c_k(y) x^k to each grid row by least squares.

    Uses active columns on both sides of x = 0 with lo <= |x| <= hi for
    ``x_window`` = (lo, hi) (see ``_window``).  Raises FitError with
    fewer than FIT_MIN_COLUMNS columns on either side.  The fit is one
    real product of the cached ``_projector`` with the rows read as
    float pairs.
    """
    orders = tuple(orders)
    rows, proj = _projector(field.grid, orders, tuple(map(float, x_window)))
    values = np.ascontiguousarray(field.values[rows])
    coeffs = (proj @ values.view(float)).view(complex)
    return LaurentFit(orders, coeffs, float(np.max(np.abs(values))))


def _diff_rows(values: np.ndarray, h: float, rows: np.ndarray) -> np.ndarray:
    """``diff_axis(values, h, axis=0)[rows]`` with the same bits, from
    rows[0] - 2 to rows[-1] + 2 alone: the stencil is elementwise, and
    where those rows reach an end of the array its edge rows are the array's."""
    a, b = max(int(rows[0]) - 2, 0), min(int(rows[-1]) + 3, values.shape[0])
    return diff_axis(values[a:b], h, axis=0)[rows - a]


@dataclass(frozen=True)
class ContourProfile:
    """Sup and fitted |c_-2|, |c_-1|, |c_0| of a field per rung delta/2 <= |x| <= delta."""

    delta_ladder: tuple[float, ...]
    sup: tuple[float, ...]
    c_minus2: tuple[float, ...]
    c_minus1: tuple[float, ...]
    c0: tuple[float, ...]

    def reasons(self) -> tuple[tuple[str, str], ...]:
        """(name, text) of each failed test at its first failing rung: a
        fitted pole coefficient above CANCEL_REL * |c_0| + CANCEL_ABS, and
        a sup that grows towards the contour."""
        bounds = [CANCEL_REL * c0 + CANCEL_ABS for c0 in self.c0]
        persist = [f"pole coefficients persist at delta = {delta:g} (|c-2| = {c2:.3e}, "
                   f"|c-1| = {c1:.3e}, bound {bound:.3e})" for delta, c2, c1, bound
                   in zip(self.delta_ladder, self.c_minus2, self.c_minus1, bounds)
                   if c2 > bound or c1 > bound]
        grows = [f"sup grows towards the contour ({a:.6e} -> {b:.6e})"
                 for a, b in zip(self.sup, self.sup[1:]) if b > a * SUP_GROWTH + SUP_ABS]
        return tuple((name, texts[0]) for name, texts
                     in (("pole_persists", persist), ("sup_grows", grows)) if texts)


def contour_profile(field: Field, delta_ladder: tuple[float, ...]) -> ContourProfile:
    """One Laurent fit per rung; a rung with too few columns raises FitError."""
    fits = [fit_laurent_profile(field, FIT_ORDERS, (delta / 2, delta))
            for delta in delta_ladder]
    return ContourProfile(tuple(delta_ladder), tuple(fit.sup for fit in fits),
                          *(tuple(fit.max_abs(k) for fit in fits) for k in (-2, -1, 0)))


@dataclass(frozen=True)
class PoleRemovalResult:
    """The pole-removing transform, its diagnostics and failed checks."""

    transform: TransformResult
    omega: Potential
    contour: ContourProfile  # of u_tilde
    residue_c_minus1: float
    residue_scale: float
    reasons: tuple[tuple[str, str], ...]

    @property
    def u_tilde(self) -> Field:
        return self.transform.u_tilde

    @property
    def passed(self) -> bool:
        return not self.reasons

    @property
    def verdict(self) -> str:
        return "fail: " + "; ".join(text for _, text in self.reasons) if self.reasons else "pass"

    def to_json(self) -> dict:
        """The report's diagnostics in the report's order, tuples as they are."""
        c = self.contour
        return {"delta_ladder": c.delta_ladder, "sup_u_tilde": c.sup,
                "fitted_c_minus2": c.c_minus2, "fitted_c_minus1": c.c_minus1,
                "fitted_c0": c.c0, "residue_c_minus1": self.residue_c_minus1,
                "residue_scale": self.residue_scale, "verdict": self.verdict}


def remove_pole(u_star: Field, f_star: SingularFieldModel,
                f_star_plus: SingularFieldModel, constant: complex = 0.0) -> PoleRemovalResult:
    """Apply the pole-removing simple transform and check boundedness.

    The transformed coefficient's ``contour_profile`` is read on a ladder
    of shrinking sub-strips (LADDER_FRACTIONS of the half-width).
    The 1/x coefficient of the x-derivative of the seed potential is
    fitted as well: it vanishes for a genuine seed pair and is the
    sharpest detector of seeds violating the first-order relations.
    The potential must also be closed to PATH_DEFECT_TOL.
    """
    grid = u_star.grid
    if grid.excluded_band is None:
        raise BandRequiredError("pole removal needs a grid with an excluded band")
    w = omega_singular(f_star, f_star_plus, constant)
    transform = moutard_simple(u_star, f_star, f_star_plus, w)
    eps = min(grid.x_max, abs(grid.x_min))
    contour = contour_profile(transform.u_tilde, tuple(f * eps for f in LADDER_FRACTIONS))

    # the 1/x part of dW/dx, W = Im w, on the window the ladder spans
    rows, proj = _projector(grid, FIT_ORDERS,
                            (min(contour.delta_ladder) / 2, max(contour.delta_ladder)))
    d_im = _diff_rows(w.im, grid.hx, rows)
    if not np.isfinite(d_im).all():
        raise NonFiniteFieldError("potential derivative has non-finite values in the fit window")
    res = proj @ d_im
    residue, residue_scale = (float(np.max(np.abs(res[FIT_ORDERS.index(k)])))
                              for k in (-1, -2))

    reasons = contour.reasons()
    if residue > RESIDUE_REL * residue_scale + RESIDUE_ABS:
        reasons += (("residue", f"potential derivative has a 1/x part "
                                f"({residue:.3e} vs scale {residue_scale:.3e})"),)
    if w.path_defect > PATH_DEFECT_TOL:
        reasons += (("path_defect", f"potential is not closed (path defect "
                                    f"{w.path_defect:.3e}, bound {PATH_DEFECT_TOL:g})"),)
    return PoleRemovalResult(transform, w, contour, residue, residue_scale, reasons)
