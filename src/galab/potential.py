"""Imaginary-valued pair potentials built by quadrature.

For a solution/conjugate-solution pair (psi, psi+) the potential w
satisfies dw/dz = psi*psi+ and dw/dzbar = -conj(psi*psi+), i.e. in real
form dw = 2i*Im(p) dx + 2i*Re(p) dy with p = psi*psi+.  The form is
closed exactly when the pair solves the equations, so the potential is
recovered by integrating along axis-aligned L-paths from a basepoint,
up to a caller-chosen imaginary constant.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from ._integrate import _integrate_into, cumulative_integral, integral
from .errors import (BandRequiredError, ExactnessError, NonFiniteFieldError,
                     PositivityError, ShapeError, SingularOmegaError, ZeroPotentialError)
from .grid import Field, GridSpec, _each_block, _peak_abs, _row_blocks, _scrub

if TYPE_CHECKING:
    from .singularity import SingularFieldModel

#: pairs whose x-then-y and y-then-x integrals disagree by more than
#: this are rejected as incompatible
DEFAULT_EXACTNESS_TOL = 1e-6

#: admissible real part of an "imaginary-valued" array
REAL_DRIFT_TOL = 1e-10

#: relative floor (times the potential scale) below which a potential
#: or seed-matrix determinant counts as vanishing
DET_TOL_FACTOR = 1e-8


def _det(w: np.ndarray) -> np.ndarray:
    """Node-wise determinant of the real (..., N, N) W: its entry for
    N = 1, a closed form for N = 2, LU above."""
    if w.shape[-1] == 1:
        return w[..., 0, 0]
    if w.shape[-1] == 2:
        return w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]
    return np.linalg.det(w)


def _det_extremes(w: np.ndarray, ny: int, rows: slice) -> tuple:
    """(det, flat node) at the first minimum and the first maximum of
    det W over ``rows`` of ``w``, then the largest entry of W and of -W."""
    d, at = _det(w[rows]).ravel(), rows.start * ny
    lo, hi = int(np.argmin(d)), int(np.argmax(d))
    return (d[lo], at + lo), (d[hi], at + hi), np.max(w[rows]), -np.min(w[rows])


def _det_nodes(w: np.ndarray, grid: GridSpec, tol: float | None = None) -> float:
    """Smallest active |det W|, W the real (nx, ny, N, N) matrix of the potentials' ims.

    det W keeps one sign on each slab of active rows, or omega vanishes between
    two of its nodes (it may flip across the band, as a pole seed's 2b/x does);
    the smallest |det| is then a slab extreme, at the first node holding it, so
    ties and NaNs go to the first node in row order, block by block as each slab
    is scanned.  Raises where a slab takes both signs, naming its extremes, at
    the first NaN det, or where |det| drops to ``tol``, by default
    DET_TOL_FACTOR times the N-th power of the largest active |entry|:
    ZeroPotentialError for N = 1, SingularOmegaError for N >= 2.
    """
    n, slabs, lows, peaks = w.shape[-1], [s for s in grid.slabs if s.stop > s.start], [], []
    error = ZeroPotentialError if n == 1 else SingularOmegaError
    for s in slabs:
        los, his, tops, bottoms = zip(*_each_block(partial(_det_extremes, w[s], grid.ny),
                                                   _row_blocks(w[s]), here=n > 2))
        lo, hi = los[int(np.argmin([v for v, _ in los]))], his[int(np.argmax([v for v, _ in his]))]
        at = lambda k: (s.start + k // grid.ny, k % grid.ny)
        if lo[0] < 0 < hi[0]:
            raise error(f"{n}x{n} potential matrix vanishes between nodes: det = "
                        f"{lo[0]:.3e} at node {at(lo[1])}, {hi[0]:.3e} at node {at(hi[1])}")
        d, k = hi if hi[0] <= 0 else lo  # the extreme nearest zero
        lows.append((abs(d), at(k)))
        peaks += tops + bottoms
    low, node = lows[int(np.argmin([v for v, _ in lows]))]
    if np.isnan(low):
        raise error(f"{n}x{n} potential matrix has det = nan at node {node}")
    tol = DET_TOL_FACTOR * float(np.max(peaks)) ** n if tol is None else tol
    if low <= tol:
        count = sum(np.count_nonzero(np.abs(_det(w[s])) <= tol) for s in slabs)
        raise error(f"{n}x{n} potential matrix is singular at {count} node(s); "
                    f"|det| = {low:.3e} at node {node} (tol {tol:.1e})")
    return float(low)


@dataclass(frozen=True)
class Potential:
    """Imaginary-valued potential of a solution pair, as its imaginary part
    ``im``, integration constant included (complex values are projected,
    their active |real part| at most REAL_DRIFT_TOL).  ``path_defect``
    records the disagreement between the two L-path orientations (a
    closedness diagnostic).
    """

    grid: GridSpec
    im: np.ndarray
    _: KW_ONLY
    path_defect: float = 0.0
    real_drift: float = 0.0

    def __post_init__(self):
        vals, drift = np.asarray(self.im), self.real_drift
        if vals.shape != self.grid.shape():
            raise ShapeError("potential values do not match grid shape")
        if np.iscomplexobj(vals):  # closed forms, not transforms; -0.0 reads +0.0 as in 1j * imag
            vals, drift = vals.imag + 0.0, max(float(_peak_abs(self.grid, vals.real)), drift)
        if drift > REAL_DRIFT_TOL:
            raise ExactnessError(
                f"potential has real drift {drift:.3e} above {REAL_DRIFT_TOL:.1e}")
        object.__setattr__(self, "im", np.asarray(vals, dtype=float))
        object.__setattr__(self, "real_drift", drift)
        self.im.flags.writeable = False  # so a cached det_min holds

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        self.im.flags.writeable = False  # unpickled arrays are writeable

    @cached_property
    def det_min(self) -> float:
        """Smallest active |im|; the one ``_det_nodes`` scan raises where im vanishes."""
        return _det_nodes(self.im[..., None, None], self.grid)

    @property
    def values(self) -> np.ndarray:
        """1j * im: its real parts are signed zeros, or NaN where im is not finite."""
        with np.errstate(invalid="ignore"):
            return np.multiply(1j, self.im)

    @classmethod
    def from_values(cls, grid: GridSpec, values: np.ndarray) -> "Potential":
        """Wrap closed-form values."""
        values = np.asarray(values, dtype=complex)
        return cls(grid, _scrub(grid, np.broadcast_to(values, grid.shape()).copy()))

    def max_abs(self) -> float:
        return float(_peak_abs(self.grid, self.im))  # |1j * im| = |im|


def _check_imaginary_constant(constant: complex) -> complex:
    constant = complex(constant)
    if abs(constant.real) > REAL_DRIFT_TOL:
        raise ValueError(f"integration constant must be imaginary, got {constant}")
    return 1j * constant.imag


def _form_components(psi: Field, psi_plus: Field) -> tuple[np.ndarray, np.ndarray]:
    """Imaginary parts 2 Im p and 2 Re p of the form's dx and dy
    components; their real parts are exactly zero."""
    if psi.grid != psi_plus.grid:
        raise ShapeError("pair lives on different grids")
    a, b = np.empty(psi.values.shape), np.empty(psi.values.shape)

    def form(rows):
        p = psi.values[rows] * psi_plus.values[rows]
        np.multiply(2.0, p.imag, out=a[rows])
        np.multiply(2.0, p.real, out=b[rows])
    _each_block(form, _row_blocks(psi.values))
    return a, b


def _integrate_form(a: np.ndarray, b: np.ndarray, grid: GridSpec,
                    basepoint: tuple[int, int]) -> tuple[np.ndarray, float]:
    """Integral of a dx + b dy from ``basepoint`` along x-then-y L-paths.

    Also returns the largest disagreement, over active nodes, with the
    y-then-x orientation: zero up to quadrature error for a closed form.
    The components are real arrays, the imaginary parts of the form.
    Arrays of two or more row blocks integrate the two orientations at
    once, x-then-y in the caller and y-then-x in the block map's worker,
    each into an array allocated here: what a worker allocates stays in
    its own malloc arena.
    """
    i0, j0 = basepoint
    # each orientation is (leg - leg[start]) + w - w[ref], in place in w
    leg_xy = cumulative_integral(a[:, j0], grid.hx)
    leg_yx = cumulative_integral(b[i0, :], grid.hy)
    leg_xy, leg_yx = leg_xy - leg_xy[i0], leg_yx - leg_yx[j0]
    w_xy, w_yx = np.empty(a.shape), np.empty(a.shape)
    _each_block(lambda task: _integrate_into(*task),
                [(b, w_xy, grid.hy, 1), (a, w_yx, grid.hx, 0)], here=len(_row_blocks(a)) < 2)
    ref_xy, ref_yx = w_xy[:, j0].copy(), w_yx[i0, :].copy()

    def combine(rows):
        xy, yx = w_xy[rows], w_yx[rows]
        np.add(leg_xy[rows, None], xy, out=xy)
        np.subtract(xy, ref_xy[rows, None], out=xy)
        np.add(leg_yx[None, :], yx, out=yx)
        np.subtract(yx, ref_yx[None, :], out=yx)
        return _peak_abs(grid, np.subtract(xy, yx, out=yx), rows)
    return w_xy, float(np.max(_each_block(combine, _row_blocks(w_xy))))


def omega(psi: Field, psi_plus: Field, basepoint: tuple[int, int] = (0, 0),
          constant: complex = 0.0) -> Potential:
    """Integrate the pair potential from ``basepoint``.

    Parameters
    ----------
    psi, psi_plus : Field
        Solutions of the direct and conjugate equations on one grid.
    basepoint : (i, j)
        Node index where the potential equals ``constant``.
    constant : complex
        Imaginary integration constant.

    A disagreement above DEFAULT_EXACTNESS_TOL between the x-then-y and
    y-then-x L-path orientations raises ExactnessError, which signals
    the pair does not solve the equations.
    """
    constant = _check_imaginary_constant(constant)
    a, b = _form_components(psi, psi_plus)
    grid = psi.grid
    w_xy, defect = _integrate_form(a, b, grid, basepoint)
    if defect > DEFAULT_EXACTNESS_TOL:
        raise ExactnessError(
            f"path-dependence defect {defect:.3e} exceeds {DEFAULT_EXACTNESS_TOL:.1e}; "
            "the pair is not a solution/conjugate-solution pair")
    # constant.imag is not -0.0, so 1j * im is 1j * (w + c) projected
    np.add(w_xy, constant.imag, out=w_xy)
    return Potential(grid, w_xy, path_defect=defect)


def loop_defect(psi: Field, psi_plus: Field) -> float:
    """|closed-loop integral| of the potential form around the grid's
    border.  Near zero iff the pair is compatible.
    """
    if psi.grid != psi_plus.grid:
        raise ShapeError("pair lives on different grids")
    grid, every = psi.grid, slice(None)
    # the product is formed on the border only; as in _form_components,
    # x-edges integrate 2 Im p and y-edges 2 Re p
    p = lambda i, j: psi.values[i, j] * psi_plus.values[i, j]
    bottom = integral(2.0 * p(every, 0).imag, grid.hx)
    top = integral(2.0 * p(every, -1).imag, grid.hx)
    right = integral(2.0 * p(-1, every).real, grid.hy)
    left = integral(2.0 * p(0, every).real, grid.hy)
    return float(abs(bottom + right - top - left))


def omega_singular(f: "SingularFieldModel", f_plus: "SingularFieldModel",
                   constant: complex = 0.0) -> Potential:
    """Potential of a seed pair with 1/x leading behavior.

    The product of the leading terms integrates in closed form to
    2i*b(y)/x with b = product of the leading coefficients; only the
    remainder, which is bounded across the contour for a genuine pair,
    is integrated numerically.  Integrating the remainder over the
    whole strip keeps one shared constant on both sides of the contour.

    Raises PositivityError when b is not strictly positive on the
    contour interval.
    """
    constant = _check_imaginary_constant(constant)
    grid = f.grid
    if f_plus.grid != grid:
        raise ShapeError("seed models live on different grids")
    if grid.excluded_band is None:
        raise BandRequiredError("singular potentials need a grid with an excluded band")

    ys, xs = grid.ys, grid.xs[:, None]
    b = (f.leading * f_plus.leading).real_part()
    bv = b.values_on(ys)
    if np.min(bv) <= 0.0:
        raise PositivityError(
            f"product of leading coefficients must be positive, min {np.min(bv):.3e}")
    bpv = b.deriv().values_on(ys)

    # model terms from the abscissae broadcast over y, times complex-cast reciprocals
    with np.errstate(divide="ignore", invalid="ignore"):
        p_model = -1j * bv[None, :] * (1.0 / xs ** 2).astype(complex)
        p_model += bpv[None, :] * (1.0 / xs).astype(complex)
    p_rem = np.multiply(f.evaluate().values, f_plus.evaluate().values)
    np.subtract(p_rem, p_model, out=p_rem)
    del p_model  # no whole-grid model term outlives its use
    if not all(np.isfinite(s.view(float)).all() for s in grid.views(grid.slabs, p_rem)):
        raise NonFiniteFieldError("seed product is non-finite at active nodes")
    # for a genuine pair the remainder is bounded across the contour;
    # a node exactly on it is filled by cubic interpolation so the
    # crossing x-leg keeps its order
    rows, cols = np.nonzero(~np.isfinite(p_rem[grid.band_rows]))
    for i, j in zip(rows + grid.band_rows.start, cols):
        if 2 <= i < grid.nx - 2 and np.all(np.isfinite(
                p_rem[[i - 2, i - 1, i + 1, i + 2], j])):
            p_rem[i, j] = (-p_rem[i - 2, j] + 4 * p_rem[i - 1, j]
                           + 4 * p_rem[i + 1, j] - p_rem[i + 2, j]) / 6.0
        else:
            p_rem[i, j] = 0.0
    a, b = 2.0 * p_rem.imag, 2.0 * p_rem.real
    del p_rem

    w_rem, defect = _integrate_form(a, b, grid, (grid.nx - 1, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_lead = 2.0 * bv.real[None, :] * (1.0 / xs)  # imaginary part of 2i b/x
    np.copyto(w_lead, 0.0, where=~np.isfinite(w_lead))
    np.add(w_rem, w_lead, out=w_rem)
    np.add(w_rem, constant.imag, out=w_rem)
    return Potential(grid, w_rem, path_defect=defect)
