"""Complex fields on rectangular grids and their Wirtinger calculus.

A field is a complex array sampled on a uniform rectangular grid.  The
derivatives d/dz and d/dzbar are built from 4th-order finite differences
(central in the interior, one-sided at edges).  Grids may carry an
excluded band around x = 0: nodes inside it are ignored by every norm,
which is how fields with a pole along the contour x = 0 are handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonFiniteFieldError, ShapeError, StencilError

# 4th-order first-derivative stencil rows (edge, sub-edge), unit spacing
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling of ``[x_min, x_max] x [y_min, y_max]``.

    ``excluded_band``, when set, masks all nodes with ``|x| < band`` out
    of norms and residual checks (but fields may still carry values
    there).
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    excluded_band: float | None = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid rectangle is empty")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 nodes per axis")
        if self.excluded_band is not None:
            band = self.excluded_band
            if band <= 0:
                raise ValueError("excluded_band must be positive")
            if band >= max(abs(self.x_min), self.x_max):
                raise ValueError("excluded_band covers the whole x-range")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @cached_property
    def x(self) -> np.ndarray:
        """x coordinate at every node, shape (nx, ny): a read-only view."""
        return np.broadcast_to(self.xs[:, None], (self.nx, self.ny))

    @cached_property
    def y(self) -> np.ndarray:
        return np.broadcast_to(self.ys[None, :], (self.nx, self.ny))

    @cached_property
    def z(self) -> np.ndarray:
        return self.x + 1j * self.y

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean array, True at nodes that participate in norms."""
        if self.excluded_band is None:
            return np.ones((self.nx, self.ny), dtype=bool)
        return np.abs(self.x) >= self.excluded_band

    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def active(self, values: np.ndarray) -> np.ndarray:
        """``values`` at active nodes: itself when unbanded, else ``values[mask]``."""
        return values if self.excluded_band is None else values[self.mask]

    def node_index(self, x: float, y: float) -> tuple[int, int]:
        """Index of the grid node nearest to (x, y)."""
        i = int(round((x - self.x_min) / self.hx))
        j = int(round((y - self.y_min) / self.hy))
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)


@dataclass(frozen=True)
class Field:
    """Complex-valued grid function."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape():
            raise ShapeError(
                f"values shape {vals.shape} does not match grid {self.grid.shape()}")
        if not np.all(np.isfinite(self.grid.active(vals))):
            raise NonFiniteFieldError("field has non-finite values at active nodes")

    @classmethod
    def from_callable(cls, grid: GridSpec,
                      fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        """Sample ``fn(z)`` on the grid.  Non-finite values are allowed
        only inside the excluded band and are zeroed there."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(fn(grid.z), dtype=complex)
        return cls(grid, _scrub(grid, np.broadcast_to(vals, grid.shape()).copy()))

    def conj(self) -> "Field":
        return Field(self.grid, np.conj(self.values))

    def max_abs(self) -> float:
        """Max modulus over active nodes."""
        return float(np.max(np.abs(self.grid.active(self.values))))

    def _coerce(self, other):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ShapeError("fields live on different grids")
            return other.values
        if np.isscalar(other) or isinstance(other, np.ndarray):
            return other
        return NotImplemented

    def _binary(self, other, op):
        vals = self._coerce(other)
        if vals is NotImplemented:
            return NotImplemented
        with np.errstate(divide="ignore", invalid="ignore"):
            out = op(self.values, vals)
        return Field(self.grid, _scrub(self.grid, np.asarray(out, dtype=complex)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __neg__(self):
        return Field(self.grid, -self.values)


def _diff_1d(fm: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/dx along axis 0 of an array with >= 5 rows."""
    out = np.empty_like(fm, dtype=np.result_type(fm.dtype, float))
    mid, tmp = out[2:-2], np.empty_like(out[2:-2])
    np.subtract(fm[:-4], np.multiply(8, fm[1:-3], out=tmp), out=mid)
    np.add(mid, np.multiply(8, fm[3:-1], out=tmp), out=mid)
    np.subtract(mid, fm[4:], out=mid)
    np.divide(mid, 12 * h, out=mid)
    head = fm[:5]
    out[0] = np.tensordot(_EDGE0, head, axes=(0, 0)) / h
    out[1] = np.tensordot(_EDGE1, head, axes=(0, 0)) / h
    tail = fm[-5:]
    out[-1] = -np.tensordot(_EDGE0[::-1], tail, axes=(0, 0)) / h
    out[-2] = -np.tensordot(_EDGE1[::-1], tail, axes=(0, 0)) / h
    return out


def diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative of uniformly sampled values."""
    values = np.asarray(values)
    if values.shape[axis] < 5:
        raise StencilError(
            f"need >= 5 nodes along axis {axis}, got {values.shape[axis]}")
    fm = np.moveaxis(values, axis, 0)
    return np.moveaxis(_diff_1d(fm, h), 0, axis)


def _wirtinger(f: Field, combine) -> Field:
    """0.5 * combine(dx, 1j * dy), formed in the arrays of dx and dy."""
    dx = diff_axis(f.values, f.grid.hx, axis=0)
    dy = diff_axis(f.values, f.grid.hy, axis=1)
    combine(dx, np.multiply(1j, dy, out=dy), out=dx)
    return Field(f.grid, _scrub(f.grid, np.multiply(0.5, dx, out=dx)))


def dbar(f: Field) -> Field:
    """d/dzbar = (d/dx + i d/dy) / 2 by 4th-order finite differences."""
    return _wirtinger(f, np.add)


def dz(f: Field) -> Field:
    """d/dz = (d/dx - i d/dy) / 2 by 4th-order finite differences."""
    return _wirtinger(f, np.subtract)


def _scrub(grid: GridSpec, vals: np.ndarray) -> np.ndarray:
    """``vals`` with non-finite values outside the active mask set to 0.

    Poles on the contour and stencils that reach into the excluded band
    produce junk there; at active nodes it is left for Field to reject.
    """
    if grid.excluded_band is not None:
        vals = np.where(np.isfinite(vals) | grid.mask, vals, 0.0)
    return vals


def residual(u: Field, psi: Field, kind: str = "direct") -> float:
    """Max-norm defect of the generalized analytic function equations.

    ``direct`` measures dbar(psi) - u * conj(psi); ``conjugate``
    measures dbar(psi) + conj(u) * conj(psi).  Only active nodes count.
    """
    if u.grid != psi.grid:
        raise ShapeError("u and psi live on different grids")
    d = dbar(psi).values
    # products as written: numpy may swap their operands to reuse the
    # temporary conjugate, and complex products differ in the last bit
    if kind == "direct":
        np.subtract(d, u.values * np.conj(psi.values), out=d)
    elif kind == "conjugate":
        np.add(d, np.conj(u.values) * np.conj(psi.values), out=d)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return float(np.max(np.abs(u.grid.active(d))))


def write_csv(path, grid: GridSpec, values: np.ndarray) -> None:
    """Dump a grid function as ``x,y,re,im`` rows (y outer, x inner).

    Every number is written with ``repr`` and every line ends in
    ``\\r\\n``, as ``csv.writer`` writes them.  The file is streamed
    one y-row per write, so its text is never held whole in memory.
    """
    values = np.asarray(values)
    if values.shape != grid.shape():
        raise ShapeError(
            f"values shape {values.shape} does not match grid {grid.shape()}")
    re_rows = np.asarray(np.real(values), dtype=float).T
    im_rows = np.asarray(np.imag(values), dtype=float).T
    xs = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,re,im\r\n")
        for y, re_row, im_row in zip(grid.ys.tolist(), re_rows, im_rows):
            line = ("{},%r,{!r},{!r}\r\n" % y).format
            fh.write("".join(map(line, xs, re_row.tolist(), im_row.tolist())))
