"""Complex fields on rectangular grids and their Wirtinger calculus.

A field is a complex array sampled on a uniform rectangular grid.  The
derivatives d/dz and d/dzbar are built from 4th-order finite differences
(central in the interior, one-sided at edges).  Grids may carry an
excluded band around x = 0: nodes inside it are ignored by every norm,
which is how fields with a pole along the contour x = 0 are handled.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonFiniteFieldError, ShapeError, StencilError


def _keep_freed_heap() -> tuple[int, int] | None:
    """On glibc, keep the memory that freed grid arrays leave in the process.

    glibc unmaps freed blocks above its adaptive mmap threshold and trims
    the top of the heap, so the next call faults every page of the same
    grids in again: about 1200 minor faults per pole-strip item, at about
    3 us each.  The mmap threshold is pinned at 32 MiB, glibc's ceiling for
    the adaptive one on 64-bit, and the trim threshold raised to 2**31 - 1.
    Setting either stops the adaptation, so the trim threshold is raised
    only once the mmap threshold is set.  Returns both ``mallopt`` results
    (1 is success), or None, setting nothing, on any other C library.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    pinned = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    return pinned, pinned and mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


#: the process memory policy, set once when the array layer is imported
_HEAP_POLICY = _keep_freed_heap()

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
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 nodes per axis")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max,
                                       self.hx, self.hy))):
            raise ValueError("grid bounds and spacings must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid rectangle is empty")
        if self.excluded_band is not None:
            band = self.excluded_band  # written so that nan fails
            if not band > 0:
                raise ValueError("excluded_band must be positive")
            if not band < max(abs(self.x_min), self.x_max):
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

    @cached_property
    def band_rows(self) -> slice:
        """Rows with |x| < band, one range as the abscissae are sorted; empty
        without a band, and at x = 0 where the band covers no node."""
        band = self.excluded_band
        return slice(0, 0) if band is None else slice(
            *(int(np.searchsorted(self.xs, b, s)) for b, s in ((-band, "right"), (band, "left"))))

    @property
    def slabs(self) -> tuple[slice, slice]:
        """Row ranges of the active nodes, either side of ``band_rows``
        (one may be empty): ``mask`` depends on x alone."""
        return slice(0, self.band_rows.start), slice(self.band_rows.stop, self.nx)

    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def views(self, ranges, values: np.ndarray, rows: slice = slice(None)) -> list:
        """Views of ``values``, the grid's ``rows``, on the row ``ranges`` they meet."""
        a, b, _ = rows.indices(self.nx)
        return [values[max(r.start, a) - a:min(r.stop, b) - a] for r in ranges
                if max(r.start, a) < min(r.stop, b)]


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
        _check_finite(self.grid, vals)

    @classmethod
    def from_callable(cls, grid: GridSpec,
                      fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        """Sample ``fn(z)`` on the grid.  Non-finite values are allowed
        only inside the excluded band and are zeroed there."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(fn(grid.z), dtype=complex)
        return cls(grid, _scrub(grid, np.broadcast_to(vals, grid.shape()).copy()))

    def max_abs(self) -> float:
        """Max modulus over active nodes."""
        return float(_peak_abs(self.grid, self.values))


#: bytes of one row block in a full-grid pass: a block's temporaries stay
#: in a 2 MB L2 cache
_BLOCK_BYTES = 1 << 19


def _row_blocks(a: np.ndarray) -> list[slice]:
    """Contiguous slices of ``a``'s rows, about _BLOCK_BYTES each.

    A short tail merges into the block before it, so an array under two
    blocks is one block, and every block of a larger array stays above
    the 256 KB from which numpy reuses temporaries in place; that reuse
    decides the operand order, and so the last bit, of complex products.
    """
    n = a.shape[0]
    step = max(1, _BLOCK_BYTES * n // max(a.nbytes, 1))
    count = max(1, n // step)
    return [slice(k * step, n if k == count - 1 else (k + 1) * step)
            for k in range(count)]


class _Worker(threading.Thread):
    """The daemon thread that runs the second half of a block map: ``busy``
    is held while a map uses it, ``go`` and ``done`` hand a job over."""

    def __init__(self):
        super().__init__(name="galab-blocks", daemon=True)
        self.busy, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire(), self.done.acquire()

    def run(self):
        while self.go.acquire():
            try:  # busy is held, so the blocks run in this thread
                self.out = self.job[0].run(_each_block, *self.job[1]), None
            except BaseException as exc:  # raised in the caller, after its half
                self.out = None, exc
            self.job = None  # holds no array past its map
            self.done.release()


#: process id -> its worker, started on first use (a forked child starts
#: its own), or None where the process may use one CPU only
_WORKERS: dict[int, _Worker | None] = {}


def _each_block(fn, blocks: list[slice], here: bool = False) -> list:
    """[fn(rows) for rows in blocks].

    With two or more blocks and CPUs, the caller runs the first half and
    the worker the second, in a copy of the caller's context (numpy's
    errstate lives there).  Both end before the map returns, and the first
    failing block in row order raises.  Else, inside a map, or with ``here``
    (blocks whose LAPACK calls contend across threads), all run in the caller.
    """
    if len(blocks) > 1 and not here and (pid := os.getpid()) not in _WORKERS:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        new = _Worker() if (cpus or 1) > 1 else None
        if _WORKERS.setdefault(pid, new) is new and new:  # one start where threads race here
            new.start()
    worker = len(blocks) > 1 and not here and _WORKERS[os.getpid()]
    if not worker or not worker.busy.acquire(blocking=False):
        return [fn(rows) for rows in blocks]
    k = (len(blocks) + 1) // 2
    worker.job = contextvars.copy_context(), (fn, blocks[k:])
    worker.go.release()
    try:
        head = _each_block(fn, blocks[:k])  # busy is held: runs here
    finally:
        worker.done.acquire()  # if interrupted, busy stays held: later maps run here
        (tail, exc), worker.out = worker.out, None
        worker.busy.release()
    if exc is not None:
        raise exc
    return head + tail


def _stencil_edges(fm: np.ndarray, h: float) -> tuple:
    """(index, entry) for entries 0, 1, n-1 and n-2 of the 4th-order
    d/dx along axis 0, by tensordot over the whole array."""
    head, tail, n = fm[:5], fm[-5:], fm.shape[0]
    return ((0, np.tensordot(_EDGE0, head, axes=(0, 0)) / h),
            (1, np.tensordot(_EDGE1, head, axes=(0, 0)) / h),
            (n - 1, -np.tensordot(_EDGE0[::-1], tail, axes=(0, 0)) / h),
            (n - 2, -np.tensordot(_EDGE1[::-1], tail, axes=(0, 0)) / h))


def _stencil_block(flat: np.ndarray, shape: tuple, axis: int, scale: tuple,
                   rows: slice, dest: np.ndarray) -> None:
    """Central entries of ``rows`` of the 4th-order d/d(axis) of the
    C-ordered array of ``shape`` with data ``flat``, into ``dest``, the
    flat data of those rows, scaled by ``scale`` = (ufunc, c).

    Each neighbour is a fixed flat distance away, so every operand is
    one contiguous run.  Along axis 0 a block reads two rows past its
    ends; across it, the entries within two of an end of the axis read
    neighbours that are not theirs, and the edge entries overwrite them.
    """
    row, st = math.prod(shape[1:]), math.prod(shape[axis + 1:])
    a, b = rows.start * row, rows.stop * row
    lo, hi = ((max(a, 2 * st), min(b, flat.size - 2 * st)) if axis == 0
              else (a + 2 * st, b - 2 * st))
    if lo >= hi:
        return
    mid = dest[lo - a:hi - a]
    np.subtract(flat[lo - 2 * st:hi - 2 * st], 8 * flat[lo - st:hi - st], out=mid)
    np.add(mid, 8 * flat[lo + st:hi + st], out=mid)
    np.subtract(mid, flat[lo + 2 * st:hi + 2 * st], out=mid)
    scale[0](mid, scale[1], out=mid)


def _check_stencil(values: np.ndarray, axis: int) -> None:
    if values.shape[axis] < 5:
        raise StencilError(
            f"need >= 5 nodes along axis {axis}, got {values.shape[axis]}")


def diff_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative of uniformly sampled values."""
    values = np.asarray(values)
    _check_stencil(values, axis)
    axis %= values.ndim
    c = np.ascontiguousarray(values)
    out = np.empty(c.shape, dtype=np.result_type(c.dtype, float))
    flat, dest, row = c.reshape(-1), out.reshape(-1), c[0].size
    _each_block(lambda rows: _stencil_block(flat, c.shape, axis, (np.divide, 12 * h), rows,
                                            dest[rows.start * row:rows.stop * row]),
                _row_blocks(c))
    om = np.moveaxis(out, axis, 0)
    # on the input as given: tensordot's bits depend on its strides
    for k, entry in _stencil_edges(np.moveaxis(values, axis, 0), h):
        om[k] = entry
    return out


def _wirtinger(f: Field, combine, finish, out: np.ndarray | None = None) -> list:
    """finish(rows, block) for each row block, in row order, of
    0.5 * combine(dx, 1j * dy), band scrubbed.

    Each block is formed in ``out``'s rows (C-ordered), or in a block of
    its own when ``out`` is None, from dx and dy of those rows; the edge
    entries come from the whole array, the rest from float views.
    """
    vals, grid = np.ascontiguousarray(f.values), f.grid
    _check_stencil(vals, 0)
    _check_stencil(vals, 1)
    flat, shape = vals.reshape(-1).view(float), vals.shape + (2,)
    dx_edges = _stencil_edges(f.values, grid.hx)
    dy_edges = _stencil_edges(np.moveaxis(f.values, 1, 0), grid.hy)

    def block(rows):
        a, b = rows.start, rows.stop
        d = np.empty_like(vals[rows]) if out is None else out[rows]
        dv = d.reshape(-1).view(float)
        _stencil_block(flat, shape, 0, (np.multiply, 1.0 / (12 * grid.hx)), rows, dv)
        for k, entry in dx_edges:
            if a <= k < b:
                d[k - a] = entry
        dy = np.empty_like(d)
        dyv = dy.reshape(-1).view(float)
        _stencil_block(flat, shape, 1, (np.multiply, 1.0 / (12 * grid.hy)), rows, dyv)
        for k, entry in dy_edges:
            dy[:, k] = entry[rows]
        # combine with 1j * dy = (-Im dy, Re dy)
        combine(dv[0::2], np.negative(dyv[1::2], out=dyv[1::2]), out=dv[0::2])
        combine(dv[1::2], dyv[0::2], out=dv[1::2])
        np.multiply(0.5, dv, out=dv)
        return finish(rows, _scrub(grid, d, rows))
    return _each_block(block, _row_blocks(vals))


def _stencil_field(f: Field, combine) -> Field:
    out = np.empty(f.values.shape, dtype=complex)
    _wirtinger(f, combine, lambda rows, d: None, out)
    return Field(f.grid, out)


def dbar(f: Field) -> Field:
    """d/dzbar = (d/dx + i d/dy) / 2 by 4th-order finite differences."""
    return _stencil_field(f, np.add)


def dz(f: Field) -> Field:
    """d/dz = (d/dx - i d/dy) / 2 by 4th-order finite differences."""
    return _stencil_field(f, np.subtract)


def _scrub(grid: GridSpec, vals: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """``vals``, the grid's ``rows``, with non-finite values outside the
    active mask set to 0 in place.

    Poles on the contour and stencils that reach into the excluded band
    produce junk there; at active nodes it is left for Field to reject.
    """
    for band in grid.views((grid.band_rows,), vals, rows):
        np.copyto(band, 0.0, where=~np.isfinite(band))
    return vals


def _peak_abs(grid: GridSpec, values: np.ndarray, rows: slice = slice(None)) -> float:
    """Largest |values| (the grid's ``rows``) over active nodes, slab by
    slab; NaN if any is NaN, -inf if there are none."""
    return np.max([np.max(np.abs(s), initial=-np.inf)
                   for s in grid.views(grid.slabs, values, rows)], initial=-np.inf)


def _check_finite(grid: GridSpec, values: np.ndarray, rows: slice = slice(None)) -> None:
    for s in grid.views(grid.slabs, values, rows):
        s = s.view(float) if np.iscomplexobj(s) and s.strides[-1] == s.itemsize else s
        if not all(_each_block(lambda r: np.isfinite(s[r]).all(), _row_blocks(s))):
            raise NonFiniteFieldError("field has non-finite values at active nodes")


def residual(u: Field, psi: Field, kind: str = "direct") -> float:
    """Max-norm defect of the generalized analytic equations.

    ``direct`` measures dbar(psi) - u * conj(psi); ``conjugate``
    measures dbar(psi) + conj(u) * conj(psi).  Only active nodes count.
    The stencil, product and norm run one row block at a time.
    """
    if u.grid != psi.grid:
        raise ShapeError("u and psi live on different grids")
    grid = u.grid

    def defect(rows, d):
        _check_finite(grid, d, rows)
        # products as written: numpy may swap their operands to reuse the
        # temporary conjugate, and complex products differ in the last bit
        if kind == "direct":
            np.subtract(d, u.values[rows] * np.conj(psi.values[rows]), out=d)
        elif kind == "conjugate":
            np.add(d, np.conj(u.values[rows]) * np.conj(psi.values[rows]), out=d)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return _peak_abs(grid, d, rows)
    return float(np.max(_wirtinger(psi, np.add, defect)))


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
    # one y-row is re, im, re, im, ... along x; its text is the file's row
    # template, with y put in for "\0" and the row's numbers %-formatted
    rows = np.ascontiguousarray(values.T, dtype=complex).view(float)
    template = "".join(f"{x!r},\0,%r,%r\r\n" for x in grid.xs.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,y,re,im\r\n")
        for y, row in zip(grid.ys.tolist(), rows):
            fh.write(template.replace("\0", repr(y)) % tuple(row.tolist()))
