"""Cumulative quadrature on uniformly spaced samples.

Each step integrates the cubic interpolant through the four nearest
samples, so the local error is O(h^5) and the running integral is
O(h^4).  Unlike a running Simpson rule there is no odd/even step
asymmetry: the leading error term is a smooth function of the endpoint,
which keeps later finite-difference passes over the result at full
order.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _each_block, _row_blocks

# Interval weights for the cubic through four consecutive samples.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1]


def _interior(src: np.ndarray, dst: np.ndarray, st: int, lo: int, hi: int,
              h: float, tmp: np.ndarray) -> None:
    """Interior steps into flat positions lo .. hi-1 of ``dst``.

    The step stored at p is the one that ends there, from p - st to p; it
    uses the samples of ``src`` at p - 2 st, p - st, p and p + st, summed
    in that order.  ``tmp`` is scratch of at least hi - lo.
    """
    w, dest, tmp = _W_MID, dst[lo:hi], tmp[:hi - lo]
    np.multiply(w[0], src[lo - 2 * st:hi - 2 * st], out=dest)
    for k, wk in enumerate(w[1:], -1):
        np.add(dest, np.multiply(wk, src[lo + k * st:hi + k * st], out=tmp), out=dest)
    np.multiply(h, dest, out=dest)


def _first(fm: np.ndarray, h: float) -> np.ndarray:
    wf = _W_FIRST
    return h * (wf[0] * fm[0] + wf[1] * fm[1] + wf[2] * fm[2] + wf[3] * fm[3])


def _last(fm: np.ndarray, h: float) -> np.ndarray:
    wl = _W_LAST
    return h * (wl[0] * fm[-4] + wl[1] * fm[-3] + wl[2] * fm[-2] + wl[3] * fm[-1])


def _sum_steps(fm: np.ndarray, om: np.ndarray, h: float, by_rows: bool) -> None:
    """The running integral of ``fm`` along axis 0, in place in ``om``.

    ``om[k]`` holds the interior step ending at node k; this sets node 0 and
    the two edge steps, then sums in place.  The sums start at node 1, whose
    value is its step as it is: 0 + step would turn a -0.0 step into +0.0.
    ``by_rows`` adds a row at a time, else cumsum runs the same sequential sums.
    """
    n = fm.shape[0]
    om[0], om[1], om[n - 1] = 0.0, _first(fm, h), _last(fm, h)
    if by_rows:
        for k in range(2, n):
            np.add(om[k - 1], om[k], out=om[k])
    else:
        sums = om[1:]
        np.cumsum(sums, axis=0, out=sums)


def cumulative_integral(f: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Running integral of samples ``f`` from index 0 along ``axis``.

    Returns an array of the same shape; entry k holds the integral from
    node 0 to node k.  Requires at least 4 samples along the axis.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    if n < 4:
        raise ValueError(f"cumulative_integral needs >= 4 samples, got {n}")
    axis %= f.ndim
    c = np.ascontiguousarray(f)
    out = np.empty(c.shape, dtype=np.result_type(c.dtype, float))
    row, st = c[0].size, math.prod(c.shape[axis + 1:])
    src, dst = c.reshape(-1), out.reshape(-1)
    # cumsum steps down columns, which is slower once each step crosses a page
    by_rows = axis == 0 and c.ndim > 1 and out[0].nbytes >= 4096

    def steps(rows, tmp):
        a, b = rows.start, rows.stop
        if axis == 0:
            # blocks along the integral: the interior steps of nodes
            # a .. b-1 read c from row a - 2 to row b; the sums run after
            lo, hi = max(a, 2) * row, min(b, n - 1) * row
        else:
            # blocks across it, each integrated whole: the junk steps
            # stored where the axis index is 0, 1 or n-1 are overwritten
            lo, hi = a * row + 2 * st, b * row - st
        if lo < hi:
            _interior(src, dst, st, lo, hi, h, tmp)
        if axis:
            _sum_steps(*(np.moveaxis(x[rows], axis, 0) for x in (c, out)), h, by_rows)
    _each_block(steps, _row_blocks(c), lambda m: (np.empty_like(dst[:m * row]),))
    if axis == 0:
        _sum_steps(c, out, h, by_rows)
    return out


def integral(f: np.ndarray, h: float) -> np.ndarray:
    """Definite integral over the whole sample range along the last axis."""
    return cumulative_integral(f, h)[..., -1]
