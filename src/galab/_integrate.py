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

from .grid import _largest, _row_blocks

# Interval weights for the cubic through four consecutive samples.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1]


def _interior(flat: np.ndarray, st: int, lo: int, hi: int, h: float,
              dest: np.ndarray, tmp: np.ndarray) -> None:
    """Interior increments at flat positions lo .. hi-1 into ``dest``.

    The step at i uses the samples st before i, at i, and st and 2 st
    after it, summed in that order; ``tmp`` is scratch of hi - lo.
    """
    w = _W_MID
    np.multiply(w[0], flat[lo - st:hi - st], out=dest)
    for k, wk in enumerate(w[1:]):
        np.add(dest, np.multiply(wk, flat[lo + k * st:hi + k * st], out=tmp), out=dest)
    np.multiply(h, dest, out=dest)


def _first(fm: np.ndarray, h: float) -> np.ndarray:
    wf = _W_FIRST
    return h * (wf[0] * fm[0] + wf[1] * fm[1] + wf[2] * fm[2] + wf[3] * fm[3])


def _last(fm: np.ndarray, h: float) -> np.ndarray:
    wl = _W_LAST
    return h * (wl[0] * fm[-4] + wl[1] * fm[-3] + wl[2] * fm[-2] + wl[3] * fm[-1])


def _running_rows(c: np.ndarray, h: float, out: np.ndarray, a: int, b: int,
                  by_rows: bool, inc: np.ndarray) -> None:
    """Rows a .. b-1 of the running integral of ``c`` along axis 0.

    Needs ``out[a - 1]`` when a > 0; reads ``c`` from row a - 2 to row
    b + 1.  ``inc`` is scratch for the increments feeding these rows,
    with one spare row in front when a > 0, and ``out[a:b]`` is scratch
    until the sums.  ``by_rows`` adds a row at a time, else cumsum runs
    the same sequential sums.
    """
    n = c.shape[0]
    m0 = max(a - 1, 0)  # increments m0 .. b-2, step[j] is increment m0 + j
    step = inc[1:b - a + 1] if a else inc[:b - 1]
    lo, hi = max(m0, 1), min(b - 1, n - 2)
    if lo < hi:
        row = c[0].size
        _interior(c.reshape(-1), row, lo * row, hi * row, h,
                  step[lo - m0:hi - m0].reshape(-1), out[a:a + hi - lo].reshape(-1))
    if m0 == 0 and b > 1:
        step[0] = _first(c, h)
    if b == n:
        step[-1] = _last(c, h)
    if a == 0:
        out[0] = 0.0
    if by_rows:
        k = max(a, 1)
        if k == 1 and b > 1:
            out[1] = step[0]
            k = 2
        for k in range(k, b):
            np.add(out[k - 1], step[k - 1 - m0], out=out[k])
    elif a <= 1:
        np.cumsum(step, axis=0, out=out[1:b])
    else:
        # the sums go on from out[a - 1], which cumsum copies unchanged
        inc[0] = out[a - 1]
        np.cumsum(inc[:b - a + 1], axis=0, out=out[a - 1:b])


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
    blocks = _row_blocks(c)
    if axis == 0:
        # blocks along the integral: each forms its increments from a
        # 3-row halo and sums them on from the row before it; cumsum steps
        # down columns, which is slower once each step crosses a page
        by_rows = c.ndim > 1 and out[0].nbytes >= 4096
        inc = np.empty_like(out[:max(s.stop - s.start + (1 if s.start else -1)
                                     for s in blocks)])
        for rows in blocks:
            _running_rows(c, h, out, rows.start, rows.stop, by_rows, inc)
        return out
    # blocks across it: each block of rows is integrated whole, its
    # interior increments in one flat pass; the junk this leaves where the
    # axis index is 0, n-2 or n-1 is overwritten or never summed
    row, st = c[0].size, math.prod(c.shape[axis + 1:])
    inc = np.empty_like(out[:_largest(blocks)])
    for rows in blocks:
        size = (rows.stop - rows.start) * row
        ib, ob = inc[:rows.stop - rows.start], out[rows]
        _interior(c[rows].reshape(-1), st, st, size - 2 * st, h,
                  ib.reshape(-1)[st:size - 2 * st], ob.reshape(-1)[:size - 3 * st])
        fm, step, om = (np.moveaxis(x, axis, 0) for x in (c[rows], ib, ob))
        step[0] = _first(fm, h)
        step[n - 2] = _last(fm, h)
        om[0] = 0.0
        np.cumsum(step[:n - 1], axis=0, out=om[1:])
    return out


def integral(f: np.ndarray, h: float) -> np.ndarray:
    """Definite integral over the whole sample range along the last axis."""
    return cumulative_integral(f, h)[..., -1]
