"""Cumulative quadrature on uniformly spaced samples.

Each step integrates the cubic interpolant through the four nearest
samples, so the local error is O(h^5) and the running integral is
O(h^4).  Unlike a running Simpson rule there is no odd/even step
asymmetry: the leading error term is a smooth function of the endpoint,
which keeps later finite-difference passes over the result at full
order.
"""

from __future__ import annotations

import numpy as np

# Interval weights for the cubic through four consecutive samples.
_W_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_W_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_W_LAST = _W_FIRST[::-1]


def cumulative_integral(f: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Running integral of samples ``f`` from index 0 along ``axis``.

    Returns an array of the same shape; entry k holds the integral from
    node 0 to node k.  Requires at least 4 samples along the axis.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    if n < 4:
        raise ValueError(f"cumulative_integral needs >= 4 samples, got {n}")
    fm = np.moveaxis(f, axis, 0)
    # both in the input's layout; the head of out is scratch until the sums
    inc = np.empty_like(fm[1:], dtype=np.result_type(fm.dtype, float))
    out = np.empty_like(fm, dtype=inc.dtype)
    w = _W_MID
    # interior steps k -> k+1 use samples k-1 .. k+2, summed in that order
    mid, tmp = inc[1:-1], out[:-3]
    np.multiply(w[0], fm[:-3], out=mid)
    for wk, fk in zip(w[1:], (fm[1:-2], fm[2:-1], fm[3:])):
        np.add(mid, np.multiply(wk, fk, out=tmp), out=mid)
    np.multiply(h, mid, out=mid)
    wf = _W_FIRST
    inc[0] = h * (wf[0] * fm[0] + wf[1] * fm[1] + wf[2] * fm[2] + wf[3] * fm[3])
    wl = _W_LAST
    inc[-1] = h * (wl[0] * fm[-4] + wl[1] * fm[-3] + wl[2] * fm[-2] + wl[3] * fm[-1])
    out[0] = 0.0
    if out.ndim > 1 and out[0].flags.c_contiguous and out[0].nbytes >= 4096:
        # cumsum's sequential sums; it steps down columns, which is slower
        # once each step crosses a page
        out[1] = inc[0]
        for k in range(2, n):
            np.add(out[k - 1], inc[k - 1], out=out[k])
    else:
        np.cumsum(inc, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


def integral(f: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Definite integral over the whole sample range along ``axis``."""
    cum = cumulative_integral(f, h, axis=axis)
    return np.take(cum, -1, axis=axis)
