"""The grid kernels against their earlier, allocating forms, bit for bit.

Each ``ref_*`` function below is the kernel as it was before it worked
in place: whole-grid temporaries, ``np.cumsum`` on every layout, boolean
mask copies and an environment holding every variable.  The kernels
must give the same bytes on float and complex data, on both axes, at
the minimum sizes, on banded strips with inf and nan inside the band,
and below and above the array size at which numpy starts to reuse
temporaries.
"""

import re

import numpy as np
import pytest

from galab._integrate import _W_FIRST, _W_LAST, _W_MID, cumulative_integral
from galab.errors import ExpressionError, SingularOmegaError, ZeroPotentialError
from galab.expressions import (_GRID_VARIABLES, BinOp, Var, _variables, evaluate,
                               evaluate_on_grid, parse_expression)
from galab.grid import (_EDGE0, _EDGE1, Field, GridSpec, _scrub, dbar, diff_axis,
                        dz, residual)
from galab.moutard import _det_nodes
from galab.potential import _integrate_form, omega

from conftest import assert_same_bits, make_grid


# ------------------------------------------------------------ references

def ref_cumulative_integral(f, h, axis=-1):
    f = np.asarray(f)
    n = f.shape[axis]
    fm = np.moveaxis(f, axis, 0)
    inc = np.empty((n - 1,) + fm.shape[1:], dtype=np.result_type(fm.dtype, float))
    w = _W_MID
    inc[1:-1] = h * (
        w[0] * fm[:-3] + w[1] * fm[1:-2] + w[2] * fm[2:-1] + w[3] * fm[3:]
    )
    wf = _W_FIRST
    inc[0] = h * (wf[0] * fm[0] + wf[1] * fm[1] + wf[2] * fm[2] + wf[3] * fm[3])
    wl = _W_LAST
    inc[-1] = h * (wl[0] * fm[-4] + wl[1] * fm[-3] + wl[2] * fm[-2] + wl[3] * fm[-1])
    out = np.empty_like(fm, dtype=inc.dtype)
    out[0] = 0.0
    np.cumsum(inc, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)


def ref_diff_1d(fm, h):
    out = np.empty_like(fm, dtype=np.result_type(fm.dtype, float))
    out[2:-2] = (fm[:-4] - 8 * fm[1:-3] + 8 * fm[3:-1] - fm[4:]) / (12 * h)
    head = fm[:5]
    out[0] = np.tensordot(_EDGE0, head, axes=(0, 0)) / h
    out[1] = np.tensordot(_EDGE1, head, axes=(0, 0)) / h
    tail = fm[-5:]
    out[-1] = -np.tensordot(_EDGE0[::-1], tail, axes=(0, 0)) / h
    out[-2] = -np.tensordot(_EDGE1[::-1], tail, axes=(0, 0)) / h
    return out


def ref_diff_axis(values, h, axis):
    fm = np.moveaxis(np.asarray(values), axis, 0)
    return np.moveaxis(ref_diff_1d(fm, h), 0, axis)


def ref_dbar(f):
    dx = ref_diff_axis(f.values, f.grid.hx, axis=0)
    dy = ref_diff_axis(f.values, f.grid.hy, axis=1)
    return Field(f.grid, _scrub(f.grid, 0.5 * (dx + 1j * dy)))


def ref_dz(f):
    dx = ref_diff_axis(f.values, f.grid.hx, axis=0)
    dy = ref_diff_axis(f.values, f.grid.hy, axis=1)
    return Field(f.grid, _scrub(f.grid, 0.5 * (dx - 1j * dy)))


def ref_residual(u, psi, kind="direct"):
    d = ref_dbar(psi).values
    if kind == "direct":
        defect = d - u.values * np.conj(psi.values)
    else:
        defect = d + np.conj(u.values) * np.conj(psi.values)
    return float(np.max(np.abs(defect[u.grid.mask])))


def ref_integrate_form(a, b, grid, basepoint):
    i0, j0 = basepoint
    leg_x = ref_cumulative_integral(a[:, j0], grid.hx)
    leg_y = ref_cumulative_integral(b, grid.hy, axis=1)
    w_xy = (leg_x - leg_x[i0])[:, None] + leg_y - leg_y[:, j0][:, None]
    leg_y = ref_cumulative_integral(b[i0, :], grid.hy)
    leg_x = ref_cumulative_integral(a, grid.hx, axis=0)
    w_yx = (leg_y - leg_y[j0])[None, :] + leg_x - leg_x[i0, :][None, :]
    del leg_x
    return w_xy, float(np.max(np.abs((w_xy - w_yx)[grid.mask])))


def ref_grid_env(grid):
    # the coordinates as the 2-D copies GridSpec used to cache
    x = np.broadcast_to(grid.xs[:, None], grid.shape()).copy()
    y = np.broadcast_to(grid.ys[None, :], grid.shape()).copy()
    z = x + 1j * y
    return {"x": x.astype(complex), "y": y.astype(complex),
            "z": z, "zbar": np.conj(z)}


def ref_evaluate_on_grid(src, grid):
    vals = evaluate(parse_expression(src), ref_grid_env(grid))
    return np.broadcast_to(np.asarray(vals, dtype=complex), grid.shape()).copy()


def ref_det_nodes(om, grid):
    """Smallest active |det| for N <= 2 and its node, from the mask copy."""
    det = om[..., 0, 0] if om.shape[-1] == 1 else \
        om[..., 0, 0] * om[..., 1, 1] - om[..., 0, 1] * om[..., 1, 0]
    abs_det = np.abs(det[grid.mask])
    k = int(np.argmin(abs_det))
    return float(abs_det[k]), tuple(int(idx[k]) for idx in np.nonzero(grid.mask))


# ---------------------------------------------------------------- inputs

def _data(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    if dtype is complex:
        data = data + 1j * rng.standard_normal(shape)
    return data


def _strip(nx):
    return GridSpec(-0.1, 0.1, 1.0, 2.0, nx, 81, excluded_band=0.002)


def _poisoned(grid, dtype, seed):
    """Seeded data with inf, -inf and nan in the band's middle columns,
    at least three nodes from its edge so the stencils keep them there."""
    vals = _data(grid.shape(), dtype, seed)
    band = np.nonzero(~grid.mask[:, 0])[0]
    assert len(band) >= 7
    mid = band[len(band) // 2]
    vals[mid, ::3] = np.inf
    vals[mid, 1::3] = -np.inf
    vals[mid - 1 + len(band) % 2, 2::3] = np.nan
    return vals


STRIPS = [_strip(480), _strip(481)]
# "wide" rows fill a page, so cumulative_integral adds them one at a time
# along axis 0; the others use cumsum, except complex "large"
ARRAYS = {  # name -> (maker of the array from its dtype, axes)
    "min-1d": (lambda dt: _data((4,), dt, 1), (0,)),
    "1d": (lambda dt: _data((37,), dt, 2), (0,)),
    "min-2d": (lambda dt: _data((4, 5), dt, 3), (0, 1)),
    "2d": (lambda dt: _data((37, 23), dt, 4), (0, 1)),
    "column": (lambda dt: _data((41, 9), dt, 5)[:, 3], (0,)),
    "fortran": (lambda dt: np.asfortranarray(_data((29, 31), dt, 6)), (0, 1)),
    "transposed": (lambda dt: _data((31, 29), dt, 7).T, (0, 1)),
    "3d": (lambda dt: _data((9, 6, 5), dt, 8), (0, 1, 2)),
    "strip-480": (lambda dt: _poisoned(STRIPS[0], dt, 9), (0, 1)),
    "strip-481": (lambda dt: _poisoned(STRIPS[1], dt, 10), (0, 1)),
    "wide": (lambda dt: _data((6, 520), dt, 11), (0, 1)),
    "large": (lambda dt: _data((256, 256), dt, 12), (0, 1)),
}
CASES = [(name, dt, ax) for name, (_, axes) in ARRAYS.items()
         for dt in (float, complex) for ax in axes]


def _ids(case):
    name, dt, ax = case
    return f"{name}-{dt.__name__}-axis{ax}"


# ----------------------------------------------------------------- tests

class TestCumulativeIntegral:
    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_matches_reference(self, case):
        name, dt, axis = case
        f = ARRAYS[name][0](dt)
        with np.errstate(invalid="ignore", over="ignore"):
            got = cumulative_integral(f, 0.013, axis=axis)
            want = ref_cumulative_integral(f, 0.013, axis=axis)
        assert got.dtype == want.dtype
        assert_same_bits(got, want)


class TestDiffAxis:
    @pytest.mark.parametrize("case", [c for c in CASES if c[0] != "min-1d"],
                             ids=_ids)
    def test_matches_reference(self, case):
        name, dt, axis = case
        f = ARRAYS[name][0](dt)
        if f.shape[axis] < 5:
            f = np.concatenate([f, f[:1]], axis=axis)  # the 5-row minimum
        with np.errstate(invalid="ignore", over="ignore"):
            got = diff_axis(f, 0.017, axis)
            want = ref_diff_axis(f, 0.017, axis)
        assert got.dtype == want.dtype
        assert_same_bits(got, want)


def _fields(grid, seed):
    """Two seeded complex fields; on a strip, poisoned inside the band."""
    if grid.excluded_band is None:
        return [Field(grid, _data(grid.shape(), complex, seed + k)) for k in (0, 1)]
    return [Field(grid, _poisoned(grid, complex, seed + k)) for k in (0, 1)]


# 37 x 23 stays below the size at which numpy reuses temporaries, 256^2
# and the strips are above it
GRIDS = {"small": make_grid(37, 23), "square-256": make_grid(256, 256),
         "strip-480": STRIPS[0], "strip-481": STRIPS[1]}


class TestStencilsAndResidual:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_dbar_and_dz(self, name):
        f, _ = _fields(GRIDS[name], 20)
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = [(dbar(f), ref_dbar(f)), (dz(f), ref_dz(f))]
        for got, want in pairs:
            assert_same_bits(got.values, want.values)

    @pytest.mark.parametrize("kind", ["direct", "conjugate"])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_residual(self, name, kind):
        u, psi = _fields(GRIDS[name], 30)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = residual(u, psi, kind), ref_residual(u, psi, kind)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestIntegrateForm:
    @pytest.mark.parametrize("name, basepoint", [
        ("small", (0, 0)), ("small", (36, 22)), ("square-256", (173, 41)),
        ("strip-480", (479, 0)), ("strip-481", (480, 0)), ("strip-481", (240, 40))])
    def test_matches_reference(self, name, basepoint):
        grid = GRIDS[name]
        a, b = _data(grid.shape(), float, 40), _data(grid.shape(), float, 41)
        w, defect = _integrate_form(a, b, grid, basepoint)
        w_ref, defect_ref = ref_integrate_form(a, b, grid, basepoint)
        assert_same_bits(w, w_ref)
        assert np.float64(defect).tobytes() == np.float64(defect_ref).tobytes()

    def test_omega_away_from_the_origin(self):
        grid = GRIDS["square-256"]
        psi = Field.from_callable(grid, lambda z: np.exp((0.7 + 0.4j) * z))
        psi_plus = Field.from_callable(grid, lambda z: np.exp((-0.3 + 1.1j) * z))
        pot = omega(psi, psi_plus, (173, 41), 0.25j)
        p = psi.values * psi_plus.values
        w, defect = ref_integrate_form(2.0 * p.imag, 2.0 * p.real, grid, (173, 41))
        want = 1j * (w + 0.25)
        assert_same_bits(pot.values, 1j * want.imag)
        assert pot.path_defect == defect


EXPRESSIONS = ["x", "y", "zbar", "z", "2 - 3i", "exp(0.5) * 2i",
               "x*y + zbar^2 - z", "re(z) + im(zbar) * x", "conj(x) / (y + 2)",
               "exp((0.3-0.8i)*z) * sqrt(y + 3)", "-x^3 + y^-2"]


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("src", EXPRESSIONS)
    @pytest.mark.parametrize("name", ["small", "square-256", "strip-481"])
    def test_matches_reference(self, name, src):
        grid = GRIDS[name]
        with np.errstate(divide="ignore", invalid="ignore"):
            got = evaluate_on_grid(src, grid)
            want = ref_evaluate_on_grid(src, grid)
        assert got.flags.c_contiguous and got.flags.writeable
        assert_same_bits(got, want)

    def test_only_the_named_variables_are_built(self):
        assert _variables(parse_expression("2 - 3i * exp(1)")) == set()
        assert _variables(parse_expression("conj(x)^2 / -(zbar - y)")) == {"x", "y", "zbar"}
        grid = make_grid(7, 5)
        ref = ref_grid_env(grid)
        assert sorted(_GRID_VARIABLES) == sorted(ref)
        for key, build in _GRID_VARIABLES.items():
            assert_same_bits(build(grid), ref[key])
        # a hand-built AST with an unknown variable fails as it did
        with pytest.raises(ExpressionError, match="'w' not available"):
            evaluate_on_grid(BinOp("+", Var("z"), Var("w")), grid)

    def test_coordinates_are_read_only_views(self):
        grid = make_grid(7, 5)
        for coord, ref in ((grid.x, ref_grid_env(grid)["x"]),
                           (grid.y, ref_grid_env(grid)["y"])):
            assert not coord.flags.writeable
            assert_same_bits(coord.astype(complex), ref)


class TestDetNodes:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    @pytest.mark.parametrize("n", [1, 2])
    def test_minimum_and_node_match_reference(self, name, n):
        grid = GRIDS[name]
        rng = np.random.default_rng(50 + n)
        om = 1.0 + rng.random(grid.shape() + (n, n)) + 0j
        if n == 2:
            om[..., 0, 1] = om[..., 1, 0] = 0.0
        active = np.argwhere(grid.mask)
        i, j = map(int, active[len(active) * 2 // 3])
        om[i, j] = 0.0
        # a zero inside the band does not count
        band = np.argwhere(~grid.mask)
        if len(band):
            om[tuple(band[0])] = 0.0
        assert ref_det_nodes(om, grid) == (0.0, (i, j))
        error = ZeroPotentialError if n == 1 else SingularOmegaError
        with pytest.raises(error, match=re.escape(f"at node {(i, j)}")):
            _det_nodes(om, grid, None)
        om[i, j] = np.eye(n) * 1e-3
        det_min, node = ref_det_nodes(om, grid)
        assert node == (i, j) and _det_nodes(om, grid, None) == det_min
