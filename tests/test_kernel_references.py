"""The grid kernels against their earlier, whole-array forms, bit for bit.

Each ``ref_*`` function below is the kernel as it was before it worked
in place and in row blocks: whole-grid temporaries, ``np.cumsum`` on
every layout, boolean mask copies, an environment holding every
variable, and complex arithmetic where the kernels now use real
arithmetic on imaginary potentials, real divisors and float views of
complex values.  The kernels must give the same bytes on float and
complex data, on both axes, at the minimum sizes, on banded strips with
inf and nan inside the band, below and above the array size at which
numpy starts to reuse temporaries, and on grids of many row blocks: one
with a merged tail block, a tall strip and one whose single row outgrows
a block.  Where data hold exact zeros, the real-arithmetic kernels may
differ from numpy's complex formulas in the sign of a zero result, and
the tests that plant zeros compare zeros regardless of sign.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from galab._integrate import _W_FIRST, _W_LAST, _W_MID, cumulative_integral
from galab.errors import (ExactnessError, ExpressionError, NonFiniteFieldError,
                          SingularOmegaError, ZeroPotentialError)
from galab.expressions import (_GRID_VARIABLES, BinOp, Var, _variables, evaluate,
                               evaluate_on_grid, parse_expression)
from galab.grid import (Field, GridSpec, _peak_abs, _row_blocks, _scrub, dbar, diff_axis,
                        dz, residual)
from galab.moutard import (SeedSet, _det_nodes, invert_simple, moutard_rank_n,
                           moutard_simple, transformed_potential)
from galab.potential import (DET_TOL_FACTOR, REAL_DRIFT_TOL, Potential,
                             _check_imaginary_constant, _form_components, _integrate_form, omega, omega_singular)
from galab.series import FunctionOnInterval
from galab.singularity import SingularFieldModel

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


def ref_scrub(grid, vals):
    if grid.excluded_band is not None:
        vals = np.where(np.isfinite(vals) | grid.mask, vals, 0.0)
    return vals


def ref_diff_1d(fm, h):
    out = np.empty_like(fm, dtype=np.result_type(fm.dtype, float))
    out[2:-2] = (fm[:-4] - 8 * fm[1:-3] + 8 * fm[3:-1] - fm[4:]) / (12 * h)
    # one-sided rows at 12 times their weights, summed in weight order
    out[0] = (-25 * fm[0] + 48 * fm[1] + -36 * fm[2] + 16 * fm[3] + -3 * fm[4]) / (12 * h)
    out[1] = (-3 * fm[0] + -10 * fm[1] + 18 * fm[2] + -6 * fm[3] + 1 * fm[4]) / (12 * h)
    out[-1] = (25 * fm[-1] + -48 * fm[-2] + 36 * fm[-3] + -16 * fm[-4] + 3 * fm[-5]) / (12 * h)
    out[-2] = (3 * fm[-1] + 10 * fm[-2] + -18 * fm[-3] + 6 * fm[-4] + -1 * fm[-5]) / (12 * h)
    return out


def ref_diff_axis(values, h, axis):
    fm = np.moveaxis(np.asarray(values), axis, 0)
    return np.moveaxis(ref_diff_1d(fm, h), 0, axis)


def ref_dbar(f):
    dx = ref_diff_axis(f.values, f.grid.hx, axis=0)
    dy = ref_diff_axis(f.values, f.grid.hy, axis=1)
    return Field(f.grid, ref_scrub(f.grid, 0.5 * (dx + 1j * dy)))


def ref_dz(f):
    dx = ref_diff_axis(f.values, f.grid.hx, axis=0)
    dy = ref_diff_axis(f.values, f.grid.hy, axis=1)
    return Field(f.grid, ref_scrub(f.grid, 0.5 * (dx - 1j * dy)))


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


def ref_form_components(psi, psi_plus):
    p = psi.values * psi_plus.values
    return 2.0 * p.imag, 2.0 * p.real


def ref_check_finite(grid, vals):
    if not np.all(np.isfinite(vals[grid.mask])):
        raise NonFiniteFieldError("field has non-finite values at active nodes")


def ref_max_abs(grid, vals):
    return float(np.max(np.abs(vals[grid.mask])))


def ref_potential(values, grid):
    """The values Potential stores for ``values``, and their active real drift."""
    vals = np.asarray(values, dtype=complex)
    return 1j * vals.imag, float(np.max(np.abs(vals.real[grid.mask])))


def ref_transform(u, f, fp, w):
    """u_tilde and the psi map of the simple transform: numpy's complex
    division by the potential, whole-array, products in written order."""
    grid = u.grid
    u_tilde = u.values + np.multiply(f.values, np.conj(fp.values) / w.values)

    def map_psi(psi, w_psi):
        vals = psi.values - np.multiply(f.values, w_psi.values / w.values)
        return ref_scrub(grid, vals)

    return ref_scrub(grid, u_tilde), map_psi


def ref_rank_two(u, seeds, om):
    """u_tilde and both maps of the rank-2 transform in complex arithmetic
    on omega = 1j * W, whole-array: the closed form divided by det omega,
    the right-hand sides conj(f+) and the potentials' complex values."""
    grid = u.grid
    mat = np.transpose(np.array([[p.values for p in row] for row in om]), (2, 3, 0, 1))
    f, fp = [a.values for a, _ in seeds], [b.values for _, b in seeds]

    def solve(m, rhs):
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        return [(m[..., 1, 1] * rhs[0] - m[..., 0, 1] * rhs[1]) / det,
                (m[..., 0, 0] * rhs[1] - m[..., 1, 0] * rhs[0]) / det]

    def dot(stack, x):
        out = stack[0] * x[0]
        out += stack[1] * x[1]
        return out

    def mapper(stack, m):
        return lambda psi, pots: ref_scrub(
            grid, psi.values - dot(stack, solve(m, [p.values for p in pots])))

    u_tilde = u.values + dot(f, solve(mat, [np.conj(v) for v in fp]))
    return (ref_scrub(grid, u_tilde), mapper(f, mat),
            mapper(fp, np.swapaxes(mat, -1, -2)))


def ref_field(model):
    """A singular model's field, exp(i*phi) * leading / x + remainder,
    its 1/x term a complex division."""
    grid = model.grid
    phase = np.exp(1j * model.phi.values_on(grid.ys).real)
    sing = (phase * model.leading.values_on(grid.ys))[None, :] / grid.x
    sing[~np.isfinite(sing)] = 0.0
    return sing + model.smooth_remainder.values


def ref_omega_singular(f, f_plus, constant=0.0):
    """omega_singular with complex divisions by x and a projected
    1j * (w + c): (values, constant, path_defect)."""
    constant = _check_imaginary_constant(constant)
    grid = f.grid
    ys, xs = grid.ys, grid.xs[:, None]
    b = (f.leading * f_plus.leading).real_part()
    bv, bpv = b.values_on(ys), b.deriv().values_on(ys)
    w_lead = 2.0 * bv.real[None, :] * (1.0 / xs)
    p_model = -1j * bv[None, :] / xs ** 2
    p_model += bpv[None, :] / xs
    p_rem = ref_field(f) * ref_field(f_plus) - p_model
    bad = ~np.isfinite(p_rem)
    for i, j in zip(*np.nonzero(bad)):
        if 2 <= i < grid.nx - 2 and np.all(np.isfinite(p_rem[[i - 2, i - 1, i + 1, i + 2], j])):
            p_rem[i, j] = (-p_rem[i - 2, j] + 4 * p_rem[i - 1, j]
                           + 4 * p_rem[i + 1, j] - p_rem[i + 2, j]) / 6.0
        else:
            p_rem[i, j] = 0.0
    w_lead[~np.isfinite(w_lead)] = 0.0
    bp = (grid.nx - 1, 0)
    w_rem, defect = ref_integrate_form(2.0 * p_rem.imag, 2.0 * p_rem.real, grid, bp)
    vals = 1j * (w_rem + w_lead + constant.imag)
    return 1j * vals.imag, complex(vals[bp]), defect


def ref_transformed_values(pp, pf, fp, ff):
    return (pp.values * ff.values - pf.values * fp.values) / ff.values + 0j


def ref_invert(m1, f, fp, w):
    """u_tilde and both maps of the inverse in complex arithmetic on
    omega: seeds -i f / omega, potential 1 / omega and mapped potentials
    -i V / omega, each potential projected through ``from_values``."""
    grid, om = f.grid, w.values
    with np.errstate(all="ignore"):
        m2 = moutard_simple(m1.u_tilde, Field(grid, -1j * f.values / om),
                            Field(grid, -1j * fp.values / om),
                            Potential.from_values(grid, 1.0 / om))

    def scaled(m2_map):
        def mapped(psi, v):
            with np.errstate(all="ignore"):
                return m2_map(psi, Potential.from_values(grid, -1j * v.values / om))
        return mapped
    return m2.u_tilde, scaled(m2.map_psi), scaled(m2.map_psi_plus)


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


def ref_abs_det(om, grid):
    """|det| at the active nodes, from the mask copy: written out for
    N <= 2, np.linalg.det above; N = 1 is the (nx, ny, 1, 1) matrix of
    one potential."""
    n = om.shape[-1]
    if n == 1:
        det = om[..., 0, 0]
    elif n == 2:
        det = om[..., 0, 0] * om[..., 1, 1] - om[..., 0, 1] * om[..., 1, 0]
    else:
        det = np.linalg.det(om)
    return np.abs(det[grid.mask])


def ref_det_nodes(om, grid):
    """Smallest active |det| and its node."""
    abs_det = ref_abs_det(om, grid)
    k = int(np.argmin(abs_det))
    return float(abs_det[k]), tuple(int(idx[k]) for idx in np.nonzero(grid.mask))


# ---------------------------------------------------------------- inputs

def _data(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    if dtype is complex:
        data = data + 1j * rng.standard_normal(shape)
    return data


def _signed_zeros(shape, dtype):
    """+0.0, except -0.0 at the first, second and fourth node along
    either axis: most lines' first step is then -0.0, which node 1
    of a running integral keeps only as that step, not as 0 + step."""
    f = np.zeros(shape, dtype)
    f[[0, 1, 3]] = f[:, [0, 1, 3]] = -0.0
    return f


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


STRIPS = [_strip(480), _strip(481), _strip(2400)]
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
    # many row blocks, the last one merged with a short tail
    "many-blocks": (lambda dt: _data((240, 703), dt, 13), (0, 1)),
    "strip-2400": (lambda dt: _poisoned(STRIPS[2], dt, 14), (0, 1)),
    # each row is over a block's worth of bytes, so every block is one row
    "long-rows": (lambda dt: _data((6, 40000), dt, 15), (0, 1)),
    # each row fills a page: 2 blocks as float, 5 as complex
    "3d-blocks": (lambda dt: _data((40, 64, 64), dt, 16), (0, 1, 2)),
    # summed by cumsum on both axes, and by row adds on axis 0
    "signed-zeros": (lambda dt: _signed_zeros((37, 23), dt), (0, 1)),
    "signed-zeros-blocks": (lambda dt: _signed_zeros((240, 703), dt), (0, 1)),
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
# and the strips are above it; the last three are many row blocks
GRIDS = {"small": make_grid(37, 23), "square-256": make_grid(256, 256),
         "strip-480": STRIPS[0], "strip-481": STRIPS[1],
         "many-blocks": make_grid(240, 703), "strip-2400": STRIPS[2],
         "long-rows": make_grid(6, 40000)}


def test_the_multi_block_inputs_are_many_blocks():
    # a merged tail, a strip of several blocks, and one row per block,
    # each block above the 256 KB from which numpy reuses temporaries
    for name, rows in (("many-blocks", 240), ("strip-2400", 2400), ("long-rows", 6),
                       ("3d-blocks", 40)):
        for dt in (float, complex):
            a = ARRAYS[name][0](dt)
            blocks = _row_blocks(a)
            assert len(blocks) >= 2 and blocks[-1].stop == rows
            assert min(a[b].nbytes for b in blocks) >= 256 * 1024
    sizes = [b.stop - b.start for b in _row_blocks(ARRAYS["many-blocks"][0](complex))]
    assert sizes[-1] > sizes[0]
    assert len(_row_blocks(ARRAYS["long-rows"][0](float))) == 6
    assert [len(_row_blocks(ARRAYS["3d-blocks"][0](dt))) for dt in (float, complex)] == [2, 5]


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


    def test_residual_keeps_numpys_operand_order_in_every_block(self):
        # numpy forms u * conj(psi) as conj(psi) * u in the temporary
        # conjugate from 256 KB on; a block under that, such as an
        # unmerged tail, would form it as written.  One large product in
        # the last block, where the two orders differ, sets the residual.
        grid = GRIDS["many-blocks"]
        assert _row_blocks(np.empty(grid.shape(), complex))[-1].start < 230
        node, rng = (237, 351), np.random.default_rng(91)
        u, psi = np.zeros(grid.shape(), complex), np.zeros(grid.shape(), complex)
        for _ in range(200):
            u[node] = 1e6 * complex(*rng.standard_normal(2))
            psi[node] = complex(*rng.standard_normal(2))
            conj = np.conj(psi)
            written = np.multiply(u, conj, out=np.empty_like(conj))[node]
            swapped = np.multiply(conj, u, out=conj)[node]
            if abs(written) != abs(swapped):
                break
        u, psi = Field(grid, u), Field(grid, psi)
        want, d = ref_residual(u, psi), ref_dbar(psi).values
        as_written = np.multiply(u.values, np.conj(psi.values), out=np.empty_like(d))
        assert float(np.max(np.abs(d - as_written))) != want
        assert residual(u, psi) == want


class TestIntegrateForm:
    @pytest.mark.parametrize("name, basepoint", [
        ("small", (0, 0)), ("small", (36, 22)), ("square-256", (173, 41)),
        ("strip-480", (479, 0)), ("strip-481", (480, 0)), ("strip-481", (240, 40)),
        ("many-blocks", (120, 702)), ("strip-2400", (2399, 0)),
        ("strip-2400", (1200, 40)), ("long-rows", (4, 23456))])
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


# where the block map now splits: blocks of two or more per array and,
# across the integral, more than the 500 outer iterations from which
# numpy's accumulate releases the GIL; the strip keeps its band's specials
SPLIT_GRIDS = {"1024x128": make_grid(1024, 128), "600x256": make_grid(600, 256),
               "strip-2400": STRIPS[2]}


def _split_array(name, dt, seed):
    grid = SPLIT_GRIDS[name]
    return (_poisoned(grid, dt, seed) if grid.excluded_band
            else _data(grid.shape(), dt, seed))


class TestSplitPoints:
    def test_the_inputs_span_blocks_and_release_the_gil(self):
        for name, grid in SPLIT_GRIDS.items():
            for dt in (float, complex):
                assert len(_row_blocks(np.empty(grid.shape(), dt))) >= 2
            assert grid.nx > 500

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dt", [float, complex], ids=["float", "complex"])
    @pytest.mark.parametrize("name", sorted(SPLIT_GRIDS))
    def test_cumulative_integral(self, name, dt, axis):
        f = _split_array(name, dt, 110)
        with np.errstate(invalid="ignore", over="ignore"):
            got = cumulative_integral(f, 0.011, axis=axis)
            want = ref_cumulative_integral(f, 0.011, axis=axis)
        assert got.dtype == want.dtype
        assert_same_bits(got, want)

    @pytest.mark.parametrize("name, basepoint", [
        ("1024x128", (0, 0)), ("1024x128", (700, 101)), ("600x256", (599, 0)),
        ("600x256", (250, 128)), ("strip-2400", (2399, 0)), ("strip-2400", (600, 70))])
    def test_integrate_form(self, name, basepoint):
        grid = SPLIT_GRIDS[name]
        a, b = _split_array(name, float, 111), _split_array(name, float, 112)
        with np.errstate(invalid="ignore"):
            w, defect = _integrate_form(a, b, grid, basepoint)
            w_ref, defect_ref = ref_integrate_form(a, b, grid, basepoint)
        assert_same_bits(w, w_ref)
        assert_same_bits(np.float64(defect), np.float64(defect_ref))

    @pytest.mark.parametrize("name", ["1024x128", "600x256"])
    def test_omega_adds_its_constant(self, name):
        grid = SPLIT_GRIDS[name]
        psi = Field.from_callable(grid, lambda z: np.exp((0.7 + 0.4j) * z))
        psi_plus = Field.from_callable(grid, lambda z: np.exp((-0.3 + 1.1j) * z))
        pot = omega(psi, psi_plus, (101, 17), -0.75j)
        p = psi.values * psi_plus.values
        w, defect = ref_integrate_form(2.0 * p.imag, 2.0 * p.real, grid, (101, 17))
        assert_same_bits(pot.im, (1j * (w - 0.75)).imag)
        assert pot.path_defect == defect


EXPRESSIONS = ["x", "y", "zbar", "z", "2 - 3i", "exp(0.5) * 2i",
               "x*y + zbar^2 - z", "re(z) + im(zbar) * x", "conj(x) / (y + 2)",
               "exp((0.3-0.8i)*z) * sqrt(y + 3)", "-x^3 + y^-2", "z*exp((1+2i)*z)"]


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("src", EXPRESSIONS)
    @pytest.mark.parametrize("name", ["small", "square-256", "strip-481",
                                      "many-blocks", "strip-2400", "long-rows"])
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


def _potential(grid, seed):
    """An imaginary potential bounded away from zero, with a real part at
    rounding level; on a strip, inf inside the band."""
    rng = np.random.default_rng(seed)
    shape = grid.shape()
    vals = 1j * (2.0 + rng.random(shape)) + 1e-13 * rng.standard_normal(shape)
    band = np.nonzero(~grid.mask[:, 0])[0]
    if len(band):
        vals[band[len(band) // 2], ::2] = np.inf
    return Potential(grid, vals)


class TestPotentialsAndTransform:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_form_components(self, name):
        psi, psi_plus = _fields(GRIDS[name], 60)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _form_components(psi, psi_plus)
            want = ref_form_components(psi, psi_plus)
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_potential_values_and_drift(self, name):
        grid = GRIDS[name]
        rng = np.random.default_rng(61)
        with np.errstate(invalid="ignore"):
            vals = 1j * (_poisoned(grid, float, 62) if grid.excluded_band
                         else rng.standard_normal(grid.shape()))
            vals = vals + 1e-12 * rng.standard_normal(grid.shape())
            pot = Potential(grid, vals)
            want, drift = ref_potential(vals, grid)
        assert_same_bits(pot.values, want)
        assert 0 < drift <= REAL_DRIFT_TOL  # projected, not refused

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_simple_transform_and_map(self, name):
        grid = GRIDS[name]
        u, f = _fields(grid, 70)
        f_plus, psi = _fields(grid, 72)
        w, w_psi = _potential(grid, 74), _potential(grid, 75)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = moutard_simple(u, f, f_plus, w)
            u_tilde, map_psi = ref_transform(u, f, f_plus, w)
            assert_same_bits(result.u_tilde.values, u_tilde)
            assert_same_bits(result.map_psi(psi, w_psi).values, map_psi(psi, w_psi))

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_transformed_potential(self, name):
        grid = GRIDS[name]
        pots = [_potential(grid, 80 + k) for k in range(4)]
        with np.errstate(divide="ignore", invalid="ignore"):
            got = transformed_potential(*pots)
            want, _ = ref_potential(ref_transformed_values(*pots), grid)
        assert_same_bits(got.values, want)


def _matrix(grid, seed):
    """A nonsymmetric, diagonally dominant 2 x 2 potential matrix: ims in
    [2, 3] on the diagonal and in [-0.5, 0.5] off it; on a strip each
    entry is inf, -inf, nan or 0 at every fourth node of a band row."""
    rng = np.random.default_rng(seed)
    band = np.nonzero(~grid.mask[:, 0])[0]
    rows = [[None, None], [None, None]]
    for k, (j, m) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        im = rng.random(grid.shape()) + (2.0 if j == m else -0.5)
        if len(band):
            im[band[len(band) // 2], k::4] = [np.inf, -np.inf, np.nan, 0.0][k]
        rows[j][m] = Potential(grid, im)
    return rows


class TestRankTwo:
    @pytest.mark.parametrize("name", ["many-blocks", "strip-2400", "long-rows"])
    def test_matches_complex_closed_form(self, name):
        # the real kernel on W against the complex closed form on 1j * W,
        # with the conjugate map through the transpose
        grid = GRIDS[name]
        u, psi = _fields(grid, 90)
        seeds = list(zip(_fields(grid, 92), _fields(grid, 94)))
        om = _matrix(grid, 96)
        pots = [_potential(grid, 97), _potential(grid, 98)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = moutard_rank_n(SeedSet(u, seeds, om))
            u_tilde, map_psi, map_psi_plus = ref_rank_two(u, seeds, om)
            _same_up_to_nan(result.u_tilde.values, u_tilde)
            _same_up_to_nan(result.map_psi(psi, pots).values, map_psi(psi, pots))
            _same_up_to_nan(result.map_psi_plus(psi, pots).values,
                            map_psi_plus(psi, pots))


def _inverse_inputs(grid, seed, zero_bases):
    """Seeds with a third of their parts +-0.0 and inf inside the band, a
    seed potential W of one sign per slab holding 0, +-0.0, +-inf and NaN
    inside the band, two potentials for the maps with the same band values
    and zeros at a third of their nodes, and u, psi and psi+, with zero
    parts too if ``zero_bases``."""
    rng = np.random.default_rng(seed)
    band = np.nonzero(~grid.mask[:, 0])[0]
    u, psi, psi_plus = (_zeroed(rng, grid.shape()) if zero_bases
                        else _data(grid.shape(), complex, seed + k) for k in range(3))
    f, fp = (_zeroed(rng, grid.shape()) for _ in range(2))
    for vals in (f, fp):
        vals[band[len(band) // 2], ::4] = np.inf
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    pots = []
    for k in range(3):
        im = (2.0 + rng.random(grid.shape())) * np.where(grid.x < 0, -1.0, 1.0)
        if k:
            im[rng.random(grid.shape()) < 1 / 3] = 0.0
        for j, v in enumerate(specials):
            im[band, j::len(specials)] = v
        pots.append(Potential(grid, im))
    return [Field(grid, v) for v in (u, f, fp, psi, psi_plus)], pots


class TestInverse:
    @pytest.mark.parametrize("zero_bases", [False, True], ids=["zero-seeds", "zero-bases"])
    @pytest.mark.parametrize("grid", [STRIPS[1], GridSpec(-1.0, 1.0, 1.0, 2.0, 600, 256,
                                                          excluded_band=0.01)],
                             ids=["strip-481", "two-blocks-600x256"])
    def test_matches_complex_formulas(self, grid, zero_bases):
        # the inverse on r = -1/W against numpy's complex divisions by
        # omega = 1j * W; the band's specials end as values the outputs
        # scrub.  The seeds f r keep the quotients' bits but for the sign
        # of a zero part, which shows only where the field they are
        # subtracted from has a zero part too
        assert (grid.xs == 0).any() == (grid.nx % 2 == 1)
        assert len(_row_blocks(np.empty(grid.shape()))) == (2 if grid.nx == 600 else 1)
        (u, f, fp, psi, psi_plus), (w, v, v_plus) = _inverse_inputs(grid, 99, zero_bases)
        with np.errstate(all="ignore"):
            m1 = moutard_simple(u, f, fp, w)
            psi_t, psi_plus_t = m1.map_psi(psi, v), m1.map_psi_plus(psi_plus, v_plus)
            got = invert_simple(m1, f, fp, w)
            got = [got.u_tilde, got.map_psi(psi_t, v), got.map_psi_plus(psi_plus_t, v_plus)]
        u_tilde, map_psi, map_psi_plus = ref_invert(m1, f, fp, w)
        want = [u_tilde, map_psi(psi_t, v), map_psi_plus(psi_plus_t, v_plus)]
        for g, ref in zip(got, want):
            if zero_bases:
                _same_up_to_nan(g.values, ref.values, zeros=True)
            else:
                assert_same_bits(g.values, ref.values)


class TestDetNodes:
    @pytest.mark.parametrize("name", ["small", "square-256", "strip-480", "strip-481"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_minimum_and_node_match_reference(self, name, n):
        grid = GRIDS[name]
        rng = np.random.default_rng(50 + n)
        om = 1.0 + rng.random(grid.shape() + (n, n))
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
            _det_nodes(om, grid)
        om[i, j] = np.eye(n) * 1e-3
        det_min, node = ref_det_nodes(om, grid)
        assert node == (i, j) and _det_nodes(om, grid) == det_min

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_simple_potential_in_blocks(self, name):
        # ties go to the first node in row order, across blocks; a NaN
        # wins the minimum and raises; the count in the message is over
        # active nodes only.  A planted peak raises the bound
        # DET_TOL_FACTOR * peak to 1 and to 2.5
        grid = GRIDS[name]
        rng = np.random.default_rng(57)
        w = 2.0 + rng.random(grid.shape())
        active = np.argwhere(grid.mask)
        first, mid, last = (tuple(map(int, active[k]))
                            for k in (len(active) // 3, len(active) // 2, -1))
        w[first] = w[last] = 1.0
        band = np.argwhere(~grid.mask)
        if len(band):
            w[tuple(band[0])] = 0.0
        om = w[..., None, None]  # the (nx, ny, 1, 1) matrix of one potential's im
        want = ref_det_nodes(om, grid)
        assert want == (1.0, first) and _det_nodes(om, grid) == 1.0
        for bound in (1.0, 2.5):
            w[mid] = bound / DET_TOL_FACTOR
            tol = DET_TOL_FACTOR * w[mid]
            with pytest.raises(ZeroPotentialError) as got:
                _det_nodes(om, grid)
            count = int(np.count_nonzero(np.abs(w[grid.mask]) <= tol))
            assert f"at {count} node(s); |det| = 1.000e+00 at node {first}" in str(got.value)
        w[mid] = 2.0
        w[last] = np.nan
        with pytest.raises(ZeroPotentialError, match=re.escape(f"det = nan at node {last}")):
            _det_nodes(om, grid)
        w[last], w[first] = 1.0, np.inf
        with pytest.raises(ZeroPotentialError, match=re.escape(f"at node {last}")):
            _det_nodes(om, grid)

    @pytest.mark.parametrize("name", ["strip-480", "many-blocks", "strip-2400", "long-rows"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_in_blocks(self, name, n):
        # the rules above for N >= 2, on diag(w, 1, ...), whose |det| is |w|
        grid = GRIDS[name]
        om = np.zeros(grid.shape() + (n, n))
        om[...] = np.eye(n)
        assert len(_row_blocks(om)) >= 2
        w = om[..., 0, 0]
        w[...] = 2.0 + np.random.default_rng(58).random(grid.shape())
        active = np.argwhere(grid.mask)
        first, mid, last = (tuple(map(int, active[k]))
                            for k in (len(active) // 3, len(active) // 2, -1))
        w[first] = w[last] = 1.0
        band = np.argwhere(~grid.mask)
        if len(band):
            om[tuple(band[0])] = 0.0
        assert ref_det_nodes(om, grid) == (1.0, first) and _det_nodes(om, grid) == 1.0
        for bound in (1.0, 2.5):
            # a peak above the diagonal leaves every det as it was; the
            # factor keeps the rounded n-th root's power at the bound
            om[mid][0, -1] = (bound / DET_TOL_FACTOR) ** (1 / n) * (1 + 1e-12)
            tol = DET_TOL_FACTOR * om[mid][0, -1] ** n
            with pytest.raises(SingularOmegaError) as got:
                _det_nodes(om, grid)
            count = int(np.count_nonzero(ref_abs_det(om, grid) <= tol))
            assert f"at {count} node(s); |det| = 1.000e+00 at node {first}" in str(got.value)
        om[mid][0, -1] = 0.0
        # a NaN after a singular node still wins, and raises naming its node
        w[first], w[last] = 0.0, np.nan
        with np.errstate(invalid="ignore"):  # the LU of a NaN matrix
            assert np.isnan(ref_det_nodes(om, grid)[0])
            with pytest.raises(SingularOmegaError, match=re.escape(f"det = nan at node {last}")):
                _det_nodes(om, grid)


    def test_a_band_between_nodes_splits_the_slabs(self):
        # a band that covers no node still parts the contour's two sides,
        # so a pole seed's 2b/x may flip sign across it
        grid = GridSpec(-0.1, 0.1, 1.0, 2.0, 480, 81, excluded_band=1e-4)
        assert grid.band_rows == slice(240, 240) and grid.mask.all()
        om = (2.0 / grid.x + 0.1 * grid.y)[..., None, None]
        assert _det_nodes(om, grid) == ref_det_nodes(om, grid)[0] > 0


@st.composite
def _one_sign_per_slab(draw):
    """A banded or unbanded grid and diag(w, 1, ...) for N = 1 to 3, with
    |w| in {0.5, 1, 1.5}, so ties are common, one sign of w drawn per
    slab, and an active node."""
    nx, ny = draw(st.integers(5, 60)), draw(st.integers(4, 24))
    x_min = draw(st.sampled_from([-0.1, -0.037, 0.0, 0.02]))
    band = draw(st.none() | st.floats(1e-4, 0.09))
    grid = GridSpec(x_min, 0.1, 1.0, 2.0, nx, ny, excluded_band=band)
    om = np.zeros(grid.shape() + (draw(st.integers(1, 3)),) * 2)
    om[...] = np.eye(om.shape[-1])
    om[..., 0, 0] = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        1, 4, grid.shape()) / 2
    for s in grid.slabs:
        om[s, :, 0, 0] *= draw(st.sampled_from([-1.0, 1.0]))
    active = np.argwhere(grid.mask)
    return grid, om, tuple(map(int, active[draw(st.integers(0, len(active) - 1))]))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_one_sign_per_slab())
def test_det_keeps_one_sign_per_slab(case):
    """With one sign per slab the scan is the mask gather's minimum, and
    flipping a slab whole keeps it: a pole seed's 2b/x flips across the
    band.  Flipping one active node plants a sign change between it and
    each active neighbour, so det omega vanishes between nodes though no
    node holds a zero: that raises, naming the slab's first minimum and
    first maximum."""
    grid, om, (i, j) = case
    w = om[..., 0, 0]
    error = ZeroPotentialError if om.shape[-1] == 1 else SingularOmegaError
    low, node = ref_det_nodes(om, grid)
    assert _det_nodes(om, grid) == low
    w[node] *= 1e-9  # below DET_TOL_FACTOR times any other active |entry| of W
    with pytest.raises(error, match=re.escape(f"|det| = {abs(w[node]):.3e} at node {node}")):
        _det_nodes(om, grid)
    w[node] = low if w[node] > 0 else -low
    for s in grid.slabs:
        w[s] *= -1.0
        assert _det_nodes(om, grid) == low
    w[i, j] *= -1.0
    s = next(s for s in grid.slabs if s.start <= i < s.stop)
    lo, hi = ((s.start + int(a), int(b)) for a, b in
              (np.argwhere(w[s] == w[s].min())[0], np.argwhere(w[s] == w[s].max())[0]))
    with pytest.raises(error, match=re.escape(
            f"vanishes between nodes: det = {w[lo]:.3e} at node {lo}, {w[hi]:.3e} at node {hi}")):
        _det_nodes(om, grid)


def _model(grid, seed, phase=1.0):
    """A singular field model with a positive linear leading coefficient,
    a quadratic phase (times ``phase``: 2.0 gives a coefficient's doubled
    phase) and a seeded finite remainder."""
    rng = np.random.default_rng(seed)
    iv = (grid.y_min, grid.y_max)
    lead = FunctionOnInterval.from_poly([1.0 + rng.random(), 0.2 * rng.random()], iv)
    phi = phase * FunctionOnInterval.from_poly(list(0.3 * rng.standard_normal(3)), iv)
    rem = rng.standard_normal(grid.shape()) + 1j * rng.standard_normal(grid.shape())
    return SingularFieldModel(grid, lead, phi, Field(grid, rem))


class TestImaginaryPotentials:
    def test_values_keep_todays_bytes(self):
        # a potential stores today's values.imag, so a -0.0 reads +0.0,
        # and builds values as 1j * im: today's 1j * imag bytes, whose
        # real part is -0.0 only where im is negative (or NaN where it is
        # not finite); before, an imaginary part of -0.0 left -0.0 there
        grid = STRIPS[1]
        rng = np.random.default_rng(63)
        imag = rng.standard_normal(grid.shape())
        imag[::3, ::2], imag[1::3, ::2] = -0.0, 0.0
        imag[240, :3] = [np.inf, -np.inf, np.nan]
        vals = np.empty(grid.shape(), complex)
        vals.real, vals.imag = 1e-12 * rng.standard_normal(grid.shape()), imag
        with np.errstate(invalid="ignore"):
            today = np.multiply(1j, vals.imag)
            pot = Potential(grid, vals)
            assert_same_bits(pot.im, today.imag)
            assert_same_bits(pot.values, np.multiply(1j, today.imag))
        negative_zero = (imag == 0) & np.signbit(imag)
        assert_same_bits(pot.values[~negative_zero], today[~negative_zero])
        assert not np.signbit(pot.values[negative_zero].real).any()
        assert np.signbit(today[negative_zero].real).all()
        assert pot.max_abs() == ref_max_abs(grid, today)

    def test_real_input_is_the_imaginary_part(self):
        grid = make_grid(9, 7)
        im = np.random.default_rng(64).standard_normal(grid.shape())
        assert Potential(grid, im).im is im
        # a complex input's real part is its drift
        assert_same_bits(Potential(grid, im * 1j + 1e-12).im, im + 0.0)
        with pytest.raises(ExactnessError, match="real drift"):
            Potential(grid, im * 1j + 1e-9)

    @pytest.mark.parametrize("name", ["strip-480", "strip-481", "strip-2400"])
    def test_singular_field(self, name):
        # strip-481 has a node on x = 0, where the 1/x term is zeroed
        grid = GRIDS[name]
        assert (grid.xs == 0).any() == (grid.nx % 2 == 1)
        for seed, phase in ((65, 1.0), (66, 2.0)):
            model = _model(grid, seed, phase)
            with np.errstate(divide="ignore", invalid="ignore"):
                assert_same_bits(model.values, ref_field(model))

    @pytest.mark.parametrize("name", ["strip-480", "strip-481", "strip-2400"])
    def test_omega_singular(self, name):
        grid = GRIDS[name]
        f, f_plus = _model(grid, 67), _model(grid, 68)
        with np.errstate(divide="ignore", invalid="ignore"):
            pot = omega_singular(f, f_plus, 0.3j)
            values, constant, defect = ref_omega_singular(f, f_plus, 0.3j)
        assert_same_bits(pot.values, values)
        bp = (grid.nx - 1, 0)
        assert np.float64(pot.im[bp]).tobytes() == np.float64(constant.imag).tobytes()
        assert pot.path_defect == defect

    def test_finite_check_on_any_layout(self):
        # rows that cannot be read as float pairs are checked as complex
        grid = make_grid(37, 23)
        vals = _data((23, 37), complex, 69).T
        assert not vals.flags.c_contiguous
        Field(grid, vals)
        vals[5, 7] = complex(1.0, np.inf)
        with pytest.raises(NonFiniteFieldError):
            Field(grid, vals)


# ------------------------------------------------------- property test

_LEAVES = st.sampled_from(["x", "y", "z", "zbar", "0.5", "2i", "(0.3-0.8i)"])


def _compound(inner):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(["exp", "conj", "re", "im", "sqrt"]),
                  inner),
        st.builds("-({})".format, inner),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(-3, 3)))


@st.composite
def _grids(draw):
    nx, ny = draw(st.integers(5, 1500)), draw(st.integers(5, 300))
    band = draw(st.one_of(st.none(), st.floats(0.001, 0.05)))
    return GridSpec(-0.1, 0.1, 1.0, 2.0, nx, ny, excluded_band=band)


def _random_fields(grid, seed, k=2):
    """Seeded complex fields; inf and nan at band nodes three or more
    rows from the active ones, so every stencil value at an active node
    stays finite."""
    rng = np.random.default_rng(seed)
    band = np.nonzero(~grid.mask[:, 0])[0][3:-3]
    fields = []
    for _ in range(k):
        vals = rng.standard_normal(grid.shape()) + 1j * rng.standard_normal(grid.shape())
        vals[band, ::3] = np.inf
        vals[band, 1::3] = np.nan
        fields.append(Field(grid, vals))
    return fields


def _same_up_to_nan(got, want, zeros=False):
    """Same shape and bytes once every NaN is the same NaN (and, with
    ``zeros``, every zero +0.0)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    canon = []
    for a in (got, want):
        parts = np.ascontiguousarray(a).view(float).copy()
        parts[np.isnan(parts)] = np.nan
        if zeros:
            parts[parts == 0] = 0.0
        canon.append(parts.tobytes())
    assert canon[0] == canon[1]


# each example runs every kernel twice on up to 450k nodes: no shrinking
@settings(max_examples=5, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(grid=_grids(), src=st.recursive(_LEAVES, _compound, max_leaves=6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_blocked_kernels_match_references(grid, src, seed, data):
    """Every blocked kernel on drawn grid shapes, bands and expressions.

    Where a NaN meets an inf inside the band, numpy's vector loops and
    their scalar tails can give the NaN different sign bits, and a block
    moves where a tail falls; so here a NaN matches any NaN, and every
    other value, signed zeros included, must match bit for bit.
    """
    i0 = data.draw(st.integers(0, grid.nx - 1))
    j0 = data.draw(st.integers(0, grid.ny - 1))
    u, psi = _random_fields(grid, seed)
    with np.errstate(all="ignore"):
        _same_up_to_nan(evaluate_on_grid(src, grid), ref_evaluate_on_grid(src, grid))
        for values in (u.values, u.values.real):
            for axis in (0, 1):
                _same_up_to_nan(cumulative_integral(values, 0.01, axis),
                                 ref_cumulative_integral(values, 0.01, axis))
                _same_up_to_nan(diff_axis(values, 0.02, axis),
                                 ref_diff_axis(values, 0.02, axis))
        _same_up_to_nan(dbar(psi).values, ref_dbar(psi).values)
        _same_up_to_nan(dz(psi).values, ref_dz(psi).values)
        for kind in ("direct", "conjugate"):
            assert residual(u, psi, kind) == ref_residual(u, psi, kind)
        a, b = _form_components(u, psi)
        for got, want in zip((a, b), ref_form_components(u, psi)):
            _same_up_to_nan(got, want)
        w, defect = _integrate_form(a, b, grid, (i0, j0))
        w_ref, defect_ref = ref_integrate_form(a, b, grid, (i0, j0))
        _same_up_to_nan(w, w_ref)
        assert np.float64(defect).tobytes() == np.float64(defect_ref).tobytes()
        pots = [_potential(grid, seed % 1000 + k) for k in range(2)]
        result = moutard_simple(u, psi, u, pots[0])
        u_tilde, map_psi = ref_transform(u, psi, u, pots[0])
        _same_up_to_nan(result.u_tilde.values, u_tilde)
        _same_up_to_nan(result.map_psi(psi, pots[1]).values, map_psi(psi, pots[1]))
        quad = (pots[0], pots[1], pots[1], pots[0])
        got = transformed_potential(*quad)
        want, _ = ref_potential(ref_transformed_values(*quad), grid)
        _same_up_to_nan(got.values, want)


@st.composite
def _zero_cases(draw):
    """A plain grid or a strip (odd nx puts a node on x = 0) and a seed
    for fields whose parts are often exactly +0.0 or -0.0."""
    nx, ny = draw(st.integers(9, 900)), draw(st.integers(5, 200))
    band = draw(st.one_of(st.none(), st.floats(0.002, 0.03)))
    return GridSpec(-0.1, 0.1, 1.0, 2.0, nx, ny, excluded_band=band), \
        draw(st.integers(0, 2**32 - 1))


def _zeroed(rng, shape, scale=1.0):
    """Seeded complex data with a third of the parts +-0.0."""
    parts = scale * rng.standard_normal(shape + (2,))
    parts[rng.random(parts.shape) < 1 / 3] = 0.0
    return (parts * np.where(rng.random(parts.shape) < 0.5, -1.0, 1.0)).view(complex)[..., 0]


def _band_nonfinite_as_nan(grid, values):
    out = values.copy()
    band = out[grid.band_rows]
    band[~np.isfinite(band)] = np.nan
    return out


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_zero_cases())
def test_real_arithmetic_kernels_with_signed_zeros(case):
    """The stencils, the simple transform and its maps, the transformed
    potential and a potential's values, on data with exact zeros of both
    signs, inf and nan in the band, and nodes on x = 0: numpy's complex
    formulas bit for bit, up to the sign of zeros and NaN payloads.  The
    transformed potential may read +-inf at a band node where the
    complex formula read NaN."""
    grid, seed = case
    rng = np.random.default_rng(seed)
    band = np.nonzero(~grid.mask[:, 0])[0][3:-3]
    u, f, fp, psi = (_zeroed(rng, grid.shape()) for _ in range(4))
    for vals in (f, fp, psi):
        vals[band, ::3], vals[band, 1::3] = np.inf, np.nan
    u, f, fp, psi = (Field(grid, v) for v in (u, f, fp, psi))
    pots = []
    for k in range(4):
        w = _zeroed(rng, grid.shape(), 1e-12) + 1j * (2.0 + rng.random(grid.shape())) \
            * np.where(rng.random(grid.shape()) < 0.5, -1.0, 1.0)
        if k in (0, 3):  # the scanned ones: one sign per slab, flipping across a band
            sign = np.where(grid.x < 0, -1.0, 1.0) if grid.excluded_band else 1.0
            w.imag = np.abs(w.imag) * sign
        w[band, k::4] = complex(0.0, [np.inf, -np.inf, np.nan, 0.0][k])
        pots.append(Potential(grid, w))
    with np.errstate(all="ignore"):
        for got, want in ((dbar(psi), ref_dbar(psi)), (dz(psi), ref_dz(psi))):
            _same_up_to_nan(got.values, want.values, zeros=True)
        for kind in ("direct", "conjugate"):
            assert residual(u, psi, kind) == ref_residual(u, psi, kind)
        result = moutard_simple(u, f, fp, pots[0])
        u_tilde, map_psi = ref_transform(u, f, fp, pots[0])
        _same_up_to_nan(result.u_tilde.values, u_tilde, zeros=True)
        _same_up_to_nan(result.map_psi(psi, pots[1]).values, map_psi(psi, pots[1]),
                        zeros=True)
        _, map_psi_plus = ref_transform(u, fp, f, pots[0])
        _same_up_to_nan(result.map_psi_plus(psi, pots[2]).values,
                        map_psi_plus(psi, pots[2]), zeros=True)
        got = transformed_potential(*pots)
        want, _ = ref_potential(ref_transformed_values(*pots), grid)
        _same_up_to_nan(_band_nonfinite_as_nan(grid, got.values),
                        _band_nonfinite_as_nan(grid, want), zeros=True)
        assert_same_bits(got.values, np.multiply(1j, got.im))


# ---------------------------------------------- active nodes as row slabs

@st.composite
def _slab_cases(draw):
    """A banded or unbanded grid (symmetric, one-sided or off the contour;
    odd nx puts a node on x = 0; a thin band can cover no node) with inf
    and nan planted in band rows and anywhere else."""
    nx, ny = draw(st.integers(5, 120)), draw(st.integers(4, 24))
    x_min = draw(st.sampled_from([-0.1, -0.037, 0.0, 0.02]))
    band = draw(st.none() | st.floats(1e-4, 0.09) | st.floats(1e-4, 0.01))
    grid = GridSpec(x_min, 0.1, 1.0, 2.0, nx, ny, excluded_band=band)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.standard_normal(grid.shape()) + 1j * rng.standard_normal(grid.shape())
    bad = st.sampled_from([np.inf, -np.inf, np.nan, complex(np.nan, 1.0),
                           complex(1.0, -np.inf)])
    for rows in (np.flatnonzero(~grid.mask[:, 0]), np.arange(nx)):
        for _ in range(draw(st.integers(0, 3)) if rows.size else 0):
            vals[draw(st.sampled_from(rows.tolist())), draw(st.integers(0, ny - 1))] = \
                draw(bad)
    a = draw(st.integers(0, nx - 1))
    return grid, vals, slice(a, draw(st.integers(a + 1, nx)))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (NonFiniteFieldError, ExactnessError) as exc:
        return None, (type(exc), str(exc))


def _same_float(got, want):
    assert (np.isnan(got) and np.isnan(want)) or \
        np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_slab_cases())
def test_slab_reductions_match_mask_gathers(case):
    """Field's check, max_abs, Potential's drift and _scrub read active
    nodes as row slabs; against the boolean mask gathers they replaced
    they accept and reject the same inputs with the same exception, and
    give the same bits, NaN propagation included."""
    grid, vals, rows = case
    with np.errstate(invalid="ignore"):
        field, error = _outcome(Field, grid, vals)
        assert error == _outcome(ref_check_finite, grid, vals)[1]
        if field is not None:
            _same_float(field.max_abs(), ref_max_abs(grid, vals))
        _same_float(_peak_abs(grid, vals), ref_max_abs(grid, vals))
        _same_float(_peak_abs(grid, vals[rows], rows),
                    np.max(np.abs(vals[rows][grid.mask[rows]]), initial=-np.inf))
        assert_same_bits(_scrub(grid, vals.copy()), ref_scrub(grid, vals))
        block = vals[rows].copy()
        assert_same_bits(_scrub(grid, block, rows), ref_scrub(grid, vals)[rows])
        for scale in (1e-12, 1.0):
            pot_vals = 1j * vals.imag + scale * vals.real
            pot, error = _outcome(Potential, grid, pot_vals)
            want, drift = ref_potential(pot_vals, grid)
            assert (error is None) == (not drift > 1e-10)
            if pot is not None:
                assert_same_bits(pot.values, want)
                _same_float(pot.max_abs(), ref_max_abs(grid, want))
