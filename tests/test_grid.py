import csv

import numpy as np
import pytest

from galab.errors import GalabError, NonFiniteFieldError, ShapeError, StencilError
from galab.grid import Field, GridSpec, dbar, diff_axis, dz, residual, write_csv

from conftest import assert_fourth_order, make_grid, sample, zeros


class TestGridSpec:
    def test_basic_geometry(self):
        g = make_grid(9, 5)
        assert g.hx == pytest.approx(1 / 8)
        assert g.hy == pytest.approx(1 / 4)
        assert g.xs[0] == 0.0 and g.xs[-1] == 1.0
        assert g.z.shape == (9, 5)
        assert g.z[2, 3] == g.xs[2] + 1j * g.ys[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(3, 8)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 8, 8)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 0.0, 1.0, 8, 8, excluded_band=2.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 0.0, 1.0, 8, 8, excluded_band=-0.1)

    def test_excluded_band_mask(self):
        g = make_grid(33, 8, x=(-1.0, 1.0), band=0.25)
        assert not g.mask[np.abs(g.xs) < 0.25].any()
        assert g.mask[np.abs(g.xs) >= 0.25].all()


class TestField:
    def test_shape_mismatch(self, strip):
        with pytest.raises(ShapeError):
            Field(strip, np.zeros((3, 3)))

    def test_nonfinite_active_rejected(self, strip):
        vals = np.ones(strip.shape(), dtype=complex)
        vals[5, 5] = np.nan
        with pytest.raises(ValueError):
            Field(strip, vals)

    def test_nonfinite_active_is_a_library_error(self, strip):
        vals = np.ones(strip.shape(), dtype=complex)
        vals[5, 5] = np.inf
        with pytest.raises(NonFiniteFieldError) as err:
            Field(strip, vals)
        assert isinstance(err.value, GalabError)

    def test_nonfinite_allowed_inside_band(self):
        g = make_grid(32, 8, x=(-1.0, 1.0), band=0.3)
        f = Field.from_callable(g, lambda z: 1.0 / np.real(z))
        assert np.all(np.isfinite(f.values[g.mask]))


class TestWirtinger:
    def test_dbar_holomorphic_vanishes(self, strip):
        assert dbar(sample(strip, lambda z: z)).max_abs() < 1e-12

    def test_dbar_antiholomorphic(self, strip):
        err = np.max(np.abs(dbar(sample(strip, np.conj)).values - 1.0))
        assert err < 1e-12

    def test_dz_on_z_and_zbar(self, strip):
        assert np.max(np.abs(dz(sample(strip, lambda z: z)).values - 1.0)) < 1e-12
        assert dz(sample(strip, np.conj)).max_abs() < 1e-12

    def test_dbar_z_zbar_symbolic(self):
        # d/dzbar (z * zbar) = z; quadratics are differentiated exactly
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n)
            f = sample(g, lambda z: z * np.conj(z))
            errs.append(np.max(np.abs(dbar(f).values - g.z)))
        assert max(errs) < 1e-11

    def test_dz_square_symbolic(self, strip):
        f = sample(strip, lambda z: z ** 2)
        assert np.max(np.abs(dz(f).values - 2 * strip.z)) < 1e-11

    def test_fourth_order_on_transcendental(self):
        # mixed powers excite the truncation term of the stencils
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n)
            f = sample(g, lambda z: z ** 3 * np.conj(z) ** 2)
            exact = 2 * g.z ** 3 * np.conj(g.z)
            errs.append(np.max(np.abs(dbar(f).values - exact)))
        assert_fourth_order(errs)

    def test_stencil_needs_five_nodes(self):
        g = make_grid(4, 8)
        with pytest.raises(StencilError):
            dbar(sample(g, lambda z: z))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_identity_and_conjugation(self, strip, seed):
        # dbar + dz = d/dx and dbar(conj f) = conj(dz f), node-wise
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

        def poly(z):
            x, y = np.real(z), np.imag(z)
            return sum(coeffs[p, q] * x ** p * y ** q
                       for p in range(3) for q in range(3))

        f = sample(strip, poly)
        left = dbar(f).values + dz(f).values
        fx = diff_axis(f.values, strip.hx, axis=0)
        scale = np.maximum(np.abs(fx), 1.0)
        assert np.max(np.abs(left - fx) / scale) < 1e-12
        lhs = dbar(Field(strip, np.conj(f.values))).values
        rhs = np.conj(dz(f).values)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


class TestResidual:
    def test_holomorphic_solves_direct(self, strip):
        assert residual(zeros(strip), sample(strip, lambda z: z)) < 1e-12

    def test_zbar_misses_by_one(self, strip):
        assert residual(zeros(strip), sample(strip, np.conj)) == pytest.approx(1.0)

    def test_strip_pair_by_hand(self, strip):
        # d/dzbar(iy) = -1/2 while u * conj(iy) = -1/2 for u = 1/(2iy)
        u = sample(strip, lambda z: 1.0 / (2j * np.imag(z)))
        psi = sample(strip, lambda z: 1j * np.imag(z))
        assert residual(u, psi, "direct") < 1e-12

    def test_conjugate_kind(self, strip):
        # psi+ holomorphic solves the conjugate equation with u = 0
        assert residual(zeros(strip), sample(strip, lambda z: z ** 2 + 1),
                        "conjugate") < 1e-11

    def test_grid_mismatch(self, strip):
        with pytest.raises(ShapeError):
            residual(zeros(strip), sample(make_grid(16, 16), lambda z: z))

    def test_unknown_kind(self, strip):
        with pytest.raises(ValueError):
            residual(zeros(strip), zeros(strip), "sideways")

    def test_cubic_polynomials_near_exact(self):
        for n in (32, 64):
            g = make_grid(n, n)
            h4 = max(g.hx, g.hy) ** 4
            for p in (lambda z: z ** 3, lambda z: 1 + z + z ** 2 + z ** 3):
                r = residual(zeros(g), sample(g, p))
                assert r <= max(50 * h4, 1e-12)


class TestCsvDump:
    def test_layout(self, tmp_path):
        g = make_grid(4, 5)
        path = tmp_path / "grid.csv"
        write_csv(path, g, g.z)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + 4 * 5
        # y outer, x inner: second row is the first y-row, second x-node
        x, y, re, im = (float(v) for v in lines[2].split(","))
        assert (x, y) == (pytest.approx(g.xs[1]), pytest.approx(g.ys[0]))
        assert re == pytest.approx(g.xs[1]) and im == pytest.approx(g.ys[0])


def reference_csv(path, grid, values):
    """The row-by-row ``csv.writer`` dump that ``write_csv`` must match
    byte for byte."""
    values = np.asarray(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re", "im"])
        for j in range(grid.ny):
            for i in range(grid.nx):
                v = values[i, j]
                writer.writerow([repr(float(grid.xs[i])), repr(float(grid.ys[j])),
                                 repr(float(np.real(v))), repr(float(np.imag(v)))])


#: values that stress float repr: non-finite, signed zero, subnormal,
#: and both sides of repr's switch to exponent notation
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5,
                  -1e16, 9999999999999998.0, 0.0001]


class TestCsvOracle:
    def check(self, tmp_path, grid, values):
        write_csv(tmp_path / "new.csv", grid, values)
        reference_csv(tmp_path / "ref.csv", grid, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_every_pair_of_special_values(self, tmp_path):
        g = make_grid(10, 11)
        pairs = [complex(a, b) for a in SPECIAL_VALUES for b in SPECIAL_VALUES]
        vals = np.random.default_rng(1).standard_normal(g.shape()).astype(complex)
        vals.reshape(-1)[:len(pairs)] = pairs
        self.check(tmp_path, g, vals)

    def test_complex_on_non_square_grid(self, tmp_path):
        g = make_grid(7, 5)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(g.shape()) + 1j * rng.standard_normal(g.shape())
        vals.reshape(-1)[::4] = [complex(v, -v) for v in SPECIAL_VALUES[:9]]
        self.check(tmp_path, g, vals)

    def test_real_array(self, tmp_path):
        g = make_grid(7, 5)
        vals = np.random.default_rng(3).standard_normal(g.shape())
        vals.reshape(-1)[1::3] = SPECIAL_VALUES + [-0.0, 1.5]
        self.check(tmp_path, g, vals)

    def test_banded_strip(self, tmp_path):
        # the shape of the bundled pole strips, with junk zeroed in the band
        g = make_grid(480, 81, x=(-1.0, 1.0), band=0.02)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.exp(2j * g.y) / g.x + g.z ** 2
        vals = np.where(g.mask, vals, 0.0)
        vals[240, 40] = np.nan
        self.check(tmp_path, g, vals)

    def test_shape_mismatch_rejected(self, tmp_path):
        g = make_grid(7, 5)
        for shape in ((6, 5), (7, 6), (5, 7), (35,)):
            with pytest.raises(ShapeError):
                write_csv(tmp_path / "bad.csv", g, np.zeros(shape))
