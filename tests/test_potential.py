import cmath
import random
from dataclasses import fields

import numpy as np
import pytest

from galab._integrate import integral
from galab.errors import ExactnessError
from galab.grid import Field, GridSpec, diff_axis
from galab.potential import Potential, loop_defect, omega

from conftest import (assert_same_bits, make_grid, ones,
                      reference_integrate_form, sample, zeros)


def grid_with_origin():
    # contains the reference point z = 0 so constants can be read there
    return make_grid(65, 65, x=(0.0, 1.0), y=(0.0, 1.0))


class TestOmega:
    def test_unit_pair_gives_2iy(self):
        g = grid_with_origin()
        pot = omega(ones(g), ones(g), basepoint=(0, 0), constant=0.0)
        assert np.max(np.abs(pot.values - 2j * g.y)) < 1e-12

    def test_zero_psi_is_constant(self, strip):
        pot = omega(zeros(strip), sample(strip, lambda z: z ** 2),
                    constant=0.5j)
        assert np.max(np.abs(pot.values - 0.5j)) == 0.0

    def test_z_one_pair_gives_2ixy(self):
        g = grid_with_origin()
        pot = omega(sample(g, lambda z: z), ones(g), (0, 0), 0.0)
        assert np.max(np.abs(pot.values - 2j * g.x * g.y)) < 1e-12

    def test_defining_relations(self, strip):
        # dw/dz = psi*psi+ and dw/dzbar = -conj(psi*psi+) at stencil order
        psi = sample(strip, lambda z: np.exp(z / 2))
        pot = omega(psi, ones(strip))
        p = psi.values
        fx = diff_axis(pot.values, strip.hx, axis=0)
        fy = diff_axis(pot.values, strip.hy, axis=1)
        d_z = 0.5 * (fx - 1j * fy)
        d_zb = 0.5 * (fx + 1j * fy)
        assert np.max(np.abs(d_z - p)) < 1e-7
        assert np.max(np.abs(d_zb + np.conj(p))) < 1e-7

    def test_defining_relations_converge(self):
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n)
            psi = sample(g, lambda z: np.exp(z / 2))
            pot = omega(psi, ones(g))
            fx = diff_axis(pot.values, g.hx, axis=0)
            fy = diff_axis(pot.values, g.hy, axis=1)
            errs.append(float(np.max(np.abs(0.5 * (fx - 1j * fy) - psi.values))))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5, errs

    def test_path_orientations_agree(self, strip):
        psi = sample(strip, lambda z: np.exp(z / 2))
        assert 0.0 < omega(psi, ones(strip)).path_defect < 1e-9

    def test_incompatible_pair_rejected(self, strip):
        with pytest.raises(ExactnessError):
            omega(sample(strip, np.conj), ones(strip))

    def test_real_scaling_bilinearity(self, strip):
        psi = sample(strip, lambda z: z)
        base = omega(psi, ones(strip), constant=0.0)
        scaled = omega(Field(strip, 3.0 * psi.values), ones(strip), constant=0.0)
        assert np.max(np.abs(scaled.values - 3.0 * base.values)) < 1e-10

    def test_constant_must_be_imaginary(self, strip):
        with pytest.raises(ValueError):
            omega(ones(strip), ones(strip), constant=1.0 + 0j)

    def test_constant_at_basepoint(self, strip):
        pot = omega(ones(strip), ones(strip), basepoint=(3, 7), constant=4j)
        assert pot.values[3, 7] == 4j
        assert pot.im[3, 7] == 4.0


class TestPotentialType:
    def test_fields_are_the_values_and_diagnostics(self, strip):
        assert [f.name for f in fields(Potential)] == ["grid", "im", "path_defect", "real_drift"]
        im = np.zeros(strip.shape())
        with pytest.raises(TypeError):  # the diagnostics are keyword-only
            Potential(strip, im, 0j, (0, 0))
        assert Potential(strip, im, path_defect=1e-12).path_defect == 1e-12

    def test_real_drift_rejected(self, strip):
        with pytest.raises(ExactnessError):
            Potential(strip, np.full(strip.shape(), 1.0 + 1j))

    def test_projection_to_imaginary(self, strip):
        vals = 2j * strip.y + 1e-13
        pot = Potential(strip, vals)
        assert np.max(np.abs(pot.values.real)) == 0.0

    def test_from_values_reads_constant(self, strip):
        pot = Potential.from_values(strip, 2j * strip.y)
        assert pot.im[0, 0] == 2 * strip.ys[0]


class TestLoopDefect:
    def test_exact_pair_closes(self, strip):
        assert loop_defect(ones(strip), ones(strip)) < 1e-12

    def test_polynomial_pair_closes(self, strip):
        assert loop_defect(sample(strip, lambda z: z), ones(strip)) < 1e-12

    def test_incompatible_pair_defect_matches_riemann_oracle(self):
        # oracle: dense Riemann sum of the curl of the form over the
        # rectangle (Green's theorem), on a refined grid
        g = make_grid(96, 96)
        psi, psi_plus = sample(g, np.conj), ones(g)
        defect = loop_defect(psi, psi_plus)

        fine = make_grid(768, 768)
        p = np.conj(fine.z)
        a = 2j * p.imag
        b = 2j * p.real
        curl = (np.gradient(b, fine.hx, axis=0)
                - np.gradient(a, fine.hy, axis=1))
        cell = fine.hx * fine.hy
        oracle = abs(np.sum(curl[:-1, :-1]) * cell)
        assert defect == pytest.approx(oracle, rel=5e-3)
        assert defect == pytest.approx(4.0, abs=1e-9)  # 4 * area, area = 1


# --------------------------------------------------------------------------
# Reference: the potential form integrated as complex arrays, as written
# before the form's real parts (exactly zero) were dropped.  The float64
# integration must give the same bits.  The integrator itself is
# conftest.reference_integrate_form.

def reference_form(psi, psi_plus):
    p = psi.values * psi_plus.values
    return 2j * p.imag, 2j * p.real


def reference_omega(psi, psi_plus, basepoint, constant):
    constant = 1j * complex(constant).imag
    w_xy, defect = reference_integrate_form(*reference_form(psi, psi_plus),
                                            psi.grid, basepoint)
    return Potential(psi.grid, w_xy + constant, path_defect=defect)


def reference_loop_defect(psi, psi_plus):
    a, b = reference_form(psi, psi_plus)
    grid = psi.grid
    i0, j0, i1, j1 = 0, 0, grid.nx - 1, grid.ny - 1
    bottom = integral(a[i0:i1 + 1, j0], grid.hx)
    top = integral(a[i0:i1 + 1, j1], grid.hx)
    right = integral(b[i1, j0:j1 + 1], grid.hy)
    left = integral(b[i0, j0:j1 + 1], grid.hy)
    return float(abs(bottom + right - top - left))


def seeded_exponential_pairs(seed, n):
    """Pairs exp(c z), exp(d z) with rates of modulus 0.3 to 2.5 at random
    angles on the centred unit square, and an imaginary constant."""
    rng = random.Random(seed)
    rate = lambda: cmath.rect(rng.uniform(0.3, 2.5), rng.uniform(0, 2 * cmath.pi))
    grid = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n + 3)
    for _ in range(4):
        c, d = rate(), rate()
        yield (sample(grid, lambda z: np.exp(c * z)),
               sample(grid, lambda z: np.exp(d * z)),
               (rng.randrange(n), rng.randrange(n + 3)),
               1j * rng.uniform(-3, 3))


class TestFloatFormMatchesReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_omega(self, seed):
        for psi, psi_plus, basepoint, constant in seeded_exponential_pairs(seed, 61):
            got = omega(psi, psi_plus, basepoint, constant)
            want = reference_omega(psi, psi_plus, basepoint, constant)
            assert_same_bits(got.values, want.values)
            assert got.path_defect == want.path_defect
            assert got.real_drift == want.real_drift == 0.0
            assert got.im[basepoint] == constant.imag

    @pytest.mark.parametrize("seed", range(3))
    def test_loop_defect(self, seed):
        for psi, psi_plus, _, _ in seeded_exponential_pairs(seed, 64):
            assert loop_defect(psi, psi_plus) == reference_loop_defect(psi, psi_plus)
            # an incompatible pair has a defect far from zero
            bad = sample(psi.grid, np.conj)
            assert loop_defect(bad, psi_plus) == reference_loop_defect(bad, psi_plus)
