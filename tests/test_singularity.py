import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import galab.series
from galab.errors import (BandRequiredError, FitError, GalabError,
                          MeromorphicViolation, NonFiniteFieldError, PositivityError,
                          SingularModelError, ZeroPotentialError)
from galab.grid import Field, GridSpec, diff_axis
from galab.moutard import SeedSet, moutard_simple
from galab.potential import Potential, omega, omega_singular
from galab.series import (FunctionOnInterval, PoleProfile, conjugate_profile,
                          meromorphic_certify, solve_recursion)
from galab.singularity import (FIT_ORDERS, LADDER_FRACTIONS, PATH_DEFECT_TOL,
                               SingularFieldModel, _diff_rows, _projector, _window,
                               contour_profile, fit_laurent_profile, remove_pole,
                               synthesize_seeds, synthesize_singular_u)

from conftest import assert_same_bits, reference_integrate_form

IV = (1.0, 2.0)
EPS = 0.1
ORDERS = (-2, -1, 0)  # TestLaurentFit's basis: the pole orders and c_0


def poly(*coeffs):
    return FunctionOnInterval.from_poly(list(coeffs), IV)


def strip_grid(nx=480, ny=61):
    return GridSpec(-EPS, EPS, IV[0], IV[1], nx, ny, excluded_band=EPS / 50)


def canonical_profile():
    return PoleProfile(poly(0.0), {-1: poly(-0.5)})


def generic_profile():
    return PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), 1: poly(1j)})


@pytest.fixture(scope="module")
def grid():
    return strip_grid()


class TestSynthesizeU:
    def test_canonical_is_pure_pole(self, grid):
        u, model = synthesize_singular_u(canonical_profile(), grid)
        expected = -1.0 / (2 * grid.x[grid.mask])
        assert np.max(np.abs(u.values[grid.mask] - expected)) == 0.0
        assert np.array_equal(model.phi.data, 2.0 * canonical_profile().phi.data)

    def test_phase_profile_evaluation(self, grid):
        prof = PoleProfile(poly(0.0, 0.0, 1.0),
                           {-1: poly(-0.5), 1: poly(1j)})
        u, model = synthesize_singular_u(prof, grid)
        assert np.array_equal(model.phi.data, [0, 0, 2])  # the coefficient's phase 2*phi
        mask = grid.mask
        expected = np.exp(2j * grid.y ** 2) * (-1 / (2 * grid.x) + 1j * grid.x)
        assert np.max(np.abs(u.values[mask] - expected[mask])) < 1e-13

    def test_uncertified_profile_rejected(self, grid):
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(0.1)})
        with pytest.raises(MeromorphicViolation):
            synthesize_singular_u(prof, grid)


class TestSynthesizeSeeds:
    def test_canonical_seeds_are_pure_poles(self, grid):
        f, fp = synthesize_seeds(canonical_profile(), poly(1.0), poly(1.0),
                                 grid, order=8)
        mask = grid.mask
        assert np.max(np.abs(f.values[mask] - 1 / grid.x[mask])) == 0.0
        # e^{-i pi/2} carries one rounding ulp that the 1/x magnifies
        rel = np.abs(fp.values[mask] + 1j / grid.x[mask]) \
            * np.abs(grid.x[mask])
        assert np.max(rel) < 1e-14

    def test_order_zero_coefficient_hand_value(self, grid):
        # beta_-1 = 1 + y^2/10 with flat phase gives beta_0 = i*y/5
        f, _ = synthesize_seeds(canonical_profile(), poly(1.0, 0.0, 0.1),
                                poly(1.0), grid, order=4)
        b0 = f.series.beta_fn(0)
        assert (b0 - poly(0.0, 0.2j)).max_abs() < 1e-14

    def test_conjugate_seed_order_zero(self, grid):
        # beta+_0 = i*(beta+_-1)' + (-phi' + 2 r_0) beta+_-1
        prof = generic_profile()
        _, fp = synthesize_seeds(prof, poly(1.0), poly(1.0, 0.05), grid,
                                 order=4)
        expected = poly(0.05j) + (-1.0) * poly(0.0, 2.0) * poly(1.0, 0.05)
        assert (fp.series.beta_fn(0) - expected).max_abs() < 1e-13

    def test_positivity_guard(self, grid):
        with pytest.raises(PositivityError):
            synthesize_seeds(canonical_profile(), poly(0.0, 1.0, -0.5),
                             poly(1.0), grid)
        with pytest.raises(PositivityError):
            synthesize_seeds(canonical_profile(), poly(1.0), poly(-1.0), grid)

    def test_seed_residuals_away_from_contour(self):
        # the truncated series solves the equations away from the
        # contour; the defect there is pure stencil error, which must
        # drop at 4th order when the y-resolution doubles
        from galab.grid import residual
        prof = generic_profile()
        defects = []
        for ny in (61, 121):
            g = GridSpec(-EPS, EPS, IV[0], IV[1], 480, ny,
                         excluded_band=EPS / 2)
            u, _ = synthesize_singular_u(prof, g)
            f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), g, order=8)
            direct = residual(u, f, "direct")
            conj = residual(u, fp, "conjugate")
            assert max(direct, conj) < 1e-3
            defects.append(max(direct, conj))
        assert defects[0] / defects[1] > 10.0


class TestOmegaSingular:
    def test_canonical_closed_form(self, grid):
        f, fp = synthesize_seeds(canonical_profile(), poly(1.0), poly(1.0),
                                 grid, order=8)
        w = omega_singular(f, fp, constant=0.0)
        mask = grid.mask
        assert np.max(np.abs(w.values[mask] - 2j / grid.x[mask])) < 1e-10

    def test_constant_phase_cancels(self, grid):
        # f = e^{i phi}/x, f+ = e^{-i(phi+pi/2)}/x give the same 2i/x
        prof = PoleProfile(poly(0.7), {-1: poly(-0.5)})
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        w = omega_singular(f, fp, constant=0.0)
        mask = grid.mask
        assert np.max(np.abs(w.values[mask] - 2j / grid.x[mask])) < 1e-10

    def test_positivity_enforced(self, grid):
        f, fp = synthesize_seeds(canonical_profile(), poly(1.0), poly(1.0),
                                 grid, order=4)
        flipped = SingularFieldModel(grid, -1.0 * fp.leading, fp.phi,
                                     Field(grid, -1.0 * fp.smooth_remainder.values),
                                     None)
        with pytest.raises(PositivityError):
            omega_singular(f, flipped)

    def test_derivative_residue_vanishes(self, grid):
        # 1/x coefficient of dw/dx is zero for a genuine pair
        from galab.grid import diff_axis
        prof = generic_profile()
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        w = omega_singular(f, fp)
        dw = diff_axis(w.values, grid.hx, axis=0)
        dw[~np.isfinite(dw) & ~grid.mask] = 0.0
        fit = fit_laurent_profile(Field(grid, np.where(grid.mask, dw, 0.0)),
                                  orders=(-2, -1, 0, 1, 2, 3, 4),
                                  x_window=(EPS / 32, EPS / 2))
        assert fit.max_abs(-1) <= 1e-4 * fit.max_abs(-2)

    def test_leading_coefficient_matches(self, grid):
        prof = generic_profile()
        b, bp = poly(1.0, 0.0, 0.1), poly(1.0, 0.05)
        f, fp = synthesize_seeds(prof, b, bp, grid, order=8)
        w = omega_singular(f, fp)
        fit = fit_laurent_profile(Field(grid, np.where(grid.mask, w.values, 0)),
                                  orders=(-1, 0, 1, 2, 3),
                                  x_window=(EPS / 32, EPS / 4))
        target = 2j * (b * bp).values_on(grid.ys)
        assert np.max(np.abs(fit.coeff(-1) - target)) < 1e-8

    def test_product_identity_symbolic(self):
        # the 1/x^2 and 1/x coefficients of f*f+ are -i*b and b' where
        # b is the product of the leading coefficients; exact in
        # polynomial mode given the order-zero relations
        prof = generic_profile()
        grid = strip_grid(nx=64, ny=61)
        b, bp = poly(1.0, 0.0, 0.1), poly(1.0, 0.05)
        f, fp = synthesize_seeds(prof, b, bp, grid, order=6)
        bb = b * bp
        # phases multiply to e^{-i pi/2} = -i
        c_m2 = -1j * (f.series.beta_fn(-1) * fp.series.beta_fn(-1))
        c_m1 = -1j * (f.series.beta_fn(0) * fp.series.beta_fn(-1)
                      + f.series.beta_fn(-1) * fp.series.beta_fn(0))
        assert (c_m2 - (-1j) * bb).max_abs() < 1e-8
        assert (c_m1 - bb.deriv()).max_abs() < 1e-8

    def test_peak_memory_is_three_complex_grids(self):
        # no whole-grid model term outlives its use: the seeds' values
        # are formed on construction, so the peak is the potential's own
        grid = strip_grid(nx=960, ny=161)
        f, fp = synthesize_seeds(generic_profile(), poly(1.0, 0.0, 0.1),
                                 poly(1.0, 0.05), grid, order=8)
        omega_singular(f, fp)  # warm-up
        tracemalloc.start()
        try:
            omega_singular(f, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * grid.nx * grid.ny * 16, peak / (grid.nx * grid.ny * 16)

    def test_product_identity_fitted(self, grid):
        prof = generic_profile()
        b, bp = poly(1.0, 0.0, 0.1), poly(1.0, 0.05)
        f, fp = synthesize_seeds(prof, b, bp, grid, order=8)
        prod = f.values * fp.values
        fit = fit_laurent_profile(Field(grid, np.where(grid.mask, prod, 0)),
                                  orders=(-2, -1, 0, 1, 2, 3),
                                  x_window=(EPS / 32, EPS / 4))
        bb = (b * bp).values_on(grid.ys)
        bbp = (b * bp).deriv().values_on(grid.ys)
        assert np.max(np.abs(fit.coeff(-2) - (-1j) * bb)) < 1e-8
        assert np.max(np.abs(fit.coeff(-1) - bbp)) < 1e-6


class TestLaurentFit:
    def test_pure_pole(self, grid):
        fld = Field.from_callable(grid, lambda z: 1.0 / np.real(z))
        fit = fit_laurent_profile(fld, ORDERS, (0.0, EPS))
        assert fit.max_abs(-1) == pytest.approx(1.0, abs=1e-12)
        assert fit.max_abs(-2) < 1e-12 and fit.max_abs(0) < 1e-12

    def test_mixed_orders(self, grid):
        fld = Field.from_callable(grid, lambda z: 2j / np.real(z) + 3.0)
        fit = fit_laurent_profile(fld, ORDERS, (0.0, EPS))
        assert np.allclose(fit.coeff(-1), 2j, atol=1e-12)
        assert np.allclose(fit.coeff(0), 3.0, atol=1e-12)

    def test_y_dependent_coefficients(self, grid):
        fld = Field.from_callable(
            grid, lambda z: np.imag(z) / np.real(z) ** 2)
        fit = fit_laurent_profile(fld, ORDERS, (0.0, EPS))
        assert np.max(np.abs(fit.coeff(-2) - grid.ys)) < 1e-10

    @pytest.mark.parametrize("fill", ["nan", "inf", "random"])
    def test_band_rows_are_not_read(self, grid, fill):
        # remove_pole passes dw/dx with whatever its band rows hold
        vals = Field.from_callable(
            grid, lambda z: np.imag(z) / np.real(z) ** 2 + 2j / np.real(z)).values.copy()
        band, window = grid.band_rows, (EPS / 32, EPS / 2)
        vals[band] = 0.0
        want = fit_laurent_profile(Field(grid, vals.copy()), ORDERS, window)
        if fill == "nan":
            vals[band] = np.nan
        elif fill == "inf":
            vals[band, ::2], vals[band, 1::2] = np.inf, -np.inf
        else:
            vals[band] = np.random.default_rng(3).standard_normal(vals[band].shape) * 1e6
        got = fit_laurent_profile(Field(grid, vals), ORDERS, window)
        assert_same_bits(got.coeffs, want.coeffs)

    def test_too_few_samples(self, grid):
        fld = Field.from_callable(grid, lambda z: 1.0 / np.real(z))
        with pytest.raises(FitError):
            fit_laurent_profile(fld, ORDERS, (EPS / 50, EPS / 50 * 1.5))


class TestRemovePole:
    def test_flagship_exact_cancellation(self, grid):
        prof = canonical_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        result = remove_pole(u, f, fp, constant=0.0)
        assert result.verdict == "pass"
        assert np.max(np.abs(result.u_tilde.values[grid.mask])) <= 1e-10
        # by-hand mechanism: f*conj(f+)/w = (i/x^2)*(x/2i) = 1/(2x)
        seed_term = (f.values
                     * np.conj(fp.values) / result.omega.values)
        assert np.max(np.abs((seed_term - 1 / (2 * grid.x))[grid.mask])) < 1e-10

    def test_nonzero_constant_stays_bounded(self, grid):
        # w = 2i/x + c expands the seed term as 1/(2x) + O(1) near the
        # contour, so the transform still cancels the pole
        prof = canonical_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        result = remove_pole(u, f, fp, constant=0.5j)
        assert result.passed
        bound = 1e-6 * max(result.contour.c0) + 1e-8
        assert max(result.contour.c_minus1) <= bound
        assert max(result.contour.c_minus2) <= bound

    def test_generic_profile_bounded(self, grid):
        prof = generic_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        result = remove_pole(u, f, fp)
        assert result.passed, result.verdict
        contour = result.contour
        for c2, c1, c0 in zip(contour.c_minus2, contour.c_minus1, contour.c0):
            assert max(c2, c1) <= 1e-6 * c0 + 1e-8
        sups = contour.sup
        assert all(b <= a * 1.05 + 1e-9 for a, b in zip(sups, sups[1:]))

    def test_u_tilde_is_the_simple_transform(self, grid):
        # by-hand oracle: u~ = u* + f*conj(f+)/w at every active node
        prof = generic_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        result = remove_pole(u, f, fp, constant=0.25j)
        f_vals, fp_vals = f.values, fp.values
        with np.errstate(divide="ignore", invalid="ignore"):
            hand = u.values + f_vals * np.conj(fp_vals) / result.omega.values
        m = grid.mask
        scale = np.max(np.abs(u.values[m]))  # the 1/x terms that cancel
        assert np.max(np.abs(result.u_tilde.values[m] - hand[m])) <= 1e-14 * scale

    def test_seed_fields_evaluated_once(self, grid, monkeypatch):
        # each model forms its values on construction: remove_pole reads
        # them and evaluates no model's phase or leading coefficient again
        prof = generic_profile()
        u, model = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        calls = []
        values_on = FunctionOnInterval.values_on
        monkeypatch.setattr(FunctionOnInterval, "values_on",
                            lambda self, ys: calls.append(self) or values_on(self, ys))
        result = remove_pole(u, f, fp)
        assert result.passed, result.verdict
        assert calls  # the potential evaluates the leading product
        assert not any(fn is m.phi or fn is m.leading
                       for fn in calls for m in (model, f, fp))

    def test_a_model_goes_where_a_field_goes(self, grid):
        prof = generic_profile()
        u, model = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        assert model is u and all(isinstance(m, Field) for m in (u, f, fp))
        w = omega_singular(f, fp)
        assert_same_bits(moutard_simple(u, f, fp, w).u_tilde.values,
                         remove_pole(u, f, fp).transform.u_tilde.values)
        assert SeedSet(u, [(f, fp)], [[w]]).det_min == w.det_min
        # u* keeps its pole: c_-1 = |r_-1| = 1/2 on every rung
        contour = contour_profile(u, tuple(EPS * k for k in LADDER_FRACTIONS))
        assert contour.reasons()[0][0] == "pole_persists"
        assert np.allclose(contour.c_minus1, 0.5, rtol=0, atol=1e-9)

    def test_sabotaged_order_zero_detected(self, grid):
        # shifting beta_0 of the direct seed breaks the first-order
        # relation; the potential derivative grows a 1/x part and the
        # sup ladder inverts
        prof = generic_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05),
                                 grid, order=8)
        phase = np.exp(1j * prof.phi.values_on(grid.ys).real)
        sab = Field(grid, f.smooth_remainder.values + phase[None, :])
        f_sab = SingularFieldModel(grid, f.leading, f.phi, sab, f.series)
        result = remove_pole(u, f_sab, fp)
        assert not result.passed
        assert result.residue_c_minus1 > 1e3 * (
            1e-4 * result.residue_scale + 1e-8)
        assert "1/x part" in result.verdict or "sup grows" in result.verdict

    def test_zero_potential_guard(self, grid):
        prof = canonical_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        # choose the constant so w = 2i/x - 2i/x_k vanishes on a node
        x_node = float(grid.xs[400])
        with pytest.raises(ZeroPotentialError):
            remove_pole(u, f, fp, constant=-2j / x_node)

    def test_report_fields(self, grid):
        prof = canonical_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        data = remove_pole(u, f, fp).to_json()
        assert set(data) >= {"delta_ladder", "sup_u_tilde", "fitted_c_minus1",
                             "fitted_c_minus2", "verdict"}
        assert len(data["delta_ladder"]) == 4

    def test_result_keeps_its_transform(self, grid):
        prof = canonical_profile()
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0), poly(1.0), grid, order=8)
        result = remove_pole(u, f, fp)
        assert result.u_tilde is result.transform.u_tilde
        assert result.reasons == () and result.passed


def generic_strip():
    # remove-pole-generic's strip
    return GridSpec(-EPS, EPS, IV[0], IV[1], 480, 81, excluded_band=0.002)


class TestPathDefect:
    """Im r1 = phi''/2 + eps leaves the seed potential single-valued but
    not closed: no residue sees it, the path defect grows as 6.51 eps."""

    @pytest.mark.parametrize("eps", [0.0, 1e-5, 1e-4, 1e-3])
    def test_second_condition_violated(self, eps, monkeypatch):
        monkeypatch.setattr(galab.series, "POLY_TOL", 1.0)  # admit the eps profiles
        grid = generic_strip()
        prof = PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), 1: poly(1j * (1 + eps))})
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05), grid,
                                 order=8)
        result = remove_pole(u, f, fp)
        defect = result.omega.path_defect
        if eps == 0.0:
            assert result.passed and result.verdict == "pass"
            assert defect < PATH_DEFECT_TOL / 100
            return
        assert abs(defect / eps - 6.51) <= 0.651
        assert [name for name, _ in result.reasons] == ["path_defect"]
        assert not result.passed
        assert result.verdict == "fail: " + result.reasons[0][1]
        assert "not closed" in result.verdict


class TestResidueDefect:
    """Re r0 = eps (1 + y) breaks the certificate's first condition: the
    seed potential's derivative gains a 1/x part of 18.48 eps and the
    path defect grows as 68.5 eps, so the path defect fails first."""

    @pytest.mark.parametrize("eps, names", [
        (0.0, []), (1e-6, ["path_defect"]), (1e-5, ["path_defect"]),
        (1e-4, ["residue", "path_defect"]),
        (1e-3, ["pole_persists", "residue", "path_defect"])])
    def test_first_condition_violated(self, eps, names, monkeypatch):
        monkeypatch.setattr(galab.series, "POLY_TOL", 1.0)  # admit the eps profiles
        grid = generic_strip()
        prof = PoleProfile(poly(0.0, 0.0, 1.0),
                           {-1: poly(-0.5), 0: poly(eps, eps), 1: poly(1j)})
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05), grid,
                                 order=8)
        result = remove_pole(u, f, fp)
        residue, defect = result.residue_c_minus1, result.omega.path_defect
        assert [name for name, _ in result.reasons] == names
        if eps == 0.0:
            assert result.verdict == "pass"
            assert residue < 1e-9 and defect < PATH_DEFECT_TOL / 100
            return
        assert abs(residue / eps - 18.48) <= 1.848
        assert abs(defect / eps - 68.5) <= 6.85
        assert result.verdict == "fail: " + "; ".join(text for _, text in result.reasons)


class TestLargeSeeds:
    """Certification alone judges a profile, whatever the seeds' scale."""

    def test_re_r0_inside_the_certificate_passes(self):
        # Re r0 = 5e-10 < POLY_TOL with beta_-1 = 10
        grid = GridSpec(-EPS, EPS, *IV, 481, 81, excluded_band=EPS / 50)
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(5e-10)})
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(10.0), poly(10.0), grid)
        result = remove_pole(u, f, fp)
        assert result.verdict == "pass"

    def test_re_r0_beyond_the_certificate_raises(self, grid):
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(2e-9)})
        with pytest.raises(MeromorphicViolation, match="Re r0"):
            synthesize_seeds(prof, poly(10.0), poly(10.0), grid)


class TestContourProfile:
    """The contour check reads any field, not only a transformed coefficient."""

    LADDER = tuple(fraction * EPS for fraction in LADDER_FRACTIONS)

    @pytest.mark.parametrize("nx, ny, tol", [(480, 81, 1e-10), (960, 161, 2e-10)])
    def test_a_vanishing_potential_creates_a_simplest_pole(self, nx, ny, tol):
        # u = 0, f = 1, f+ = i: omega = 2ix vanishes on the contour and
        # the transform puts the pole -1/(2x) there
        grid = GridSpec(-EPS, EPS, IV[0], IV[1], nx, ny, excluded_band=0.002)
        ones = np.ones(grid.shape(), dtype=complex)
        f, fp = Field(grid, ones), Field(grid, 1j * ones)
        w = omega(f, fp, (0, 0), -0.2j)
        m = grid.mask
        assert np.max(np.abs(w.values[m] - 2j * grid.x[m])) < 1e-13
        u_tilde = moutard_simple(Field(grid, 0 * ones), f, fp, w).u_tilde
        assert np.max(np.abs(u_tilde.values[m] + 1 / (2 * grid.x[m]))) < tol
        profile = contour_profile(u_tilde, self.LADDER)
        assert profile.delta_ladder == self.LADDER
        assert np.allclose(profile.c_minus1, 0.5, rtol=0, atol=1e-12)
        assert profile.reasons()[0][0] == "pole_persists"

    def test_the_singular_coefficient_keeps_its_pole(self):
        grid = generic_strip()
        u, _ = synthesize_singular_u(generic_profile(), grid)
        profile = contour_profile(u, self.LADDER)
        assert np.allclose(profile.c_minus1, 0.5, rtol=0, atol=1e-12)
        assert profile.reasons()[0][0] == "pole_persists"

    def test_an_empty_rung_raises_the_fits_error(self):
        grid = generic_strip()
        u, _ = synthesize_singular_u(generic_profile(), grid)
        with pytest.raises(FitError, match="0 left / 0 right"):
            contour_profile(u, (0.001,))


#: the four rungs of remove_pole's ladder on the strip, then its residue window
_LADDER = tuple(fraction * EPS for fraction in LADDER_FRACTIONS)
FIT_WINDOWS = tuple((delta / 2, delta) for delta in _LADDER) + ((_LADDER[-1] / 2, _LADDER[0]),)


class TestProjector:
    """A fit is the cached least-squares projector of its grid window,
    applied to the rows read as float pairs."""

    @pytest.mark.parametrize("window", FIT_WINDOWS)
    def test_exact_laurent_polynomials_within_lstsq_round_off(self, window):
        # sum_k c_k(y) x^k, k = -2..4, with random complex c_k at each y;
        # an unscaled projector (no D^-1) misses by factors delta^k
        grid = generic_strip()
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal((7, grid.ny)) + 1j * rng.standard_normal((7, grid.ny))
        powers = np.stack([grid.xs ** k for k in FIT_ORDERS], axis=1)
        fit = fit_laurent_profile(Field(grid, powers @ coeffs), FIT_ORDERS, window)
        rows = _window(grid, *window) & (np.abs(grid.xs) >= grid.excluded_band)
        ref = np.linalg.lstsq(powers[rows].astype(complex), (powers @ coeffs)[rows],
                              rcond=None)[0]
        for k in (-2, -1, 0):
            i = FIT_ORDERS.index(k)
            got, want = (np.max(np.abs(c[i] - coeffs[i])) for c in (fit.coeffs, ref))
            assert got <= 4 * want, (k, got, want)

    def test_one_read_only_projector_per_grid_window(self):
        grid, window = generic_strip(), FIT_WINDOWS[0]
        rows, proj = _projector(grid, FIT_ORDERS, window)
        assert _projector(grid, FIT_ORDERS, window)[1] is proj
        assert _projector(generic_strip(), FIT_ORDERS, window)[1] is proj  # equal, built anew
        assert not proj.flags.writeable and not rows.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 0.0
        hits = _projector.cache_info().hits
        fit_laurent_profile(Field(generic_strip(), np.ones(grid.shape())), FIT_ORDERS,
                            list(window))
        assert _projector.cache_info().hits == hits + 1


class TestResidueDerivative:
    """remove_pole differentiates W = Im w on the residue window's rows
    and a 2-row halo only: those rows keep diff_axis's bits."""

    @pytest.mark.parametrize("nx", [480, 481])
    @pytest.mark.parametrize("window", [FIT_WINDOWS[-1], None])
    def test_window_rows_keep_their_bits(self, nx, window):
        # None stands for the whole strip, every active column, so the
        # halo meets both grid ends
        grid = GridSpec(-EPS, EPS, IV[0], IV[1], nx, 81, excluded_band=0.002)
        prof = generic_profile()
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05), grid)
        w_im = omega_singular(f, fp).im
        rows, _ = _projector(grid, FIT_ORDERS, window or (0.0, EPS))
        assert_same_bits(_diff_rows(w_im, grid.hx, rows),
                         diff_axis(w_im, grid.hx, axis=0)[rows])


class TestCertifiedOnce:
    """A profile keeps the result of its one certification, and its
    conjugate inherits it."""

    UNCERTIFIED = {"Re r0 != 0 (worst |value| 2.000e-01 at y = 2.0)": {0: poly(0.1, 0.05)},
                   "Im r1 != phi''/2 (worst |value| 7.000e-01 at y = 2.0)":
                   {1: poly(1.1j, 0.3j)}}

    def test_one_certification_per_removal(self, grid, monkeypatch):
        calls, certify = [], galab.series.meromorphic_certify
        monkeypatch.setattr(galab.series, "meromorphic_certify",
                            lambda profile: calls.append(profile) or certify(profile))
        prof = generic_profile()
        conjugate_profile(prof)  # conjugating certifies nothing
        assert calls == []
        u, _ = synthesize_singular_u(prof, grid)
        f, fp = synthesize_seeds(prof, poly(1.0, 0.0, 0.1), poly(1.0, 0.05), grid)
        assert remove_pole(u, f, fp).passed
        assert len(calls) == 1 and calls[0] is prof

    @pytest.mark.parametrize("detail", UNCERTIFIED)
    def test_uncertified_profile_raises_from_each_entry_point(self, grid, detail):
        prof = PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), **self.UNCERTIFIED[detail]})
        message = f"profile fails certification: {detail}"
        for _ in range(2):  # the kept result raises again
            for call in (lambda: synthesize_singular_u(prof, grid),
                         lambda: synthesize_seeds(prof, poly(1.0), poly(1.0), grid),
                         lambda: solve_recursion(prof, poly(1.0))):
                with pytest.raises(MeromorphicViolation) as info:
                    call()
                assert str(info.value) == message

    @pytest.mark.parametrize("r", [{1: poly(1j, -0.9j)},  # Im r1 = phi''/2
                                   {0: poly(3e-10j, 1e-10), 1: poly(1j, -0.9j)},
                                   {1: poly(1j)}, *UNCERTIFIED.values()])
    def test_conjugate_inherits_its_own_certificate(self, r):
        # poly mode: the handed-over result is the conjugate's own, bit for bit
        prof = PoleProfile(poly(0.1, 0.2, 1.0, -0.3), {-1: poly(-0.5), **r})
        fresh = meromorphic_certify(conjugate_profile(prof))
        prof.certificate
        inherited = conjugate_profile(prof).certificate
        assert inherited is prof.certificate and inherited == fresh


class TestTypedErrors:
    """Malformed models and unbanded grids raise library errors that are
    still ValueErrors."""

    @staticmethod
    def model(grid, remainder=None):
        values = np.zeros(grid.shape()) if remainder is None else remainder
        return SingularFieldModel(grid, poly(1.0), poly(0.0), Field(grid, values))

    def raises(self, error, fn, *args):
        with pytest.raises(error) as info:
            fn(*args)
        assert isinstance(info.value, GalabError) and isinstance(info.value, ValueError)

    def test_remainder_on_another_grid(self, grid):
        self.raises(SingularModelError, SingularFieldModel, grid, poly(1.0), poly(0.0),
                    Field(strip_grid(nx=481), np.zeros((481, 61))))

    def test_remainder_non_finite_in_the_band(self, grid):
        vals = np.zeros(grid.shape())
        vals[grid.nx // 2, 3] = np.nan
        self.raises(NonFiniteFieldError, self.model, grid, vals)

    def test_remove_pole_needs_a_band(self):
        flat = GridSpec(-EPS, EPS, IV[0], IV[1], 40, 21)
        f = self.model(flat)
        self.raises(BandRequiredError, remove_pole, Field(flat, np.zeros((40, 21))), f, f)

    def test_omega_singular_needs_a_band(self):
        f = self.model(GridSpec(-EPS, EPS, IV[0], IV[1], 40, 21))
        self.raises(BandRequiredError, omega_singular, f, f)

    def test_pole_on_an_active_node(self):
        # without a band the node on x = 0 is active, and the 1/x term is
        # not finite there; only band nodes are zeroed, so the model raises
        # on construction
        flat = GridSpec(-EPS, EPS, IV[0], IV[1], 41, 21)
        assert (flat.xs == 0).any()
        self.raises(NonFiniteFieldError, self.model, flat)

    def test_omega_singular_non_finite_seed_product(self, grid):
        # finite remainders whose product overflows at active nodes
        f = self.model(grid, np.full(grid.shape(), 1e200))
        with np.errstate(over="ignore"):
            self.raises(NonFiniteFieldError, omega_singular, f, f)


# --------------------------------------------------------------------------
# References: the grid synthesis as a loop over orders with x powers held
# on the whole grid, and the singular potential integrated on complex
# components, as written before the float64 form.  The potential must give
# the same bits; the synthesis, now one matrix product, and the loop must
# both lie within round-off of the exact sum.

def reference_power_sum(grid, fns):
    acc = np.zeros(grid.shape(), dtype=complex)
    xpow = np.ones(grid.shape())
    for fn in fns:
        acc += xpow * fn.values_on(grid.ys)[None, :]
        xpow = xpow * grid.x
    return acc


def reference_omega_singular(f, f_plus, constant):
    grid, ys, x = f.grid, f.grid.ys, f.grid.x
    constant = 1j * complex(constant).imag
    b = (f.leading * f_plus.leading).real_part()
    bv, bpv = b.values_on(ys), b.deriv().values_on(ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_lead = 2j * bv[None, :] / x
        p_model = -1j * bv[None, :] / x ** 2 + bpv[None, :] / x
    p_rem = f.values * f_plus.values - p_model
    bad = ~np.isfinite(p_rem)
    for i, j in zip(*np.nonzero(bad)):
        if 2 <= i < grid.nx - 2 and np.all(np.isfinite(
                p_rem[[i - 2, i - 1, i + 1, i + 2], j])):
            p_rem[i, j] = (-p_rem[i - 2, j] + 4 * p_rem[i - 1, j]
                           + 4 * p_rem[i + 1, j] - p_rem[i + 2, j]) / 6.0
        else:
            p_rem[i, j] = 0.0
    w_lead[~np.isfinite(w_lead)] = 0.0
    w_rem, defect = reference_integrate_form(2j * p_rem.imag, 2j * p_rem.real,
                                             grid, (grid.nx - 1, 0))
    return Potential(grid, w_rem + w_lead + constant, path_defect=defect)


def seeded_pole_case(seed):
    """Certified profile (cubic phi, imaginary r0, Im r1 = phi''/2) with
    positive leading seed coefficients on [1, 2]."""
    rng = random.Random(seed)
    u = lambda s: rng.uniform(-s, s)
    phi = [u(0.15) for _ in range(4)]
    r1 = [complex(u(0.15), phi[2]), complex(u(0.15), 3.0 * phi[3])]
    prof = PoleProfile(poly(*phi), {-1: poly(-0.5), 1: poly(*r1),
                                    0: poly(1j * u(0.15), 1j * u(0.15))})
    lead = lambda: poly(rng.uniform(1.0, 2.0), u(0.2), u(0.2))
    return prof, lead(), lead(), poly(u(0.3), u(0.3))


def oracle_nodes(grid, seed, n_interior=200):
    """Every row within 3 nodes of the contour, the four corners and
    ``n_interior`` seeded nodes."""
    near = np.flatnonzero(np.abs(grid.xs) < 3.5 * grid.hx * (1 + 1e-9))
    nodes = {(int(i), j) for i in near for j in range(grid.ny)}
    nodes |= {(0, 0), (0, grid.ny - 1), (grid.nx - 1, 0), (grid.nx - 1, grid.ny - 1)}
    rng = np.random.default_rng(seed)
    nodes |= {(int(i), int(j)) for i, j in zip(rng.integers(0, grid.nx, n_interior),
                                                 rng.integers(0, grid.ny, n_interior))}
    return sorted(nodes)


def exact_power_sum(x, coeffs):
    """sum_j x^j coeffs[j] of floats, exactly: every float is an integer
    over a power of two, so one common denominator serves all terms."""
    xn, xd = x.as_integer_ratio()
    terms = [(xn ** j * cn, xd ** j * cd)
             for j, (cn, cd) in enumerate(c.as_integer_ratio() for c in coeffs)]
    den = max(d for _, d in terms)
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def assert_near_exact_sum(arrays, xs, table, nodes):
    """|a - sum_j x^j table[j]| <= (K + 2) eps sum_j |x^j table[j]| for each
    array a at every node, the sum taken exactly from the float64
    abscissae and table entries."""
    k, eps = table.shape[0], np.finfo(float).eps
    for i, jy in nodes:
        x, col = float(xs[i]), table[:, jy]
        re = exact_power_sum(x, col.real.tolist())
        im = exact_power_sum(x, col.imag.tolist())
        bound = (k + 2) * eps * sum(abs(x) ** j * abs(t) for j, t in enumerate(col))
        for a in arrays:
            got = a[i, jy]
            err = math.hypot(float(Fraction(float(got.real)) - re),
                             float(Fraction(float(got.imag)) - im))
            assert err <= bound, (i, jy, err, bound)


class TestStripMatchesReference:
    # an odd nx puts a column on the contour x = 0, where the singular
    # potential fills its remainder by interpolation
    @pytest.mark.parametrize("seed,nx", [(0, 480), (1, 481), (2, 480), (3, 481)])
    def test_singular_potential(self, seed, nx):
        grid = strip_grid(nx=nx)
        prof, lead, lead_plus, im_beta1 = seeded_pole_case(seed)
        f, fp = synthesize_seeds(prof, lead, lead_plus, grid, 8, im_beta1=im_beta1)
        for constant in (0.0, 0.7j):
            got = omega_singular(f, fp, constant)
            want = reference_omega_singular(f, fp, constant)
            assert_same_bits(got.values, want.values)
            assert got.path_defect == want.path_defect

    @pytest.mark.parametrize("seed,nx", [(0, 480), (1, 481), (2, 480), (3, 481)])
    def test_synthesis_within_round_off(self, seed, nx):
        grid = strip_grid(nx=nx)
        prof, lead, lead_plus, im_beta1 = seeded_pole_case(seed)
        _, model = synthesize_singular_u(prof, grid)
        cases = [(model.smooth_remainder.values, 2j, prof.phi,
                  [prof.r_fn(j) for j in range(2)])]
        f, fp = synthesize_seeds(prof, lead, lead_plus, grid, 8, im_beta1=im_beta1)
        for seed_model in (f, fp):
            series = seed_model.series
            cases.append((seed_model.smooth_remainder.values, 1j, series.phi,
                          [series.beta_fn(j) for j in range(9)]))
        nodes = oracle_nodes(grid, seed)
        for got, kind, phi, fns in cases:
            phase = np.exp(kind * phi.values_on(grid.ys).real)
            table = phase * np.stack([fn.values_on(grid.ys) for fn in fns])
            loop = phase[None, :] * reference_power_sum(grid, fns)
            assert_near_exact_sum((got, loop), grid.xs, table, nodes)
