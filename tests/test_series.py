import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from galab.errors import (GalabError, MeromorphicViolation,
                          NonFiniteCoefficientError, NonRealCoefficientError,
                          NormalizationError)
from galab.grid import diff_axis
from galab.series import (N_CHECK, CoefficientSeries, FunctionOnInterval,
                          PoleProfile, conjugate_profile, pole_order_check,
                          meromorphic_certify, normalize_profile,
                          series_residual, solve_recursion)

from conftest import assert_same_bits

IV = (1.0, 2.0)


def poly(*coeffs):
    return FunctionOnInterval.from_poly(list(coeffs), IV)


def canonical_profile():
    return PoleProfile(poly(0.0), {-1: poly(-0.5)})


def phase_y2_profile():
    # phi = y^2 needs Im r1 = 1
    return PoleProfile(poly(0.0, 0.0, 1.0), {-1: poly(-0.5), 1: poly(1j)})


class TestFunctionOnInterval:
    def test_poly_derivative_exact(self):
        f = poly(1.0, -2.0, 3.0)  # 1 - 2y + 3y^2
        d = f.deriv()
        nodes = f.nodes()
        assert np.allclose(d.values_on(nodes), -2.0 + 6.0 * nodes)

    def test_sampled_derivative_fourth_order(self):
        errs = []
        for n in (51, 101, 201):
            ys = np.linspace(*IV, n)
            f = FunctionOnInterval.from_samples(np.sin(3 * ys), IV)
            errs.append(np.max(np.abs(f.deriv().data - 3 * np.cos(3 * ys))))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.5

    def test_mode_mixing_rejected(self):
        f = poly(1.0)
        g = FunctionOnInterval.from_samples(np.ones(11), IV)
        with pytest.raises(ValueError):
            f + g

    def test_interval_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly(1.0) + FunctionOnInterval.from_poly([1.0], (0.0, 1.0))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            FunctionOnInterval.from_poly(np.ones(18), IV)

    def test_algebra(self):
        f, g = poly(1.0, 1.0), poly(0.0, 2.0)
        nodes = f.nodes()
        prod = (f * g).values_on(nodes)
        assert np.allclose(prod, (1 + nodes) * 2 * nodes)
        assert np.allclose((2.0 * f - f - f).max_abs(), 0.0)
        assert poly(1j).conj().data[0] == -1j


class TestLemma1:
    def test_canonical_passes(self):
        assert pole_order_check(canonical_profile(), 1).ok

    def test_wrong_pole_order(self):
        prof = PoleProfile(poly(0.0), {-2: poly(-0.5)})
        res = pole_order_check(prof, 1)
        assert not res.ok and "n = 2" in res.condition

    def test_wrong_leading_modulus(self):
        prof = PoleProfile(poly(0.0), {-1: poly(-1.0)})
        res = pole_order_check(prof, 1)
        assert not res.ok and "1/2" in res.condition

    def test_invariant_under_normalization(self):
        prof = PoleProfile(poly(0.0), {-1: poly(0.5)})
        assert pole_order_check(prof, 1).ok
        assert pole_order_check(normalize_profile(prof), 1).ok


class TestNormalize:
    def test_flips_phase_and_coefficients(self):
        prof = PoleProfile(poly(0.0), {-1: poly(0.5), 0: poly(1j)})
        out = normalize_profile(prof)
        assert out.r_fn(-1).data[0] == pytest.approx(-0.5)
        assert out.r_fn(0).data[0] == pytest.approx(-1j)
        assert out.phi.data[0] == pytest.approx(np.pi / 2)

    def test_rejects_already_normalized(self):
        with pytest.raises(NormalizationError):
            normalize_profile(canonical_profile())

    def test_represented_coefficient_unchanged(self):
        # direct evaluation oracle at off-grid probe points
        prof = PoleProfile(poly(0.0, 1.0), {-1: poly(0.5), 0: poly(1j)})
        out = normalize_profile(prof)
        ys = np.linspace(*IV, 7)
        for x in (-0.3, 0.17, 0.8):
            u_in = np.exp(2j * ys) * (0.5 / x + 1j)
            u_out = (np.exp(2j * (ys + np.pi / 2))
                     * (-0.5 / x - 1j))
            got = np.exp(2j * out.phi.values_on(ys)) * (
                out.r_fn(-1).values_on(ys) / x + out.r_fn(0).values_on(ys))
            assert np.allclose(got, u_in, atol=1e-12)
            assert np.allclose(u_out, u_in, atol=1e-12)

    def test_large_phase_keeps_coefficients(self):
        # rounding phi + pi/2 at |phi| ~ 1e4 moves u by about |phi| * eps
        prof = PoleProfile(poly(1e4, 1.0), {-1: poly(0.5), 0: poly(1j)})
        out = normalize_profile(prof)
        assert np.array_equal(out.phi.data, [1e4 + np.pi / 2, 1.0])
        assert sorted(out.r) == [-1, 0]
        assert np.array_equal(out.r[-1].data, [-0.5])
        assert np.array_equal(out.r[0].data, [-1j])


class TestCertify:
    def test_canonical_and_phase_profiles_pass(self):
        assert meromorphic_certify(canonical_profile()).ok
        assert meromorphic_certify(phase_y2_profile()).ok

    def test_imaginary_r0_allowed(self):
        prof = PoleProfile(poly(0.0, 0.0, 1.0),
                           {-1: poly(-0.5), 0: poly(0.3j), 1: poly(1j)})
        assert meromorphic_certify(prof).ok

    def test_real_r0_rejected_with_location(self):
        # |Re r0| = 0.1*(y-1)^2 peaks at y = 2
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5),
                                       0: poly(0.1, -0.2, 0.1)})
        res = meromorphic_certify(prof)
        assert not res.ok and res.condition == "Re r0 != 0"
        assert res.worst_y == pytest.approx(2.0, abs=0.005)
        assert res.worst_value == pytest.approx(0.1, rel=1e-6)

    def test_im_r1_mismatch_rejected(self):
        prof = PoleProfile(poly(0.0, 0.0, 1.0),
                           {-1: poly(-0.5), 1: poly(0.5j)})
        res = meromorphic_certify(prof)
        assert not res.ok and res.condition == "Im r1 != phi''/2"

    def test_unnormalized_rejected(self):
        prof = PoleProfile(poly(0.0), {-1: poly(0.5)})
        with pytest.raises(NormalizationError):
            meromorphic_certify(prof)

    def test_sampled_mode(self):
        ys = np.linspace(*IV, 101)
        prof = PoleProfile(
            FunctionOnInterval.from_samples(ys ** 2, IV),
            {-1: FunctionOnInterval.from_samples(np.full(101, -0.5), IV),
             1: FunctionOnInterval.from_samples(np.full(101, 1j), IV)})
        assert meromorphic_certify(prof).ok

    def test_conjugate_profile_inherits_certificate(self):
        for prof in (canonical_profile(), phase_y2_profile()):
            conj = conjugate_profile(prof)
            assert meromorphic_certify(conj).ok
        bad = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(0.1)})
        assert not meromorphic_certify(conjugate_profile(bad)).ok


class TestRecursion:
    def test_canonical_series_is_pure_pole(self):
        series = solve_recursion(canonical_profile(), poly(1.0), poly(0.0), 8)
        for j in range(0, 9):
            assert series.beta_fn(j).max_abs() <= 1e-14
        assert max(series_residual(canonical_profile(), series)) <= 1e-14

    def test_hand_values_for_constant_profile(self):
        # r0 = i*c0 and real constant r1: beta_0 = -2i*c0 and
        # Re beta_1 = r1 - 2*c0^2
        c0, r1 = 0.7, 0.3
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(1j * c0),
                                       1: poly(r1)})
        series = solve_recursion(prof, poly(1.0), poly(0.0), 8)
        assert (series.beta_fn(0) - poly(-2j * c0)).max_abs() < 1e-14
        re_b1 = series.beta_fn(1).sample().real
        assert np.max(np.abs(re_b1 - (r1 - 2 * c0 ** 2))) < 1e-14
        assert max(series_residual(prof, series)) < 1e-13

    def test_free_parameter_is_im_beta1(self):
        prof = canonical_profile()
        series = solve_recursion(prof, poly(1.0), poly(0.25), 6)
        assert np.allclose(series.beta_fn(1).sample().imag, 0.25)
        assert max(series_residual(prof, series)) < 1e-13

    def test_linearity_in_both_parameters(self):
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(1j)})
        s1 = solve_recursion(prof, poly(1.0, 0.5), poly(0.25), 6)
        s2 = solve_recursion(prof, poly(2.0, 1.0), poly(0.5), 6)
        for j in range(-1, 7):
            gap = (s2.beta_fn(j) - 2.0 * s1.beta_fn(j)).max_abs()
            assert gap <= 1e-12

    def test_uncertified_profile_rejected(self):
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(0.1)})
        with pytest.raises(MeromorphicViolation):
            solve_recursion(prof, poly(1.0), poly(0.0), 4)

    def test_complex_beta_minus1_rejected(self):
        with pytest.raises(ValueError):
            solve_recursion(canonical_profile(), poly(1j), poly(0.0), 4)

    @pytest.mark.parametrize("beta_minus1, im_beta1", [(1j, 0.0), (1.0, 2j)])
    def test_complex_parameters_are_library_errors(self, beta_minus1, im_beta1):
        with pytest.raises(NonRealCoefficientError) as info:
            solve_recursion(canonical_profile(), poly(beta_minus1),
                            poly(im_beta1), 4)
        assert isinstance(info.value, GalabError)
        assert isinstance(info.value, ValueError)

    def test_y_dependent_profile(self):
        prof = phase_y2_profile()
        series = solve_recursion(prof, poly(1.0, 0.0, 0.1), poly(0.0), 8)
        assert max(series_residual(prof, series)) < 1e-12

    def test_overflow_is_a_library_error(self):
        # 2 r0 conj(beta_-1) = 2e400 overflows in the order -1 balance
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(1e200j)})
        with pytest.raises(NonFiniteCoefficientError) as info:
            solve_recursion(prof, poly(1e200), poly(0.0), 8)
        assert isinstance(info.value, GalabError)
        assert isinstance(info.value, ValueError)


class TestSeriesResidual:
    def test_zero_series_has_zero_defects(self):
        prof = phase_y2_profile()
        zero = poly(0.0)
        series = CoefficientSeries(prof.phi, {j: (poly(1.0) if j == -1 else zero)
                                              for j in range(-1, 7)}, 1, 6)
        # beta_-1 = 1 forces nonzero defects; the all-zero series needs
        # a nonzero leading entry to be a valid object, so check the
        # homogeneous property through the linear map instead
        defects = series_residual(prof, series)
        assert all(np.isfinite(defects))

    def test_perturbed_beta1_defect_matches_oracle(self):
        # independent expansion oracle: with r0 = i, adding i*eps to
        # beta_1 shifts only the order-1 balance, through the term
        # 2*r0*conj(beta_1), by |2*i*conj(i*eps)| = 2*eps
        prof = PoleProfile(poly(0.0), {-1: poly(-0.5), 0: poly(1j)})
        series = solve_recursion(prof, poly(1.0), poly(0.0), 8)
        base = series_residual(prof, series)
        beta = {j: series.beta_fn(j) for j in range(-1, 9)}
        beta[1] = beta[1] + poly(0.01j)
        perturbed = CoefficientSeries(series.phi, beta, 1, series.order)
        defects = series_residual(prof, perturbed)
        # orders run k = -2, -1, 0, 1, ...; index 3 is k = 1
        assert defects[3] == pytest.approx(0.02, abs=1e-12)
        assert defects[2] == pytest.approx(base[2], abs=1e-12)  # k = 0 immune

    def test_certified_gap_is_reported_as_the_order_zero_defect(self):
        # Im r1 = phi''/2 + 9e-10 is inside POLY_TOL: the recursion solves
        # it, and the gap shows as the order-0 defect 2 * 9e-10 * beta_-1
        prof = PoleProfile(poly(0.0, 0.0, 0.3), {-1: poly(-0.5), 1: poly((0.3 + 9e-10) * 1j)})
        defects = series_residual(prof, solve_recursion(prof, poly(10.0)))
        assert defects[2] == pytest.approx(1.8e-8, rel=1e-6)
        assert max(defects[:2] + defects[3:]) < 1e-14

    def test_gap_beyond_the_certificate_raises(self):
        prof = PoleProfile(poly(0.0, 0.0, 0.3), {-1: poly(-0.5), 1: poly((0.3 + 2e-9) * 1j)})
        with pytest.raises(MeromorphicViolation, match="Im r1"):
            solve_recursion(prof, poly(10.0))

    def test_defect_orders_reported(self):
        prof = canonical_profile()
        series = solve_recursion(prof, poly(1.0), poly(0.0), 5)
        assert len(series_residual(prof, series)) == 2 + 5

    def test_series_json_roundtrip_fields(self):
        series = solve_recursion(canonical_profile(), poly(1.0), poly(0.0), 4)
        data = series.to_json()
        assert data["K"] == 4 and data["mode"] == "poly"
        assert set(data["beta"]) == {str(j) for j in range(-1, 5)}



# --------------------------------------------------------------------------
# Reference: the object-level recursion as written before it moved to raw
# coefficient arrays.  Every operator builds an object and goes through
# numpy's polyadd/polymul/polyder (poly mode) or elementwise numpy
# (samples mode); the raw-array recursion must give the same bits.

class RefFn:
    def __init__(self, mode, data, a=IV[0], b=IV[1]):
        self.mode, self.a, self.b = mode, a, b
        self.data = np.atleast_1d(np.asarray(data, dtype=complex))
        assert np.all(np.isfinite(self.data))

    @classmethod
    def of(cls, fn):
        return cls(fn.mode, fn.data, fn.a, fn.b)

    def _binary(self, other, poly_op, sample_op):
        if np.isscalar(other):
            value = complex(other)
            other = RefFn(self.mode, [value] if self.mode == "poly"
                          else np.full(self.data.size, value, dtype=complex),
                          self.a, self.b)
        op = poly_op if self.mode == "poly" else sample_op
        return RefFn(self.mode, op(self.data, other.data), self.a, self.b)

    def __add__(self, other):
        return self._binary(other, P.polyadd, np.add)

    __radd__ = __add__

    def __mul__(self, other):
        return self._binary(other, P.polymul, np.multiply)

    __rmul__ = __mul__

    def deriv(self):
        if self.mode == "poly":
            out = (np.zeros(1, dtype=complex) if self.data.size == 1
                   else P.polyder(self.data))
        else:
            out = diff_axis(self.data, (self.b - self.a) / (self.data.size - 1),
                            axis=0)
        return RefFn(self.mode, out, self.a, self.b)

    def conj(self):
        return RefFn(self.mode, np.conj(self.data), self.a, self.b)

    def real_part(self):
        return RefFn(self.mode, self.data.real.astype(complex), self.a, self.b)

    def imag_part(self):
        return RefFn(self.mode, self.data.imag.astype(complex), self.a, self.b)


def reference_recursion(profile, beta_minus1, im_beta1, order):
    r = lambda j: RefFn.of(profile.r_fn(j))
    phi_p = RefFn.of(profile.phi).deriv()
    beta = {-1: RefFn.of(beta_minus1)}
    rhs = (-1j) * beta[-1].deriv() + phi_p * beta[-1] \
        + 2.0 * r(0) * beta[-1].conj()
    beta[0] = rhs.conj()

    def rhs_k(k):
        acc = (-1j) * beta[k].deriv() + phi_p * beta[k] \
            + 2.0 * r(k + 1) * beta[-1].conj()
        for l in range(0, k + 1):
            acc = acc + 2.0 * r(l) * beta[k - l].conj()
        return acc

    beta[1] = 0.5 * rhs_k(0).real_part() + 1j * RefFn.of(im_beta1).real_part()
    for k in range(1, order):
        rk = rhs_k(k)
        beta[k + 1] = (1.0 / (k + 2)) * rk.real_part() + (1j / k) * rk.imag_part()
    return {j: fn.data for j, fn in beta.items()}


def seeded_poly_case(seed):
    """Certified profile with cubic phi, r-1 = -1/2, imaginary r0,
    Im r1 = phi''/2 and a positive quadratic beta_-1, in float coefficients."""
    rng = random.Random(seed)
    u = lambda s: rng.uniform(-s, s)
    phi = [u(0.3) for _ in range(4)]
    r1 = [complex(u(0.3), phi[2]), complex(u(0.3), 3.0 * phi[3])]
    prof = PoleProfile(poly(*phi), {-1: poly(-0.5), 0: poly(1j * u(0.3), 1j * u(0.3)),
                                    1: poly(*r1)})
    return prof, poly(rng.uniform(1.0, 2.0), u(0.25), u(0.2)), poly(u(0.3), u(0.3))


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
NODES = np.linspace(*IV, 21)


def sparse_case(draw):
    """A certified profile, its mode and an order, drawn, whose r0..r3 are
    each absent, an exact zero (of either sign, trailing zeros in poly
    mode), or drawn.  A ``signed`` profile is full of signed zeros: phi is
    zero, beta_-1 real and r0 purely imaginary."""
    mode = draw(st.sampled_from(["poly", "samples"]))
    signed = draw(st.booleans())
    real = SIGNED_ZEROS | st.floats(-0.5, 0.5)

    def values(elements, n=2):
        """n coefficients, or their samples; zeros are drawn node by node."""
        if mode == "samples" and elements is SIGNED_ZEROS:
            n = NODES.size
        c = np.array(draw(st.lists(elements, min_size=n, max_size=n)))
        return P.polyval(NODES, c) if mode == "samples" and n < NODES.size else c

    def fn(re, im):
        data = np.empty(re.shape, complex)
        data.real, data.imag = re, im
        return FunctionOnInterval(*IV, mode, data)

    kinds = {j: draw(st.sampled_from(["absent", "zero", "drawn"])) for j in range(4)}
    curved = kinds[1] == "drawn" and not signed
    phi = values(SIGNED_ZEROS, 1) if signed else values(real, 3 if curved else 2)
    phi = fn(phi, 0.0 * phi)
    r = {-1: fn(values(st.just(-0.5), 1), values(st.just(0.0), 1))}
    for j, kind in kinds.items():
        n = draw(st.integers(1, 3))
        if kind == "zero":
            r[j] = fn(values(SIGNED_ZEROS, n), values(SIGNED_ZEROS, n))
        elif kind == "drawn" and j == 0:  # Re r0 = 0
            r[0] = fn(values(SIGNED_ZEROS, n), values(real, n))
        elif kind == "drawn" and j == 1:  # Im r1 = phi''/2
            im = 0.5 * phi.deriv().deriv().data.real
            r[1] = fn(values(real, im.size) if mode == "poly" else values(real), im)
        elif kind == "drawn":
            r[j] = fn(values(real, n), values(real, n))
    lead = np.array([draw(st.floats(1.0, 2.0)), draw(st.floats(-0.4, 0.4))])
    lead = P.polyval(NODES, lead) if mode == "samples" else lead
    beta_minus1 = fn(lead, values(SIGNED_ZEROS, 2) if signed else 0.0 * lead)
    im_beta1 = fn(values(real), values(SIGNED_ZEROS, 2))
    return PoleProfile(phi, r), beta_minus1, im_beta1, draw(st.integers(0, 10))


class TestRecursionMatchesReference:
    def check(self, prof, beta_minus1, im_beta1, order):
        series = solve_recursion(prof, beta_minus1, im_beta1, order)
        ref = reference_recursion(prof, beta_minus1, im_beta1, order)
        assert sorted(series.beta) == sorted(ref)
        for j, data in ref.items():
            assert_same_bits(series.beta_fn(j).data, data)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_poly_profiles(self, seed):
        prof, beta_minus1, im_beta1 = seeded_poly_case(seed)
        self.check(prof, beta_minus1, im_beta1, 10)
        self.check(conjugate_profile(prof), beta_minus1, im_beta1, 10)

    def test_trailing_zeros_and_zero_series(self):
        # operands with trailing exact zeros, and the pure pole whose
        # higher coefficients are all (signed) zeros
        prof = PoleProfile(poly(0.0, 0.0, 0.5, 0.0),
                           {-1: poly(-0.5, 0.0), 0: poly(0.0, 0.2j, 0.0),
                            1: poly(0.1 + 0.5j, 0.0, 0.0)})
        self.check(prof, poly(1.0, 0.0, 0.0), poly(0.0, 0.0), 8)
        self.check(canonical_profile(), poly(1.0), poly(0.0), 8)
        self.check(conjugate_profile(canonical_profile()), poly(2.0), poly(0.0), 3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=st.data())
    def test_sparse_sums_match_the_dense_reference(self, case):
        self.check(*sparse_case(case.draw))

    def test_absent_coefficients_skip_their_products(self, monkeypatch):
        # an r-1-only order-8 solve forms 34 products; with r0..r8 held as
        # zero polynomials it forms all 88, and gives the same bits
        calls, convolve = [], np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        sparse = solve_recursion(canonical_profile(), poly(1.0), poly(0.0), 8)
        assert len(calls) == 34
        padded = PoleProfile(poly(0.0), {-1: poly(-0.5), **{j: poly(0.0) for j in range(9)}})
        dense = solve_recursion(padded, poly(1.0), poly(0.0), 8)
        assert len(calls) == 34 + 88
        for j in range(-1, 9):
            assert_same_bits(sparse.beta_fn(j).data, dense.beta_fn(j).data)

    def test_samples_profile(self):
        ys = np.linspace(*IV, 81)
        S = lambda v: FunctionOnInterval.from_samples(v, IV)
        phi = 0.1 - 0.2 * ys + 0.15 * ys ** 2 - 0.05 * ys ** 3
        pp = 0.3 - 0.3 * ys
        prof = PoleProfile(S(phi), {-1: S(np.full(81, -0.5)),
                                    0: S(1j * (0.2 - 0.1 * ys)),
                                    1: S(0.05 * ys + 0.5j * pp)})
        self.check(prof, S(1.5 + 0.2 * ys), S(0.1 * ys), 8)
        self.check(conjugate_profile(prof), S(1.2 - 0.1 * ys ** 2), S(0.0 * ys), 8)


# --------------------------------------------------------------------------
# Exact oracle.  sympy expands e^{-i phi} (2 dbar psi - 2 u conj(psi)) for
# psi = e^{i phi} sum_j beta_j x^j and u = e^{2i phi} sum_j r_j x^j with
# generic functions of y, once; the x^k coefficient is then evaluated in
# exact Gaussian-rational polynomials of y and solved for
# beta_{k+1} = A + iB, which it holds linearly through beta_{k+1} and
# conj(beta_{k+1}).

ORACLE_ORDER = 8


@pytest.fixture(scope="module")
def oracle():
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y", real=True)
    phi = sp.Function("phi", real=True)(y)
    b = {j: sp.Function(f"beta{j}")(y) for j in range(-1, ORACLE_ORDER + 1)}
    r = {j: sp.Function(f"r{j}")(y) for j in (-1, 0, 1)}
    psi = sp.exp(sp.I * phi) * sum(fn * x ** j for j, fn in b.items())
    u = sp.exp(2 * sp.I * phi) * sum(fn * x ** j for j, fn in r.items())
    defect = sp.expand(sp.exp(-sp.I * phi) * (
        sp.diff(psi, x) + sp.I * sp.diff(psi, y) - 2 * u * sp.conjugate(psi)))
    coeff = {k: defect.coeff(x, k) for k in range(-2, ORACLE_ORDER)}
    return sp, y, phi, b, r, coeff


def _exact_case(sp, y, seed):
    """Dyadic rationals, so the float profile is the exact one."""
    rng = random.Random(seed)
    q = lambda: sp.Rational(rng.randint(-4, 4), 16)
    phi = sum(q() * y ** i for i in range(4))
    r = {-1: sp.Rational(-1, 2), 0: sp.I * (q() + q() * y),
         1: q() + q() * y + sp.I * sp.diff(phi, y, 2) / 2}
    beta_minus1 = 1 + sp.Rational(rng.randint(0, 16), 16) + (q() * y + q() * y ** 2) / 2
    return phi, r, beta_minus1, q() + q() * y


class _Exact:
    """Polynomials in y over the Gaussian rationals, and the evaluation
    of an expression in generic functions of y on them."""

    def __init__(self, sp, y):
        self.sp, self.y = sp, y

    def poly(self, expr):
        return self.sp.Poly(expr, self.y, domain=self.sp.QQ_I)

    def map_coeffs(self, p, fn):
        return self.sp.Poly.from_list([fn(c) for c in p.all_coeffs()], self.y,
                                      domain=self.sp.QQ_I)

    def evaluate(self, expr, atoms):
        sp = self.sp
        if expr in atoms:
            return atoms[expr]
        if expr.is_Add:
            return sum((self.evaluate(a, atoms) for a in expr.args), self.poly(0))
        if expr.is_Mul:
            out = self.poly(1)
            for a in expr.args:
                out = out * self.evaluate(a, atoms)
            return out
        if isinstance(expr, sp.conjugate):
            return self.map_coeffs(self.evaluate(expr.args[0], atoms), sp.conjugate)
        if isinstance(expr, sp.Derivative):
            return self.evaluate(expr.args[0], atoms).diff(self.y)
        return self.poly(expr)

    def to_array(self, p):
        return np.array([complex(c) for c in reversed(p.all_coeffs())])

    def on_nodes(self, p):
        return P.polyval(np.linspace(*IV, N_CHECK), self.to_array(p))


def _exact_series(oracle, exact, phi, r, beta_minus1, im_beta1):
    sp, y, phi_fn, b, r_fn, coeff = oracle
    atoms = {phi_fn: exact.poly(phi), **{b[j]: exact.poly(0) for j in b}}
    atoms.update({r_fn[j]: exact.poly(v) for j, v in r.items()})
    atoms[b[-1]] = exact.poly(beta_minus1)
    for k in range(-1, ORACLE_ORDER):
        unknown = b[k + 1]
        eq = coeff[k]
        alpha = exact.evaluate(eq.coeff(unknown), atoms).as_expr()
        gamma = exact.evaluate(eq.coeff(sp.conjugate(unknown)), atoms).as_expr()
        assert alpha.is_real and gamma.is_real  # (k + 1) and -2 r_-1 = 1
        rest = -exact.evaluate(eq.subs(unknown, 0), atoms)
        re_rest = exact.map_coeffs(rest, sp.re)
        im_rest = exact.map_coeffs(rest, sp.im)
        # alpha (A + iB) + gamma (A - iB) = rest
        a = re_rest * (1 / (alpha + gamma))
        if alpha == gamma:  # order 0: Im rest = 0 for a certified profile
            assert im_rest.is_zero
            b_im = exact.poly(im_beta1)
        else:
            b_im = im_rest * (1 / (alpha - gamma))
        atoms[unknown] = a + exact.poly(sp.I) * b_im
    return atoms


def _fn(exact, p):
    return FunctionOnInterval(IV[0], IV[1], "poly", exact.to_array(p))


class TestExactOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_recursion_and_residual_match_sympy(self, oracle, seed):
        sp, y, phi_fn, b, r_fn, coeff = oracle
        exact = _Exact(sp, y)
        phi, r, beta_minus1, im_beta1 = _exact_case(sp, y, seed)
        atoms = _exact_series(oracle, exact, phi, r, beta_minus1, im_beta1)
        prof = PoleProfile(_fn(exact, exact.poly(phi)),
                           {j: _fn(exact, exact.poly(v)) for j, v in r.items()})
        series = solve_recursion(prof, _fn(exact, exact.poly(beta_minus1)),
                                 _fn(exact, exact.poly(im_beta1)), ORACLE_ORDER)
        for j in range(0, ORACLE_ORDER + 1):
            want = exact.to_array(atoms[b[j]])
            got = series.beta_fn(j).data
            size = max(want.size, got.size)
            want, got = (np.pad(v, (0, size - v.size)) for v in (want, got))
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))

        # series_residual against the exact defects of a perturbed series
        bump = {2: exact.poly(sp.I * (1 + y) / 8), 5: exact.poly(y ** 2 / 16)}
        for j, p in bump.items():
            atoms[b[j]] = atoms[b[j]] + p
        perturbed = CoefficientSeries(
            prof.phi, {j: _fn(exact, atoms[b[j]]) for j in b}, 1, ORACLE_ORDER)
        want = [float(np.max(np.abs(exact.on_nodes(exact.evaluate(coeff[k], atoms)))))
                for k in range(-2, ORACLE_ORDER)]
        got = series_residual(prof, perturbed)
        assert max(want) > 0.01
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(want))
