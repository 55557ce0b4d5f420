"""Formal Laurent analysis of a simple pole along the contour x = 0.

A singular coefficient near the contour is written as
``u = exp(2i*phi(y)) * sum_j r_j(y) x^j`` and candidate solutions as
``psi = exp(i*phi(y)) * sum_j beta_j(y) x^j``.  This module checks the
order constraints a simple pole must satisfy, certifies the local
solvability conditions (Re r_0 = 0 and Im r_1 = phi''/2), and solves
the order-by-order recursion for the beta coefficients, which is
parametrized by the real pair (beta_{-1}, Im beta_1).

Coefficient functions of y come in two interchangeable representations:
exact polynomials (identities hold to machine precision) and uniform
samples (y-derivatives via 4th-order stencils, wider tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Mapping

import numpy as np

from .errors import (MeromorphicViolation, NonFiniteCoefficientError, NonRealCoefficientError,
                     NormalizationError, ShapeError, SingularModelError)
from .grid import diff_axis

#: default certification tolerances per representation
POLY_TOL = 1e-9
SAMPLED_TOL = 1e-6

#: largest imaginary part of a function that must be real
REAL_TOL = 1e-12

#: default truncation order of a solution series
DEFAULT_ORDER = 8

#: y-nodes used to evaluate polynomial-mode conditions
N_CHECK = 201

#: tolerance on the leading coefficient r_-1 in the order check and
#: in normalization
LEAD_TOL = 1e-10

_MAX_DEGREE = 16


# Coefficient arithmetic on raw data arrays, one primitive per operation.
# Poly mode reproduces numpy's polyadd, polymul and polyder bit for bit:
# trailing exact zeros are trimmed from operands and results (one entry
# always stays), and every product, scalar factors included, goes through
# np.convolve.  Samples mode works elementwise.  trimseq and polyval are
# numpy.polynomial's (numpy 2.4.6) without its wrappers, in the same
# floating-point steps; polyval casts x to complex once, where numpy
# casts a real x in each product.  _deriv forms polyder's products
# j * c[j] as one array product.

def trimseq(seq: np.ndarray) -> np.ndarray:
    """``seq`` without its trailing exact zeros; one entry always stays."""
    n = len(seq)
    while n > 1 and seq[n - 1] == 0:
        n -= 1
    return seq if n == len(seq) else seq[:n]


def polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Horner's rule for the columns of ``c`` at ``x``, cast to complex once."""
    x, c = np.asarray(x, dtype=complex), c.reshape(c.shape + (1,) * np.ndim(x))
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = np.add(c[-i], np.multiply(c0, x, out=c0), out=c0)
    return c0


def _add(mode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if mode == "samples":
        return a + b
    a, b = trimseq(a), trimseq(b)
    if a.size > b.size:
        a, b = b, a
    out = b.copy()
    out[:a.size] += a
    return trimseq(out)


def _mul(mode: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if mode == "samples":
        return a * b
    return trimseq(np.convolve(trimseq(a), trimseq(b)))


def _deriv(mode: str, data: np.ndarray, a: float, b: float) -> np.ndarray:
    if mode == "samples":
        return diff_axis(data, (b - a) / (data.size - 1), axis=0)
    if data.size == 1:
        return np.zeros(1, dtype=complex)  # a constant's derivative is [0j]
    return np.arange(1, data.size) * data[1:]


def _const(mode: str, value: complex, size: int) -> np.ndarray:
    if mode == "poly":
        return np.array([value], dtype=complex)
    return np.full(size, value, dtype=complex)


def _check_finite(data: np.ndarray, what: str = "coefficient data") -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteCoefficientError(f"non-finite {what}")
    return data


@dataclass(frozen=True)
class FunctionOnInterval:
    """Function of y on [a, b]: exact polynomial or uniform samples."""

    a: float
    b: float
    mode: str  # "poly" | "samples"
    data: np.ndarray

    def __post_init__(self):
        if self.mode not in ("poly", "samples"):
            raise ValueError(f"unknown mode {self.mode!r}")
        data = np.atleast_1d(np.asarray(self.data, dtype=complex))
        object.__setattr__(self, "data", _check_finite(data))
        if self.mode == "samples" and data.size < 5:
            raise ValueError("sampled mode needs at least 5 y-nodes")

    @classmethod
    def from_poly(cls, coeffs, interval: tuple[float, float]) -> "FunctionOnInterval":
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if not 1 <= coeffs.size <= _MAX_DEGREE + 1:  # an empty one has no value
            raise ValueError(f"a polynomial has degree 0 to {_MAX_DEGREE}")
        return cls(interval[0], interval[1], "poly", coeffs)

    @classmethod
    def from_samples(cls, values, interval: tuple[float, float]) -> "FunctionOnInterval":
        return cls(interval[0], interval[1], "samples", np.asarray(values))

    @classmethod
    def constant(cls, value: complex, like: "FunctionOnInterval") -> "FunctionOnInterval":
        return cls(like.a, like.b, like.mode,
                   _const(like.mode, value, like.data.size))

    @property
    def interval(self) -> tuple[float, float]:
        return (self.a, self.b)

    def nodes(self) -> np.ndarray:
        if self.mode == "samples":
            return np.linspace(self.a, self.b, self.data.size)
        return np.linspace(self.a, self.b, N_CHECK)

    def values_on(self, ys: np.ndarray) -> np.ndarray:
        """Evaluate at the given y values.

        Sampled functions are only defined on their own uniform nodes,
        so ``ys`` must coincide with them.
        """
        ys = np.asarray(ys, dtype=float)
        if self.mode == "poly":
            return polyval(ys, self.data)
        own = self.nodes()
        if ys.shape != own.shape or not np.allclose(ys, own, atol=1e-12, rtol=0):
            raise ShapeError("sampled function evaluated off its own nodes")
        return self.data.copy()

    def sample(self) -> np.ndarray:
        return self.values_on(self.nodes())

    def deriv(self) -> "FunctionOnInterval":
        return FunctionOnInterval(self.a, self.b, self.mode,
                                  _deriv(self.mode, self.data, self.a, self.b))

    def _check_compatible(self, other: "FunctionOnInterval"):
        if self.mode != other.mode:
            raise ValueError("cannot mix polynomial and sampled functions")
        if (self.a, self.b) != (other.a, other.b):
            raise ValueError("functions live on different intervals")
        if self.mode == "samples" and self.data.size != other.data.size:
            raise ValueError("sampled functions use different node counts")

    def _binary(self, other, op):
        if np.isscalar(other):
            other = FunctionOnInterval.constant(complex(other), self)
        self._check_compatible(other)
        return FunctionOnInterval(self.a, self.b, self.mode,
                                  op(self.mode, self.data, other.data))

    def __add__(self, other):
        return self._binary(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        # x - y is x + (-y) exactly, signed zeros included
        return self._binary(other, lambda mode, a, b: _add(mode, a, -b))

    def __mul__(self, other):
        return self._binary(other, _mul)

    __rmul__ = __mul__

    def __neg__(self):
        return FunctionOnInterval(self.a, self.b, self.mode, -self.data)

    def conj(self) -> "FunctionOnInterval":
        # y is real, so conjugation acts on the data directly
        return FunctionOnInterval(self.a, self.b, self.mode, np.conj(self.data))

    def real_part(self) -> "FunctionOnInterval":
        return FunctionOnInterval(self.a, self.b, self.mode,
                                  self.data.real.astype(complex))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.sample())))

    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.sample().imag)) <= REAL_TOL)

    def to_json(self):
        return {"mode": self.mode, "interval": [self.a, self.b],
                "data": [[float(v.real), float(v.imag)] for v in self.data]}


@dataclass(frozen=True)
class PoleProfile:
    """Singular coefficient data: phase phi and Laurent coefficients r_j.

    Coefficients not listed in ``r`` are zero; the lowest listed index
    is the pole order ``n``, negated.
    """

    phi: FunctionOnInterval
    r: Mapping[int, FunctionOnInterval]

    def __post_init__(self):
        if min(self.r, default=0) >= 0:
            raise ValueError("profile must supply a negative-order coefficient")
        if not self.phi.is_real():
            raise ValueError("phase must be real-valued")
        if not self.r[-self.n].is_real():
            raise ValueError("the leading coefficient must be real-valued")
        for fn in self.r.values():
            self.phi._check_compatible(fn)
        object.__setattr__(self, "r", dict(self.r))

    @property
    def n(self) -> int:
        return -min(self.r)

    @property
    def mode(self) -> str:
        return self.phi.mode

    def r_fn(self, j: int) -> FunctionOnInterval:
        return self.r[j] if j in self.r else FunctionOnInterval.constant(0.0, self.phi)

    def max_order(self) -> int:
        return max(self.r)

    def tolerance(self) -> float:
        return POLY_TOL if self.mode == "poly" else SAMPLED_TOL

    @cached_property
    def certificate(self) -> "CheckResult":
        """``meromorphic_certify``'s result, computed once per profile."""
        return meromorphic_certify(self)


@dataclass(frozen=True)
class CoefficientSeries:
    """Truncated solution series: psi = e^{i phi} sum_j beta_j x^j."""

    phi: FunctionOnInterval
    beta: Mapping[int, FunctionOnInterval]
    n_prime: int
    order: int

    def __post_init__(self):
        lead = self.beta[-self.n_prime].sample()
        nonzero = np.count_nonzero(np.abs(lead) > 0.0)
        if nonzero < 0.99 * lead.size:
            raise SingularModelError("leading series coefficient vanishes on the interval")
        object.__setattr__(self, "beta", dict(self.beta))

    def beta_fn(self, j: int) -> FunctionOnInterval:
        return self.beta[j] if j in self.beta else FunctionOnInterval.constant(0.0, self.phi)

    def to_json(self):
        return {
            "phi": self.phi.to_json(),
            "beta": {str(j): fn.to_json() for j, fn in sorted(self.beta.items())},
            "K": self.order,
            "mode": self.phi.mode,
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a profile check; carries the worst offending node."""

    ok: bool
    condition: str = ""
    worst_y: float | None = None
    worst_value: float | None = None

    def to_json(self):
        out = {"ok": self.ok, "condition": self.condition}
        if self.worst_y is not None:
            out["worst_y"] = float(self.worst_y)
            out["worst_value"] = float(self.worst_value)
        return out


def _worst(fn_values: np.ndarray, nodes: np.ndarray) -> tuple[float, float]:
    k = int(np.argmax(np.abs(fn_values)))
    return float(nodes[k]), float(np.abs(fn_values[k]))


def _lead_check(profile: PoleProfile, target: float, condition: str,
                modulus: bool = False) -> CheckResult:
    """Whether the pole is simple and r_-1 (|r_-1| with ``modulus``) is
    ``target`` within LEAD_TOL; a failed value check is named ``condition``."""
    if profile.n != 1:
        return CheckResult(False, f"pole order n = {profile.n}, expected 1")
    lead = profile.r[-1]
    nodes = lead.nodes()
    values = lead.values_on(nodes)
    dev = np.abs((np.abs(values) if modulus else values) - target)
    if np.max(dev) > LEAD_TOL:
        return CheckResult(False, condition, *_worst(dev, nodes))
    return CheckResult(True)


def pole_order_check(profile: PoleProfile, n_prime: int) -> CheckResult:
    """Order constraints for a series solution with a pole of order n'.

    Existence of any such solution forces the coefficient pole to be
    simple and its leading modulus to equal n'/2 identically.
    """
    return _lead_check(profile, n_prime / 2.0, f"|r_-1| != {n_prime}/2", modulus=True)


def normalize_profile(profile: PoleProfile) -> PoleProfile:
    """Flip a +1/2 leading coefficient to -1/2 by a phase shift.

    Adds pi/2 to the phase and negates every r_j, which leaves the
    represented coefficient u unchanged.  Profiles whose leading
    coefficient is not +1/2 are rejected.
    """
    lead = _lead_check(profile, 0.5, "leading coefficient is not identically +1/2")
    if not lead.ok:
        raise NormalizationError(lead.condition)
    phi = profile.phi + (math.pi / 2)
    r = {j: -fn for j, fn in profile.r.items()}
    return PoleProfile(phi, r)


def meromorphic_certify(profile: PoleProfile) -> CheckResult:
    """Local solvability conditions for the normalized simple pole.

    Passes iff Re r_0 vanishes identically and Im r_1 equals half the
    second derivative of the phase.  Requires a normalized profile
    (n = 1, r_-1 = -1/2).
    """
    lead = _lead_check(profile, -0.5, "profile is not normalized to r_-1 = -1/2")
    if not lead.ok:
        raise NormalizationError(lead.condition)
    tol = profile.tolerance()
    nodes = profile.phi.nodes()
    re_r0 = profile.r_fn(0).values_on(nodes).real
    if np.max(np.abs(re_r0)) > tol:
        y, value = _worst(re_r0, nodes)
        return CheckResult(False, "Re r0 != 0", y, value)
    phi_pp = profile.phi.deriv().deriv().values_on(nodes).real
    gap = profile.r_fn(1).values_on(nodes).imag - 0.5 * phi_pp
    if np.max(np.abs(gap)) > tol:
        y, value = _worst(gap, nodes)
        return CheckResult(False, "Im r1 != phi''/2", y, value)
    return CheckResult(True)


def _require_certified(profile: PoleProfile) -> None:
    """Raise MeromorphicViolation unless the profile's certificate passes."""
    cert = profile.certificate
    if not cert.ok:
        raise MeromorphicViolation(
            f"profile fails certification: {cert.condition} "
            f"(worst |value| {cert.worst_value:.3e} at y = {cert.worst_y})")


def _check_seed(phi: FunctionOnInterval, fn: FunctionOnInterval, name: str) -> None:
    """A seed function lives on phi's interval and nodes, and is real."""
    phi._check_compatible(fn)
    if not fn.is_real():
        raise NonRealCoefficientError(f"{name} must be real-valued")


def conjugate_profile(profile: PoleProfile) -> PoleProfile:
    """Profile of the conjugate equation's coefficient.

    The conjugate coefficient -conj(u) has phase -(phi + pi/2) and
    coefficients conj(r_j); certifying one profile certifies the other.
    A certificate the profile holds is handed over: in poly mode it is
    the conjugate's own, bit for bit (Re r0 is the same and the Im r1 -
    phi''/2 gaps are exact negatives); in samples mode the conjugate's
    stencil phi'' would also carry the rounding of the pi/2 shift.
    """
    phi = -(profile.phi + (math.pi / 2))
    r = {j: fn.conj() for j, fn in profile.r.items()}
    conj = PoleProfile(phi, r)
    if "certificate" in profile.__dict__:
        conj.__dict__["certificate"] = profile.certificate
    return conj


def solve_recursion(profile: PoleProfile, beta_minus1: FunctionOnInterval,
                    im_beta1: FunctionOnInterval | None = None,
                    order: int = DEFAULT_ORDER) -> CoefficientSeries:
    """Solve the coefficient recursion up to the given truncation order.

    Parameters
    ----------
    profile : PoleProfile
        Normalized, certified profile (checked; violations raise
        MeromorphicViolation).
    beta_minus1 : FunctionOnInterval
        Real leading coefficient of the solution series.
    im_beta1 : FunctionOnInterval, optional
        Real free parameter: the imaginary part of beta_1, 0 by default.
        Together with beta_minus1 it parametrizes all series solutions.
    order : int
        Highest beta index produced.

    The order -1 equation determines beta_0, the real part of the
    order 0 equation determines Re beta_1 (its imaginary part vanishes
    for a certified profile; ``series_residual`` reports what is left
    as the order-0 defect), and each higher equation splits into real
    and imaginary parts that determine the next coefficient.
    """
    _require_certified(profile)
    phi = profile.phi
    if im_beta1 is None:
        im_beta1 = FunctionOnInterval.constant(0.0, phi)
    _check_seed(phi, beta_minus1, "beta_minus1")
    _check_seed(phi, im_beta1, "im_beta1")

    # one pass over raw coefficient arrays; each beta_j is wrapped in a
    # FunctionOnInterval, which checks it is finite, once, when produced
    mode, a, b, size = phi.mode, phi.a, phi.b, phi.data.size
    add, mul = partial(_add, mode), partial(_mul, mode)

    def scale(x, value):
        return mul(x, _const(mode, value, size))

    phi_p = _deriv(mode, phi.data, a, b)
    # 2 r_j for the j >= 0 the profile holds: np.convolve sums from +0.0, so
    # no poly-mode term or sum holds a -0.0 that a missing r_j's [0j] would
    # flip.  Samples mode keeps zeros, as products of zeros carry signs.
    two_r = {j: scale(profile.r_fn(j).data, 2.0) for j in range(max(order, 1) + 1)
             if mode == "samples" or j in profile.r}
    series = {-1: beta_minus1}
    beta = [beta_minus1.data]  # beta[j + 1] holds beta_j
    conj = [np.conj(beta[0])]

    def rhs(k: int) -> np.ndarray:
        """Order-k balance without its conj(beta_{k+1}) term, summed
        left to right over the r_l the profile holds."""
        bk = beta[k + 1]
        terms = [scale(_deriv(mode, bk, a, b), -1j), mul(phi_p, bk)]
        terms += [mul(two_r[l], conj[k - l + 1]) for l in (k + 1, *range(k + 1))
                  if l in two_r]
        return _check_finite(reduce(add, terms), f"order {k} balance")

    def produce(data: np.ndarray) -> None:
        series[len(beta) - 1] = FunctionOnInterval(a, b, mode, data)
        beta.append(data)
        conj.append(np.conj(data))

    produce(np.conj(rhs(-1)))  # the order -1 balance gives conj(beta_0)
    r0 = rhs(0)
    produce(add(scale(r0.real.astype(complex), 0.5),
                scale(im_beta1.data.real.astype(complex), 1j)))

    for k in range(1, order):
        rk = rhs(k)
        produce(add(scale(rk.real.astype(complex), 1.0 / (k + 2)),
                    scale(rk.imag.astype(complex), 1j / k)))

    return CoefficientSeries(phi, series, 1, order)


def series_residual(profile: PoleProfile, series: CoefficientSeries) -> list[float]:
    """Per-order sup-norms of the equation defect of a series.

    Re-expands 2*d/dzbar(psi) - 2*u*conj(psi) in powers of x by direct
    coefficient convolution (independent of the recursion that produced
    the series) and returns the sup-norm of each coefficient from order
    -2 up to the series' order minus one.
    """
    phi_p = profile.phi.deriv()
    k_max = series.order

    def beta(j: int) -> FunctionOnInterval:
        if -1 <= j <= k_max:
            return series.beta_fn(j)
        return FunctionOnInterval.constant(0.0, series.phi)

    defects = []
    r_top = profile.max_order()
    for k in range(-2, k_max):
        # 2*dbar(psi): x-derivative shifts orders down, y-derivative keeps them
        lhs = (k + 1) * beta(k + 1) + (1j) * beta(k).deriv() \
            + (-1.0) * phi_p * beta(k)
        # 2*u*conj(psi): Cauchy product of r and conj(beta)
        rhs = FunctionOnInterval.constant(0.0, series.phi)
        for l in range(-profile.n, min(r_top, k + 1) + 1):
            m = k - l
            if -1 <= m <= k_max:
                rhs = rhs + 2.0 * profile.r_fn(l) * beta(m).conj()
        defects.append(float((lhs - rhs).max_abs()))
    return defects
