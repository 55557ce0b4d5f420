"""Quadrature-generated transforms of the generalized analytic equations.

A set of N fixed seed solutions (f_j, f_j+) together with the matrix of
their pair potentials generates a transform taking the coefficient u
and any solution pair (psi, psi+) to a new coefficient and new
solutions of the transformed equations.  The N = 1 case is called
simple; two simple transforms compose into the rank-2 transform, and a
simple transform is inverted by another simple transform built from
rescaled seeds.

All potentials are passed in explicitly so integration constants stay
under caller control; nothing is re-integrated behind the caller's
back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import SeedResidualError, ShapeError, SingularOmegaError, ZeroPotentialError
from .grid import Field, _row_blocks, _scrub, residual
from .potential import Potential

#: relative floor (times the potential scale) below which a potential
#: or seed-matrix determinant counts as vanishing
DET_TOL_FACTOR = 1e-8

#: largest equation residual of a seed admitted to a seed set
SEED_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class TransformResult:
    """Transformed coefficient plus the solution maps.

    ``map_psi(psi, omegas)`` expects the potentials pairing psi with
    each conjugate seed (one per seed, in seed order); likewise
    ``map_psi_plus(psi_plus, omegas)`` expects the potentials pairing
    each direct seed with psi_plus.
    """

    u_tilde: Field
    map_psi: Callable
    map_psi_plus: Callable
    n_seeds: int
    det_min: float


@dataclass(frozen=True)
class SeedSet:
    """N seed pairs with their potential matrix.

    ``omega[j][k]`` must hold the potential pairing the k-th direct
    seed with the j-th conjugate seed.  Construction checks that the
    matrix is invertible at every active node and keeps its smallest
    |det| as ``det_min``.
    """

    u: Field
    seeds: Sequence[tuple[Field, Field]]
    omega: Sequence[Sequence[Potential]]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    det_min: float = field(init=False)

    @classmethod
    def build(cls, u: Field, seeds, omega) -> "SeedSet":
        """Validate the seeds' residuals before constructing."""
        for j, (f, fp) in enumerate(seeds):
            r_direct = residual(u, f, "direct")
            r_conj = residual(u, fp, "conjugate")
            if max(r_direct, r_conj) > SEED_RESIDUAL_TOL:
                raise SeedResidualError(
                    f"seed {j} violates the equations: direct {r_direct:.3e}, "
                    f"conjugate {r_conj:.3e} (tol {SEED_RESIDUAL_TOL:.1e})")
        return cls(u, tuple(seeds), tuple(tuple(row) for row in omega))

    def __post_init__(self):
        n = len(self.seeds)
        if len(self.omega) != n or any(len(row) != n for row in self.omega):
            raise ShapeError("omega matrix must be N x N")
        object.__setattr__(self, "matrix", self.omega_array())
        object.__setattr__(self, "det_min", _det_nodes(self.matrix, self.u.grid))

    def omega_array(self) -> np.ndarray:
        """Potential matrix as an (nx, ny, N, N) array, for N = 1 its im;
        construction builds it once as ``matrix``."""
        if len(self.omega) == 1:
            return self.omega[0][0].im
        rows = [[p.values for p in row] for row in self.omega]
        return np.transpose(np.array(rows), (2, 3, 0, 1))


def _det(om: np.ndarray) -> np.ndarray:
    """Node-wise determinant for N >= 2; a closed form for N = 2."""
    if om.shape[-1] == 2:
        return om[..., 0, 0] * om[..., 1, 1] - om[..., 0, 1] * om[..., 1, 0]
    return np.linalg.det(om)


def _det_nodes(om: np.ndarray, grid, tol: float | None = None) -> float:
    """Smallest |det| of the potential matrix over active nodes.

    For N = 1, ``om`` is the potential's im, and a block's |det| is its
    |im|.  Each active row block gives its largest |entry| and its
    smallest |det| with the first node holding it, so ties and NaNs go
    to the first node in row order.  Raises where |det| drops to
    ``tol``, by default DET_TOL_FACTOR times the N-th power of the
    largest active |entry|: a vanishing seed potential (N = 1) raises
    ZeroPotentialError, a singular matrix (N >= 2) SingularOmegaError.
    """
    n = 1 if om.ndim == 2 else om.shape[-1]

    def blocks():  # (first row, |det| raveled, entries) per active row block
        for s in grid.slabs:
            for r in _row_blocks(om[s]) if s.stop > s.start else ():
                b = om[s][r]
                yield s.start + r.start, np.abs(b if n == 1 else _det(b)).ravel(), b

    peaks, lows = [], []
    for row, a, b in blocks():
        peaks.append(np.max(a if n == 1 else np.abs(b)))
        lows.append((a[k := int(np.argmin(a))], k + row * grid.ny))
    low, k = lows[int(np.argmin([v for v, _ in lows]))]
    scale, node = float(np.max(peaks)), tuple(map(int, np.unravel_index(k, grid.shape())))
    tol = DET_TOL_FACTOR * scale ** n if tol is None else tol
    if low <= tol:
        count = sum(np.count_nonzero(a <= tol) for _, a, _ in blocks())
        error = ZeroPotentialError if n == 1 else SingularOmegaError
        raise error(f"{n}x{n} potential matrix is singular at {count} node(s); "
                    f"|det| = {low:.3e} at node {node} (tol {tol:.1e})")
    return float(low)


def _solve_nodes(om: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve om @ x = rhs per node for N >= 2; a closed form for N = 2."""
    if om.shape[-1] == 2:
        det = _det(om)
        x0 = (om[..., 1, 1] * rhs[..., 0] - om[..., 0, 1] * rhs[..., 1]) / det
        x1 = (om[..., 0, 0] * rhs[..., 1] - om[..., 1, 0] * rhs[..., 0]) / det
        return np.stack([x0, x1], axis=-1)
    return np.linalg.solve(om, rhs[..., None])[..., 0]


def _dot(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j stack[..., j] * x[..., j], accumulated in seed order."""
    out = stack[..., 0] * x[..., 0]
    for j in range(1, stack.shape[-1]):
        out += stack[..., j] * x[..., j]
    return out


def _as_potential_list(omegas) -> list[Potential]:
    return [omegas] if isinstance(omegas, Potential) else list(omegas)


def _reciprocal(w: np.ndarray) -> np.ndarray:
    """1 / w: numpy divides by 1j * w as a multiply by it, giving NaN where w is infinite."""
    s = np.divide(1.0, w)
    np.copyto(s, np.nan, where=np.isinf(w))
    return s


def _transform(u: Field, f_stack: np.ndarray, fp_stack: np.ndarray,
               om: np.ndarray, det_min: float) -> TransformResult:
    """The transform generated by N seeds, node by node.

    ``f_stack`` and ``fp_stack`` hold the direct and conjugate seeds
    along a last axis of length N and ``om`` is the (nx, ny, N, N)
    potential matrix.  The coefficient becomes u + sum_j f_j x_j with
    om x = conj(f+); psi maps to psi - sum_j f_j y_j with
    om y = (w_{psi,f_j+})_j, and psi+ to psi+ - sum_j f_j+ y_j with
    om^T y = (w_{f_j,psi+})_j.  Values that are non-finite inside an
    excluded band become 0 there.  For N = 1, ``om`` is the potential's
    im W: with s = 1/W, -x is (Im f+, Re f+) * s and y = w * s, the bits
    of numpy's complex division but for zero signs.  ``det_min`` is the
    caller's ``_det_nodes`` of ``om``.
    """
    grid, n = u.grid, f_stack.shape[-1]
    u_tilde = np.empty_like(u.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _row_blocks(u_tilde):
            if n == 1:
                s, fp, x = _reciprocal(om[rows]), fp_stack[rows, :, 0], u_tilde[rows]
                np.multiply(fp.imag, s, out=x.real)
                np.multiply(fp.real, s, out=x.imag)
                np.subtract(u.values[rows], np.multiply(f_stack[rows, :, 0], x, out=x), out=x)
            else:
                x = _dot(f_stack[rows], _solve_nodes(om[rows], np.conj(fp_stack[rows])))
                np.add(u.values[rows], x, out=u_tilde[rows])
            _scrub(grid, u_tilde[rows], rows)

    def mapped(stack: np.ndarray, matrix: np.ndarray, base: Field, omegas) -> Field:
        pots = _as_potential_list(omegas)
        if len(pots) != n or base.grid != grid:
            raise ShapeError(f"a map takes a field on the transform's grid and "
                             f"{n} potential(s), one per seed")
        ims = [p.im for p in pots]
        vals = np.empty_like(base.values)
        with np.errstate(divide="ignore", invalid="ignore"):
            for rows in _row_blocks(vals):
                # for N = 1 the product is formed in the rows it is subtracted into
                sy = (np.multiply(stack[rows, :, 0], ims[0][rows] * _reciprocal(matrix[rows]),
                                  out=vals[rows]) if n == 1 else _dot(stack[rows], _solve_nodes(
                          matrix[rows], np.stack([1j * w[rows] for w in ims], axis=-1))))
                _scrub(grid, np.subtract(base.values[rows], sy, out=vals[rows]), rows)
        return Field(grid, vals)

    return TransformResult(Field(grid, u_tilde),
                           partial(mapped, f_stack, om),
                           partial(mapped, fp_stack, om if n == 1 else np.swapaxes(om, -1, -2)),
                           n, det_min)


def moutard_simple(u: Field, f1: Field, f1_plus: Field,
                   omega_ff: Potential) -> TransformResult:
    """Simple (N = 1) transform generated by one seed pair.

    The transformed coefficient is u + f1*conj(f1+)/w, and a solution
    psi maps to psi - f1*w_{psi,f1+}/w.
    """
    if not u.grid == f1.grid == f1_plus.grid == omega_ff.grid:
        raise ShapeError("coefficient, seed pair and potential live on different grids")
    return _transform(u, f1.values[..., None], f1_plus.values[..., None],
                      omega_ff.im, _det_nodes(omega_ff.im, u.grid))


def moutard_rank_n(seedset: SeedSet) -> TransformResult:
    """Rank-N transform from a seed set, whose matrix it checked on construction."""
    return _transform(seedset.u,
                      np.stack([f.values for f, _ in seedset.seeds], axis=-1),
                      np.stack([fp.values for _, fp in seedset.seeds], axis=-1),
                      seedset.matrix, seedset.det_min)


def transformed_potential(omega_pp: Potential, omega_pf: Potential,
                          omega_fp: Potential, omega_ff: Potential,
                          constant: complex = 0.0) -> Potential:
    """Potential of the transformed pair, no re-integration needed.

    Given the four potentials pairing (psi, psi+) and the seed pair,
    the transformed pair's potential is
    (w_pp * w_ff - w_pf * w_fp) / w_ff + constant, formed on the ims as
    (pp * ff - pf * fp) * (1 / ff) + Im c, the complex formula's bits.
    """
    _det_nodes(omega_ff.im, omega_ff.grid)
    constant = complex(constant)
    pp, pf, fp, ff = (w.im for w in (omega_pp, omega_pf, omega_fp, omega_ff))
    im = np.empty_like(pp)
    for r in _row_blocks(im):
        v = np.multiply(pp[r], ff[r], out=im[r])
        np.subtract(v, pf[r] * fp[r], out=v)
        np.multiply(v, np.divide(1.0, ff[r]), out=v)
        np.add(v, constant.imag + 0.0, out=v)  # never -0.0, as projected
    bp = omega_pp.basepoint
    return Potential(omega_pp.grid, im, complex(constant.real + 0.0, im[bp]), bp,
                     real_drift=abs(constant.real))


def compose_simple(u: Field, f1: Field, f1_plus: Field, f2: Field,
                   f2_plus: Field, om_f1_f1p: Potential, om_f2_f1p: Potential,
                   om_f1_f2p: Potential, om_f2_f2p: Potential) -> TransformResult:
    """Composition of the two simple transforms generated by the seeds.

    The first stage uses (f1, f1+); the second stage uses the images of
    (f2, f2+) under the first stage, with all second-stage potentials
    derived by the transformed-potential formula with zero constants.
    Node-wise this equals the rank-2 transform on the same seeds.  The
    returned maps take the same potential lists as the rank-2 maps.
    """
    m1 = moutard_simple(u, f1, f1_plus, om_f1_f1p)
    f2_t = m1.map_psi(f2, om_f2_f1p)
    f2p_t = m1.map_psi_plus(f2_plus, om_f1_f2p)
    om_22_t = transformed_potential(om_f2_f2p, om_f2_f1p, om_f1_f2p, om_f1_f1p)
    m2 = moutard_simple(m1.u_tilde, f2_t, f2p_t, om_22_t)

    def map_psi(psi: Field, omegas) -> Field:
        om_p_f1p, om_p_f2p = _as_potential_list(omegas)
        psi_t = m1.map_psi(psi, om_p_f1p)
        om_t = transformed_potential(om_p_f2p, om_p_f1p, om_f1_f2p, om_f1_f1p)
        return m2.map_psi(psi_t, om_t)

    def map_psi_plus(psi_plus: Field, omegas) -> Field:
        om_f1_pp, om_f2_pp = _as_potential_list(omegas)
        psi_p_t = m1.map_psi_plus(psi_plus, om_f1_pp)
        om_t = transformed_potential(om_f2_pp, om_f2_f1p, om_f1_pp, om_f1_f1p)
        return m2.map_psi_plus(psi_p_t, om_t)

    return TransformResult(m2.u_tilde, map_psi, map_psi_plus, 2,
                           det_min=min(m1.det_min, m2.det_min))


def invert_simple(m1: TransformResult, f1: Field, f1_plus: Field,
                  omega_ff: Potential) -> TransformResult:
    """Simple transform undoing the one generated by (f1, f1+).

    The inverting seeds are -i*f1/w and -i*f1+/w with pair potential
    1/w, and the potentials pairing a transformed solution with them
    are -i/w times the original ones; with these choices the
    composition returns u, psi and psi+ identically.  The returned maps
    take transformed solutions together with the *original* potentials
    (the ones that fed the forward map).
    """
    _det_nodes(omega_ff.im, omega_ff.grid)
    grid = f1.grid
    w = omega_ff.values
    f_hat = Field(grid, -1j * f1.values / w)
    f_hat_plus = Field(grid, -1j * f1_plus.values / w)
    om_hat = Potential.from_values(grid, 1.0 / w, omega_ff.basepoint)
    m2 = moutard_simple(m1.u_tilde, f_hat, f_hat_plus, om_hat)

    def scaled(m2_map: Callable) -> Callable:
        def mapped(psi_tilde: Field, omegas) -> Field:
            (om,) = _as_potential_list(omegas)
            return m2_map(psi_tilde, Potential.from_values(grid, -1j * om.values / w,
                                                           om.basepoint))
        return mapped

    return TransformResult(m2.u_tilde, scaled(m2.map_psi), scaled(m2.map_psi_plus), 1,
                           m2.det_min)


def seed_annihilation_max(result: TransformResult, seedset: SeedSet) -> float:
    """Max modulus of a mapped seed; zero for a correct transform."""
    worst = 0.0
    n = len(seedset.seeds)
    for j, (f, _) in enumerate(seedset.seeds):
        column = [seedset.omega[r][j] for r in range(n)]
        worst = max(worst, result.map_psi(f, column).max_abs())
    return worst
