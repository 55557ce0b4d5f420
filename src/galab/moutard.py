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

from .errors import SeedResidualError, ShapeError
from .grid import Field, _each_block, _row_blocks, _scrub, residual
from .potential import Potential, _det, _det_nodes

#: largest equation residual of a seed admitted to a seed set
SEED_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class TransformResult:
    """Transformed coefficient plus the solution maps.

    ``map_psi(psi, omegas)`` expects the potentials pairing psi with
    each conjugate seed (one per seed, in seed order); likewise
    ``map_psi_plus(psi_plus, omegas)`` expects the potentials pairing
    each direct seed with psi_plus.  The maps are module-level functions
    bound with ``functools.partial``, so a result pickles.
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
    seed with the j-th conjugate seed, all on u's grid.  Construction
    stacks the potentials' ims into ``matrix``, the real matrix W of
    omega = i W, checks that W is invertible at every active node and
    keeps its smallest |det| as ``det_min``.
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
        if any(a.grid != self.u.grid for row in (*self.seeds, *self.omega) for a in row):
            raise ShapeError("coefficient, seeds and potentials live on different grids")
        object.__setattr__(self, "matrix", self.omega_array())
        object.__setattr__(self, "det_min", _det_nodes(self.matrix, self.u.grid))

    def omega_array(self) -> np.ndarray:
        """The (nx, ny, N, N) real stack of the potentials' ims;
        construction builds it once as ``matrix``."""
        return np.transpose(np.array([[p.im for p in row] for row in self.omega]),
                            (2, 3, 0, 1))


def _solve_nodes(w: np.ndarray, systems, s: np.ndarray | None) -> None:
    """Solve W x = b per node for each (b, x) of ``systems``: b and x
    are lists of N per-seed arrays, the x perhaps strided views.

    N >= 3 solves by real LU.  N = 1 multiplies b, and N = 2 its closed
    form, by one reciprocal of det W for all systems, NaN where det W is
    infinite: numpy's complex 1 / (1j * inf), as 1j * inf has a NaN real part.
    The reciprocal is formed in ``s`` if not None: the output written last.
    """
    n = w.shape[-1]
    if n > 2:
        for b, x in systems:
            sol = np.linalg.solve(w, np.stack(b, axis=-1)[..., None])
            for j in range(n):
                x[j][...] = sol[..., j, 0]
        return
    det = _det(w)
    s = np.divide(1.0, det, out=s)
    np.copyto(s, np.nan, where=np.isinf(det))
    for b, x in systems:
        if n == 1:
            np.multiply(b[0], s, out=x[0])
        else:
            np.multiply(w[..., 1, 1] * b[0] - w[..., 0, 1] * b[1], s, out=x[0])
            np.multiply(w[..., 0, 0] * b[1] - w[..., 1, 0] * b[0], s, out=x[1])


def _as_potential_list(omegas) -> list[Potential]:
    return [omegas] if isinstance(omegas, Potential) else list(omegas)


def _subtract_solved(grid, w: np.ndarray, seeds, base: np.ndarray, rhs) -> Field:
    """base - sum_j seeds[j] x_j node by node, where W x = b for b the
    sets of N per-seed arrays in ``rhs``: one for a real x, the real and
    the imaginary part's for a complex x.  Non-finite values inside an
    excluded band become 0 there."""
    vals = np.empty_like(base)
    cx = len(rhs) > 1  # a complex x_0 is solved in the rows it is subtracted into

    def block(rows, scratch):
        x = [vals[rows]] * cx + list(scratch[:, :rows.stop - rows.start])
        _solve_nodes(w[rows], [([a[rows] for a in b], [part(v) for v in x])
                               for b, part in zip(rhs, (np.real, np.imag))],
                     None if cx else x[-1])  # a real x overwrites the reciprocal
        sx = np.multiply(seeds[0][rows], x[0], out=vals[rows])
        for j in range(1, len(seeds)):  # accumulated in seed order
            sx += seeds[j][rows] * x[j]
        _scrub(grid, np.subtract(base[rows], sx, out=sx), rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        _each_block(block, _row_blocks(vals), lambda m: (np.empty(
            (w.shape[-1] - cx, m, grid.ny), complex if cx else float),), here=w.shape[-1] > 2)
    return Field(grid, vals)


def _mapped(grid, seeds, w: np.ndarray, base: Field, omegas) -> Field:
    """A solution map of ``_transform``, bound to its seeds and matrix."""
    pots = _as_potential_list(omegas)
    if len(pots) != w.shape[-1] or base.grid != grid:
        raise ShapeError(f"a map takes a field on the transform's grid and "
                         f"{w.shape[-1]} potential(s), one per seed")
    return _subtract_solved(grid, w, seeds, base.values, [[p.im for p in pots]])


def _transform(u: Field, fs, fps, w: np.ndarray, det_min: float) -> TransformResult:
    """The transform generated by N seeds, in real arithmetic on W.

    ``fs`` and ``fps`` are the N direct and conjugate seeds' values and
    ``w`` the real (nx, ny, N, N) matrix W of their potentials' ims,
    omega = i W.  The coefficient becomes u - sum_j f_j x_j with
    W x = Im f+ + i Re f+; psi maps to psi - sum_j f_j y_j with
    W y = (Im w_{psi,f_j+})_j, and psi+ to psi+ - sum_j f_j+ y_j with
    W^T y = (Im w_{f_j,psi+})_j.  These are numpy's complex formulas on
    omega bit for bit, up to the sign of zeros, as numpy divides by a
    complex number with a zero part by multiplying with the reciprocal
    of the other.  ``det_min`` is the caller's scan of ``w``.
    """
    u_tilde = _subtract_solved(u.grid, w, fs, u.values, [[v.imag for v in fps],
                                                         [v.real for v in fps]])
    return TransformResult(u_tilde, partial(_mapped, u.grid, fs, w),
                           partial(_mapped, u.grid, fps, np.swapaxes(w, -1, -2)),
                           w.shape[-1], det_min)


def moutard_simple(u: Field, f1: Field, f1_plus: Field,
                   omega_ff: Potential) -> TransformResult:
    """Simple (N = 1) transform generated by one seed pair.

    The transformed coefficient is u + f1*conj(f1+)/w, and a solution
    psi maps to psi - f1*w_{psi,f1+}/w.
    """
    if not u.grid == f1.grid == f1_plus.grid == omega_ff.grid:
        raise ShapeError("coefficient, seed pair and potential live on different grids")
    return _transform(u, [f1.values], [f1_plus.values], omega_ff.im[..., None, None],
                      omega_ff.det_min)


def moutard_rank_n(seedset: SeedSet) -> TransformResult:
    """Rank-N transform from a seed set, whose matrix it checked on construction."""
    return _transform(seedset.u, [f.values for f, _ in seedset.seeds],
                      [fp.values for _, fp in seedset.seeds],
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
    omega_ff.det_min  # raises where omega_ff vanishes
    constant = complex(constant)
    pp, pf, fp, ff = (w.im for w in (omega_pp, omega_pf, omega_fp, omega_ff))
    im = np.empty_like(pp)

    def block(r):
        v = np.multiply(pp[r], ff[r], out=im[r])
        np.subtract(v, pf[r] * fp[r], out=v)
        np.multiply(v, np.divide(1.0, ff[r]), out=v)
        np.add(v, constant.imag + 0.0, out=v)  # never -0.0, as projected
    _each_block(block, _row_blocks(im))
    bp = omega_pp.basepoint
    return Potential(omega_pp.grid, im, complex(constant.real + 0.0, im[bp]), bp,
                     real_drift=abs(constant.real))


def _chained(first: Callable, second: Callable, fixed: Potential, om_ff: Potential,
             psi: Field, omegas) -> Field:
    """Chained map of a composition: psi through ``first`` with the first
    of ``omegas``, then ``second`` with the transformed potential of the
    second, taking ``fixed`` as either middle factor (real products commute)."""
    om_1, om_2 = _as_potential_list(omegas)
    return second(first(psi, om_1), transformed_potential(om_2, om_1, fixed, om_ff))


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
    return TransformResult(
        m2.u_tilde, partial(_chained, m1.map_psi, m2.map_psi, om_f1_f2p, om_f1_f1p),
        partial(_chained, m1.map_psi_plus, m2.map_psi_plus, om_f2_f1p, om_f1_f1p),
        2, det_min=min(m1.det_min, m2.det_min))


def _scaled(grid, w: np.ndarray, m2_map: Callable, psi_tilde: Field, omegas) -> Field:
    """``m2_map`` of psi~ with the original potential times -i/w."""
    (om,) = _as_potential_list(omegas)
    return m2_map(psi_tilde, Potential.from_values(grid, -1j * om.values / w, om.basepoint))


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
    omega_ff.det_min  # raises where omega_ff vanishes
    grid = f1.grid
    w = omega_ff.values
    f_hat = Field(grid, -1j * f1.values / w)
    f_hat_plus = Field(grid, -1j * f1_plus.values / w)
    om_hat = Potential.from_values(grid, 1.0 / w, omega_ff.basepoint)
    m2 = moutard_simple(m1.u_tilde, f_hat, f_hat_plus, om_hat)
    return TransformResult(m2.u_tilde, partial(_scaled, grid, w, m2.map_psi),
                           partial(_scaled, grid, w, m2.map_psi_plus), 1, m2.det_min)


def seed_annihilation_max(result: TransformResult, seedset: SeedSet) -> float:
    """Max modulus of a mapped seed; zero for a correct transform."""
    worst = 0.0
    n = len(seedset.seeds)
    for j, (f, _) in enumerate(seedset.seeds):
        column = [seedset.omega[r][j] for r in range(n)]
        worst = max(worst, result.map_psi(f, column).max_abs())
    return worst
