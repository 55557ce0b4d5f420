import pickle

import numpy as np
import pytest

from galab.errors import ShapeError, SingularOmegaError, ZeroPotentialError
from galab.grid import Field, dbar, dz, residual
from galab.moutard import (SeedSet, _det_nodes, compose_simple, invert_simple,
                           moutard_rank_n, moutard_simple,
                           seed_annihilation_max, transformed_potential)
from galab.potential import Potential, omega

from conftest import assert_same_bits, make_grid, ones, sample, zeros


def closed_form_potential(grid, values, basepoint=(0, 0)):
    return Potential.from_values(grid, values, basepoint)


@pytest.fixture
def setup(strip):
    """Unit seeds on the strip: the canonical worked configuration."""
    u = zeros(strip)
    f1 = ones(strip)
    om_ff = closed_form_potential(strip, 2j * strip.y)
    return strip, u, f1, om_ff


class TestSimpleTransform:
    def test_coefficient_by_hand(self, setup):
        g, u, f1, om_ff = setup
        result = moutard_simple(u, f1, f1, om_ff)
        assert np.max(np.abs(result.u_tilde.values - 1 / (2j * g.y))) < 1e-14

    def test_probe_z_maps_to_iy(self, setup):
        g, u, f1, om_ff = setup
        result = moutard_simple(u, f1, f1, om_ff)
        om_pf = closed_form_potential(g, 2j * g.x * g.y)
        psi_t = result.map_psi(sample(g, lambda z: z), om_pf)
        assert np.max(np.abs(psi_t.values - 1j * g.y)) < 1e-14
        # d/dzbar(iy) = -1/2 equals u_tilde * conj(iy)
        assert residual(result.u_tilde, psi_t) < 1e-12

    def test_seed_maps_to_zero(self, setup):
        g, u, f1, om_ff = setup
        result = moutard_simple(u, f1, f1, om_ff)
        assert result.map_psi(f1, om_ff).max_abs() < 1e-15

    def test_vanishing_potential_rejected(self):
        # 65 nodes put y = 1.5 exactly on the grid, where 2i(y-1.5) = 0
        g = make_grid(65, 65)
        om_zero = closed_form_potential(g, 2j * (g.y - 1.5))
        with pytest.raises(ZeroPotentialError):
            moutard_simple(zeros(g), ones(g), ones(g), om_zero)

    def test_potential_vanishing_between_nodes_rejected(self):
        # 64 nodes put y = 1.5 between two grid lines: |2(y - 1.5)| is
        # 1/63 or more at every node, but it takes both signs
        g = make_grid(64, 64)
        u, f1 = zeros(g), ones(g)
        om = closed_form_potential(g, 2j * (g.y - 1.5))
        m1 = moutard_simple(u, f1, f1, closed_form_potential(g, 2j * g.y))
        for call in (lambda: moutard_simple(u, f1, f1, om),
                     lambda: transformed_potential(om, om, om, om),
                     lambda: invert_simple(m1, f1, f1, om)):
            with pytest.raises(ZeroPotentialError, match="vanishes between nodes"):
                call()

    def test_potential_is_scanned_once(self, setup, monkeypatch):
        g, u, f1, om_ff = setup
        assert om_ff.det_min == _det_nodes(om_ff.im[..., None, None], g) > 0
        monkeypatch.setattr("galab.potential._det_nodes", None)  # no second scan
        assert moutard_simple(u, f1, f1, om_ff).det_min == om_ff.det_min
        transformed_potential(om_ff, om_ff, om_ff, om_ff)
        with pytest.raises(ValueError, match="read-only"):  # so the scan stays true
            om_ff.im[0, 0] = 0.0

    def test_mismatched_inputs_rejected(self, setup):
        g, u, f1, om_ff = setup
        other = make_grid(64, 64, x=(1.0, 2.0))
        with pytest.raises(ShapeError):
            moutard_simple(zeros(other), f1, f1, om_ff)
        result = moutard_simple(u, f1, f1, om_ff)
        with pytest.raises(ShapeError):
            result.map_psi(ones(other), om_ff)
        with pytest.raises(ShapeError):
            result.map_psi_plus(f1, [om_ff, om_ff])

    def test_transform_validity_constant(self):
        # residual(u~, psi~) <= 10 * (residual(u, psi) + h^4 * scale);
        # the truncation terms are proportional to high derivatives of
        # the probe, hence to its sup-norm on this corpus
        for n in (64, 128):
            g = make_grid(n, n)
            u, f1 = zeros(g), ones(g)
            om_ff = omega(f1, f1, (0, 0), 2j)
            result = moutard_simple(u, f1, f1, om_ff)
            h4 = max(g.hx, g.hy) ** 4
            for probe in (lambda z: z ** 2, lambda z: np.exp(z / 2)):
                psi = sample(g, probe)
                om_pf = omega(psi, f1, (0, 0), 0.0)
                before = residual(u, psi)
                after = residual(result.u_tilde, result.map_psi(psi, om_pf))
                assert after <= 10 * (before + h4 * max(1.0, psi.max_abs()))


class TestRankN:
    def quadruple(self, g):
        """Seeds (1,1) and (z,z) with closed-form potentials."""
        f1, f2 = ones(g), sample(g, lambda z: z)
        om11 = closed_form_potential(g, 2j * g.y)
        om21 = closed_form_potential(g, 2j * g.x * g.y)
        om12 = closed_form_potential(g, 2j * g.x * g.y)
        om22 = closed_form_potential(g, 2j * (g.x ** 2 * g.y - g.y ** 3 / 3))
        return [(f1, f1), (f2, f2)], [[om11, om21], [om12, om22]]

    def test_rank_one_reduces_to_simple(self, setup):
        g, u, f1, om_ff = setup
        seedset = SeedSet.build(u, [(f1, f1)], [[om_ff]])
        rank1 = moutard_rank_n(seedset)
        simple = moutard_simple(u, f1, f1, om_ff)
        assert_same_bits(rank1.u_tilde.values, simple.u_tilde.values)
        psi = sample(g, lambda z: z)
        om_pf = closed_form_potential(g, 2j * g.x * g.y)
        a = rank1.map_psi(psi, [om_pf]).values
        b = simple.map_psi(psi, om_pf).values
        assert_same_bits(a, b)

        # both share one kernel, so the oracle is the written-out formula
        # on seeded random fields and potentials bounded away from zero
        rng = np.random.default_rng(3)
        rand = lambda: Field(g, rng.normal(size=g.shape())
                             + 1j * rng.normal(size=g.shape()))
        pot = lambda lo: closed_form_potential(
            g, 1j * (lo + rng.uniform(0.0, 1.0, g.shape())))
        u, f, fp, psi, psi_plus = (rand() for _ in range(5))
        w, w_pf, w_fp = pot(1.0), pot(-0.5), pot(-0.5)
        result = moutard_simple(u, f, fp, w)
        hand = {"u": u.values + f.values * np.conj(fp.values) / w.values,
                "psi": psi.values - f.values * w_pf.values / w.values,
                "psi_plus": psi_plus.values - fp.values * w_fp.values / w.values}
        for key, got in (("u", result.u_tilde),
                         ("psi", result.map_psi(psi, w_pf)),
                         ("psi_plus", result.map_psi_plus(psi_plus, w_fp))):
            assert np.max(np.abs(got.values - hand[key])) < 1e-13, key
        rank1 = moutard_rank_n(SeedSet(u, [(f, fp)], [[w]]))
        assert_same_bits(rank1.u_tilde.values, result.u_tilde.values)

    def test_rank_two_matches_linalg_solve(self, strip):
        # oracle for the N = 2 closed-form solve and for the transposed
        # matrix of the conjugate map: np.linalg.solve on a nonsymmetric,
        # diagonally dominant potential matrix with random seeds
        g = strip
        rng = np.random.default_rng(5)
        rand = lambda: rng.normal(size=g.shape()) + 1j * rng.normal(size=g.shape())
        imag = lambda lo, hi: 1j * rng.uniform(lo, hi, g.shape())
        u, psi, psi_plus = rand(), rand(), rand()
        f, fp = [rand(), rand()], [rand(), rand()]
        om = [[imag(2, 3), imag(-0.5, 0.5)], [imag(-0.5, 0.5), imag(2, 3)]]
        w_pf, w_fp = [imag(-1, 1), imag(-1, 1)], [imag(-1, 1), imag(-1, 1)]
        pots = lambda vals: [closed_form_potential(g, v) for v in vals]
        seedset = SeedSet(Field(g, u), [(Field(g, a), Field(g, b))
                                        for a, b in zip(f, fp)],
                          [pots(row) for row in om])
        result = moutard_rank_n(seedset)

        mat = np.moveaxis(np.array(om), (0, 1), (2, 3))  # mat[..., j, k] = om[j][k]
        solve = lambda a, b: np.linalg.solve(a, np.stack(b, -1)[..., None])[..., 0]
        dot = lambda seeds, x: np.sum(np.stack(seeds, -1) * x, axis=-1)
        hand = {"u": u + dot(f, solve(mat, [np.conj(b) for b in fp])),
                "psi": psi - dot(f, solve(mat, w_pf)),
                "psi_plus": psi_plus - dot(fp, solve(np.swapaxes(mat, -1, -2), w_fp))}
        for key, got in (("u", result.u_tilde),
                         ("psi", result.map_psi(Field(g, psi), pots(w_pf))),
                         ("psi_plus", result.map_psi_plus(Field(g, psi_plus),
                                                          pots(w_fp)))):
            assert np.max(np.abs(got.values - hand[key])) < 1e-12, key

    def test_scaling_invariance(self, strip):
        # scaling the matrix and the probe potentials by the same real
        # number leaves the mapped solution unchanged
        seeds, om = self.quadruple(strip)
        u = zeros(strip)
        psi = sample(strip, lambda z: np.exp(z / 2))
        om_p1 = omega(psi, seeds[0][1], (0, 0), 0.0)
        om_p2 = omega(psi, seeds[1][1], (0, 0), 0.0)
        base = moutard_rank_n(SeedSet.build(u, seeds, om))
        lam = 2.5
        om_scaled = [[closed_form_potential(strip, lam * p.values) for p in row]
                     for row in om]
        scaled = moutard_rank_n(SeedSet.build(u, seeds, om_scaled))
        a = base.map_psi(psi, [om_p1, om_p2]).values
        b = scaled.map_psi(psi, [
            closed_form_potential(strip, lam * om_p1.values),
            closed_form_potential(strip, lam * om_p2.values)]).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_seed_annihilation(self, strip):
        seeds, om = self.quadruple(strip)
        seedset = SeedSet.build(zeros(strip), seeds, om)
        assert seed_annihilation_max(moutard_rank_n(seedset), seedset) < 1e-13

    def test_rank_three_annihilates_seeds_both_sides(self, strip):
        # exercises the LU path for N >= 3; mapping the m-th seed uses
        # the m-th matrix column and must return zero, and the
        # conjugate map does the same through the transposed inverse
        g = strip
        e2 = lambda z: np.exp(z / 2)
        seeds = [(ones(g), ones(g)), (sample(g, lambda z: z),
                                      sample(g, lambda z: z)),
                 (sample(g, e2), sample(g, e2))]
        u = zeros(g)
        # constants must leave the matrix nonsingular at the basepoint
        om = [[omega(fk, fjp, (0, 0), 1j * (1 + 0.3 * (k - j) ** 2))
               for k, (fk, _) in enumerate(seeds)]
              for j, (_, fjp) in enumerate(seeds)]
        seedset = SeedSet.build(u, seeds, om)
        result = moutard_rank_n(seedset)
        assert result.n_seeds == 3
        assert seed_annihilation_max(result, seedset) < 1e-11
        for m, (_, fmp) in enumerate(seeds):
            row = [om[m][j] for j in range(3)]
            assert result.map_psi_plus(fmp, row).max_abs() < 1e-11

    def test_repeated_seed_is_singular(self, setup):
        g, u, f1, om_ff = setup
        om = [[om_ff, om_ff], [om_ff, om_ff]]
        with pytest.raises(SingularOmegaError):
            moutard_rank_n(SeedSet.build(u, [(f1, f1), (f1, f1)], om))

    def test_seedset_validates_residuals(self, strip):
        bad = sample(strip, np.conj)  # not a solution for u = 0
        om = closed_form_potential(strip, 2j * strip.y)
        with pytest.raises(ValueError):
            SeedSet.build(zeros(strip), [(bad, bad)], [[om]])

    def test_seedset_checks_grids(self):
        # a potential on a wider strip with as many nodes, or on a finer
        # grid whose 24 x 24 corner the scan would read
        g = make_grid(24, 24)
        u, f1 = zeros(g), ones(g)
        for other in (make_grid(24, 24, x=(0.0, 2.0)), make_grid(30, 30)):
            om = closed_form_potential(other, 2j * other.y)
            for build in (SeedSet, SeedSet.build):
                with pytest.raises(ShapeError, match="different grids"):
                    build(u, [(f1, f1)], [[om]])
            with pytest.raises(ShapeError, match="different grids"):
                SeedSet(u, [(ones(other), f1)], [[closed_form_potential(g, 2j * g.y)]])

    def test_seedset_checks_its_matrix_on_construction(self, setup):
        g, u, f1, om_ff = setup
        with pytest.raises(SingularOmegaError):
            SeedSet(u, [(f1, f1), (f1, f1)], [[om_ff, om_ff], [om_ff, om_ff]])
        seeds, om = self.quadruple(g)
        seedset = SeedSet(u, seeds, om)
        assert seedset.det_min == _det_nodes(seedset.omega_array(), g) > 0
        assert moutard_rank_n(seedset).det_min == seedset.det_min


class TestTransformedPotential:
    def test_seed_pair_annihilates(self, setup):
        g, u, f1, om_ff = setup
        om_t = transformed_potential(om_ff, om_ff, om_ff, om_ff)
        assert np.max(np.abs(om_t.values)) < 1e-14

    def test_hand_case_z_probe(self, setup):
        # psi = z, psi+ = 1: w~ = (2ixy*2iy - 2ixy*2iy)/2iy = 0, and
        # psi~+ = 0 so the product of the mapped pair vanishes as well
        g, u, f1, om_ff = setup
        om_pf = closed_form_potential(g, 2j * g.x * g.y)
        om_fp = closed_form_potential(g, 2j * g.y)
        om_pp = closed_form_potential(g, 2j * g.x * g.y)
        om_t = transformed_potential(om_pp, om_pf, om_fp, om_ff)
        assert np.max(np.abs(om_t.values)) < 1e-13
        result = moutard_simple(u, f1, f1, om_ff)
        psi_plus_t = result.map_psi_plus(ones(g), om_fp)
        assert psi_plus_t.max_abs() < 1e-14

    def test_vanishing_seed_potential_rejected(self):
        g = make_grid(65, 65)
        om_zero = closed_form_potential(g, 2j * (g.y - 1.5))
        om_any = closed_form_potential(g, 2j * g.y)
        with pytest.raises(ZeroPotentialError):
            transformed_potential(om_any, om_any, om_any, om_zero)

    def test_derivative_matches_product(self, strip):
        # the defining relation of the transformed potential, on a
        # transcendental pair where the quadrature is not exact
        u, f1 = zeros(strip), ones(strip)
        psi = sample(strip, lambda z: np.exp(z / 2))
        psi_plus = sample(strip, lambda z: z)
        om_ff = omega(f1, f1, (0, 0), 2j)
        om_pf = omega(psi, f1, (0, 0), 0.0)
        om_fp = omega(f1, psi_plus, (0, 0), 0.0)
        om_pp = omega(psi, psi_plus, (0, 0), 0.0)
        om_t = transformed_potential(om_pp, om_pf, om_fp, om_ff, constant=1j)
        result = moutard_simple(u, f1, f1, om_ff)
        psi_t = result.map_psi(psi, om_pf)
        psi_plus_t = result.map_psi_plus(psi_plus, om_fp)
        defect = np.max(np.abs(dz(Field(strip, om_t.values)).values
                               - psi_t.values * psi_plus_t.values))
        assert defect < 1e-7
        defect_bar = np.max(np.abs(
            dbar(Field(strip, om_t.values)).values
            + np.conj(psi_t.values * psi_plus_t.values)))
        assert defect_bar < 1e-7
        assert np.max(np.abs(om_t.values.real)) < 1e-10


class TestComposition:
    def quadruples(self):
        """Three seed quadruples with nonvanishing potential matrices."""
        g1 = make_grid(64, 64)
        q1 = (g1, ones(g1), ones(g1), sample(g1, lambda z: z),
              sample(g1, lambda z: z),
              dict(om11=2j * g1.y, om21=2j * g1.x * g1.y,
                   om12=2j * g1.x * g1.y,
                   om22=2j * (g1.x ** 2 * g1.y - g1.y ** 3 / 3)))
        e2 = lambda z: np.exp(z / 2)
        q2 = (g1, ones(g1), ones(g1), sample(g1, e2), sample(g1, e2),
              dict(om11=2j * g1.y,
                   om21=4j * np.exp(g1.x / 2) * np.sin(g1.y / 2),
                   om12=4j * np.exp(g1.x / 2) * np.sin(g1.y / 2),
                   om22=2j * np.exp(g1.x) * np.sin(g1.y)))
        g3 = make_grid(64, 64, x=(1.0, 2.0))
        q3 = (g3, sample(g3, lambda z: z), ones(g3), ones(g3),
              sample(g3, lambda z: z),
              dict(om11=2j * g3.x * g3.y, om21=2j * g3.y,
                   om12=2j * (g3.x ** 2 * g3.y - g3.y ** 3 / 3),
                   om22=2j * g3.x * g3.y))
        return [q1, q2, q3]

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_composition_equals_rank_two(self, idx):
        g, f1, f1p, f2, f2p, oms = self.quadruples()[idx]
        u = zeros(g)
        om11 = closed_form_potential(g, oms["om11"])
        om21 = closed_form_potential(g, oms["om21"])
        om12 = closed_form_potential(g, oms["om12"])
        om22 = closed_form_potential(g, oms["om22"])
        seedset = SeedSet.build(u, [(f1, f1p), (f2, f2p)],
                                [[om11, om21], [om12, om22]])
        rank2 = moutard_rank_n(seedset)
        comp = compose_simple(u, f1, f1p, f2, f2p, om11, om21, om12, om22)
        scale = max(rank2.u_tilde.max_abs(), 1.0)
        assert np.max(np.abs(rank2.u_tilde.values
                             - comp.u_tilde.values)) / scale < 1e-8
        psi = sample(g, lambda z: z ** 2 + 0.5)
        om_p1 = omega(psi, f1p, (0, 0), 0.0)
        om_p2 = omega(psi, f2p, (0, 0), 0.0)
        a = rank2.map_psi(psi, [om_p1, om_p2])
        b = comp.map_psi(psi, [om_p1, om_p2])
        scale = max(a.max_abs(), 1.0)
        assert np.max(np.abs(a.values - b.values)) / scale < 1e-8

    def test_conjugate_side_agrees(self):
        g, f1, f1p, f2, f2p, oms = self.quadruples()[0]
        u = zeros(g)
        pots = {k: closed_form_potential(g, v) for k, v in oms.items()}
        seedset = SeedSet.build(u, [(f1, f1p), (f2, f2p)],
                                [[pots["om11"], pots["om21"]],
                                 [pots["om12"], pots["om22"]]])
        rank2 = moutard_rank_n(seedset)
        comp = compose_simple(u, f1, f1p, f2, f2p, pots["om11"], pots["om21"],
                              pots["om12"], pots["om22"])
        psi_plus = sample(g, lambda z: z)
        om_1p = omega(f1, psi_plus, (0, 0), 0.0)
        om_2p = omega(f2, psi_plus, (0, 0), 0.0)
        a = rank2.map_psi_plus(psi_plus, [om_1p, om_2p])
        b = comp.map_psi_plus(psi_plus, [om_1p, om_2p])
        assert np.max(np.abs(a.values - b.values)) < 1e-8

    def test_repeated_seed_fails_both_ways(self, setup):
        g, u, f1, om_ff = setup
        with pytest.raises(ZeroPotentialError):
            compose_simple(u, f1, f1, f1, f1, om_ff, om_ff, om_ff, om_ff)
        om = [[om_ff, om_ff], [om_ff, om_ff]]
        with pytest.raises(SingularOmegaError):
            moutard_rank_n(SeedSet(u, [(f1, f1), (f1, f1)], om))


class TestInversion:
    def test_worked_example_closed_form(self, setup):
        # f^ = -1/(2y), w^ = -i/(2y), w_{psi~,f^+} = -ix, and the probe
        # returns iy - (-1/(2y)) * (-ix)/(-i/(2y)) = iy + x = z
        g, u, f1, om_ff = setup
        m1 = moutard_simple(u, f1, f1, om_ff)
        om_pf = closed_form_potential(g, 2j * g.x * g.y)
        psi = sample(g, lambda z: z)
        psi_t = m1.map_psi(psi, om_pf)
        assert np.max(np.abs(psi_t.values - 1j * g.y)) < 1e-14
        inv = invert_simple(m1, f1, f1, om_ff)
        psi_back = inv.map_psi(psi_t, om_pf)
        assert np.max(np.abs(psi_back.values - psi.values)) < 1e-14
        assert np.max(np.abs(inv.u_tilde.values - u.values)) < 1e-14

    def test_roundtrip_with_quadrature_potentials(self, strip):
        u, f1 = zeros(strip), ones(strip)
        om_ff = omega(f1, f1, (0, 0), 2j)
        psi = sample(strip, lambda z: np.exp(z / 2))
        psi_plus = sample(strip, lambda z: z ** 2 + 1)
        om_pf = omega(psi, f1, (0, 0), 0.0)
        om_fp = omega(f1, psi_plus, (0, 0), 0.0)
        m1 = moutard_simple(u, f1, f1, om_ff)
        inv = invert_simple(m1, f1, f1, om_ff)
        psi_back = inv.map_psi(m1.map_psi(psi, om_pf), om_pf)
        psi_plus_back = inv.map_psi_plus(m1.map_psi_plus(psi_plus, om_fp), om_fp)
        for got, want in ((psi_back, psi), (psi_plus_back, psi_plus),
                          (inv.u_tilde, u)):
            scale = max(want.max_abs(), 1.0)
            assert np.max(np.abs(got.values - want.values)) / scale < 1e-10

    def test_zero_maps_to_zero(self, setup):
        g, u, f1, om_ff = setup
        m1 = moutard_simple(u, f1, f1, om_ff)
        inv = invert_simple(m1, f1, f1, om_ff)
        zero_pot = closed_form_potential(g, np.zeros(g.shape()))
        z0 = zeros(g)
        assert m1.map_psi(z0, zero_pot).max_abs() == 0.0
        assert inv.map_psi(z0, zero_pot).max_abs() == 0.0


class TestPickling:
    def test_results_pickle_and_map_the_same(self, strip):
        # every constructor's maps are module-level functions bound with
        # partial, so a result survives pickling and maps bit for bit
        g = strip
        f1, f2 = ones(g), sample(g, lambda z: z)
        om11 = closed_form_potential(g, 2j * g.y)
        om21 = om12 = closed_form_potential(g, 2j * g.x * g.y)
        om22 = closed_form_potential(g, 2j * (g.x ** 2 * g.y - g.y ** 3 / 3))
        u = zeros(g)
        m1 = moutard_simple(u, f1, f1, om11)
        results = {
            "simple": (m1, om12, om21),
            "rank_n": (moutard_rank_n(SeedSet.build(u, [(f1, f1), (f2, f2)],
                                                    [[om11, om21], [om12, om22]])),
                       [om21, om22], [om12, om22]),
            "compose": (compose_simple(u, f1, f1, f2, f2, om11, om21, om12, om22),
                        [om21, om22], [om12, om22]),
            "invert": (invert_simple(m1, f1, f1, om11), om12, om21),
        }
        psi = sample(g, lambda z: z ** 2 + 0.5)
        for name, (result, oms, oms_plus) in results.items():
            back = pickle.loads(pickle.dumps(result))
            assert_same_bits(back.u_tilde.values, result.u_tilde.values)
            assert_same_bits(back.map_psi(psi, oms).values,
                             result.map_psi(psi, oms).values)
            assert_same_bits(back.map_psi_plus(psi, oms_plus).values,
                             result.map_psi_plus(psi, oms_plus).values)
            assert (back.n_seeds, back.det_min) == (result.n_seeds, result.det_min), name

    def test_unpickled_potential_keeps_its_scan_valid(self, strip):
        # the cached det_min comes back with the potential, so its im must
        # come back read-only for the scan to hold
        pot = closed_form_potential(strip, 2j * strip.y)
        pot.det_min
        back = pickle.loads(pickle.dumps(pot))
        with pytest.raises(ValueError, match="read-only"):
            back.im[3, 4] = 0.0
        assert back.det_min == _det_nodes(back.im[..., None, None], strip) == pot.det_min
