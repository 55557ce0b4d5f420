import numpy as np
import pytest

import galab.conformal
from galab.conformal import (HolomorphicChart, check_commutativity, pushforward_psi,
                             pushforward_u, tracked_sqrt)
from galab.errors import BranchError, DegenerateChartError
from galab.grid import Field, dz, residual
from galab.potential import Potential

from conftest import make_grid, sample


def strip():
    return make_grid(64, 64, x=(-0.5, 0.5), y=(1.0, 2.0))


def scaling_chart(a=2.0, grid=None):
    grid = grid or strip()
    return HolomorphicChart(lambda t: a * t, lambda t: a * np.ones_like(t),
                            lambda zv: zv / a, grid)


def rotation_chart(theta=0.5, grid=None):
    grid = grid or strip()
    w = np.exp(1j * theta)
    return HolomorphicChart(lambda t: w * t, lambda t: w * np.ones_like(t),
                            lambda zv: zv / w, grid)


def curved_chart(grid=None):
    # z = tau + 0.1 tau^2, injective with nonvanishing derivative here
    grid = grid or strip()
    return HolomorphicChart(
        lambda t: t + 0.1 * t ** 2,
        lambda t: 1 + 0.2 * t,
        lambda zv: (np.sqrt(1 + 0.4 * zv) - 1) / 0.2,
        grid)


class TestChartValidation:
    @pytest.mark.parametrize("chart_fn", [
        pytest.param(lambda g: HolomorphicChart(lambda t: t, lambda t: np.ones_like(t),
                                                lambda zv: zv, g), id="identity_chart"),
        lambda g: scaling_chart(2.0, g),
        lambda g: rotation_chart(0.5, g), curved_chart])
    def test_good_charts_validate(self, chart_fn):
        chart_fn(strip()).validate()

    def test_degenerate_derivative(self):
        # 9 nodes put tau = 0 on the grid, where the derivative vanishes
        g0 = make_grid(9, 9, x=(-0.5, 0.5), y=(-0.5, 0.5))
        bad = HolomorphicChart(lambda t: t ** 2 / 2, lambda t: t,
                               lambda zv: np.sqrt(2 * zv), g0)
        with pytest.raises(DegenerateChartError):
            bad.validate()

    def test_wrong_inverse_detected(self):
        g = strip()
        chart = HolomorphicChart(lambda t: 2 * t, lambda t: 2 * np.ones_like(t),
                                 lambda zv: zv / 3, g)
        with pytest.raises(ValueError):
            chart.validate()

    def test_non_injective_detected(self):
        g = make_grid(16, 16, x=(-1.0, 1.0), y=(-1.0, 1.0))
        chart = HolomorphicChart(lambda t: t ** 2, lambda t: 2 * t,
                                 lambda zv: np.sqrt(zv), g)
        with pytest.raises((ValueError, DegenerateChartError)):
            chart.validate()


class TestPushforwards:
    def test_identity_is_identity(self):
        g = strip()
        chart = HolomorphicChart(lambda t: t, lambda t: np.ones_like(t), lambda zv: zv, g)
        u = sample(g, lambda z: z * np.conj(z))
        assert np.max(np.abs(pushforward_u(u, chart).values - u.values)) < 1e-14
        psi = sample(g, lambda z: z)
        assert np.max(np.abs(pushforward_psi(psi, chart).values
                             - psi.values)) < 1e-14

    def test_scaling_weight_on_coefficient(self):
        chart = scaling_chart(3.0)
        out = pushforward_u(chart.sample(lambda zv: np.ones_like(zv)), chart)
        assert np.allclose(out.values, 3.0)

    def test_rotation_weight_is_unit(self):
        chart = rotation_chart(0.9)
        out = pushforward_u(chart.sample(lambda zv: np.ones_like(zv)), chart)
        assert np.allclose(out.values, 1.0)

    def test_sqrt_weight_principal(self):
        chart = scaling_chart(4.0)
        out = pushforward_psi(chart.sample(lambda zv: np.ones_like(zv)), chart)
        assert np.allclose(out.values, 2.0)

    def test_tracked_sqrt_squares_back(self):
        chart = curved_chart()
        w = chart.derivative_on_strip
        s = tracked_sqrt(w)
        assert np.max(np.abs(s ** 2 - w)) < 1e-13

    def test_branch_jump_detected(self):
        g = make_grid(8, 8)
        # arg jumps by 18/7 ~ 2.57 rad between rows, beyond pi/2
        w = np.exp(18j * g.y)
        with pytest.raises(BranchError):
            tracked_sqrt(w)

    def test_residual_preserved_under_charts(self):
        # covariance: pushed-forward pairs still solve the equations
        for chart_fn in (lambda g: HolomorphicChart(lambda t: t, lambda t: np.ones_like(t),
                                                    lambda zv: zv, g),
                         lambda g: scaling_chart(2.0, g),
                         lambda g: rotation_chart(0.5, g), curved_chart):
            g = strip()
            chart = chart_fn(g)
            u_s = pushforward_u(chart.sample(lambda zv: np.zeros_like(zv)), chart)
            h4 = max(g.hx, g.hy) ** 4
            for probe in (lambda zv: zv, lambda zv: zv ** 2 + 1,
                          lambda zv: zv ** 3):
                psi_s = pushforward_psi(chart.sample(probe), chart)
                scale = max(1.0, psi_s.max_abs())
                assert residual(u_s, psi_s) <= 10 * h4 * scale


class TestPotentialIdentification:
    def test_pulled_back_potential_solves_strip_relations(self):
        # w*(tau) = w(z(tau)) satisfies d/dtau w* = psi* psi*+
        g = strip()
        chart = scaling_chart(2.0, g)
        psi_s = pushforward_psi(chart.sample(lambda zv: np.ones_like(zv)), chart)
        om_pulled = Potential.from_values(
            g, chart.mapped_nodes - np.conj(chart.mapped_nodes))
        lhs = dz(Field(g, om_pulled.values)).values
        rhs = psi_s.values * psi_s.values
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestCommutativity:
    def args(self):
        one = lambda zv: np.ones_like(zv)
        zero = lambda zv: np.zeros_like(zv)
        probe = lambda zv: np.exp(zv / 4)
        return zero, one, one, probe

    def test_identity_chart_exact(self):
        chart = HolomorphicChart(lambda t: t, lambda t: np.ones_like(t), lambda zv: zv,
                                 strip())
        res = check_commutativity(chart, *self.args(), constant_ff=2j)
        assert res.u_deviation <= 1e-12 and res.psi_deviation <= 1e-12

    def test_scaling_chart_with_closed_forms(self):
        chart = scaling_chart(2.0)
        res = check_commutativity(
            chart, *self.args(),
            d_side_omegas=(lambda zv: zv - np.conj(zv),
                           lambda zv: 4 * np.exp(zv / 4) - np.conj(4 * np.exp(zv / 4))))
        assert res.u_deviation <= 1e-8 and res.psi_deviation <= 1e-8

    def test_rotation_chart_with_closed_forms(self):
        chart = rotation_chart(0.5)
        res = check_commutativity(
            chart, *self.args(),
            d_side_omegas=(lambda zv: zv - np.conj(zv),
                           lambda zv: 4 * np.exp(zv / 4) - np.conj(4 * np.exp(zv / 4))))
        assert res.u_deviation <= 1e-8 and res.psi_deviation <= 1e-8

    def test_deviation_shrinks_at_quadrature_order(self):
        devs = []
        for n in (32, 64, 128):
            g = make_grid(n, n, x=(-0.5, 0.5), y=(1.0, 2.0))
            chart = scaling_chart(2.0, g)
            res = check_commutativity(
                chart, *self.args(),
                d_side_omegas=(lambda zv: zv - np.conj(zv),
                               lambda zv: 4 * np.exp(zv / 4) - np.conj(4 * np.exp(zv / 4))))
            devs.append(max(res.u_deviation, res.psi_deviation))
        order = np.log2(devs[0] / devs[1])
        assert order > 3.5

    @pytest.mark.parametrize("constants", [{"constant_ff": 99j}, {"constant_pf": -7j},
                                           {"constant_ff": 99j, "constant_pf": -7j},
                                           {"constant_ff": 0.0}])
    def test_constants_beside_closed_forms_raise(self, constants):
        # the closed forms fix both constants; one passed beside them was ignored
        with pytest.raises(ValueError, match="constant_ff and constant_pf"):
            check_commutativity(
                scaling_chart(2.0), *self.args(),
                d_side_omegas=(lambda zv: zv - np.conj(zv),
                               lambda zv: 4 * np.exp(zv / 4) - np.conj(4 * np.exp(zv / 4))),
                **constants)

    def test_curved_chart_shared_potentials(self):
        chart = curved_chart()
        res = check_commutativity(chart, *self.args(), constant_ff=2j)
        assert res.u_deviation <= 1e-11 and res.psi_deviation <= 1e-11

    def test_chart_values_are_computed_once(self, monkeypatch):
        # the derivative, its tracked square root and the mapped nodes
        # serve every pushforward of a run, read-only
        calls, base = [], curved_chart()

        def counted(name, fn):
            def wrapped(arg):
                calls.append(name)
                return fn(arg)
            return wrapped

        chart = HolomorphicChart(counted("forward", base.forward),
                                 counted("derivative", base.derivative),
                                 base.inverse, base.strip)
        monkeypatch.setattr(galab.conformal, "tracked_sqrt",
                            counted("sqrt", galab.conformal.tracked_sqrt))
        res = check_commutativity(chart, *self.args(), constant_ff=2j)
        assert sorted(calls) == ["derivative", "forward", "sqrt"]
        assert res == check_commutativity(base, *self.args(), constant_ff=2j)
        for values in (chart.derivative_on_strip, chart.sqrt_derivative, chart.mapped_nodes):
            assert not values.flags.writeable
