import os

import numpy as np
import pytest

import galab
from galab._integrate import cumulative_integral
from galab.grid import Field, GridSpec


def child_env() -> dict:
    """This process's environment with galab's source root on PYTHONPATH,
    which pytest's ``pythonpath`` setting does not pass to children."""
    src = os.path.dirname(os.path.dirname(galab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def make_grid(nx=64, ny=64, x=(0.0, 1.0), y=(1.0, 2.0), band=None):
    return GridSpec(x[0], x[1], y[0], y[1], nx, ny, excluded_band=band)


def sample(grid, fn):
    return Field.from_callable(grid, fn)


def ones(grid):
    return Field.from_callable(grid, lambda z: np.ones_like(z))


def zeros(grid):
    return Field.from_callable(grid, lambda z: np.zeros_like(z))


def measured_orders(errors):
    """Convergence orders between consecutive dyadic refinements."""
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


def assert_fourth_order(errors, floor=1e-12, min_order=3.5):
    """Errors must either sit at the rounding floor or decay at 4th order."""
    errors = list(errors)
    if max(errors) <= floor:
        return
    usable = [e for e in errors if e > floor]
    if len(usable) >= 2:
        orders = measured_orders(usable)
        assert min(orders) >= min_order, (errors, orders)
    else:
        assert errors[-1] <= floor, errors


def assert_same_bits(got, want):
    """Equal shapes and values, signed zeros and NaN payloads included."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def reference_integrate_form(a, b, grid, basepoint):
    """L-path integration of a dx + b dy on complex components, as the
    potentials were integrated before they moved to float64: the values
    along x-then-y paths and the largest disagreement with y-then-x."""
    i0, j0 = basepoint
    leg_x = cumulative_integral(a[:, j0], grid.hx)
    leg_y = cumulative_integral(b, grid.hy, axis=1)
    w_xy = (leg_x - leg_x[i0])[:, None] + leg_y - leg_y[:, j0][:, None]
    leg_y = cumulative_integral(b[i0, :], grid.hy)
    leg_x = cumulative_integral(a, grid.hx, axis=0)
    w_yx = (leg_y - leg_y[j0])[None, :] + leg_x - leg_x[i0, :][None, :]
    return w_xy, float(np.max(np.abs((w_xy - w_yx)[grid.mask])))


@pytest.fixture
def strip():
    return make_grid()
