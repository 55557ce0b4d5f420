import numpy as np
import pytest

from galab.grid import Field, GridSpec


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


@pytest.fixture
def strip():
    return make_grid()
