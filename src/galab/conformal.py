"""Holomorphic change of variables between a curved neighborhood and a strip.

Under a holomorphic chart z(tau) the equations stay covariant when the
coefficient picks up the weight |dz/dtau| and solutions pick up
sqrt(dz/dtau) with a continuously tracked branch.  Pair potentials are
identified along the chart, i.e. evaluated at mapped points with no
extra weight.  The transform therefore commutes with the change of
variables, which is checked numerically node by node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BranchError, DegenerateChartError
from .grid import Field, GridSpec, _peak_abs
from .moutard import moutard_simple
from .potential import Potential, omega

#: minimum modulus of the chart derivative
DERIVATIVE_FLOOR = 1e-12

#: largest admissible |inverse(forward(tau)) - tau| on strip nodes
INVERSE_TOL = 1e-10

#: largest admissible argument jump of the sqrt argument between nodes
BRANCH_JUMP = np.pi / 2


@dataclass(frozen=True)
class HolomorphicChart:
    """Chart tau -> z(tau) with its derivative and inverse.

    All three maps are closed forms supplied by the caller (for the
    CLI: expression strings); the derivative is given, not
    differentiated numerically.  Their values on the strip are computed
    once per chart and kept read-only.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    strip: GridSpec

    def validate(self) -> None:
        """Invertibility, injectivity and non-degeneracy on strip nodes."""
        self.derivative_on_strip  # computing it checks the floor
        zm = self.mapped_nodes
        back = np.asarray(self.inverse(zm), dtype=complex)
        gap = np.max(np.abs(back - self.strip.z))
        if gap > INVERSE_TOL:
            raise DegenerateChartError(f"inverse(forward(tau)) deviates by {gap:.3e}")
        flat = np.sort_complex(zm.ravel())
        scale = max(1.0, float(np.max(np.abs(flat))))
        if np.min(np.abs(np.diff(flat))) < 1e-12 * scale:
            raise DegenerateChartError("chart is not injective on the sampled nodes")

    @cached_property
    def derivative_on_strip(self) -> np.ndarray:
        """dz/dtau at the strip nodes; raises where it drops below the floor."""
        w = _on_strip(self.strip, self.derivative(self.strip.z))
        if np.min(np.abs(w)) < DERIVATIVE_FLOOR:
            raise DegenerateChartError(
                f"chart derivative reaches {np.min(np.abs(w)):.3e}")
        return w

    @cached_property
    def sqrt_derivative(self) -> np.ndarray:
        """sqrt(dz/dtau) on the strip, its branch tracked from the center."""
        s = tracked_sqrt(self.derivative_on_strip)
        s.flags.writeable = False
        return s

    @cached_property
    def mapped_nodes(self) -> np.ndarray:
        """z(tau) at the strip nodes."""
        return _on_strip(self.strip, self.forward(self.strip.z))

    def sample(self, fn: Callable[[np.ndarray], np.ndarray]) -> Field:
        """Sample a function of z at the mapped strip nodes."""
        return Field(self.strip, np.broadcast_to(
            np.asarray(fn(self.mapped_nodes), dtype=complex),
            self.strip.shape()).copy())


def _on_strip(strip: GridSpec, values) -> np.ndarray:
    """Values broadcast to the strip's shape, as a read-only complex array."""
    out = np.broadcast_to(np.asarray(values, dtype=complex), strip.shape()).copy()
    out.flags.writeable = False
    return out


def tracked_sqrt(w: np.ndarray) -> np.ndarray:
    """Square root with the branch tracked continuously from the center.

    The argument of w is unwrapped along the center row and then along
    every column; a jump above pi/2 between neighbors means the samples
    cannot pin down a continuous branch and raises BranchError.
    """
    jump_x = np.angle(w[1:, :] / w[:-1, :])
    jump_y = np.angle(w[:, 1:] / w[:, :-1])
    worst = max(np.max(np.abs(jump_x), initial=0.0),
                np.max(np.abs(jump_y), initial=0.0))
    if worst > BRANCH_JUMP:
        raise BranchError(
            f"argument of the sqrt argument jumps by {worst:.3f} rad between "
            f"adjacent nodes (limit {BRANCH_JUMP:.3f})")
    ic, jc = w.shape[0] // 2, w.shape[1] // 2
    phase = np.empty(w.shape)
    row = np.zeros(w.shape[0])
    row[ic] = np.angle(w[ic, jc])
    row[ic + 1:] = row[ic] + np.cumsum(jump_x[ic:, jc])
    row[:ic] = row[ic] - np.cumsum(jump_x[:ic, jc][::-1])[::-1]
    phase[:, jc] = row
    phase[:, jc + 1:] = row[:, None] + np.cumsum(jump_y[:, jc:], axis=1)
    phase[:, :jc] = row[:, None] - np.cumsum(jump_y[:, :jc][:, ::-1], axis=1)[:, ::-1]
    return np.sqrt(np.abs(w)) * np.exp(0.5j * phase)


def pushforward_u(u_on_mapped: Field, chart: HolomorphicChart) -> Field:
    """Coefficient in strip coordinates: u(z(tau)) * |dz/dtau|."""
    return Field(chart.strip, u_on_mapped.values * np.abs(chart.derivative_on_strip))


def pushforward_psi(psi_on_mapped: Field, chart: HolomorphicChart) -> Field:
    """Solution in strip coordinates: psi(z(tau)) * sqrt(dz/dtau), the
    square root anchored to the principal branch at the center node."""
    return Field(chart.strip, psi_on_mapped.values * chart.sqrt_derivative)


@dataclass(frozen=True)
class CommutativityResult:
    """Node-wise deviations between transform-then-map and map-then-transform."""

    u_deviation: float
    psi_deviation: float


def check_commutativity(chart: HolomorphicChart,
                        u_of_z: Callable,
                        f1_of_z: Callable, f1_plus_of_z: Callable,
                        psi_of_z: Callable,
                        omegas: tuple[Callable, Callable],
                        basepoint: tuple[int, int] = (0, 0)) -> CommutativityResult:
    """Compare transforming before and after the change of variables.

    Route A transforms on the curved side (sampled at mapped nodes,
    with identified potentials) and pushes the results forward; route B
    pushes coefficient, seeds and probe forward and transforms on the
    strip.  ``omegas`` = (ff, pf) are closed forms of z: route A's
    curved-side potentials, each of which fixes the constant of route
    B's quadrature at ``basepoint``.
    """
    chart.validate()
    strip = chart.strip
    u_d, f1_d, f1p_d, psi_d = (chart.sample(fn) for fn in
                               (u_of_z, f1_of_z, f1_plus_of_z, psi_of_z))
    f1_s, f1p_s, psi_s = (pushforward_psi(f, chart) for f in (f1_d, f1p_d, psi_d))
    om_ff_a, om_pf_a = (Potential.from_values(strip, fn(chart.mapped_nodes)) for fn in omegas)
    om_ff_b, om_pf_b = (omega(psi_b, f1p_s, basepoint, 1j * closed.im[basepoint])
                        for psi_b, closed in ((f1_s, om_ff_a), (psi_s, om_pf_a)))

    # route A: transform at mapped nodes, then push forward
    m_a = moutard_simple(u_d, f1_d, f1p_d, om_ff_a)
    u_route_a = pushforward_u(m_a.u_tilde, chart).values
    psi_route_a = pushforward_psi(m_a.map_psi(psi_d, om_pf_a), chart).values

    # route B: push forward, then transform on the strip
    m_b = moutard_simple(pushforward_u(u_d, chart), f1_s, f1p_s, om_ff_b)
    u_route_b = m_b.u_tilde.values
    psi_route_b = m_b.map_psi(psi_s, om_pf_b).values

    dev_u = float(_peak_abs(strip, u_route_a - u_route_b))
    dev_psi = float(_peak_abs(strip, psi_route_a - psi_route_b))
    return CommutativityResult(dev_u, dev_psi)
