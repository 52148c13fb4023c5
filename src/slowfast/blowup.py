"""Quasihomogeneous blow-up charts and desingularized vector fields.

The degenerate point at the origin is inflated with weights
(k, k-1, ..., 2) for the slow states, 1 for the fast state and
gamma = 2k-1 for epsilon. Two charts are provided:

* the family chart, which fixes the epsilon direction; its radius
  r_bar = eps^(1/(2k-1)) is constant along trajectories, and
* the directional chart covering z < 0, used to track trajectories
  that leave a neighborhood of the origin with z decreasing.

Desingularized fields are the blown-up fields divided by the (k-1)-th
power of the radius, which makes them smooth up to the blow-up sphere.
The family chart carries the baseline law's linear design: its chart
controller and its closed-loop field, regular on the sphere r_bar = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import Theorem2Params, _check_order
from .normal_form import NormalFormSystem, State, _vec, eval_g

__all__ = [
    "FamilyChartState",
    "DirectionalChartState",
    "to_family_chart",
    "from_family_chart",
    "chart_controller_family",
    "closed_loop_rhs_family",
    "to_directional_zneg",
    "from_directional_zneg",
    "desing_rhs_directional",
    "family_time_rescale",
]


@dataclass(frozen=True)
class FamilyChartState:
    """Coordinates (r_bar, x_bar, z_bar) in the chart fixing epsilon_bar = 1."""

    r_bar: float
    x_bar: np.ndarray
    z_bar: float

    def __post_init__(self):
        object.__setattr__(self, "r_bar", float(self.r_bar))
        object.__setattr__(self, "x_bar", _vec(self.x_bar, name="x_bar"))
        object.__setattr__(self, "z_bar", float(self.z_bar))
        if not self.r_bar >= 0:
            raise ValueError(f"r_bar must be >= 0, got {self.r_bar}")


@dataclass(frozen=True)
class DirectionalChartState:
    """Coordinates (rho, chi, mu) in the chart covering z < 0."""

    rho: float
    chi: np.ndarray
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "chi", _vec(self.chi, name="chi"))
        object.__setattr__(self, "mu", float(self.mu))
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")


def to_family_chart(s: State, epsilon: float, k: int) -> FamilyChartState:
    """Blow up (x, z, eps) with eps > 0 into the family chart."""
    if not epsilon > 0:
        raise ValueError(f"family chart requires epsilon > 0, got {epsilon}")
    x = _vec(s.x, k - 1, "x")
    r = epsilon ** (1.0 / (2 * k - 1))
    x_bar = np.array([x[i] / r ** (k - i) for i in range(k - 1)])
    return FamilyChartState(r_bar=r, x_bar=x_bar, z_bar=s.z / r)


def from_family_chart(c: FamilyChartState, k: int) -> tuple[State, float]:
    """Blow down; r_bar = 0 (the sphere) maps to the origin with eps = 0."""
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    r = c.r_bar
    x = np.array([r ** (k - i) * x_bar[i] for i in range(k - 1)])
    return State(x=x, z=r * c.z_bar), r ** (2 * k - 1)


def chart_controller_family(c: FamilyChartState, k: int,
                            p: Theorem2Params) -> np.ndarray:
    """Family-chart controller u_bar whose blow-down is the baseline u.

    u_bar_1 = -c_1 - a_1 x_bar_1 + b z_bar and
    u_bar_i = -c_i - r_bar^(1-i) a_i x_bar_i for i >= 2. The r_bar^(1-i)
    factor is singular on the sphere, so r_bar = 0 is rejected for k >= 3;
    the closed-loop field itself stays regular there, see
    :func:`closed_loop_rhs_family`.
    """
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    _check_order(k, p)
    if c.r_bar == 0 and k >= 3:
        raise ValueError("chart controller is singular at r_bar = 0 for k >= 3")
    u = np.empty(k - 1)
    u[0] = -p.c[0] - p.a[0] * x_bar[0] + p.b * c.z_bar
    for i in range(1, k - 1):
        u[i] = -p.c[i] - c.r_bar ** (-i) * p.a[i] * x_bar[i]
    return u


def closed_loop_rhs_family(
    c: FamilyChartState, sys: NormalFormSystem, p: Theorem2Params
) -> tuple[float, np.ndarray, float]:
    """Closed-loop desingularized family-chart field, regular at r_bar = 0.

    The singular r_bar^(1-i) of the chart controller cancels against the
    r_bar^(i-1) prefactor of x_bar_i', leaving

        x_bar_1' = f_bar_1 - c_1 - a_1 x_bar_1 + b z_bar
        x_bar_i' = r_bar^(i-1) (f_bar_i - c_i) - a_i x_bar_i,  i >= 2,

    with f_bar the slow field at the blown-down point. On the sphere
    (r_bar = 0) this reduces to the linear design whose Jacobian is
    :func:`control.closed_loop_jacobian_origin`.
    """
    k = sys.k
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    _check_order(k, p)
    state, eps = from_family_chart(c, k)
    f = np.asarray(sys.slow_f(state.x, state.z, eps), dtype=float)
    dx_bar = np.empty(k - 1)
    dx_bar[0] = f[0] - p.c[0] - p.a[0] * x_bar[0] + p.b * c.z_bar
    for i in range(1, k - 1):
        dx_bar[i] = c.r_bar**i * (f[i] - p.c[i]) - p.a[i] * x_bar[i]
    return 0.0, dx_bar, eval_g(x_bar, c.z_bar, k)


def to_directional_zneg(s: State, epsilon: float, k: int) -> DirectionalChartState:
    """Chart coordinates (rho, chi, mu) of a point with z < 0 and eps >= 0."""
    if not s.z < 0:
        raise ValueError(f"directional chart covers z < 0 only, got z = {s.z}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    x = _vec(s.x, k - 1, "x")
    rho = -s.z
    chi = np.array([x[i] / rho ** (k - i) for i in range(k - 1)])
    return DirectionalChartState(rho=rho, chi=chi, mu=epsilon / rho ** (2 * k - 1))


def from_directional_zneg(c: DirectionalChartState, k: int) -> tuple[State, float]:
    """Blow down the directional chart: z = -rho, x_i = rho^(k-i+1) chi_i."""
    chi = _vec(c.chi, k - 1, "chi")
    rho = c.rho  # > 0, checked when the state was made
    x = np.array([rho ** (k - i) * chi[i] for i in range(k - 1)])
    return State(x=x, z=-rho), rho ** (2 * k - 1) * c.mu


def _radial_growth(chi: np.ndarray, k: int) -> float:
    """F(chi) = (-1)^k - sum_i (-1)^i chi_i, the radial rate of the z<0 chart.

    Obtained by pushing z' = g through rho = -z and dividing by rho^(k-1);
    reduces to 1 - sum_i (-1)^i chi_i for k even.
    """
    sign = -1.0
    s = (-1.0) ** k
    for i in range(k - 1):
        s -= sign * chi[i]
        sign = -sign
    return s


def desing_rhs_directional(
    c: DirectionalChartState,
    sys: NormalFormSystem,
    controller,
) -> tuple[float, np.ndarray, float]:
    """Desingularized directional-chart field (rho', chi', mu').

    rho' = rho F(chi), mu' = -(2k-1) mu F(chi) and

        chi_i' = rho^(i-1) mu (f_i + u_i) - (k-i+1) F(chi) chi_i,

    with f + u evaluated at the blown-down point. The controller receives
    original coordinates (x, z, eps) and must include any compensation term.
    """
    k = sys.k
    chi = _vec(c.chi, k - 1, "chi")
    state, eps = from_directional_zneg(c, k)
    f = np.asarray(sys.slow_f(state.x, state.z, eps), dtype=float)
    u = np.asarray(controller(state.x, state.z, eps), dtype=float)
    if u.shape != (k - 1,):
        raise ValueError(f"controller returned shape {u.shape}")
    F = _radial_growth(chi, k)
    rho, mu = c.rho, c.mu
    dchi = np.array(
        [rho**i * mu * (f[i] + u[i]) - (k - i) * F * chi[i] for i in range(k - 1)]
    )
    return rho * F, dchi, -(2 * k - 1) * mu * F


def family_time_rescale(epsilon: float, k: int) -> float:
    """Slow time per unit of desingularized family-chart time.

    Dividing the blown-up fast-time field by r_bar^(k-1) and converting
    fast to slow time gives t = eps^(k/(2k-1)) * s.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return epsilon ** (k / (2 * k - 1))
