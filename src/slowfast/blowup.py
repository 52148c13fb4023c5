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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .normal_form import NormalFormSystem, State, _vec, eval_g

__all__ = [
    "Weights",
    "FamilyChartState",
    "DirectionalChartState",
    "weights_for",
    "to_family_chart",
    "from_family_chart",
    "to_directional_zneg",
    "from_directional_zneg",
    "desing_rhs_family",
    "desing_rhs_directional",
    "family_time_rescale",
]

# chart controller in family-chart coordinates: (r_bar, x_bar, z_bar) -> u_bar
FamilyChartController = Callable[[float, np.ndarray, float], np.ndarray]
# controller in original coordinates: (x, z, epsilon) -> u
OriginalController = Callable[[np.ndarray, float, float], np.ndarray]


@dataclass(frozen=True)
class Weights:
    """Quasihomogeneous weights used by both charts."""

    k: int
    alpha: tuple[int, ...]  # weight k-i+1 of slow coordinate x_i
    z_weight: int
    gamma: int  # weight of epsilon

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


def weights_for(k: int) -> Weights:
    """Weight tuple (k, k-1, ..., 2 | 1 | 2k-1) for degeneracy order k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return Weights(k=k, alpha=tuple(k - i + 1 for i in range(1, k)), z_weight=1,
                   gamma=2 * k - 1)


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
    rho = c.rho
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    x = np.array([rho ** (k - i) * chi[i] for i in range(k - 1)])
    return State(x=x, z=-rho), rho ** (2 * k - 1) * c.mu


def desing_rhs_family(
    c: FamilyChartState,
    sys: NormalFormSystem,
    chart_controller: FamilyChartController,
) -> tuple[float, np.ndarray, float]:
    """Desingularized family-chart field (r_bar', x_bar', z_bar').

    x_bar_i' = r_bar^(i-1) (f_bar_i + u_bar_i) with f_bar the slow field
    at the blown-down point and eps = r_bar^(2k-1); z_bar' keeps the form
    of g; r_bar is a first integral. Well defined at r_bar = 0 provided the
    chart controller is finite there.
    """
    k = sys.k
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    r = c.r_bar
    state, eps = from_family_chart(c, k)
    f = np.asarray(sys.slow_f(state.x, state.z, eps), dtype=float)
    u_bar = np.asarray(chart_controller(r, x_bar, c.z_bar), dtype=float)
    if u_bar.shape != (k - 1,):
        raise ValueError(f"chart controller returned shape {u_bar.shape}")
    if not np.all(np.isfinite(u_bar)):
        raise ValueError("chart controller returned non-finite values")
    dx_bar = np.array([r**i * (f[i] + u_bar[i]) for i in range(k - 1)])
    dz_bar = eval_g(x_bar, c.z_bar, k)
    return 0.0, dx_bar, dz_bar


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
    controller: OriginalController,
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
