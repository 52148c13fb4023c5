"""Stabilizing controllers for the non-hyperbolic origin.

The baseline controller cancels the constant slow drift, injects the fast
state into the first slow equation and applies diagonal state feedback
with gains scaled by eps^(-k/(2k-1)); it is the blow-down of a linear
design in the family chart. An optional polynomial compensation term
enlarges the region of attraction by steering trajectories in the z < 0
directional chart toward a target chi*. A 1/eps high-gain benchmark is
included for comparison.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blowup import FamilyChartState, from_family_chart
from .normal_form import ControlInput, NormalFormSystem, State, _vec, eval_g

__all__ = [
    "Theorem2Params",
    "Theorem3Params",
    "HighGainParams",
    "thm2_control",
    "thm3_compensation",
    "full_control",
    "chart_controller_family",
    "highgain_control",
    "closed_loop_jacobian_origin",
    "eigenvalues_origin",
    "closed_loop_rhs_family",
]


@dataclass(frozen=True)
class Theorem2Params:
    """Baseline controller constants.

    ``c`` holds the slow drift at the origin, f(0, 0, 0); ``a`` the diagonal
    feedback gains (all positive); ``b`` the positive gain on the fast state,
    applied to the first slow equation only.
    """

    c: np.ndarray
    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "c", _vec(self.c, name="c"))
        object.__setattr__(self, "a", _vec(self.a, name="a"))
        object.__setattr__(self, "b", float(self.b))
        if self.c.size != self.a.size:
            raise ValueError("c and a must have the same length")
        if not np.all(self.a > 0):
            raise ValueError("all entries of a must be > 0")
        if not self.b > 0:
            raise ValueError("b must be > 0")


@dataclass(frozen=True)
class Theorem3Params:
    """Compensation gains K >= 0 and chart target chi*.

    When any gain is active the target must satisfy chi*_1 < -1 with the
    remaining components zero, so the attracting point in the z < 0 chart
    sits strictly below the critical manifold.
    """

    K: np.ndarray
    chi_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", _vec(self.K, name="K"))
        object.__setattr__(self, "chi_star", _vec(self.chi_star, name="chi_star"))
        if self.K.size != self.chi_star.size:
            raise ValueError("K and chi_star must have the same length")
        if np.any(self.K < 0):
            raise ValueError("all entries of K must be >= 0")
        if np.any(self.K > 0):
            if not self.chi_star[0] < -1:
                raise ValueError("chi_star[0] must be < -1 when compensation is on")
            if self.chi_star.size > 1 and np.any(self.chi_star[1:] != 0):
                raise ValueError("chi_star[j] must be 0 for j >= 2")


@dataclass(frozen=True)
class HighGainParams:
    """1/eps benchmark gains; ``constants`` optionally cancels f(0,0,0)."""

    a: np.ndarray
    b: float
    epsilon: float
    constants: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a, name="a"))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.constants is not None:
            object.__setattr__(self, "constants", _vec(self.constants, name="constants"))
            if self.constants.size != self.a.size:
                raise ValueError("constants and a must have the same length")
        if not (np.all(self.a > 0) and self.b > 0):
            raise ValueError("high-gain parameters must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")


def _gain_powers(epsilon: float, k: int) -> tuple[float, float]:
    """(eps^(-1/(2k-1)), eps^(-k/(2k-1))) used by the baseline controller."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    inv = 1.0 / epsilon
    return inv ** (1.0 / (2 * k - 1)), inv ** (k / (2 * k - 1))


def _thm2_law(epsilon: float, k: int, p: Theorem2Params):
    """Baseline law as a closure (x, z) -> u over plain floats.

    The gain powers and constants are taken once, so each evaluation only
    does the arithmetic; every caller of the baseline law goes through it.
    """
    pz, px = _gain_powers(epsilon, k)
    c, a, bz = p.c.tolist(), p.a.tolist(), p.b * pz

    def law(x, z: float) -> list[float]:
        u = [-ci - px * ai * xi for ci, ai, xi in zip(c, a, x)]
        u[0] += bz * z
        return u

    return law


def _thm3_law(k: int, p: Theorem3Params):
    """Compensation law as a closure (x, z) -> w over plain floats."""
    terms = tuple(zip(p.K.tolist(), range(k + 1, 2, -1), p.chi_star.tolist()))

    def law(x, z: float) -> list[float]:
        return [Ki * (xi * z + (-z) ** n * chi)
                for (Ki, n, chi), xi in zip(terms, x)]

    return law


def _highgain_law(p: HighGainParams):
    """1/eps benchmark law as a closure (x, z) -> v over plain floats."""
    a, b, eps = p.a.tolist(), p.b, p.epsilon
    const = p.constants.tolist() if p.constants is not None else [0.0] * len(a)

    def law(x, z: float) -> list[float]:
        v = [-ai * xi / eps for ai, xi in zip(a, x)]
        v[0] += b * z / eps
        return [vi - ci for vi, ci in zip(v, const)]

    return law


def thm2_control(s: State, epsilon: float, k: int, p: Theorem2Params) -> ControlInput:
    """Baseline stabilizer u = -c + b eps^(-1/(2k-1)) z e1 - eps^(-k/(2k-1)) a*x.

    The + sign on b is the one consistent with the family-chart design and
    the Hurwitz closed-loop spectrum (char. polynomial lambda^2 + a1 lambda + b).
    """
    x = _vec(s.x, k - 1, "x")
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")
    return ControlInput(_thm2_law(epsilon, k, p)(x.tolist(), float(s.z)))


def thm3_compensation(s: State, k: int, p: Theorem3Params) -> ControlInput:
    """Polynomial compensation w_i = K_i (x_i z + (-z)^(k-i+2) chi*_i)."""
    x = _vec(s.x, k - 1, "x")
    if p.K.size != k - 1:
        raise ValueError(f"params sized for k = {p.K.size + 1}, got k = {k}")
    return ControlInput(_thm3_law(k, p)(x.tolist(), float(s.z)))


def full_control(s: State, epsilon: float, k: int, p2: Theorem2Params,
                 p3: Theorem3Params) -> ControlInput:
    """Baseline controller plus compensation; K = 0 reduces to the baseline."""
    x = _vec(s.x, k - 1, "x").tolist()
    z = float(s.z)
    u, w = _thm2_law(epsilon, k, p2)(x, z), _thm3_law(k, p3)(x, z)
    return ControlInput([ui + wi for ui, wi in zip(u, w)])


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
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")
    if c.r_bar == 0 and k >= 3:
        raise ValueError("chart controller is singular at r_bar = 0 for k >= 3")
    u = np.empty(k - 1)
    u[0] = -p.c[0] - p.a[0] * x_bar[0] + p.b * c.z_bar
    for i in range(1, k - 1):
        u[i] = -p.c[i] - c.r_bar ** (-i) * p.a[i] * x_bar[i]
    return u


def highgain_control(s: State, p: HighGainParams) -> ControlInput:
    """Benchmark v_i = (1/eps)(-a_i x_i + b z delta_1i), plus optional constants.

    Without ``constants`` the closed loop settles at an O(eps)-shifted
    equilibrium whenever f(0,0,0) != 0; the offset is reported by the
    example scenarios rather than hidden.
    """
    x = _vec(s.x, name="x")
    if p.a.size != x.size:
        raise ValueError(f"params sized for {p.a.size} slow states, got {x.size}")
    return ControlInput(_highgain_law(p)(x.tolist(), float(s.z)))


def closed_loop_jacobian_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Jacobian of the r_bar = 0 closed-loop family-chart field at the origin.

    Block structure [[-diag(a), b e1], [-e1^T, 0]].
    """
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")
    J = np.zeros((k, k))
    J[: k - 1, : k - 1] = -np.diag(p.a)
    J[0, k - 1] = p.b
    J[k - 1, 0] = -1.0
    return J


def eigenvalues_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Closed-form spectrum {(-a1 +/- sqrt(a1^2 - 4b))/2, -a2, ..., -a_{k-1}}.

    All real parts are negative for a > 0, b > 0.
    """
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")
    disc = complex(p.a[0] ** 2 - 4.0 * p.b) ** 0.5
    lam = np.empty(k, dtype=complex)
    lam[0] = (-p.a[0] + disc) / 2.0
    lam[1] = (-p.a[0] - disc) / 2.0
    lam[2:] = -p.a[1:]
    return lam


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
    :func:`closed_loop_jacobian_origin`.
    """
    k = sys.k
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")
    state, eps = from_family_chart(c, k)
    f = np.asarray(sys.slow_f(state.x, state.z, eps), dtype=float)
    dx_bar = np.empty(k - 1)
    dx_bar[0] = f[0] - p.c[0] - p.a[0] * x_bar[0] + p.b * c.z_bar
    for i in range(1, k - 1):
        dx_bar[i] = c.r_bar**i * (f[i] - p.c[i]) - p.a[i] * x_bar[i]
    return 0.0, dx_bar, eval_g(x_bar, c.z_bar, k)
