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
from .normal_form import NormalFormSystem, _vec, eval_g, parse_expression, walk

__all__ = [
    "Theorem2Params",
    "Theorem3Params",
    "thm2_law",
    "thm3_law",
    "highgain_law",
    "evaluate",
    "chart_controller_family",
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
        if not np.all(np.isfinite([*self.c, *self.a, self.b])):
            raise ValueError("c, a and b must be finite")
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
        if not np.all(np.isfinite([*self.K, *self.chi_star])):
            raise ValueError("K and chi_star must be finite")
        if np.any(self.K < 0):
            raise ValueError("all entries of K must be >= 0")
        if np.any(self.K > 0):
            if not self.chi_star[0] < -1:
                raise ValueError("chi_star[0] must be < -1 when compensation is on")
            if self.chi_star.size > 1 and np.any(self.chi_star[1:] != 0):
                raise ValueError("chi_star[j] must be 0 for j >= 2")


def _gain_powers(epsilon: float, k: int) -> tuple[float, float]:
    """(eps^(-1/(2k-1)), eps^(-k/(2k-1))) used by the baseline controller."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    inv = 1.0 / epsilon
    return inv ** (1.0 / (2 * k - 1)), inv ** (k / (2 * k - 1))


def thm2_law(epsilon: float, k: int, p: Theorem2Params) -> list:
    """Baseline law as checked expression trees u_1..u_m in x1..xm and z.

    u_i = -c_i - (px a_i) x_i, plus (b pz) z on u_1, with the gain powers
    (pz, px) of :func:`_gain_powers` taken once as constants. Closed loops
    compile these trees and :func:`evaluate` walks them, so this is the one
    definition of the law. The + sign on b is the one consistent with the
    family-chart design and the Hurwitz closed-loop spectrum (characteristic
    polynomial lambda^2 + a1 lambda + b).
    """
    pz, px = _gain_powers(epsilon, k)
    bz = p.b * pz
    return [parse_expression("-c - px * a * x" + (" + bz * z" if i == 1 else ""),
                             {"c": c, "px": px, "a": a, "bz": bz, "x": f"x{i}", "z": "z"})
            for i, (c, a) in enumerate(zip(p.c.tolist(), p.a.tolist()), 1)]


def thm3_law(k: int, p: Theorem3Params) -> list:
    """Compensation law as checked trees w_i = K_i (x_i z + (-z)^(k-i+2) chi*_i)."""
    terms = zip(p.K.tolist(), range(k + 1, 2, -1), p.chi_star.tolist())
    return [parse_expression("K * (x * z + (-z) ** n * chi)",
                             {"K": K, "n": n, "chi": chi, "x": f"x{i}", "z": "z"})
            for i, (K, n, chi) in enumerate(terms, 1)]


def highgain_law(a, b: float, epsilon: float, constants=None) -> list:
    """1/eps benchmark law as checked trees v_i = -a_i x_i / eps (+ b z / eps) - c_i.

    The constants c, zero by default, optionally cancel f(0, 0, 0). Without
    them the closed loop settles at an O(eps)-shifted equilibrium whenever
    f(0, 0, 0) != 0; the example scenarios report that offset.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    const = [0.0] * len(a) if constants is None else constants
    return [parse_expression("-a * x / eps" + (" + b * z / eps" if i == 1 else "") + " - c",
                             {"a": ai, "b": b, "c": c, "eps": epsilon,
                              "x": f"x{i}", "z": "z"})
            for i, (ai, c) in enumerate(zip(a, const), 1)]


def evaluate(law: list, x, z: float) -> list[float]:
    """The law trees walked at the state (x, z), as Python floats.

    ``x`` must have one entry per control. Compiling costs about half a
    millisecond a call, which the verification suites, with their thousands
    of single evaluations, should not pay.
    """
    env = {f"x{i}": xi for i, xi in enumerate(_vec(x, len(law), "x").tolist(), 1)}
    env["z"] = float(z)
    return [walk(tree, env) for tree in law]


def _check_order(k: int, p: Theorem2Params) -> None:
    if p.a.size != k - 1:
        raise ValueError(f"params sized for k = {p.a.size + 1}, got k = {k}")


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


def closed_loop_jacobian_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Jacobian of the r_bar = 0 closed-loop family-chart field at the origin.

    Block structure [[-diag(a), b e1], [-e1^T, 0]].
    """
    _check_order(k, p)
    J = np.zeros((k, k))
    J[: k - 1, : k - 1] = -np.diag(p.a)
    J[0, k - 1] = p.b
    J[k - 1, 0] = -1.0
    return J


def eigenvalues_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Closed-form spectrum {(-a1 +/- sqrt(a1^2 - 4b))/2, -a2, ..., -a_{k-1}}.

    All real parts are negative for a > 0, b > 0.
    """
    _check_order(k, p)
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
    _check_order(k, p)
    state, eps = from_family_chart(c, k)
    f = np.asarray(sys.slow_f(state.x, state.z, eps), dtype=float)
    dx_bar = np.empty(k - 1)
    dx_bar[0] = f[0] - p.c[0] - p.a[0] * x_bar[0] + p.b * c.z_bar
    for i in range(1, k - 1):
        dx_bar[i] = c.r_bar**i * (f[i] - p.c[i]) - p.a[i] * x_bar[i]
    return 0.0, dx_bar, eval_g(x_bar, c.z_bar, k)
