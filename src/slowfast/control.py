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

import math
from dataclasses import dataclass

import numpy as np

from .expr import parse_expression
from .normal_form import _vec, evaluate

__all__ = ["Theorem2Params", "Theorem3Params", "THM2_TEMPLATE", "thm2_template", "thm2_law",
           "thm3_law", "highgain_law", "evaluate", "closed_loop_jacobian_origin",
           "eigenvalues_origin"]


def _floats(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of Python floats with -0.0 stored as 0.0, so that
    records built from equal numbers compare, hash and compile alike."""
    return tuple(v + 0.0 for v in _vec(values, name=name).tolist())


@dataclass(frozen=True)
class Theorem2Params:
    """Baseline controller constants.

    ``c`` holds the slow drift at the origin, f(0, 0, 0); ``a`` the diagonal
    feedback gains (all positive); ``b`` the positive gain on the fast state,
    applied to the first slow equation only. The gains are tuples of floats,
    so the record compares and hashes by its numbers.
    """

    c: tuple[float, ...]
    a: tuple[float, ...]
    b: float

    def __post_init__(self):
        object.__setattr__(self, "c", _floats(self.c, "c"))
        object.__setattr__(self, "a", _floats(self.a, "a"))
        object.__setattr__(self, "b", float(self.b))
        if len(self.c) != len(self.a):
            raise ValueError("c and a must have the same length")
        if not all(map(math.isfinite, (*self.c, *self.a, self.b))):
            raise ValueError("c, a and b must be finite")
        if not all(v > 0 for v in self.a):
            raise ValueError("all entries of a must be > 0")
        if not self.b > 0:
            raise ValueError("b must be > 0")


@dataclass(frozen=True)
class Theorem3Params:
    """Compensation gains K >= 0 and chart target chi*, as tuples of floats.

    When any gain is active the target must satisfy chi*_1 < -1 with the
    remaining components zero, so the attracting point in the z < 0 chart
    sits strictly below the critical manifold.
    """

    K: tuple[float, ...]
    chi_star: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "K", _floats(self.K, "K"))
        object.__setattr__(self, "chi_star", _floats(self.chi_star, "chi_star"))
        if len(self.K) != len(self.chi_star):
            raise ValueError("K and chi_star must have the same length")
        if not all(map(math.isfinite, (*self.K, *self.chi_star))):
            raise ValueError("K and chi_star must be finite")
        if any(v < 0 for v in self.K):
            raise ValueError("all entries of K must be >= 0")
        if any(v > 0 for v in self.K):
            if not self.chi_star[0] < -1:
                raise ValueError("chi_star[0] must be < -1 when compensation is on")
            if any(v != 0 for v in self.chi_star[1:]):
                raise ValueError("chi_star[j] must be 0 for j >= 2")


#: the baseline law's text for u_1 and for u_i, i >= 2, in which px and pz
#: are the gain powers eps^(-k/(2k-1)) and eps^(-1/(2k-1)): numbers in
#: :func:`thm2_law`, names in the blow-up
THM2_TEMPLATE = ("-c - px * a * x + b * pz * z", "-c - px * a * x")


def thm2_template(p: Theorem2Params, px, pz) -> list:
    """:data:`THM2_TEMPLATE` as checked trees u_1..u_m in x1..xm and z, with
    px and pz bound to numbers or, given as strings, renamed to locals."""
    first, rest = THM2_TEMPLATE
    return [parse_expression(first if i == 1 else rest,
                             {"c": c, "px": px, "a": a, "b": p.b, "pz": pz, "x": f"x{i}",
                              "z": "z"})
            for i, (c, a) in enumerate(zip(p.c, p.a), 1)]


def thm2_law(epsilon: float, k: int, p: Theorem2Params) -> list:
    """Baseline law as checked expression trees u_1..u_m in x1..xm and z.

    u_i = -c_i - (px a_i) x_i, plus (b pz) z on u_1, with the gain powers
    pz = eps^(-1/(2k-1)) and px = eps^(-k/(2k-1)) taken once as constants.
    Closed loops compile these trees and :func:`evaluate` walks them, so
    :data:`THM2_TEMPLATE` is the one definition of the law. The + sign on b
    is the one consistent with the family-chart design and the Hurwitz
    closed-loop spectrum (characteristic polynomial lambda^2 + a1 lambda + b).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    inv = 1.0 / epsilon
    return thm2_template(p, inv ** (k / (2 * k - 1)), inv ** (1.0 / (2 * k - 1)))


def thm3_law(k: int, p: Theorem3Params) -> list:
    """Compensation law as checked trees w_i = K_i (x_i z + (-z)^(k-i+2) chi*_i)
    of k - 1 gains (else ValueError)."""
    _check_order(k, p.K)
    terms = zip(p.K, range(k + 1, 2, -1), p.chi_star)
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


def _check_order(k: int, gains) -> None:
    if len(gains) != k - 1:
        raise ValueError(f"params sized for k = {len(gains) + 1}, got k = {k}")


def closed_loop_jacobian_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Jacobian of the r_bar = 0 closed-loop family-chart field at the origin.

    Block structure [[-diag(a), b e1], [-e1^T, 0]].
    """
    _check_order(k, p.a)
    J = np.zeros((k, k))
    J[: k - 1, : k - 1] = -np.diag(p.a)
    J[0, k - 1] = p.b
    J[k - 1, 0] = -1.0
    return J


def eigenvalues_origin(k: int, p: Theorem2Params) -> np.ndarray:
    """Closed-form spectrum {(-a1 +/- sqrt(a1^2 - 4b))/2, -a2, ..., -a_{k-1}}.

    All real parts are negative for a > 0, b > 0.
    """
    _check_order(k, p.a)
    disc = complex(p.a[0] ** 2 - 4.0 * p.b) ** 0.5
    lam = np.empty(k, dtype=complex)
    lam[0] = (-p.a[0] + disc) / 2.0
    lam[1] = (-p.a[0] - disc) / 2.0
    lam[2:] = [-a for a in p.a[1:]]
    return lam
