"""Slow-fast control systems with a polynomial unfolding-type fast field.

The model class has k-1 slow states x, one fast state z and a fast field

    g(x, z) = -(z^k + sum_i x_i z^(i-1)),   i = 1..k-1,

so the origin is the most degenerate point of the critical manifold
S = {g = 0}. Control enters additively in the slow equations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SlowField",
    "NormalFormSystem",
    "State",
    "ControlInput",
    "eval_g",
    "g_partial_z",
    "eval_rhs_fast",
    "eval_rhs_slow",
    "degeneracy_order",
    "validate",
    "on_manifold_tolerance",
]

# (x, z, epsilon) -> dx/dt contribution of the uncontrolled slow dynamics:
# sequence in, sequence out (closed loops pass x as a list of floats, the
# analysis functions as an array)
SlowField = Callable[[Sequence[float], float, float], Sequence[float]]

#: scale factor of the |g| <= tol * (1 + ||(x,z)||^k) manifold membership test
MANIFOLD_TOL = 1e-9


def _vec(x, n: int | None = None, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = np.atleast_1d(v.squeeze())
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {np.shape(x)}")
    if n is not None and v.size != n:
        raise ValueError(f"{name} must have length {n}, got {v.size}")
    return v


@dataclass(frozen=True)
class State:
    """Point (x, z) of the slow-fast phase space."""

    x: np.ndarray
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x, name="x"))
        object.__setattr__(self, "z", float(self.z))


@dataclass(frozen=True)
class ControlInput:
    """Control vector acting on the slow states only."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _vec(self.u, name="u"))


@dataclass(frozen=True)
class NormalFormSystem:
    """Controlled slow-fast system with degeneracy order ``k``.

    ``slow_f`` evaluates the uncontrolled slow dynamics f(x, z, epsilon) and
    must return a length k-1 vector. The instance is immutable; use
    :func:`validate` to collect constraint violations instead of raising.
    """

    k: int
    epsilon: float
    slow_f: SlowField = field(repr=False)

    @property
    def n_slow(self) -> int:
        return self.k - 1

    def float_field(self):
        """Slow-time field (x, z, v) -> list with control v added to the drift.

        x and v are lists of floats; a ``slow_f`` result that is not a list
        is converted once. The fast equation is -g/eps in Horner form.
        """
        f, eps = self.slow_f, float(self.epsilon)

        def rhs(x: list, z: float, v: list) -> list[float]:
            fx = f(x, z, eps)
            if type(fx) is not list:
                fx = np.asarray(fx, dtype=float).tolist()
            out = [fi + vi for fi, vi in zip(fx, v)]
            s = z  # z^k + sum_i x_i z^(i-1)
            for xi in reversed(x):
                s = s * z + xi
            out.append(-s / eps)
            return out

        return rhs


def eval_g(x, z: float, k: int) -> float:
    """Fast field -(z^k + sum_i x_i z^(i-1)) of the normal-form class."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    xv = _vec(x, k - 1, "x")
    z = float(z)
    s = z**k
    zp = 1.0
    for i in range(k - 1):
        s += xv[i] * zp
        zp *= z
    return -s


def g_partial_z(x, z: float, k: int, m: int) -> float:
    """m-th partial derivative of g with respect to z, in closed form.

    g is polynomial in z, so the derivative is exact (no differencing).
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    xv = _vec(x, k - 1, "x")
    z = float(z)
    s = 0.0
    if k >= m:
        s += math.perm(k, m) * z ** (k - m)
    for i in range(1, k):  # slow coordinate x_i multiplies z^(i-1)
        if i - 1 >= m:
            s += xv[i - 1] * math.perm(i - 1, m) * z ** (i - 1 - m)
    return -s


def eval_rhs_fast(
    sys: NormalFormSystem, s: State, u: ControlInput
) -> tuple[np.ndarray, float]:
    """Fast-time vector field: x' = eps*(f + u), z' = g."""
    x, z = _vec(s.x, sys.k - 1, "x"), float(s.z)
    uv = _vec(u.u, sys.k - 1, "u")
    f = np.asarray(sys.slow_f(x, z, sys.epsilon), dtype=float)
    if f.shape != (sys.k - 1,):
        raise ValueError(
            f"slow_f returned shape {f.shape}, expected ({sys.k - 1},)"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError("slow_f returned non-finite values")
    return sys.epsilon * (f + uv), eval_g(x, z, sys.k)


def eval_rhs_slow(
    sys: NormalFormSystem, s: State, u: ControlInput
) -> tuple[np.ndarray, float]:
    """Slow-time vector field: dx/dt = f + u, dz/dt = g/eps.

    Same direction field as :func:`eval_rhs_fast`, scaled by 1/eps.
    """
    if not sys.epsilon > 0:
        raise ValueError("slow-time field requires epsilon > 0")
    dx, dz = eval_rhs_fast(sys, s, u)
    return dx / sys.epsilon, dz / sys.epsilon


def on_manifold_tolerance(x, z: float, k: int) -> float:
    """Scale-aware acceptance threshold for critical-manifold membership."""
    xv = _vec(x, None, "x")
    norm = math.hypot(float(np.linalg.norm(xv)), float(z))
    return MANIFOLD_TOL * (1.0 + norm**k)


def degeneracy_order(x, z: float, k: int) -> int:
    """Smallest m >= 1 with nonzero m-th z-derivative of g at a point of S.

    m = 1 means the point is normally hyperbolic; m = k occurs only at the
    origin. The point must lie on the critical manifold within the
    scale-aware tolerance.
    """
    xv = _vec(x, k - 1, "x")
    tol = on_manifold_tolerance(xv, z, k)
    residual = abs(eval_g(xv, z, k))
    if residual > tol:
        raise ValueError(
            f"point is off the critical manifold: |g| = {residual:.3e} > {tol:.3e}"
        )
    for m in range(1, k):
        if abs(g_partial_z(xv, z, k, m)) > tol:
            return m
    return k  # d^k g / dz^k = -k! never vanishes


def validate(sys: NormalFormSystem) -> list[str]:
    """Collect constraint violations; an empty list means the system is valid."""
    errors: list[str] = []
    if not isinstance(sys.k, (int, np.integer)):
        errors.append(f"k must be an integer, got {type(sys.k).__name__}")
        return errors
    if sys.k < 2:
        errors.append(f"k must be >= 2, got {sys.k}")
    if not (np.isfinite(sys.epsilon) and sys.epsilon > 0):
        errors.append(f"epsilon must be positive and finite, got {sys.epsilon}")
    if sys.k >= 2:
        x0 = np.zeros(sys.k - 1)
        for eps in (0.0, max(sys.epsilon, 0.0)):
            try:
                out = np.asarray(sys.slow_f(x0, 0.0, eps), dtype=float)
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                errors.append(f"slow_f raised at (0, 0, {eps}): {exc}")
                continue
            if out.shape != (sys.k - 1,):
                errors.append(
                    f"slow_f must return {sys.k - 1} components, got shape {out.shape}"
                )
            elif not np.all(np.isfinite(out)):
                errors.append(f"slow_f returned non-finite values at (0, 0, {eps})")
        try:
            xp = np.full(sys.k - 1, 0.5)
            once = np.asarray(sys.slow_f(xp, 0.25, sys.epsilon), dtype=float)
            twice = np.asarray(sys.slow_f(xp, 0.25, sys.epsilon), dtype=float)
            if once.shape == twice.shape and not np.array_equal(once, twice):
                errors.append("slow_f is not deterministic at a probe point")
        except Exception:
            pass  # already reported above for the origin probes
    return errors
