"""The builtin systems, each a :class:`~slowfast.normal_form.NormalFormSystem`
record: a tunnel-diode circuit and a planar fold.

The circuit model is an LC loop closed over a tunnel diode with cubic
characteristic I_D(V) = V^3 - 9 V^2 + 24 V, regularized by a parasitic
capacitance eps across the diode. Its critical manifold is the
characteristic curve itself, with fold points at V_D = 2 and V_D = 4.
Shifting the fold (V_C, I_L, V_D) = (0, 16, 4) to the origin puts the
system locally into the k = 2 normal-form class with one extra slow state.

The planar system dx/dt = 1 + x + z + u, eps dz/dt = -(z^2 + x) is the
k = 2 normal form itself with constant drift f(0,0,0) = 1.
"""
from __future__ import annotations

import numpy as np

from .normal_form import ExprSlowField, NormalFormSystem

__all__ = [
    "TunnelDiodeSystem",
    "diode_current",
    "diode_fold_points",
    "build_planar_example",
]


def diode_current(v: float) -> float:
    """Tunnel-diode characteristic I_D(V) = V^3 - 9 V^2 + 24 V."""
    return ((v - 9.0) * v + 24.0) * v


def diode_fold_points() -> list[tuple[float, float]]:
    """Folds of the critical manifold: roots of dI_D/dV, sorted by voltage."""
    roots = np.sort(np.roots([3.0, -18.0, 24.0]).real)
    return [(float(v), diode_current(float(v))) for v in roots]


def TunnelDiodeSystem(L: float = 1.0, Cap: float = 1.0,
                      epsilon: float = 0.01) -> NormalFormSystem:
    """The controlled circuit in fold-centered coordinates; ``epsilon`` is
    the parasitic capacitance.

    Translated coordinates are x1 = 16 - I_L, x2 = V_C, z = V_D - 4, which
    puts the fast equation into eps dz/dt = -(3 z^2 + x1 + z^3) exactly.
    (The current variable has to come first for that to hold; the cubic
    z^3 term is kept everywhere, no truncation to the local normal form.)
    Control slots follow the translated equations: +u1/L in the x1 equation
    and -u2/Cap in the x2 equation, which corresponds to circuit inputs
    (u1_circuit, u2_circuit) = (-u1, -u2). Controllers are designed on the
    additive form dx = f + v, with v = (u1/L, -u2/Cap), so the slots are
    (L v1, -Cap v2).
    """
    if not (L > 0 and Cap > 0):
        raise ValueError("L and Cap must all be > 0")
    drift = ExprSlowField(("(x2 + z + 4) / L", "(16 - x1) / Cap"), {"L": L, "Cap": Cap})
    return NormalFormSystem(k=2, epsilon=epsilon, slow_f=drift,
                            fast="-(3 * z * z + x1 + z ** 3) / epsilon",
                            slots=("L * v1", "-Cap * v2"))


def build_planar_example(epsilon: float) -> NormalFormSystem:
    """Planar fold system dx = 1 + x + z + u, eps dz = -(z^2 + x)."""
    return NormalFormSystem(k=2, epsilon=epsilon, slow_f=ExprSlowField(("1 + x1 + z",)))
