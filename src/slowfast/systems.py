"""Concrete benchmark systems: a tunnel-diode circuit and a planar fold.

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

from dataclasses import dataclass

import numpy as np

from .normal_form import ExprSlowField, NormalFormSystem, _drift

__all__ = [
    "TunnelDiodeParams",
    "CircuitState",
    "TunnelDiodeSystem",
    "diode_current",
    "diode_fold_points",
    "build_tunnel_diode",
    "planar_slow_f",
    "build_planar_example",
]

def diode_current(v: float) -> float:
    """Tunnel-diode characteristic I_D(V) = V^3 - 9 V^2 + 24 V."""
    return ((v - 9.0) * v + 24.0) * v


def diode_fold_points() -> list[tuple[float, float]]:
    """Folds of the critical manifold: roots of dI_D/dV, sorted by voltage."""
    roots = np.sort(np.roots([3.0, -18.0, 24.0]).real)
    return [(float(v), diode_current(float(v))) for v in roots]


@dataclass(frozen=True)
class TunnelDiodeParams:
    """Circuit constants; ``epsilon`` is the parasitic capacitance."""

    L: float = 1.0
    Cap: float = 1.0
    epsilon: float = 0.01

    def __post_init__(self):
        if not (self.L > 0 and self.Cap > 0 and self.epsilon > 0):
            raise ValueError("L, Cap and epsilon must all be > 0")


@dataclass(frozen=True)
class CircuitState:
    """Physical circuit variables (volts, amps, volts)."""

    V_C: float
    I_L: float
    V_D: float


@dataclass(frozen=True)
class TunnelDiodeSystem:
    """Controlled circuit in fold-centered coordinates.

    Translated coordinates are x1 = 16 - I_L, x2 = V_C, z = V_D - 4, which
    puts the fast equation into eps dz/dt = -(3 z^2 + x1 + z^3) exactly.
    (The current variable has to come first for that to hold; the cubic
    z^3 term is kept everywhere, no truncation to the local normal form.)
    Control slots follow the translated equations: +u1/L in the x1 equation
    and -u2/Cap in the x2 equation, which corresponds to circuit inputs
    (u1_circuit, u2_circuit) = (-u1, -u2). Controllers are designed on the
    additive form dx = f + v, with v = (u1/L, -u2/Cap).
    """

    params: TunnelDiodeParams

    @property
    def epsilon(self) -> float:
        return self.params.epsilon

    @property
    def k(self) -> int:
        """Degeneracy order of the fold at the origin."""
        return 2

    @property
    def n_slow(self) -> int:
        return 2

    # the slow-time loop as data, from which closed loops are generated:
    # expressions in x1, x2, z (v1, v2 for the slots) and the constants
    drift = ("(x2 + z + 4) / L", "(16 - x1) / Cap")
    fast = "-(3 * z * z + x1 + z ** 3) / epsilon"
    slots = ("L * v1", "-Cap * v2")  # additive control v as slot controls

    @property
    def constants(self) -> dict[str, float]:
        p = self.params
        return {"L": p.L, "Cap": p.Cap, "epsilon": p.epsilon}

    def slow_f(self, x, z: float, eps: float) -> list:
        """The drift f(x, z), walked from ``drift`` with L and Cap bound."""
        p = self.params
        return _drift(self.drift, x, z, eps, (("L", p.L), ("Cap", p.Cap)))

    def rhs_circuit(self, y: np.ndarray, u_circuit: np.ndarray) -> np.ndarray:
        """Physical-coordinate field, used to validate the coordinate change."""
        V_C, I_L, V_D = y
        L, Cap, eps = self.params.L, self.params.Cap, self.params.epsilon
        return np.array(
            [
                (I_L + u_circuit[1]) / Cap,
                -(V_C + V_D - u_circuit[0]) / L,
                -(diode_current(V_D) - I_L) / eps,
            ]
        )

    @staticmethod
    def to_translated(c: CircuitState) -> np.ndarray:
        return np.array([16.0 - c.I_L, c.V_C, c.V_D - 4.0])

    @staticmethod
    def to_circuit(y) -> CircuitState:
        x1, x2, z = np.asarray(y, dtype=float)
        return CircuitState(V_C=x2, I_L=16.0 - x1, V_D=z + 4.0)

    @staticmethod
    def control_to_circuit(u) -> np.ndarray:
        """Translated-slot controls map to circuit sources with a sign flip."""
        return -np.asarray(u, dtype=float)


def build_tunnel_diode(p: TunnelDiodeParams | None = None) -> TunnelDiodeSystem:
    """Controlled tunnel-diode circuit in fold-centered coordinates."""
    return TunnelDiodeSystem(params=p or TunnelDiodeParams())


#: slow drift 1 + x + z of the planar fold example
planar_slow_f = ExprSlowField(exprs=("1 + x1 + z",))


def build_planar_example(epsilon: float) -> NormalFormSystem:
    """Planar fold system dx = 1 + x + z + u, eps dz = -(z^2 + x)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return NormalFormSystem(k=2, epsilon=epsilon, slow_f=planar_slow_f)
