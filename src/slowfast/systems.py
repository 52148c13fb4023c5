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

from .control import HighGainParams, _highgain_law
from .normal_form import NormalFormSystem, _vec

__all__ = [
    "TunnelDiodeParams",
    "CircuitState",
    "TunnelDiodeSystem",
    "diode_current",
    "diode_fold_points",
    "build_tunnel_diode",
    "example1_controllers",
    "planar_slow_f",
    "build_planar_example",
]

OPERATING_POINT = (0.0, 16.0, 4.0)  # (V_C, I_L, V_D) of the stabilized fold


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
    (u1_circuit, u2_circuit) = (-u1, -u2).
    """

    params: TunnelDiodeParams

    @property
    def epsilon(self) -> float:
        return self.params.epsilon

    @property
    def n_slow(self) -> int:
        return 2

    def slow_f(self, x, z: float, eps: float) -> np.ndarray:
        x = _vec(x, 2, "x")
        return np.array(
            [(x[1] + z + 4.0) / self.params.L, (16.0 - x[0]) / self.params.Cap]
        )

    def fast_g(self, x, z: float) -> float:
        x = _vec(x, 2, "x")
        return -(3.0 * z * z + x[0] + z**3)

    def rhs_translated(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Slow-time field with the translated control slots (+u1/L, -u2/Cap)."""
        x1, x2, z = np.asarray(y, dtype=float).tolist()
        u1, u2 = np.asarray(u, dtype=float).tolist()
        return np.array(_translated_field(self.params, x1, x2, z, u1, u2))

    def rhs_additive(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Slow-time field with control added to the slow drift, dx = f + u."""
        x1, x2, z = np.asarray(y, dtype=float).tolist()
        u1, u2 = np.asarray(u, dtype=float).tolist()
        return np.array(_additive_field(self.params, x1, x2, z, u1, u2))

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


def _translated_field(p: TunnelDiodeParams, x1: float, x2: float, z: float,
                      u1: float, u2: float) -> list[float]:
    """Float form of :meth:`TunnelDiodeSystem.rhs_translated`."""
    return [
        (x2 + z + 4.0 + u1) / p.L,
        (16.0 - x1 - u2) / p.Cap,
        -(3.0 * z * z + x1 + z**3) / p.epsilon,
    ]


def _additive_field(p: TunnelDiodeParams, x1: float, x2: float, z: float,
                    v1: float, v2: float) -> list[float]:
    """Float form of :meth:`TunnelDiodeSystem.rhs_additive`."""
    return [
        (x2 + z + 4.0) / p.L + v1,
        (16.0 - x1) / p.Cap + v2,
        -(3.0 * z * z + x1 + z**3) / p.epsilon,
    ]


#: slow drift (4, 16) of the translated circuit at the origin, for L = Cap = 1
CIRCUIT_DRIFT = (4.0, 16.0)


def _fold_law(epsilon: float, a1: float, a2: float, b: float,
              c: tuple[float, float] = CIRCUIT_DRIFT):
    """Fold stabilizer in the translated slots as a float closure (x1, x2, z) -> u.

    u1 = -c1 - eps^(-2/3) a1 x1 + b eps^(-1/3) z and
    u2 = c2 + eps^(-2/3) a2 x2; the constants cancel the drift through the
    slot signs.
    """
    epsilon, a1, a2, b = (float(v) for v in (epsilon, a1, a2, b))
    if not (epsilon > 0 and a1 > 0 and a2 > 0 and b > 0):
        raise ValueError("epsilon, a1, a2 and b must all be > 0")
    g1 = epsilon ** (-1.0 / 3.0)
    g2 = epsilon ** (-2.0 / 3.0)
    c1, c2 = (float(v) for v in c)

    def law(x1: float, x2: float, z: float) -> list[float]:
        return [-c1 - g2 * a1 * x1 + b * g1 * z, c2 + g2 * a2 * x2]

    return law


def example1_controllers(
    epsilon: float,
    a1: float,
    a2: float,
    b: float,
    A1: float = 1.0,
    A2: float = 1.0,
    B: float = 10.0,
    cancel_constants: bool = False,
):
    """Controller pair (x1, x2, z) -> [u1, u2] for the circuit benchmark.

    The first evaluator is the fold stabilizer in the translated control
    slots,

        u1 = -4 - eps^(-2/3) a1 x1 + b eps^(-1/3) z
        u2 = 16 + eps^(-2/3) a2 x2,

    whose constants cancel the drift through the slot signs. The second is
    the 1/eps high-gain benchmark (applied additively to the slow drift);
    it carries no constants unless ``cancel_constants`` is set, in which
    case the drift (4, 16) is subtracted so the loop settles at the exact
    origin instead of an O(eps)-shifted point. Both return lists of floats
    and are the laws the circuit closed loops run.
    """
    u_eval = _fold_law(epsilon, a1, a2, b)
    v_law = _highgain_law(HighGainParams(
        a=np.array([A1, A2]),
        b=B,
        epsilon=epsilon,
        constants=np.array(CIRCUIT_DRIFT) if cancel_constants else None,
    ))

    def v_eval(x1: float, x2: float, z: float) -> list[float]:
        return v_law([x1, x2], z)

    return u_eval, v_eval


def planar_slow_f(x, z: float, eps: float) -> np.ndarray:
    """Slow drift 1 + x + z of the planar fold example."""
    return np.array([1.0 + float(np.asarray(x).reshape(-1)[0]) + z])


def build_planar_example(epsilon: float) -> NormalFormSystem:
    """Planar fold system dx = 1 + x + z + u, eps dz = -(z^2 + x)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return NormalFormSystem(k=2, epsilon=epsilon, slow_f=planar_slow_f)
