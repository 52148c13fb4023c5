"""Assembly of runnable closed loops from a system and a controller variant.

Variants are small picklable records so that region-of-attraction sweeps
can fan out across processes; each worker generates the loop's functions
once. State vectors are packed as [x_1, ..., x_m, z].
"""
from __future__ import annotations

import ast
import math
import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .control import Theorem2Params, Theorem3Params, highgain_law, thm2_law, thm3_law
from .normal_form import ExprSlowField, NormalFormSystem, compile_functions, parse_expression
from .sim import (
    BALL,
    IntegratorConfig,
    NonFiniteError,
    Outcome,
    Trajectory,
    _loop_source,
    classify,
    integrate,
)

__all__ = [
    "OpenLoop",
    "Thm2",
    "Thm2Plus3",
    "HighGain",
    "Variant",
    "describe",
    "drift_at_origin",
    "law",
    "build_closed_loop",
    "CellRunner",
    "ExprSlowField",
]


@dataclass(frozen=True)
class OpenLoop:
    pass


@dataclass(frozen=True)
class Thm2:
    p: Theorem2Params


@dataclass(frozen=True)
class Thm2Plus3:
    p2: Theorem2Params
    p3: Theorem3Params


@dataclass(frozen=True)
class HighGain:
    a: tuple[float, ...]
    b: float
    cancel_constants: bool = False

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (*self.a, self.b)):
            raise ValueError("high-gain parameters must be positive and finite")


Variant = Union[OpenLoop, Thm2, Thm2Plus3, HighGain]


def describe(variant: Variant) -> str:
    if isinstance(variant, OpenLoop):
        return "open-loop"
    if isinstance(variant, Thm2):
        p = variant.p
        return f"thm2(a={p.a.tolist()}, b={p.b}, c={p.c.tolist()})"
    if isinstance(variant, Thm2Plus3):
        p2, p3 = variant.p2, variant.p3
        return (
            f"thm2+w(a={p2.a.tolist()}, b={p2.b}, "
            f"K={p3.K.tolist()}, chi_star={p3.chi_star.tolist()})"
        )
    if isinstance(variant, HighGain):
        return (
            f"highgain(A={list(variant.a)}, B={variant.b}, "
            f"cancel_constants={variant.cancel_constants})"
        )
    raise TypeError(f"unknown controller variant {variant!r}")


def drift_at_origin(system) -> list[float]:
    """f(0, 0, 0): the slow drift at the origin, as m finite floats."""
    f0 = np.asarray(system.slow_f([0.0] * system.n_slow, 0.0, 0.0), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise ValueError(f"the drift at the origin must be finite; got {f0.tolist()}")
    return f0.tolist()


def law(system, variant: Variant) -> list:
    """Checked trees of the additive control v_1..v_m of ``variant`` on
    ``system``, in x1..xm and z.

    This is the one place where a controller becomes a control: closed
    loops compile these trees, the verification suites evaluate them and
    config checks build them. The baseline gains scale with the system's
    degeneracy order ``k``; a defaulted ``c`` and ``cancel_constants``
    cancel the drift at the origin. Compensation is designed in the z < 0
    chart of the normal form, so it needs one. A variant that cannot run
    on the system raises ValueError.
    """
    k, m, eps = system.k, system.n_slow, float(system.epsilon)
    if isinstance(variant, OpenLoop):
        return [ast.Constant(0.0)] * m
    if isinstance(variant, HighGain):
        _check_size(variant.a, m)
        const = drift_at_origin(system) if variant.cancel_constants else None
        return highgain_law(variant.a, variant.b, eps, const)
    if isinstance(variant, Thm2):
        _check_size(variant.p.a, m)
        return thm2_law(eps, k, variant.p)
    if isinstance(variant, Thm2Plus3):
        if not isinstance(system, NormalFormSystem):
            raise ValueError(f"controller variant {describe(variant)} is not defined "
                             f"for {type(system).__name__}")
        p2, p3 = variant.p2, variant.p3
        _check_size(p2.a, m)
        _check_size(p3.K, m)
        return [ast.BinOp(u, ast.Add(), w)
                for u, w in zip(thm2_law(eps, k, p2), thm3_law(k, p3))]
    raise TypeError(f"unknown controller variant {variant!r}")


def _check_size(gains, m: int) -> None:
    if len(gains) != m:
        raise ValueError(f"controller sized for {len(gains)} slow states, system has {m}")


@lru_cache(maxsize=64)
def _generated(system, variant_key: bytes):
    """(rhs, ueval) generated for ``system`` and the pickled variant.

    The field is one block of straight-line statements: assign the law to
    v1..vm; its value is the drift plus v and the fast field, in x1..xm and
    z. The drift's expressions, the fast field, the law and the slot form
    are checked trees, compiled with the system's constants. ``rhs(t, y)``
    unpacks the state array and returns the field, ``ueval(t, y)`` the
    recorded control of the float list that :func:`slowfast.sim.integrate`
    records. The same block is written inline at every stage of the whole
    adaptive Dormand-Prince loop (``rhs.run``, from
    :func:`slowfast.sim._loop_source`), which never calls a function for
    the field, so a step of the loop makes no Python call.
    """
    variant = pickle.loads(variant_key)
    m = system.n_slow
    xs = [f"x{i}" for i in range(1, m + 1)]
    vs = [f"v{i}" for i in range(1, m + 1)]
    env = {**dict(zip(xs, xs)), "z": "z", "pi": math.pi, **system.constants}
    trees = {f"_v{i}": tree for i, tree in enumerate(law(system, variant), 1)}
    assign = [f"{v} = _{v}" for v in vs]

    fs = [f"_f{i}" for i in range(1, m + 1)]
    trees.update(zip(fs, (parse_expression(src, env) for src in system.drift)))
    trees["_g"] = parse_expression(system.fast, env)
    field = ", ".join(f"{f} + {v}" for f, v in zip(fs, vs)) + ", _g"

    recorded = vs
    slots = getattr(system, "slots", None)
    if slots is not None and isinstance(variant, Thm2):
        recorded = [f"_u{i}" for i in range(1, m + 1)]
        slot_env = {**dict(zip(vs, vs)), **system.constants}
        trees.update(zip(recorded, (parse_expression(src, slot_env) for src in slots)))

    state = f"{', '.join(xs)}, z"

    def inline(t: str, args: list[str], y: str) -> tuple[list[str], str]:
        return [f"{state} = {', '.join(args)}"], "_stage"

    src = _loop_source(m + 1, inline)
    src += f"def rhs(t, y):\n    {state} = y.tolist()\n    return _rhs\n"
    src += f"def ueval(t, y):\n    {state} = y\n    return _control\n"
    blocks = {"_stage": [*assign, f"({field},)"],
              "_rhs": [*assign, f"[{field}]"],
              "_control": [*assign, f"[{', '.join(recorded)}]"]}
    ns = compile_functions(src, blocks, trees)
    rhs = ns["rhs"]
    rhs.run = ns["run"]
    return rhs, ns["ueval"]


def build_closed_loop(system, variant: Variant):
    """(rhs, control_eval, n_controls) for the slow-time closed loop.

    The right-hand side is one generated function per (system, variant):
    the control law's and the system's arithmetic, the drift's expressions
    included, as scalar locals in one frame, with every gain and constant
    compiled in. ``control_eval`` reports the signal that is recorded in
    trajectories: the additive control, except that the baseline law on a
    system with control slots (``slots``, the circuit) is recorded in slot
    form. ``rhs(t, y)`` takes the state as an array, the ODE convention;
    ``control_eval(t, y)`` takes it as the list of floats that
    :func:`slowfast.sim.integrate` records. Both return lists of Python
    floats. ``rhs`` carries as ``run`` the whole adaptive Dormand-Prince
    loop with its field inline at every stage, by which
    :func:`slowfast.sim.integrate` integrates it in one call; a step of it
    makes no Python call. The functions are cached per system (which must be hashable) and
    variant, so a sweep compiles its loop once per process.
    """
    rhs, ueval = _generated(system, pickle.dumps(variant))
    return rhs, ueval, system.n_slow


@dataclass(frozen=True)
class CellRunner:
    """Classifies one initial condition under a fixed closed loop.

    Every cell is integrated by :func:`slowfast.sim.integrate` with the
    loop's generated ``run`` (compiled once per process, see
    :func:`build_closed_loop`), stopped once the state has dwelt in the
    ball ``sim.BALL`` and classified from its trajectory by
    :func:`slowfast.sim.classify`. Numerical failures (a non-finite initial
    condition or field there, an ArithmeticError) are recorded as diverged
    so that a sweep goes on; any other exception is a bug and propagates.
    """

    system: object
    variant: Variant
    cfg: IntegratorConfig

    def simulate(self, ic) -> Trajectory:
        rhs, _, _ = build_closed_loop(self.system, self.variant)
        return integrate(rhs, np.asarray(ic, dtype=float), self.cfg, stop_ball=BALL)

    def __call__(self, ic) -> Outcome:
        try:
            traj = self.simulate(ic)
        except (NonFiniteError, ArithmeticError):
            return Outcome.diverged(0.0)
        return classify(traj)
