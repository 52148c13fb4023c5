"""Assembly of runnable closed loops from a system and a controller variant.

Variants are frozen records of numbers: two built from equal numbers
compare and hash equal, so a (system, variant) pair keys the generated loop
and its certificate, and a sweep builds both once. Forked sweep workers
inherit them. State vectors are packed as [x_1, ..., x_m, z].
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .control import (Theorem2Params, Theorem3Params, highgain_law, thm2_law, thm2_template,
                      thm3_law)
from .expr import parse_expression
from .normal_form import ExprSlowField, _env, _finite_drift, _names, _require_g
from .sim import BALL, IntegratorConfig, Outcome, Trajectory, attempt, compile_loop, integrate

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
    "certificate",
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
        object.__setattr__(self, "a", tuple(map(float, self.a)))
        if not all(0 < v < math.inf for v in (*self.a, self.b)):
            raise ValueError("high-gain parameters must be positive and finite")


Variant = Union[OpenLoop, Thm2, Thm2Plus3, HighGain]


def describe(variant: Variant) -> str:
    if isinstance(variant, OpenLoop):
        return "open-loop"
    if isinstance(variant, Thm2):
        p = variant.p
        return f"thm2(a={list(p.a)}, b={p.b}, c={list(p.c)})"
    if isinstance(variant, Thm2Plus3):
        p2, p3 = variant.p2, variant.p3
        return (
            f"thm2+w(a={list(p2.a)}, b={p2.b}, "
            f"K={list(p3.K)}, chi_star={list(p3.chi_star)})"
        )
    if isinstance(variant, HighGain):
        return (
            f"highgain(A={list(variant.a)}, B={variant.b}, "
            f"cancel_constants={variant.cancel_constants})"
        )
    raise TypeError(f"unknown controller variant {variant!r}")


def drift_at_origin(system) -> list[float]:
    """f(0, 0, 0): the slow drift at the origin, as m finite floats."""
    return _finite_drift(system.slow_f, [0.0] * system.n_slow, 0.0, 0.0, "the origin")


def law(system, variant: Variant, powers: tuple[str, str] | None = None) -> list:
    """Checked trees of the additive control v_1..v_m of ``variant`` on
    ``system``, in x1..xm and z.

    This is the one place where a controller becomes a control: closed
    loops compile these trees, the verification suites evaluate them, config
    checks build them and the blow-up expands them. The baseline gains scale
    with the system's degeneracy order ``k``; a defaulted ``c`` and
    ``cancel_constants`` cancel the drift at the origin. Compensation is
    designed in the z < 0 chart of the normal form, so it needs the normal
    form's fast field: a system with its own, the circuit, is refused. A
    variant that cannot run on the system raises ValueError.

    Given ``powers``, a pair of names, the baseline law's gain powers px =
    eps^(-k/(2k-1)) and pz = eps^(-1/(2k-1)) are those names in place of
    numbers of the system's epsilon, for the blow-up to put in powers of its
    radius; the high-gain law, whose gains are not these powers, is then
    refused.
    """
    k, m, eps = system.k, system.n_slow, float(system.epsilon)

    def baseline(p: Theorem2Params) -> list:
        _check_size(p.a, m)
        return thm2_law(eps, k, p) if powers is None else thm2_template(p, *powers)

    if isinstance(variant, OpenLoop):
        return [ast.Constant(0.0)] * m
    if isinstance(variant, HighGain):
        if powers is not None:
            raise ValueError(f"controller variant {describe(variant)} has no gain powers "
                             f"eps^(-k/(2k-1)), eps^(-1/(2k-1)) to name")
        _check_size(variant.a, m)
        const = drift_at_origin(system) if variant.cancel_constants else None
        return highgain_law(variant.a, variant.b, eps, const)
    if isinstance(variant, Thm2):
        return baseline(variant.p)
    if isinstance(variant, Thm2Plus3):
        _require_g(system, f"controller variant {describe(variant)}")
        u = baseline(variant.p2)
        _check_size(variant.p3.K, m)
        return [ast.BinOp(v, ast.Add(), w) for v, w in zip(u, thm3_law(k, variant.p3))]
    raise TypeError(f"unknown controller variant {variant!r}")


def _check_size(gains, m: int) -> None:
    if len(gains) != m:
        raise ValueError(f"controller sized for {len(gains)} slow states, system has {m}")


def _field(system, variant: Variant) -> tuple[list, list, list]:
    """(names, field, recorded) of the closed loop: the state names x1..xm,
    z, and checked trees of the field [f_1 + v_1, ..., f_m + v_m, g], with v
    the law's trees (:func:`law`) and pi and the system's constants bound in
    the drift and the fast field, and of the recorded control: v, or, for the
    baseline law on a system with control slots (``slots``, the circuit),
    the slots with each v_i bound to its law tree. The compiled loop and its
    certificate are both made from this one field."""
    names = list(_names(system.n_slow)[:-1])
    env = _env(names, system.constants)
    v = law(system, variant)
    field = [ast.BinOp(parse_expression(src, env), ast.Add(), vi)
             for src, vi in zip(system.drift, v)]
    recorded = v
    if system.slots is not None and isinstance(variant, Thm2):
        slot_env = {**{f"v{i}": vi for i, vi in enumerate(v, 1)}, **_env((), system.constants)}
        recorded = [parse_expression(src, slot_env) for src in system.slots]
    return names, [*field, parse_expression(system.fast, env)], recorded


@lru_cache(maxsize=64)
def build_closed_loop(system, variant: Variant):
    """(rhs, control_eval) for the slow-time closed loop.

    The right-hand side is one generated function per (system, variant):
    the field of :func:`_field`, the law's and the drift's arithmetic
    inline, with every gain and constant compiled in. ``control_eval``
    reports the signal that is recorded in trajectories, the recorded
    control of :func:`_field`. ``rhs(t, y)`` takes the state as an array,
    the ODE convention; ``control_eval(t, y)`` takes it as the list of
    floats that :func:`slowfast.sim.integrate` records. Both return lists
    of Python floats. ``rhs`` carries as ``run`` the whole adaptive
    Dormand-Prince loop with its field inline at every stage
    (:func:`slowfast.sim.compile_loop`). Both are cached on (system,
    variant), both hashable values, so a sweep compiles its loop once per
    process and equal variants share one entry.
    """
    return compile_loop(*_field(system, variant))


@lru_cache(maxsize=64)
def certificate(system, variant: Variant):
    """(P, level) of a proved-invariant sublevel set {y^T P y <= level} of
    the closed loop's origin inside the ball ``sim.BALL``, or None.

    The proof (:func:`slowfast.lyapunov.certify`) expands into monomials
    the field of :func:`_field`, the trees that :func:`build_closed_loop`
    compiles; a loop whose field is not polynomial, whose origin is not a
    hyperbolic sink or whose remainder the bound cannot control gets None.
    It is made on first use and cached per system and variant, like the
    generated loop, and only region-of-attraction cells
    (:class:`CellRunner`) ask for it.
    """
    # imported on first use: runs without sweep cells never compile it
    from .lyapunov import certify

    names, field, _ = _field(system, variant)
    return certify(field, names, BALL)


@dataclass(frozen=True)
class CellRunner:
    """Classifies one initial condition under a fixed closed loop.

    Every cell is integrated by :func:`slowfast.sim.integrate` with the
    loop's generated ``run`` (compiled once per process and looked up by
    (system, variant) for each cell, see :func:`build_closed_loop`),
    stopped once the state has dwelt in the ball ``sim.BALL``, or earlier
    at the first recorded state inside the loop's proved-invariant set
    (:func:`certificate`), and classified by :func:`slowfast.sim.attempt`:
    a numerical failure (a non-finite initial condition or field there, an
    ArithmeticError) is a diverged cell, so that a sweep goes on, and any
    other exception is a bug and propagates.
    """

    system: object
    variant: Variant
    cfg: IntegratorConfig

    def prepare(self) -> None:
        """Generate the loop and prove its certificate now, so that
        processes forked afterwards inherit both."""
        build_closed_loop(self.system, self.variant)
        certificate(self.system, self.variant)

    def simulate(self, ic) -> Trajectory:
        rhs, _ = build_closed_loop(self.system, self.variant)
        return integrate(rhs, np.asarray(ic, dtype=float), self.cfg, stop_ball=BALL,
                         invariant=certificate(self.system, self.variant))

    def __call__(self, ic) -> Outcome:
        return attempt(self.simulate, ic)[1]
