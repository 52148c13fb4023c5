"""Assembly of runnable closed loops from a system and a controller variant.

Variants are small picklable records so that region-of-attraction sweeps
can fan out across processes; the actual closures are rebuilt inside each
worker. State vectors are packed as [x_1, ..., x_m, z].
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .control import (
    HighGainParams,
    Theorem2Params,
    Theorem3Params,
    _highgain_law,
    _thm2_law,
    _thm3_law,
)
from .normal_form import NormalFormSystem
from .sim import (
    IntegratorConfig,
    NonFiniteError,
    Outcome,
    Trajectory,
    classify,
    integrate,
)
from .systems import planar_slow_f

__all__ = [
    "OpenLoop",
    "Thm2",
    "Thm2Plus3",
    "HighGain",
    "Variant",
    "describe",
    "drift_at_origin",
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
    """f(0, 0, 0): the slow drift at the origin, as floats."""
    f0 = system.slow_f([0.0] * system.n_slow, 0.0, 0.0)
    return np.asarray(f0, dtype=float).tolist()


def _law(system, variant: Variant):
    """Additive control law (x, z) -> v of ``variant`` on ``system``.

    The baseline gains scale with the system's degeneracy order ``k``;
    ``cancel_constants`` cancels the drift at the origin. Compensation is
    designed in the z < 0 chart of the normal form, so it needs one.
    """
    k, m, eps = system.k, system.n_slow, float(system.epsilon)
    if isinstance(variant, OpenLoop):
        return lambda x, z: [0.0] * m
    if isinstance(variant, HighGain):
        a = np.asarray(variant.a, dtype=float)
        _check_size(a, m)
        const = drift_at_origin(system) if variant.cancel_constants else None
        return _highgain_law(HighGainParams(a=a, b=variant.b, epsilon=eps,
                                            constants=const))
    if isinstance(variant, Thm2):
        _check_size(variant.p.a, m)
        return _thm2_law(eps, k, variant.p)
    if isinstance(variant, Thm2Plus3):
        if not isinstance(system, NormalFormSystem):
            raise TypeError(f"controller variant {describe(variant)} is not defined "
                            f"for {type(system).__name__}")
        p2, p3 = variant.p2, variant.p3
        _check_size(p2.a, m)
        _check_size(p3.K, m)
        thm2, thm3 = _thm2_law(eps, k, p2), _thm3_law(k, p3)
        return lambda x, z: [u + w for u, w in zip(thm2(x, z), thm3(x, z))]
    raise TypeError(f"unknown controller variant {variant!r}")


def _check_size(gains: np.ndarray, m: int) -> None:
    if gains.size != m:
        raise ValueError(f"controller sized for {gains.size} slow states, system has {m}")


def build_closed_loop(system, variant: Variant):
    """(rhs, control_eval, n_controls) for the slow-time closed loop.

    The right-hand side is one call of the control law and one call of the
    system's float field (:meth:`float_field`, control added to the slow
    drift). ``control_eval`` reports the signal that is recorded in
    trajectories: the additive control, except that the baseline law on a
    system with control slots (``to_slots``, the circuit) is recorded in
    slot form. Both take the state as an array and return lists of floats;
    each carries its float function ``(t, list) -> list`` as ``float_fn``,
    which :func:`slowfast.sim.integrate` calls directly.
    """
    law, field = _law(system, variant), system.float_field()

    # the array forms repeat the float bodies rather than call them, so a
    # caller without float_fn pays no extra frame per call
    def rhs(t, y):
        *x, z = y.tolist()
        return field(x, z, law(x, z))

    def rhs_floats(t, y):
        *x, z = y
        return field(x, z, law(x, z))

    record = law
    to_slots = getattr(system, "to_slots", None)
    if to_slots is not None and isinstance(variant, Thm2):
        def record(x, z):
            return to_slots(law(x, z))

    def ueval(t, y):
        *x, z = y.tolist()
        return record(x, z)

    def ueval_floats(t, y):
        *x, z = y
        return record(x, z)

    rhs.float_fn, ueval.float_fn = rhs_floats, ueval_floats
    return rhs, ueval, system.n_slow


_EXPR_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh")
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _pow(base, exponent):
    """``base ** exponent`` with NaN, as numpy gives, where Python gives a complex."""
    r = base ** exponent
    return math.nan if isinstance(r, complex) else r


class _ExprChecker(ast.NodeTransformer):
    """Admits only the slow-field expression grammar, in one pass.

    Numbers become floats, ``a ** b`` becomes ``_pow(a, b)`` and a call
    ``fn(a)`` becomes ``float(fn(a))``, so every value is a Python float;
    any other node type is an error, so no attribute, subscript,
    comprehension or call outside the listed numpy functions can reach the
    compiler.
    """

    def __init__(self, names: frozenset[str]):
        self.names = names

    def generic_visit(self, node):
        raise ValueError(f"`{type(node).__name__}` is not allowed")

    def visit_Expression(self, node):
        node.body = self.visit(node.body)
        return node

    def visit_Constant(self, node):
        if type(node.value) not in (int, float):
            raise ValueError(f"constant {node.value!r} is not a real number")
        return ast.Constant(float(node.value))

    def visit_Name(self, node):
        if node.id not in self.names:
            raise ValueError(f"unknown name `{node.id}`")
        return node

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ValueError(f"`{type(node.op).__name__}` is not allowed")
        node.operand = self.visit(node.operand)
        return node

    def visit_BinOp(self, node):
        if not isinstance(node.op, _EXPR_BINOPS):
            raise ValueError(f"operator `{type(node.op).__name__}` is not allowed")
        left, right = self.visit(node.left), self.visit(node.right)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("_pow", ast.Load()), [left, right], [])
        node.left, node.right = left, right
        return node

    def visit_Call(self, node):
        if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS
                and len(node.args) == 1 and not node.keywords
                and not isinstance(node.args[0], ast.Starred)):
            raise ValueError(
                f"only one-argument calls of {', '.join(_EXPR_FUNCS)} are allowed")
        node.args = [self.visit(node.args[0])]
        return ast.Call(ast.Name("float", ast.Load()), [node], [])


@lru_cache(maxsize=64)
def _compile_exprs(exprs: tuple[str, ...]):
    """One function (x, z, epsilon) -> list of the m expressions.

    Each string is parsed and checked against the expression grammar before
    anything is compiled; the checked trees fill the returned list of a
    function that unpacks x into x1..xm and whose only globals are the
    listed numpy functions, ``pi`` and ``float``.
    """
    names = [f"x{i + 1}" for i in range(len(exprs))]
    checker = _ExprChecker(frozenset(names) | {"z", "epsilon", "pi"})
    scope = {name: getattr(np, name) for name in _EXPR_FUNCS}
    scope.update(pi=math.pi, _pow=_pow, float=float, __builtins__={})
    bodies = []
    for i, src in enumerate(exprs):
        try:
            bodies.append(checker.visit(ast.parse(src, mode="eval")).body)
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"slow field expression {i + 1} ({src!r}): {exc}") from None
    unpack = ", ".join(names) + "," if names else "_"
    fn = ast.parse(f"def slow_f(x, z, epsilon):\n    {unpack} = x\n    return []\n")
    fn.body[0].body[-1].value.elts = bodies
    exec(compile(ast.fix_missing_locations(fn), "<slow_f>", "exec"), scope)
    return scope["slow_f"]


@dataclass(frozen=True)
class ExprSlowField:
    """Slow drift defined by expression strings in x1..xm, z and epsilon.

    The grammar is numbers, those names, ``pi``, ``+ - * / **``, unary
    minus and one-argument calls of sin, cos, tan, exp, log, sqrt, abs and
    tanh (the numpy versions, so sqrt and log of a negative number give
    NaN). Anything else raises ValueError on construction. Instances hold
    only the source strings, so they pickle cleanly into sweep workers;
    the compiled function is cached per expression tuple, and a float field
    that calls it many times takes it once from :attr:`compiled`.
    """

    exprs: tuple[str, ...]

    def __post_init__(self):
        _compile_exprs(self.exprs)

    @property
    def compiled(self):
        """The compiled field (x, z, eps) -> list of Python floats."""
        return _compile_exprs(self.exprs)

    def __call__(self, x, z: float, eps: float) -> list:
        return self.compiled(x, z, eps)


@dataclass(frozen=True)
class CellRunner:
    """Classifies one initial condition under a fixed closed loop.

    Numerical failures (a non-finite initial condition or field there, an
    ArithmeticError) are recorded as diverged so that a sweep goes on; any
    other exception is a bug and propagates. Planar k = 2 cells go through
    the scalar fast path unless ``use_fast_path`` is cleared (tests clear
    it to cross-check the paths).
    """

    system: object
    variant: Variant
    cfg: IntegratorConfig
    ball: float = 1e-3
    dwell: float = 1.0
    early_stop: bool = True
    use_fast_path: bool = True

    def simulate(self, ic) -> Trajectory:
        rhs, _, _ = build_closed_loop(self.system, self.variant)
        stop = self.ball if self.early_stop else None
        return integrate(rhs, np.asarray(ic, dtype=float), self.cfg,
                         stop_ball=stop, stop_dwell=self.dwell)

    def _fast_args(self) -> dict | None:
        sysm, variant = self.system, self.variant
        if not (isinstance(sysm, NormalFormSystem) and sysm.k == 2
                and sysm.slow_f is planar_slow_f):
            return None
        if isinstance(variant, OpenLoop):
            return {"kind": "open", "c1": 0.0, "a1": 0.0, "b": 0.0,
                    "K1": 0.0, "chi1": 0.0}
        if isinstance(variant, Thm2):
            p = variant.p
            return {"kind": "thm2", "c1": float(p.c[0]), "a1": float(p.a[0]),
                    "b": float(p.b), "K1": 0.0, "chi1": 0.0}
        if isinstance(variant, Thm2Plus3):
            p2, p3 = variant.p2, variant.p3
            return {"kind": "thm2plus3", "c1": float(p2.c[0]),
                    "a1": float(p2.a[0]), "b": float(p2.b),
                    "K1": float(p3.K[0]), "chi1": float(p3.chi_star[0])}
        return None

    def __call__(self, ic) -> Outcome:
        try:
            if self.use_fast_path:
                args = self._fast_args()
                if args is not None:
                    from .fastcell import classify_planar_cell

                    return classify_planar_cell(
                        ic, eps=self.system.epsilon, cfg=self.cfg,
                        ball=self.ball, dwell=self.dwell,
                        early_stop=self.early_stop, **args,
                    )
            traj = self.simulate(ic)
        except (NonFiniteError, ArithmeticError):
            return Outcome.diverged(0.0)
        return classify(traj, ball=self.ball, dwell=self.dwell)
