"""Slow-fast control systems with a polynomial unfolding-type fast field.

The model class has k-1 slow states x, one fast state z and a fast field

    g(x, z) = -(z^k + sum_i x_i z^(i-1)),   i = 1..k-1,

so the origin is the most degenerate point of the critical manifold
S = {g = 0}. Control enters additively in the slow equations.

Every system is one frozen record, :class:`NormalFormSystem`: k, epsilon,
the drift with the constants it names, the fast field (g by default) and
optional control slots, all as expressions. The builtin rows of
:mod:`slowfast.systems` and ``custom`` configs fill in the same record.

Every expression of the record is checked by the grammar of
:mod:`slowfast.expr`; a drift is walked there (:func:`slowfast.expr.walk`),
and a closed loop compiles the same checked trees in :mod:`slowfast.sim`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .expr import parse_expression, walk

__all__ = [
    "ExprSlowField",
    "NormalFormSystem",
    "State",
    "eval_g",
    "eval_rhs_fast",
    "eval_rhs_slow",
    "degeneracy_order",
]

#: relative size below which g or a z-derivative of g counts as zero: at most
#: this times the sum of the magnitudes of its terms
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
class NormalFormSystem:
    """Controlled slow-fast system with degeneracy order ``k``: the one
    system record, for the builtin rows and ``custom`` configs alike.

    ``slow_f`` is the drift f(x, z, epsilon), an :class:`ExprSlowField`
    with one expression per slow state and the named constants they use.
    ``fast`` is dz/dt as an expression in the same names; by default it is
    the normal form's g / epsilon in Horner form, which needs k - 1 slow
    states. ``slots``, if given, is the control recorded in place of the
    additive v1..vm by the baseline law, as expressions in v1..vm, pi, the
    constants and epsilon. An integer ``k`` >= 2, a finite ``epsilon`` > 0
    and every expression are checked on construction, so the system is data
    throughout. The instance is immutable and compares and hashes by value.
    """

    k: int
    epsilon: float
    slow_f: ExprSlowField = field(repr=False)
    fast: str | None = field(default=None, repr=False)
    slots: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if (not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool)
                or self.k < 2):
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if not isinstance(self.slow_f, ExprSlowField):
            raise ValueError(f"slow_f must be an ExprSlowField, got {type(self.slow_f).__name__}")
        m, bound = self.n_slow, self.slow_f.constants
        _drift_trees(self.drift, bound)
        if self.fast is None:
            if m != self.k - 1:
                raise ValueError(f"slow_f must have k - 1 = {self.k - 1} expressions, got {m}")
            object.__setattr__(self, "fast", _horner(self.k))
        try:
            parse_expression(self.fast, _env(_names(m), bound))
        except ValueError as exc:
            raise ValueError(f"fast field: {exc}") from None
        if self.slots is not None:
            object.__setattr__(self, "slots", tuple(self.slots))
            if len(self.slots) != m:
                raise ValueError(f"slots must have {m} expressions, got {len(self.slots)}")
            _checked(self.slots, tuple(f"v{i}" for i in range(1, m + 1)), self.constants, "slot")

    @property
    def n_slow(self) -> int:
        return len(self.slow_f.exprs)

    @property
    def drift(self) -> tuple[str, ...]:
        """The expression strings of ``slow_f``, in x1..xm, z and epsilon."""
        return self.slow_f.exprs

    @property
    def constants(self) -> dict[str, float]:
        return {**dict(self.slow_f.constants), "epsilon": float(self.epsilon)}


def _horner(k: int) -> str:
    """dz/dt = g / epsilon in Horner form, -((z z + x_{k-1}) z + ... + x_1) / epsilon."""
    s = "z"
    for i in range(k - 1, 0, -1):
        s = f"({s}) * z + x{i}"
    return f"-({s}) / epsilon"


def _g_terms(x, z: float, k: int, m: int) -> tuple[float, float]:
    """The m-th z-derivative of g at (x, z) as a power sum, and the sum of
    the magnitudes of its terms. Under (x_i, z) -> (lam^(k-i+1) x_i, lam z)
    every term scales by lam^(k-m), and so do both sums; an overflowing term is inf."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    xv, z, n = _vec(x, k - 1, "x").tolist(), float(z), max(k - m, 0)
    try:
        s = math.perm(k, m) * z ** n
    except OverflowError:  # a float power raises where a product gives inf
        s = math.copysign(math.inf, z) if n % 2 else math.inf
    size = abs(s)
    zp = 1.0
    for i in range(m, k - 1):  # slow coordinate x_(i+1) multiplies z^i
        t = xv[i] * math.perm(i, m) * zp
        s += t
        size += abs(t)
        zp *= z
    return -s, size


def eval_g(x, z: float, k: int, m: int = 0) -> float:
    """Fast field g = -(z^k + sum_i x_i z^(i-1)) of the normal-form class,
    or its m-th partial derivative with respect to z, exact in the
    polynomial (no differencing)."""
    return _g_terms(x, z, k, m)[0]


def _require_g(sys: NormalFormSystem, what: str) -> None:
    """Refuse a row with its own fast field where ``what`` assumes g / epsilon."""
    if sys.fast != _horner(sys.k):
        raise ValueError(f"{what} is not defined for a system with its own fast field, {sys.fast!r}")


def eval_rhs_fast(sys: NormalFormSystem, s: State, u) -> tuple[np.ndarray, float]:
    """Fast-time vector field: x' = eps*(f + u), z' = g, for the control vector u."""
    _require_g(sys, "the normal-form vector field")
    x, z = _vec(s.x, sys.k - 1, "x"), float(s.z)
    uv = _vec(u, sys.k - 1, "u")
    f = np.asarray(sys.slow_f(x, z, sys.epsilon), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("slow_f returned non-finite values")
    return sys.epsilon * (f + uv), eval_g(x, z, sys.k)


def eval_rhs_slow(sys: NormalFormSystem, s: State, u) -> tuple[np.ndarray, float]:
    """Slow-time vector field: dx/dt = f + u, dz/dt = g/eps.

    Same direction field as :func:`eval_rhs_fast`, scaled by 1/eps.
    """
    dx, dz = eval_rhs_fast(sys, s, u)
    return dx / sys.epsilon, dz / sys.epsilon


def degeneracy_order(x, z: float, k: int) -> int:
    """Smallest m >= 1 with nonzero m-th z-derivative of g at a point of S.

    m = 1 means the point is normally hyperbolic; m = k occurs only at the
    origin. The point must be finite and lie on the critical manifold. A
    value counts as zero when it is at most ``MANIFOLD_TOL`` times the sum
    of the magnitudes of its own terms, so the order does not change under
    g's weighted scaling (x_i, z) -> (lam^(k-i+1) x_i, lam z).
    """
    xv = _vec(x, k - 1, "x")
    if not (np.all(np.isfinite(xv)) and np.isfinite(z)):
        raise ValueError(f"point must be finite, got x={xv.tolist()}, z={z}")
    g, size = _g_terms(xv, z, k, 0)
    if not abs(g) <= MANIFOLD_TOL * size < math.inf:  # an overflowed term holds no point
        raise ValueError(
            f"point is off the critical manifold: |g| = {abs(g):.3e} > {MANIFOLD_TOL * size:.3e}"
        )
    for m in range(1, k):
        d, size = _g_terms(xv, z, k, m)
        if abs(d) > MANIFOLD_TOL * size:
            return m
    return k  # d^k g / dz^k = -k! never vanishes


def _names(m: int) -> tuple[str, ...]:
    return (*(f"x{i}" for i in range(1, m + 1)), "z", "epsilon")


def _env(names, bound) -> dict:
    return {**dict(zip(names, names)), "pi": math.pi, **dict(bound)}


def _checked(exprs: tuple[str, ...], names: tuple[str, ...], bound, what: str) -> tuple:
    """Checked trees of ``exprs`` in the local ``names``, the constant pi and
    the (name, value) constants ``bound``; an error names the expression."""
    env = _env(names, bound)
    trees = []
    for i, src in enumerate(exprs, 1):
        try:
            trees.append(parse_expression(src, env))
        except ValueError as exc:
            raise ValueError(f"{what} expression {i} ({src!r}): {exc}") from None
    return tuple(trees)


@lru_cache(maxsize=64)
def _drift_trees(exprs: tuple[str, ...], bound: tuple[tuple[str, float], ...] = ()) -> tuple:
    """Checked trees of the m drift expressions, in x1..xm, z, epsilon, the
    constant pi and the (name, value) constants ``bound``."""
    return _checked(exprs, _names(len(exprs)), bound, "slow field")


def _drift(exprs: tuple[str, ...], x, z, eps, bound=()) -> list:
    """The drift expressions walked at (x, z, eps); x1..xm are the entries
    of ``x`` as it iterates (numpy scalars from an array)."""
    trees = _drift_trees(exprs, bound)
    names = (f"x{i}" for i in range(1, len(trees) + 1))
    env = dict(zip(names, x, strict=True), z=z, epsilon=eps)
    return [walk(tree, env) for tree in trees]


@dataclass(frozen=True)
class ExprSlowField:
    """Slow drift defined by expression strings in x1..xm, z and epsilon,
    and the named constants ``constants`` they use.

    The grammar is that of :func:`slowfast.expr.parse_expression`, with
    ``pi``; anything else raises ValueError on construction. The constants,
    given as a mapping or as (name, value) pairs, are kept as pairs of names
    and finite floats sorted by name. Instances hold only strings and numbers, so
    they compare by value and pickle cleanly into sweep workers; the checked
    trees are cached per expression tuple and walked by
    :func:`slowfast.expr.walk` on a call, and a closed loop splices the
    checked expressions into its own generated function.
    """

    exprs: tuple[str, ...]
    constants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(
            sorted((name, float(value)) for name, value in dict(self.constants).items())))
        for name, value in self.constants:
            if not math.isfinite(value):
                raise ValueError(f"constant {name} must be finite, got {value}")
        _drift_trees(self.exprs, self.constants)

    def __call__(self, x, z: float, eps: float) -> list:
        return _drift(self.exprs, x, z, eps, self.constants)
