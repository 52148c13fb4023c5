"""Quasihomogeneous blow-up charts and desingularized vector fields.

The degenerate point at the origin is inflated with weights
(k, k-1, ..., 2) for the slow states, 1 for the fast state and
gamma = 2k-1 for epsilon. Two charts are provided:

* the family chart, which fixes the epsilon direction; its radius
  r_bar = eps^(1/(2k-1)) is constant along trajectories, and
* the directional chart covering z < 0, used to track trajectories
  that leave a neighborhood of the origin with z decreasing; its
  r_bar = eps^(1/(2k-1)) = rho mu^(1/(2k-1)) is constant along orbits too.

Desingularized fields are the blown-up fields divided by the (k-1)-th
power of the radius, which makes them smooth up to the blow-up sphere.

The blow-down maps monomials to monomials, so the chart algebra of a
polynomial loop is derived from its checked trees (:mod:`slowfast.poly`):
the baseline law's chart controller (:func:`family_law`), its closed-loop
family field (:func:`family_field`, regular on the sphere r_bar = 0 and
generated as a loop like the slow-time ones, :func:`family_loop`), the
compensation in the z < 0 chart (:func:`compensation_zneg`) and the closed
loop in that chart (:func:`directional_field`), whose radial rate comes out
of g. The laws come from :mod:`slowfast.control` and
:func:`slowfast.closedloop.law` with their gain powers as names, and a
chart puts in those powers of its radius by substitution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import poly
from .closedloop import Variant, law
from .control import Theorem2Params, Theorem3Params, _check_order, thm2_template, thm3_law
from .normal_form import (NormalFormSystem, State, _drift_trees, _env, _names, _require_g,
                          _vec, parse_expression)
from .sim import compile_loop

__all__ = ["FamilyChartState", "DirectionalChartState", "to_family_chart", "from_family_chart",
           "fast_poly", "gain_law", "family_law", "family_field", "family_loop",
           "closed_loop_rhs_family", "compensation_zneg", "to_directional_zneg",
           "from_directional_zneg", "directional_field", "desing_rhs_directional",
           "family_time_rescale"]


@dataclass(frozen=True)
class FamilyChartState:
    """Coordinates (r_bar, x_bar, z_bar) in the chart fixing epsilon_bar = 1."""

    r_bar: float
    x_bar: np.ndarray
    z_bar: float

    def __post_init__(self):
        object.__setattr__(self, "r_bar", float(self.r_bar))
        object.__setattr__(self, "x_bar", _vec(self.x_bar, name="x_bar"))
        object.__setattr__(self, "z_bar", float(self.z_bar))
        if not self.r_bar >= 0:
            raise ValueError(f"r_bar must be >= 0, got {self.r_bar}")


@dataclass(frozen=True)
class DirectionalChartState:
    """Coordinates (rho, chi, mu) in the chart covering z < 0; mu =
    eps / rho^(2k-1) must be finite and >= 0."""

    rho: float
    chi: np.ndarray
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "chi", _vec(self.chi, name="chi"))
        object.__setattr__(self, "mu", float(self.mu))
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


def to_family_chart(s: State, epsilon: float, k: int) -> FamilyChartState:
    """Blow up (x, z, eps) with eps > 0 into the family chart."""
    if not epsilon > 0:
        raise ValueError(f"family chart requires epsilon > 0, got {epsilon}")
    x = _vec(s.x, k - 1, "x")
    r = epsilon ** (1.0 / (2 * k - 1))
    x_bar = np.array([x[i] / r ** (k - i) for i in range(k - 1)])
    return FamilyChartState(r_bar=r, x_bar=x_bar, z_bar=s.z / r)


def from_family_chart(c: FamilyChartState, k: int) -> tuple[State, float]:
    """Blow down; r_bar = 0 (the sphere) maps to the origin with eps = 0."""
    x_bar = _vec(c.x_bar, k - 1, "x_bar")
    r = c.r_bar
    x = np.array([r ** (k - i) * x_bar[i] for i in range(k - 1)])
    return State(x=x, z=r * c.z_bar), r ** (2 * k - 1)


def _mono(n: int, c: float, d: int, j: int | None = None) -> tuple:
    """The image c r^d, times the j-th name if given, in n names, r last."""
    return c, tuple(d if i == n - 1 else int(i == j) for i in range(n))


def _blow_down(k: int, n: int, z: float, *scalars) -> list:
    """Images in n names (v_1..v_m, ..., r) of x_i = r^(k-i+1) v_i, of
    z = ``z`` r, times v_k if n > k, and of each (c, d) of ``scalars`` as c r^d."""
    return [*(_mono(n, 1.0, k - i, i) for i in range(k - 1)),
            _mono(n, z, 1, k - 1 if n > k else None), *(_mono(n, *cd) for cd in scalars)]


def _times(p: dict, c: float, powers: dict) -> dict:
    """``p`` times ``c`` and the name at each key of ``powers`` to its value."""
    return {tuple(n + powers.get(j, 0) for j, n in enumerate(e)): c * v for e, v in p.items()}


def _drift_polys(sys: NormalFormSystem, what: str) -> list[dict]:
    """Monomials in x1..xm, z, epsilon of the drift; ValueError if not polynomial."""
    names = list(_names(sys.n_slow))
    try:
        return [poly.expand(t, names) for t in _drift_trees(sys.drift, sys.slow_f.constants)]
    except poly.NotPolynomial as exc:
        raise ValueError(f"{what} needs a polynomial drift, not {list(sys.drift)}: "
                         f"{exc}") from None


def _gain_polys(k: int, trees: list, images: list) -> list[dict]:
    """Trees of a law in x1..xm, z and the gain powers px and pz, expanded
    and substituted: the images of x1..xm, z in n names, and px = r^-k and
    pz = r^-1 for r = eps^(1/(2k-1)), the last of those names."""
    n = len(images[0][1])
    images = [*images, _mono(n, 1.0, -k), _mono(n, 1.0, -1)]
    names = [*_names(k - 1)[:-1], "px", "pz"]
    return [poly.substitute(poly.expand(t, names), images) for t in trees]


def fast_poly(fast: str, k: int) -> dict:
    """Monomials in x1..xm, z of the fast-field text ``fast`` with epsilon = 1."""
    names = list(_names(k - 1)[:-1])
    return poly.expand(parse_expression(fast, _env(names, {"epsilon": 1.0})), names)


def gain_law(k: int, p: Theorem2Params) -> list[dict]:
    """The baseline law in x1..xm, z and r = eps^(1/(2k-1)):
    ``control.THM2_TEMPLATE`` with px = r^-k and pz = r^-1."""
    _check_order(k, p.a)
    return _gain_polys(k, thm2_template(p, "px", "pz"),
                       [_mono(k + 1, 1.0, 0, j) for j in range(k)])


def family_law(k: int, p: Theorem2Params) -> list[dict]:
    """The chart controller, :func:`gain_law` in (x_bar_1..x_bar_m, z_bar, r_bar):
    -c_1 - a_1 x_bar_1 + b z_bar and -c_i - r_bar^(1-i) a_i x_bar_i."""
    images = _blow_down(k, k + 1, 1.0, (1.0, 1))
    return [poly.substitute(u, images) for u in gain_law(k, p)]


def family_field(sys: NormalFormSystem, p: Theorem2Params) -> list[dict]:
    """The baseline closed loop in the family chart, as polynomials in
    (x_bar_1..x_bar_m, z_bar, r_bar): x_i = r^(k-i+1) x_bar_i, z = r z_bar
    and eps = r^(2k-1) substituted into f + v and into g / eps, times the
    time factor r^k (:func:`family_time_rescale`). So x_bar_i' =
    r^(i-1) (f_i + v_i), in which the law's r^(1-i) cancels, and z_bar' =
    g(x_bar, z_bar). A drift that is not polynomial, or a row with its own
    fast field, raises ValueError."""
    what = "the family-chart field"
    _require_g(sys, what)
    k = sys.k
    images = _blow_down(k, k + 1, 1.0, (1.0, 2 * k - 1))
    slow = [_times(poly._add(poly.substitute(f, images), v), 1.0, {k: i})
            for i, (f, v) in enumerate(zip(_drift_polys(sys, what), family_law(k, p)))]
    g = poly.substitute(fast_poly(sys.fast, k), images[:-1])
    # the time factor r^k, z_bar = z / r and eps^-1 = r^-(2k-1)
    return [*slow, _times(g, 1.0, {k: k - 1 - (2 * k - 1)})]


@lru_cache(maxsize=64)
def family_loop(sys: NormalFormSystem, p: Theorem2Params):
    """``rhs`` of :func:`slowfast.sim.compile_loop` on (x_bar_1..x_bar_m,
    z_bar, r_bar), once per (system, params): :func:`family_field` and
    r_bar' = 0, so r_bar stays the same float along a run."""
    names = [*(f"xb{i}" for i in range(1, sys.k)), "zb", "rb"]
    trees = {f"_d{i}": poly.render(q, names) for i, q in enumerate(family_field(sys, p))}
    return compile_loop(names, [f"{', '.join(trees)}, 0.0"], trees)[0]


def closed_loop_rhs_family(c: FamilyChartState, sys: NormalFormSystem,
                           p: Theorem2Params) -> tuple[float, np.ndarray, float]:
    """(r_bar', x_bar', z_bar') at ``c``: the ``rhs`` of :func:`family_loop`."""
    *dx, dz, dr = family_loop(sys, p)(0.0, np.array(
        [*_vec(c.x_bar, sys.k - 1, "x_bar").tolist(), c.z_bar, c.r_bar]))
    return dr, np.array(dx), dz


def compensation_zneg(k: int, p: Theorem3Params) -> list[dict]:
    """``control.thm3_law`` under x_i = rho^(k-i+1) chi_i and z = -rho, in
    (chi_1..chi_m, rho): K_i rho^(k-i+2) (chi*_i - chi_i)."""
    images = _blow_down(k, k, -1.0)
    return [poly.substitute(poly.expand(t, _names(k - 1)[:-1]), images) for t in thm3_law(k, p)]


def to_directional_zneg(s: State, epsilon: float, k: int) -> DirectionalChartState:
    """Chart coordinates (rho, chi, mu) of a point with z < 0 and eps >= 0."""
    if not s.z < 0:
        raise ValueError(f"directional chart covers z < 0 only, got z = {s.z}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    x = _vec(s.x, k - 1, "x")
    rho = -s.z
    chi = np.array([x[i] / rho ** (k - i) for i in range(k - 1)])
    return DirectionalChartState(rho=rho, chi=chi, mu=epsilon / rho ** (2 * k - 1))


def from_directional_zneg(c: DirectionalChartState, k: int) -> tuple[State, float]:
    """Blow down the directional chart: z = -rho, x_i = rho^(k-i+1) chi_i."""
    chi = _vec(c.chi, k - 1, "chi")
    rho = c.rho  # > 0, checked when the state was made
    x = np.array([rho ** (k - i) * chi[i] for i in range(k - 1)])
    return State(x=x, z=-rho), rho ** (2 * k - 1) * c.mu


def directional_field(sys: NormalFormSystem, variant: Variant) -> list[dict]:
    """The closed loop of ``variant`` in the z < 0 chart, as polynomials in
    (chi_1..chi_m, rho, r_bar): x_i = rho^(k-i+1) chi_i, z = -rho and
    eps = r_bar^(2k-1) substituted into the fast-time field x' = eps (f + v),
    z' = g, pushed through the chart and divided by rho^(k-1). So rho' =
    -g / rho^(k-1) = rho F(chi), with the radial rate F(chi) = -g / rho^k, and

        chi_i' = r_bar^(2k-1) rho^(i-2k) (f_i + v_i) - (k-i+1) F(chi) chi_i,

    with negative powers of rho > 0 and none of r_bar. Returned as [chi_1',
    .., chi_m', rho']; r_bar = rho mu^(1/(2k-1)) is constant along orbits.
    The control v is :func:`slowfast.closedloop.law` with its gain powers
    px = r_bar^-k and pz = r_bar^-1, so the variants are those that law
    admits with named gain powers. A drift that is not polynomial, a
    variant that law refuses, a row with its own fast field or a law or g of
    degree over ``poly.MAX_DEGREE`` in x and z (the compensation's is k + 1,
    so k up to 11) raises ValueError.
    """
    what = "the z < 0 chart field"
    _require_g(sys, what)
    k = sys.k
    images = [(c, (*e, 0)) for c, e in _blow_down(k, k, -1.0)]
    drift = [poly.substitute(f, [*images, _mono(k + 1, 1.0, 2 * k - 1)])
             for f in _drift_polys(sys, what)]
    try:
        v = _gain_polys(k, law(sys, variant, ("px", "pz")), images)
        g = fast_poly(sys.fast, k)
    except poly.NotPolynomial as exc:
        raise ValueError(f"{what} at k = {k}: {exc}") from None
    drho = _times(poly.substitute(g, images), -1.0, {k - 1: 1 - k})
    rate = _times(drho, 1.0, {k - 1: -1})
    dchi = [poly._add(_times(poly._add(f, u), 1.0, {k - 1: i + 1 - 2 * k, k: 2 * k - 1}),
                      _times(rate, -(k - i), {i: 1}))
            for i, (f, u) in enumerate(zip(drift, v))]
    return [*dchi, drho]


def _value(p: dict, values: list[float]) -> float:
    """``p`` at ``values``, one per name: each coefficient times its powers."""
    return sum(c * math.prod(v ** n for v, n in zip(values, e) if n) for e, c in p.items())


def desing_rhs_directional(c: DirectionalChartState, sys: NormalFormSystem,
                           variant: Variant) -> tuple[float, np.ndarray, float]:
    """Desingularized z < 0 chart field (rho', chi', mu') at ``c``.

    :func:`directional_field`, its monomials evaluated at r_bar = rho
    mu^(1/(2k-1)); mu' = -(2k-1) mu rho' / rho. The point's mu fixes eps =
    rho^(2k-1) mu, so the system's own epsilon is not read. Variants and
    systems are refused as by :func:`directional_field`.
    """
    k, field = sys.k, directional_field(sys, variant)
    values = [*_vec(c.chi, k - 1, "chi").tolist(), c.rho, c.rho * c.mu ** (1.0 / (2 * k - 1))]
    *dchi, drho = (_value(q, values) for q in field)
    return drho, np.array(dchi), -(2 * k - 1) * c.mu * drho / c.rho


def family_time_rescale(epsilon: float, k: int) -> float:
    """Slow time per unit of desingularized family-chart time.

    Dividing the blown-up fast-time field by r_bar^(k-1) and converting
    fast to slow time gives t = eps^(k/(2k-1)) * s.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return epsilon ** (k / (2 * k - 1))
