"""Quasihomogeneous blow-up charts and desingularized vector fields.

The degenerate point at the origin is inflated with weights (k, ..., 2) for
the slow states, 1 for the fast state and 2k-1 for epsilon. A chart is one
record, :class:`Chart`, and both charts are its rows, in the notation of
Krupa & Szmolyan (SIAM J. Math. Anal. 33, 2001): :data:`FAMILY`, the
rescaling chart K2 (eps_bar = 1), whose radius r_bar = eps^(1/(2k-1)) is
constant along trajectories, and :data:`ZNEG`, the directional chart
z_bar = -1 covering z < 0, whose radius is rho = -z.

Everything else is derived from that record. The blow-down maps monomials
to monomials, so a polynomial closed loop of any variant is pushed into a
chart from its checked trees (:mod:`slowfast.poly`): :func:`chart_field`,
with no negative power of r_bar, and generated as a loop by :func:`chart_loop`,
the one evaluator of a chart field, at a point or along a run. The same
images give the chart controller (:func:`family_law`) and the compensation in
the z < 0 chart (:func:`compensation_zneg`). The float maps ``to_*`` and
``from_*`` are written out apart from those images, as an independent
blow-down.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .closedloop import Variant, law
from .control import Theorem2Params, Theorem3Params, _check_order, thm2_template, thm3_law
from .expr import parse_expression
from .normal_form import NormalFormSystem, State, _drift_trees, _env, _names, _require_g, _vec
from .sim import compile_loop

__all__ = ["FamilyChartState", "DirectionalChartState", "to_family_chart", "from_family_chart",
           "to_directional_zneg", "from_directional_zneg", "Chart", "FAMILY", "ZNEG",
           "fast_poly", "gain_law", "family_law", "compensation_zneg", "chart_field",
           "chart_loop", "family_time_rescale"]


@dataclass(frozen=True)
class FamilyChartState:
    """Coordinates (r_bar, x_bar, z_bar) of the chart eps_bar = 1; r_bar finite, >= 0."""

    r_bar: float
    x_bar: np.ndarray
    z_bar: float

    def __post_init__(self):
        object.__setattr__(self, "r_bar", float(self.r_bar))
        object.__setattr__(self, "x_bar", _vec(self.x_bar, name="x_bar"))
        object.__setattr__(self, "z_bar", float(self.z_bar))
        if not 0 <= self.r_bar < math.inf:
            raise ValueError(f"r_bar must be finite and >= 0, got {self.r_bar}")


@dataclass(frozen=True)
class DirectionalChartState:
    """Coordinates (rho, chi, mu) in the chart covering z < 0; rho finite and
    > 0, mu = eps / rho^(2k-1) finite and >= 0."""

    rho: float
    chi: np.ndarray
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "chi", _vec(self.chi, name="chi"))
        object.__setattr__(self, "mu", float(self.mu))
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


def to_family_chart(s: State, epsilon: float, k: int) -> FamilyChartState:
    """Blow up (x, z, eps) with finite eps > 0 into the family chart."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"family chart requires a finite epsilon > 0, got {epsilon}")
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


@dataclass(frozen=True)
class Chart:
    """A chart in the names (v_1..v_m, w, r_bar): x_i = R^(k-i+1) v_i and
    eps = r_bar^(2k-1) for the radius R. Where ``radial``, R is w and z =
    ``sign`` R; otherwise R is r_bar and z = ``sign`` R w. ``what`` names the
    field in refusals."""

    what: str
    sign: float
    radial: bool


FAMILY = Chart("the family-chart field", 1.0, False)
ZNEG = Chart("the z < 0 chart field", -1.0, True)


def _mono(n: int, c: float, *powers) -> tuple:
    """The monomial c times each (index, power) of ``powers``, in n names."""
    return c, tuple(sum(d for j, d in powers if j == i) for i in range(n))


def _images(k: int, chart: Chart) -> tuple[list, int]:
    """Images of x1..xm, z and eps in the chart's k + 1 names, and the index
    of its radius R among those names."""
    R = k - 1 if chart.radial else k
    z = [(R, 1)] if chart.radial else [(k - 1, 1), (R, 1)]
    return [*(_mono(k + 1, 1.0, (i, 1), (R, k - i)) for i in range(k - 1)),
            _mono(k + 1, chart.sign, *z), _mono(k + 1, 1.0, (k, 2 * k - 1))], R


def _times(p: dict, c: float, *powers) -> dict:
    """``p`` times the monomial ``c`` and ``powers`` of :func:`_mono`."""
    _, d = _mono(len(next(iter(p), ())), c, *powers)
    return {tuple(a + b for a, b in zip(e, d)): c * v for e, v in p.items()}


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
    images = [*images, _mono(n, 1.0, (n - 1, -k)), _mono(n, 1.0, (n - 1, -1))]
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
                       [_mono(k + 1, 1.0, (j, 1)) for j in range(k)])


def family_law(k: int, p: Theorem2Params) -> list[dict]:
    """The chart controller, :func:`gain_law` in (x_bar_1..x_bar_m, z_bar, r_bar):
    -c_1 - a_1 x_bar_1 + b z_bar and -c_i - r_bar^(1-i) a_i x_bar_i."""
    images = [*_images(k, FAMILY)[0][:k], _mono(k + 1, 1.0, (k, 1))]
    return [poly.substitute(u, images) for u in gain_law(k, p)]


def compensation_zneg(k: int, p: Theorem3Params) -> list[dict]:
    """``control.thm3_law`` under x_i = rho^(k-i+1) chi_i and z = -rho, in
    (chi_1..chi_m, rho): K_i rho^(k-i+2) (chi*_i - chi_i)."""
    images = [(c, e[:-1]) for c, e in _images(k, ZNEG)[0][:k]]
    return [poly.substitute(poly.expand(t, _names(k - 1)[:-1]), images) for t in thm3_law(k, p)]


def to_directional_zneg(s: State, epsilon: float, k: int) -> DirectionalChartState:
    """Chart coordinates (rho, chi, mu) of a point with z < 0 and eps >= 0."""
    if not s.z < 0:
        raise ValueError(f"directional chart covers z < 0 only, got z = {s.z}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
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


def chart_field(sys: NormalFormSystem, variant: Variant, chart: Chart) -> list[dict]:
    """The closed loop of ``variant`` in ``chart``, as polynomials in
    (v_1..v_m, w, r_bar): the fast-time field x' = eps (f + v), z' = g,
    pushed through the chart and times R^(1-k). With the radial rate F =
    R^(1-k) R'/R, 0 where eps is fixed and R^(1-k) z'/z where z = sign R
    (F(chi) = (-1)^k + chi_1 - chi_2 + ... in the z < 0 chart), v_i' =
    r_bar^(2k-1) R^(i-2k) (f_i + v_i) - (k-i+1) F v_i, and w' = z_bar' =
    g(x_bar, z_bar) or w' = rho' = rho F. Returned as [v_1', .., v_m', w'];
    r_bar' = 0. No negative power of r_bar is left.

    v is :func:`slowfast.closedloop.law` with its gain powers px = r_bar^-k
    and pz = r_bar^-1, so the variants are those that law admits with named
    gain powers. A drift that is not polynomial, a variant that law refuses,
    a row with its own fast field or a law or g of degree over
    ``poly.MAX_DEGREE`` in x and z (the compensation's is k + 1, so k up to
    11) raises ValueError.
    """
    _require_g(sys, chart.what)
    k = sys.k
    images, R = _images(k, chart)
    drift = [poly.substitute(f, images) for f in _drift_polys(sys, chart.what)]
    try:
        v = _gain_polys(k, law(sys, variant, ("px", "pz")), images[:k])
        g = poly.substitute(fast_poly(sys.fast, k), images[:k])
    except poly.NotPolynomial as exc:
        raise ValueError(f"{chart.what} at k = {k}: {exc}") from None
    q = _times(g, chart.sign, (R, -k))
    rate = q if chart.radial else {}
    slow = [poly._add(_times(poly._add(f, u), 1.0, (R, i + 1 - 2 * k), (k, 2 * k - 1)),
                      _times(rate, -(k - i), (i, 1)))
            for i, (f, u) in enumerate(zip(drift, v))]
    return [*slow, _times(q, 1.0, (R, 1)) if chart.radial else q]


def chart_loop(sys: NormalFormSystem, variant: Variant, chart: Chart):
    """``rhs`` of :func:`slowfast.sim.compile_loop` on (v_1..v_m, w, r_bar):
    :func:`chart_field`, rendered to checked trees, and r_bar' = 0, so r_bar
    stays the same float along a run. It is the one evaluator of a chart
    field; each call derives and compiles the loop afresh."""
    names = [*(f"v{i}" for i in range(1, sys.k)), "w", "rb"]
    rendered = [poly.render(q, names) for q in chart_field(sys, variant, chart)]
    return compile_loop(names, [*rendered, ast.Constant(0.0)])[0]


def family_time_rescale(epsilon: float, k: int) -> float:
    """Slow time per unit of desingularized family-chart time.

    Dividing the blown-up fast-time field by r_bar^(k-1) and converting
    fast to slow time gives t = eps^(k/(2k-1)) * s.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    return epsilon ** (k / (2 * k - 1))
