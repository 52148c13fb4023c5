"""Adaptive integration of slow-fast closed loops.

Uses an explicit embedded Dormand-Prince 5(4) pair with error-per-step
control and max_step tied to eps/2. At the eps >= 1e-3 scales targeted
here the step is limited by accuracy, not by stability: on the costliest
region-of-attraction cells (the compensated loop's grid corners) h times
the Jacobian's spectral radius stays near 0.1, well inside the pair's
stability region, and an implicit solver (scipy's Radau) takes several
times more steps than an explicit one. So the explicit pair is cheaper and
more reproducible than an implicit solver. Finite-time blow-up of the
fast state (z' ~ -z^k/eps) is detected by step-size collapse in addition
to a norm threshold, since no norm test alone is robust for it.

The closed loops integrated here have 2 to a handful of states, where
per-call overhead costs far more than the arithmetic. So the whole
adaptive loop is one straight-line function, generated once per state
dimension n on first use from n, the tableau and the step control
constants (:func:`_loop_source`) and compiled by :func:`compile_functions`,
the package's one compiler of generated code: the state and the stages
are scalar Python float locals across steps, each stage input is a list display,
the error norm is unrolled in the order of a loop over the components,
and the step control (clamp to the record time, reject or accept, step
factor, step collapse, norm escape, ball dwell) is written in the loop
with comparisons instead of calls; the proof test at record times is one
call, so the source is linear in n. The generic loop calls the
right-hand side once per stage with a fresh float array, and the
right-hand side may return any sequence. A loop of :func:`compile_loop`
(the slow-time closed loops and both blow-up charts') carries its own loop
as ``run``: the same source with the field written inline at every
stage, in the same order of operations, so both give the same run bit
for bit and a step makes no Python call. This is the only stepper:
trajectories, chart flows and sweep cells run through :func:`integrate`,
whose trajectory reports the loop's counters and stop reason as
:class:`IntegratorStats`. Everything is plain IEEE double arithmetic in a
fixed order, so the results do not depend on the BLAS build.

A trajectory converges when its state stays inside a ball for the final
``DWELL`` time units; a region-of-attraction cell uses the ball ``BALL``
and stops integrating once that has happened, or as soon as a recorded
state lies in a sublevel set of a Lyapunov function proved to stay inside
the ball (:mod:`slowfast.lyapunov`), with the same verdict (see
:func:`integrate` and :func:`classify`).
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import expr

__all__ = [
    "IntegratorConfig",
    "IntegratorStats",
    "NonFiniteError",
    "config_for",
    "Outcome",
    "Trajectory",
    "integrate",
    "attempt",
    "classify",
    "control_sup_norm",
    "write_trajectory_csv",
]

RHS = Callable[[float, np.ndarray], Sequence[float]]
ControlEval = Callable[[float, list], Sequence[float]]

# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and the
# last stage is reused as the first of the next step (FSAL). The b2 and e2
# weights are zero and left out of the combinations below.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)

# (c_s, a_s1..a_s,s-1) of stages 2..6 and the (stage, weight) pairs of the
# solution and the error estimate, in the order the attempt sums them
_STAGES = ((_C2, (_A21,)), (_C3, (_A31, _A32)), (_C4, (_A41, _A42, _A43)),
           (_C5, (_A51, _A52, _A53, _A54)),
           (1.0, (_A61, _A62, _A63, _A64, _A65)))
_SOLUTION = ((1, _B1), (3, _B3), (4, _B4), (5, _B5), (6, _B6))
_ERROR = ((1, _E1), (3, _E3), (4, _E4), (5, _E5), (6, _E6), (7, _E7))

#: radius of the convergence ball of a region-of-attraction cell
BALL = 1e-3
#: time a converged trajectory stays inside its ball, at the end of the run
DWELL = 1.0

_ORDER_EXP = -0.2  # 1/(order+1) exponent of the step controller
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class NonFiniteError(ValueError):
    """The initial condition, or the field at it, is not finite."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, guards and output cadence of :func:`integrate`."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = 1e-3
    divergence_norm: float = 1e6
    min_step: float = 1e-13
    t_final: float = 10.0
    record_stride: float = 1e-2

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("rtol and atol must be > 0")
        if not self.divergence_norm > 0:
            raise ValueError("divergence_norm must be > 0")
        if not self.record_stride >= self.min_step:
            raise ValueError("need record_stride >= min_step")


def config_for(epsilon: float, t_final: float, **overrides) -> IntegratorConfig:
    """Config with max_step = min(eps/2, 1e-3) guarding the fast layer."""
    cfg = IntegratorConfig(
        max_step=min(epsilon / 2.0, 1e-3), t_final=t_final
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class Outcome:
    """Classification of a trajectory: converged, diverged or undecided;
    ``failure`` is the error text of a run that failed (:func:`attempt`)."""

    kind: str
    t_enter: float | None = None
    t_escape: float | None = None
    failure: str | None = None

    @classmethod
    def converged(cls, t_enter: float) -> "Outcome":
        return cls("converged", t_enter=t_enter)

    @classmethod
    def diverged(cls, t_escape: float, failure: str | None = None) -> "Outcome":
        return cls("diverged", t_escape=t_escape, failure=failure)

    @classmethod
    def undecided(cls) -> "Outcome":
        return cls("undecided")

    @property
    def is_converged(self) -> bool:
        return self.kind == "converged"

    @property
    def is_diverged(self) -> bool:
        return self.kind == "diverged"


@dataclass(frozen=True)
class IntegratorStats:
    """What one :func:`integrate` run did and why it stopped.

    ``accepted`` and ``rejected`` count the attempts whose error estimate
    passed and failed, and ``retried`` the attempts halved because a stage
    was not finite or raised an :class:`ArithmeticError`. ``h_min`` is the
    smallest accepted step (None when no step was accepted); it can be
    below ``min_step`` for a step clamped onto a record time. ``reason`` is
    ``"t_final"``, ``"dwell"`` (the state stayed in the stop ball),
    ``"norm"`` (the state norm passed ``divergence_norm``) or
    ``"collapse"`` (a step short of the next record time fell below
    ``min_step``) or ``"proved"`` (a
    recorded state lay in a proved-invariant set inside the stop ball, see
    :func:`integrate`).
    """

    reason: str
    accepted: int
    rejected: int
    retried: int
    h_min: float | None


@dataclass
class Trajectory:
    """Recorded samples of one integration run.

    ``states`` has one row per sample with the fast state in the last
    column; ``controls`` (optional) holds the control signal evaluated at
    the recorded times only. ``stats`` is set by :func:`integrate` (a
    switched run sums the counts of its two segments).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray | None
    outcome: Outcome
    stats: IntegratorStats | None = None

    def __len__(self) -> int:
        return self.times.size


def _rms(values: list, scales: list) -> float:
    """Root mean square of values / scales; inf, not OverflowError, if huge."""
    acc = 0.0
    for v, s in zip(values, scales):
        q = v / s
        acc += q * q
    return math.sqrt(acc / len(scales))


def _loop_source(n: int, state: Sequence[str] | None = None) -> str:
    """Source of the adaptive Dormand-Prince loop for state dimension ``n``.

    Built only from ``n``, the tableau and the step control constants;
    every number is written as its exact ``repr``. The state ``y_i`` and the
    first stage ``k1_i`` are scalar locals across steps. An attempt's
    combinations group as ``v + h * (a1 * k1 + a2 * k2 + ...)``, summed left
    to right, and its error norm accumulates from 0.0 component by
    component, so the arithmetic is that of a loop over the components.
    ``abs``, ``min`` and ``max`` are written as the comparisons that give
    the same values, so a step calls nothing but the field, ``hypot`` and
    ``sqrt``.

    Each of stages 2..7 calls ``f(t, y)`` on the stage input as one list
    display. Given the field's variable names ``state``, a stage instead
    binds them to the input's n components and gives the field as the
    tuple of the names ``_d0``, ``_d1``, ... that :func:`compile_loop`
    fills with its trees.

    The generated ``run(f, t, y, k1, hp, rtol, atol, max_step, min_step,
    div_norm, stride, n_rec, t_final, ball, margin, form, level)``
    integrates from ``t`` with first step guess ``hp`` and records at
    ``t + i * stride`` for
    ``i`` = 1 .. ``n_rec`` - 1 and at ``t_final``. A step is clamped onto
    the next record time, and stretched onto it rather than leave a sliver
    shorter than ``min_step``; an attempt whose error exceeds 1 is retried
    with a smaller step, and one whose state norm or error is not finite,
    or whose field raises an :class:`ArithmeticError`, with half the step.
    Until an attempt is accepted, its retries only shrink: they land on the
    record time only when the step reaches it, and are never stretched, so
    no failed attempt is tried again. A step clamped onto the record time
    may be shorter than ``min_step`` (the rounding of ``t0 + i * stride``,
    or a shrunk step landing short of it, can leave such a gap); it leaves
    the next step's guess as it was. The run stops at ``t_final``, when a
    step that does not land on the record time falls below ``min_step``
    (``collapse``), when an accepted state's norm exceeds ``div_norm``
    (``norm``), once the norm has stayed below ``ball`` for ``margin``
    time units (``dwell``), or at a record time before ``t_final`` whose
    state has V <= ``level`` (``proved``), where V is the quadratic form
    whose upper-triangle coefficients are ``form``, row by row, summed by
    one call of :func:`_quadratic`. A negative ``level``, the
    default -1.0, skips V, so a trajectory run pays one comparison per
    record for it and never stops there. It returns ``(times, states, t,
    reason, accepted, rejected, retried, h_min)``: the recorded times and
    states (float lists), the time it stopped at, the reason, the counts of
    accepted, rejected and halved attempts and the smallest accepted step
    (inf when none was).
    """
    idx = range(n)

    def names(stem: str) -> str:
        return "".join(f"{stem}_{i}, " for i in idx)

    def combo(terms, i: int) -> str:
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in terms)

    def field(t: str, args: list[str]) -> tuple[list[str], str]:
        if state is None:
            return [], f"f({t}, [{', '.join(args)}])"
        return ([f"            {''.join(f'{name}, ' for name in state)}= {', '.join(args)}"],
                f"({''.join(f'_d{i}, ' for i in idx)})")

    def record(indent: str) -> list[str]:
        return [f"{indent}times.append(t)", f"{indent}states.append([{names('y')}])"]

    def factor(bound: str, lo: float, hi: float | None = None) -> list[str]:
        # s = SAFETY * err ** ORDER_EXP, then max(lo, s) and min(hi, s)
        lines = [f"{bound}s = {_SAFETY!r} * err ** {_ORDER_EXP!r}",
                 f"{bound}s = s if s > {lo!r} else {lo!r}"]
        if hi is not None:
            lines.append(f"{bound}s = s if s < {hi!r} else {hi!r}")
        return lines

    lines = ["def run(f, t, y, k1, hp, rtol, atol, max_step, min_step, div_norm,",
             "        stride, n_rec, t_final, ball, margin, form=(), level=-1.0):",
             f"    {names('y')}= y",
             f"    {names('k1')}= k1",
             "    times, states = [t], [y]",
             "    accepted = rejected = retried = 0",
             "    h_min = _inf",
             "    reason = 't_final'",
             "    t0 = t_rec = t",
             "    rec_i = 1",
             "    t_target = t0 + rec_i * stride if rec_i < n_rec else t_final",
             "    entry = None",
             "    shrunk = False",
             "    while True:",
             # h = min(hp, max_step, gap), stretched onto the record time
             # rather than leave an unsteppable sliver unless it follows a
             # failed attempt
             "        gap = t_target - t",
             "        h = hp if hp < max_step else max_step",
             "        clamped = h >= gap if shrunk else h >= gap - min_step",
             "        if clamped:",
             "            h = gap",
             "        elif h < min_step:",
             "            reason = 'collapse'",
             "            if t_rec < t:",
             *record("                "),
             "            break",
             # set until this attempt is accepted
             "        shrunk = True",
             "        try:"]
    for s, (c, weights) in enumerate(_STAGES, start=2):
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        terms = list(enumerate(weights, start=1))
        args = [f"y_{i} + h * ({combo(terms, i)})" for i in idx]
        body, value = field(at, args)
        lines += [*body, f"            {names(f'k{s}')}= {value}"]
    for i in idx:
        lines.append(f"            w_{i} = y_{i} + h * ({combo(_SOLUTION, i)})")
    ws = [f"w_{i}" for i in idx]
    body, value = field("t + h", ws)
    lines += [f"            norm = _hypot({', '.join(ws)})",
              "            if not norm < _inf:",
              "                retried += 1",
              "                hp = 0.5 * h",
              "                continue",
              *body,
              f"            {names('k7')}= {value}",
              "            acc = 0.0"]
    for i in idx:
        lines += [f"            a = y_{i} if y_{i} >= 0.0 else -y_{i}",
                  f"            b = w_{i} if w_{i} >= 0.0 else -w_{i}",
                  f"            q = h * ({combo(_ERROR, i)}) / (atol + rtol * (a if a > b else b))",
                  "            acc += q * q"]
    lines += [f"            err = _sqrt(acc / {n})",
              "        except _ArithmeticError:",
              "            retried += 1",
              "            hp = 0.5 * h",
              "            continue",
              "        if not err <= 1.0:",
              "            if err < _inf:",
              "                rejected += 1",
              *factor("                ", 0.1),
              "                hp = h * s",
              "            else:",
              "                retried += 1",
              "                hp = 0.5 * h",
              "            continue",
              "        accepted += 1",
              "        shrunk = False",
              "        if h < h_min:",
              "            h_min = h",
              "        t = t_target if clamped else t + h",
              *(f"        y_{i} = w_{i}" for i in idx),
              *(f"        k1_{i} = k7_{i}" for i in idx),
              # a sliver clamped onto the record time leaves the guess as it was
              "        if h >= min_step:",
              "            if err == 0.0:",
              f"                s = {_MAX_FACTOR!r}",
              "            else:",
              *factor("                ", _MIN_FACTOR, _MAX_FACTOR),
              "            hp = h * s",
              "            if not hp < max_step:",
              "                hp = max_step",
              "        if norm > div_norm:",
              "            reason = 'norm'",
              *record("            "),
              "            break",
              "        if clamped:",
              *record("            "),
              "            if rec_i == n_rec:",
              "                break",
              "            if level >= 0.0 and _quadratic(form, states[-1]) <= level:",
              "                reason = 'proved'",
              "                break",
              "            t_rec = t",
              "            rec_i += 1",
              "            t_target = t0 + rec_i * stride if rec_i < n_rec else t_final",
              "        if norm < ball:",
              "            if entry is None:",
              "                entry = t",
              "            elif t - entry >= margin:",
              "                reason = 'dwell'",
              "                if t_rec < t:",
              *record("                    "),
              "                break",
              "        else:",
              "            entry = None",
              "    return times, states, t, reason, accepted, rejected, retried, h_min"]
    return "\n".join(lines) + "\n"


def _quadratic(form, y) -> float:
    """y^T P y of the upper-triangle coefficients ``form`` of P, row by row,
    summed left to right from 0.0 (``sum`` compensates from Python 3.12)."""
    v = 0.0
    p = iter(form)
    for i, yi in enumerate(y):
        for yj in y[i:]:
            v += next(p) * yi * yj
    return v


# globals of every generated function: no builtins, expr.SCOPE and the loop's names
_SCOPE = {**expr.SCOPE, "_hypot": math.hypot, "_sqrt": math.sqrt, "_inf": math.inf,
          "_ArithmeticError": ArithmeticError, "_quadratic": _quadratic, "__builtins__": {}}


class _Fill(ast.NodeTransformer):
    # each tree gets its locations once and replaces, uncopied, every use of
    # its name: compile only reads the module

    def __init__(self, trees: dict):
        self.trees = {name: ast.fix_missing_locations(tree) for name, tree in trees.items()}

    def visit_Name(self, node):
        return self.trees.get(node.id, node)


def compile_functions(src: str, trees: dict) -> dict:
    """Namespace of the definitions in ``src``, in which each name of
    ``trees`` stands for that checked tree.

    ``src`` is text of names and the integrator's own tableau only; it is
    parsed, and every ``ast.Name`` whose id is a key of ``trees`` is replaced
    by that tree, shared by all its uses, since compile only reads it. So
    the numbers of a config or an expression reach the compiler as the
    constants of trees from :func:`slowfast.expr.parse_expression`, never as
    text. The globals are ``_SCOPE`` and the functions defined; there are no
    builtins.
    """
    module = _Fill(trees).visit(ast.parse(src))
    ns = dict(_SCOPE)
    exec(compile(module, "<generated>", "exec"), ns)
    return ns


def compile_loop(names: Sequence[str], field: list, control: list | None = None):
    """``(rhs, ueval)`` of the field ``field`` in the state ``names``: the
    one generator of a loop with its field inline.

    ``field`` is the n components and ``control`` the recorded control, both
    lists of checked trees in ``names``, filled in as ``_d0``, ... and
    ``_u0``, ... (:func:`compile_functions`). ``rhs(t, y)`` returns the
    components as a list of floats and carries as ``run`` the loop of
    :func:`_loop_source` with the field inline at every stage. ``ueval(t,
    y)`` of a recorded float list returns the control as a list, and is
    None without ``control``.
    """
    state = "".join(f"{name}, " for name in names)
    trees = {f"_d{i}": tree for i, tree in enumerate(field)}
    src = _loop_source(len(names), names)
    src += f"def rhs(t, y):\n    {state}= y.tolist()\n    return [{', '.join(trees)}]\n"
    if control is not None:
        us = {f"_u{i}": tree for i, tree in enumerate(control)}
        src += f"def ueval(t, y):\n    {state}= y\n    return [{', '.join(us)}]\n"
        trees.update(us)
    ns = compile_functions(src, trees)
    ns["rhs"].run = ns["run"]
    return ns["rhs"], ns.get("ueval")


@cache
def _loop(n: int):
    """The generic loop of :func:`_loop_source` for state dimension ``n``,
    compiled once: ``f(t, list) -> list`` is called at every stage."""
    return compile_functions(_loop_source(n), {})["run"]


def _on_lists(fn):
    """``fn`` as ``(t, list) -> list``: it is passed a fresh float array,
    and a result that is not a list is converted once."""

    def adapted(t: float, yl: list) -> list:
        f = fn(t, np.array(yl))
        return f if type(f) is list else np.asarray(f, dtype=float).tolist()

    return adapted


@np.errstate(all="ignore")
def integrate(
    rhs: RHS,
    ic: Sequence[float] | np.ndarray,
    cfg: IntegratorConfig,
    t0: float = 0.0,
    control: ControlEval | None = None,
    stop_ball: float | None = None,
    invariant: tuple[np.ndarray, float] | None = None,
) -> Trajectory:
    """Integrate ``rhs`` from ``ic`` over [t0, cfg.t_final].

    Records samples every ``cfg.record_stride`` time units and at
    ``cfg.t_final`` (boundaries are hit exactly). Halts early with a
    diverged outcome when the state norm exceeds ``cfg.divergence_norm``
    or when the step controller collapses below ``cfg.min_step``, as it
    does when the solution stops being finite. If ``stop_ball`` is given,
    integration also halts once the state has remained inside that ball
    for ``DWELL`` time units (plus a small margin so that :func:`classify`
    sees a full dwell window). ``invariant``, used only with ``stop_ball``,
    is a pair (P, level) whose sublevel set {y^T P y <= level} is proved to
    stay inside that ball (:func:`slowfast.closedloop.certificate`): the
    run then also halts at the first record time before ``cfg.t_final``
    whose state lies in it, with the reason ``"proved"``, and its outcome
    is what the integrated dwell would give, ``converged(t_b)`` when the
    records are inside the ball from t_b on and t_b + ``DWELL`` still fits
    before ``cfg.t_final``, else undecided. A trajectory run (no
    ``stop_ball``) never stops there.

    ``rhs`` receives the state as a fresh 1-d float array and may return
    any sequence of floats. The checks, the first stage and the first step
    guess are made here; then one call runs the whole adaptive loop,
    generated code of :func:`_loop_source`. An ``rhs`` that carries a
    ``run`` attribute, that loop with its field inline at every stage (the
    loops of :func:`compile_loop`), is run by it,
    else the generic loop of the state dimension calls ``rhs`` once per
    stage; the result is the same bit for bit on both paths. A stage at
    which ``rhs`` raises an :class:`ArithmeticError` counts as non-finite,
    like a stage that returns inf or NaN: the step is halved and retried.
    ``control`` is evaluated after the loop, once per recorded sample in
    order, on the list of floats recorded there, and may return any
    sequence of floats. The trajectory's ``stats`` count the attempts and
    give the reason the loop stopped. Everything runs under
    ``np.errstate(all="ignore")``, so a numpy function of a field gives NaN
    or inf, never a warning, whatever the warnings filter.
    """
    y0 = np.array(ic, dtype=float)
    if y0.ndim != 1:
        raise ValueError("initial condition must be a 1-d vector")
    if not np.all(np.isfinite(y0)):
        raise NonFiniteError("initial condition contains non-finite entries")
    n = y0.size
    ev = _on_lists(rhs)
    y = y0.tolist()
    k1 = ev(t0, y)
    if not (isinstance(k1, list) and len(k1) == n):
        raise ValueError(f"rhs must return {n} values, got {np.shape(k1)}")
    if not all(map(math.isfinite, k1)):
        raise NonFiniteError("rhs is not finite at the initial condition")
    if not cfg.t_final > t0:
        raise ValueError("t_final must exceed the initial time")

    # first step guess, bounded by the output cadence
    rtol, atol, max_step, min_step = cfg.rtol, cfg.atol, cfg.max_step, cfg.min_step
    scale0 = [atol + rtol * abs(v) for v in y]
    d0, d1 = _rms(y, scale0), _rms(k1, scale0)
    h = min(max_step, cfg.t_final - t0)
    if d1 > 0:
        h = min(h, 0.01 * max(d0, 1e-6) / d1)
    h = max(h, min_step)

    stride = cfg.record_stride
    records = (cfg.t_final - t0) / stride
    if not math.isfinite(records):
        raise ValueError(f"(t_final - t0) / record_stride must be finite, got {records}")
    n_rec = max(1, int(math.ceil(records - 1e-12)))
    run = getattr(rhs, "run", None) or _loop(n)
    # no norm is below a ball of 0.0, so without stop_ball nothing dwells,
    # and without a proof the loop's default level skips the check
    proof = ()
    if stop_ball is not None and invariant is not None:
        P, level = invariant
        form = [float(P[i, j]) * (1.0 if i == j else 2.0) for i in range(n) for j in range(i, n)]
        proof = (form, level)
    times, states, t, reason, accepted, rejected, retried, h_min = run(
        ev, t0, y, k1, h, rtol, atol, max_step, min_step, cfg.divergence_norm,
        stride, n_rec, cfg.t_final, 0.0 if stop_ball is None else stop_ball,
        DWELL + 2.0 * stride, *proof)
    traj = Trajectory(
        times=np.array(times),
        states=np.array(states),
        controls=(np.array([control(tr, yr) for tr, yr in zip(times, states)],
                           dtype=float) if control else None),
        outcome=Outcome.diverged(t) if reason in ("norm", "collapse") else Outcome.undecided(),
        stats=IntegratorStats(reason, accepted, rejected, retried,
                              h_min if accepted else None),
    )
    if reason == "proved":
        traj.outcome = _dwelt(traj.times, traj.states, stop_ball, cfg.t_final)
    return traj


def classify(traj: Trajectory, ball: float = BALL) -> Outcome:
    """Convergence verdict for a completed trajectory.

    Converged when the state stays inside ``ball`` for the final ``DWELL``
    time units (a transit through the origin does not count); diverged when
    the integrator flagged escape; undecided otherwise. A run that stopped
    on a proved-invariant set keeps the verdict :func:`integrate` gave it.
    """
    if traj.outcome.is_diverged or (traj.stats is not None and traj.stats.reason == "proved"):
        return traj.outcome
    return _dwelt(traj.times, traj.states, ball, traj.times[-1])


def attempt(simulate: Callable[..., Trajectory], *args) -> tuple[Trajectory | None, Outcome]:
    """``simulate(*args)`` and its :func:`classify` outcome: the one rule
    that turns a run into an outcome.

    A :class:`NonFiniteError` or an :class:`ArithmeticError` that
    ``simulate`` raises is a numerical result: no trajectory, and an
    outcome diverged at 0.0 whose ``failure`` is the error's text. Any other
    exception is a bug and propagates.
    """
    try:
        traj = simulate(*args)
    except (NonFiniteError, ArithmeticError) as exc:
        return None, Outcome.diverged(0.0, failure=str(exc))
    return traj, classify(traj)


def _dwelt(times: np.ndarray, states: np.ndarray, ball: float, t_end: float) -> Outcome:
    """Converged at t_enter, the first record of the last run of records
    inside ``ball``, when that run starts ``DWELL`` before ``t_end``."""
    inside = np.linalg.norm(states, axis=1) < ball
    if not inside[-1]:
        return Outcome.undecided()
    j = times.size - 1
    while j > 0 and inside[j - 1]:
        j -= 1
    t_enter = float(times[j])
    if t_end - t_enter >= DWELL * (1.0 - 1e-12):
        return Outcome.converged(t_enter)
    return Outcome.undecided()


def control_sup_norm(traj: Trajectory, window: tuple[float, float]) -> float:
    """Largest |u_i| over the recorded samples with time inside ``window``."""
    if traj.controls is None:
        raise ValueError("trajectory has no recorded control signal")
    lo, hi = window
    mask = (traj.times >= lo) & (traj.times <= hi)
    if not np.any(mask):
        raise ValueError(f"no recorded samples in window [{lo}, {hi}]")
    return float(np.max(np.abs(traj.controls[mask])))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x1,...,z,u1,... and >= 15 significant digits."""
    n, d = traj.states.shape
    controls = traj.controls if traj.controls is not None else np.zeros((n, d - 1))
    header = (
        ["t"] + [f"x{i}" for i in range(1, d)] + ["z"]
        + [f"u{i}" for i in range(1, controls.shape[1] + 1)]
    )
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r) for r in
                      np.column_stack([traj.times, traj.states, controls]).tolist())
