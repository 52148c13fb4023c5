"""Adaptive integration of stiff slow-fast closed loops.

Uses an explicit embedded Dormand-Prince 5(4) pair with error-per-step
control. At the eps >= 1e-3 scales targeted here the stiffness ratio is
mild enough that an explicit pair with max_step tied to eps/2 is cheaper
and more reproducible than an implicit solver. Finite-time blow-up of the
fast state (z' ~ -z^k/eps) is detected by step-size collapse in addition
to a norm threshold, since no norm test alone is robust for it.

The closed loops integrated here have 2 to a handful of states, where
per-call array overhead costs far more than the arithmetic. The stepper
therefore keeps the state and the seven stages as lists of Python floats.
One step attempt is a straight-line function generated once per state
dimension n, on first use, from n and the tableau below: the components
are scalar locals, each stage input is a list display and the error norm
is unrolled, in the same order of operations as a loop over the
components. It calls the right-hand side once per stage with a fresh
float array, and the right-hand side may return any sequence. A generated
closed loop of :mod:`slowfast.closedloop` carries a fused attempt (its
``attempt`` attribute): the same source, generated by the same
:func:`_attempt_source`, with the loop's field written inline at every
stage instead of called, in the same order of operations, so both give
the same step bit for bit. This is the only stepper: trajectories and
every region-of-attraction sweep cell run through :func:`integrate`.
Everything is plain IEEE double arithmetic in a fixed order, so the
results do not depend on the BLAS build.

A trajectory converges when its state stays inside a ball for the final
``DWELL`` time units; a region-of-attraction cell uses the ball ``BALL``
and stops integrating once that has happened (see :func:`integrate` and
:func:`classify`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntegratorConfig",
    "NonFiniteError",
    "config_for",
    "Outcome",
    "Trajectory",
    "integrate",
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
        if not self.record_stride > 0:
            raise ValueError("record_stride must be > 0")


def config_for(epsilon: float, t_final: float, **overrides) -> IntegratorConfig:
    """Config with max_step = min(eps/2, 1e-3) guarding the fast layer."""
    cfg = IntegratorConfig(
        max_step=min(epsilon / 2.0, 1e-3), t_final=t_final
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class Outcome:
    """Classification of a trajectory: converged, diverged or undecided."""

    kind: str
    t_enter: float | None = None
    t_escape: float | None = None

    @classmethod
    def converged(cls, t_enter: float) -> "Outcome":
        return cls("converged", t_enter=t_enter)

    @classmethod
    def diverged(cls, t_escape: float) -> "Outcome":
        return cls("diverged", t_escape=t_escape)

    @classmethod
    def undecided(cls) -> "Outcome":
        return cls("undecided")

    @property
    def is_converged(self) -> bool:
        return self.kind == "converged"

    @property
    def is_diverged(self) -> bool:
        return self.kind == "diverged"


@dataclass
class Trajectory:
    """Recorded samples of one integration run.

    ``states`` has one row per sample with the fast state in the last
    column; ``controls`` (optional) holds the control signal evaluated at
    the recorded times only.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray | None
    outcome: Outcome

    def __len__(self) -> int:
        return self.times.size


def _record_times(t0: float, t_final: float, stride: float) -> list[float]:
    n = max(1, int(math.ceil((t_final - t0) / stride - 1e-12)))
    pts = [t0 + i * stride for i in range(1, n)]
    pts.append(t_final)
    return pts


def _rms(values: list, scales: list) -> float:
    """Root mean square of values / scales; inf, not OverflowError, if huge."""
    acc = 0.0
    for v, s in zip(values, scales):
        q = v / s
        acc += q * q
    return math.sqrt(acc / len(scales))


# globals of the attempt, named apart from the expression grammar's numpy
# ``sqrt`` and ``abs``, which share a scope with a fused attempt's field
_ATTEMPT_SCOPE = {"_abs": abs, "_hypot": math.hypot, "_isfinite": math.isfinite,
                 "_sqrt": math.sqrt, "_nan": math.nan}


def _call(t: str, args: list[str], y: str) -> tuple[list[str], str]:
    """A stage as one call of the attempt's argument ``f`` on the list ``y``."""
    return [], f"f({t}, {y})"


def _attempt_source(n: int, stage=_call) -> str:
    """Source of the straight-line attempt for state dimension ``n``.

    Built only from ``n`` and the tableau; every weight is written as its
    exact ``repr``. The combinations group as ``v + h * (a1 * k1 + a2 * k2
    + ...)``, summed left to right, and the error norm accumulates from 0.0
    component by component, so the arithmetic is that of a loop over the
    components.

    ``stage(t, args, y)`` emits the field at each of stages 2..7: ``t`` is
    the stage time, ``args`` the n component expressions of the stage
    input and ``y`` the same input as one list. It returns statements and
    an expression of the n field components. The default calls ``f(t, y)``;
    :mod:`slowfast.closedloop` writes a loop's field inline.
    """
    idx = range(n)

    def names(stem: str) -> str:
        return "".join(f"{stem}_{i}, " for i in idx)

    def combo(terms, i: int) -> str:
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in terms)

    def field(t: str, args: list[str], y: str) -> tuple[list[str], str]:
        lines, value = stage(t, args, y)
        return [f"    {line}" for line in lines], value

    lines = ["def attempt(f, t, h, y, k1, rtol, atol):",
             f"    {names('y')}= y",
             f"    {names('k1')}= k1"]
    for s, (c, weights) in enumerate(_STAGES, start=2):
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        terms = list(enumerate(weights, start=1))
        args = [f"y_{i} + h * ({combo(terms, i)})" for i in idx]
        body, value = field(at, args, f"[{', '.join(args)}]")
        lines += [*body, f"    {names(f'k{s}')}= {value}"]
    for i in idx:
        lines.append(f"    w_{i} = y_{i} + h * ({combo(_SOLUTION, i)})")
    ws = [f"w_{i}" for i in idx]
    body, value = field("t + h", ws, "y_new")
    lines += [f"    y_new = [{', '.join(ws)}]",
              f"    norm = _hypot({', '.join(ws)})",
              "    if not _isfinite(norm):",
              "        return _nan, y_new, None, norm",
              *body,
              f"    k7 = {value}",
              f"    {names('k7')}= k7",
              "    acc = 0.0"]
    for i in idx:
        lines += [f"    v, w = _abs(y_{i}), _abs(w_{i})",
                  f"    q = h * ({combo(_ERROR, i)}) / (atol + rtol * (v if v > w else w))",
                  "    acc += q * q"]
    lines.append(f"    return _sqrt(acc / {n}), y_new, k7, norm")
    return "\n".join(lines) + "\n"


@cache
def _attempt(n: int):
    """One Dormand-Prince attempt for state dimension ``n``, generated once.

    ``attempt(f, t, h, y, k1, rtol, atol)`` takes ``f: (t, list) -> list``,
    the state ``y`` and its first stage ``k1`` as float lists, and returns
    ``(err, y_new, k7, norm)``: the scaled RMS error estimate, the 5th-order
    solution, its stage (None when ``norm`` is not finite; err is then NaN)
    and the Euclidean norm of ``y_new``.
    """
    scope = dict(_ATTEMPT_SCOPE)
    exec(compile(_attempt_source(n), f"<dopri attempt n={n}>", "exec"), scope)
    return scope["attempt"]


def _on_lists(fn):
    """``fn`` as ``(t, list) -> list``: it is passed a fresh float array,
    and a result that is not a list is converted once."""

    def adapted(t: float, yl: list) -> list:
        f = fn(t, np.array(yl))
        return f if type(f) is list else np.asarray(f, dtype=float).tolist()

    return adapted


def integrate(
    rhs: RHS,
    ic: Sequence[float] | np.ndarray,
    cfg: IntegratorConfig,
    t0: float = 0.0,
    control: ControlEval | None = None,
    stop_ball: float | None = None,
) -> Trajectory:
    """Integrate ``rhs`` from ``ic`` over [t0, cfg.t_final].

    Records samples every ``cfg.record_stride`` time units (boundaries are
    hit exactly). Halts early with a diverged outcome when the state norm
    exceeds ``cfg.divergence_norm``, when the step controller collapses
    below ``cfg.min_step``, or when the solution stops being finite. If
    ``stop_ball`` is given, integration also halts once the state has
    remained inside that ball for ``DWELL`` time units (plus a small margin
    so that :func:`classify` sees a full dwell window).

    ``rhs`` receives the state as a fresh 1-d float array and may return
    any sequence of floats. An ``rhs`` that carries an ``attempt``
    attribute, a Dormand-Prince attempt with its field inline (see
    :func:`_attempt_source`), is stepped by it, else by the generic attempt
    of the state dimension; the generated closed loops of
    :mod:`slowfast.closedloop` carry one, and the result is the same bit
    for bit on both paths. ``control`` receives each recorded state as the
    list of floats it is recorded as and may return any sequence of
    floats. A stage at which ``rhs`` raises an :class:`ArithmeticError`
    counts as non-finite, like a stage that returns inf or NaN: the step is
    halved and retried.
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

    stride = cfg.record_stride
    pending = _record_times(t0, cfg.t_final, stride)
    times = [t0]
    states = [y]
    controls = [control(t0, y)] if control else None

    def emit(t: float, yl: list) -> None:
        times.append(t)
        states.append(yl)
        if control is not None:
            controls.append(control(t, yl))

    rtol, atol = cfg.rtol, cfg.atol
    max_step, min_step = cfg.max_step, cfg.min_step
    div_norm = cfg.divergence_norm
    attempt = getattr(rhs, "attempt", None) or _attempt(n)
    isfinite = math.isfinite
    outcome = Outcome.undecided()

    # first step guess, bounded by the output cadence
    scale0 = [atol + rtol * abs(v) for v in y]
    d0, d1 = _rms(y, scale0), _rms(k1, scale0)
    h = min(max_step, cfg.t_final - t0)
    if d1 > 0:
        h = min(h, 0.01 * max(d0, 1e-6) / d1)
    h = max(h, min_step)

    t = t0
    rec_i = 0
    ball_entry: float | None = None
    margin = DWELL + 2.0 * stride

    while rec_i < len(pending):
        t_target = pending[rec_i]
        gap = t_target - t
        h_try = h if h < max_step else max_step  # min(h, max_step, gap)
        if h_try > gap:
            h_try = gap
        # stretch onto the boundary rather than leave an unsteppable sliver
        clamped = h_try >= gap - min_step
        if clamped:
            h_try = gap
        if h_try < min_step:
            outcome = Outcome.diverged(t)
            if times[-1] < t:
                emit(t, y)
            break

        err = math.nan  # stays NaN when a stage is not finite
        try:
            err, y_new, k7, norm = attempt(ev, t, h_try, y, k1, rtol, atol)
        except ArithmeticError:
            pass

        if not isfinite(err):
            h = 0.5 * h_try
            continue
        if err > 1.0:
            h = h_try * max(0.1, _SAFETY * err**_ORDER_EXP)
            continue

        # accepted
        t = t_target if clamped else t + h_try
        y = y_new
        k1 = k7
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)
        )
        h = min(max_step, h_try * factor)

        if norm > div_norm:
            outcome = Outcome.diverged(t)
            emit(t, y)
            break

        if clamped:
            emit(t, y)
            rec_i += 1

        if stop_ball is not None:
            if norm < stop_ball:
                if ball_entry is None:
                    ball_entry = t
                elif t - ball_entry >= margin:
                    if times[-1] < t:
                        emit(t, y)
                    break
            else:
                ball_entry = None

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        controls=np.array(controls, dtype=float) if controls is not None else None,
        outcome=outcome,
    )


def classify(traj: Trajectory, ball: float = BALL) -> Outcome:
    """Convergence verdict for a completed trajectory.

    Converged when the state stays inside ``ball`` for the final ``DWELL``
    time units (a transit through the origin does not count); diverged when
    the integrator flagged escape; undecided otherwise.
    """
    if traj.outcome.is_diverged:
        return traj.outcome
    norms = np.linalg.norm(traj.states, axis=1)
    inside = norms < ball
    if not inside[-1]:
        return Outcome.undecided()
    j = traj.times.size - 1
    while j > 0 and inside[j - 1]:
        j -= 1
    t_enter = float(traj.times[j])
    if traj.times[-1] - t_enter >= DWELL * (1.0 - 1e-12):
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
    d = traj.states.shape[1]
    times = traj.times.tolist()
    if traj.controls is not None:
        m = traj.controls.shape[1]
        controls = traj.controls.tolist()
    else:
        m = d - 1
        controls = [[0.0] * m] * len(times)
    header = (
        ["t"] + [f"x{i}" for i in range(1, d)] + ["z"]
        + [f"u{i}" for i in range(1, m + 1)]
    )
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row.format(t, *x, *u)
                      for t, x, u in zip(times, traj.states.tolist(), controls))
