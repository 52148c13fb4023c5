"""Experiment configuration and the two reproduction scenarios.

Configs are JSON with an explicit schema: unknown keys are errors, and a
parsed config keeps each section as its checked JSON, so it serializes back
to an identical structure. A config is checked by building what a run
builds from it, and runs with the same config are bit-identical. The
circuit scenario switches the controllers on mid-run by stitching an
open-loop segment to a closed-loop one, so the switch time is hit exactly.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .closedloop import (
    CellRunner,
    ExprSlowField,
    HighGain,
    OpenLoop,
    Thm2,
    Thm2Plus3,
    Variant,
    build_closed_loop,
    describe,
    drift_at_origin,
    law,
)
from .control import Theorem2Params, Theorem3Params
from .normal_form import NormalFormSystem
from .roa import GridSpec, RoAComparison, RoAReport, compare, sweep, write_report_csv
from .sim import (
    IntegratorConfig,
    IntegratorStats,
    Outcome,
    Trajectory,
    attempt,
    classify,
    config_for,
    control_sup_norm,
    integrate,
    write_trajectory_csv,
)
from .systems import TunnelDiodeSystem, build_planar_example

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "build",
    "run_scenario",
    "ScenarioResult",
    "Ex1Report",
    "run_ex1",
    "Ex2Report",
    "run_ex2_matrix",
    "run_ex2_roa",
    "select_compensation_gain",
    "default_ex2_grid",
    "EX1_CONFIGS",
    "EX2_CONFIGS",
    "EX2_ICS",
]

# circuit reproduction: initial conditions, the convergence balls of the
# fold stabilizer u and of the 1/eps benchmark v, and the bound on
# sup|u| / sup|v|
EX1_ICS = ((-10.0, 10.0, 10.0), (50.0, -30.0, -6.0))
EX1_BALL_U, EX1_BALL_V = 1e-2, 5e-2
EX1_RATIO_BOUND = 0.15

# its three loops as configs, with run_ex1's default epsilon and horizon: u
# (a = (1, 1), b = 10, c = f(0)) also runs from an informational probe near
# the other fold of the characteristic, translated coordinates of (V_C, I_L,
# V_D) near (0, 20, 2); v (A = (1, 1), B = 10) cancels the drift constants,
# and its literal form does not
_EX1_RUN = {"system": {"builtin": "tunnel_diode"}, "epsilon": 0.01, "t_final": 30.0,
            "switch_on_time": 10.0}
_HIGHGAIN = {"type": "highgain", "A": [1.0, 1.0], "B": 10.0}
EX1_CONFIGS = {
    "u": {**_EX1_RUN, "controller": {"type": "thm2", "a": [1.0, 1.0], "b": 10.0},
          "ics": [*map(list, EX1_ICS), [-4.0, 0.0, -1.9]]},
    "v": {**_EX1_RUN, "controller": {**_HIGHGAIN, "cancel_constants": True},
          "ics": [*map(list, EX1_ICS)]},
    "v_literal": {**_EX1_RUN, "controller": _HIGHGAIN, "ics": [list(EX1_ICS[0])]},
}

# planar reproduction: initial conditions, the matrix's two epsilons (gain
# selection and the ROA sweep run at the smaller) and the candidate
# compensation gains
EX2_ICS = ((-2.0, 2.0), (0.1, 1.0))
EX2_EPSILONS = (0.05, 0.01)
K_CANDIDATES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

# its three loops as configs without an epsilon: the open loop, the baseline
# (a = 1, b = 3, c = f(0) = 1) and the baseline compensated towards
# chi* = -2, which also has no gain K
_EX2_RUN = {"system": {"builtin": "planar"}, "ics": [*map(list, EX2_ICS)], "t_final": 10.0}
_BASELINE = {"type": "thm2", "a": [1.0], "b": 3.0, "c": [1.0]}
EX2_CONFIGS = {
    "open-loop": {**_EX2_RUN, "controller": {"type": "none"}},
    "baseline": {**_EX2_RUN, "controller": _BASELINE},
    "compensated": {**_EX2_RUN, "controller": {**_BASELINE, "type": "thm2plus3",
                                                "chi_star": [-2.0]}},
}


class ConfigError(ValueError):
    """Schema violation in a scenario configuration."""


def _require_keys(section: dict, allowed: dict, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key `{key}` in {where}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing required key `{key}` in {where}")


def _number(v, where: str) -> float:
    # json accepts NaN, +-Infinity and integers too large for a float; no
    # setting may be one
    try:
        if not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v):
            return float(v)
    except OverflowError:
        pass
    raise ConfigError(f"{where} must be a finite number, got {v!r}")


def _vector(v, where: str, size: int | None = None) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    if size is not None and len(v) != size:
        raise ConfigError(f"{where} must have {size} entries for this system")
    return [_number(e, f"{where}[{i}]") for i, e in enumerate(v)]


def _order(v, where: str) -> int:
    if not isinstance(v, int) or v < 2:
        raise ConfigError(f"{where} must be an integer >= 2")
    return v


def _exprs(v, where: str) -> list[str]:
    if not isinstance(v, list) or not all(isinstance(e, str) for e in v):
        raise ConfigError(f"{where} must be a list of expression strings")
    try:
        ExprSlowField(exprs=tuple(v))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return list(v)


def _flag(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be a boolean")
    return v


# the section schemas: each kind of system or controller maps its keys to
# (check, default); a key whose default is _REQUIRED must be given, and one
# whose default is None is left out when it is not
_REQUIRED = object()
_SYSTEMS = {
    "planar": {},
    "tunnel_diode": {"L": (_number, 1.0), "Cap": (_number, 1.0)},
    "custom": {"k": (_order, _REQUIRED), "f": (_exprs, _REQUIRED)},
}
_THM2 = {"a": (_vector, _REQUIRED), "b": (_number, _REQUIRED), "c": (_vector, None)}
_CONTROLLERS = {
    "none": {},
    "thm2": _THM2,
    "thm2plus3": {**_THM2, "K": (_vector, _REQUIRED), "chi_star": (_vector, _REQUIRED)},
    "highgain": {"A": (_vector, _REQUIRED), "B": (_number, _REQUIRED),
                 "cancel_constants": (_flag, False)},
}
# the gain vectors with one entry per slow state (``c`` is checked by the law)
_SIZED = ("a", "K", "chi_star", "A")
_INTEGRATOR_KEYS = [f.name for f in fields(IntegratorConfig) if f.name != "t_final"]


def _section(raw, where: str, tag: str, schemas: dict) -> dict:
    """``raw`` checked against the schema of the kind its ``tag`` names."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    kind = raw.get(tag)
    if not isinstance(kind, str) or kind not in schemas:
        raise ConfigError(f"{where}.{tag} must be one of {', '.join(schemas)}; got {kind!r}")
    schema = schemas[kind]
    _require_keys(raw, {tag: True, **{key: default is _REQUIRED
                                      for key, (_, default) in schema.items()}}, where)
    section = {tag: kind}
    for key, (check, default) in schema.items():
        if key in raw:
            section[key] = check(raw[key], f"{where}.{key}")
        elif default is not None:
            section[key] = default
    return section


def _checked(where: str, build, *args):
    """``build(*args)``; a ValueError or ArithmeticError it raises is an
    error of the config section ``where``."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked config. The sections are JSON: numbers as floats, defaults
    filled in, and ``c`` left out when it defaults to the drift at the origin."""

    system: dict
    epsilon: float
    controller: dict
    ics: tuple[tuple[float, ...], ...]
    t_final: float = 10.0
    switch_on_time: float = 0.0
    integrator: dict = field(default_factory=dict)
    outputs: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ics"] = [list(ic) for ic in self.ics]
        if self.outputs is None:
            del d["outputs"]
        return d


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping against the scenario schema, and build the
    system, the controller's law on it and the integrator's settings the
    way a run does, without compiling a closed loop."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        raw,
        {"system": True, "epsilon": True, "controller": True, "ics": True,
         "t_final": False, "switch_on_time": False, "integrator": False,
         "outputs": False},
        "config",
    )
    system = _section(raw["system"], "system", "builtin", _SYSTEMS)
    epsilon = _number(raw["epsilon"], "epsilon")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    built = _checked("system", _system, system, epsilon)
    n_slow = built.n_slow
    controller = _section(raw["controller"], "controller", "type", _CONTROLLERS)
    for key in _SIZED:
        if key in controller:
            _vector(controller[key], f"controller.{key}", n_slow)
    _checked("controller", lambda: law(built, _variant(controller, built)))
    ics = raw["ics"]
    if not isinstance(ics, list) or not ics:
        raise ConfigError("ics must be a non-empty list of state vectors")
    ics = [tuple(_vector(ic, f"ics[{i}]", n_slow + 1)) for i, ic in enumerate(ics)]
    t_final = _number(raw.get("t_final", 10.0), "t_final")
    switch = _number(raw.get("switch_on_time", 0.0), "switch_on_time")
    if not 0.0 <= switch < t_final:
        raise ConfigError("switch_on_time must lie in [0, t_final)")
    integrator = raw.get("integrator", {})
    if not isinstance(integrator, dict):
        raise ConfigError("integrator must be an object")
    _require_keys(integrator, dict.fromkeys(_INTEGRATOR_KEYS, False), "integrator")
    integrator = {k: _number(v, f"integrator.{k}") for k, v in integrator.items()}
    outputs = raw.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigError("outputs must be a directory path string")
    cfg = ScenarioConfig(
        system=system, epsilon=epsilon, controller=controller,
        ics=tuple(ics), t_final=t_final, switch_on_time=switch,
        integrator=integrator, outputs=outputs,
    )
    _, _, icfg = _checked("integrator", build, cfg)
    if not math.isfinite(t_final / icfg.record_stride):
        raise ConfigError(f"t_final / integrator.record_stride must be finite, got"
                          f" {t_final:g} / {icfg.record_stride:g}")
    # each segment of a run, the open one up to the switch if there is one
    # and the closed one up to t_final, spans at least one smallest step
    min_step = icfg.min_step
    if 0.0 < switch < min_step:
        raise ConfigError(f"switch_on_time must be 0 or at least the integrator's"
                          f" min_step {min_step:g}, got {switch:g}")
    if t_final - switch < min_step:
        raise ConfigError(f"t_final - switch_on_time must be at least the integrator's"
                          f" min_step {min_step:g}, got {t_final - switch:g}")
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def build(cfg: ScenarioConfig) -> tuple:
    """(system, variant, integrator config): what every run of ``cfg`` builds."""
    system = build_system(cfg)
    return system, build_variant(cfg, system), config_for(cfg.epsilon, cfg.t_final,
                                                          **cfg.integrator)


def build_system(cfg: ScenarioConfig):
    return _system(cfg.system, cfg.epsilon)


def build_variant(cfg: ScenarioConfig, system) -> Variant:
    return _variant(cfg.controller, system)


def _system(section: dict, epsilon: float):
    if section["builtin"] == "planar":
        return build_planar_example(epsilon)
    if section["builtin"] == "tunnel_diode":
        return TunnelDiodeSystem(L=section["L"], Cap=section["Cap"], epsilon=epsilon)
    return NormalFormSystem(k=section["k"], epsilon=epsilon,
                            slow_f=ExprSlowField(exprs=tuple(section["f"])))


def _variant(section: dict, system) -> Variant:
    ctype = section["type"]
    if ctype == "none":
        return OpenLoop()
    if ctype == "highgain":
        return HighGain(a=section["A"], b=section["B"],
                        cancel_constants=section["cancel_constants"])
    c = section["c"] if "c" in section else drift_at_origin(system)
    p2 = Theorem2Params(c=c, a=section["a"], b=section["b"])
    if ctype == "thm2":
        return Thm2(p2)
    return Thm2Plus3(p2, Theorem3Params(K=section["K"], chi_star=section["chi_star"]))


def simulate_switched(
    system,
    variant: Variant,
    ic: Sequence[float],
    cfg: IntegratorConfig,
    switch_on_time: float = 0.0,
) -> Trajectory:
    """Closed-loop run from t = 0, preceded by an open-loop segment if requested.

    The two segments are integrated separately so the discontinuity at the
    switch time is never stepped across; the sample at the switch carries
    the switched-on control value.
    """
    if isinstance(variant, OpenLoop):
        switch_on_time = 0.0  # nothing switches on
    return _switch_on(system, variant, ic, _open_segment(system, ic, cfg, switch_on_time),
                      cfg)


def _open_segment(system, ic, cfg: IntegratorConfig,
                  switch_on_time: float) -> Trajectory | None:
    """The open-loop run from ``ic`` up to the switch time; None when the
    controller is on from t = 0."""
    if switch_on_time <= 0.0:
        return None
    rhs, ueval = build_closed_loop(system, OpenLoop())
    return integrate(rhs, ic, replace(cfg, t_final=switch_on_time), control=ueval)


def _switch_on(system, variant: Variant, ic, opened: Trajectory | None,
               cfg: IntegratorConfig) -> Trajectory:
    """The run from ``ic`` under ``variant``, switched on at the end of the
    open-loop segment ``opened`` (at t = 0 when there is none)."""
    rhs, ueval = build_closed_loop(system, variant)
    if opened is None:
        return integrate(rhs, ic, cfg, control=ueval)
    if opened.outcome.is_diverged:
        return opened
    seg = integrate(rhs, opened.states[-1], cfg, t0=float(opened.times[-1]),
                    control=ueval)
    a, b = opened.stats, seg.stats  # a.h_min is set: the open segment ran to the switch
    return Trajectory(
        times=np.concatenate([opened.times[:-1], seg.times]),
        states=np.concatenate([opened.states[:-1], seg.states]),
        controls=np.concatenate([opened.controls[:-1], seg.controls]),
        outcome=seg.outcome,
        stats=IntegratorStats(b.reason, a.accepted + b.accepted, a.rejected + b.rejected,
                              a.retried + b.retried,
                              min(h for h in (a.h_min, b.h_min) if h is not None)),
    )


@dataclass
class ScenarioResult:
    """One trajectory and outcome per initial condition; a run that failed
    has None and an outcome whose ``failure`` says why (``sim.attempt``)."""

    config: ScenarioConfig
    trajectories: list[Trajectory | None]
    outcomes: list[Outcome]

    @property
    def all_failed(self) -> bool:
        return all(out.failure is not None for out in self.outcomes)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ScenarioResult:
    """Run every configured initial condition and optionally emit CSVs."""
    system, variant, icfg = build(cfg)
    make_out_dir(out_dir)
    runs = [attempt(simulate_switched, system, variant, ic, icfg, cfg.switch_on_time)
            for ic in cfg.ics]
    result = ScenarioResult(config=cfg, trajectories=[traj for traj, _ in runs],
                            outcomes=[out for _, out in runs])
    if out_dir is not None:
        lines = [f"scenario: {describe(variant)} epsilon={cfg.epsilon}"]
        for i, (ic, (traj, out)) in enumerate(zip(cfg.ics, runs)):
            if traj is not None:
                write_trajectory_csv(traj, os.path.join(out_dir, f"traj_{i:03d}.csv"))
            t_event = out.t_enter if out.is_converged else out.t_escape
            lines.append(f"ic={list(ic)} outcome={out.kind}"
                         + (f" t={t_event:.6g}" if t_event is not None else "")
                         + (f" failure={out.failure}" if out.failure else ""))
        _write_summary(os.path.join(out_dir, "summary.txt"), lines)
    return result


def make_out_dir(out_dir) -> None:
    """Create the output directory ``out_dir`` (None: a run without outputs)
    before a run integrates anything; a path that cannot be made a
    directory is a ConfigError."""
    if out_dir is None:
        return
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None


def _write_summary(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# circuit reproduction


@dataclass
class Ex1Report:
    outcomes_u: list[Outcome]
    outcomes_v: list[Outcome]
    final_norms_u: list[float]
    final_norms_v: list[float]
    sup_u: float
    sup_v: float
    ratio: float
    v_literal_final_state: np.ndarray
    p1_probe_outcome: Outcome
    passed: bool


def run_ex1(
    out_dir=None,
    epsilon: float = 0.01,
    switch_on_time: float = 10.0,
    t_final: float = 30.0,
) -> Ex1Report:
    """Open-loop start, controllers on at the switch time, gain comparison.

    The fold stabilizer is compared against the 1/eps benchmark; the
    benchmark run cancels the drift constants (without them the loop
    parks at x2 = 16 eps / A2, outside any small ball around the origin;
    that literal-form offset is simulated and reported separately). The
    loops are ``EX1_CONFIGS`` with ``epsilon``, ``t_final`` and
    ``switch_on_time`` filled in, so a bad value is a ConfigError raised
    before anything runs.
    """
    run = {"epsilon": epsilon, "t_final": t_final, "switch_on_time": switch_on_time}
    cfgs = {name: parse_config({**raw, **run}) for name, raw in EX1_CONFIGS.items()}
    u = cfgs["u"]  # its ICs hold every loop's
    epsilon, t_final, switch_on_time = u.epsilon, u.t_final, u.switch_on_time  # checked
    system, _, icfg = build(u)
    make_out_dir(out_dir)
    # every controller switches on from the one open-loop run of its IC
    opened = {ic: _open_segment(system, ic, icfg, switch_on_time) for ic in u.ics}
    trajs = {name: [_switch_on(system, build_variant(cfg, system), ic, opened[ic], icfg)
                    for ic in cfg.ics]
             for name, cfg in cfgs.items()}
    *runs_u, probe = trajs["u"]
    runs_v, (lit,) = trajs["v"], trajs["v_literal"]

    window = (switch_on_time, t_final)
    sup_u = max(control_sup_norm(t, window) for t in runs_u)
    sup_v = max(control_sup_norm(t, window) for t in runs_v)
    ratio = sup_u / sup_v

    outcomes_u = [classify(t, ball=EX1_BALL_U) for t in runs_u]
    outcomes_v = [classify(t, ball=EX1_BALL_V) for t in runs_v]
    final_u = [float(np.linalg.norm(t.states[-1])) for t in runs_u]
    final_v = [float(np.linalg.norm(t.states[-1])) for t in runs_v]
    probe_outcome = classify(probe)

    passed = (
        all(o.is_converged for o in outcomes_u)
        and all(o.is_converged for o in outcomes_v)
        and all(n < EX1_BALL_U for n in final_u)
        and all(n < EX1_BALL_V for n in final_v)
        and ratio < EX1_RATIO_BOUND
    )
    report = Ex1Report(
        outcomes_u=outcomes_u, outcomes_v=outcomes_v,
        final_norms_u=final_u, final_norms_v=final_v,
        sup_u=sup_u, sup_v=sup_v, ratio=ratio,
        v_literal_final_state=lit.states[-1].copy(),
        p1_probe_outcome=probe_outcome, passed=passed,
    )
    if out_dir is not None:
        for stem, runs in (("u", runs_u), ("v", runs_v)):
            for i, t in enumerate(runs):
                write_trajectory_csv(t, os.path.join(out_dir, f"ex1_{stem}_ic{i}.csv"))
        write_trajectory_csv(lit, os.path.join(out_dir, "ex1_v_literal_ic0.csv"))
        write_trajectory_csv(probe, os.path.join(out_dir, "ex1_u_fold_probe.csv"))
        _write_summary(
            os.path.join(out_dir, "ex1_summary.txt"),
            [
                f"epsilon={epsilon} switch_on={switch_on_time} t_final={t_final}",
                *(f"{stem}-run ic={list(ic)}: {o.kind}, final_norm={norm:.3e}"
                  for stem, outs, norms in (("u", outcomes_u, final_u),
                                            ("v", outcomes_v, final_v))
                  for ic, o, norm in zip(cfgs["v"].ics, outs, norms)),
                f"sup|u|={sup_u:.6g} sup|v|={sup_v:.6g} ratio={ratio:.4f}"
                f" (bound {EX1_RATIO_BOUND})",
                "benchmark uses drift-constant cancellation; the literal"
                " 1/eps form settles at "
                f"{np.array2string(report.v_literal_final_state, precision=4)}"
                f" (predicted x2 offset 16*eps/A2"
                f" = {16 * epsilon / cfgs['v'].controller['A'][1]:.3g})",
                f"informational probe near the other fold {u.ics[-1]}:"
                f" {probe_outcome.kind}",
                f"PASS={passed}",
            ],
        )
    return report


# --------------------------------------------------------------------------
# planar reproduction


def _ex2_config(name: str, epsilon: float, K: float | None = None) -> ScenarioConfig:
    """``EX2_CONFIGS[name]`` at ``epsilon``, with the compensation gain ``K``."""
    raw = {**EX2_CONFIGS[name], "epsilon": epsilon}
    if K is not None:
        raw["controller"] = {**raw["controller"], "K": [K]}
    return parse_config(raw)


def select_compensation_gain() -> tuple[float, dict[float, list[str]]]:
    """Smallest of ``K_CANDIDATES`` that makes every probe IC converge.

    The probes are ``EX2_ICS`` at the smaller epsilon, each classified as a
    region-of-attraction cell. The compensation theorem guarantees existence
    of a suitable gain but not a value; the sweep documents the choice.
    """
    details: dict[float, list[str]] = {}
    chosen = None
    for K in K_CANDIDATES:
        cfg = _ex2_config("compensated", min(EX2_EPSILONS), K)
        runner = CellRunner(*build(cfg))
        kinds = [runner(ic).kind for ic in cfg.ics]
        details[K] = kinds
        if chosen is None and all(k == "converged" for k in kinds):
            chosen = K
    if chosen is None:
        raise RuntimeError(f"no candidate gain in {list(K_CANDIDATES)}"
                           " stabilizes all probe ICs")
    return chosen, details


@dataclass
class Ex2Report:
    epsilons: tuple[float, float]
    K_star: float
    gain_details: dict[float, list[str]]
    outcomes: dict[tuple[str, float, tuple[float, float]], Outcome]
    diverging_ic_k0: tuple[float, float] | None
    contract_ok: bool
    contract_notes: list[str]


def run_ex2_matrix(out_dir=None) -> Ex2Report:
    """Open-loop / baseline / compensated matrix over both epsilon values."""
    make_out_dir(out_dir)
    K_star, gain_details = select_compensation_gain()
    k_name = f"K={K_star:g}"
    outcomes: dict[tuple[str, float, tuple[float, float]], Outcome] = {}
    trajs = {}
    for eps in EX2_EPSILONS:
        for name, loop, K in (("open-loop", "open-loop", None), ("K=0", "baseline", None),
                              (k_name, "compensated", K_star)):
            cfg = _ex2_config(loop, eps, K)
            system, variant, icfg = build(cfg)
            for ic in cfg.ics:
                traj = simulate_switched(system, variant, ic, icfg)
                outcomes[(name, eps, ic)] = classify(traj)
                trajs[(name, eps, ic)] = traj

    eps_lo = min(EX2_EPSILONS)
    eps_hi = max(EX2_EPSILONS)
    notes = []

    def check(cond: bool, msg: str) -> bool:
        notes.append(("ok  " if cond else "FAIL") + " " + msg)
        return cond

    ok = True
    for eps in EX2_EPSILONS:
        ok &= check(
            all(outcomes[("open-loop", eps, ic)].is_diverged for ic in EX2_ICS),
            f"open loop diverges from both ICs at eps={eps}",
        )
    ok &= check(
        all(outcomes[("K=0", eps_hi, ic)].is_converged for ic in EX2_ICS),
        f"baseline converges from both ICs at eps={eps_hi}",
    )
    k0_div = [ic for ic in EX2_ICS if outcomes[("K=0", eps_lo, ic)].is_diverged]
    ok &= check(
        len(k0_div) == 1,
        f"exactly one IC diverges under the baseline at eps={eps_lo}"
        f" (got {len(k0_div)})",
    )
    ok &= check(
        all(outcomes[(k_name, eps_lo, ic)].is_converged for ic in EX2_ICS),
        f"compensated loop converges from both ICs at eps={eps_lo}",
    )

    report = Ex2Report(
        epsilons=(eps_hi, eps_lo), K_star=K_star, gain_details=gain_details,
        outcomes=outcomes, diverging_ic_k0=k0_div[0] if len(k0_div) == 1 else None,
        contract_ok=ok, contract_notes=notes,
    )
    if out_dir is not None:
        for (name, eps, ic), traj in trajs.items():
            tag = name.replace("=", "").replace(".", "p")
            fname = f"ex2_{tag}_eps{str(eps).replace('.', 'p')}_ic{EX2_ICS.index(ic)}.csv"
            write_trajectory_csv(traj, os.path.join(out_dir, fname))
        lines = [
            f"K* sweep over {list(K_CANDIDATES)} at eps={eps_lo}: chose K*={K_star:g}",
            *(f"  K={K:g}: {kinds}" for K, kinds in gain_details.items()),
            *(f"{name} eps={eps} ic={list(ic)}: {out.kind}"
              for (name, eps, ic), out in outcomes.items()),
        ]
        if report.diverging_ic_k0 is not None:
            lines.append(f"diverging IC under baseline at eps={eps_lo}:"
                         f" {list(report.diverging_ic_k0)}")
        lines += notes
        lines.append("divergence threshold |state| > 1e6 and step collapse are"
                     " artifact choices, not paper values")
        _write_summary(os.path.join(out_dir, "ex2_summary.txt"), lines)
    return report


def default_ex2_grid(n: int = 41) -> GridSpec:
    """Grid over [-3, 3]^2 covering both reproduction ICs."""
    return GridSpec(x_ranges=((-3.0, 3.0, n),), z_range=(-3.0, 3.0, n))


def run_ex2_roa(
    K_star: float,
    grid: GridSpec | None = None,
    jobs: int = 1,
    out_dir=None,
) -> tuple[RoAReport, RoAReport, RoAComparison]:
    """Sweep the baseline against the compensated loop on the same grid,
    at the smaller epsilon. Each sweep runs on ``jobs`` processes, this one
    included, capped at the grid's cells and the cores this process may run
    on; ``jobs`` < 1 means all of those cores (see :func:`slowfast.roa.sweep`)."""
    grid = grid or default_ex2_grid()
    make_out_dir(out_dir)
    epsilon = min(EX2_EPSILONS)
    reports = []
    for loop, K in (("compensated", K_star), ("baseline", None)):
        system, variant, icfg = build(_ex2_config(loop, epsilon, K))
        reports.append(sweep(system, variant, grid, icfg, jobs=jobs))
    rep_comp, rep_base = reports
    cmp = compare(rep_comp, rep_base)
    if out_dir is not None:
        write_report_csv(rep_comp, os.path.join(out_dir, "roa_compensated.csv"))
        write_report_csv(rep_base, os.path.join(out_dir, "roa_baseline.csv"))
        _write_summary(
            os.path.join(out_dir, "roa_summary.txt"),
            [
                f"grid {grid.shape} on x{list(grid.x_ranges[0][:2])}"
                f" z{list(grid.z_range[:2])}, eps={epsilon}",
                f"converged: {cmp.variant_a} -> {cmp.converged_a},"
                f" {cmp.variant_b} -> {cmp.converged_b}",
                f"cells changed: {len(cmp.changed)}",
                f"enlarged: {cmp.a_larger}",
            ],
        )
    return rep_comp, rep_base, cmp
