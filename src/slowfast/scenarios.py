"""Experiment configuration and the two reproduction scenarios.

Configs are JSON with an explicit schema: unknown keys are errors, parsed
configs serialize back to an identical structure, and runs with the same
config are bit-identical. The circuit scenario switches the controllers on
mid-run by stitching an open-loop segment to a closed-loop one, so the
switch time is hit exactly.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .closedloop import (
    ExprSlowField,
    HighGain,
    OpenLoop,
    Thm2,
    Thm2Plus3,
    Variant,
    build_closed_loop,
    describe,
    drift_at_origin,
)
from .control import Theorem2Params, Theorem3Params
from .normal_form import NormalFormSystem
from .roa import GridSpec, RoAComparison, RoAReport, compare, sweep, write_report_csv
from .sim import (
    IntegratorConfig,
    NonFiniteError,
    Outcome,
    Trajectory,
    classify,
    config_for,
    control_sup_norm,
    integrate,
    write_trajectory_csv,
)
from .systems import TunnelDiodeParams, build_planar_example, build_tunnel_diode

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "load_config",
    "run_scenario",
    "ScenarioResult",
    "Ex1Report",
    "run_ex1",
    "Ex2Report",
    "run_ex2_matrix",
    "run_ex2_roa",
    "select_compensation_gain",
    "default_ex2_grid",
    "EX2_ICS",
]

EX1_ICS = ((-10.0, 10.0, 10.0), (50.0, -30.0, -6.0))
EX2_ICS = ((-2.0, 2.0), (0.1, 1.0))
K_CANDIDATES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


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
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    return float(v)


def _vector(v, where: str) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return [_number(e, f"{where}[{i}]") for i, e in enumerate(v)]


@dataclass(frozen=True)
class SystemConfig:
    builtin: str
    k: int | None = None
    f: tuple[str, ...] | None = None
    L: float = 1.0
    Cap: float = 1.0


@dataclass(frozen=True)
class ControllerConfig:
    type: str
    a: tuple[float, ...] | None = None
    b: float | None = None
    c: tuple[float, ...] | None = None
    K: tuple[float, ...] | None = None
    chi_star: tuple[float, ...] | None = None
    A: tuple[float, ...] | None = None
    B: float | None = None
    cancel_constants: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    system: SystemConfig
    epsilon: float
    controller: ControllerConfig
    ics: tuple[tuple[float, ...], ...]
    t_final: float = 10.0
    switch_on_time: float = 0.0
    integrator: dict = field(default_factory=dict)
    outputs: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["system"] = {k: v for k, v in d["system"].items() if v is not None}
        if d["system"]["builtin"] != "tunnel_diode":
            d["system"].pop("L", None)
            d["system"].pop("Cap", None)
        if d["system"].get("f") is not None:
            d["system"]["f"] = list(d["system"]["f"])
        ctrl = {k: v for k, v in d["controller"].items() if v is not None}
        if ctrl["type"] != "highgain":
            ctrl.pop("cancel_constants", None)
        for key in ("a", "c", "K", "chi_star", "A"):
            if key in ctrl:
                ctrl[key] = list(ctrl[key])
        d["controller"] = ctrl
        d["ics"] = [list(ic) for ic in d["ics"]]
        if d["outputs"] is None:
            d.pop("outputs")
        return d


def _parse_system(section, where="system") -> SystemConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    builtin = section.get("builtin")
    if builtin == "planar":
        _require_keys(section, {"builtin": True}, where)
        return SystemConfig(builtin="planar")
    if builtin == "tunnel_diode":
        _require_keys(section, {"builtin": True, "L": False, "Cap": False}, where)
        return SystemConfig(
            builtin="tunnel_diode",
            L=_number(section.get("L", 1.0), f"{where}.L"),
            Cap=_number(section.get("Cap", 1.0), f"{where}.Cap"),
        )
    if builtin == "custom":
        _require_keys(section, {"builtin": True, "k": True, "f": True}, where)
        k = section["k"]
        if not isinstance(k, int) or k < 2:
            raise ConfigError(f"{where}.k must be an integer >= 2")
        f = section["f"]
        if not isinstance(f, list) or len(f) != k - 1 or not all(
            isinstance(e, str) for e in f
        ):
            raise ConfigError(f"{where}.f must be a list of {k - 1} expression strings")
        try:
            ExprSlowField(exprs=tuple(f))
        except ValueError as exc:
            raise ConfigError(f"{where}.f: {exc}") from None
        return SystemConfig(builtin="custom", k=k, f=tuple(f))
    raise ConfigError(
        f"{where}.builtin must be one of planar, tunnel_diode, custom; got {builtin!r}"
    )


def _parse_controller(section, n_slow: int, where="controller") -> ControllerConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    ctype = section.get("type")
    if ctype == "none":
        _require_keys(section, {"type": True}, where)
        return ControllerConfig(type="none")
    if ctype in ("thm2", "thm2plus3"):
        allowed = {"type": True, "a": True, "b": True, "c": False}
        if ctype == "thm2plus3":
            allowed.update({"K": True, "chi_star": True})
        _require_keys(section, allowed, where)
        a = _vector(section["a"], f"{where}.a")
        if len(a) != n_slow:
            raise ConfigError(f"{where}.a must have {n_slow} entries for this system")
        c = _vector(section["c"], f"{where}.c") if "c" in section else None
        kw = {}
        if ctype == "thm2plus3":
            K = _vector(section["K"], f"{where}.K")
            chi = _vector(section["chi_star"], f"{where}.chi_star")
            if len(K) != n_slow or len(chi) != n_slow:
                raise ConfigError(
                    f"{where}.K and {where}.chi_star must have {n_slow} entries"
                )
            kw = {"K": tuple(K), "chi_star": tuple(chi)}
        return ControllerConfig(
            type=ctype, a=tuple(a), b=_number(section["b"], f"{where}.b"),
            c=tuple(c) if c is not None else None, **kw,
        )
    if ctype == "highgain":
        _require_keys(
            section, {"type": True, "A": True, "B": True, "cancel_constants": False},
            where,
        )
        A = _vector(section["A"], f"{where}.A")
        if len(A) != n_slow:
            raise ConfigError(f"{where}.A must have {n_slow} entries for this system")
        flag = section.get("cancel_constants", False)
        if not isinstance(flag, bool):
            raise ConfigError(f"{where}.cancel_constants must be a boolean")
        return ControllerConfig(
            type="highgain", A=tuple(A), B=_number(section["B"], f"{where}.B"),
            cancel_constants=flag,
        )
    raise ConfigError(
        f"{where}.type must be one of none, thm2, thm2plus3, highgain; got {ctype!r}"
    )


_INTEGRATOR_KEYS = ("rtol", "atol", "max_step", "divergence_norm", "min_step",
                    "record_stride")


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping against the scenario schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        raw,
        {"system": True, "epsilon": True, "controller": True, "ics": True,
         "t_final": False, "switch_on_time": False, "integrator": False,
         "outputs": False},
        "config",
    )
    system = _parse_system(raw["system"])
    epsilon = _number(raw["epsilon"], "epsilon")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    n_slow = 2 if system.builtin == "tunnel_diode" else (system.k or 2) - 1
    controller = _parse_controller(raw["controller"], n_slow)
    ics_raw = raw["ics"]
    if not isinstance(ics_raw, list) or not ics_raw:
        raise ConfigError("ics must be a non-empty list of state vectors")
    dim = n_slow + 1
    ics = []
    for i, ic in enumerate(ics_raw):
        vec = _vector(ic, f"ics[{i}]")
        if len(vec) != dim:
            raise ConfigError(f"ics[{i}] must have {dim} entries for this system")
        ics.append(tuple(vec))
    t_final = _number(raw.get("t_final", 10.0), "t_final")
    switch = _number(raw.get("switch_on_time", 0.0), "switch_on_time")
    if not 0.0 <= switch < t_final:
        raise ConfigError("switch_on_time must lie in [0, t_final)")
    integrator = raw.get("integrator", {})
    if not isinstance(integrator, dict):
        raise ConfigError("integrator must be an object")
    for key in integrator:
        if key not in _INTEGRATOR_KEYS:
            raise ConfigError(f"unknown key `{key}` in integrator")
    integrator = {k: _number(v, f"integrator.{k}") for k, v in integrator.items()}
    outputs = raw.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigError("outputs must be a directory path string")
    return ScenarioConfig(
        system=system, epsilon=epsilon, controller=controller,
        ics=tuple(ics), t_final=t_final, switch_on_time=switch,
        integrator=integrator, outputs=outputs,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def build_system(cfg: ScenarioConfig):
    sc = cfg.system
    if sc.builtin == "planar":
        return build_planar_example(cfg.epsilon)
    if sc.builtin == "tunnel_diode":
        return build_tunnel_diode(
            TunnelDiodeParams(L=sc.L, Cap=sc.Cap, epsilon=cfg.epsilon)
        )
    return NormalFormSystem(k=sc.k, epsilon=cfg.epsilon,
                            slow_f=ExprSlowField(exprs=sc.f))


def build_variant(cfg: ScenarioConfig, system) -> Variant:
    cc = cfg.controller
    if cc.type == "none":
        return OpenLoop()
    if cc.type in ("thm2", "thm2plus3"):
        c = cc.c if cc.c is not None else drift_at_origin(system)
        p2 = Theorem2Params(c=np.asarray(c), a=np.asarray(cc.a), b=cc.b)
        if cc.type == "thm2":
            return Thm2(p2)
        p3 = Theorem3Params(K=np.asarray(cc.K), chi_star=np.asarray(cc.chi_star))
        return Thm2Plus3(p2, p3)
    return HighGain(a=cc.A, b=cc.B, cancel_constants=cc.cancel_constants)


def _integrator_config(cfg: ScenarioConfig, t_final: float) -> IntegratorConfig:
    return config_for(cfg.epsilon, t_final, **cfg.integrator)


def simulate_switched(
    system,
    variant: Variant,
    ic: Sequence[float],
    cfg: IntegratorConfig,
    switch_on_time: float = 0.0,
    t0: float = 0.0,
) -> Trajectory:
    """Closed-loop run, preceded by an open-loop segment if requested.

    The two segments are integrated separately so the discontinuity at the
    switch time is never stepped across; the sample at the switch carries
    the switched-on control value.
    """
    rhs_on, ueval_on, _ = build_closed_loop(system, variant)
    if switch_on_time <= t0 or isinstance(variant, OpenLoop):
        return integrate(rhs_on, ic, cfg, t0=t0, control=ueval_on)
    rhs_off, ueval_off, _ = build_closed_loop(system, OpenLoop())
    cfg_off = replace(cfg, t_final=switch_on_time)
    seg1 = integrate(rhs_off, ic, cfg_off, t0=t0, control=ueval_off)
    if seg1.outcome.is_diverged:
        return seg1
    seg2 = integrate(rhs_on, seg1.states[-1], cfg, t0=switch_on_time,
                     control=ueval_on)
    return Trajectory(
        times=np.concatenate([seg1.times[:-1], seg2.times]),
        states=np.concatenate([seg1.states[:-1], seg2.states]),
        controls=np.concatenate([seg1.controls[:-1], seg2.controls]),
        outcome=seg2.outcome,
    )


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trajectories: list[Trajectory]
    outcomes: list[Outcome]
    failures: list[str | None]

    @property
    def all_failed(self) -> bool:
        return all(f is not None for f in self.failures)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> ScenarioResult:
    """Run every configured initial condition and optionally emit CSVs."""
    system = build_system(cfg)
    variant = build_variant(cfg, system)
    icfg = _integrator_config(cfg, cfg.t_final)
    trajectories: list[Trajectory] = []
    outcomes: list[Outcome] = []
    failures: list[str | None] = []
    for ic in cfg.ics:
        try:
            traj = simulate_switched(system, variant, ic, icfg,
                                     switch_on_time=cfg.switch_on_time)
        except (NonFiniteError, ArithmeticError) as exc:  # numerical failures are results
            trajectories.append(None)
            outcomes.append(Outcome.diverged(0.0))
            failures.append(str(exc))
            continue
        trajectories.append(traj)
        outcomes.append(classify(traj))
        failures.append(None)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = []
        for i, (ic, out, fail) in enumerate(zip(cfg.ics, outcomes, failures)):
            if trajectories[i] is not None:
                write_trajectory_csv(
                    trajectories[i], os.path.join(out_dir, f"traj_{i:03d}.csv")
                )
            t_event = out.t_enter if out.is_converged else out.t_escape
            note = f" failure={fail}" if fail else ""
            lines.append(
                f"ic={list(ic)} outcome={out.kind}"
                + (f" t={t_event:.6g}" if t_event is not None else "")
                + note
            )
        _write_summary(
            os.path.join(out_dir, "summary.txt"),
            [f"scenario: {describe(variant)} epsilon={cfg.epsilon}"] + lines,
        )
    return ScenarioResult(config=cfg, trajectories=trajectories,
                          outcomes=outcomes, failures=failures)


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
    a1: float = 1.0,
    a2: float = 1.0,
    b: float = 10.0,
    A1: float = 1.0,
    A2: float = 1.0,
    B: float = 10.0,
    switch_on_time: float = 10.0,
    t_final: float = 30.0,
    ball_u: float = 1e-2,
    ball_v: float = 5e-2,
    ratio_bound: float = 0.15,
) -> Ex1Report:
    """Open-loop start, controllers on at the switch time, gain comparison.

    The fold stabilizer is compared against the 1/eps benchmark; the
    benchmark run cancels the drift constants (without them the loop
    parks at x2 = 16 eps / A2, outside any small ball around the origin;
    that literal-form offset is simulated and reported separately).
    """
    system = build_tunnel_diode(TunnelDiodeParams(epsilon=epsilon))
    icfg = config_for(epsilon, t_final)
    u_var = Thm2(Theorem2Params(c=[4.0, 16.0], a=[a1, a2], b=b))
    v_var = HighGain(a=(A1, A2), b=B, cancel_constants=True)
    v_lit = HighGain(a=(A1, A2), b=B, cancel_constants=False)

    runs_u = [
        simulate_switched(system, u_var, ic, icfg, switch_on_time=switch_on_time)
        for ic in EX1_ICS
    ]
    runs_v = [
        simulate_switched(system, v_var, ic, icfg, switch_on_time=switch_on_time)
        for ic in EX1_ICS
    ]
    lit = simulate_switched(system, v_lit, EX1_ICS[0], icfg,
                            switch_on_time=switch_on_time)

    window = (switch_on_time, t_final)
    sup_u = max(control_sup_norm(t, window) for t in runs_u)
    sup_v = max(control_sup_norm(t, window) for t in runs_v)
    ratio = sup_u / sup_v

    outcomes_u = [classify(t, ball=ball_u) for t in runs_u]
    outcomes_v = [classify(t, ball=ball_v) for t in runs_v]
    final_u = [float(np.linalg.norm(t.states[-1])) for t in runs_u]
    final_v = [float(np.linalg.norm(t.states[-1])) for t in runs_v]

    # informational probe near the other fold of the characteristic,
    # translated coordinates of (V_C, I_L, V_D) near (0, 20, 2)
    probe_ic = (-4.0, 0.0, -1.9)
    probe = simulate_switched(system, u_var, probe_ic, icfg,
                              switch_on_time=switch_on_time)
    probe_outcome = classify(probe)

    passed = (
        all(o.is_converged for o in outcomes_u)
        and all(o.is_converged for o in outcomes_v)
        and all(n < ball_u for n in final_u)
        and all(n < ball_v for n in final_v)
        and ratio < ratio_bound
    )
    report = Ex1Report(
        outcomes_u=outcomes_u, outcomes_v=outcomes_v,
        final_norms_u=final_u, final_norms_v=final_v,
        sup_u=sup_u, sup_v=sup_v, ratio=ratio,
        v_literal_final_state=lit.states[-1].copy(),
        p1_probe_outcome=probe_outcome, passed=passed,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for i, t in enumerate(runs_u):
            write_trajectory_csv(t, os.path.join(out_dir, f"ex1_u_ic{i}.csv"))
        for i, t in enumerate(runs_v):
            write_trajectory_csv(t, os.path.join(out_dir, f"ex1_v_ic{i}.csv"))
        write_trajectory_csv(lit, os.path.join(out_dir, "ex1_v_literal_ic0.csv"))
        write_trajectory_csv(probe, os.path.join(out_dir, "ex1_u_fold_probe.csv"))
        _write_summary(
            os.path.join(out_dir, "ex1_summary.txt"),
            [
                f"epsilon={epsilon} switch_on={switch_on_time} t_final={t_final}",
                *(
                    f"u-run ic={list(EX1_ICS[i])}: {outcomes_u[i].kind},"
                    f" final_norm={final_u[i]:.3e}"
                    for i in range(len(EX1_ICS))
                ),
                *(
                    f"v-run ic={list(EX1_ICS[i])}: {outcomes_v[i].kind},"
                    f" final_norm={final_v[i]:.3e}"
                    for i in range(len(EX1_ICS))
                ),
                f"sup|u|={sup_u:.6g} sup|v|={sup_v:.6g} ratio={ratio:.4f}"
                f" (bound {ratio_bound})",
                "benchmark uses drift-constant cancellation; the literal"
                " 1/eps form settles at "
                f"{np.array2string(report.v_literal_final_state, precision=4)}"
                f" (predicted x2 offset 16*eps/A2 = {16 * epsilon / A2:.3g})",
                f"informational probe near the other fold {probe_ic}:"
                f" {probe_outcome.kind}",
                f"PASS={passed}",
            ],
        )
    return report


# --------------------------------------------------------------------------
# planar reproduction


def _planar_variants(K_star: float | None):
    p2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
    variants = {"open-loop": OpenLoop(), "K=0": Thm2(p2)}
    if K_star is not None:
        variants[f"K={K_star:g}"] = Thm2Plus3(
            p2, Theorem3Params(K=[K_star], chi_star=[-2.0])
        )
    return variants


def select_compensation_gain(
    epsilon: float = 0.01,
    candidates: Sequence[float] = K_CANDIDATES,
    t_final: float = 10.0,
    ics=EX2_ICS,
) -> tuple[float, dict[float, list[str]]]:
    """Smallest candidate gain that makes every probe IC converge.

    The compensation theorem guarantees existence of a suitable gain but
    not a value; the sweep documents the choice.
    """
    system = build_planar_example(epsilon)
    p2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
    icfg = config_for(epsilon, t_final)
    details: dict[float, list[str]] = {}
    chosen = None
    for K in candidates:
        variant = Thm2Plus3(p2, Theorem3Params(K=[K], chi_star=[-2.0]))
        rhs, _, _ = build_closed_loop(system, variant)
        kinds = []
        for ic in ics:
            traj = integrate(rhs, np.asarray(ic, dtype=float), icfg,
                             stop_ball=1e-3, stop_dwell=1.0)
            kinds.append(classify(traj).kind)
        details[K] = kinds
        if chosen is None and all(k == "converged" for k in kinds):
            chosen = K
    if chosen is None:
        raise RuntimeError(
            f"no candidate gain in {list(candidates)} stabilizes all probe ICs"
        )
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
    roa: RoAComparison | None = None


def run_ex2_matrix(
    out_dir=None,
    epsilons: tuple[float, float] = (0.05, 0.01),
    t_final: float = 10.0,
    K_star: float | None = None,
) -> Ex2Report:
    """Open-loop / baseline / compensated matrix over both epsilon values."""
    if K_star is None:
        K_star, gain_details = select_compensation_gain(epsilon=min(epsilons),
                                                        t_final=t_final)
    else:
        gain_details = {}
    variants = _planar_variants(K_star)
    outcomes: dict[tuple[str, float, tuple[float, float]], Outcome] = {}
    trajs = {}
    for eps in epsilons:
        system = build_planar_example(eps)
        icfg = config_for(eps, t_final)
        for name, variant in variants.items():
            for ic in EX2_ICS:
                traj = simulate_switched(system, variant, ic, icfg)
                outcomes[(name, eps, ic)] = classify(traj)
                trajs[(name, eps, ic)] = traj

    eps_lo = min(epsilons)
    eps_hi = max(epsilons)
    k_name = f"K={K_star:g}"
    notes = []

    def check(cond: bool, msg: str) -> bool:
        notes.append(("ok  " if cond else "FAIL") + " " + msg)
        return cond

    ok = True
    for eps in epsilons:
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
        os.makedirs(out_dir, exist_ok=True)
        for (name, eps, ic), traj in trajs.items():
            tag = name.replace("=", "").replace(".", "p")
            fname = (
                f"ex2_{tag}_eps{str(eps).replace('.', 'p')}"
                f"_ic{EX2_ICS.index(ic)}.csv"
            )
            write_trajectory_csv(traj, os.path.join(out_dir, fname))
        lines = [
            f"K* sweep over {list(K_CANDIDATES)} at eps={eps_lo}: chose K*={K_star:g}",
            *(f"  K={K:g}: {kinds}" for K, kinds in gain_details.items()),
            *(
                f"{name} eps={eps} ic={list(ic)}: {out.kind}"
                for (name, eps, ic), out in outcomes.items()
            ),
        ]
        if report.diverging_ic_k0 is not None:
            lines.append(
                f"diverging IC under baseline at eps={eps_lo}:"
                f" {list(report.diverging_ic_k0)}"
            )
        lines += notes
        lines.append(
            "divergence threshold |state| > 1e6 and step collapse are"
            " artifact choices, not paper values"
        )
        _write_summary(os.path.join(out_dir, "ex2_summary.txt"), lines)
    return report


def default_ex2_grid(n: int = 41) -> GridSpec:
    """Grid over [-3, 3]^2 covering both reproduction ICs."""
    return GridSpec(x_ranges=((-3.0, 3.0, n),), z_range=(-3.0, 3.0, n))


def run_ex2_roa(
    K_star: float,
    epsilon: float = 0.01,
    grid: GridSpec | None = None,
    t_final: float = 10.0,
    jobs: int = 1,
    out_dir=None,
) -> tuple[RoAReport, RoAReport, RoAComparison]:
    """Sweep the baseline against the compensated loop on the same grid."""
    grid = grid or default_ex2_grid()
    system = build_planar_example(epsilon)
    variants = _planar_variants(K_star)
    cfg = config_for(epsilon, t_final)
    rep_comp = sweep(system, variants[f"K={K_star:g}"], grid, cfg, jobs=jobs)
    rep_base = sweep(system, variants["K=0"], grid, cfg, jobs=jobs)
    cmp = compare(rep_comp, rep_base)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
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
