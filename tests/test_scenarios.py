import json
from dataclasses import replace

import numpy as np
import pytest

from slowfast.scenarios import (
    EX1_CONFIGS,
    EX1_ICS,
    EX2_CONFIGS,
    EX2_EPSILONS,
    ConfigError,
    EX2_ICS,
    K_CANDIDATES,
    build_system,
    build_variant,
    parse_config,
    run_ex1,
    run_scenario,
    select_compensation_gain,
    simulate_switched,
)
from slowfast import closedloop, scenarios
from slowfast.cli import main
from slowfast.closedloop import OpenLoop, Thm2, build_closed_loop
from slowfast.control import Theorem2Params
from slowfast.sim import IntegratorStats, Outcome, config_for, integrate
from slowfast.systems import build_planar_example


def planar_config(**over):
    raw = {
        "system": {"builtin": "planar"},
        "epsilon": 0.05,
        "controller": {"type": "thm2", "a": [1.0], "b": 3.0, "c": [1.0]},
        "ics": [[-2.0, 2.0]],
        "t_final": 10.0,
    }
    raw.update(over)
    return raw


class TestConfigSchema:
    def test_roundtrip_identity(self):
        cfg = parse_config(planar_config())
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="`epsilonn`"):
            parse_config(planar_config(epsilonn=0.1))

    def test_unknown_controller_key(self):
        raw = planar_config()
        raw["controller"]["gain"] = 2.0
        with pytest.raises(ConfigError, match="`gain`"):
            parse_config(raw)

    def test_unknown_integrator_key(self):
        with pytest.raises(ConfigError, match="`steps`"):
            parse_config(planar_config(integrator={"steps": 100}))

    def test_missing_required_key(self):
        raw = planar_config()
        del raw["epsilon"]
        with pytest.raises(ConfigError, match="`epsilon`"):
            parse_config(raw)

    def test_dimension_checks(self):
        raw = planar_config()
        raw["controller"]["a"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="1 entries"):
            parse_config(raw)
        raw = planar_config(ics=[[1.0, 2.0, 3.0]])
        with pytest.raises(ConfigError, match="2 entries"):
            parse_config(raw)

    def test_custom_system_needs_matching_expressions(self):
        raw = planar_config()
        raw["system"] = {"builtin": "custom", "k": 3, "f": ["z"]}
        with pytest.raises(ConfigError, match="2 expression"):
            parse_config(raw)

    def test_switch_time_bounds(self):
        with pytest.raises(ConfigError, match="switch_on_time"):
            parse_config(planar_config(switch_on_time=11.0))

    def test_thm2_constants_default_to_drift(self):
        raw = planar_config()
        del raw["controller"]["c"]
        cfg = parse_config(raw)
        system = build_system(cfg)
        variant = build_variant(cfg, system)
        assert variant.p.c == pytest.approx([1.0])

    def test_tunnel_diode_config(self):
        raw = planar_config()
        raw["system"] = {"builtin": "tunnel_diode"}
        raw["controller"] = {"type": "thm2", "a": [1.0, 1.0], "b": 10.0,
                             "c": [4.0, 16.0]}
        raw["ics"] = [[-10.0, 10.0, 10.0]]
        cfg = parse_config(raw)
        assert build_system(cfg).n_slow == 2

    @pytest.mark.parametrize("controller", [
        {"type": "thm2", "a": [1.0, 1.0], "b": 10.0},
        {"type": "highgain", "A": [1.0, 1.0], "B": 10.0, "cancel_constants": True},
    ])
    def test_circuit_origin_is_equilibrium_at_any_L_Cap(self, controller):
        # c and cancel_constants act additively: they cancel f(0) = (4/L, 16/Cap)
        raw = planar_config(epsilon=0.01, controller=controller,
                            ics=[[0.0, 0.0, 0.0]])
        raw["system"] = {"builtin": "tunnel_diode", "L": 2.0, "Cap": 0.5}
        cfg = parse_config(raw)
        system = build_system(cfg)
        rhs, _ = build_closed_loop(system, build_variant(cfg, system))
        assert rhs(0.0, np.zeros(3)) == [0.0, 0.0, 0.0]

    def test_sections_are_checked_json_with_defaults_filled_in(self):
        raw = planar_config(epsilon=0.01, ics=[[0, 0, 0]],
                            controller={"type": "highgain", "A": [1, 1], "B": 10})
        raw["system"] = {"builtin": "tunnel_diode"}
        cfg = parse_config(raw)
        assert cfg.system == {"builtin": "tunnel_diode", "L": 1.0, "Cap": 1.0}
        assert cfg.controller == {"type": "highgain", "A": [1.0, 1.0], "B": 10.0,
                                  "cancel_constants": False}
        assert all(type(v) is float for v in [*cfg.controller["A"], cfg.controller["B"]])
        raw = planar_config(controller={"type": "thm2", "a": [1], "b": 3})
        assert parse_config(raw).controller == {"type": "thm2", "a": [1.0], "b": 3.0}

    @pytest.mark.parametrize("controller", [
        {"type": "thm2", "a": [1.0], "b": 3.0},
        {"type": "highgain", "A": [1.0], "B": 10.0, "cancel_constants": True},
    ])
    def test_drift_that_raises_at_the_origin_is_named(self, controller):
        raw = planar_config(controller=controller)
        raw["system"] = {"builtin": "custom", "k": 2, "f": ["1 / x1"]}
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert str(exc.value) == ("controller: the drift at the origin cannot be"
                                  " evaluated: float division by zero")


# (system section, its number of slow states)
ROUNDTRIP_SYSTEMS = {
    "planar": ({"builtin": "planar"}, 1),
    "tunnel_diode": ({"builtin": "tunnel_diode"}, 2),
    "tunnel_diode-L-Cap": ({"builtin": "tunnel_diode", "L": 2, "Cap": 0.5}, 2),
    "custom-k3": ({"builtin": "custom", "k": 3, "f": ["1 + x1 + z", "x2 * z"]}, 2),
}
ROUNDTRIP_CONTROLLERS = {
    "none": lambda m: {"type": "none"},
    "thm2": lambda m: {"type": "thm2", "a": [1] * m, "b": 3},
    "thm2-c": lambda m: {"type": "thm2", "a": [1] * m, "b": 3, "c": [0.5] * m},
    "thm2plus3": lambda m: {"type": "thm2plus3", "a": [1] * m, "b": 3,
                            "K": [5] + [0] * (m - 1), "chi_star": [-2] + [0] * (m - 1)},
    "highgain": lambda m: {"type": "highgain", "A": [1] * m, "B": 10},
    "highgain-cancel": lambda m: {"type": "highgain", "A": [1] * m, "B": 10,
                                  "cancel_constants": True},
}

# thm2plus3 is not defined on tunnel_diode
ROUNDTRIP_CASES = [(name, ctrl) for name in ROUNDTRIP_SYSTEMS for ctrl in ROUNDTRIP_CONTROLLERS
                   if not (ctrl == "thm2plus3" and name.startswith("tunnel_diode"))]


@pytest.mark.parametrize("name, ctrl", ROUNDTRIP_CASES)
def test_config_roundtrip(name, ctrl):
    section, m = ROUNDTRIP_SYSTEMS[name]
    base = {"system": section, "epsilon": 0.05,
            "controller": ROUNDTRIP_CONTROLLERS[ctrl](m), "ics": [[0.1] * (m + 1)]}
    for extra in ({}, {"integrator": {"rtol": 1e-7, "record_stride": 1}},
                  {"outputs": "out/roundtrip"},
                  {"integrator": {"max_step": 1e-4}, "outputs": "out/roundtrip"}):
        cfg = parse_config({**base, **extra})
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


class TestRunScenario:
    def test_planar_thm2_converges(self, tmp_path):
        cfg = parse_config(planar_config())
        result = run_scenario(cfg, out_dir=tmp_path)
        assert result.outcomes[0].is_converged
        assert (tmp_path / "traj_000.csv").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_open_loop_divergence_is_a_result(self):
        raw = planar_config(ics=[[0.1, 1.0]])
        raw["controller"] = {"type": "none"}
        result = run_scenario(parse_config(raw))
        assert result.outcomes[0].is_diverged
        assert result.outcomes[0].failure is None
        assert not result.all_failed

    def test_csv_bytes_identical_across_runs(self, tmp_path):
        cfg = parse_config(planar_config())
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=a)
        run_scenario(cfg, out_dir=b)
        assert (a / "traj_000.csv").read_bytes() == (b / "traj_000.csv").read_bytes()

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_gains_share_one_loop(self, tmp_path, first):
        # c = [0.0] and c = [-0.0] are one record, so whichever is built
        # first, the run built second from the cached loop writes the same
        # bytes; from x1 = 0, z = -0 the recorded u at t = 0 keeps the sign
        # of its constant
        def run(c):
            raw = planar_config(ics=[[0.0, -0.0], [0.5, -0.5]], t_final=0.5)
            raw["system"] = {"builtin": "custom", "k": 2, "f": ["-x1"]}
            raw["controller"] = {**raw["controller"], "c": [c]}
            out = tmp_path / f"{len(list(tmp_path.iterdir()))}"
            run_scenario(parse_config(raw), out_dir=out)
            return [p.read_bytes() for p in sorted(out.iterdir())]

        closedloop.build_closed_loop.cache_clear()
        assert run(first) == run(-first)

    def test_custom_expression_system(self):
        raw = planar_config()
        raw["system"] = {"builtin": "custom", "k": 2, "f": ["1 + x1 + z"]}
        result = run_scenario(parse_config(raw))
        assert result.outcomes[0].is_converged

    def test_all_numerical_failures_flagged(self):
        raw = planar_config()
        raw["system"] = {"builtin": "custom", "k": 2,
                         "f": ["sqrt(-1.0 - x1*x1)"]}
        result = run_scenario(parse_config(raw))
        assert result.all_failed

    def test_the_failure_text_is_on_the_outcome(self, tmp_path):
        raw = planar_config(ics=[[-1.0, 0.5], [1.0, 0.5]])
        raw["system"] = {"builtin": "custom", "k": 2, "f": ["sqrt(-1.0 - x1*x1)"]}
        raw["controller"] = {**raw["controller"], "c": [0.0]}
        result = run_scenario(parse_config(raw), out_dir=tmp_path)
        text = "rhs is not finite at the initial condition"
        assert result.trajectories == [None, None]
        assert result.outcomes == [Outcome.diverged(0.0, failure=text)] * 2
        assert (tmp_path / "summary.txt").read_text().splitlines()[1:] == [
            f"ic={ic} outcome=diverged t=0 failure={text}" for ic in ([-1.0, 0.5], [1.0, 0.5])]

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr(scenarios, "simulate_switched", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_scenario(parse_config(planar_config()))


class TestSwitching:
    def test_switch_time_is_sampled_exactly(self):
        sys = build_planar_example(0.05)
        p = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
        cfg = config_for(0.05, 3.0)
        # (-4, 2) sits on the attracting branch z = sqrt(-x) and drifts away
        # from the fold, so the open-loop segment survives to the switch
        traj = simulate_switched(sys, Thm2(p), (-4.0, 2.0), cfg,
                                 switch_on_time=1.0)
        assert np.any(traj.times == 1.0)
        assert np.all(np.diff(traj.times) > 0)
        # control is zero before the switch, active at and after it
        i = int(np.where(traj.times == 1.0)[0][0])
        assert np.all(traj.controls[:i] == 0.0)
        assert traj.controls[i] != 0.0

    def test_stats_sum_the_two_segments(self):
        sys = build_planar_example(0.01)
        variant = Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.0))
        cfg = config_for(0.01, 3.0)
        traj = simulate_switched(sys, variant, (-0.5, 0.5), cfg, switch_on_time=0.2)
        opened = integrate(build_closed_loop(sys, OpenLoop())[0], [-0.5, 0.5],
                           replace(cfg, t_final=0.2))
        closed = integrate(build_closed_loop(sys, variant)[0], opened.states[-1], cfg,
                           t0=float(opened.times[-1]))
        a, b = opened.stats, closed.stats
        assert a.accepted > 0 and b.accepted > 0
        assert traj.stats == IntegratorStats(
            b.reason, a.accepted + b.accepted, a.rejected + b.rejected,
            a.retried + b.retried, min(a.h_min, b.h_min))


class TestEx1:
    def test_open_loop_segments_integrated_once(self, monkeypatch):
        calls = []

        def counted(rhs, ic, cfg, t0=0.0, **kwargs):
            calls.append((t0, tuple(np.asarray(ic).tolist())))
            return integrate(rhs, ic, cfg, t0=t0, **kwargs)

        monkeypatch.setattr(scenarios, "integrate", counted)
        rep = run_ex1(switch_on_time=0.5, t_final=1.0)
        # u, v, the literal benchmark and the probe switch on from one
        # open-loop segment per initial condition: 3 segments, 6 switch-ons
        assert len(calls) == 9
        opened = [ic for t0, ic in calls if t0 == 0.0]
        assert len(opened) == len(set(opened)) == 3
        assert set(EX1_ICS) < set(opened)
        assert [t0 for t0, _ in calls].count(0.5) == 6
        cfg = parse_config({**EX1_CONFIGS["v_literal"], "t_final": 1.0,
                            "switch_on_time": 0.5})
        system = build_system(cfg)
        alone = simulate_switched(system, build_variant(cfg, system), EX1_ICS[0],
                                  config_for(0.01, 1.0), switch_on_time=0.5)
        assert np.array_equal(rep.v_literal_final_state, alone.states[-1])


class TestGainSelection:
    def test_selects_smallest_sufficient_gain(self):
        K, details = select_compensation_gain()
        assert K == 50.0
        kinds = details[K]
        assert kinds == ["converged", "converged"]
        # every smaller candidate fails on at least one probe IC
        for cand, ks in details.items():
            if cand < K:
                assert "diverged" in ks or "undecided" in ks

    def test_probe_ics_are_the_reproduction_ics(self):
        assert EX2_ICS == ((-2.0, 2.0), (0.1, 1.0))


def ex2_config(name, epsilon, **gains):
    raw = EX2_CONFIGS[name]
    return {**raw, "epsilon": epsilon, "controller": {**raw["controller"], **gains}}


# every loop the reproductions run, as the config it is parsed from
REPRODUCTION_CONFIGS = {
    **{f"ex1-{name}": raw for name, raw in EX1_CONFIGS.items()},
    **{f"ex2-{name}-eps{eps}": ex2_config(name, eps)
       for name in ("open-loop", "baseline") for eps in EX2_EPSILONS},
    **{f"ex2-compensated-K{K:g}-eps{eps}": ex2_config("compensated", eps, K=[K])
       for K in K_CANDIDATES for eps in EX2_EPSILONS},
}


@pytest.mark.parametrize("name", list(REPRODUCTION_CONFIGS))
def test_reproduction_loops_are_valid_configs(name):
    cfg = parse_config(REPRODUCTION_CONFIGS[name])
    assert parse_config(cfg.to_dict()) == cfg


def test_ex1_stabilizer_is_its_config(tmp_path):
    run_ex1(out_dir=tmp_path / "ex1")
    path = tmp_path / "u.json"
    path.write_text(json.dumps(EX1_CONFIGS["u"]))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "u")]) == 0
    for traj, csv in (("traj_000.csv", "ex1_u_ic0.csv"), ("traj_001.csv", "ex1_u_ic1.csv"),
                      ("traj_002.csv", "ex1_u_fold_probe.csv")):
        assert (tmp_path / "u" / traj).read_bytes() == (tmp_path / "ex1" / csv).read_bytes()
