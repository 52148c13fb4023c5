import json

import numpy as np
import pytest

from slowfast.scenarios import (
    ConfigError,
    EX2_ICS,
    build_system,
    build_variant,
    parse_config,
    run_scenario,
    select_compensation_gain,
    simulate_switched,
)
from slowfast import scenarios
from slowfast.closedloop import Thm2, build_closed_loop
from slowfast.control import Theorem2Params
from slowfast.sim import config_for
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
        rhs, _, _ = build_closed_loop(system, build_variant(cfg, system))
        assert rhs(0.0, np.zeros(3)) == [0.0, 0.0, 0.0]


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
        assert result.failures[0] is None
        assert not result.all_failed

    def test_csv_bytes_identical_across_runs(self, tmp_path):
        cfg = parse_config(planar_config())
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=a)
        run_scenario(cfg, out_dir=b)
        assert (a / "traj_000.csv").read_bytes() == (b / "traj_000.csv").read_bytes()

    def test_custom_expression_system(self):
        raw = planar_config()
        raw["system"] = {"builtin": "custom", "k": 2, "f": ["1 + x1 + z"]}
        result = run_scenario(parse_config(raw))
        assert result.outcomes[0].is_converged

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_all_numerical_failures_flagged(self):
        raw = planar_config()
        raw["system"] = {"builtin": "custom", "k": 2,
                         "f": ["sqrt(-1.0 - x1*x1)"]}
        result = run_scenario(parse_config(raw))
        assert result.all_failed

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
