import math

import numpy as np
import pytest

from slowfast.closedloop import OpenLoop, build_closed_loop
from slowfast.sim import (
    IntegratorConfig,
    Outcome,
    Trajectory,
    classify,
    config_for,
    control_sup_norm,
    integrate,
    write_trajectory_csv,
)
from slowfast.systems import build_planar_example


def decay(t, y):
    return -y


class TestIntegrate:
    def test_scalar_exponential(self):
        cfg = IntegratorConfig(t_final=1.0, max_step=1e-2)
        traj = integrate(decay, np.array([1.0]), cfg)
        assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-7)
        assert traj.times[-1] == 1.0

    def test_layer_flow_reaches_stable_root(self):
        # frozen x = -1: eps z' = -(z^2 - 1), z(0) = 2 relaxes onto z = 1.
        # closed form z(t) = coth(t/eps + arccoth(2)) is the oracle.
        eps = 0.1

        def layer(t, y):
            return np.array([-(y[0] ** 2 - 1.0) / eps])

        cfg = config_for(eps, 2.0)
        traj = integrate(layer, np.array([2.0]), cfg)
        c0 = 0.5 * math.log(3.0)  # arccoth(2)
        exact = 1.0 / math.tanh(2.0 / eps + c0)
        assert traj.states[-1][0] == pytest.approx(exact, abs=1e-9)
        assert abs(traj.states[-1][0] - 1.0) < 1e-6

    def test_open_loop_planar_diverges(self):
        sys = build_planar_example(0.05)
        rhs, _, _ = build_closed_loop(sys, OpenLoop())
        traj = integrate(rhs, np.array([0.1, 1.0]), config_for(0.05, 10.0))
        assert traj.outcome.is_diverged
        assert 0.0 < traj.outcome.t_escape < 10.0

    def test_divergence_detection_never_undecided(self):
        # layer escape z' = -(z^2 + x)/eps with x > 0 blows up in finite time
        eps = 0.01

        def escape(t, y):
            return np.array([0.0, -(y[1] ** 2 + y[0]) / eps])

        traj = integrate(escape, np.array([0.5, -0.1]), config_for(eps, 5.0))
        assert traj.outcome.is_diverged

    def test_non_finite_ic_rejected(self):
        cfg = IntegratorConfig(t_final=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            integrate(decay, np.array([np.nan]), cfg)

    def test_non_finite_rhs_at_ic_rejected(self):
        cfg = IntegratorConfig(t_final=1.0)
        with pytest.raises(ValueError, match="not finite"):
            integrate(lambda t, y: np.array([np.inf]), np.array([1.0]), cfg)

    def test_internal_non_finite_is_diverged_not_crash(self):
        def pole(t, y):  # finite at t=0, unbounded at t = 0.5
            return np.array([1.0 / (0.5 - t)])

        traj = integrate(pole, np.array([0.0]), IntegratorConfig(t_final=1.0))
        assert traj.outcome.is_diverged

    def test_stage_overflow_is_diverged_not_crash(self):
        raised = []

        def cube(t, y):  # plain floats: z ** 3 raises OverflowError
            z = float(y[0])
            try:
                return [z**3]
            except OverflowError:
                raised.append(t)
                raise

        cfg = IntegratorConfig(t_final=1.0, divergence_norm=1e300)
        traj = integrate(cube, np.array([1e100]), cfg)
        assert raised
        assert traj.outcome.is_diverged

    def test_rhs_of_wrong_length_rejected(self):
        cfg = IntegratorConfig(t_final=1.0)
        with pytest.raises(ValueError, match="must return 2 values"):
            integrate(lambda t, y: [0.0], np.array([1.0, 1.0]), cfg)

    def test_records_follow_stride(self):
        cfg = IntegratorConfig(t_final=0.5, record_stride=0.1, max_step=1e-2)
        traj = integrate(decay, np.array([1.0]), cfg)
        assert traj.times == pytest.approx(np.linspace(0.0, 0.5, 6), abs=1e-15)

    def test_determinism_bitwise(self):
        sys = build_planar_example(0.05)
        rhs, ueval, _ = build_closed_loop(sys, OpenLoop())
        cfg = config_for(0.05, 1.0)
        a = integrate(rhs, np.array([-0.5, 0.5]), cfg, control=ueval)
        b = integrate(rhs, np.array([-0.5, 0.5]), cfg, control=ueval)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)

    def test_step_halving_consistency(self):
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10, max_step=1e-2, t_final=2.0)
        fine = IntegratorConfig(rtol=5e-9, atol=5e-11, max_step=5e-3, t_final=2.0)

        def spiral(t, y):
            return np.array([-y[0] + y[1], -y[1] - y[0]])

        a = integrate(spiral, np.array([1.0, 0.0]), cfg)
        b = integrate(spiral, np.array([1.0, 0.0]), fine)
        rel = np.max(np.abs(a.states[-1] - b.states[-1])) / max(
            1e-12, float(np.max(np.abs(b.states[-1])))
        )
        assert rel <= 10 * cfg.rtol

    def test_slow_fast_time_equivalence(self):
        eps, T = 0.05, 0.4

        def slow(t, y):
            x, z = y
            return np.array([1.0 + x + z - 1.0, -(z * z + x) / eps])

        def fast(t, y):
            x, z = y
            return np.array([eps * (1.0 + x + z - 1.0), -(z * z + x)])

        ic = np.array([-0.5, 0.6])
        cfg_s = config_for(eps, T)
        cfg_f = IntegratorConfig(max_step=2e-2, t_final=T / eps, record_stride=0.2)
        a = integrate(slow, ic, cfg_s)
        b = integrate(fast, ic, cfg_f)
        assert a.states[-1] == pytest.approx(b.states[-1], rel=1e-6)


class TestClassify:
    @staticmethod
    def _traj(times, states, outcome=None):
        states = np.asarray(states, dtype=float)
        return Trajectory(
            times=np.asarray(times, dtype=float),
            states=states,
            controls=None,
            outcome=outcome or Outcome.undecided(),
        )

    def test_dwelling_at_origin_converges(self):
        times = np.linspace(0.0, 5.0, 501)
        states = np.zeros((501, 2))
        out = classify(self._traj(times, states))
        assert out.is_converged and out.t_enter == 0.0

    def test_integrator_escape_wins(self):
        traj = self._traj([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]],
                          Outcome.diverged(1.0))
        assert classify(traj).is_diverged

    def test_final_norm_half_is_undecided(self):
        times = np.linspace(0.0, 5.0, 501)
        states = np.column_stack([0.5 * np.cos(times), 0.5 * np.sin(times)])
        assert classify(self._traj(times, states)).kind == "undecided"

    def test_transit_through_ball_does_not_count(self):
        times = np.linspace(0.0, 2.0, 201)
        norms = np.abs(times - 1.0)  # dips to 0 at t = 1, leaves again
        states = np.column_stack([norms, np.zeros_like(norms)])
        assert classify(self._traj(times, states)).kind == "undecided"

    def test_entry_time_reported(self):
        times = np.linspace(0.0, 4.0, 401)
        norms = np.where(times < 2.0, 1.0, 1e-5)
        states = np.column_stack([norms, np.zeros_like(norms)])
        out = classify(self._traj(times, states))
        assert out.is_converged
        assert out.t_enter == pytest.approx(2.0)


class TestControlSupNorm:
    def test_constant_control(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.zeros((3, 2)),
            controls=np.tile([-4.0, 16.0], (3, 1)),
            outcome=Outcome.undecided(),
        )
        assert control_sup_norm(traj, (0.0, 2.0)) == 16.0

    def test_zero_control(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((2, 1)),
            controls=np.zeros((2, 1)),
            outcome=Outcome.undecided(),
        )
        assert control_sup_norm(traj, (0.0, 1.0)) == 0.0

    def test_empty_window_rejected(self):
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.zeros((2, 1)),
            controls=np.zeros((2, 1)),
            outcome=Outcome.undecided(),
        )
        with pytest.raises(ValueError, match="window"):
            control_sup_norm(traj, (5.0, 6.0))


class TestTrajectoryCsv:
    def test_header_and_digits(self, tmp_path):
        traj = Trajectory(
            times=np.array([0.0, 0.1]),
            states=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 1.0 / 3.0]]),
            controls=np.array([[0.5, -0.5], [1.5, -2.5]]),
            outcome=Outcome.undecided(),
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,z,u1,u2"
        assert len(lines) == 3
        third = lines[2].split(",")
        assert float(third[3]) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert len(third[3].replace("0.", "")) >= 15  # 17 significant digits

    def test_zero_controls_written_for_bare_runs(self, tmp_path):
        cfg = IntegratorConfig(t_final=0.2, record_stride=0.1, max_step=1e-2)
        traj = integrate(decay, np.array([1.0, 1.0]), cfg)
        path = tmp_path / "bare.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,z,u1"
        assert all(row.split(",")[-1] == "0" for row in lines[1:])


class TestConfig:
    def test_defaults_guard_layer(self):
        cfg = config_for(0.01, 5.0)
        assert cfg.max_step == pytest.approx(1e-3)
        cfg = config_for(1e-3, 5.0)
        assert cfg.max_step == pytest.approx(5e-4)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(min_step=1.0, max_step=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)
