import pickle

import numpy as np
import pytest

from slowfast.closedloop import (
    CellRunner,
    ExprSlowField,
    HighGain,
    OpenLoop,
    Thm2,
    Thm2Plus3,
    build_closed_loop,
    describe,
)
from slowfast.control import Theorem2Params, Theorem3Params
from slowfast.normal_form import NormalFormSystem
from slowfast.scenarios import EX1_ICS
from slowfast.sim import config_for, integrate
from slowfast.systems import TunnelDiodeParams, build_planar_example, build_tunnel_diode

P2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
P3 = Theorem3Params(K=[50.0], chi_star=[-2.0])


class TestBuild:
    def test_open_loop_planar(self):
        sys = build_planar_example(0.05)
        rhs, ueval, m = build_closed_loop(sys, OpenLoop())
        assert m == 1
        y = np.array([0.1, 1.0])
        assert ueval(0.0, y) == pytest.approx([0.0])
        assert rhs(0.0, y) == pytest.approx([1.0 + 0.1 + 1.0, -(1.0 + 0.1) / 0.05])

    def test_thm2_planar_matches_formula(self):
        sys = build_planar_example(0.01)
        rhs, ueval, _ = build_closed_loop(sys, Thm2(P2))
        y = np.array([0.2, -0.3])
        pz, px = (1 / 0.01) ** (1 / 3), (1 / 0.01) ** (2 / 3)
        u = -1.0 + 3.0 * pz * (-0.3) - px * 0.2
        assert ueval(0.0, y) == pytest.approx([u], rel=1e-12)
        assert rhs(0.0, y)[0] == pytest.approx(1.0 + 0.2 - 0.3 + u, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        sys = NormalFormSystem(
            k=3, epsilon=0.01, slow_f=lambda x, z, e: np.zeros(2)
        )
        with pytest.raises(ValueError, match="sized for"):
            build_closed_loop(sys, Thm2(P2))

    def test_tunnel_diode_slots(self):
        sys = build_tunnel_diode()
        p = Theorem2Params(c=[4.0, 16.0], a=[1.0, 1.0], b=10.0)
        rhs, ueval, m = build_closed_loop(sys, Thm2(p))
        assert m == 2
        u0 = ueval(0.0, np.zeros(3))
        assert u0 == pytest.approx([-4.0, 16.0])
        assert rhs(0.0, np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0])

    def test_tunnel_diode_highgain_additive(self):
        sys = build_tunnel_diode()
        rhs, ueval, _ = build_closed_loop(
            sys, HighGain(a=(1.0, 1.0), b=10.0, cancel_constants=True)
        )
        assert ueval(0.0, np.zeros(3)) == pytest.approx([-4.0, -16.0])
        assert rhs(0.0, np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0])

    def test_tunnel_diode_compensation_unsupported(self):
        sys = build_tunnel_diode()
        with pytest.raises(TypeError, match="not defined"):
            build_closed_loop(sys, Thm2Plus3(P2, P3))

    def test_describe_is_readable(self):
        assert describe(OpenLoop()) == "open-loop"
        assert "thm2" in describe(Thm2(P2))
        assert "K=" in describe(Thm2Plus3(P2, P3))
        assert "highgain" in describe(HighGain(a=(1.0,), b=2.0))


class TestExprSlowField:
    def test_evaluates_expressions(self):
        f = ExprSlowField(exprs=("1 + x1 + z", "x2 - epsilon"))
        out = f(np.array([2.0, 5.0]), 0.5, 0.01)
        assert out == pytest.approx([3.5, 4.99])

    def test_pickles(self):
        f = ExprSlowField(exprs=("sin(z) + x1",))
        g = pickle.loads(pickle.dumps(f))
        assert g(np.array([1.0]), 0.3, 0.0) == pytest.approx(
            f(np.array([1.0]), 0.3, 0.0)
        )

    def test_in_normal_form_system(self):
        sys = NormalFormSystem(
            k=2, epsilon=0.05, slow_f=ExprSlowField(exprs=("1 + x1 + z",))
        )
        rhs, _, _ = build_closed_loop(sys, Thm2(P2))
        direct = build_closed_loop(build_planar_example(0.05), Thm2(P2))[0]
        y = np.array([0.3, -0.4])
        assert rhs(0.0, y) == pytest.approx(direct(0.0, y), rel=1e-14)


    def test_rejects_code_outside_the_grammar(self):
        for src in ("().__class__.__base__.__subclasses__().__len__()",
                    "__import__('os')", "x1.real", "x2", "x1 // 2", "True"):
            with pytest.raises(ValueError):
                ExprSlowField(exprs=(src,))

    def test_numpy_semantics_for_invalid_arguments(self):
        f = ExprSlowField(exprs=("x1 ** 0.5", "log(x2)"))
        with np.errstate(invalid="ignore", divide="ignore"):
            out = f(np.array([-4.0, -1.0]), 0.0, 0.01)
        assert np.all(np.isnan(out))

    def test_closed_loop_rhs_returns_python_floats(self):
        sys = NormalFormSystem(
            k=2, epsilon=0.05, slow_f=ExprSlowField(exprs=("sin(z) + 1 + x1",)))
        rhs, _, _ = build_closed_loop(sys, Thm2(P2))
        out = rhs(0.0, np.array([0.3, -0.2]))
        assert [type(v) for v in out] == [float, float]

    def test_constants_pi_and_unary_minus(self):
        f = ExprSlowField(exprs=("-x1 + 2 ** 3 * pi - epsilon / z",))
        assert f(np.array([1.0]), 2.0, 0.5) == pytest.approx(
            [-1.0 + 8.0 * np.pi - 0.25], rel=1e-15)


class TestFloatPath:
    """``integrate`` steps a closed loop through its float function; the same
    rhs behind a plain callable (as a benchmark span wrapper presents it)
    takes the array adapter, and both must give the same run bit for bit."""

    @staticmethod
    def _assert_same_run(rhs, ueval, ic, cfg, **kwargs):
        assert callable(rhs.float_fn) and callable(ueval.float_fn)
        direct = integrate(rhs, ic, cfg, control=ueval, **kwargs)
        adapted = integrate(lambda t, y: rhs(t, y), ic, cfg,
                            control=lambda t, y: ueval(t, y), **kwargs)
        assert np.array_equal(direct.times, adapted.times)
        assert np.array_equal(direct.states, adapted.states)
        assert np.array_equal(direct.controls, adapted.controls)
        assert direct.outcome == adapted.outcome
        return direct

    def test_circuit_highgain_segment(self):
        sys = build_tunnel_diode(TunnelDiodeParams(epsilon=0.01))
        rhs, ueval, _ = build_closed_loop(
            sys, HighGain(a=(1.0, 1.0), b=10.0, cancel_constants=True))
        traj = self._assert_same_run(rhs, ueval, EX1_ICS[0], config_for(0.01, 2.0))
        assert len(traj) == 201

    def test_k4_normal_form_with_compensation(self):
        f = ExprSlowField(exprs=("1 + x1 + z", "0.5 * x2 - z * z", "sin(x3) + x1"))
        sys = NormalFormSystem(k=4, epsilon=0.05, slow_f=f)
        variant = Thm2Plus3(Theorem2Params(c=[1.0, 0.0, 0.0], a=[1.0, 1.0, 1.0], b=3.0),
                            Theorem3Params(K=[5.0, 0.0, 0.0], chi_star=[-2.0, 0.0, 0.0]))
        rhs, ueval, _ = build_closed_loop(sys, variant)
        self._assert_same_run(rhs, ueval, [0.1, -0.1, 0.05, 0.2], config_for(0.05, 3.0),
                              stop_ball=1e-3)


def _mistyped_field(x, z, eps):
    return np.array([x[0] + "z"])  # a bug, not a numerical failure


class TestCellRunner:
    def test_fast_path_agrees_with_generic(self):
        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 10.0)
        pts = [
            (-2.0, 2.0), (0.1, 1.0), (0.0, 0.0), (1.5, -1.5), (-3.0, 3.0),
            (0.5, 0.5), (-1.0, -2.0), (2.5, 0.0), (0.0, -2.5),
        ]
        for variant in (OpenLoop(), Thm2(P2), Thm2Plus3(P2, P3)):
            fast = CellRunner(system=sys, variant=variant, cfg=cfg)
            slow = CellRunner(system=sys, variant=variant, cfg=cfg,
                              use_fast_path=False)
            for ic in pts:
                assert fast(ic).kind == slow(ic).kind, (variant, ic)

    def test_runner_is_picklable(self):
        runner = CellRunner(
            system=build_planar_example(0.01), variant=Thm2(P2),
            cfg=config_for(0.01, 10.0),
        )
        clone = pickle.loads(pickle.dumps(runner))
        assert clone((0.0, 0.0)).kind == "converged"

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_failures_count_as_diverged(self):
        bad = NormalFormSystem(
            k=2, epsilon=0.01,
            slow_f=ExprSlowField(exprs=("sqrt(-1.0 - x1*x1)",)),
        )
        runner = CellRunner(system=bad, variant=OpenLoop(),
                            cfg=config_for(0.01, 1.0))
        assert runner((0.5, 0.5)).is_diverged

    def test_programming_errors_propagate(self):
        from slowfast.roa import GridSpec, sweep

        bad = NormalFormSystem(k=2, epsilon=0.01, slow_f=_mistyped_field)
        cfg = config_for(0.01, 1.0)
        runner = CellRunner(system=bad, variant=OpenLoop(), cfg=cfg)
        with pytest.raises(TypeError):
            runner((0.5, 0.5))
        grid = GridSpec(x_ranges=((-1.0, 1.0, 2),), z_range=(-1.0, 1.0, 2))
        with pytest.raises(TypeError):
            sweep(bad, OpenLoop(), grid, cfg, jobs=1)

    def test_overflow_counts_as_diverged(self):
        blowup = NormalFormSystem(
            k=2, epsilon=0.01, slow_f=ExprSlowField(exprs=("x1 ** 400",)))
        runner = CellRunner(system=blowup, variant=OpenLoop(),
                            cfg=config_for(0.01, 1.0))
        assert runner((10.0, 0.0)).is_diverged
