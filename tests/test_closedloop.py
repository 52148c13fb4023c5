import math
import os
import pickle
import subprocess
import textwrap
from sys import executable

import numpy as np
import pytest

import slowfast
from slowfast import closedloop, lyapunov, poly, sim
from slowfast.closedloop import (
    CellRunner,
    ExprSlowField,
    HighGain,
    OpenLoop,
    Thm2,
    Thm2Plus3,
    build_closed_loop,
    describe,
    drift_at_origin,
    law,
)
from slowfast.control import Theorem2Params, Theorem3Params, evaluate
from slowfast.expr import walk
from slowfast.normal_form import NormalFormSystem
from slowfast.scenarios import EX1_CONFIGS, EX1_ICS, ConfigError, build_variant, parse_config
from slowfast.sim import _SCOPE, NonFiniteError, config_for, integrate
from slowfast.systems import TunnelDiodeSystem, build_planar_example

P2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
P3 = Theorem3Params(K=[50.0], chi_star=[-2.0])


class TestBuild:
    def test_open_loop_planar(self):
        sys = build_planar_example(0.05)
        rhs, ueval = build_closed_loop(sys, OpenLoop())
        y = np.array([0.1, 1.0])
        assert ueval(0.0, y.tolist()) == pytest.approx([0.0])
        assert rhs(0.0, y) == pytest.approx([1.0 + 0.1 + 1.0, -(1.0 + 0.1) / 0.05])

    def test_thm2_planar_matches_formula(self):
        sys = build_planar_example(0.01)
        rhs, ueval = build_closed_loop(sys, Thm2(P2))
        y = np.array([0.2, -0.3])
        pz, px = (1 / 0.01) ** (1 / 3), (1 / 0.01) ** (2 / 3)
        u = -1.0 + 3.0 * pz * (-0.3) - px * 0.2
        assert ueval(0.0, y.tolist()) == pytest.approx([u], rel=1e-12)
        assert rhs(0.0, y)[0] == pytest.approx(1.0 + 0.2 - 0.3 + u, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        sys = NormalFormSystem(k=3, epsilon=0.01, slow_f=ExprSlowField(exprs=("0", "0")))
        with pytest.raises(ValueError, match="sized for"):
            build_closed_loop(sys, Thm2(P2))

    def test_tunnel_diode_slots(self):
        sys = TunnelDiodeSystem()
        p = Theorem2Params(c=[4.0, 16.0], a=[1.0, 1.0], b=10.0)
        rhs, ueval = build_closed_loop(sys, Thm2(p))
        u0 = ueval(0.0, [0.0] * 3)
        assert u0 == pytest.approx([-4.0, 16.0])
        assert rhs(0.0, np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0])

    def test_slots_admit_pi_as_the_record_does(self):
        sys = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + x1 + z",)),
                               slots=("pi * v1",))
        _, ueval = build_closed_loop(sys, Thm2(P2))
        y = [0.2, -0.3]
        v1 = evaluate(law(sys, Thm2(P2)), y[:1], y[1])[0]
        assert ueval(0.0, y) == [math.pi * v1]

    def test_slots_admit_epsilon_as_the_loop_does(self):
        sys = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + x1 + z",)),
                               slots=("epsilon * v1",))
        _, ueval = build_closed_loop(sys, Thm2(P2))
        y = [0.2, -0.3]
        v1 = evaluate(law(sys, Thm2(P2)), y[:1], y[1])[0]
        assert ueval(0.0, y) == [0.01 * v1]

    def test_slot_constant_named_like_a_control_refused(self):
        # a drift constant v1 would stand for the law in the recorded control
        f = ExprSlowField(("x1 + z",), {"v1": 3.0})
        with pytest.raises(ValueError, match="^constant v1 shadows a control of the slots$"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=f, fast="-(z * z + x1) / epsilon",
                             slots=("v1",))
        assert NormalFormSystem(k=2, epsilon=0.01, slow_f=f, slots=None).n_slow == 1

    def test_tunnel_diode_highgain_additive(self):
        sys = TunnelDiodeSystem()
        rhs, ueval = build_closed_loop(
            sys, HighGain(a=(1.0, 1.0), b=10.0, cancel_constants=True)
        )
        assert ueval(0.0, [0.0] * 3) == pytest.approx([-4.0, -16.0])
        assert rhs(0.0, np.zeros(3)) == pytest.approx([0.0, 0.0, 0.0])

    def test_tunnel_diode_compensation_unsupported(self):
        sys = TunnelDiodeSystem()
        with pytest.raises(ValueError, match="not defined"):
            build_closed_loop(sys, Thm2Plus3(P2, P3))

    def test_law_with_named_gain_powers(self):
        # the blow-up's form of the law: px and pz left as names, bound here
        # to the numbers law puts in, give the same floats
        k, eps = 3, 0.02
        sys = NormalFormSystem(k=k, epsilon=eps, slow_f=ExprSlowField(("1 + x2", "z")))
        p2 = Theorem2Params(c=[1.0, -0.5], a=[2.0, 3.0], b=4.0)
        p3 = Theorem3Params(K=[5.0, 1.5], chi_star=[-2.0, 0.0])
        env = {"x1": 0.3, "x2": -0.7, "z": -0.4, "px": (1.0 / eps) ** (k / (2 * k - 1)),
               "pz": (1.0 / eps) ** (1.0 / (2 * k - 1))}
        for variant in (OpenLoop(), Thm2(p2), Thm2Plus3(p2, p3)):
            named = [walk(t, env) for t in law(sys, variant, ("px", "pz"))]
            assert named == evaluate(law(sys, variant), [0.3, -0.7], -0.4)
        with pytest.raises(ValueError, match="has no gain powers"):
            law(sys, HighGain(a=[1.0, 1.0], b=1.0), ("px", "pz"))

    def test_variants_are_values(self):
        # equal numbers, however given, make equal records: the loop caches
        # key on them, so they must compare and hash by value
        def pairs():
            yield (Thm2(Theorem2Params(c=[1.0, -0.5], a=[1.0, 2.0], b=3.0)),
                   Thm2(Theorem2Params(c=np.array([1, -0.5]), a=(1, 2), b=3)))
            yield (Thm2Plus3(Theorem2Params(c=[0.0, 0.0], a=[1.0, 2.0], b=3.0),
                             Theorem3Params(K=[10.0, 5.0], chi_star=[-2.0, 0.0])),
                   Thm2Plus3(Theorem2Params(c=[-0.0, 0.0], a=[1.0, 2.0], b=3.0),
                             Theorem3Params(K=np.array([10.0, 5.0]),
                                            chi_star=np.array([-2.0, -0.0]))))
            circuit = TunnelDiodeSystem()
            raw = {**EX1_CONFIGS["u"], "ics": [[0.0, 0.0, 0.0]]}
            yield tuple(build_variant(parse_config(raw), circuit) for _ in range(2))
            yield HighGain(a=(1.0, 2.0), b=3.0), HighGain(a=[1, 2.0], b=3.0)

        for a, b in pairs():
            assert a is not b and a == b and hash(a) == hash(b)
            assert describe(a) == describe(b)
        assert Thm2(P2) != Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.5))

    def test_negative_zero_gains_are_stored_as_zero(self):
        p2 = Theorem2Params(c=[-0.0, 1.0], a=[1.0, 1.0], b=3.0)
        p3 = Theorem3Params(K=[-0.0], chi_star=[-0.0])
        assert [math.copysign(1.0, v) for v in (*p2.c, *p3.K, *p3.chi_star)] == [1.0] * 4
        assert describe(Thm2Plus3(Theorem2Params(c=[-0.0], a=[1.0], b=3.0), p3)) == (
            "thm2+w(a=[1.0], b=3.0, K=[0.0], chi_star=[0.0])")

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
        rhs, _ = build_closed_loop(sys, Thm2(P2))
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
        rhs, ueval = build_closed_loop(sys, Thm2(P2))
        y = [0.3, -0.2]
        k1 = rhs(0.0, np.array(y))
        assert [type(v) for v in k1] == [float, float]
        # rhs.run(f, t, y, k1, h, rtol, atol, max_step, min_step, div_norm,
        #         stride, n_rec, t_final, ball, margin)
        _, states, *_ = rhs.run(None, 0.0, y, k1, 1e-3, 1e-8, 1e-10, 1e-3, 1e-13, 1e6,
                                1e-2, 2, 0.02, 0.0, 1.0)
        assert len(states) == 3
        assert {type(v) for yl in states for v in yl} == {float}
        recorded = []

        def control(t, yl):
            recorded.append(yl)
            return ueval(t, yl)

        traj = integrate(rhs, y, config_for(0.05, 0.1), control=control)
        assert len(recorded) == len(traj) == 11
        assert {type(v) for yl in recorded for v in yl} == {float}

    def test_constants_pi_and_unary_minus(self):
        f = ExprSlowField(exprs=("-x1 + 2 ** 3 * pi - epsilon / z",))
        assert f(np.array([1.0]), 2.0, 0.5) == pytest.approx(
            [-1.0 + 8.0 * np.pi - 0.25], rel=1e-15)

    def test_list_and_array_walk_alike(self):
        # Python floats either way, and the loop's ZeroDivisionError either way
        f = ExprSlowField(exprs=("1 / x1 + z",))
        for x, zero in (([2.0], [0.0]), (np.array([2.0]), np.array([0.0]))):
            assert [type(v) for v in f(x, np.float64(1.0), 0.01)] == [float]
            with pytest.raises(ZeroDivisionError):
                f(zero, 1.0, 0.01)

    @pytest.mark.parametrize("name", ["x1", "x2", "z", "epsilon", "pi"])
    def test_constant_shadowing_a_variable_refused(self, name):
        with pytest.raises(ValueError, match=f"^constant {name} shadows a variable of the drift$"):
            ExprSlowField(exprs=("x1 + z", "x2"), constants={name: 7.0})
        assert ExprSlowField(exprs=("x1 + z", "x2"), constants={"x3": 7.0})

    def test_drift_that_cannot_be_evaluated_at_the_origin(self):
        sys = NormalFormSystem(k=2, epsilon=0.1, slow_f=ExprSlowField(("1 / x1 + z",)))
        with pytest.raises(ValueError) as raised:
            drift_at_origin(sys)
        assert str(raised.value) == ("the drift at the origin cannot be evaluated: "
                                     "float division by zero")


class TestFloatPath:
    """``integrate`` runs a closed loop on its own generated loop, the field
    written inline at every stage; the same rhs behind a plain callable (as
    a benchmark span wrapper presents it) takes the generic loop and the
    array adapter, and both must give the same run bit for bit."""

    @staticmethod
    def _assert_same_run(rhs, ueval, ic, cfg, **kwargs):
        assert callable(rhs.run)
        direct = integrate(rhs, ic, cfg, control=ueval, **kwargs)
        adapted = integrate(lambda t, y: rhs(t, y), ic, cfg,
                            control=lambda t, y: ueval(t, y), **kwargs)
        assert np.array_equal(direct.times, adapted.times)
        assert np.array_equal(direct.states, adapted.states)
        assert np.array_equal(direct.controls, adapted.controls)
        assert direct.outcome == adapted.outcome
        assert direct.stats == adapted.stats
        return direct

    def test_circuit_highgain_segment(self):
        sys = TunnelDiodeSystem(epsilon=0.01)
        rhs, ueval = build_closed_loop(
            sys, HighGain(a=(1.0, 1.0), b=10.0, cancel_constants=True))
        traj = self._assert_same_run(rhs, ueval, EX1_ICS[0], config_for(0.01, 2.0))
        assert len(traj) == 201

    def test_k4_normal_form_with_compensation(self):
        f = ExprSlowField(exprs=("1 + x1 + z", "0.5 * x2 - z * z", "sin(x3) + x1"))
        sys = NormalFormSystem(k=4, epsilon=0.05, slow_f=f)
        variant = Thm2Plus3(Theorem2Params(c=[1.0, 0.0, 0.0], a=[1.0, 1.0, 1.0], b=3.0),
                            Theorem3Params(K=[5.0, 0.0, 0.0], chi_star=[-2.0, 0.0, 0.0]))
        rhs, ueval = build_closed_loop(sys, variant)
        self._assert_same_run(rhs, ueval, [0.1, -0.1, 0.05, 0.2], config_for(0.05, 3.0),
                              stop_ball=1e-3)

    def test_every_generated_loop(self):
        # the 28 (system, variant) pairs of TestGenerated, run freely from a
        # seeded state and stopped early from near the origin
        rng = np.random.default_rng(11)
        n = 0
        for system, _, variants in _loops():
            for variant in variants:
                rhs, ueval = build_closed_loop(system, variant)
                y = rng.uniform(-1.0, 1.0, system.n_slow + 1)
                y[0] = abs(y[0])  # x1 ** 0.5 starts real
                self._assert_same_run(rhs, ueval, y, config_for(system.epsilon, 0.5))
                self._assert_same_run(rhs, ueval, 1e-4 * y, config_for(system.epsilon, 1.2),
                                      stop_ball=1e-3)
                n += 1
        assert n == 28

    def test_failing_fields(self):
        cfg = config_for(0.01, 1.0)

        def loop(expr):
            system = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(exprs=(expr,)))
            return build_closed_loop(system, OpenLoop())

        def raises_on_both_paths(exc, rhs, ueval, ic):
            for r, u in ((rhs, ueval), (lambda t, y: rhs(t, y), lambda t, y: ueval(t, y))):
                with pytest.raises(exc):
                    integrate(r, ic, cfg, control=u, stop_ball=1e-3)

        # the field overflows inside a stage, or already at the state
        rhs, ueval = loop("x1 ** 400")
        assert self._assert_same_run(rhs, ueval, [5.0, 0.0], cfg).outcome.is_diverged
        raises_on_both_paths(OverflowError, rhs, ueval, [10.0, 0.0])
        # numpy's sqrt gives NaN: in the stages that overshoot x1 = -1, where
        # the step is halved and retried, or already at the state
        rhs, ueval = loop("-sqrt(1.0 - x1*x1)")
        assert self._assert_same_run(rhs, ueval, [-0.99, 0.995], cfg).states[-1, 0] == -1.0
        raises_on_both_paths(NonFiniteError, *loop("sqrt(-1.0 - x1*x1)"), [0.5, 0.5])


class TestCellRunner:
    # outcome of each (variant, ic), recorded when planar cells also went
    # through a separate hand-unrolled stepper and both paths agreed on all 27
    ICS = [(-2.0, 2.0), (0.1, 1.0), (0.0, 0.0), (1.5, -1.5), (-3.0, 3.0),
           (0.5, 0.5), (-1.0, -2.0), (2.5, 0.0), (0.0, -2.5)]
    OUTCOMES = [
        (OpenLoop(), "ddddudddd"),
        (Thm2(P2), "cdcdcdddd"),
        (Thm2Plus3(P2, P3), "ccccccccc"),
    ]

    def test_outcomes_match_recorded_table(self):
        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 10.0)
        for variant, codes in self.OUTCOMES:
            runner = CellRunner(system=sys, variant=variant, cfg=cfg)
            got = "".join(runner(ic).kind[0] for ic in self.ICS)
            assert got == codes, describe(variant)

    def test_runner_is_picklable(self):
        runner = CellRunner(
            system=build_planar_example(0.01), variant=Thm2(P2),
            cfg=config_for(0.01, 10.0),
        )
        clone = pickle.loads(pickle.dumps(runner))
        assert clone((0.0, 0.0)).kind == "converged"

    def test_failures_count_as_diverged(self):
        bad = NormalFormSystem(
            k=2, epsilon=0.01,
            slow_f=ExprSlowField(exprs=("sqrt(-1.0 - x1*x1)",)),
        )
        runner = CellRunner(system=bad, variant=OpenLoop(),
                            cfg=config_for(0.01, 1.0))
        assert runner((0.5, 0.5)).is_diverged

    def test_programming_errors_propagate(self, monkeypatch):
        from slowfast.roa import GridSpec, sweep

        def bug(*args, **kwargs):
            raise TypeError("a bug, not a numerical failure")

        monkeypatch.setattr(closedloop, "integrate", bug)
        system = build_planar_example(0.01)
        cfg = config_for(0.01, 1.0)
        runner = CellRunner(system=system, variant=OpenLoop(), cfg=cfg)
        with pytest.raises(TypeError):
            runner((0.5, 0.5))
        grid = GridSpec(x_ranges=((-1.0, 1.0, 2),), z_range=(-1.0, 1.0, 2))
        with pytest.raises(TypeError):
            sweep(system, OpenLoop(), grid, cfg, jobs=1)

    def test_overflow_counts_as_diverged(self):
        blowup = NormalFormSystem(
            k=2, epsilon=0.01, slow_f=ExprSlowField(exprs=("x1 ** 400",)))
        runner = CellRunner(system=blowup, variant=OpenLoop(),
                            cfg=config_for(0.01, 1.0))
        assert runner((10.0, 0.0)).is_diverged


# -- the composition the generated functions replaced, kept as a reference:
# each law a closure over floats, the system a float field (x, z, v) -> list


def _ref_thm2(eps, k, p):
    inv = 1.0 / eps
    pz, px = inv ** (1.0 / (2 * k - 1)), inv ** (k / (2 * k - 1))
    c, a, bz = p.c, p.a, p.b * pz

    def law(x, z):
        u = [-ci - px * ai * xi for ci, ai, xi in zip(c, a, x)]
        u[0] += bz * z
        return u

    return law


def _ref_thm3(k, p):
    terms = tuple(zip(p.K, range(k + 1, 2, -1), p.chi_star))
    return lambda x, z: [Ki * (xi * z + (-z) ** n * chi)
                         for (Ki, n, chi), xi in zip(terms, x)]


def _ref_highgain(a, b, eps, const):
    def law(x, z):
        v = [-ai * xi / eps for ai, xi in zip(a, x)]
        v[0] += b * z / eps
        return [vi - ci for vi, ci in zip(v, const)]

    return law


def _ref_normal_form_field(slow_f, eps):
    def field(x, z, v):
        fx = slow_f(x, z, eps)
        if type(fx) is not list:
            fx = np.asarray(fx, dtype=float).tolist()
        out = [fi + vi for fi, vi in zip(fx, v)]
        s = z
        for xi in reversed(x):
            s = s * z + xi
        out.append(-s / eps)
        return out

    return field


def _ref_circuit_field(L, Cap, eps):
    def field(x, z, v):
        x1, x2 = x
        return [(x2 + z + 4.0) / L + v[0], (16.0 - x1) / Cap + v[1],
                -(3.0 * z * z + x1 + z**3) / eps]

    return field


def _ref_loop(system, variant, slow_f=None):
    """(rhs, ueval) over float lists, composed as before generation."""
    k, m, eps = system.k, system.n_slow, float(system.epsilon)
    if slow_f is None:
        L, Cap = system.constants["L"], system.constants["Cap"]
        field, drift = _ref_circuit_field(L, Cap, eps), system.slow_f
    else:
        field, drift = _ref_normal_form_field(slow_f, eps), slow_f
    if isinstance(variant, OpenLoop):
        law = lambda x, z: [0.0] * m  # noqa: E731
    elif isinstance(variant, HighGain):
        const = (np.asarray(drift([0.0] * m, 0.0, 0.0), dtype=float).tolist()
                 if variant.cancel_constants else [0.0] * m)
        law = _ref_highgain(list(variant.a), variant.b, eps, const)
    elif isinstance(variant, Thm2):
        law = _ref_thm2(eps, k, variant.p)
    else:
        u, w = _ref_thm2(eps, k, variant.p2), _ref_thm3(k, variant.p3)
        law = lambda x, z: [a + b for a, b in zip(u(x, z), w(x, z))]  # noqa: E731
    record = law
    if slow_f is None and isinstance(variant, Thm2):
        def record(x, z):
            v = law(x, z)
            return [L * v[0], -Cap * v[1]]

    def rhs(y):
        *x, z = y
        return field(x, z, law(x, z))

    def ueval(y):
        *x, z = y
        return record(x, z)

    return rhs, ueval


def _old_planar_slow_f(x, z, eps):
    return [1.0 + x[0] + z]


def _cubic_drift(x, z, eps):  # the reference of CUBIC, returning an array
    return np.array([1.0 + x[0] * z - eps, x[1] - z * z])


CUBIC = ExprSlowField(exprs=("1 + x1 * z - epsilon", "x2 - z * z"))


def _variants(m, normal_form=True):
    rng = np.random.default_rng(m)
    p2 = Theorem2Params(c=rng.uniform(-2.0, 2.0, m), a=rng.uniform(0.5, 3.0, m),
                        b=float(rng.uniform(1.0, 5.0)))
    chi = np.zeros(m)
    chi[0] = -2.5
    out = [OpenLoop(), Thm2(p2),
           HighGain(a=tuple(rng.uniform(0.5, 3.0, m).tolist()), b=10.0),
           HighGain(a=(1.0,) * m, b=7.0, cancel_constants=True)]
    if normal_form:
        out.append(Thm2Plus3(p2, Theorem3Params(K=rng.uniform(0.0, 50.0, m), chi_star=chi)))
    return out


def _loops():
    """(system, reference slow_f or None for the circuit, variants): the
    planar fold, both circuits, k = 3 twice and k = 4."""
    k3 = ExprSlowField(exprs=("1 + x1 + z * x2", "sin(z) - x2 ** 3 + epsilon"))
    k4 = ExprSlowField(exprs=("1 + x1 + z", "0.5 * x2 - z * z", "tanh(x3) + x1 ** 0.5"))
    yield build_planar_example(0.01), _old_planar_slow_f, _variants(1)
    for L, Cap in ((1.0, 1.0), (2.0, 0.5)):
        sys = TunnelDiodeSystem(L=L, Cap=Cap, epsilon=0.01)
        yield sys, None, _variants(2, normal_form=False)
    yield NormalFormSystem(k=3, epsilon=0.05, slow_f=k3), k3, _variants(2)
    yield NormalFormSystem(k=4, epsilon=0.02, slow_f=k4), k4, _variants(3)
    yield NormalFormSystem(k=3, epsilon=0.05, slow_f=CUBIC), _cubic_drift, _variants(2)


class TestGenerated:
    def test_equal_to_composed_loop(self):
        rng = np.random.default_rng(2024)
        n = 0
        for system, slow_f, variants in _loops():
            for variant in variants:
                rhs, ueval = build_closed_loop(system, variant)
                ref_rhs, ref_ueval = _ref_loop(system, variant, slow_f)
                for _ in range(300):
                    y = rng.uniform(-3.0, 3.0, system.n_slow + 1)
                    if system.n_slow == 3:
                        y[0] = abs(y[0])  # x1 ** 0.5 stays real
                    yl = y.tolist()
                    want = ref_rhs(yl)
                    assert rhs(0.0, y) == want, (describe(variant), yl)
                    assert ueval(0.0, yl) == ref_ueval(yl)
                    n += 1
        assert n == 300 * 28

    def test_array_wrappers_evaluate_the_same_law(self):
        # the tree walker and the compiled loop compute the same law
        rng = np.random.default_rng(5)
        for k in (2, 3, 4):
            eps = 0.02
            sys = NormalFormSystem(k=k, epsilon=eps,
                                   slow_f=ExprSlowField(exprs=("1 + z",) * (k - 1)))
            for variant in _variants(k - 1)[1:]:
                _, ueval = build_closed_loop(sys, variant)
                for _ in range(50):
                    y = rng.uniform(-3.0, 3.0, k)
                    u = evaluate(law(sys, variant), y[:-1], y[-1])
                    assert u == ueval(0.0, y.tolist())

    def test_globals_are_the_one_scope(self):
        # the field is written inline: no drift callable and no builtin
        # reaches a generated loop, only the scope and the functions defined
        n = 0
        for system, _, variants in _loops():
            for variant in variants:
                rhs, ueval = build_closed_loop(system, variant)
                scope = rhs.run.__globals__
                assert scope is rhs.__globals__ is ueval.__globals__
                assert set(scope) == set(_SCOPE) | {"run", "rhs", "ueval"}
                assert all(scope[name] is value for name, value in _SCOPE.items())
                n += 1
        assert n == 28

    def test_generated_once_per_loop(self):
        code = textwrap.dedent("""
            import slowfast, slowfast.scenarios, slowfast.cli
            from slowfast import closedloop
            assert closedloop.build_closed_loop.cache_info().currsize == 0
            from slowfast.control import Theorem2Params
            from slowfast.sim import config_for
            from slowfast.systems import build_planar_example
            runner = closedloop.CellRunner(
                system=build_planar_example(0.01),
                variant=closedloop.Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.0)),
                cfg=config_for(0.01, 1.0))
            runner((0.5, 0.5))
            runner((-0.5, 0.5))
            info = closedloop.build_closed_loop.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1), info
        """)
        src = os.path.dirname(os.path.dirname(slowfast.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_compiled_loop_is_the_one_field(self):
        # rhs steps exactly the trees of closedloop._field, which the
        # certificate proves: each component walked, compared with ==
        rng = np.random.default_rng(33)
        n = 0
        for system, _, variants in _loops():
            for variant in variants:
                rhs, _ = build_closed_loop(system, variant)
                names, field, _ = closedloop._field(system, variant)
                for _ in range(50):
                    y = rng.uniform(-3.0, 3.0, len(names))
                    y[0] = abs(y[0])  # x1 ** 0.5 stays real
                    env = dict(zip(names, y.tolist()))
                    assert rhs(0.0, y) == [walk(t, env) for t in field], describe(variant)
                n += 1
        assert n == 28

    def test_recorded_control_is_the_walked_trees(self):
        # ueval evaluates exactly the recorded trees of closedloop._field,
        # the slot form of both circuits under Thm2 included: compared with ==
        rng = np.random.default_rng(34)
        n = slot_form = 0
        for system, _, variants in _loops():
            for variant in variants:
                _, ueval = build_closed_loop(system, variant)
                names, _, recorded = closedloop._field(system, variant)
                slot_form += system.slots is not None and isinstance(variant, Thm2)
                for _ in range(50):
                    y = rng.uniform(-3.0, 3.0, len(names))
                    y[0] = abs(y[0])  # x1 ** 0.5 stays real
                    yl = y.tolist()
                    want = [walk(t, dict(zip(names, yl))) for t in recorded]
                    assert ueval(0.0, yl) == want, describe(variant)
                n += 1
        assert (n, slot_form) == (28, 2)

    def test_certificate_reads_the_compiled_jacobian(self):
        # J of the expanded field against central differences of rhs at the
        # origin, step 1e-6: the worst relative error measured was 5e-10
        h, n = 1e-6, 0
        for system, _, variants in _loops():
            for variant in variants:
                names, field, _ = closedloop._field(system, variant)
                try:
                    polys = [poly.expand(t, names) for t in field]
                except poly.NotPolynomial:
                    continue
                _, J, _ = lyapunov._split(polys, len(names))
                rhs, _ = build_closed_loop(system, variant)
                fd = np.transpose([(np.array(rhs(0.0, h * e)) - rhs(0.0, -h * e)) / (2 * h)
                                   for e in np.eye(len(names))])
                assert np.all(np.abs(fd - J) <= 1e-8 * (1.0 + np.abs(J))), describe(variant)
                n += 1
        assert n == 18  # the planar fold, both circuits and the cubic k = 3 drift

    def test_hostile_expression_never_reaches_the_generator(self, monkeypatch):
        hostile = "().__class__.__base__.__subclasses__().__len__()"
        with pytest.raises(ConfigError, match="system.f"):
            parse_config({"system": {"builtin": "custom", "k": 2, "f": [hostile]},
                          "epsilon": 0.01, "controller": {"type": "none"},
                          "ics": [[0.0, 0.0]]})
        # a field that skipped its own check is stopped before compilation
        field = object.__new__(ExprSlowField)
        object.__setattr__(field, "exprs", (hostile,))
        compiled = []
        monkeypatch.setattr(sim, "compile_functions", lambda *args: compiled.append(args))
        with pytest.raises(ValueError, match="allowed"):
            build_closed_loop(NormalFormSystem(k=2, epsilon=0.01, slow_f=field), OpenLoop())
        assert compiled == []
