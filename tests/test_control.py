import numpy as np
import pytest

from slowfast.blowup import (
    FAMILY,
    FamilyChartState,
    chart_loop,
    compensation_zneg,
    family_law,
    to_family_chart,
)
from slowfast.closedloop import HighGain, Thm2, Thm2Plus3, law
from slowfast.control import (
    Theorem2Params,
    Theorem3Params,
    closed_loop_jacobian_origin,
    eigenvalues_origin,
    evaluate,
    thm2_law,
    thm3_law,
)
from slowfast.normal_form import ExprSlowField, NormalFormSystem, State, walk
from slowfast.poly import render
from slowfast.verification import run_suites


def _planar(eps):
    return NormalFormSystem(k=2, epsilon=eps, slow_f=ExprSlowField(("1 + x1 + z",)))


def _drift(*f0):
    """k = 3 system at eps = 0.01 whose slow drift is the constant f0."""
    return NormalFormSystem(k=3, epsilon=0.01,
                            slow_f=ExprSlowField(tuple(repr(float(v)) for v in f0)))


class TestParams:
    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="a must be > 0"):
            Theorem2Params(c=[0.0], a=[0.0], b=1.0)
        with pytest.raises(ValueError, match="b must be > 0"):
            Theorem2Params(c=[0.0], a=[1.0], b=0.0)

    def test_compensation_target_constraints(self):
        with pytest.raises(ValueError, match="chi_star"):
            Theorem3Params(K=[1.0], chi_star=[-0.5])
        with pytest.raises(ValueError, match="j >= 2"):
            Theorem3Params(K=[1.0, 1.0], chi_star=[-2.0, 0.3])
        # inactive compensation has no target constraint
        Theorem3Params(K=[0.0], chi_star=[0.0])

    def test_negative_compensation_gain_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 0"):
            Theorem3Params(K=[-1.0], chi_star=[-2.0])

    @pytest.mark.parametrize("kwargs", [
        dict(c=[np.nan], a=[1.0], b=1.0),
        dict(c=[0.0], a=[np.inf], b=1.0),
        dict(c=[0.0], a=[1.0], b=np.inf),
    ])
    def test_non_finite_baseline_constant_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            Theorem2Params(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(K=[np.nan], chi_star=[0.5]),
        dict(K=[np.inf], chi_star=[-2.0]),
        dict(K=[0.0], chi_star=[np.nan]),
    ])
    def test_non_finite_compensation_constant_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            Theorem3Params(**kwargs)


class TestThm2Control:
    def test_worked_example(self):
        p = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
        u = evaluate(thm2_law(0.001, 2, p), [0.01], 0.1)
        assert u == pytest.approx([1.0], rel=1e-12)

    def test_origin_cancels_drift_only(self):
        p = Theorem2Params(c=[4.0, 16.0], a=[1.0, 1.0], b=10.0)
        u = evaluate(thm2_law(0.01, 3, p), [0.0, 0.0], 0.0)
        assert u == pytest.approx([-4.0, -16.0])

    def test_unit_epsilon_strips_powers(self):
        p = Theorem2Params(c=[0.0, 0.0], a=[2.0, 5.0], b=1.0)
        u = evaluate(thm2_law(1.0, 3, p), [1.0, 1.0], 1.0)
        assert u == pytest.approx([-1.0, -5.0])

    def test_nonpositive_epsilon_rejected(self):
        p = Theorem2Params(c=[0.0], a=[1.0], b=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            evaluate(thm2_law(0.0, 2, p), [1.0], 0.0)


class TestThm3Compensation:
    def test_worked_example(self):
        p = Theorem3Params(K=[10.0], chi_star=[-2.0])
        w = evaluate(thm3_law(2, p), [1.0], -1.0)
        assert w == pytest.approx([-30.0])

    def test_vanishes_at_z_zero(self):
        p = Theorem3Params(K=[7.0, 3.0], chi_star=[-1.5, 0.0])
        w = evaluate(thm3_law(3, p), [2.0, -4.0], 0.0)
        assert w == pytest.approx([0.0, 0.0])

    @pytest.mark.parametrize("k, gains", [(2, 2), (4, 1)])
    def test_gains_must_number_k_minus_one(self, k, gains):
        p = Theorem3Params(K=[1.0] * gains, chi_star=[-2.0] + [0.0] * (gains - 1))
        with pytest.raises(ValueError, match=f"params sized for k = {gains + 1}, got k = {k}"):
            thm3_law(k, p)
        with pytest.raises(ValueError, match=f"params sized for k = {gains + 1}, got k = {k}"):
            compensation_zneg(k, p)

    def test_zero_gain_reduces_to_baseline(self):
        p2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
        p3 = Theorem3Params(K=[0.0], chi_star=[0.0])
        assert evaluate(law(_planar(0.01), Thm2Plus3(p2, p3)), [0.4], -0.7) == pytest.approx(
            evaluate(thm2_law(0.01, 2, p2), [0.4], -0.7)
        )


class TestFullControl:
    def test_composition_example(self):
        p2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
        p3 = Theorem3Params(K=[10.0], chi_star=[-2.0])
        u = evaluate(law(_planar(0.001), Thm2Plus3(p2, p3)), [1.0], -1.0)
        assert u == pytest.approx([-161.0], rel=1e-12)

    def test_origin_gives_minus_drift(self):
        p2 = Theorem2Params(c=[2.5], a=[1.0], b=3.0)
        p3 = Theorem3Params(K=[10.0], chi_star=[-2.0])
        u = evaluate(law(_planar(0.01), Thm2Plus3(p2, p3)), [0.0], 0.0)
        assert u == pytest.approx([-2.5])


def _chart_controller(c: FamilyChartState, k, p):
    """The derived chart controller (``family_law``) walked at the chart point c."""
    names = [*(f"xb{i}" for i in range(1, k)), "zb", "r"]
    env = dict(zip(names, [*c.x_bar.tolist(), c.z_bar, c.r_bar]))
    return [walk(render(u, names), env) for u in family_law(k, p)]


class TestChartController:
    def test_k2_example(self):
        p = Theorem2Params(c=[0.0], a=[1.0], b=3.0)
        u = _chart_controller(
            FamilyChartState(r_bar=0.7, x_bar=[0.1], z_bar=0.2), 2, p
        )
        assert u == pytest.approx([0.5])

    def test_k3_radial_weighting(self):
        p = Theorem2Params(c=[0.0, 0.0], a=[1.0, 1.0], b=1.0)
        u = _chart_controller(
            FamilyChartState(r_bar=0.5, x_bar=[0.0, 1.0], z_bar=0.0), 3, p
        )
        assert u == pytest.approx([0.0, -2.0])

    def test_singular_on_sphere_for_k3(self):
        p = Theorem2Params(c=[0.0, 0.0], a=[1.0, 1.0], b=1.0)
        assert family_law(3, p)[1][(0, 1, 0, -1)] == -1.0  # -a_2 x_bar_2 / r_bar
        with pytest.raises(ZeroDivisionError):
            _chart_controller(
                FamilyChartState(r_bar=0.0, x_bar=[1.0, 1.0], z_bar=0.0), 3, p
            )

    def test_blow_down_identity_instance(self):
        p = Theorem2Params(c=[0.7], a=[2.0], b=5.0)
        s = State(x=[0.3], z=-0.8)
        eps = 0.02
        direct = evaluate(thm2_law(eps, 2, p), s.x, s.z)
        chart = _chart_controller(to_family_chart(s, eps, 2), 2, p)
        assert chart == pytest.approx(direct, rel=1e-11)


class TestHighGain:
    def test_worked_example(self):
        v = evaluate(law(_planar(0.01), HighGain(a=(1.0,), b=10.0)), [0.1], 0.2)
        assert v == pytest.approx([190.0])

    def test_no_constant_cancellation_by_default(self):
        v = evaluate(law(_drift(4.0, 16.0), HighGain(a=(1.0, 1.0), b=10.0)), [0.0, 0.0], 0.0)
        assert v == pytest.approx([0.0, 0.0])

    def test_second_component_has_no_fast_injection(self):
        v = evaluate(law(_drift(4.0, 16.0), HighGain(a=(1.0, 1.0), b=10.0)), [0.0, 1.0], 0.0)
        assert v == pytest.approx([0.0, -100.0])

    def test_optional_constants(self):
        hg = HighGain(a=(1.0, 1.0), b=10.0, cancel_constants=True)
        v = evaluate(law(_drift(4.0, 16.0), hg), [0.0, 0.0], 0.0)
        assert v == pytest.approx([-4.0, -16.0])

    @pytest.mark.parametrize("a, b", [((1.0,), float("inf")), ((float("inf"),), 10.0),
                                      ((1.0,), float("nan")), ((1.0, -1.0), 10.0)])
    def test_gains_must_be_positive_and_finite(self, a, b):
        with pytest.raises(ValueError, match="positive and finite"):
            HighGain(a=a, b=b)


class TestJacobianAndEigenvalues:
    def test_k2_matrix(self):
        p = Theorem2Params(c=[0.0], a=[1.0], b=3.0)
        J = closed_loop_jacobian_origin(2, p)
        assert J == pytest.approx(np.array([[-1.0, 3.0], [-1.0, 0.0]]))

    def test_k3_matrix(self):
        p = Theorem2Params(c=[0.0, 0.0], a=[1.0, 2.0], b=5.0)
        J = closed_loop_jacobian_origin(3, p)
        expected = np.array([[-1, 0, 5], [0, -2, 0], [-1, 0, 0]], dtype=float)
        assert J == pytest.approx(expected)

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Theorem2Params(c=[0.0], a=[0.0], b=3.0)

    def test_complex_pair(self):
        p = Theorem2Params(c=[0.0], a=[1.0], b=3.0)
        lam = sorted(eigenvalues_origin(2, p), key=lambda v: v.imag)
        assert lam[1] == pytest.approx(-0.5 + 1.6583124j, abs=1e-6)
        assert lam[0] == pytest.approx(-0.5 - 1.6583124j, abs=1e-6)

    def test_real_pair(self):
        p = Theorem2Params(c=[0.0], a=[4.0], b=3.0)
        lam = sorted(eigenvalues_origin(2, p), key=lambda v: v.real)
        assert lam[0] == pytest.approx(-3.0)
        assert lam[1] == pytest.approx(-1.0)

    def test_double_root_and_tail(self):
        p = Theorem2Params(c=[0.0, 0.0, 0.0], a=[2.0, 5.0, 7.0], b=1.0)
        lam = sorted(eigenvalues_origin(4, p), key=lambda v: v.real)
        assert np.allclose(
            sorted(v.real for v in lam), [-7.0, -5.0, -1.0, -1.0]
        )
        assert np.allclose([v.imag for v in lam], 0.0)


class TestClosedLoopFamilyField:
    def test_reduces_to_linear_design_on_sphere(self):
        sys = NormalFormSystem(k=3, epsilon=0.01, slow_f=ExprSlowField(("2", "-1")))
        p = Theorem2Params(c=[2.0, -1.0], a=[1.0, 4.0], b=2.0)
        *dx, dz, dr = chart_loop(sys, Thm2(p), FAMILY)(0.0, np.array([0.5, -0.25, 0.4, 0.0]))
        assert dr == 0.0
        assert dx == pytest.approx([-0.5 + 0.8, 1.0])
        assert dz == pytest.approx(-(0.4**3 + 0.5 + (-0.25) * 0.4))


class TestPropertySuites:
    def test_eigenvalue_certificate(self):
        res = run_suites(seed=3, names=["eigenvalues"])[0]
        assert res.passed, res.line()

    def test_blowdown_identity(self):
        res = run_suites(seed=3, names=["blowdown-identity"])[0]
        assert res.passed, res.line()

    def test_finite_difference_certificate(self):
        res = run_suites(seed=3, names=["jacobian-fd"])[0]
        assert res.passed, res.line()

    def test_compensation_chart_form(self):
        res = run_suites(seed=3, names=["compensation-chart-form"])[0]
        assert res.passed, res.line()

    def test_gain_scale_behavior(self):
        res = run_suites(seed=3, names=["scale-behavior"])[0]
        assert res.passed, res.line()
