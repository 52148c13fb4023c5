import numpy as np
import pytest

from slowfast.closedloop import HighGain, Thm2, build_closed_loop, drift_at_origin
from slowfast.control import Theorem2Params
from slowfast.normal_form import State
from slowfast.systems import (
    TunnelDiodeParams,
    build_planar_example,
    build_tunnel_diode,
    diode_fold_points,
)


def example1_controllers(epsilon, a1, a2, b, A1=1.0, A2=1.0, B=10.0,
                         cancel_constants=False):
    """Recorded controls (x1, x2, z) -> list of the two circuit loops of ex1."""
    sys = build_tunnel_diode(TunnelDiodeParams(epsilon=epsilon))
    p = Theorem2Params(c=drift_at_origin(sys), a=[a1, a2], b=b)
    hg = HighGain(a=(A1, A2), b=B, cancel_constants=cancel_constants)
    _, u_eval, _ = build_closed_loop(sys, Thm2(p))
    _, v_eval, _ = build_closed_loop(sys, hg)
    return (lambda x1, x2, z: u_eval(0.0, np.array([x1, x2, z])),
            lambda x1, x2, z: v_eval(0.0, np.array([x1, x2, z])))


class TestFoldPoints:
    def test_values(self):
        folds = diode_fold_points()
        assert folds[0][0] == pytest.approx(2.0, abs=1e-9)
        assert folds[0][1] == pytest.approx(20.0, abs=1e-9)
        assert folds[1][0] == pytest.approx(4.0, abs=1e-9)
        assert folds[1][1] == pytest.approx(16.0, abs=1e-9)

    def test_characteristic_recheck(self):
        # independent polynomial evaluation at the computed voltages
        coeffs = [1.0, -9.0, 24.0, 0.0]
        for v, i in diode_fold_points():
            assert np.polyval(coeffs, v) == pytest.approx(i, abs=1e-9)

    def test_middle_branch_slope(self):
        # dI/dV at V = 3 is negative (unstable branch between the folds)
        assert 3 * 9 - 18 * 3 + 24 == -3

    def test_folds_have_degeneracy_order_two(self):
        sympy = pytest.importorskip("sympy")
        zs = sympy.Symbol("z")
        sys = build_tunnel_diode()
        for v, i in diode_fold_points():
            # translated coordinates of the fold: x1 = 16 - I, z = V - 4
            x1, z0 = 16.0 - i, v - 4.0
            g = -(3 * zs**2 + x1 + zs**3)
            assert float(g.subs(zs, z0)) == pytest.approx(0.0, abs=1e-12)
            assert float(sympy.diff(g, zs).subs(zs, z0)) == pytest.approx(
                0.0, abs=1e-12
            )
            assert float(sympy.diff(g, zs, 2).subs(zs, z0)) != 0.0
            assert sys.fast_g([x1, 0.0], z0) == pytest.approx(0.0, abs=1e-12)


class TestTunnelDiodeSystem:
    def test_translated_origin_is_operating_point(self):
        sys = build_tunnel_diode()
        c = sys.to_circuit([0.0, 0.0, 0.0])
        assert (c.V_C, c.I_L, c.V_D) == (0.0, 16.0, 4.0)

    def test_coordinate_maps_invert(self):
        sys = build_tunnel_diode()
        y = np.array([3.0, -7.0, 1.5])
        c = sys.to_circuit(y)
        assert sys.to_translated(c) == pytest.approx(y)

    def test_open_loop_circuit_equilibrium_unique_at_origin(self):
        sys = build_tunnel_diode()
        # equilibrium: I_L = 0, V_C + V_D = 0, I_D(V_D) = I_L
        # so V_D is a real root of the characteristic; the only real root is 0
        roots = np.roots([1.0, -9.0, 24.0, 0.0])
        real = roots[np.abs(roots.imag) < 1e-12].real
        assert list(real) == [0.0]
        rhs = sys.rhs_circuit(np.zeros(3), np.zeros(2))
        assert rhs == pytest.approx(np.zeros(3))

    def test_fast_field_vanishes_at_translated_origin(self):
        sys = build_tunnel_diode()
        assert sys.fast_g([0.0, 0.0], 0.0) == 0.0

    def test_translated_field_matches_circuit_pushforward(self):
        # x1 = 16 - I_L, x2 = V_C, z = V_D - 4 with controls flipped in sign;
        # this is the resolution of the printed tuple-ordering conflict
        sys = build_tunnel_diode(TunnelDiodeParams(L=2.0, Cap=0.5, epsilon=0.02))
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            y = rng.uniform(-5.0, 5.0, 3)
            u = rng.uniform(-3.0, 3.0, 2)
            circ = sys.to_circuit(y)
            d_circ = sys.rhs_circuit(
                np.array([circ.V_C, circ.I_L, circ.V_D]),
                sys.control_to_circuit(u),
            )
            # pushforward of the affine map: dx1 = -dI_L, dx2 = dV_C, dz = dV_D
            pushed = np.array([-d_circ[1], d_circ[0], d_circ[2]])
            direct = sys.rhs_translated(y, u)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, float(np.max(np.abs(pushed - direct))) / scale)
        assert worst <= 1e-12

    @pytest.mark.parametrize("L, Cap", [(1.0, 1.0), (2.0, 0.5)])
    def test_stabilizer_loop_is_translated_field_of_recorded_slots(self, L, Cap):
        # the merged builder adds v to the drift; fed back through the slots
        # (+u1/L, -u2/Cap), the recorded u must give the same field
        sys = build_tunnel_diode(TunnelDiodeParams(L=L, Cap=Cap, epsilon=0.01))
        p = Theorem2Params(c=drift_at_origin(sys), a=[1.0, 2.0], b=10.0)
        rhs, ueval, _ = build_closed_loop(sys, Thm2(p))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            y = rng.uniform(-5.0, 5.0, 3)
            got = np.asarray(rhs(0.0, y))
            want = sys.rhs_translated(y, ueval(0.0, y))
            if L == Cap == 1.0:
                assert np.array_equal(got, want)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_cubic_expansion_identity(self):
        sympy = pytest.importorskip("sympy")
        z, IL = sympy.symbols("z I_L")
        VD = z + 4
        expanded = sympy.expand(VD**3 - 9 * VD**2 + 24 * VD - IL)
        assert sympy.simplify(
            expanded - (z**3 + 3 * z**2 + 16 - IL)
        ) == 0


class TestExample1Controllers:
    def test_fold_stabilizer_constants_at_origin(self):
        u_eval, v_eval = example1_controllers(0.01, 1.0, 1.0, 10.0)
        assert u_eval(0.0, 0.0, 0.0) == pytest.approx([-4.0, 16.0])
        assert v_eval(0.0, 0.0, 0.0) == pytest.approx([0.0, 0.0])

    def test_fold_stabilizer_worked_example(self):
        u_eval, _ = example1_controllers(0.001, 1.0, 1.0, 10.0)
        u = u_eval(0.01, 0.0, 0.1)
        assert u[0] == pytest.approx(-4.0 - 1.0 + 10.0, rel=1e-12)

    def test_benchmark_with_constants(self):
        _, v_eval = example1_controllers(
            0.01, 1.0, 1.0, 10.0, cancel_constants=True
        )
        assert v_eval(0.0, 0.0, 0.0) == pytest.approx([-4.0, -16.0])

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            example1_controllers(0.0, 1.0, 1.0, 10.0)


class TestPlanarExample:
    def test_drift_at_origin(self):
        sys = build_planar_example(0.05)
        assert sys.slow_f(np.zeros(1), 0.0, 0.0) == pytest.approx([1.0])
        assert sys.k == 2

    def test_fast_nullcline_point(self):
        from slowfast.normal_form import eval_g

        assert eval_g([-1.0], 1.0, 2) == 0.0

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            build_planar_example(0.0)
