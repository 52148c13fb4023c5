from dataclasses import dataclass

import numpy as np
import pytest

from slowfast import closedloop
from slowfast.closedloop import HighGain, OpenLoop, Thm2, build_closed_loop, drift_at_origin
from slowfast.control import Theorem2Params
from slowfast.normal_form import ExprSlowField, NormalFormSystem
from slowfast.scenarios import build_system, build_variant, parse_config
from slowfast.systems import (
    TunnelDiodeSystem,
    build_planar_example,
    diode_current,
    diode_fold_points,
)
from test_closedloop import _ref_circuit_field


# the circuit's physical model, the reference for its translated coordinates


@dataclass(frozen=True)
class CircuitState:
    """Physical circuit variables (volts, amps, volts)."""

    V_C: float
    I_L: float
    V_D: float


def rhs_circuit(system, y: np.ndarray, u_circuit: np.ndarray) -> np.ndarray:
    """Physical-coordinate field of the circuit record ``system``."""
    V_C, I_L, V_D = y
    L, Cap, eps = (system.constants[name] for name in ("L", "Cap", "epsilon"))
    return np.array(
        [
            (I_L + u_circuit[1]) / Cap,
            -(V_C + V_D - u_circuit[0]) / L,
            -(diode_current(V_D) - I_L) / eps,
        ]
    )


def to_translated(c: CircuitState) -> np.ndarray:
    return np.array([16.0 - c.I_L, c.V_C, c.V_D - 4.0])


def to_circuit(y) -> CircuitState:
    x1, x2, z = np.asarray(y, dtype=float)
    return CircuitState(V_C=x2, I_L=16.0 - x1, V_D=z + 4.0)


def control_to_circuit(u) -> np.ndarray:
    """Translated-slot controls map to circuit sources with a sign flip."""
    return -np.asarray(u, dtype=float)


def example1_controllers(epsilon, a1, a2, b, A1=1.0, A2=1.0, B=10.0,
                         cancel_constants=False):
    """Recorded controls (x1, x2, z) -> list of the two circuit loops of ex1."""
    sys = TunnelDiodeSystem(epsilon=epsilon)
    p = Theorem2Params(c=drift_at_origin(sys), a=[a1, a2], b=b)
    hg = HighGain(a=(A1, A2), b=B, cancel_constants=cancel_constants)
    _, u_eval = build_closed_loop(sys, Thm2(p))
    _, v_eval = build_closed_loop(sys, hg)
    return (lambda x1, x2, z: u_eval(0.0, [x1, x2, z]),
            lambda x1, x2, z: v_eval(0.0, [x1, x2, z]))


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
        # at eps = 1 the fast component of the open loop is g itself
        rhs, _ = build_closed_loop(
            TunnelDiodeSystem(epsilon=1.0), OpenLoop())
        for v, i in diode_fold_points():
            # translated coordinates of the fold: x1 = 16 - I, z = V - 4
            x1, z0 = 16.0 - i, v - 4.0
            g = -(3 * zs**2 + x1 + zs**3)
            assert float(g.subs(zs, z0)) == pytest.approx(0.0, abs=1e-12)
            assert float(sympy.diff(g, zs).subs(zs, z0)) == pytest.approx(
                0.0, abs=1e-12
            )
            assert float(sympy.diff(g, zs, 2).subs(zs, z0)) != 0.0
            assert rhs(0.0, np.array([x1, 0.0, z0]))[2] == pytest.approx(0.0, abs=1e-12)


class TestTunnelDiodeSystem:
    def test_translated_origin_is_operating_point(self):
        c = to_circuit([0.0, 0.0, 0.0])
        assert (c.V_C, c.I_L, c.V_D) == (0.0, 16.0, 4.0)

    def test_coordinate_maps_invert(self):
        y = np.array([3.0, -7.0, 1.5])
        c = to_circuit(y)
        assert to_translated(c) == pytest.approx(y)

    def test_open_loop_circuit_equilibrium_unique_at_origin(self):
        sys = TunnelDiodeSystem()
        # equilibrium: I_L = 0, V_C + V_D = 0, I_D(V_D) = I_L
        # so V_D is a real root of the characteristic; the only real root is 0
        roots = np.roots([1.0, -9.0, 24.0, 0.0])
        real = roots[np.abs(roots.imag) < 1e-12].real
        assert list(real) == [0.0]
        rhs = rhs_circuit(sys, np.zeros(3), np.zeros(2))
        assert rhs == pytest.approx(np.zeros(3))

    def test_fast_field_vanishes_at_translated_origin(self):
        sys = TunnelDiodeSystem()
        rhs, _ = build_closed_loop(sys, OpenLoop())
        assert rhs(0.0, np.zeros(3))[2] == 0.0

    def test_translated_field_matches_circuit_pushforward(self):
        # x1 = 16 - I_L, x2 = V_C, z = V_D - 4 with controls flipped in sign;
        # this is the resolution of the printed tuple-ordering conflict
        sys = TunnelDiodeSystem(L=2.0, Cap=0.5, epsilon=0.02)
        rhs, _ = build_closed_loop(sys, OpenLoop())
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            y = rng.uniform(-5.0, 5.0, 3)
            u = rng.uniform(-3.0, 3.0, 2)
            circ = to_circuit(y)
            d_circ = rhs_circuit(
                sys,
                np.array([circ.V_C, circ.I_L, circ.V_D]),
                control_to_circuit(u),
            )
            # pushforward of the affine map: dx1 = -dI_L, dx2 = dV_C, dz = dV_D
            pushed = np.array([-d_circ[1], d_circ[0], d_circ[2]])
            # the open loop plus the slot controls (+u1/L, -u2/Cap)
            f = rhs(0.0, y)
            direct = np.array([f[0] + u[0] / 2.0, f[1] - u[1] / 0.5, f[2]])
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, float(np.max(np.abs(pushed - direct))) / scale)
        assert worst <= 1e-12

    @pytest.mark.parametrize("L, Cap", [(1.0, 1.0), (2.0, 0.5)])
    def test_stabilizer_loop_is_translated_field_of_recorded_slots(self, L, Cap):
        # the merged builder adds v to the drift; fed back through the slots
        # (+u1/L, -u2/Cap), the recorded u must give the same field
        sys = TunnelDiodeSystem(L=L, Cap=Cap, epsilon=0.01)
        p = Theorem2Params(c=drift_at_origin(sys), a=[1.0, 2.0], b=10.0)
        rhs, ueval = build_closed_loop(sys, Thm2(p))
        rng = np.random.default_rng(7)
        for _ in range(1000):
            y = rng.uniform(-5.0, 5.0, 3)
            got = np.asarray(rhs(0.0, y))
            u1, u2 = ueval(0.0, y.tolist())
            *x, z = y.tolist()
            want = _ref_circuit_field(L, Cap, 0.01)(x, z, [u1 / L, -u2 / Cap])
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


class TestOneRecord:
    # (system section, baseline gains a) of each kind of row
    ROWS = {
        "tunnel_diode": ({"builtin": "tunnel_diode", "L": 2.0, "Cap": 0.5}, [1.0, 2.0]),
        "planar": ({"builtin": "planar"}, [1.0]),
        "custom": ({"builtin": "custom", "k": 3, "f": ["1 + x1 + z", "x2 - z * z"]},
                   [1.0, 2.0]),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_configs_built_twice_share_one_loop(self, row):
        section, a = self.ROWS[row]
        raw = {"system": section, "epsilon": 0.01,
               "controller": {"type": "thm2", "a": a, "b": 3.0},
               "ics": [[0.0] * (len(a) + 1)]}
        closedloop.build_closed_loop.cache_clear()
        built = []
        for _ in range(2):
            cfg = parse_config(raw)
            system = build_system(cfg)
            build_closed_loop(system, build_variant(cfg, system))
            built.append(system)
        first, second = built
        assert first is not second and first == second and hash(first) == hash(second)
        info = closedloop.build_closed_loop.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_constants_are_stored_as_floats(self):
        a, b = TunnelDiodeSystem(L=2, Cap=1), TunnelDiodeSystem(L=2.0, Cap=1.0)
        assert a == b and hash(a) == hash(b)
        assert a.slow_f.constants == (("Cap", 1.0), ("L", 2.0))
        assert all(type(v) is float for _, v in a.slow_f.constants)
        assert a.constants == {"Cap": 1.0, "L": 2.0, "epsilon": 0.01}
        with pytest.raises(ValueError, match="must all be > 0"):
            TunnelDiodeSystem(L=0.0)

    def test_every_expression_is_checked_on_construction(self):
        f = ExprSlowField(("x1", "x2"))
        with pytest.raises(ValueError, match="k - 1 = 1"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=f)
        own = "-(z * z + x1) / epsilon"
        assert NormalFormSystem(k=2, epsilon=0.01, slow_f=f, fast=own).n_slow == 2
        with pytest.raises(ValueError, match="fast field: unknown name `x3`"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=f, fast="x3 * z")
        with pytest.raises(ValueError, match="fast field: too many nested parentheses"):
            NormalFormSystem(k=201, epsilon=0.01, slow_f=ExprSlowField(("0",) * 200))
        assert NormalFormSystem(k=200, epsilon=0.01, slow_f=ExprSlowField(("0",) * 199))
        with pytest.raises(ValueError, match="slots must have 2 expressions, got 1"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=f, fast=own, slots=("v1",))
        with pytest.raises(ValueError, match="slot expression 2 .*unknown name `v3`"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=f, fast=own, slots=("v1", "v3"))

    def test_the_normal_form_fast_field_is_the_default(self):
        planar = build_planar_example(0.01)
        assert planar.fast == "-((z) * z + x1) / epsilon"
        assert NormalFormSystem(k=2, epsilon=0.01, slow_f=planar.slow_f,
                                fast=planar.fast) == planar
        assert TunnelDiodeSystem().fast != planar.fast
