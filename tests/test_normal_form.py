import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import normal_form, sim
from slowfast.closedloop import OpenLoop, build_closed_loop
from slowfast.expr import _EXPR_FUNCS, parse_expression, walk
from slowfast.normal_form import (
    ExprSlowField,
    NormalFormSystem,
    State,
    degeneracy_order,
    eval_g,
    eval_rhs_fast,
    eval_rhs_slow,
)


zero_f = ExprSlowField(("0",))
affine_f = ExprSlowField(("1 + x1 + z",))


class TestEvalG:
    def test_k2_point(self):
        assert eval_g([1.0], 2.0, 2) == pytest.approx(-5.0, abs=1e-14)

    def test_origin_on_manifold(self):
        for k in range(2, 7):
            assert eval_g(np.zeros(k - 1), 0.0, k) == 0.0

    def test_k3_point(self):
        assert eval_g([1.0, 2.0], 1.0, 3) == pytest.approx(-4.0, abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            eval_g([1.0, 2.0], 1.0, 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            eval_g([], 1.0, 1)

    def test_negative_derivative_order_rejected(self):
        with pytest.raises(ValueError, match="derivative order must be >= 0"):
            eval_g([1.0], 1.0, 2, -1)


@st.composite
def g_args(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    x = draw(
        st.lists(
            st.floats(-3, 3, allow_nan=False), min_size=k - 1, max_size=k - 1
        )
    )
    z = draw(st.floats(-3, 3, allow_nan=False))
    return np.array(x), z, k


def _term_scale(x, z, k):
    # cancellation-aware scale: tolerances are relative to term magnitudes
    return 1.0 + abs(z) ** k + sum(
        abs(x[i]) * abs(z) ** i for i in range(k - 1)
    )


@given(g_args())
@settings(max_examples=100, deadline=None)
def test_eval_g_matches_horner(args):
    x, z, k = args
    coeffs = np.zeros(k + 1)
    coeffs[: k - 1] = x
    coeffs[k] = 1.0
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * z + c
    assert abs(eval_g(x, z, k) + acc) <= 1e-14 * _term_scale(x, z, k)


@given(g_args(), st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_quasihomogeneous_scaling(args, lam):
    x, z, k = args
    scaled = np.array([lam ** (k - i) * x[i] for i in range(k - 1)])
    lhs = eval_g(scaled, lam * z, k)
    rhs = lam**k * eval_g(x, z, k)
    assert abs(lhs - rhs) <= 1e-11 * lam**k * _term_scale(x, z, k)


class TestRhs:
    def test_fast_open_loop(self):
        sys = NormalFormSystem(k=2, epsilon=0.1, slow_f=zero_f)
        dx, dz = eval_rhs_fast(sys, State(x=[1.0], z=2.0), [0.0])
        assert dx == pytest.approx([0.0])
        assert dz == pytest.approx(-5.0)

    def test_fast_control_enters_additively(self):
        sys = NormalFormSystem(k=2, epsilon=0.1, slow_f=zero_f)
        dx, dz = eval_rhs_fast(sys, State(x=[1.0], z=2.0), [3.0])
        assert dx == pytest.approx([0.3])
        assert dz == pytest.approx(-5.0)

    def test_origin_equilibrium_by_cancellation(self):
        sys = NormalFormSystem(k=3, epsilon=0.1, slow_f=ExprSlowField(("2", "-1")))
        dx, dz = eval_rhs_fast(
            sys, State(x=[0.0, 0.0], z=0.0), [-2.0, 1.0]
        )
        assert np.all(dx == 0.0)
        assert dz == 0.0

    def test_slow_time_values(self):
        sys = NormalFormSystem(k=2, epsilon=0.01, slow_f=zero_f)
        dx, dz = eval_rhs_slow(sys, State(x=[1.0], z=2.0), [0.0])
        assert dx == pytest.approx([0.0])
        assert dz == pytest.approx(-500.0)

    def test_slow_equals_fast_over_epsilon(self):
        sys = NormalFormSystem(k=4, epsilon=0.05,
                               slow_f=ExprSlowField(("x1 + z", "x2 + z", "x3 + z")))
        s = State(x=[0.3, -0.7, 1.1], z=0.4)
        u = [0.1, 0.2, -0.3]
        dxf, dzf = eval_rhs_fast(sys, s, u)
        dxs, dzs = eval_rhs_slow(sys, s, u)
        assert dxs == pytest.approx(dxf / 0.05, rel=1e-14)
        assert dzs == pytest.approx(dzf / 0.05, rel=1e-14)

    def test_planar_origin_with_cancelling_control(self):
        sys = NormalFormSystem(k=2, epsilon=0.05, slow_f=affine_f)
        dx, dz = eval_rhs_slow(sys, State(x=[0.0], z=0.0), [-1.0])
        assert dx == pytest.approx([0.0])
        assert dz == 0.0

    def test_epsilon_zero_rejected_in_slow_time(self):
        with pytest.raises(ValueError, match="epsilon"):
            sys = NormalFormSystem(k=2, epsilon=0.0, slow_f=zero_f)
            eval_rhs_slow(sys, State(x=[1.0], z=0.0), [0.0])

    def test_non_finite_evaluator_signalled(self):
        sys = NormalFormSystem(k=2, epsilon=0.1, slow_f=ExprSlowField(("1e308 * 10 * x1",)))
        with pytest.raises(ValueError, match=r"the drift at x=\[1.0\], z=0.0 must be finite"):
            eval_rhs_fast(sys, State(x=[1.0], z=0.0), [0.0])

    def test_drift_that_cannot_be_evaluated_names_the_point(self):
        # the rule drift_at_origin shares: an ArithmeticError becomes a ValueError
        sys = NormalFormSystem(k=2, epsilon=0.1, slow_f=ExprSlowField(("1 / x1 + z",)))
        with pytest.raises(ValueError) as raised:
            eval_rhs_fast(sys, State(x=[0.0], z=0.5), [0.0])
        assert str(raised.value) == ("the drift at x=[0.0], z=0.5 cannot be evaluated: "
                                     "float division by zero")

    @pytest.mark.parametrize("field", [eval_rhs_fast, eval_rhs_slow])
    def test_row_with_its_own_fast_field_refused(self, field):
        from slowfast.systems import TunnelDiodeSystem

        with pytest.raises(ValueError, match=r"own fast field, '-\(3 \* z \* z \+ x1 \+ z \*\* 3\)"):
            field(TunnelDiodeSystem(), State(x=[0.0, 0.0], z=0.0), [0.0, 0.0])


class TestDegeneracyOrder:
    def test_origin_has_full_order(self):
        for k in range(2, 7):
            assert degeneracy_order(np.zeros(k - 1), 0.0, k) == k

    def test_normally_hyperbolic_point(self):
        # g = -(z^2 + x) vanishes at (-1, 1) with dg/dz = -2 != 0
        assert degeneracy_order([-1.0], 1.0, 2) == 1

    def test_fold_point_on_cubic(self):
        # derived with the sympy oracle below: order 2 at (x, z) = ([2, -3], 1)
        assert degeneracy_order([2.0, -3.0], 1.0, 3) == 2

    def test_matches_symbolic_derivatives(self):
        sympy = pytest.importorskip("sympy")
        zs = sympy.Symbol("z")
        x = [2.0, -3.0]
        g = -(zs**3 + x[0] + x[1] * zs)
        orders = []
        expr = g
        for m in range(1, 4):
            expr = sympy.diff(expr, zs)
            orders.append(float(expr.subs(zs, 1.0)))
        assert orders[0] == 0.0 and orders[1] != 0.0
        for m in range(0, 4):
            assert eval_g(x, 1.0, 3, m) == pytest.approx(
                float(sympy.diff(g, zs, m).subs(zs, 1.0)), rel=1e-12, abs=1e-12
            )

    def test_off_manifold_rejected(self):
        with pytest.raises(ValueError, match="off the critical manifold"):
            degeneracy_order([1.0], 1.0, 2)

    @pytest.mark.parametrize("x, z", [([np.nan], 0.0), ([0.0], np.nan), ([np.inf], 0.0)])
    def test_non_finite_point_rejected(self, x, z):
        with pytest.raises(ValueError, match="finite"):
            degeneracy_order(x, z, 2)

    def test_nan_residual_is_off_the_manifold(self, monkeypatch):
        monkeypatch.setattr(normal_form, "_g_terms", lambda x, z, k, m: (np.nan, 1.0))
        with pytest.raises(ValueError, match="off the critical manifold"):
            degeneracy_order([0.0], 0.0, 2)

    @pytest.mark.parametrize("x, z", [([-1e12], 1e6), ([-1e150], 1e75)])
    def test_large_hyperbolic_point(self, x, z):
        # dg/dz = -2z, however large the point: the scale is dg/dz's own term
        assert degeneracy_order(x, z, 2) == 1

    def test_large_residual_is_off_the_manifold(self):
        # |g| = 2e24 against terms summing to 4e24
        with pytest.raises(ValueError, match="off the critical manifold"):
            degeneracy_order([3e8, -3e16], 1e8, 3)

    def test_overflowing_terms_are_off_the_manifold(self):
        # x_2 z = -1e310 overflows, so |g| and its term sum are both inf
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="off the critical"):
            degeneracy_order([1e300, -1e300], 1e10, 3)

    def test_overflowing_z_term_is_off_the_manifold(self):
        # z^2 = 1e320 passes the largest float, as an overflowing x-term does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, z in (([-1e300], 1e160), ([0.0], -1e160)):
                with pytest.raises(ValueError,
                                   match="off the critical manifold: a term of g overflows"):
                    degeneracy_order(x, z, 2)
                assert eval_g(x, z, 2) == -np.inf
            assert eval_g([0.0, 0.0], -1e160, 3) == np.inf  # an odd power keeps z's sign

    def test_huge_point_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert degeneracy_order([-1e200], 1e100, 2) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_order_invariant_under_weighted_scaling(self, k):
        # z^k + sum_i x_i z^(i-1) = (z - (k-m))^m (z + m)^(k-m): integer
        # roots summing to 0, so the point (x, k - m) of S has order m; each
        # scaling (x_i, z) -> (lam^(k-i+1) x_i, lam z) with lam = 2^j is exact
        for m in range(1, k + 1):
            x = np.poly([k - m] * m + [-m] * (k - m))[:1:-1]
            for j in range(-60, 61):
                lam = 2.0**j
                xs = [lam ** (k - i) * xi for i, xi in enumerate(x)]
                assert degeneracy_order(xs, lam * (k - m), k) == m, (m, j)


class TestValidate:
    def test_k_too_small(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError, match="k must be an integer >= 2"):
                NormalFormSystem(k=k, epsilon=0.01, slow_f=zero_f)

    @pytest.mark.parametrize("k", [2.0, True, "2", None])
    def test_k_not_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            NormalFormSystem(k=k, epsilon=0.01, slow_f=zero_f)

    def test_wrong_evaluator_dimension(self):
        # one expression short and one too many are both refused on construction
        with pytest.raises(ValueError, match="2 expression"):
            NormalFormSystem(k=3, epsilon=0.01, slow_f=affine_f)
        with pytest.raises(ValueError, match="1 expression"):
            NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + x1", "log(-1)")))
        assert NormalFormSystem(k=np.int64(3), epsilon=0.01,
                                slow_f=ExprSlowField(("x1", "x2"))).n_slow == 2

    def test_drift_must_be_expressions(self):
        for slow_f in (lambda x, z, e: [1.0 + x[0] + z], ("1 + x1 + z",), None):
            with pytest.raises(ValueError, match="ExprSlowField"):
                NormalFormSystem(k=2, epsilon=0.01, slow_f=slow_f)

    @pytest.mark.parametrize("eps", [0.0, -0.01, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        # such a record would run: a cell from [0.1, 0.1] read diverged at
        # t = 0 (0, NaN) or t = 0.038 (-0.01), and undecided (inf)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            NormalFormSystem(k=2, epsilon=eps, slow_f=affine_f)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_constants_must_be_finite(self, value):
        with pytest.raises(ValueError, match="constant L must be finite"):
            ExprSlowField(("x1 * L",), {"L": value})

    @pytest.mark.parametrize("src, bound", [
        ("x1 / 0", {}), ("x1 / -0.0", {}), ("x1 / L", {"L": 0.0}), ("z / +(-0)", {}),
    ])
    def test_division_by_the_constant_zero_refused(self, src, bound):
        with pytest.raises(ValueError, match="division by the constant 0"):
            parse_expression(src, {"x1": "x1", "z": "z", **bound})
        with pytest.raises(ValueError, match="division by the constant 0"):
            ExprSlowField((src,), bound)

    def test_divisor_zero_only_at_run_time_is_numerical(self):
        tree = parse_expression("z / (x1 - x1)", {"x1": "x1", "z": "z"})
        with pytest.raises(ZeroDivisionError):
            walk(tree, {"x1": 1.0, "z": 1.0})
        assert walk(parse_expression("x1 / L", {"x1": "x1", "L": -2.0}), {"x1": 1.0}) == -0.5


# each expression is walked, and compiled as the reference, on seeded
# states: every grammar function, non-integral powers (NaN for a negative
# base), sqrt(-1), overflow and a division by zero
WALKED = [f"{fn}(x1 * z + x2) - epsilon * pi" for fn in _EXPR_FUNCS] + [
    "x1 ** 1.5 + x2 ** z - -x1 + +z",
    "x2 ** z",
    "sqrt(-1) + x1",
    "x1 ** 400",
    "exp(800) * x2",
    "z / (x1 - x1)",
]


def _compiled_drift(exprs):
    """The drift's checked trees compiled into one function (x, z, epsilon)."""
    trees = {f"_e{i}": tree for i, tree in enumerate(normal_form._drift_trees(exprs))}
    names = ", ".join(f"x{i}" for i in range(1, len(exprs) + 1))
    src = f"def slow_f(x, z, epsilon):\n    {names}, = x\n    return [{', '.join(trees)}]\n"
    return sim.compile_functions(src, trees)["slow_f"]


def _outcome(fn, *args):
    """(type, value) of each returned entry, or of the error raised."""
    try:
        return [(type(v), v) for v in fn(*args)]
    except ArithmeticError as exc:
        return [(type(exc), str(exc))]


def _same(got, want) -> bool:
    """Two outcomes agree: the same types, and equal values or both NaN."""
    return len(got) == len(want) and all(
        t_got is t_want and (v_got == v_want or v_got != v_got and v_want != v_want)
        for (t_got, v_got), (t_want, v_want) in zip(got, want))


def _terms(m: int):
    """One term c * v ** p * w of a polynomial drift in x1..xm, z and epsilon."""
    names = st.sampled_from([*(f"x{i}" for i in range(1, m + 1)), "z", "epsilon"])
    return st.builds("{!r} * {} ** {} * {}".format,
                     st.floats(-4.0, 4.0), names, st.integers(0, 5), names)


@st.composite
def _drift_and_state(draw):
    m = draw(st.integers(1, 3))
    drift = tuple(" + ".join(draw(st.lists(_terms(m), min_size=1, max_size=3)))
                  for _ in range(m))
    # a state up to 1e100 overflows a fifth power: the loop raises OverflowError there
    value = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e100, 1e100), st.just(0.0))
    return drift, draw(st.lists(value, min_size=m + 1, max_size=m + 1))


class TestWalker:
    @pytest.mark.parametrize("expr", WALKED)
    def test_walked_drift_is_the_compiled_drift(self, expr):
        # a list and an array walk alike: as the compiled drift on Python floats
        exprs = (expr, "x2")
        walked, compiled = normal_form.ExprSlowField(exprs), _compiled_drift(exprs)
        rng = np.random.default_rng(11)
        seen = set()
        with np.errstate(all="ignore"):
            for _ in range(20):
                y = rng.uniform(-8.0, 8.0, 3)
                want = _outcome(compiled, y[:2].tolist(), float(y[2]), 0.01)
                for args in ((y[:2].tolist(), float(y[2]), 0.01), (y[:2], y[2], 0.01)):
                    assert _same(_outcome(walked, *args), want), (expr, args)
                seen.add(want[0][0])
        if expr == "x1 ** 400":
            assert seen == {OverflowError, float}
        if expr == "z / (x1 - x1)":
            assert seen == {ZeroDivisionError}

    @settings(max_examples=60, deadline=None)
    @given(_drift_and_state())
    def test_walked_drift_is_the_stepped_drift(self, case):
        # slow_f walks what the open loop's rhs steps, for a list or an array x
        drift, y = case
        m = len(drift)
        system = NormalFormSystem(k=m + 1, epsilon=0.05, slow_f=ExprSlowField(drift))
        rhs, _ = build_closed_loop(system, OpenLoop())
        want = _outcome(lambda: rhs(0.0, np.array(y))[:m])
        for x in (y[:m], np.array(y[:m])):
            assert _same(_outcome(system.slow_f, x, y[m], system.epsilon), want), (drift, y)

    def test_walked_law_is_the_compiled_law(self):
        tree = parse_expression("-c - a * x + tanh(z) ** 2.5",
                                {"c": 1.0, "a": 2.0, "x": "x1", "z": "z"})
        compiled = sim.compile_functions("def u(x1, z):\n    return _t\n", {"_t": tree})["u"]
        rng = np.random.default_rng(3)
        with np.errstate(all="ignore"):
            for x1, z in rng.uniform(-3.0, 3.0, (50, 2)).tolist():
                want = compiled(x1, z)
                got = walk(tree, {"x1": x1, "z": z})
                assert type(got) is type(want)
                assert got == want or (got != got and want != want)
