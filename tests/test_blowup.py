import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.blowup import (
    FAMILY,
    ZNEG,
    DirectionalChartState,
    FamilyChartState,
    chart_field,
    chart_loop,
    compensation_zneg,
    family_time_rescale,
    from_directional_zneg,
    from_family_chart,
    to_directional_zneg,
    to_family_chart,
)
from slowfast.closedloop import HighGain, OpenLoop, Thm2, Thm2Plus3, build_closed_loop, law
from slowfast.control import Theorem2Params, Theorem3Params, evaluate
from slowfast.normal_form import ExprSlowField, NormalFormSystem, State
from slowfast.sim import IntegratorConfig, integrate
from slowfast.systems import TunnelDiodeSystem


zero_f = ExprSlowField(("0",))


def _zneg_at(c, sys, variant):
    """(rho', chi', r_bar') of the z < 0 chart loop at the chart point ``c``,
    at r_bar = rho mu^(1/(2k-1)); r_bar' = 0 is mu' = -(2k-1) mu rho' / rho."""
    r_bar = c.rho * c.mu ** (1.0 / (2 * sys.k - 1))
    *dchi, drho, dr = chart_loop(sys, variant, ZNEG)(0.0, np.array([*c.chi, c.rho, r_bar]))
    return drho, np.array(dchi), dr


class TestFamilyChart:
    def test_exact_powers(self):
        c = to_family_chart(State(x=[0.02], z=0.05), 0.001, 2)
        assert c.r_bar == pytest.approx(0.1, rel=1e-12)
        assert c.x_bar == pytest.approx([2.0], rel=1e-12)
        assert c.z_bar == pytest.approx(0.5, rel=1e-12)

    def test_identity_at_epsilon_one(self):
        c = to_family_chart(State(x=[3.0], z=-1.0), 1.0, 2)
        assert c.r_bar == pytest.approx(1.0)
        assert c.x_bar == pytest.approx([3.0])
        assert c.z_bar == pytest.approx(-1.0)

    def test_k3_quarter_radius(self):
        eps = 0.25**5
        x = [1e-3, 2e-3]
        c = to_family_chart(State(x=x, z=0.5), eps, 3)
        assert c.r_bar == pytest.approx(0.25, rel=1e-12)
        assert c.x_bar == pytest.approx(
            [x[0] * 4**3, x[1] * 4**2], rel=1e-12
        )

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            to_family_chart(State(x=[1.0], z=0.0), 0.0, 2)
        # an infinite epsilon would blow up to r_bar = inf
        with pytest.raises(ValueError, match="finite epsilon > 0, got inf"):
            to_family_chart(State(x=[1.0], z=0.0), float("inf"), 2)
        # the other chart maps refuse a non-finite epsilon by name as well
        with pytest.raises(ValueError, match="epsilon must be finite and > 0, got inf"):
            family_time_rescale(float("inf"), 2)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0, got nan"):
            to_directional_zneg(State(x=[1.0], z=-1.0), float("nan"), 2)

    @pytest.mark.parametrize("r_bar", [-0.5, float("nan"), float("inf")])
    def test_invalid_r_bar_rejected(self, r_bar):
        # eps = r_bar^(2k-1) would blow down negative or not finite
        with pytest.raises(ValueError, match="r_bar must be finite and >= 0"):
            FamilyChartState(r_bar=r_bar, x_bar=[1.0], z_bar=0.5)

    def test_blow_down_examples(self):
        s, eps = from_family_chart(
            FamilyChartState(r_bar=0.5, x_bar=[4.0], z_bar=-2.0), 2
        )
        assert s.x == pytest.approx([1.0])
        assert s.z == pytest.approx(-1.0)
        assert eps == pytest.approx(0.125)

    def test_sphere_blows_down_to_origin(self):
        s, eps = from_family_chart(
            FamilyChartState(r_bar=0.0, x_bar=[7.0, -2.0], z_bar=3.0), 3
        )
        assert np.all(s.x == 0.0) and s.z == 0.0 and eps == 0.0


class TestDirectionalChart:
    def test_power_substitution(self):
        c = to_directional_zneg(State(x=[0.25], z=-0.5), 1e-3, 2)
        assert c.rho == pytest.approx(0.5)
        assert c.chi == pytest.approx([1.0])
        assert c.mu == pytest.approx(8e-3, rel=1e-12)

    def test_epsilon_zero_slice(self):
        c = to_directional_zneg(State(x=[0.0], z=-1.0), 0.0, 2)
        assert (c.rho, c.chi[0], c.mu) == (1.0, 0.0, 0.0)

    def test_k3_integer_point(self):
        c = to_directional_zneg(State(x=[-8.0, 4.0], z=-2.0), 32.0, 3)
        assert c.rho == pytest.approx(2.0)
        assert c.chi == pytest.approx([-1.0, 1.0])
        assert c.mu == pytest.approx(1.0)

    def test_nonnegative_z_rejected(self):
        with pytest.raises(ValueError, match="z < 0"):
            to_directional_zneg(State(x=[1.0], z=0.0), 0.1, 2)

    def test_roundtrips(self):
        for x, z, eps, k in [
            ([0.25], -0.5, 1e-3, 2),
            ([0.0], -1.0, 0.0, 2),
            ([-8.0, 4.0], -2.0, 32.0, 3),
        ]:
            c = to_directional_zneg(State(x=x, z=z), eps, k)
            s, eps_back = from_directional_zneg(c, k)
            assert s.x == pytest.approx(x, rel=1e-12)
            assert s.z == pytest.approx(z, rel=1e-12)
            assert eps_back == pytest.approx(eps, rel=1e-12, abs=1e-15)

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            DirectionalChartState(rho=0.0, chi=[1.0], mu=0.1)
        with pytest.raises(ValueError, match="rho must be finite and > 0, got inf"):
            DirectionalChartState(rho=float("inf"), chi=[1.0], mu=0.1)

    @pytest.mark.parametrize("mu", [-1e-300, -0.5, float("nan"), float("inf")])
    def test_invalid_mu_rejected(self, mu):
        # eps = rho^(2k-1) mu would blow down negative or not finite
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            DirectionalChartState(rho=0.5, chi=[1.0], mu=mu)


@st.composite
def chart_points(draw):
    k = draw(st.integers(2, 6))
    x = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=k - 1,
                      max_size=k - 1))
    z = draw(st.floats(-2, 2, allow_nan=False))
    eps = draw(st.floats(1e-6, 1.0, allow_nan=False))
    return np.array(x), z, eps, k


@given(chart_points())
@settings(max_examples=100, deadline=None)
def test_family_roundtrip_property(args):
    x, z, eps, k = args
    s, eps_back = from_family_chart(to_family_chart(State(x=x, z=z), eps, k), k)
    scale = max(1.0, float(np.max(np.abs(x), initial=abs(z))))
    assert np.max(np.abs(s.x - x)) <= 1e-12 * scale
    assert abs(s.z - z) <= 1e-12 * scale
    assert abs(eps_back - eps) <= 1e-12


@given(chart_points())
@settings(max_examples=100, deadline=None)
def test_charts_blow_down_to_same_point(args):
    x, z, eps, k = args
    z = -abs(z) - 0.05
    s = State(x=x, z=z)
    a, eps_a = from_family_chart(to_family_chart(s, eps, k), k)
    b, eps_b = from_directional_zneg(to_directional_zneg(s, eps, k), k)
    scale = max(1.0, float(np.max(np.abs(x), initial=abs(z))))
    assert np.max(np.abs(a.x - b.x)) <= 1e-12 * scale
    assert abs(a.z - b.z) <= 1e-12 * scale
    assert abs(eps_a - eps_b) <= 1e-12 * scale


def _affine_drift(rng, m):
    """Slow drift c + A x + l z + e epsilon with seeded coefficients."""
    return ExprSlowField(tuple(
        " + ".join([repr(rng.uniform(-2, 2)),
                    *(f"{rng.uniform(-1, 1)!r} * x{j}" for j in range(1, m + 1)),
                    f"{rng.uniform(-1, 1)!r} * z", f"{rng.uniform(-1, 1)!r} * epsilon"])
        for _ in range(m)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_closed_loop_family_field_is_the_pushed_slow_time_loop(k):
    # The compiled slow-time loop at the blown-down point, pushed into the
    # chart: x_bar_i' = r_bar^(i-1) dx_i/dt and z_bar' = r_bar^(k-1) dz/dt.
    # Over 2000 samples per k the worst error relative to max(1, |field|)
    # was 3.1e-15, so 1e-13 leaves a margin of 30 for rounding alone.
    rng = np.random.default_rng(k)
    for _ in range(20):
        eps = rng.uniform(1e-3, 0.1)
        sys = NormalFormSystem(k=k, epsilon=eps, slow_f=_affine_drift(rng, k - 1))
        p = Theorem2Params(c=sys.slow_f(np.zeros(k - 1), 0.0, 0.0),
                           a=rng.uniform(0.1, 10.0, k - 1), b=rng.uniform(0.1, 10.0))
        r = eps ** (1.0 / (2 * k - 1))
        x_bar, z_bar = rng.uniform(-2, 2, k - 1), rng.uniform(-2, 2)
        *chart, dr = chart_loop(sys, Thm2(p), FAMILY)(0.0, np.array([*x_bar, z_bar, r]))
        assert dr == 0.0
        y = [r ** (k - i) * x_bar[i] for i in range(k - 1)] + [r * z_bar]
        dy = build_closed_loop(sys, Thm2(p))[0](0.0, np.array(y))
        pushed = np.array([r**i * dy[i] for i in range(k - 1)] + [r ** (k - 1) * dy[-1]])
        assert np.max(np.abs(pushed - chart)) <= 1e-13 * max(1.0, np.max(np.abs(chart)))


class TestFamilyLoop:
    """Each chart's field generated as a closed loop on (v_1..v_m, w, r_bar),
    with r_bar' = 0, by the builder of the slow-time loops: the baseline law
    in the family chart, the compensated one in the z < 0 chart."""

    @staticmethod
    def _loop(k, chart=FAMILY):
        rng = np.random.default_rng(40 + k)
        sys = NormalFormSystem(k=k, epsilon=0.01, slow_f=_affine_drift(rng, k - 1))
        p = Theorem2Params(c=sys.slow_f(np.zeros(k - 1), 0.0, 0.0),
                           a=rng.uniform(0.5, 5.0, k - 1), b=rng.uniform(0.5, 5.0))
        if chart is ZNEG:
            return sys, Thm2Plus3(p, Theorem3Params(K=[5.0] * (k - 1),
                                                    chi_star=[-2.0] + [0.0] * (k - 2))), rng
        return sys, Thm2(p), rng

    @pytest.mark.parametrize("chart, k, stops", [
        (FAMILY, 2, {"dwell", "t_final"}), (FAMILY, 3, {"dwell", "t_final"}),
        (FAMILY, 4, {"dwell", "t_final"}), (ZNEG, 2, {"dwell", "t_final", "norm"}),
        (ZNEG, 3, {"t_final", "norm"}), (ZNEG, 4, {"dwell", "t_final"})],
        ids=["2", "3", "4", "zneg-2", "zneg-3", "zneg-4"])
    def test_steps_like_the_generic_loop(self, chart, k, stops):
        # its own loop and, behind a plain callable, the generic one give the
        # same run bit for bit; r_bar is the same float at every record. In
        # the z < 0 chart w is rho, drawn in [scale / 2, scale]; at odd k
        # rho' = rho F with F(0) = -1, so near chi = 0 rho decays and chi
        # grows, and nothing dwells. Where rho decays under eps > 0 that
        # chart is stiff (a k = 3 run at r_bar = 0.01^(1/5) took millions
        # of steps), so its middle radius is 0.3
        sys, variant, rng = self._loop(k, chart)
        rhs = chart_loop(sys, variant, chart)
        assert callable(rhs.run)
        cfg = IntegratorConfig(t_final=3.0, max_step=1e-2, record_stride=0.05)
        reasons = set()
        middle = 0.01 ** (1 / (2 * k - 1)) if chart is FAMILY else 0.3
        for r_bar, scale, ball in ((0.0, 1e-4, 1e-3), (0.0, 1.0, None), (middle, 1.0, None),
                                   (0.9, 1.0, None)):
            y = [*(scale * rng.uniform(-1.0, 1.0, k)), r_bar]
            if chart is ZNEG:
                y[k - 1] = scale * (0.5 + abs(y[k - 1]) / 2)
            direct = integrate(rhs, y, cfg, stop_ball=ball)
            generic = integrate(lambda t, v: rhs(t, v), y, cfg, stop_ball=ball)
            assert np.array_equal(direct.times, generic.times)
            assert np.array_equal(direct.states, generic.states)
            assert direct.outcome == generic.outcome and direct.stats == generic.stats
            assert all(v == r_bar for v in direct.states[:, -1].tolist())
            reasons.add(direct.stats.reason)
        assert reasons == stops


def _hand_law(variant, x, z, r):
    """The law of ``variant`` written out, with its gain powers
    eps^(-k/(2k-1)) = r^-k and eps^(-1/(2k-1)) = r^-1: 0, or the baseline
    -c_i - a_i r^-k x_i (+ b r^-1 z) plus, compensated, K_i (x_i z +
    (-z)^(k-i+2) chi*_i)."""
    k = len(x) + 1
    if isinstance(variant, OpenLoop):
        return [0] * (k - 1)
    p = variant.p if isinstance(variant, Thm2) else variant.p2
    u = [-c - a * r ** -k * xi for c, a, xi in zip(p.c, p.a, x)]
    u[0] += p.b / r * z
    if isinstance(variant, Thm2Plus3):
        u = [ui + K * (xi * z + (-z) ** (k - i + 1) * cs)
             for i, (ui, K, xi, cs) in enumerate(zip(u, variant.p3.K, x, variant.p3.chi_star))]
    return u


def _oracle_family_field(sympy, sys, variant):
    """f + v and g / eps of the slow-time loop of ``variant``, blown down by
    sympy and scaled into the family chart, as {exponents: coefficient} in
    (x_bar_1..x_bar_m, z_bar, r_bar)."""
    k = sys.k
    xb, (zb, r) = sympy.symbols(f"xb1:{k}"), sympy.symbols("zb r")
    x = [r ** (k - i) * xb[i] for i in range(k - 1)]
    eps = r ** (2 * k - 1)
    env = {f"x{i}": xi for i, xi in enumerate(x, 1)}
    env.update(z=r * zb, epsilon=eps, **dict(sys.slow_f.constants))
    f = [sympy.sympify(src, locals=env) for src in sys.drift]
    u = _hand_law(variant, x, r * zb, r)
    g = -((r * zb) ** k + sum(xi * (r * zb) ** i for i, xi in enumerate(x)))
    field = [r ** k / r ** (k - i) * (fi + ui) for i, (fi, ui) in enumerate(zip(f, u))]
    field.append(r ** k / r * g / eps)
    return [{m: float(c) for m, c in sympy.Poly(sympy.expand(q), *xb, zb, r).terms()}
            for q in field]


def _agree(derived, oracle):
    for d, o in zip(derived, oracle, strict=True):
        for e in {*d, *o}:
            want = o.get(e, 0.0)
            assert abs(d.get(e, 0.0) - want) <= 1e-14 * max(1.0, abs(want)), (e, d, o)


@pytest.mark.parametrize("kind, k", [
    (Thm2, None), (Thm2, 2), (Thm2, 3), (Thm2, 4), (Thm2, 5), (OpenLoop, 3),
    (Thm2Plus3, 2), (Thm2Plus3, 3), (Thm2Plus3, 4), (Thm2Plus3, 5)],
    ids=["planar-fold", "2", "3", "4", "5", "openloop-3", "thm2plus3-2", "thm2plus3-3",
         "thm2plus3-4", "thm2plus3-5"])
def test_family_field_matches_symbolic_blow_down(kind, k):
    # the planar fold, then a seeded affine drift at each k
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(k or 0)
    if k is None:
        k, sys = 2, NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + x1 + z",)))
    else:
        sys = NormalFormSystem(k=k, epsilon=0.01, slow_f=_affine_drift(rng, k - 1))
    p = Theorem2Params(c=rng.uniform(-2, 2, k - 1), a=rng.uniform(0.1, 10.0, k - 1),
                       b=rng.uniform(0.1, 10.0))
    variant = {OpenLoop: OpenLoop(), Thm2: Thm2(p), Thm2Plus3: Thm2Plus3(p, Theorem3Params(
        K=rng.uniform(0.0, 20.0, k - 1), chi_star=[-rng.uniform(1.01, 4.0)] + [0.0] * (k - 2)))}
    derived = chart_field(sys, variant[kind], FAMILY)
    assert all(e[-1] >= 0 for q in derived for e in q)  # regular on the sphere
    _agree(derived, _oracle_family_field(sympy, sys, variant[kind]))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_compensation_zneg_matches_symbolic_blow_down(k):
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(k)
    chi_star = [-rng.uniform(1.01, 4.0)] + [0.0] * (k - 2)
    p3 = Theorem3Params(K=rng.uniform(0.0, 20.0, k - 1), chi_star=chi_star)
    chi, rho = sympy.symbols(f"chi1:{k}"), sympy.Symbol("rho")
    x = [rho ** (k - i) * chi[i] for i in range(k - 1)]
    w = [K * (xi * -rho + rho ** (k - i + 1) * cs)
         for i, (K, xi, cs) in enumerate(zip(p3.K, x, p3.chi_star))]
    oracle = [{m: float(c) for m, c in sympy.Poly(sympy.expand(q), *chi, rho).terms()}
              for q in w]
    _agree(compensation_zneg(k, p3), oracle)


def test_family_field_refuses_a_drift_that_is_not_polynomial():
    sys = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + sin(z)",)))
    p = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
    with pytest.raises(ValueError, match=r"polynomial drift, not \['1 \+ sin\(z\)'\]: `Call`"):
        chart_loop(sys, Thm2(p), FAMILY)


def test_chart_fields_refuse_a_row_with_its_own_fast_field():
    sys = TunnelDiodeSystem()
    p = Theorem2Params(c=[20.0, 16.0], a=[1.0, 1.0], b=3.0)
    with pytest.raises(ValueError, match=r"family-chart field is not defined .* own fast field, '-\(3"):
        chart_loop(sys, Thm2(p), FAMILY)
    with pytest.raises(ValueError, match=r"z < 0 chart field is not defined .* own fast field, '-\(3"):
        chart_loop(sys, OpenLoop(), ZNEG)


def _reference_directional(c, sys, variant):
    """(rho', chi', r_bar') written out in numpy: f + u at the blown-down
    point, the law's trees walked at eps = rho^(2k-1) mu, and the radial rate
    F(chi) = (-1)^k - sum_i (-1)^i chi_i by hand, so chi_i' =
    rho^(i-1) mu (f_i + u_i) - (k-i+1) F chi_i and r_bar' = 0."""
    k = sys.k
    chi = np.asarray(c.chi, dtype=float)
    st, eps = from_directional_zneg(c, k)
    sys_eps = NormalFormSystem(k=k, epsilon=eps, slow_f=sys.slow_f)
    f = np.asarray(sys.slow_f(st.x, st.z, eps), dtype=float)
    u = np.asarray(evaluate(law(sys_eps, variant), st.x, st.z), dtype=float)
    F = (-1.0) ** k - sum((-1.0) ** (i + 1) * chi[i] for i in range(k - 1))
    dchi = np.array([c.rho ** i * c.mu * (f[i] + u[i]) - (k - i) * F * chi[i]
                     for i in range(k - 1)])
    return c.rho * F, dchi, 0.0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_directional_field_matches_the_numpy_reference(k):
    # every variant the chart admits, at seeded chart points; the worst
    # error relative to max(1, |field|) over these 300 samples is 2.6e-15
    rng = np.random.default_rng(70 + k)
    for _ in range(20):
        sys = NormalFormSystem(k=k, epsilon=1.0, slow_f=_affine_drift(rng, k - 1))
        p2 = Theorem2Params(c=rng.uniform(-2, 2, k - 1), a=rng.uniform(0.1, 10.0, k - 1),
                            b=rng.uniform(0.1, 10.0))
        p3 = Theorem3Params(K=rng.uniform(0.0, 20.0, k - 1),
                            chi_star=[-rng.uniform(1.01, 4.0)] + [0.0] * (k - 2))
        for variant in (OpenLoop(), Thm2(p2), Thm2Plus3(p2, p3)):
            c = DirectionalChartState(rho=rng.uniform(0.2, 1.5), chi=rng.uniform(-1.5, 1.5, k - 1),
                                      mu=rng.uniform(0.05, 1.5))
            got = np.hstack(_zneg_at(c, sys, variant))
            want = np.hstack(_reference_directional(c, sys, variant))
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("k", [10, 11])
def test_directional_field_up_to_the_compensation_degree(k):
    # the compensation's monomial K chi* z^(k+1) reaches poly.MAX_DEGREE = 12 at k = 11
    rng = np.random.default_rng(k)
    sys = NormalFormSystem(k=k, epsilon=1.0, slow_f=_affine_drift(rng, k - 1))
    p2 = Theorem2Params(c=rng.uniform(-2, 2, k - 1), a=rng.uniform(0.1, 10.0, k - 1), b=2.0)
    p3 = Theorem3Params(K=rng.uniform(0.0, 20.0, k - 1), chi_star=[-2.0] + [0.0] * (k - 2))
    for i, (q, K, chi) in enumerate(zip(compensation_zneg(k, p3), p3.K, p3.chi_star)):
        # K_i rho^(k-i+2) (chi*_i - chi_i), i from 1
        rho = tuple(k - i + 1 if j == k - 1 else 0 for j in range(k))
        want = {rho: K * chi, tuple(n + (j == i) for j, n in enumerate(rho)): -K}
        assert {e: c for e, c in q.items() if c} == {e: c for e, c in want.items() if c}
    for _ in range(5):
        c = DirectionalChartState(rho=rng.uniform(0.5, 1.0), chi=rng.uniform(-1.0, 1.0, k - 1),
                                  mu=rng.uniform(0.05, 1.5))
        got = np.hstack(_zneg_at(c, sys, Thm2Plus3(p2, p3)))
        want = np.hstack(_reference_directional(c, sys, Thm2Plus3(p2, p3)))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_directional_field_refuses_a_law_over_the_degree_bound():
    sys = NormalFormSystem(k=12, epsilon=1.0, slow_f=ExprSlowField(("0",) * 11))
    p2 = Theorem2Params(c=[0.0] * 11, a=[1.0] * 11, b=2.0)
    p3 = Theorem3Params(K=[1.0] * 11, chi_star=[-2.0] + [0.0] * 10)
    with pytest.raises(ValueError, match="z < 0 chart field at k = 12: degree over 12"):
        chart_field(sys, Thm2Plus3(p2, p3), ZNEG)
    assert len(chart_field(sys, Thm2(p2), ZNEG)) == 12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_directional_field_monomials(k):
    # rho'/rho is the radial rate F(chi) = (-1)^k - sum_i (-1)^i chi_i alone;
    # r_bar never has a negative power and rho none below 1 - 2k
    rng = np.random.default_rng(k)
    sys = NormalFormSystem(k=k, epsilon=0.01, slow_f=_affine_drift(rng, k - 1))
    p2 = Theorem2Params(c=rng.uniform(-2, 2, k - 1), a=rng.uniform(0.1, 10.0, k - 1), b=2.0)
    p3 = Theorem3Params(K=rng.uniform(0.0, 20.0, k - 1), chi_star=[-2.0] + [0.0] * (k - 2))
    *dchi, drho = chart_field(sys, Thm2Plus3(p2, p3), ZNEG)
    rate = {tuple(0 if j == k - 1 else n for j, n in enumerate(e)): c for e, c in drho.items()}
    assert all(e[k - 1] == 1 and e[k] == 0 for e in drho)
    assert rate == {(0,) * (k + 1): (-1.0) ** k,
                    **{tuple(int(j == i) for j in range(k + 1)): (-1.0) ** i
                       for i in range(k - 1)}}
    assert all(e[k] >= 0 and e[k - 1] >= 1 - 2 * k for q in dchi for e in q)
    assert min(e[k - 1] for q in dchi for e in q) == 1 - 2 * k


def test_directional_field_on_the_eps_zero_slice():
    # mu = 0: the slow drift and the law drop out and chi' = -(k-i+1) F chi
    k, chi = 3, np.array([0.4, -0.3])
    sys = NormalFormSystem(k=k, epsilon=0.01, slow_f=_affine_drift(np.random.default_rng(1), 2))
    variant = Thm2(Theorem2Params(c=[1.0, -1.0], a=[2.0, 3.0], b=4.0))
    drho, dchi, dr = _zneg_at(DirectionalChartState(0.7, chi, 0.0), sys, variant)
    F = -1.0 + chi[0] - chi[1]
    assert drho == pytest.approx(0.7 * F, rel=1e-15)
    assert dchi.tolist() == pytest.approx([-3 * F * chi[0], -2 * F * chi[1]], rel=1e-15)
    assert dr == 0.0


def test_directional_field_reads_eps_from_the_chart_point():
    rng = np.random.default_rng(5)
    drift = _affine_drift(rng, 2)
    variant = Thm2(Theorem2Params(c=[1.0, -1.0], a=[2.0, 3.0], b=4.0))
    c = DirectionalChartState(rho=0.6, chi=[0.2, -0.1], mu=0.3)
    a, b = (np.hstack(_zneg_at(c, NormalFormSystem(k=3, epsilon=e, slow_f=drift), variant))
            for e in (1e-3, 0.5))
    assert np.array_equal(a, b)


def test_directional_field_refuses_other_variants_and_drifts():
    sys = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + x1 + z",)))
    # the variants are refused by closedloop.law, the one dispatch on them
    with pytest.raises(ValueError, match=r"controller variant highgain\(.*\) has no gain powers"):
        chart_field(sys, HighGain(a=[1.0], b=1.0), ZNEG)
    with pytest.raises(ValueError, match="controller sized for 2 slow states, system has 1"):
        chart_field(sys, Thm2(Theorem2Params(c=[0.0, 0.0], a=[1.0, 1.0], b=1.0)), ZNEG)
    sin = NormalFormSystem(k=2, epsilon=0.01, slow_f=ExprSlowField(("1 + sin(z)",)))
    with pytest.raises(ValueError, match=r"z < 0 chart field needs a polynomial drift"):
        chart_field(sin, OpenLoop(), ZNEG)


class TestDesingDirectional:
    def test_radial_rate_at_chi_zero(self):
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)
        c = DirectionalChartState(rho=0.7, chi=[0.0], mu=0.4)
        drho, dchi, dr = _zneg_at(c, sys, OpenLoop())
        assert drho == pytest.approx(0.7)  # F = 1 for k even at chi = 0
        assert dchi == pytest.approx([0.0])
        assert dr == 0.0  # mu' = -3 mu F

    def test_radial_rate_at_chi_one(self):
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)
        c = DirectionalChartState(rho=0.5, chi=[1.0], mu=0.25)
        drho, dchi, dr = _zneg_at(c, sys, OpenLoop())
        assert drho == pytest.approx(1.0)  # F = 2
        assert dchi == pytest.approx([-4.0])
        assert dr == 0.0  # mu' = -3 mu F

    def test_compensation_contribution(self):
        # w = K (x z + (-z)^3 chi*) appears in chi' as K mu rho^3 (chi* - chi)
        K, chi_star = 10.0, -2.0
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)
        p2 = Theorem2Params(c=[0.0], a=[1.0], b=3.0)
        rho, chi, mu = 0.8, 0.3, 0.6
        c = DirectionalChartState(rho=rho, chi=[chi], mu=mu)
        _, dchi, _ = _zneg_at(c, sys, Thm2Plus3(p2, Theorem3Params(K=[K], chi_star=[chi_star])))
        _, dchi0, _ = _zneg_at(c, sys, Thm2(p2))
        contribution = dchi[0] - dchi0[0]
        assert contribution == pytest.approx(
            K * mu * rho**3 * (chi_star - chi), rel=1e-12
        )

    def test_matches_symbolic_chain_rule(self):
        sympy = pytest.importorskip("sympy")
        k = 3
        rho_s, mu_s = sympy.symbols("rho mu", positive=True)
        chi_s = sympy.symbols("chi1 chi2")
        # blow-down, fast-time field, push through the chart, divide by rho^(k-1)
        x = [rho_s ** (k - i) * chi_s[i] for i in range(k - 1)]
        z = -rho_s
        eps = rho_s ** (2 * k - 1) * mu_s
        f_plus_u = [sympy.Rational(1, 2), sympy.Rational(-1, 3)]
        g = -(z**k + sum(x[i] * z**i for i in range(k - 1)))
        drho = -g
        dx = [eps * f_plus_u[i] for i in range(k - 1)]
        dchi = [
            sympy.expand(
                (dx[i] - (k - i) * rho_s ** (k - i - 1) * chi_s[i] * drho)
                / rho_s ** (k - i)
            )
            for i in range(k - 1)
        ]
        dmu = -(2 * k - 1) * mu_s / rho_s * drho
        desing = [
            sympy.simplify(e / rho_s ** (k - 1)) for e in [drho, *dchi, dmu]
        ]

        sys = NormalFormSystem(k=k, epsilon=1.0, slow_f=ExprSlowField(("0.5", "-1 / 3")))
        subs = {rho_s: 0.9, mu_s: 0.7, chi_s[0]: -1.2, chi_s[1]: 0.4}
        c = DirectionalChartState(rho=0.9, chi=[-1.2, 0.4], mu=0.7)
        drho_n, dchi_n, dr_n = _zneg_at(c, sys, OpenLoop())
        assert drho_n == pytest.approx(float(desing[0].subs(subs)), rel=1e-12)
        assert dchi_n[0] == pytest.approx(float(desing[1].subs(subs)), rel=1e-12)
        assert dchi_n[1] == pytest.approx(float(desing[2].subs(subs)), rel=1e-12)
        # the loop's r_bar' = 0 is the chain rule's mu': r_bar = rho mu^(1/(2k-1))
        r_bar = rho_s * mu_s ** sympy.Rational(1, 2 * k - 1)
        dr = sympy.diff(r_bar, rho_s) * desing[0] + sympy.diff(r_bar, mu_s) * desing[3]
        assert sympy.simplify(dr) == 0 and dr_n == 0.0


class TestTimeRescale:
    def test_cube_root_case(self):
        assert family_time_rescale(0.001, 2) == pytest.approx(0.01, rel=1e-12)

    def test_identity_at_one(self):
        for k in range(2, 7):
            assert family_time_rescale(1.0, k) == 1.0

    def test_known_power(self):
        assert family_time_rescale(0.01, 2) == pytest.approx(
            0.01 ** (2.0 / 3.0), rel=1e-14
        )
        assert family_time_rescale(0.01, 2) == pytest.approx(0.04641589, rel=1e-7)
