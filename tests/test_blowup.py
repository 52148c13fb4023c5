import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.blowup import (
    DirectionalChartState,
    FamilyChartState,
    closed_loop_rhs_family,
    desing_rhs_directional,
    family_time_rescale,
    from_directional_zneg,
    from_family_chart,
    to_directional_zneg,
    to_family_chart,
)
from slowfast.closedloop import Thm2, build_closed_loop
from slowfast.control import Theorem2Params
from slowfast.normal_form import ExprSlowField, NormalFormSystem, State


zero_f = ExprSlowField(("0",))


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
        _, dx_bar, dz_bar = closed_loop_rhs_family(
            FamilyChartState(r_bar=r, x_bar=x_bar, z_bar=z_bar), sys, p)
        chart = np.append(dx_bar, dz_bar)
        y = [r ** (k - i) * x_bar[i] for i in range(k - 1)] + [r * z_bar]
        dy = build_closed_loop(sys, Thm2(p))[0](0.0, np.array(y))
        pushed = np.array([r**i * dy[i] for i in range(k - 1)] + [r ** (k - 1) * dy[-1]])
        assert np.max(np.abs(pushed - chart)) <= 1e-13 * max(1.0, np.max(np.abs(chart)))


class TestDesingDirectional:
    def test_radial_rate_at_chi_zero(self):
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)
        c = DirectionalChartState(rho=0.7, chi=[0.0], mu=0.4)
        drho, dchi, dmu = desing_rhs_directional(
            c, sys, lambda x, z, e: np.zeros(1)
        )
        assert drho == pytest.approx(0.7)  # F = 1 for k even at chi = 0
        assert dchi == pytest.approx([0.0])
        assert dmu == pytest.approx(-3 * 0.4)

    def test_radial_rate_at_chi_one(self):
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)
        c = DirectionalChartState(rho=0.5, chi=[1.0], mu=0.25)
        drho, dchi, dmu = desing_rhs_directional(
            c, sys, lambda x, z, e: np.zeros(1)
        )
        assert drho == pytest.approx(1.0)  # F = 2
        assert dchi == pytest.approx([-4.0])
        assert dmu == pytest.approx(-6 * 0.25)

    def test_compensation_contribution(self):
        # w = K (x z + (-z)^3 chi*) appears in chi' as K mu rho^3 (chi* - chi)
        K, chi_star = 10.0, -2.0
        sys = NormalFormSystem(k=2, epsilon=1.0, slow_f=zero_f)

        def comp_only(x, z, eps):
            return np.array([K * (x[0] * z + (-z) ** 3 * chi_star)])

        rho, chi, mu = 0.8, 0.3, 0.6
        c = DirectionalChartState(rho=rho, chi=[chi], mu=mu)
        _, dchi, _ = desing_rhs_directional(c, sys, comp_only)
        base = DirectionalChartState(rho=rho, chi=[chi], mu=mu)
        _, dchi0, _ = desing_rhs_directional(
            base, sys, lambda x, z, e: np.zeros(1)
        )
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
        drho_n, dchi_n, dmu_n = desing_rhs_directional(
            c, sys, lambda xv, zv, ev: np.zeros(2)
        )
        assert drho_n == pytest.approx(float(desing[0].subs(subs)), rel=1e-12)
        assert dchi_n[0] == pytest.approx(float(desing[1].subs(subs)), rel=1e-12)
        assert dchi_n[1] == pytest.approx(float(desing[2].subs(subs)), rel=1e-12)
        assert dmu_n == pytest.approx(float(desing[3].subs(subs)), rel=1e-12)


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
