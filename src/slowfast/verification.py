"""Certificates for the chart algebra, controllers and flows.

Every suite draws its own samples from a seeded generator and yields one
error per sample for a single invariant; :func:`_suite` registers it with
its name, its tolerance and the one pass rule. Where the invariant is a
polynomial identity, a sample is a monomial: the suite compares the
coefficients of the laws and fields derived by :mod:`slowfast.blowup`
from the checked trees with the form the paper states. Where float code
is what is checked (the chart maps, the generated family-chart loop, the
flows), a sample is a point. The suites double as the acceptance checks
wired into the command line.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import blowup, control, normal_form
from .closedloop import OpenLoop, Thm2, Thm2Plus3, build_closed_loop, law
from .sim import config_for, integrate
from .systems import build_planar_example

__all__ = ["SuiteResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    n_samples: int
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return (f"{status}\t{self.name}\tmax_err={self.max_err:.3e}"
                f"\ttol={self.tol:.1e}\tn={self.n_samples}{extra}")


SUITES: dict[str, Callable[[np.random.Generator], SuiteResult]] = {}


def _suite(name: str, tol: float):
    """Register a generator of per-sample errors as the suite ``name``.

    The registered callable counts the samples and reports the worst error,
    and passes only when every error is finite and the worst is <= tol.
    """
    def register(errors: Callable[[np.random.Generator], Iterator[float]]):
        def run(rng: np.random.Generator) -> SuiteResult:
            errs = np.fromiter(errors(rng), dtype=float)
            worst = float(np.max(errs, initial=0.0))
            passed = bool(np.all(np.isfinite(errs))) and worst <= tol
            return SuiteResult(name, passed, worst, tol, errs.size)

        SUITES[name] = run
        return run
    return register


def _max_abs(*parts) -> float:
    """Largest magnitude over vectors and scalars; a NaN anywhere gives NaN."""
    return float(np.max(np.abs(np.hstack(parts))))


def _rel(err: float, scale: float) -> float:
    return err / max(1.0, abs(scale))


def _random_p2(rng: np.random.Generator, k: int) -> control.Theorem2Params:
    return control.Theorem2Params(c=rng.uniform(-2.0, 2.0, k - 1),
                                  a=rng.uniform(0.1, 10.0, k - 1), b=rng.uniform(0.1, 10.0))


def _random_field(rng: np.random.Generator, m: int) -> normal_form.ExprSlowField:
    """Affine slow drift c + A x + (l z + e epsilon) with seeded coefficients,
    bound as the named constants of one expression tuple per m, so that each
    m is parsed once."""
    c, a, lz, le = (rng.uniform(-2, 2, m), rng.uniform(-1, 1, (m, m)), rng.uniform(-1, 1, m),
                    rng.uniform(-1, 1, m))
    values = {f"{name}{i}": v for name, vs in (("c", c), ("l", lz), ("e", le))
              for i, v in enumerate(vs, 1)}
    values.update((f"a{i}_{j}", v) for i, row in enumerate(a, 1) for j, v in enumerate(row, 1))
    return normal_form.ExprSlowField(tuple(
        f"c{i} + ({' + '.join(f'a{i}_{j} * x{j}' for j in range(1, m + 1))})"
        f" + (l{i} * z + e{i} * epsilon)" for i in range(1, m + 1)), values)


def _poly_errors(got: dict, want: dict) -> Iterator[float]:
    """Per monomial of either, the difference relative to max(1, |wanted|)."""
    for e in {**want, **got}:
        yield _rel(abs(got.get(e, 0.0) - want.get(e, 0.0)), want.get(e, 0.0))


def _poly(n: int, *terms) -> dict:
    """The polynomial in ``n`` names whose terms are (c, {index: power})."""
    return {tuple(powers.get(j, 0) for j in range(n)): c for c, powers in terms}


@_suite("quasihomogeneity", tol=1e-11)
def suite_quasihomogeneity(rng: np.random.Generator) -> Iterator[float]:
    """Every monomial of g has weighted degree k, x_i weighing k-i+1 and z 1:
    per monomial of the Horner tree, k = 2..6, |coefficient| times the
    distance of its weighted degree from k."""
    for k in range(2, 7):
        for e, c in blowup.fast_poly(normal_form._horner(k), k).items():
            yield abs(c) * abs(sum((k - i) * n for i, n in enumerate(e[:-1])) + e[-1] - k)


@_suite("fast-field-horner", tol=1e-14)
def suite_fast_field_horner(rng: np.random.Generator) -> Iterator[float]:
    """The Horner tree's monomials are those of -(z^k + sum_i x_i z^(i-1))."""
    for k in range(2, 7):
        g = _poly(k, (-1.0, {k - 1: k}), *((-1.0, {i: 1, k - 1: i}) for i in range(k - 1)))
        yield from _poly_errors(blowup.fast_poly(normal_form._horner(k), k), g)


@_suite("slow-fast-scaling", tol=1e-14)
def suite_slow_fast_scaling(rng: np.random.Generator) -> Iterator[float]:
    """Slow-time field of the analysis functions against the generated
    open loop's field, u added to its slow components: one drawn system
    (drift and eps) per k = 2..6, so one compiled loop each, at 40 drawn
    states and controls.

    The loop evaluates g by its own Horner expression, the analysis
    functions by a power sum scaled to fast time and back. The error is
    taken relative to the larger of the fast field's term magnitude,
    (1 + |z|^k + sum_i |x_i| |z|^(i-1)) / eps, and the largest slow
    component.
    """
    for k in range(2, 7):
        eps = float(rng.uniform(1e-3, 1.0))
        sysm = normal_form.NormalFormSystem(k=k, epsilon=eps, slow_f=_random_field(rng, k - 1))
        rhs, _, _ = build_closed_loop(sysm, OpenLoop())
        for _ in range(40):
            s = normal_form.State(x=rng.uniform(-2, 2, k - 1), z=rng.uniform(-2, 2))
            u = rng.uniform(-2, 2, k - 1)
            dxs, dzs = normal_form.eval_rhs_slow(sysm, s, u)
            *fx, dz = rhs(0.0, np.append(s.x, s.z))
            dx = np.array(fx) + u
            terms = 1.0 + abs(s.z) ** k + sum(abs(xi) * abs(s.z) ** i for i, xi in enumerate(s.x))
            yield _max_abs(dxs - dx, dzs - dz) / max(terms / eps, _max_abs(dx))


@_suite("degeneracy-origin", tol=0.0)
def suite_degeneracy_origin(rng: np.random.Generator) -> Iterator[float]:
    """The origin has full degeneracy order k for every k in 2..6."""
    for k in range(2, 7):
        yield abs(normal_form.degeneracy_order(np.zeros(k - 1), 0.0, k) - k)


@_suite("chart-roundtrip", tol=1e-12)
def suite_chart_roundtrip(rng: np.random.Generator) -> Iterator[float]:
    """Blow-down of blow-up is the identity, in both charts."""
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        x = rng.uniform(-2, 2, k - 1)
        eps = float(rng.uniform(1e-6, 1.0))
        z = rng.uniform(-2, 2)
        s = normal_form.State(x=x, z=z)
        back, eps_back = blowup.from_family_chart(blowup.to_family_chart(s, eps, k), k)
        err = _max_abs(back.x - x, back.z - z, eps_back - eps)
        yield _rel(err, float(np.max(np.abs(x), initial=abs(z))))
        zneg = -abs(z) - 0.05
        s2 = normal_form.State(x=x, z=zneg)
        back2, eps2 = blowup.from_directional_zneg(blowup.to_directional_zneg(s2, eps, k), k)
        err2 = _max_abs(back2.x - x, back2.z - zneg, eps2 - eps)
        yield _rel(err2, float(np.max(np.abs(x), initial=abs(zneg))))


@_suite("chart-compatibility", tol=1e-12)
def suite_chart_compatibility(rng: np.random.Generator) -> Iterator[float]:
    """For z < 0 both charts describe the same point after blow-down."""
    for _ in range(500):
        k = int(rng.integers(2, 7))
        x = rng.uniform(-2, 2, k - 1)
        z = -float(rng.uniform(0.05, 2.0))
        eps = float(rng.uniform(1e-6, 1.0))
        s = normal_form.State(x=x, z=z)
        a, eps_a = blowup.from_family_chart(blowup.to_family_chart(s, eps, k), k)
        b, eps_b = blowup.from_directional_zneg(blowup.to_directional_zneg(s, eps, k), k)
        err = _max_abs(a.x - b.x, a.z - b.z, eps_a - eps_b)
        yield _rel(err, float(np.max(np.abs(x), initial=abs(z))))


@_suite("blowdown-identity", tol=1e-11)
def suite_blowdown_identity(rng: np.random.Generator) -> Iterator[float]:
    """The baseline law blown up into the family chart is the chart
    controller u_bar_1 = -c_1 - a_1 x_bar_1 + b z_bar and
    u_bar_i = -c_i - r_bar^(1-i) a_i x_bar_i, coefficient by coefficient."""
    for _ in range(200):
        k = int(rng.integers(2, 7))
        p = _random_p2(rng, k)
        for i, u in enumerate(blowup.family_law(k, p)):
            inject = [(p.b, {k - 1: 1})] if i == 0 else []
            yield from _poly_errors(u, _poly(k + 1, (-p.c[i], {}), (-p.a[i], {i: 1, k: -i}),
                                             *inject))


@_suite("eigenvalues", tol=1e-9)
def suite_eigenvalues(rng: np.random.Generator) -> Iterator[float]:
    """Closed-form spectrum is Hurwitz and matches a numerical eigensolver.

    A draw whose closed-form spectrum is not Hurwitz has infinite error.
    """
    for _ in range(200):
        k = int(rng.integers(2, 7))
        p = control.Theorem2Params(c=np.zeros(k - 1), a=rng.uniform(1e-6, 10.0, k - 1),
                                   b=rng.uniform(1e-6, 10.0))
        lam = control.eigenvalues_origin(k, p)
        numeric = list(np.linalg.eigvals(control.closed_loop_jacobian_origin(k, p)))
        errs = []
        for lv in lam:
            j = int(np.argmin([abs(lv - nv) for nv in numeric]))
            errs.append(abs(lv - numeric.pop(j)))
        yield np.max(errs) if np.all(lam.real < 0) else np.inf


@_suite("jacobian-fd", tol=1e-6)
def suite_jacobian_fd(rng: np.random.Generator) -> Iterator[float]:
    """Central differences of the compiled closed-loop family field on the
    sphere r_bar = 0 reproduce J."""
    h = 1e-6
    for k in (2, 3, 4):
        p = _random_p2(rng, k)
        sysm = normal_form.NormalFormSystem(k=k, epsilon=1e-2, slow_f=_random_field(rng, k - 1))
        # the drift constants must match f(0,0,0) for the origin to be fixed
        p = control.Theorem2Params(c=sysm.slow_f(np.zeros(k - 1), 0.0, 0.0), a=p.a, b=p.b)

        def field(v: np.ndarray) -> np.ndarray:
            chart = blowup.FamilyChartState(r_bar=0.0, x_bar=v[:-1], z_bar=v[-1])
            _, dx, dz = blowup.closed_loop_rhs_family(chart, sysm, p)
            return np.append(dx, dz)

        J = control.closed_loop_jacobian_origin(k, p)
        for j, e in enumerate(np.eye(k) * h):
            yield _max_abs((field(e) - field(-e)) / (2 * h) - J[:, j])


@_suite("compensation-chart-form", tol=1e-11)
def suite_compensation_chart_form(rng: np.random.Generator) -> Iterator[float]:
    """Compensation blows up to K_i rho^(k-i+2) (chi*_i - chi_i) in the
    z < 0 chart, coefficient by coefficient."""
    for _ in range(200):
        k = int(rng.integers(2, 7))
        chi_star = [-float(rng.uniform(1.01, 4.0))] + [0.0] * (k - 2)
        p3 = control.Theorem3Params(K=rng.uniform(0.0, 20.0, k - 1), chi_star=chi_star)
        for i, (w, K) in enumerate(zip(blowup.compensation_zneg(k, p3), p3.K)):
            yield from _poly_errors(w, _poly(k, (K * chi_star[i], {k - 1: k - i + 1}),
                                             (-K, {i: 1, k - 1: k - i + 1})))


@_suite("scale-behavior", tol=1e-12)
def suite_scale_behavior(rng: np.random.Generator) -> Iterator[float]:
    """The gain on x_i is -a_i r^-k, that is eps^(-k/(2k-1)): the monomials
    of the law in x1..xm, z and r = eps^(1/(2k-1)) that carry an x."""
    for _ in range(100):
        k = int(rng.integers(2, 7))
        p = _random_p2(rng, k)
        for i, u in enumerate(blowup.gain_law(k, p)):
            gains = {e: c for e, c in u.items() if any(e[:k - 1])}
            yield from _poly_errors(gains, _poly(k + 1, (-p.a[i], {i: 1, k: -k})))


def _directional_pushforward_error(rng: np.random.Generator, k: int) -> float:
    """One tangency sample: J_blowdown @ chart field vs fast field / rho^(k-1)."""
    slow_f = _random_field(rng, k - 1)
    variant = Thm2Plus3(_random_p2(rng, k), control.Theorem3Params(
        K=rng.uniform(0.0, 5.0, k - 1), chi_star=[-2.0] + [0.0] * (k - 2)))
    # rho <= 1 keeps the rho^(2k-1) powers from amplifying the finite
    # difference truncation error past the certificate tolerance
    rho = float(rng.uniform(0.2, 1.0))
    chi = rng.uniform(-1.5, 1.5, k - 1)
    mu = float(rng.uniform(0.1, 1.5))
    c = blowup.DirectionalChartState(rho=rho, chi=chi, mu=mu)
    st, eps = blowup.from_directional_zneg(c, k)
    sysm = normal_form.NormalFormSystem(k=k, epsilon=eps, slow_f=slow_f)
    chart_field = np.hstack(blowup.desing_rhs_directional(c, sysm, variant))

    def blowdown_vec(v: np.ndarray) -> np.ndarray:
        cs = blowup.DirectionalChartState(rho=v[0], chi=v[1:k], mu=v[k])
        st, eps = blowup.from_directional_zneg(cs, k)
        return np.concatenate((st.x, [st.z, eps]))

    v0 = np.concatenate(([rho], chi, [mu]))
    steps = 1e-6 * np.maximum(1.0, np.abs(v0))
    J = np.transpose([(blowdown_vec(v0 + e) - blowdown_vec(v0 - e)) / (2 * h)
                      for e, h in zip(np.diag(steps), steps)])

    pushed = J @ chart_field
    dx, dz = normal_form.eval_rhs_fast(sysm, st, control.evaluate(law(sysm, variant), st.x, st.z))
    fast = np.concatenate((dx, [dz, 0.0]))
    err = np.abs(rho ** (k - 1) * pushed - fast)
    scale = max(1.0, float(np.max(np.abs(fast))))
    return float(np.max(err)) / scale


@_suite("tangency", tol=1e-8)
def suite_tangency(rng: np.random.Generator) -> Iterator[float]:
    """Directional chart field is the original field up to the rho^(k-1) rescale.

    Validates the chain-rule form of the radial rate F(chi), whose printed
    summation bound is dimensionally impossible.
    """
    for i in range(500):
        yield _directional_pushforward_error(rng, (2, 4, 6)[i % 3])


@_suite("rhs-continuity-r0", tol=1e-6)
def suite_rhs_continuity_r0(rng: np.random.Generator) -> Iterator[float]:
    """The derived closed-loop family field is regular on the sphere r_bar = 0:
    per component, for a seeded affine drift and law at each k = 2..6, the
    largest |coefficient| on a negative power of r_bar."""
    for k in range(2, 7):
        sysm = normal_form.NormalFormSystem(k=k, epsilon=1e-2, slow_f=_random_field(rng, k - 1))
        for q in blowup.family_field(sysm, _random_p2(rng, k)):
            yield max((abs(c) for e, c in q.items() if e[-1] < 0), default=0.0)


def _draw_surviving_ic(rng: np.random.Generator, rhs, cfg, radius: float = 1.0,
                       tries: int = 50) -> np.ndarray:
    """Random IC with norm <= radius whose flow exists on the whole window.

    Escaping initial conditions leave in finite time (well before the
    comparison window ends), so conditioning on existence is required for
    a comparison 'over t in [0, T]' to be meaningful.
    """
    for _ in range(tries):
        ic = rng.uniform(-radius, radius, 2)
        if np.linalg.norm(ic) > radius:
            continue
        if not integrate(rhs, ic, cfg).outcome.is_diverged:
            return ic
    raise RuntimeError("no surviving initial condition found")


@_suite("conjugacy", tol=1e-5)
def suite_conjugacy(rng: np.random.Generator) -> Iterator[float]:
    """Blow-down of the desingularized closed-loop flow matches direct integration.

    k = 2, eps = 0.01: the chart trajectory at desingularized time s equals
    the slow-time trajectory at t = eps^(2/3) s after blow-down; the chart
    loop carries r_bar as a state of rate 0.
    """
    k, eps = 2, 0.01
    sysm = build_planar_example(eps)
    p = control.Theorem2Params(c=[1.0], a=[1.0], b=3.0)
    tau = blowup.family_time_rescale(eps, k)
    rhs, _, _ = build_closed_loop(sysm, Thm2(p))
    cfg_direct = config_for(eps, 1.0, rtol=1e-10, atol=1e-12, record_stride=0.1)
    cfg_chart = config_for(eps, 1.0 / tau, rtol=1e-10, atol=1e-12, max_step=1e-2,
                           record_stride=0.1 / tau)
    chart_loop = blowup.family_loop(sysm, p)
    for _ in range(3):
        ic = _draw_surviving_ic(rng, rhs, cfg_direct)
        direct = integrate(rhs, ic, cfg_direct)
        c0 = blowup.to_family_chart(normal_form.State(x=ic[:1], z=ic[1]), eps, k)
        chart = integrate(chart_loop, [*c0.x_bar, c0.z_bar, c0.r_bar], cfg_chart)
        for y, want in zip(chart.states, direct.states):
            st, _ = blowup.from_family_chart(blowup.FamilyChartState(y[2], y[:1], y[1]), k)
            yield _rel(_max_abs(st.x - want[:1], st.z - want[1]), float(np.max(np.abs(want))))


def run_suites(seed: int = 0, names: list[str] | None = None) -> list[SuiteResult]:
    """Run the requested suites (all by default), each with a fresh seeded rng."""
    selected = names or list(SUITES)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results = []
    for name in selected:
        rng = np.random.default_rng(seed)
        try:
            results.append(SUITES[name](rng))
        except Exception as exc:  # noqa: BLE001 - a crashed suite is a failure
            results.append(SuiteResult(name=name, passed=False, max_err=float("inf"),
                                       tol=0.0, n_samples=0, detail=f"raised: {exc}"))
    return results
