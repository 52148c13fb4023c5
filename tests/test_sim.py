import ast
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import slowfast
from slowfast import normal_form, sim
from slowfast.closedloop import CellRunner, OpenLoop, Thm2, Thm2Plus3, build_closed_loop
from slowfast.control import Theorem2Params, Theorem3Params
from slowfast.normal_form import ExprSlowField, NormalFormSystem
from slowfast.sim import (
    IntegratorConfig,
    Outcome,
    Trajectory,
    _quadratic,
    classify,
    compile_functions,
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
        rhs, _ = build_closed_loop(sys, OpenLoop())
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

    @pytest.mark.parametrize("n", [44, 120])
    def test_many_states_compile(self, n):
        traj = integrate(decay, np.ones(n), IntegratorConfig(t_final=0.01))
        assert traj.stats.reason == "t_final"
        assert traj.states[-1] == pytest.approx(np.full(n, math.exp(-0.01)), rel=1e-9)

    def test_loop_source_is_linear_in_the_dimension(self):
        # the proof test is one call, not n(n+1)/2 statements (21,597 lines
        # at n = 200 when it was written inline)
        assert sim._loop_source(200).count("\n") < 2000

    def test_rhs_of_wrong_length_rejected(self):
        cfg = IntegratorConfig(t_final=1.0)
        with pytest.raises(ValueError, match="must return 2 values"):
            integrate(lambda t, y: [0.0], np.array([1.0, 1.0]), cfg)

    def test_record_count_that_is_not_finite_rejected(self):
        # a ValueError, not the OverflowError that a sweep cell records as diverged
        cfg = IntegratorConfig(t_final=1e300, record_stride=1e-10)
        with pytest.raises(ValueError, match="record_stride must be finite") as raised:
            integrate(decay, np.array([1.0]), cfg)
        assert type(raised.value) is ValueError
        cell = CellRunner(build_planar_example(0.01), OpenLoop(), cfg)
        with pytest.raises(ValueError, match="record_stride must be finite"):
            cell([0.1, 0.1])

    def test_records_follow_stride(self):
        cfg = IntegratorConfig(t_final=0.5, record_stride=0.1, max_step=1e-2)
        traj = integrate(decay, np.array([1.0]), cfg)
        assert traj.times == pytest.approx(np.linspace(0.0, 0.5, 6), abs=1e-15)

    def test_determinism_bitwise(self):
        sys = build_planar_example(0.05)
        rhs, ueval = build_closed_loop(sys, OpenLoop())
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


def _zip_attempt(f, t, h, y, k1, rtol, atol):
    """Reference attempt: each combination as one zip over the components."""
    k2 = f(t + sim._C2 * h, [v + h * (sim._A21 * a) for v, a in zip(y, k1)])
    k3 = f(t + sim._C3 * h, [v + h * (sim._A31 * a + sim._A32 * b)
                             for v, a, b in zip(y, k1, k2)])
    k4 = f(t + sim._C4 * h, [v + h * (sim._A41 * a + sim._A42 * b + sim._A43 * c)
                             for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = f(t + sim._C5 * h, [v + h * (sim._A51 * a + sim._A52 * b + sim._A53 * c
                                      + sim._A54 * d)
                             for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = f(t + h, [v + h * (sim._A61 * a + sim._A62 * b + sim._A63 * c
                            + sim._A64 * d + sim._A65 * e)
                   for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (sim._B1 * a + sim._B3 * c + sim._B4 * d + sim._B5 * e
                      + sim._B6 * f_)
             for v, a, c, d, e, f_ in zip(y, k1, k3, k4, k5, k6)]
    norm = math.hypot(*y_new)
    if not math.isfinite(norm):
        return math.nan, y_new, None, norm
    k7 = f(t + h, y_new)
    acc = 0.0
    for v, w, a, c, d, e, f_, g in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        v, w = abs(v), abs(w)
        q = h * (sim._E1 * a + sim._E3 * c + sim._E4 * d + sim._E5 * e
                 + sim._E6 * f_ + sim._E7 * g) / (atol + rtol * (v if v > w else w))
        acc += q * q
    return math.sqrt(acc / len(y)), y_new, k7, norm


def _coupled(t, y):
    n = len(y)
    return [math.sin(y[i - 1]) * y[i] - 0.3 * y[i] * abs(y[i]) + math.cos(t) * (i + 1)
            + y[(i + 1) % n] / (1.0 + y[i] * y[i]) for i in range(n)]


# -- the stepping loop that integrate ran before it was generated, kept as
# an oracle: plain Python over float lists, one _zip_attempt per attempt


def _record_times(t0, t_final, stride):
    n = max(1, int(math.ceil((t_final - t0) / stride - 1e-12)))
    pts = [t0 + i * stride for i in range(1, n)]
    pts.append(t_final)
    return pts


def _rms(values, scales):
    acc = 0.0
    for v, s in zip(values, scales):
        q = v / s
        acc += q * q
    return math.sqrt(acc / len(scales))


def _reference_integrate(rhs, ic, cfg, t0=0.0, control=None, stop_ball=None,
                         attempt=_zip_attempt):
    y0 = np.array(ic, dtype=float)
    if y0.ndim != 1:
        raise ValueError("initial condition must be a 1-d vector")
    if not np.all(np.isfinite(y0)):
        raise sim.NonFiniteError("initial condition contains non-finite entries")
    n = y0.size
    ev = sim._on_lists(rhs)
    y = y0.tolist()
    k1 = ev(t0, y)
    if not (isinstance(k1, list) and len(k1) == n):
        raise ValueError(f"rhs must return {n} values, got {np.shape(k1)}")
    if not all(map(math.isfinite, k1)):
        raise sim.NonFiniteError("rhs is not finite at the initial condition")
    if not cfg.t_final > t0:
        raise ValueError("t_final must exceed the initial time")

    stride = cfg.record_stride
    pending = _record_times(t0, cfg.t_final, stride)
    times = [t0]
    states = [y]
    controls = [control(t0, y)] if control else None

    def emit(t, yl):
        times.append(t)
        states.append(yl)
        if control is not None:
            controls.append(control(t, yl))

    rtol, atol = cfg.rtol, cfg.atol
    max_step, min_step = cfg.max_step, cfg.min_step
    div_norm = cfg.divergence_norm
    isfinite = math.isfinite
    outcome = Outcome.undecided()

    # first step guess, bounded by the output cadence
    scale0 = [atol + rtol * abs(v) for v in y]
    d0, d1 = _rms(y, scale0), _rms(k1, scale0)
    h = min(max_step, cfg.t_final - t0)
    if d1 > 0:
        h = min(h, 0.01 * max(d0, 1e-6) / d1)
    h = max(h, min_step)

    t = t0
    rec_i = 0
    ball_entry = None
    margin = sim.DWELL + 2.0 * stride

    while rec_i < len(pending):
        t_target = pending[rec_i]
        gap = t_target - t
        h_try = h if h < max_step else max_step  # min(h, max_step, gap)
        if h_try > gap:
            h_try = gap
        # stretch onto the boundary rather than leave an unsteppable sliver
        clamped = h_try >= gap - min_step
        if clamped:
            h_try = gap
        if h_try < min_step:
            outcome = Outcome.diverged(t)
            if times[-1] < t:
                emit(t, y)
            break

        err = math.nan  # stays NaN when a stage is not finite
        try:
            err, y_new, k7, norm = attempt(ev, t, h_try, y, k1, rtol, atol)
        except ArithmeticError:
            pass

        if not isfinite(err):
            h = 0.5 * h_try
            continue
        if err > 1.0:
            h = h_try * max(0.1, sim._SAFETY * err**sim._ORDER_EXP)
            continue

        # accepted
        t = t_target if clamped else t + h_try
        y = y_new
        k1 = k7
        factor = sim._MAX_FACTOR if err == 0.0 else min(
            sim._MAX_FACTOR, max(sim._MIN_FACTOR, sim._SAFETY * err**sim._ORDER_EXP)
        )
        h = min(max_step, h_try * factor)

        if norm > div_norm:
            outcome = Outcome.diverged(t)
            emit(t, y)
            break

        if clamped:
            emit(t, y)
            rec_i += 1

        if stop_ball is not None:
            if norm < stop_ball:
                if ball_entry is None:
                    ball_entry = t
                elif t - ball_entry >= margin:
                    if times[-1] < t:
                        emit(t, y)
                    break
            else:
                ball_entry = None

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        controls=np.array(controls, dtype=float) if controls is not None else None,
        outcome=outcome,
    )


def _counted_reference(rhs, ic, cfg, **kwargs):
    """The reference run and the IntegratorStats its attempts add up to."""
    calls = []

    def attempt(*args):
        h = args[2]
        try:
            out = _zip_attempt(*args)
        except ArithmeticError:
            calls.append((h, math.nan))
            raise
        calls.append((h, out[0]))
        return out

    traj = _reference_integrate(rhs, ic, cfg, attempt=attempt, **kwargs)
    steps = [h for h, err in calls if err <= 1.0]
    rejected = sum(1.0 < err < math.inf for _, err in calls)
    return traj, (len(steps), rejected, len(calls) - len(steps) - rejected,
                  min(steps) if steps else None)


def _assert_same_as_reference(rhs, ic, cfg, reason, control=None, stop_ball=None):
    """``integrate`` and the reference agree bit for bit, the run stops for
    ``reason``, and its counters are those of the reference's attempts."""
    ref, counts = _counted_reference(rhs, ic, cfg, control=control, stop_ball=stop_ball)
    got = integrate(rhs, ic, cfg, control=control, stop_ball=stop_ball)
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.states, ref.states)
    if control is None:
        assert got.controls is None and ref.controls is None
    else:
        assert np.array_equal(got.controls, ref.controls)
    assert got.outcome == ref.outcome
    stats = got.stats
    assert stats.reason == reason
    assert (stats.accepted, stats.rejected, stats.retried, stats.h_min) == counts
    return got


def _generic_cases(n):
    """(rhs, ic, cfg, stop_ball, reason) reaching every exit and retry of the
    loop for state dimension ``n``, each component coupled to the next."""
    nxt = [(i + 1) % n for i in range(n)]
    loose = dict(rtol=1e-6, atol=1e-9, max_step=1e-2)

    def ones(v):
        return [v] * n

    def zero_division(t, y):  # x * 1e-320 underflows to 0 once |x| < 2.5e-4
        return [-1.0 + 0.0 * (1e-320 / (float(y[0]) * 1e-320))] + [-y[i] for i in range(1, n)]

    return [
        (_coupled, [0.3 * (-1) ** i for i in range(n)], IntegratorConfig(t_final=0.6, **loose),
         None, "t_final"),
        (lambda t, y: [-3.0 * y[i] + 0.5 * y[j] for i, j in enumerate(nxt)],
         ones(2e-4), IntegratorConfig(t_final=5.0, **loose), 1e-3, "dwell"),
        (lambda t, y: [y[i] * y[i] + 0.1 * y[j] for i, j in enumerate(nxt)],
         ones(1.0), IntegratorConfig(t_final=2.0, **loose), None, "norm"),
        # the same blow-up, let run on: rejected steps until the step collapses
        (lambda t, y: [y[i] * y[i] + 0.1 * y[j] for i, j in enumerate(nxt)],
         ones(1.0), IntegratorConfig(t_final=2.0, divergence_norm=1e300, **loose),
         None, "collapse"),
        # float ** int raises OverflowError in the stages
        (lambda t, y: [float(v) ** 3 for v in y], ones(1e100),
         IntegratorConfig(t_final=1.0, divergence_norm=1e300), None, "collapse"),
        (zero_division, ones(0.5), IntegratorConfig(t_final=1.0, **loose), None, "collapse"),
        # a field that is inf (a norm of inf) or NaN (of NaN) past y_0 = 1.5
        (lambda t, y: [math.inf if y[0] > 1.5 else 1.0] * n, ones(0.0),
         IntegratorConfig(t_final=3.0, **loose), None, "collapse"),
        (lambda t, y: [math.nan if y[0] > 1.5 else 1.0] * n, ones(0.0),
         IntegratorConfig(t_final=3.0, **loose), None, "collapse"),
        # steps held at max_step end 5e-4 short of each record time, which
        # is under min_step: each such step is stretched onto it
        (lambda t, y: [0.01 * math.cos(t + i) for i in range(n)], ones(1.0),
         IntegratorConfig(rtol=1e-3, atol=1e-6, t_final=1.0, max_step=0.1, min_step=1e-3,
                          record_stride=0.2 + 5e-4), None, "t_final"),
    ]


def _fused_cases(k):
    """(system, variant, ic, cfg, stop_ball, reason) for normal-form loops of
    degeneracy ``k``. The failing drifts act on x_m alone, from x = z = 0
    elsewhere, where the other fields vanish, so z stays 0 at every k."""
    m = k - 1
    p2 = Theorem2Params(c=[1.0] + [0.0] * (m - 1), a=[1.0] * m, b=3.0)
    p3 = Theorem3Params(K=[5.0] + [0.0] * (m - 1), chi_star=[-2.0] + [0.0] * (m - 1))
    loose = dict(rtol=1e-6, atol=1e-9, max_step=1e-2)

    def system(last, first="x1 - z"):
        exprs = (first, *(f"0.5 * x{i} - z * x{i - 1}" for i in range(2, m)), last)
        return NormalFormSystem(k=k, epsilon=0.05, slow_f=ExprSlowField(exprs=exprs))

    def at(xm):
        return [0.0] * (m - 1) + [xm, 0.0]

    smooth = system(f"0.5 * x{m} - z * x{m - 1}", first="1 + x1 + z")
    return [
        (smooth, Thm2(p2), [0.1] * k, IntegratorConfig(t_final=0.5, **loose), None, "t_final"),
        (smooth, Thm2Plus3(p2, p3), [1e-4] * k, IntegratorConfig(t_final=5.0, **loose),
         1e-3, "dwell"),
        (system(f"x{m} * x{m}"), OpenLoop(), at(1.0), IntegratorConfig(t_final=2.0, **loose),
         None, "norm"),
        (system(f"x{m} ** 3"), OpenLoop(), at(1e100),
         IntegratorConfig(t_final=1.0, divergence_norm=1e300), None, "collapse"),
        (system(f"-1 + 0 * (1e-320 / (x{m} * 1e-320))"), OpenLoop(), at(0.5),
         IntegratorConfig(t_final=1.0, **loose), None, "collapse"),
        (system(f"1 + 0 * sqrt(1.5 - x{m})"), OpenLoop(), at(0.0),
         IntegratorConfig(t_final=3.0, **loose), None, "collapse"),
        (system("0.01"), OpenLoop(), at(1.0),
         IntegratorConfig(rtol=1e-3, atol=1e-6, t_final=1.0, max_step=0.1, min_step=1e-3,
                          record_stride=0.2 + 5e-4), None, "t_final"),
    ]


class TestReferenceLoop:
    """The generated loops against the loop they replaced, run verbatim in
    plain Python over :func:`_zip_attempt`: every exit and every retry."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_generic_loop(self, n):
        for rhs, ic, cfg, ball, reason in _generic_cases(n):
            _assert_same_as_reference(rhs, ic, cfg, reason, stop_ball=ball)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_fused_loop(self, k):
        # each closed loop runs on its own generated loop and, behind a
        # plain callable, on the generic one
        for system, variant, ic, cfg, ball, reason in _fused_cases(k):
            rhs, ueval = build_closed_loop(system, variant)
            assert callable(rhs.run)
            for f, u in ((rhs, ueval), (lambda t, y: rhs(t, y), lambda t, y: ueval(t, y))):
                _assert_same_as_reference(f, ic, cfg, reason, control=u, stop_ball=ball)

    def test_sliver_is_stretched_onto_the_record_time(self):
        # steps of max_step = 0.1 end 5e-4 < min_step short of every other
        # record time, so ten steps reach t_final instead of fourteen
        rhs, ic, cfg, _, _ = _generic_cases(2)[-1]
        traj = integrate(rhs, ic, cfg)
        assert traj.times.tolist() == [0.0, *_record_times(0.0, 1.0, 0.2 + 5e-4)]
        assert (traj.stats.accepted, traj.stats.rejected, traj.stats.retried) == (10, 0, 0)


class TestGeneratedAttempt:
    """The generic generated loop, against the reference on random fields,
    states, times and tolerances."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bitwise_equal_to_zip_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            y = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)).tolist()
            t = float(rng.uniform(-5.0, 5.0))
            cfg = IntegratorConfig(rtol=float(10.0 ** rng.uniform(-10, -4)),
                                   atol=float(10.0 ** rng.uniform(-12, -6)),
                                   max_step=float(10.0 ** rng.uniform(-3, -1)),
                                   t_final=t + float(rng.uniform(0.05, 0.3)),
                                   record_stride=float(rng.uniform(0.005, 0.05)))
            ref = _reference_integrate(_coupled, y, cfg, t0=t)
            got = integrate(_coupled, y, cfg, t0=t)
            assert ref.outcome == got.outcome == Outcome.undecided()
            assert np.array_equal(got.times, ref.times)
            assert np.array_equal(got.states, ref.states)

    def test_generated_lazily_and_cached(self):
        code = textwrap.dedent("""
            import slowfast
            from slowfast import sim
            assert sim._loop.cache_info().currsize == 0
            cfg = sim.IntegratorConfig(t_final=0.1)
            for _ in range(2):
                sim.integrate(lambda t, y: -y, [1.0, 2.0, 3.0], cfg)
            info = sim._loop.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1), info
        """)
        src = os.path.dirname(os.path.dirname(slowfast.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestStats:
    """``Trajectory.stats``: one case per stop reason."""

    def test_t_final(self):
        cfg = IntegratorConfig(t_final=1.0, max_step=0.1, record_stride=0.5)
        stats = integrate(lambda t, y: [0.0], [1.0], cfg).stats
        # err is 0 on a constant state: ten steps of max_step, none refused
        assert stats == sim.IntegratorStats("t_final", 10, 0, 0, stats.h_min)
        assert stats.h_min == pytest.approx(0.1)

    def test_dwell(self):
        traj = integrate(decay, [1e-4, -1e-4], config_for(0.01, 10.0), stop_ball=1e-3)
        assert traj.stats.reason == "dwell"
        assert traj.times[-1] == pytest.approx(sim.DWELL + 0.02, abs=5e-3)
        assert classify(traj).is_converged

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_proved(self, n):
        # the generic loop stops at the first record inside {y^T P y <= level}
        # and gives the verdict of the integrated dwell
        cfg = config_for(0.01, 10.0)
        ic = [0.5 * (-1) ** i for i in range(n)]
        proof = (np.eye(n), 5e-7)
        traj = integrate(decay, ic, cfg, stop_ball=1e-3, invariant=proof)
        ref = integrate(decay, ic, cfg, stop_ball=1e-3)
        assert traj.stats.reason == "proved" and ref.stats.reason == "dwell"
        assert np.sum(traj.states[-1] ** 2) <= 5e-7 < np.sum(traj.states[-2] ** 2)
        assert np.array_equal(traj.states, ref.states[:len(traj)])
        assert classify(traj) == traj.outcome == classify(ref)
        assert traj.outcome.is_converged

    def test_proved_at_the_record_of_an_inline_form(self):
        # a full form at n = 60: the run stops at the first record whose V,
        # summed term by term as the loop once wrote it inline, is <= level
        n, level = 60, 5e-7
        rng = np.random.default_rng(60)
        a = rng.standard_normal((n, n)) / n
        P = np.eye(n) + a @ a.T
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        form = [float(P[i, j]) * (1.0 if i == j else 2.0) for i, j in pairs]

        def inline_v(y):
            first, *rest = [p * y[i] * y[j] for p, (i, j) in zip(form, pairs)]
            v = first
            for term in rest:
                v += term
            return v

        cfg = IntegratorConfig(t_final=10.0, max_step=1e-2)
        ic = rng.uniform(-0.5, 0.5, n)
        traj = integrate(decay, ic, cfg, stop_ball=1e-3, invariant=(P, level))
        ref = integrate(decay, ic, cfg, stop_ball=1e-3)
        records = ref.states.tolist()
        assert all(_quadratic(form, y) == inline_v(y) for y in records)
        stop = next(i for i, y in enumerate(records) if i and inline_v(y) <= level)
        assert traj.stats.reason == "proved" and ref.stats.reason == "dwell"
        assert np.array_equal(traj.times, ref.times[:stop + 1])
        assert np.array_equal(traj.states, ref.states[:stop + 1])

    def test_norm(self):
        traj = integrate(lambda t, y: y * y, [1.0], IntegratorConfig(t_final=2.0))
        assert traj.stats.reason == "norm"
        assert traj.outcome == Outcome.diverged(traj.times[-1])
        assert abs(traj.states[-1, 0]) > 1e6
        assert traj.stats.retried == 0 and traj.stats.h_min < 1e-6

    def test_collapse(self):
        traj = integrate(lambda t, y: [math.nan if y[0] > 1.5 else 1.0], [0.0],
                         IntegratorConfig(t_final=3.0, max_step=1e-2))
        stats = traj.stats
        assert stats.reason == "collapse"
        assert traj.outcome == Outcome.diverged(traj.times[-1])
        assert stats.retried > 0 and stats.h_min >= 1e-13

    def test_collapse_before_any_step(self):
        traj = integrate(lambda t, y: [float(v) ** 3 for v in y], [1e100],
                         IntegratorConfig(t_final=1.0, divergence_norm=1e300))
        assert traj.stats == sim.IntegratorStats("collapse", 0, 0, 1, None)
        assert traj.outcome == Outcome.diverged(0.0) and len(traj) == 1

    def test_set_by_sweep_cells(self):
        from slowfast.closedloop import CellRunner

        runner = CellRunner(system=build_planar_example(0.01), variant=OpenLoop(),
                            cfg=config_for(0.01, 10.0))
        assert runner.simulate([0.1, 1.0]).stats.reason == "norm"


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


def _rowwise_csv(traj, path):
    """Reference writer: formats the numpy rows one by one."""
    d = traj.states.shape[1]
    if traj.controls is not None:
        m, u_cols = traj.controls.shape[1], traj.controls
    else:
        m, u_cols = d - 1, np.zeros((traj.times.size, d - 1))
    header = ["t"] + [f"x{i}" for i in range(1, d)] + ["z"] + [f"u{i}" for i in range(1, m + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(traj.times.size):
            row = [traj.times[i], *traj.states[i], *u_cols[i]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class TestTrajectoryCsv:
    def test_bytes_equal_to_row_by_row_formatting(self, tmp_path):
        awkward = [-0.0, 1.0 / 3.0, 5e-324, 1e308, math.inf, -math.inf, 7.0]
        rng = np.random.default_rng(3)
        n = 40
        traj = Trajectory(times=np.linspace(0.0, 0.39, n),
                          states=rng.choice(awkward, size=(n, 3)),
                          controls=rng.choice(awkward, size=(n, 2)),
                          outcome=Outcome.undecided())
        bare = integrate(decay, np.array([1.0 / 3.0, -0.0]),
                         IntegratorConfig(t_final=0.2, record_stride=0.1, max_step=1e-2))
        for name, t in (("awkward", traj), ("bare", bare)):
            write_trajectory_csv(t, tmp_path / f"{name}.csv")
            _rowwise_csv(t, tmp_path / f"{name}_ref.csv")
            data = (tmp_path / f"{name}.csv").read_bytes()
            assert data == (tmp_path / f"{name}_ref.csv").read_bytes()
            assert data.count(b"\n") == len(t) + 1
        fields = set((tmp_path / "awkward.csv").read_text().replace("\n", ",").split(","))
        assert {"-0", "0.33333333333333331", "4.9406564584124654e-324", "1e+308", "inf",
                "-inf"} <= fields

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


class TestCompiler:
    def test_config_numbers_reach_the_compiler_only_in_trees(self, monkeypatch):
        c = 0.7182818284590452
        sources = []

        def capture(src, trees):
            sources.append(src)
            return compile_functions(src, trees)

        monkeypatch.setattr(sim, "compile_functions", capture)
        system = NormalFormSystem(k=2, epsilon=0.01,
                                  slow_f=ExprSlowField(("c * x1 + z",), constants={"c": c}))
        rhs, _ = build_closed_loop(system, OpenLoop())
        assert len(sources) == 1 and repr(c) not in sources[0]
        assert rhs(0.0, np.array([1.0, 0.0]))[0] == c

    def test_shared_trees_are_left_as_they_were(self):
        # the cached trees of a drift are filled into every loop uncopied
        exprs = ("sin(x1) * z + 2.5 * x1 ** 3 - epsilon",)
        tree, = normal_form._drift_trees(exprs)
        dump = ast.dump(tree)
        loops = [sim.compile_loop(["x1", "z", "epsilon"], ["_d, -z, 0.0"], {"_d": tree})[0]
                 for _ in range(2)]
        assert normal_form._drift_trees(exprs) == (tree,)
        assert ast.dump(tree) == dump
        cfg = IntegratorConfig(t_final=0.5, record_stride=0.1, max_step=1e-2)
        first, second = (integrate(rhs, np.array([0.4, -0.3, 0.01]), cfg) for rhs in loops)
        assert first.states.tolist() == second.states.tolist()
        assert first.states[-1, 0] != 0.4


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

    @pytest.mark.parametrize("name", ["rtol", "atol", "max_step", "divergence_norm",
                                      "t_final", "record_stride"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            IntegratorConfig(**{name: value})
