"""Lyapunov certificates and the sweep cells that stop on them.

The proof must refuse whatever it cannot prove, and a refused loop keeps
the integrated dwell with today's outcome; a cell stopped by a proof must
classify as the integrated dwell would.
"""
import ast
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import slowfast
from slowfast import closedloop, lyapunov, poly
from slowfast.closedloop import CellRunner, OpenLoop, Thm2, Thm2Plus3, certificate
from slowfast.control import Theorem2Params, Theorem3Params
from slowfast.expr import parse_expression, walk
from slowfast.normal_form import ExprSlowField, NormalFormSystem
from slowfast.scenarios import build_system, build_variant, parse_config
from slowfast.sim import BALL, DWELL, classify, config_for, integrate
from slowfast.systems import build_planar_example

EPS = 0.01
P2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)
K0 = Thm2(P2)
K50 = Thm2Plus3(P2, Theorem3Params(K=[50.0], chi_star=[-2.0]))
PLANAR = build_planar_example(EPS)
NAMES = ["x1", "z"]


def _custom_fold():
    """The planar fold as a custom config system, c left to default."""
    cfg = parse_config({"system": {"builtin": "custom", "k": 2, "f": ["1 + x1 + z"]},
                        "controller": {"type": "thm2", "a": [1.0], "b": 3.0},
                        "epsilon": EPS, "ics": [[0.0, 0.0]], "t_final": 10.0})
    system = build_system(cfg)
    return system, build_variant(cfg, system)


def _cusp():
    """A k = 3 normal form under the baseline law (n = 3)."""
    system = NormalFormSystem(k=3, epsilon=0.05,
                              slow_f=ExprSlowField(("1 + x1 + z", "0.5 * x2 - z * x1")))
    return system, Thm2(Theorem2Params(c=[1.0, 0.0], a=[1.0, 1.0], b=3.0))


def _fold(expr):
    return NormalFormSystem(k=2, epsilon=EPS, slow_f=ExprSlowField((expr,)))


def _field(system, variant):
    """(c, J, B) of a closed loop, expanded from the trees it compiles."""
    trees = closedloop._trees(system, variant)
    m = system.n_slow
    field = [ast.BinOp(trees[f"_f{i}"], ast.Add(), trees[f"_v{i}"]) for i in range(1, m + 1)]
    names = [f"x{i}" for i in range(1, m + 1)] + ["z"]
    polys = [poly.expand(tree, names) for tree in [*field, trees["_g"]]]
    return lyapunov._split(polys, m + 1)


@pytest.fixture
def fresh_certificates():
    closedloop._certificate.cache_clear()
    yield
    closedloop._certificate.cache_clear()


def _today(system, variant, ic):
    """A cell as it ran before proofs: the integrated dwell, classified."""
    rhs, _, _ = closedloop.build_closed_loop(system, variant)
    traj = integrate(rhs, np.asarray(ic, dtype=float), config_for(system.epsilon, 10.0),
                     stop_ball=BALL)
    return traj, classify(traj)


class TestLyapunovMatrix:
    def test_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(5)
        Js = [_field(PLANAR, K0)[1], _field(*_cusp())[1]]
        for n in (1, 2, 3, 4, 5):
            A = rng.standard_normal((n, n))
            Js.append(A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n))
        for J in Js:
            P = lyapunov.lyapunov_matrix(J)
            ref = linalg.solve_continuous_lyapunov(J.T, -np.eye(len(J)))
            assert np.allclose(P, ref, rtol=1e-10, atol=1e-14 * np.abs(ref).max())
            assert np.array_equal(P, P.T)

    def test_planar_jacobian(self):
        c, J, _ = _field(PLANAR, K0)
        assert np.array_equal(c, [0.0, 0.0])
        px, bz = 100.0 ** (2.0 / 3.0), 3.0 * 100.0 ** (1.0 / 3.0)
        assert np.allclose(J, [[1.0 - px, 1.0 + bz], [-100.0, 0.0]], rtol=1e-14)
        assert np.linalg.eigvals(J) == pytest.approx([-10.272 + 37.242j, -10.272 - 37.242j],
                                                      abs=1e-3)


class TestExpand:
    @pytest.mark.parametrize("src", [
        "1 + x1 + z", "-(z * z + x1) / 0.01", "50 * (x1 * z + (-z) ** 3.0 * -2)",
        "(x1 - 2 * z) ** 4 / 3 - +x1 * (z + 1) ** 0", "-(3 * z * z + x1 + z ** 3) / 2",
    ])
    def test_agrees_with_walk(self, src):
        tree = parse_expression(src, {"x1": "x1", "z": "z"})
        expanded = poly.expand(tree, NAMES)
        rng = np.random.default_rng(1)
        for x1, z in rng.uniform(-2.0, 2.0, size=(20, 2)).tolist():
            value = sum(c * x1 ** e[0] * z ** e[1] for e, c in expanded.items())
            assert value == pytest.approx(walk(tree, {"x1": x1, "z": z}), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("src", [
        "sin(z)", "z ** 2.5", "x1 ** 400", "z ** -1", "x1 / z", "x1 / (z - z)",
        "x1 ** 7 * z ** 6", "exp(0)",
    ])
    def test_refuses(self, src):
        tree = parse_expression(src, {"x1": "x1", "z": "z"})
        with pytest.raises(poly.NotPolynomial):
            poly.expand(tree, NAMES)

    def test_degree_cap(self):
        cap = poly.MAX_DEGREE
        ok = parse_expression(f"(x1 + z) ** {cap}", {"x1": "x1", "z": "z"})
        assert max(sum(e) for e in poly.expand(ok, NAMES)) == cap
        with pytest.raises(poly.NotPolynomial):
            poly.expand(parse_expression(f"(x1 + z) ** {cap + 1}", {"x1": "x1", "z": "z"}),
                        NAMES)


class TestProof:
    @pytest.mark.parametrize("system, variant", [(PLANAR, K0), (PLANAR, K50), _cusp()])
    def test_certificate_is_proved(self, system, variant):
        P, level = certificate(system, variant)
        assert lyapunov.proves(_field(system, variant), P, level, BALL)
        # the set lies inside half the ball, and not far inside it
        radius = math.sqrt(level / np.linalg.eigvalsh(P)[0])
        assert BALL / 2 / math.sqrt(len(P)) <= radius <= BALL / 2

    def test_corrupted_p_refused(self):
        field = _field(PLANAR, K0)
        P, level = certificate(PLANAR, K0)
        flipped = P * np.array([[1.0, -1.0], [-1.0, 1.0]])
        for bad in (np.eye(2), flipped, -P, 0.0 * P, P + [[0.0, 0.1], [0.0, 0.0]],
                    np.where(P == P[0, 0], math.nan, P)):
            assert not lyapunov.proves(field, bad, level, BALL)

    def test_inflated_level_refused(self):
        field = _field(PLANAR, K0)
        P, level = certificate(PLANAR, K0)
        for bad in (4.0 * level, 1e6 * level, math.inf, 0.0, -level):
            assert not lyapunov.proves(field, P, bad, BALL)
        # a larger ball admits a larger level, until the remainder wins
        assert lyapunov.proves(field, P, 1e2 * level, 1.0)
        assert not lyapunov.proves(field, P, 1e4 * level, 1.0)

    def test_constant_term_must_be_tiny(self):
        c, J, B = _field(PLANAR, K0)
        P, level = certificate(PLANAR, K0)
        assert lyapunov.proves((c + 1e-9, J, B), P, level, BALL)
        assert not lyapunov.proves((c + 1e-3, J, B), P, level, BALL)


class TestRefusedLoopsKeepTheDwell:
    """A loop without a certificate runs its cells exactly as before."""

    CASES = {
        "sin": (_fold("1 + x1 + z + 0.5 * sin(x1)"), K0, [0.05, -0.05]),
        "fractional power": (_fold("1 + x1 + z + (x1 * x1) ** 1.5"), K0, [0.05, -0.05]),
        "over-cap power": (_fold("1 + x1 + z + x1 ** 400"), K0, [0.05, -0.05]),
        "strong remainder": (_fold("1 + x1 + z + 1e4 * z * z"), K0, [2e-4, -2e-4]),
        "non-Hurwitz": (PLANAR, OpenLoop(), [0.1, 1.0]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_no_certificate(self, case):
        system, variant, ic = self.CASES[case]
        assert certificate(system, variant) is None
        runner = CellRunner(system, variant, config_for(EPS, 10.0))
        traj = runner.simulate(ic)
        ref, outcome = _today(system, variant, ic)
        assert traj.stats == ref.stats and traj.stats.reason != "proved"
        assert np.array_equal(traj.states, ref.states)
        assert runner(ic) == outcome
        if case != "non-Hurwitz":
            assert traj.stats.reason == "dwell" and outcome.is_converged

    @pytest.mark.parametrize("corrupt", ["P", "level"])
    def test_corrupted_certificate_refused_in_the_loop(self, corrupt, monkeypatch,
                                                       fresh_certificates):
        if corrupt == "P":
            monkeypatch.setattr(lyapunov, "lyapunov_matrix", lambda J: np.eye(len(J)))
        else:
            monkeypatch.setattr(lyapunov, "LEVEL_RADIUS", 0.8)
        assert certificate(PLANAR, K0) is None
        ic = [-2.0, 2.0]
        runner = CellRunner(PLANAR, K0, config_for(EPS, 10.0))
        assert runner.simulate(ic).stats.reason == "dwell"
        assert runner(ic) == _today(PLANAR, K0, ic)[1]


def _cells(system, variant, box, n, seed):
    """``n`` seeded cells in [-box, box]^dim and the runner that classifies them."""
    runner = CellRunner(system, variant, config_for(system.epsilon, 10.0))
    dim = system.n_slow + 1
    return runner, np.random.default_rng(seed).uniform(-box, box, size=(n, dim))


ORACLE_LOOPS = {
    "planar K=0": (PLANAR, K0, 3.0),
    "planar K=50": (PLANAR, K50, 3.0),
    "custom fold": (*_custom_fold(), 3.0),
    "k=3 thm2": (*_cusp(), 1.0),
}


@pytest.mark.parametrize("loop", ORACLE_LOOPS)
def test_proved_cells_classify_as_the_integrated_dwell(loop):
    """Each proved cell of a seeded sample stays in the ball for DWELL past
    its stop, and its full integrated dwell gives the same verdict."""
    system, variant, box = ORACLE_LOOPS[loop]
    runner, ics = _cells(system, variant, box, 14, seed=16)
    rhs, _, _ = closedloop.build_closed_loop(system, variant)
    proved = 0
    for ic in ics:
        traj = runner.simulate(ic)
        if traj.stats.reason != "proved":
            continue
        proved += 1
        t_stop = traj.times[-1]
        after = integrate(rhs, traj.states[-1], replace(runner.cfg, t_final=t_stop + DWELL),
                          t0=t_stop)
        assert after.stats.reason == "t_final"
        assert np.all(np.linalg.norm(after.states, axis=1) < BALL)
        ref, outcome = _today(system, variant, ic)
        assert ref.stats.reason == "dwell"
        assert runner(ic) == classify(traj) == outcome
        assert np.array_equal(ref.times[:len(traj)], traj.times)
    assert proved >= 3


@pytest.mark.parametrize("loop", ["planar K=0", "planar K=50", "custom fold"])
def test_sweep_loops_stop_on_the_proof(loop):
    # a change that quietly refused every proof would only slow the sweeps
    system, variant, _ = ORACLE_LOOPS[loop]
    traj = CellRunner(system, variant, config_for(EPS, 10.0)).simulate([-2.0, 2.0])
    assert traj.stats.reason == "proved"
    assert classify(traj).is_converged


def test_proved_too_late_is_undecided():
    """A proof at a record too close to t_final gives what the dwell would."""
    cfg = config_for(EPS, 1.2)
    ic = [-2.0, 2.0]  # enters the ball at t = 0.61
    rhs, _, _ = closedloop.build_closed_loop(PLANAR, K0)
    traj = integrate(rhs, ic, cfg, stop_ball=BALL, invariant=certificate(PLANAR, K0))
    ref = integrate(rhs, ic, cfg, stop_ball=BALL)
    assert traj.stats.reason == "proved" and ref.stats.reason == "t_final"
    assert classify(traj) == classify(ref) == classify(ref).undecided()


def test_trajectory_runs_never_stop_on_the_proof():
    cfg = config_for(EPS, 3.0)
    rhs, _, _ = closedloop.build_closed_loop(PLANAR, K0)
    proof = certificate(PLANAR, K0)
    traj = integrate(rhs, [-2.0, 2.0], cfg, invariant=proof)
    ref = integrate(rhs, [-2.0, 2.0], cfg)
    assert traj.stats == ref.stats and traj.stats.reason == "t_final"
    assert np.array_equal(traj.states, ref.states)


def test_imported_by_sweeps_only():
    # no scipy anywhere in the package, and the proof is compiled only
    # once a sweep cell asks for a certificate
    code = textwrap.dedent("""
        import sys
        import slowfast.cli, slowfast.scenarios
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert "slowfast.lyapunov" not in sys.modules
        from slowfast import closedloop, systems
        closedloop.certificate(systems.build_planar_example(0.01), closedloop.OpenLoop())
        assert "slowfast.lyapunov" in sys.modules
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
    """)
    src = os.path.dirname(os.path.dirname(slowfast.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
