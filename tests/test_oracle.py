"""Closed loops checked against an independent integrator.

scipy's DOP853 (an 8th-order pair) at tight tolerances serves as the
oracle for :func:`slowfast.sim.integrate`; the two share no code.
"""
import numpy as np
import pytest

from slowfast.closedloop import OpenLoop, Thm2, build_closed_loop
from slowfast.control import Theorem2Params
from slowfast.normal_form import ExprSlowField, NormalFormSystem
from slowfast.scenarios import EX1_ICS
from slowfast.sim import classify, config_for, integrate
from slowfast.systems import TunnelDiodeSystem

scipy_integrate = pytest.importorskip("scipy.integrate")

TOL = 1e-6


def _oracle(rhs, ic, t0, t_final, times):
    sol = scipy_integrate.solve_ivp(rhs, (t0, t_final), np.asarray(ic, dtype=float),
                                    method="DOP853", rtol=1e-12, atol=1e-14,
                                    t_eval=times)
    assert sol.status == 0, sol.message
    return sol.y.T


def _states_at(traj, times):
    idx = [int(np.argmin(np.abs(traj.times - t))) for t in times]
    assert traj.times[idx] == pytest.approx(times, abs=1e-12)
    return traj.states[idx]


_cusp_f = ExprSlowField(("1 + x1 + z", "0.5 * x2 - z * z"))


@pytest.mark.parametrize("eps", [0.05, 0.01])
def test_k3_normal_form_thm2_matches_dop853(eps):
    sysm = NormalFormSystem(k=3, epsilon=eps, slow_f=_cusp_f)
    p = Theorem2Params(c=[1.0, 0.0], a=[1.0, 1.0], b=3.0)
    rhs, _ = build_closed_loop(sysm, Thm2(p))
    ic = [0.2, -0.1, 0.3]
    times = [0.5, 1.0, 2.0, 5.0]
    traj = integrate(rhs, ic, config_for(eps, 5.0))
    assert classify(traj).is_converged
    got = _states_at(traj, times)
    assert np.max(np.abs(got - _oracle(rhs, ic, 0.0, 5.0, times))) <= TOL


def test_ex1_stabilizer_segment_matches_dop853():
    # the closed-loop segment of the first ex1 u-run, from the switch state
    sysm = TunnelDiodeSystem(epsilon=0.01)
    rhs_off, _ = build_closed_loop(sysm, OpenLoop())
    rhs_on, _ = build_closed_loop(
        sysm, Thm2(Theorem2Params(c=[4.0, 16.0], a=[1.0, 1.0], b=10.0)))
    switch = integrate(rhs_off, EX1_ICS[0], config_for(0.01, 10.0)).states[-1]
    times = [10.5, 11.0, 12.0, 15.0]
    traj = integrate(rhs_on, switch, config_for(0.01, 15.0), t0=10.0)
    got = _states_at(traj, times)
    assert np.max(np.abs(got - _oracle(rhs_on, switch, 10.0, 15.0, times))) <= TOL
