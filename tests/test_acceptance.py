"""Acceptance gate: every criterion prints one pass/fail line.

The per-criterion lines print through the capture so any pytest run
shows them; criterion 7 sweeps two 41 x 41 grids and dominates the
runtime (34 to 46 s on a shared 2-core VM with Python 3.11).
"""
import os
import time

import pytest

from slowfast.scenarios import (
    default_ex2_grid,
    run_ex1,
    run_ex2_matrix,
    run_ex2_roa,
)
from slowfast.systems import diode_fold_points
from slowfast.verification import run_suites

JOBS = max(1, os.cpu_count() or 1)


def _report(capsys, num, name, passed, detail, wall, budget):
    status = "PASS" if passed and wall < budget else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} ({detail}; {wall:.2f}s of {budget:g}s)"
    with capsys.disabled():  # the gate lines must reach the terminal
        print(line)
    assert passed, f"criterion {num} ({name}): {detail}"
    assert wall < budget, f"criterion {num} exceeded {budget}s ({wall:.1f}s)"


@pytest.fixture(scope="module")
def ex2_matrix():
    t0 = time.perf_counter()
    report = run_ex2_matrix()
    return report, time.perf_counter() - t0


def test_criterion_1_fold_points(capsys):
    t0 = time.perf_counter()
    folds = diode_fold_points()
    err = max(
        abs(folds[0][0] - 2.0), abs(folds[0][1] - 20.0),
        abs(folds[1][0] - 4.0), abs(folds[1][1] - 16.0),
    )
    _report(capsys, 1, "fold-points", err <= 1e-9, f"max abs err {err:.2e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_eigenvalue_certificate(capsys):
    t0 = time.perf_counter()
    res = run_suites(seed=0, names=["eigenvalues"])[0]
    _report(capsys, 2, "eigenvalue-certificate", res.passed,
            f"200 draws, max err {res.max_err:.2e} vs 1e-9",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_blowup_algebra(capsys):
    t0 = time.perf_counter()
    results = run_suites(
        seed=0, names=["quasihomogeneity", "chart-roundtrip", "blowdown-identity"]
    )
    detail = ", ".join(f"{r.name} {r.max_err:.1e}<={r.tol:.0e}" for r in results)
    _report(capsys, 3, "blowup-algebra", all(r.passed for r in results), detail,
            time.perf_counter() - t0, 5.0)


def test_criterion_4_conjugacy(capsys):
    t0 = time.perf_counter()
    res = run_suites(seed=0, names=["conjugacy"])[0]
    _report(capsys, 4, "family-chart-conjugacy", res.passed,
            f"max rel err {res.max_err:.2e} vs 1e-5 over t in [0,1]",
            time.perf_counter() - t0, 10.0)


def test_criterion_5_circuit_reproduction(capsys):
    t0 = time.perf_counter()
    rep = run_ex1()
    detail = (
        f"stabilizer final norms {max(rep.final_norms_u):.1e}<1e-2, "
        f"benchmark {max(rep.final_norms_v):.1e}<5e-2, "
        f"gain ratio {rep.ratio:.3f}<0.15"
    )
    _report(capsys, 5, "circuit-reproduction", rep.passed, detail,
            time.perf_counter() - t0, 30.0)


def test_criterion_6_planar_matrix(ex2_matrix, capsys):
    report, wall = ex2_matrix
    detail = (
        f"K*={report.K_star:g}, baseline diverges from "
        f"{list(report.diverging_ic_k0)} at eps=0.01"
    )
    _report(capsys, 6, "planar-matrix", report.contract_ok, detail, wall, 30.0)


def test_criterion_7_roa_enlargement(ex2_matrix, capsys):
    report, _ = ex2_matrix
    t0 = time.perf_counter()
    comp, base, cmp = run_ex2_roa(
        report.K_star, grid=default_ex2_grid(41), jobs=JOBS
    )
    detail = (
        f"41x41 grid: converged {cmp.converged_a} (K={report.K_star:g})"
        f" > {cmp.converged_b} (K=0)"
    )
    _report(capsys, 7, "roa-enlargement", cmp.a_larger, detail,
            time.perf_counter() - t0, 600.0)


def test_criterion_8_directional_chart_tangency(capsys):
    t0 = time.perf_counter()
    res = run_suites(seed=0, names=["tangency"])[0]
    _report(capsys, 8, "directional-tangency", res.passed,
            f"500 samples, max rel err {res.max_err:.2e} vs 1e-8",
            time.perf_counter() - t0, 5.0)
