"""Acceptance gate: every criterion prints one pass/fail line.

The per-criterion lines print through the capture so any pytest run
shows them; criterion 7 sweeps two 41 x 41 grids and dominates the
runtime (19 to 23 s on a shared 2-core VM with Python 3.11). Its two
reports are also checked cell for cell against the outcomes recorded in
``perfbench/reference.json``, without sweeping the grids again, and the
outputs of ``ex1`` and ``ex2 --skip-roa``, written once by the module
fixtures, byte for byte against their recorded SHA-256.
"""
import hashlib
import json
import os
import time
from pathlib import Path

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
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
KIND_CODE = {"converged": "c", "diverged": "d", "undecided": "u"}

# SHA-256 of every output of ``slowfast ex1`` and ``slowfast ex2 --skip-roa``
OUTPUT_SHA256 = dict(line.split() for line in """
ex1_summary.txt 3e1e84d78c45dce4836eb4bbe9fee1a66f4557868c41735e1b7df8b816b266bd
ex1_u_fold_probe.csv f0c7fc807383138f1877e6099110164da561bd932539d40ce8039ab912ec677b
ex1_u_ic0.csv b6060c00329f0d86bba4d37b917342e61f751b7d8f874c9ecef51c177b228c02
ex1_u_ic1.csv 5d20017a54f0cf580f62079803632abe85fee1ffd46667a523a9747941ffc97d
ex1_v_ic0.csv 6dd6e9f567899dfe928032782dbde348208079d10e9cf0809505f30c6c286b41
ex1_v_ic1.csv f56e7ff9f5f8f3d164785426dc68f4896b5bdd8d141866ffa7a692191fdc27d2
ex1_v_literal_ic0.csv dd71bcbac2f2a5db3a6622a7b249d76a89c5c34519ff2018d9bfc042dbaead86
ex2_K0_eps0p01_ic0.csv 447f0e8442ec7abfddcec228272f708a76c8689cd94aae51beddad20062b343f
ex2_K0_eps0p01_ic1.csv 05c1237f056c10106922ee2f46cde1c6d227d7f81e0234e639c3475d718e3b0b
ex2_K0_eps0p05_ic0.csv ad54ef93b22fcac6ab83fd4b898ae5c05cac6bbf56d3fe9ab38d1a75f2048106
ex2_K0_eps0p05_ic1.csv 280ff453ff97f228bdbeaa9883623d25ba7169d93d11bb91bd7eb2e1f13d49e9
ex2_K50_eps0p01_ic0.csv 30b771f2718717ce61dcbc7ed8a24bdd2daa23a3d32d1c48e68687246de0ca01
ex2_K50_eps0p01_ic1.csv ba8108b7cfd9b5a5273cd9ed86cad04ebd8032a0362bdcc81092e98ca25bdc8a
ex2_K50_eps0p05_ic0.csv dd9c8c82fad0eeade1ba05f1ef9ace2ae063b96089709e7030628fa6ccf36106
ex2_K50_eps0p05_ic1.csv 4b0f75cc2d589560d6bee4ec581058a09786783c3d03137df73bf28b9a675edb
ex2_open-loop_eps0p01_ic0.csv 0afc44f124ff4154ce484f40548dc28b92cbb22cf41308e018f27f52cb9e8057
ex2_open-loop_eps0p01_ic1.csv a1a6c07f2dfe47ba3315d10409e222a5ef8c1b971d9efdb8c995485d1b754995
ex2_open-loop_eps0p05_ic0.csv 74d5d115f5982a813d48205517104b398faf00733e71c40e7c15f2ad7c16e1f9
ex2_open-loop_eps0p05_ic1.csv 36013273db40ca118078e4dda0acf5739dc4b6018311c76a7a9493375b032838
ex2_summary.txt 8f11a1b3992200dda71d8f2c5c0830b9ba043005ed76ee4d42712ac06bc2b085
""".strip().splitlines())


def _report(capsys, num, name, passed, detail, wall, budget):
    status = "PASS" if passed and wall < budget else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status} ({detail}; {wall:.2f}s of {budget:g}s)"
    with capsys.disabled():  # the gate lines must reach the terminal
        print(line)
    assert passed, f"criterion {num} ({name}): {detail}"
    assert wall < budget, f"criterion {num} exceeded {budget}s ({wall:.1f}s)"


@pytest.fixture(scope="module")
def ex1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1")
    t0 = time.perf_counter()
    report = run_ex1(out_dir=out)
    return report, time.perf_counter() - t0, out


@pytest.fixture(scope="module")
def ex2_matrix(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex2")
    t0 = time.perf_counter()
    report = run_ex2_matrix(out_dir=out)
    return report, time.perf_counter() - t0, out


@pytest.fixture(scope="module")
def roa_reports(ex2_matrix):
    report, _, _ = ex2_matrix
    t0 = time.perf_counter()
    reports = run_ex2_roa(report.K_star, grid=default_ex2_grid(41), jobs=JOBS)
    return reports, time.perf_counter() - t0


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


def test_criterion_5_circuit_reproduction(ex1_run, capsys):
    rep, wall, _ = ex1_run
    detail = (
        f"stabilizer final norms {max(rep.final_norms_u):.1e}<1e-2, "
        f"benchmark {max(rep.final_norms_v):.1e}<5e-2, "
        f"gain ratio {rep.ratio:.3f}<0.15"
    )
    _report(capsys, 5, "circuit-reproduction", rep.passed, detail, wall, 30.0)


def test_criterion_6_planar_matrix(ex2_matrix, capsys):
    report, wall, _ = ex2_matrix
    detail = (
        f"K*={report.K_star:g}, baseline diverges from "
        f"{list(report.diverging_ic_k0)} at eps=0.01"
    )
    _report(capsys, 6, "planar-matrix", report.contract_ok, detail, wall, 30.0)


def test_criterion_7_roa_enlargement(ex2_matrix, roa_reports, capsys):
    report, _, _ = ex2_matrix
    (_, _, cmp), wall = roa_reports
    detail = (
        f"41x41 grid: converged {cmp.converged_a} (K={report.K_star:g})"
        f" > {cmp.converged_b} (K=0)"
    )
    _report(capsys, 7, "roa-enlargement", cmp.a_larger, detail, wall, 600.0)


def test_criterion_7_grids_match_reference(ex2_matrix, roa_reports):
    """Both 41 x 41 grids classify cell for cell as the recorded reference."""
    report, _, _ = ex2_matrix
    (comp, base, _), _ = roa_reports
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert ref["grid"]["n"] == 41 and report.K_star == 50.0
    for label, rep in (("K0", base), ("K50", comp)):
        got = "".join(KIND_CODE[o.kind] for o in rep.outcomes)
        diff = [i for i, (g, e) in enumerate(zip(got, ref["roa"][label])) if g != e]
        assert len(got) == len(ref["roa"][label]) and not diff, (
            f"{label}: {len(diff)} cells differ from the reference, first {diff[:10]}")


def test_reproduction_outputs_match_the_recorded_hashes(ex1_run, ex2_matrix):
    """The 7 outputs of ``ex1`` and the 13 of ``ex2 --skip-roa`` are byte for
    byte those recorded."""
    files = {p.name: p for _, _, out in (ex1_run, ex2_matrix) for p in out.iterdir()}
    assert sorted(files) == sorted(OUTPUT_SHA256)
    changed = [name for name, path in files.items()
               if hashlib.sha256(path.read_bytes()).hexdigest() != OUTPUT_SHA256[name]]
    assert not changed, f"outputs differ from the recorded ones: {sorted(changed)}"


def test_criterion_8_directional_chart_tangency(capsys):
    t0 = time.perf_counter()
    res = run_suites(seed=0, names=["tangency"])[0]
    _report(capsys, 8, "directional-tangency", res.passed,
            f"500 samples, max rel err {res.max_err:.2e} vs 1e-8",
            time.perf_counter() - t0, 5.0)
