"""slowfast benchmark: one workload per run, checked, timed, optionally traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {ex1,roa-planar,roa-custom} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is
installed. A run repeats the workload until ``--seconds`` have passed and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (medians over the repetitions); with ``--trace 1``
untraced and traced repetitions alternate and the metrics are the per-layer
ones from :mod:`tracing`, taken with one job. The lines before it repeat every metric with its
unit and give the machine, the seed and the check counts. See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 15  # at least, per untraced run
PROBE_EVERY_S = 2.0  # a set-up probe per this many seconds of repetition

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "cells_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {
        "sim.integrate.calls": "count", "sim.integrate.s": "s",
        "sim.integrate.self_s": "s", "sim.rhs.calls": "count",
        "sim.write_trajectory_csv.s": "s", "sim.write_trajectory_csv.bytes": "bytes",
        "closedloop.rhs.us": "us", "closedloop.rhs.self_s": "s",
        "closedloop.build_closed_loop.calls": "count",
        "closedloop.build_closed_loop.s": "s",
        "closedloop.ExprSlowField.calls": "count", "closedloop.ExprSlowField.s": "s",
        "fastcell.classify_planar_cell.calls": "count",
        "fastcell.classify_planar_cell.s": "s",
        "roa.sweep.K0.s": "s", "roa.sweep.K50.s": "s", "roa.tail_share": "frac",
        "roa.parallel_efficiency": "frac", "roa.write_report_csv.s": "s",
        "systems.rhs.calls": "count", "systems.rhs.s": "s", "systems.controller.s": "s",
        "control.highgain_control.calls": "count", "control.highgain_control.s": "s",
        "scenarios.simulate_switched.calls": "count", "scenarios.run_ex1.self_s": "s",
        "trace.overhead_frac": "frac",
    }
    for label in ("K0", "K50"):
        units[f"closedloop.CellRunner.cells.{label}"] = "count"
        units[f"closedloop.CellRunner.cell_p50_ms.{label}"] = "ms"
        units[f"closedloop.CellRunner.cell_p90_ms.{label}"] = "ms"
        for kind in ("converged", "diverged", "undecided"):
            units[f"roa.{kind}.{label}"] = "count"
    return units


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_info(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


class Runner:
    """Repeats one workload, checks every repetition, collects the numbers."""

    def __init__(self, work, workdir: str):
        self.work = work
        self.out_dir = os.path.join(workdir, "out")
        self.attempted = 0
        self.failed = 0
        self.last_check: dict = {}

    def rep(self, tracer=None, serial=False) -> dict:
        """One timed repetition, then its checks; {} when the workload raised.

        ``serial`` runs the sweeps with one job whatever the workload's jobs.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = self.work.run(self.out_dir, tracer=tracer, serial=serial)
        except Exception:  # noqa: BLE001 - a raising workload is a failed repetition
            traceback.print_exc()
            self.attempted += self.work.ops
            self.failed += self.work.ops
            return {}
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        check = self.work.check(result, self.out_dir)
        self.attempted += check["attempted"]
        self.failed += check["failed"]
        self.last_check = check
        return {"wall": wall, "cpu": cpu, "cells": check["cells"],
                "sweep_s": dict(self.work.sweep_s)}


def measure(runner: Runner, seconds: float, args) -> tuple[dict, dict]:
    """End-to-end metrics: medians over untraced repetitions and set-up probes.

    Repetitions run until ``seconds`` have passed (at least one). Set-up
    probes follow each, in proportion to its length, so that the probes
    sample the same stretch of a noisy machine as the repetitions, not a
    single moment of it.
    """
    reps: list[dict] = []
    probes: list[float] = []
    children_kb = 0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        t = runner.rep()
        if not t:
            break
        reps.append(t)
        if len(reps) == 1:
            # the pool workers' peak, read before any probe: probes are children too
            children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probes += setup_seconds(args, max(1, round(t["wall"] / PROBE_EVERY_S)))
    if not reps:
        return {}, {}
    probes += setup_seconds(args, SETUP_PROBES - len(probes))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb
    return {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "cells_per_s": statistics.median(r["cells"] / r["wall"] for r in reps),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": peak_kb / 1024.0,
    }, {"rep_walls": [r["wall"] for r in reps], "setup_probes": probes}


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, bool]:
    """Per-layer medians over samples of two or three repetitions each.

    A sample is an untraced and a traced repetition, both with one job, so
    that every span lands in this process and ``trace.overhead_frac``
    compares like with like. A workload that fans out first runs untraced
    with its own jobs, for the sweep walls.
    """
    from tracing import Tracer

    jobs = runner.work.jobs
    samples: list[dict] = []
    untraced: list[float] = []
    traced: list[float] = []
    restored = True
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        fanned = runner.rep() if jobs > 1 else None
        plain = runner.rep(serial=True)
        tracer = Tracer()
        with tracer:
            t = runner.rep(tracer, serial=True)
        restored = restored and tracer.restored
        if not plain or not t or (jobs > 1 and not fanned):
            return {}, restored
        untraced.append(plain["wall"])
        traced.append(t["wall"])
        samples.append(layer_metrics(tracer, runner.last_check, jobs,
                                     (fanned or plain)["sweep_s"], plain["sweep_s"]))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, restored


def layer_metrics(tracer, check: dict, jobs: int, sweep_s: dict,
                  serial_sweep_s: dict) -> dict:
    """Per-layer numbers of one traced repetition.

    ``sweep_s`` holds the untraced sweep wall of each variant with the
    workload's jobs, ``serial_sweep_s`` the same with one job: a serial
    sweep's wall is the sum of its cell seconds.
    """
    def calls(name):
        return tracer.spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return tracer.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tracer.spans.get(name, [0, 0.0, 0.0])[2]

    m = {
        "sim.integrate.calls": calls("sim.integrate"),
        "sim.integrate.s": total("sim.integrate"),
        "sim.integrate.self_s": self_s("sim.integrate"),
        "sim.rhs.calls": calls("closedloop.rhs"),
        "sim.write_trajectory_csv.s": total("sim.write_trajectory_csv"),
        "sim.write_trajectory_csv.bytes": tracer.counts.get("sim.write_trajectory_csv.bytes", 0),
        "closedloop.rhs.us": 1e6 * total("closedloop.rhs") / max(1, calls("closedloop.rhs")),
        "closedloop.rhs.self_s": self_s("closedloop.rhs"),
        "closedloop.build_closed_loop.calls": calls("closedloop.build_closed_loop"),
        "closedloop.build_closed_loop.s": total("closedloop.build_closed_loop"),
        "closedloop.ExprSlowField.calls": calls("closedloop.ExprSlowField"),
        "closedloop.ExprSlowField.s": total("closedloop.ExprSlowField"),
        "fastcell.classify_planar_cell.calls": calls("fastcell.classify_planar_cell"),
        "fastcell.classify_planar_cell.s": total("fastcell.classify_planar_cell"),
        "roa.write_report_csv.s": total("roa.write_report_csv"),
        "systems.rhs.calls": calls("systems.rhs"),
        "systems.rhs.s": total("systems.rhs"),
        "systems.controller.s": total("systems.controller"),
        "control.highgain_control.calls": calls("control.highgain_control"),
        "control.highgain_control.s": total("control.highgain_control"),
        "scenarios.simulate_switched.calls": calls("scenarios.simulate_switched"),
        "scenarios.run_ex1.self_s": self_s("scenarios.run_ex1"),
    }
    all_cells = sorted(t for times in tracer.cells.values() for t in times)
    for label in ("K0", "K50"):
        times = tracer.cells.get(label, [])
        m[f"roa.sweep.{label}.s"] = sweep_s.get(label, 0.0)
        m[f"closedloop.CellRunner.cells.{label}"] = len(times)
        m[f"closedloop.CellRunner.cell_p50_ms.{label}"] = 1e3 * _percentile(times, 0.5)
        m[f"closedloop.CellRunner.cell_p90_ms.{label}"] = 1e3 * _percentile(times, 0.9)
        for kind in ("converged", "diverged", "undecided"):
            m[f"roa.{kind}.{label}"] = check.get(kind, {}).get(label, 0)
    tail = all_cells[len(all_cells) - math.ceil(len(all_cells) / 20):]
    m["roa.tail_share"] = sum(tail) / sum(all_cells) if all_cells else 0.0
    sweep_wall = sum(sweep_s.values())
    m["roa.parallel_efficiency"] = (
        sum(serial_sweep_s.values()) / (jobs * sweep_wall) if sweep_wall > 0 else 0.0)
    return m


def setup_seconds(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh interpreters, each importing and building once."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(n):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import slowfast from it."""
    if not os.path.isfile(os.path.join(SRC, "slowfast", "__init__.py")):
        raise SystemExit(f"perfbench: no slowfast sources under {SRC}")
    sys.path.insert(0, SRC)
    import slowfast

    if os.path.dirname(os.path.dirname(os.path.abspath(slowfast.__file__))) != SRC:
        raise SystemExit(f"perfbench: slowfast imported from {slowfast.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = len(os.sched_getaffinity(0))  # nproc; roa-planar fans out over all of them
    if args.setup_probe:
        t0 = time.perf_counter()
        import_package()
        workloads.setup(args.workload, args.seed, workloads.load_reference(REFERENCE), jobs)
        print(repr(time.perf_counter() - t0))
        return 0

    import_package()
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        work = workloads.setup(args.workload, args.seed,
                               workloads.load_reference(REFERENCE), jobs)
        runner = Runner(work, workdir)
        restored = True
        if args.trace:
            metrics, restored = measure_traced(runner, args.seconds)
            units, samples = per_layer_units(), {}
        else:
            metrics, samples = measure(runner, args.seconds, args)
            units = END_TO_END_UNITS
        if not metrics:
            print("perfbench: no repetition completed", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and restored
    failed_frac = runner.failed / max(1, runner.attempted)
    info = {**machine_info(args.seed), "workload": args.workload, "trace": args.trace,
            **samples,
            "lattices": getattr(work, "lattices", None),
            "checks": runner.last_check.get("checks"),
            "failed_frac": failed_frac, "tracer_restored": restored}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name in units:
        value = metrics[name]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:45s} {shown} {units[name]}")
    print(f"  {'failed_frac':45s} {failed_frac:.6g} frac "
          f"({runner.failed}/{runner.attempted})")
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
