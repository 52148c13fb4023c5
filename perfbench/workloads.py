"""The three benchmark workloads: inputs from a seed, one repetition, checks.

Each workload object is built by :func:`setup` (the part timed as
``setup_s``), runs one repetition with :meth:`run` (the timed part,
output files included) and judges that repetition's outputs with
:meth:`check` against the recorded reference and against seed-independent
contracts. Every call into the package goes through its public API, by
module attribute, so that a tracer's patches see it.

Nothing here imports numpy or slowfast at module level, so that
``setup_s`` includes the package import a user pays for.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time

WORKLOADS = ("ex1", "roa-planar", "roa-custom")

EPSILON = 0.01
T_FINAL = 10.0
GRID_N = 41  # the criterion-7 node set on [-3, 3]^2
STRIDE = 8

_COMMON = {"epsilon": EPSILON, "ics": [[0.0, 0.0]], "t_final": T_FINAL}
_THM2 = {"type": "thm2", "a": [1.0], "b": 3.0}
PLANAR_CONFIGS = {
    "K0": {"system": {"builtin": "planar"}, "controller": {**_THM2, "c": [1.0]}},
    "K50": {"system": {"builtin": "planar"},
            "controller": {**_THM2, "type": "thm2plus3", "c": [1.0],
                           "K": [50.0], "chi_star": [-2.0]}},
}
# the planar fold again, but as a custom system: f is an expression string
CUSTOM_CONFIG = {"system": {"builtin": "custom", "k": 2, "f": ["1 + x1 + z"]},
                 "controller": _THM2}

KIND_CODE = {"converged": "c", "diverged": "d", "undecided": "u"}
RAISED = "x"  # a cell whose classification raised; never a reference outcome
EX1_CSVS = ("ex1_u_ic0.csv", "ex1_u_ic1.csv", "ex1_v_ic0.csv", "ex1_v_ic1.csv",
            "ex1_v_literal_ic0.csv", "ex1_u_fold_probe.csv")


def lattices(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Node indices of the seed's sub-lattices of the 41 x 41 grid.

    Taking every 8th node from offsets (o_x, o_z) splits the grid into 64
    sub-lattices of 25 to 36 cells. The seed picks a permutation sigma and
    the sub-lattices (o, sigma(o)) for o = 0..7: every residue class of rows
    and of columns appears exactly once, so each seed covers an eighth of
    the grid (210 or 211 cells) with the stiff edges and corners always in
    the same proportion.
    """
    sigma = list(range(STRIDE))
    random.Random(seed).shuffle(sigma)
    return [(tuple(range(o, GRID_N, STRIDE)), tuple(range(sigma[o], GRID_N, STRIDE)))
            for o in range(STRIDE)]


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def outcome_code(outcome) -> str:
    """Reference code of a cell outcome, or RAISED.

    ``CellRunner`` turns an exception into ``Outcome.diverged(0.0)``. Every
    grid node starts far inside the divergence norm, so a real divergence
    never happens at t = 0 and that outcome means the cell raised.
    """
    if outcome.kind == "diverged" and outcome.t_escape == 0.0:
        return RAISED
    return KIND_CODE.get(outcome.kind, "?")


def build_loop(raw: dict):
    """(system, variant) from a scenario config, through the config API."""
    from slowfast import scenarios

    cfg = scenarios.parse_config({**_COMMON, **raw})
    system = scenarios.build_system(cfg)
    return system, scenarios.build_variant(cfg, system)


def setup(workload: str, seed: int, ref: dict, jobs: int):
    """Import the package and build everything one repetition needs."""
    if workload == "ex1":
        import slowfast.scenarios  # noqa: F401  run_ex1 builds its own loops

        return Ex1(ref)
    if workload == "roa-planar":
        loops = {label: build_loop(raw) for label, raw in PLANAR_CONFIGS.items()}
        return Sweeps(ref, seed, loops, jobs=jobs)
    if workload == "roa-custom":
        return Sweeps(ref, seed, {"K0": build_loop(CUSTOM_CONFIG)}, jobs=1)
    raise ValueError(f"unknown workload {workload!r}")


class Ex1:
    """``scenarios.run_ex1`` at its defaults; one operation is a trajectory."""

    ops = len(EX1_CSVS)
    jobs = 1

    def __init__(self, ref: dict):
        self.ref = ref["ex1"]
        self.sweep_s: dict[str, float] = {}

    def run(self, out_dir: str, tracer=None, serial=False):
        from slowfast import scenarios

        return scenarios.run_ex1(out_dir=out_dir)

    def check(self, report, out_dir: str) -> dict:
        ref = self.ref
        kinds = [o.kind for o in report.outcomes_u + report.outcomes_v]
        norms = list(report.final_norms_u) + list(report.final_norms_v)
        ref_norms = ref["final_norms_u"] + ref["final_norms_v"]
        gains_ok = (report.passed is True
                    and abs(report.ratio - ref["ratio"]) <= 1e-6 * ref["ratio"])
        ok = [
            gains_ok and kind == ref_kind and abs(norm - ref_norm) <= 1e-9
            for kind, ref_kind, norm, ref_norm
            in zip(kinds, ref["outcomes_u"] + ref["outcomes_v"], norms, ref_norms)
        ]
        literal = [float(v) for v in report.v_literal_final_state]
        ok.append(len(literal) == len(ref["v_literal_final_state"]) and all(
            abs(a - b) <= 1e-6 for a, b in zip(literal, ref["v_literal_final_state"])))
        ok.append(report.p1_probe_outcome.kind == ref["p1_probe_outcome"])
        identical = 0
        for i, name in enumerate(EX1_CSVS):
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                ok[i] = False
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            ok[i] = ok[i] and data.startswith(b"t,x1,x2,z,u1,u2\n")
            identical += hashlib.sha256(data).hexdigest() == ref["csv_sha256"][name]
        return {"attempted": self.ops, "failed": ok.count(False), "cells": self.ops,
                "checks": {"ex1_passed": int(report.passed is True),
                           "ex1_csv_identical": identical}}


class Sweeps:
    """``roa.sweep`` of each variant over the seed's sub-lattices.

    One operation is a classified cell. The reference holds the outcome of
    every node of the full grid; a custom-system sweep is checked against
    the planar baseline, whose dynamics it repeats. :meth:`run` keeps the
    wall time of each variant's sweeps in ``sweep_s``; ``serial`` runs them
    with one job whatever ``jobs`` is.
    """

    def __init__(self, ref: dict, seed: int, loops: dict, jobs: int):
        import numpy as np
        from slowfast import roa, sim

        self.ref = ref["roa"]
        self.loops = loops
        self.jobs = jobs
        self.icfg = sim.config_for(EPSILON, T_FINAL)
        self.lattices = lattices(seed)
        nodes = np.linspace(-3.0, 3.0, GRID_N)
        self.grids = [
            roa.GridSpec(x_ranges=((nodes[ix[0]], nodes[ix[-1]], len(ix)),),
                         z_range=(nodes[iz[0]], nodes[iz[-1]], len(iz)))
            for ix, iz in self.lattices
        ]
        self.ops = len(loops) * sum(len(ix) * len(iz) for ix, iz in self.lattices)
        self.sweep_s: dict[str, float] = {}

    def run(self, out_dir: str, tracer=None, serial=False):
        from slowfast import roa

        jobs = 1 if serial else self.jobs
        reports = {}
        self.sweep_s = dict.fromkeys(self.loops, 0.0)
        for label, (system, variant) in self.loops.items():
            if tracer is not None:
                tracer.label = label
            for i, grid in enumerate(self.grids):
                t0 = time.perf_counter()
                rep = roa.sweep(system, variant, grid, self.icfg, jobs=jobs)
                self.sweep_s[label] += time.perf_counter() - t0
                roa.write_report_csv(rep, os.path.join(out_dir, f"roa_{label}_{i}.csv"))
                reports[label, i] = rep
        return reports

    def check(self, reports: dict, out_dir: str) -> dict:
        attempted = failed = 0
        converged = dict.fromkeys(self.loops, 0)
        diverged = dict.fromkeys(self.loops, 0)
        undecided = dict.fromkeys(self.loops, 0)
        for (label, i), rep in reports.items():
            ix, iz = self.lattices[i]
            expected = [self.ref[label][a * GRID_N + b] for a in ix for b in iz]
            kinds = [KIND_CODE.get(o.kind, "?") for o in rep.outcomes]
            got = [outcome_code(o) for o in rep.outcomes]
            csv_ok = _report_csv_matches(os.path.join(out_dir, f"roa_{label}_{i}.csv"), kinds)
            attempted += len(expected)
            failed += sum(not (csv_ok and g == e) for g, e in zip(got, expected))
            failed += max(0, len(expected) - len(got))
            converged[label] += kinds.count("c")
            diverged[label] += kinds.count("d")
            undecided[label] += kinds.count("u")
        checks = {}
        if "K50" in converged:
            # compensation must not shrink the converged set, whatever the seed
            checks["k50_not_smaller"] = int(converged["K50"] >= converged["K0"])
            if not checks["k50_not_smaller"]:
                failed = attempted
        else:
            checks["custom_agree"] = attempted - failed
        return {"attempted": attempted, "failed": failed, "cells": attempted,
                "checks": checks, "converged": converged, "diverged": diverged,
                "undecided": undecided}


def _report_csv_matches(path: str, codes: list[str]) -> bool:
    """The written ROA CSV lists the same outcomes and a matching summary."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return False
    rows, summary = lines[1:-1], lines[-1] if lines else ""
    return (len(rows) == len(codes)
            and all(KIND_CODE.get(r.rsplit(",", 1)[-1]) == c for r, c in zip(rows, codes))
            and summary.startswith(f"# converged={codes.count('c')} "
                                   f"diverged={codes.count('d')} "
                                   f"undecided={codes.count('u')} "))
