"""Record the outputs every benchmark run is checked against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It sweeps the full 41 x 41 criterion-7 grid for the planar baseline (K=0)
and the compensated loop (K=50) over all cores, runs ``scenarios.run_ex1``
at its defaults, and writes the per-node outcomes, the ex1 report and the
SHA-256 of each ex1 CSV to reference.json. Any seed's sub-lattices are
checked against this grid. It fails if a cell raised.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.import_package()
    from slowfast import roa, scenarios, sim

    grid = scenarios.default_ex2_grid(workloads.GRID_N)
    icfg = sim.config_for(workloads.EPSILON, workloads.T_FINAL)
    outcomes = {}
    for label, raw in workloads.PLANAR_CONFIGS.items():
        system, variant = workloads.build_loop(raw)
        rep = roa.sweep(system, variant, grid, icfg, jobs=len(os.sched_getaffinity(0)))
        outcomes[label] = "".join(workloads.outcome_code(o) for o in rep.outcomes)
        if workloads.RAISED in outcomes[label]:
            raise SystemExit(f"make_reference: a {label} cell raised")
        print(f"{label}: converged={rep.converged_count} diverged={rep.diverged_count}"
              f" undecided={rep.undecided_count}", file=sys.stderr)

    os.makedirs(run.WORKDIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=run.WORKDIR)
    try:
        r = scenarios.run_ex1(out_dir=out_dir)
        hashes = {}
        for name in workloads.EX1_CSVS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    reference = {
        "command": "python3 perfbench/make_reference.py",
        "grid": {"n": workloads.GRID_N, "lo": -3.0, "hi": 3.0,
                 "epsilon": workloads.EPSILON, "t_final": workloads.T_FINAL,
                 "order": "index = ix * n + iz (z fastest, as GridSpec.points)",
                 "codes": workloads.KIND_CODE},
        "roa": outcomes,
        "ex1": {
            "outcomes_u": [o.kind for o in r.outcomes_u],
            "outcomes_v": [o.kind for o in r.outcomes_v],
            "final_norms_u": list(r.final_norms_u),
            "final_norms_v": list(r.final_norms_v),
            "sup_u": r.sup_u, "sup_v": r.sup_v, "ratio": r.ratio,
            "v_literal_final_state": [float(v) for v in r.v_literal_final_state],
            "p1_probe_outcome": r.p1_probe_outcome.kind,
            "passed": r.passed,
            "csv_sha256": hashes,
        },
    }
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
