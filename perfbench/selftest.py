"""Self-test of the benchmark's checker and tracer.

Run from the root of a checkout (about a minute on two cores):

    python3 perfbench/selftest.py

1. A tracer leaves every attribute of every slowfast module and class as it
   found it.
2. Against a corrupted copy of reference.json (every grid outcome flipped,
   the ex1 outcomes and gain ratio altered) one repetition of each workload
   counts failed operations, so the checker is not vacuous.
3. When every cell's simulation raises, a custom-system sweep counts failed
   cells, although the package reports each such cell as diverged.
4. Against the real reference a sweep counts no failed cell.

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def _bindings() -> dict:
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "slowfast" or key.startswith("slowfast.")):
            continue
        for name, value in list(vars(mod).items()):
            out[key, name] = value
            if isinstance(value, type) and value.__module__.startswith("slowfast"):
                for attr, member in list(vars(value).items()):
                    out[key, name, attr] = member
    return out


def tracer_restores() -> bool:
    from tracing import Tracer

    import slowfast.roa  # noqa: F401
    import slowfast.scenarios  # noqa: F401

    try:
        import slowfast.fastcell  # noqa: F401  imported lazily by the package
    except ImportError:
        pass
    before = _bindings()
    with Tracer() as tracer:
        patched = _bindings() != before
    after = _bindings()
    return patched and tracer.restored and after.keys() == before.keys() and all(
        after[k] is before[k] for k in before)


def corrupt(ref: dict) -> dict:
    bad = json.loads(json.dumps(ref))
    flip = {"c": "d", "d": "c", "u": "c"}
    bad["roa"] = {label: "".join(flip[c] for c in codes) for label, codes in ref["roa"].items()}
    bad["ex1"]["ratio"] = 2.0 * ref["ex1"]["ratio"]
    bad["ex1"]["outcomes_u"] = ["diverged" for _ in ref["ex1"]["outcomes_u"]]
    return bad


def failed_ops(workload: str, ref: dict, workdir: str) -> tuple[int, int]:
    """(failed, attempted) of one untraced repetition at seed 1."""
    work = workloads.setup(workload, 1, ref, len(os.sched_getaffinity(0)))
    runner = run.Runner(work, os.path.join(workdir, workload))
    runner.rep()
    return runner.failed, runner.attempted


def _raise(*args, **kwargs):
    raise FloatingPointError("injected by the self-test")


def main() -> int:
    run.import_package()
    from slowfast import closedloop

    ref = workloads.load_reference(run.REFERENCE)
    os.makedirs(run.WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORKDIR)
    ok = True
    try:
        restored = tracer_restores()
        print(f"tracer restores every binding: {restored}")
        ok &= restored

        bad = corrupt(ref)
        for workload in workloads.WORKLOADS:
            failed, attempted = failed_ops(workload, bad, workdir)
            print(f"corrupted reference, {workload}: failed {failed}/{attempted}"
                  f" -> caught: {failed > 0}")
            ok &= failed > 0

        simulate = closedloop.CellRunner.simulate
        closedloop.CellRunner.simulate = _raise
        try:
            failed, attempted = failed_ops("roa-custom", ref, workdir)
        finally:
            closedloop.CellRunner.simulate = simulate
        print(f"every cell raises, roa-custom: failed {failed}/{attempted}"
              f" -> caught: {failed == attempted > 0}")
        ok &= failed == attempted > 0

        failed, attempted = failed_ops("roa-planar", ref, workdir)
        print(f"true reference, roa-planar: failed {failed}/{attempted}"
              f" -> clean: {failed == 0}")
        ok &= failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
