"""Timing spans around slowfast's public functions, installed from outside.

A :class:`Tracer` replaces module attributes and a few methods of the
package with wrappers that count calls and accumulate total and self time,
and puts every original back when it exits. A span's self time is its
duration minus the time of the wrapped calls made inside it. Nothing in
the package is edited: every span sits at a call boundary that the
benchmark can reach by patching.

Spans count only the calls made in this process, so traced sweeps run
with one job.
"""
from __future__ import annotations

import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Context manager that installs the spans on entry and restores on exit."""

    def __init__(self):
        self.label = "K0"  # variant whose cells are being classified
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.cells: dict[str, list[float]] = {}
        self.restored = False
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` and every other package binding of it.

        Modules import functions by name from each other, so a function is
        replaced wherever a ``slowfast`` module holds the same object. A
        name that no longer exists is skipped and its metrics read 0.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        new = make(orig)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, name)
                for key, mod in list(sys.modules.items())
                if mod is not None and (key == "slowfast" or key.startswith("slowfast."))
                for name, value in list(vars(mod).items())
                if value is orig
            ]
        for target, name in targets:
            self._patches.append((target, name, orig))
            setattr(target, name, new)

    def __enter__(self) -> "Tracer":
        import slowfast.closedloop as closedloop
        import slowfast.control as control
        import slowfast.roa as roa
        import slowfast.scenarios as scenarios
        import slowfast.sim as sim
        import slowfast.systems as systems

        try:
            import slowfast.fastcell as fastcell
        except ImportError:
            fastcell = None

        plain = self._plain
        self._patch(sim, "integrate", plain("sim.integrate"))
        self._patch(sim, "write_trajectory_csv", self._csv_writer)
        self._patch(closedloop, "build_closed_loop", self._loop_builder)
        self._patch(closedloop.ExprSlowField, "__call__",
                    plain("closedloop.ExprSlowField"))
        self._patch(closedloop.CellRunner, "__call__", self._cell_runner)
        if fastcell is not None:
            self._patch(fastcell, "classify_planar_cell",
                        plain("fastcell.classify_planar_cell"))
        self._patch(roa, "write_report_csv", plain("roa.write_report_csv"))
        for method in ("rhs_translated", "rhs_additive"):
            self._patch(systems.TunnelDiodeSystem, method, plain("systems.rhs"))
        self._patch(systems, "example1_controllers", self._controller_factory)
        self._patch(control, "highgain_control", plain("control.highgain_control"))
        self._patch(scenarios, "simulate_switched", plain("scenarios.simulate_switched"))
        self._patch(scenarios, "run_ex1", plain("scenarios.run_ex1"))
        return self

    def __exit__(self, *exc) -> None:
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self.restored = all(getattr(t, n) is o for t, n, o in self._patches)
        self._patches.clear()

    # -- wrappers with more than a span ----------------------------------

    def _csv_writer(self, fn):
        inner = self.span("sim.write_trajectory_csv", fn)

        def wrapper(traj, path, *args, **kwargs):
            out = inner(traj, path, *args, **kwargs)
            key = "sim.write_trajectory_csv.bytes"
            self.counts[key] = self.counts.get(key, 0) + os.path.getsize(path)
            return out

        return wrapper

    def _plain(self, name: str):
        return lambda fn: self.span(name, fn)

    def _loop_builder(self, fn):
        inner = self.span("closedloop.build_closed_loop", fn)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if isinstance(out, tuple) and len(out) == 3 and callable(out[0]):
                rhs, ueval, m = out
                ueval = self.span("closedloop.control", ueval) if callable(ueval) else ueval
                return self.span("closedloop.rhs", rhs), ueval, m
            return out

        return wrapper

    def _controller_factory(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not isinstance(out, tuple):
                return out
            return tuple(self.span("systems.controller", f) if callable(f) else f
                         for f in out)

        return wrapper

    def _cell_runner(self, fn):
        inner = self.span("closedloop.CellRunner", fn)

        def wrapper(runner, *args, **kwargs):
            t0 = _clock()
            try:
                return inner(runner, *args, **kwargs)
            finally:
                self.cells.setdefault(self.label, []).append(_clock() - t0)

        return wrapper
