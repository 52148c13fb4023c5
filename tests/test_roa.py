import os
import time

import numpy as np
import pytest

from slowfast import closedloop, roa, sim
from slowfast.closedloop import CellRunner, Thm2
from slowfast.control import Theorem2Params
from slowfast.roa import GridSpec, RoAReport, compare, sweep, write_report_csv
from slowfast.scenarios import EX2_CONFIGS, build_system, build_variant, parse_config
from slowfast.sim import Outcome, compile_functions, config_for
from slowfast.systems import build_planar_example

P2 = Theorem2Params(c=[1.0], a=[1.0], b=3.0)


class TestGridSpec:
    def test_points_order_z_fastest(self):
        grid = GridSpec(x_ranges=((0.0, 1.0, 2),), z_range=(10.0, 11.0, 2))
        pts = grid.points()
        assert pts == pytest.approx(
            np.array([[0, 10], [0, 11], [1, 10], [1, 11]], dtype=float)
        )
        assert grid.n_cells == 4 and grid.shape == (2, 2)

    def test_cell_count_does_not_wrap(self):
        # 41**12 is past the int64 range, where a product of the shape wraps
        grid = GridSpec(x_ranges=((0.0, 1.0, 41),) * 11, z_range=(0.0, 1.0, 41))
        assert grid.n_cells == 41**12 > np.iinfo(np.int64).max

    def test_single_point_range(self):
        grid = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(0.0, 0.0, 1))
        assert grid.points() == pytest.approx(np.zeros((1, 2)))

    def test_malformed_range_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            GridSpec(x_ranges=((1.0, 0.0, 5),), z_range=(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="n_points"):
            GridSpec(x_ranges=((0.0, 1.0, 0),), z_range=(0.0, 1.0, 5))

    @pytest.mark.parametrize("lo, hi", [(-np.inf, np.inf), (-3.0, np.inf), (np.nan, 1.0),
                                        (0.0, np.nan)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(x_ranges=((lo, hi, 3),), z_range=(0.0, 1.0, 3))
        with pytest.raises(ValueError, match="z_range: bounds must be finite"):
            GridSpec(x_ranges=((0.0, 1.0, 3),), z_range=(lo, hi, 3))

    def test_overflowing_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            GridSpec(x_ranges=((-1e308, 1e308, 3),), z_range=(0.0, 1.0, 3))

    @pytest.mark.parametrize("n", [2.7, np.nan, np.inf, "3"])
    def test_non_integral_point_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            GridSpec(x_ranges=((0.0, 1.0, 3),), z_range=(0.0, 1.0, n))

    def test_integral_float_point_count_accepted(self):
        grid = GridSpec(x_ranges=((0.0, 1.0, 3.0),), z_range=(0.0, 1.0, np.int64(2)))
        assert grid.shape == (3, 2) and all(type(n) is int for n in grid.shape)


class TestSweep:
    def test_neighborhood_grid_fully_converges(self):
        sys = build_planar_example(0.05)
        grid = GridSpec(x_ranges=((-0.01, 0.01, 3),), z_range=(-0.01, 0.01, 3))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.05, 10.0))
        assert rep.converged_count == grid.n_cells

    def test_open_loop_grid_has_no_converged_cells(self):
        from slowfast.closedloop import OpenLoop

        sys = build_planar_example(0.05)
        grid = GridSpec(x_ranges=((0.05, 0.2, 3),), z_range=(0.5, 1.5, 3))
        rep = sweep(sys, OpenLoop(), grid, config_for(0.05, 10.0))
        assert rep.converged_count == 0
        assert rep.diverged_count == grid.n_cells

    def test_single_cell_at_origin(self):
        sys = build_planar_example(0.05)
        grid = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(0.0, 0.0, 1))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.05, 10.0))
        assert rep.converged_count == 1

    def test_parallel_matches_serial(self):
        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-2.0, 2.0, 3),), z_range=(-2.0, 2.0, 3))
        cfg = config_for(0.01, 10.0)
        serial = sweep(sys, Thm2(P2), grid, cfg, jobs=1)
        parallel = sweep(sys, Thm2(P2), grid, cfg, jobs=2)
        assert len({o.kind for o in serial.outcomes}) > 1
        assert serial.outcomes == parallel.outcomes  # kinds and times, in grid order

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="workers inherit the parent's loop only when forked")
    def test_workers_inherit_the_compiled_loop(self, monkeypatch):
        parent = os.getpid()

        def compile_in_parent_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("a sweep worker compiled the loop")
            return compile_functions(*args)

        closedloop.build_closed_loop.cache_clear()
        monkeypatch.setattr(sim, "compile_functions", compile_in_parent_only)
        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-1.0, 1.0, 2),), z_range=(-1.0, 1.0, 2))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.01, 1.0), jobs=2)
        assert len(rep.outcomes) == 4

    @staticmethod
    def _record_fan_out(monkeypatch, cores):
        # the processes a fan-out would run, the caller included: record
        # them, fork none, and classify the cells in this process
        started = []

        def serial(runner, pts, workers):
            started.append(workers)
            return [runner(p) for p in pts]

        monkeypatch.setattr(roa, "_fan_out", serial)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        return started

    def test_pool_never_has_more_workers_than_cells(self, monkeypatch):
        started = self._record_fan_out(monkeypatch, cores=8)
        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 1.0)
        three = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(-0.5, 0.5, 3))
        rep = sweep(sys, Thm2(P2), three, cfg, jobs=64)
        assert started == [3]
        assert rep.outcomes == sweep(sys, Thm2(P2), three, cfg, jobs=1).outcomes
        one = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(0.0, 0.0, 1))
        sweep(sys, Thm2(P2), one, cfg, jobs=64)
        assert started == [3]  # one cell runs in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sweep(sys, Thm2(P2), three, cfg, jobs=0)
        assert started == [3, 2]  # jobs < 1: the cores this process may run on

    def test_never_more_workers_than_cores(self, monkeypatch):
        started = self._record_fan_out(monkeypatch, cores=2)
        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 1.0)
        four = GridSpec(x_ranges=((-0.5, 0.5, 2),), z_range=(-0.5, 0.5, 2))
        sweep(sys, Thm2(P2), four, cfg, jobs=5000)
        assert started == [2]
        self._record_fan_out(monkeypatch, cores=1)
        sweep(sys, Thm2(P2), four, cfg, jobs=5000)
        assert started == [2]  # one core: the sweep runs in this process

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_kills_and_reaps_the_children_and_closes_the_pipes(self, monkeypatch):
        # the first child is busy for 20 s: only a kill ends it in time
        parent = os.getpid()
        simulate = CellRunner.simulate
        fork = os.fork
        forks = []

        def slow_in_children(self, ic):
            if os.getpid() != parent:
                time.sleep(20.0)
            return simulate(self, ic)

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("no process left")
            return fork()

        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-0.5, 0.5, 2),), z_range=(-0.5, 0.5, 2))
        cfg = config_for(0.01, 1.0)
        sweep(sys, Thm2(P2), grid, cfg)  # the loop and its proof, before counting
        fds = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(CellRunner, "simulate", slow_in_children)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        t0 = time.perf_counter()
        with pytest.raises(BlockingIOError):
            sweep(sys, Thm2(P2), grid, cfg, jobs=3)
        assert time.perf_counter() - t0 < 10.0
        assert sorted(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks no child")
    def test_more_processes_than_cores_classify_each_cell_once(self, monkeypatch, tmp_path):
        # every process appends the cells it classifies to one log: a cell
        # taken twice, or never, breaks the count
        log = os.open(tmp_path / "cells", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        simulate = CellRunner.simulate

        def logged(self, ic):
            os.write(log, f"{float(ic[0])!r} {float(ic[1])!r}\n".encode())
            return simulate(self, ic)

        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 1.0)
        grid = GridSpec(x_ranges=((-2.0, 2.0, 8),), z_range=(-2.0, 2.0, 8))
        serial = sweep(sys, Thm2(P2), grid, cfg, jobs=1)
        monkeypatch.setattr(CellRunner, "simulate", logged)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        t0 = time.perf_counter()
        try:
            parallel = sweep(sys, Thm2(P2), grid, cfg, jobs=6)
        finally:
            os.close(log)
        assert time.perf_counter() - t0 < 60.0
        assert parallel.outcomes == serial.outcomes
        cells = sorted(f"{float(x)!r} {float(z)!r}" for x, z in grid.points())
        assert sorted((tmp_path / "cells").read_text().splitlines()) == cells
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _sweep_with_a_child_cell(monkeypatch, child_cell):
        # the caller's cells are slow, so the forked child classifies some
        parent = os.getpid()
        simulate = CellRunner.simulate

        def cell(self, ic):
            if os.getpid() != parent:
                child_cell()
            time.sleep(0.05)
            return simulate(self, ic)

        monkeypatch.setattr(CellRunner, "simulate", cell)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = GridSpec(x_ranges=((-0.5, 0.5, 2),), z_range=(-0.5, 0.5, 2))
        return sweep(build_planar_example(0.01), Thm2(P2), grid, config_for(0.01, 1.0),
                     jobs=2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks no child")
    def test_a_childs_programming_error_is_raised_with_its_type(self, monkeypatch):
        def bug():
            raise TypeError("a bug in a cell")

        with pytest.raises(TypeError, match="a bug in a cell"):
            self._sweep_with_a_child_cell(monkeypatch, bug)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child has been reaped

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks no child")
    def test_a_child_that_exits_without_a_result_is_an_error(self, monkeypatch):
        with pytest.raises(RuntimeError, match="exited with status 3"):
            self._sweep_with_a_child_cell(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_loop_and_one_proof_per_sweep(self):
        # the caches key on the (system, variant) values: a serial sweep
        # builds its loop and its certificate once, and a second sweep of an
        # equal variant built anew builds neither again
        closedloop.build_closed_loop.cache_clear()
        closedloop.certificate.cache_clear()
        grid = GridSpec(x_ranges=((-1.0, 1.0, 3),), z_range=(-1.0, 1.0, 3))
        cfg = config_for(0.01, 1.0)
        rep = sweep(build_planar_example(0.01), Thm2(P2), grid, cfg)
        assert len(rep.outcomes) == 9
        for cache in (closedloop.build_closed_loop, closedloop.certificate):
            assert cache.cache_info().misses == 1
        again = Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.0))
        assert sweep(build_planar_example(0.01), again, grid, cfg).outcomes == rep.outcomes
        for cache in (closedloop.build_closed_loop, closedloop.certificate):
            assert cache.cache_info().misses == 1

    def test_refinement_preserves_coinciding_nodes(self):
        sys = build_planar_example(0.01)
        cfg = config_for(0.01, 10.0)
        coarse = GridSpec(x_ranges=((-2.0, 2.0, 3),), z_range=(-2.0, 2.0, 3))
        fine = GridSpec(x_ranges=((-2.0, 2.0, 5),), z_range=(-2.0, 2.0, 5))
        rc = sweep(sys, Thm2(P2), coarse, cfg)
        rf = sweep(sys, Thm2(P2), fine, cfg)
        cpts, fpts = coarse.points(), fine.points()
        for i, p in enumerate(cpts):
            j = np.where((fpts == p).all(axis=1))[0]
            assert j.size == 1
            assert rc.outcomes[i].kind == rf.outcomes[j[0]].kind

    def test_count_consistency(self):
        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-2.0, 2.0, 3),), z_range=(-2.0, 2.0, 3))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.01, 10.0))
        assert rep.converged_count == sum(
            1 for o in rep.outcomes if o.is_converged
        )
        assert len(rep.outcomes) == grid.n_cells

    def test_counts_are_read_from_the_outcomes(self):
        grid = GridSpec(x_ranges=((0.0, 1.0, 2),), z_range=(0.0, 1.0, 2))
        rep = RoAReport(grid=grid, variant="v", outcomes=[
            Outcome.converged(1.0), Outcome.diverged(2.0),
            Outcome.undecided(), Outcome.converged(3.0)])
        rep.outcomes[1] = Outcome.converged(4.0)
        assert (rep.converged_count, rep.diverged_count, rep.undecided_count) == (3, 0, 1)


class TestCompare:
    def _reports(self):
        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-2.0, 2.0, 3),), z_range=(-2.0, 2.0, 3))
        cfg = config_for(0.01, 10.0)
        base = sweep(sys, self._variant("baseline"), grid, cfg)
        comp = sweep(sys, self._variant("compensated", K=[50.0]), grid, cfg)
        return base, comp

    @staticmethod
    def _variant(name, **gains):
        raw = EX2_CONFIGS[name]
        cfg = parse_config({**raw, "epsilon": 0.01,
                            "controller": {**raw["controller"], **gains}})
        return build_variant(cfg, build_system(cfg))

    def test_identical_reports(self):
        base, _ = self._reports()
        cmp = compare(base, base)
        assert cmp.changed == [] and cmp.a_larger is False

    def test_compensation_enlarges_on_subgrid(self):
        base, comp = self._reports()
        cmp = compare(comp, base)
        assert cmp.converged_a > cmp.converged_b
        assert cmp.a_larger is True
        assert len(cmp.changed) >= cmp.converged_a - cmp.converged_b

    def test_mismatched_grids_rejected(self):
        sys = build_planar_example(0.05)
        cfg = config_for(0.05, 10.0)
        g1 = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(0.0, 0.0, 1))
        g2 = GridSpec(x_ranges=((0.0, 1.0, 2),), z_range=(0.0, 1.0, 2))
        r1 = sweep(sys, Thm2(P2), g1, cfg)
        r2 = sweep(sys, Thm2(P2), g2, cfg)
        with pytest.raises(ValueError, match="different grids"):
            compare(r1, r2)


class TestReportCsv:
    def test_rows_and_summary(self, tmp_path):
        sys = build_planar_example(0.05)
        grid = GridSpec(x_ranges=((0.0, 0.0, 1),), z_range=(0.0, 0.0, 1))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.05, 10.0))
        path = tmp_path / "roa.csv"
        write_report_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,z,outcome"
        assert lines[1].endswith("converged")
        assert lines[-1].startswith("# converged=1 diverged=0 undecided=0")
