import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

from slowfast import closedloop, sim
from slowfast.closedloop import Thm2
from slowfast.control import Theorem2Params
from slowfast.normal_form import compile_functions
from slowfast.roa import GridSpec, RoAReport, compare, sweep, write_report_csv
from slowfast.scenarios import EX2_CONFIGS, build_system, build_variant, parse_config
from slowfast.sim import Outcome, config_for
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

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the parent's loop only when forked")
    def test_workers_inherit_the_compiled_loop(self, monkeypatch):
        parent = os.getpid()

        def compile_in_parent_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("a sweep worker compiled the loop")
            return compile_functions(*args)

        closedloop._generated.cache_clear()
        monkeypatch.setattr(sim, "compile_functions", compile_in_parent_only)
        sys = build_planar_example(0.01)
        grid = GridSpec(x_ranges=((-1.0, 1.0, 2),), z_range=(-1.0, 1.0, 2))
        rep = sweep(sys, Thm2(P2), grid, config_for(0.01, 1.0), jobs=2)
        assert len(rep.outcomes) == 4

    def test_pool_never_has_more_workers_than_cells(self, monkeypatch):
        # the pool forks all its workers up front: record them, start none
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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

    def test_one_loop_and_one_proof_per_sweep(self):
        # the caches key on the (system, variant) values: a serial sweep
        # builds its loop and its certificate once, and a second sweep of an
        # equal variant built anew builds neither again
        closedloop._generated.cache_clear()
        closedloop._certificate.cache_clear()
        grid = GridSpec(x_ranges=((-1.0, 1.0, 3),), z_range=(-1.0, 1.0, 3))
        cfg = config_for(0.01, 1.0)
        rep = sweep(build_planar_example(0.01), Thm2(P2), grid, cfg)
        assert len(rep.outcomes) == 9
        for cache in (closedloop._generated, closedloop._certificate):
            assert cache.cache_info().misses == 1
        again = Thm2(Theorem2Params(c=[1.0], a=[1.0], b=3.0))
        assert sweep(build_planar_example(0.01), again, grid, cfg).outcomes == rep.outcomes
        for cache in (closedloop._generated, closedloop._certificate):
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
