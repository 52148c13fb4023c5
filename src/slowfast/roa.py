"""Region-of-attraction estimation by classified grid sweeps."""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closedloop import CellRunner, Variant, build_closed_loop, describe
from .sim import IntegratorConfig, Outcome

__all__ = [
    "GridSpec",
    "RoAReport",
    "RoAComparison",
    "sweep",
    "compare",
    "write_report_csv",
]


def _check_range(rng, name: str) -> tuple[float, float, int]:
    lo, hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name}: bounds must be finite, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name}: the span of [{lo}, {hi}] overflows")
    try:
        n = int(rng[2])
    except (OverflowError, ValueError):
        n = None
    if n is None or n != rng[2]:
        raise ValueError(f"{name}: n_points must be an integer, got {rng[2]!r}")
    if n < 1:
        raise ValueError(f"{name}: n_points must be >= 1, got {n}")
    if n == 1:
        if lo != hi:
            raise ValueError(f"{name}: a single-point range needs lo == hi")
    elif not lo < hi:
        raise ValueError(f"{name}: need lo < hi, got [{lo}, {hi}]")
    return lo, hi, n


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of initial conditions over (x_1..x_m, z).

    Each range is (lo, hi, n_points): finite bounds whose span hi - lo is
    finite too, and an integral number of points. A degenerate
    single-point range (n_points = 1, lo = hi) is allowed so single cells
    can be probed.
    """

    x_ranges: tuple[tuple[float, float, int], ...]
    z_range: tuple[float, float, int]

    def __post_init__(self):
        xr = tuple(_check_range(r, f"x_ranges[{i}]") for i, r in enumerate(self.x_ranges))
        object.__setattr__(self, "x_ranges", xr)
        object.__setattr__(self, "z_range", _check_range(self.z_range, "z_range"))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(r[2] for r in self.x_ranges) + (self.z_range[2],)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All grid nodes, shape (n_cells, m+1), in fixed C order (z fastest)."""
        axes = [np.linspace(lo, hi, n) for lo, hi, n in self.x_ranges]
        axes.append(np.linspace(*self.z_range))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass
class RoAReport:
    """Per-node outcomes of one sweep."""

    grid: GridSpec
    variant: str
    outcomes: list[Outcome]

    @property
    def converged_count(self) -> int:
        return sum(1 for o in self.outcomes if o.is_converged)

    @property
    def diverged_count(self) -> int:
        return sum(1 for o in self.outcomes if o.is_diverged)

    @property
    def undecided_count(self) -> int:
        return sum(1 for o in self.outcomes if o.kind == "undecided")


def sweep(
    system,
    variant: Variant,
    grid: GridSpec,
    cfg: IntegratorConfig,
    jobs: int = 1,
) -> RoAReport:
    """Classify the closed loop from every grid node with :class:`CellRunner`.

    Cells are independent; with ``jobs`` > 1 they fan out over processes,
    one cell per task, and ``jobs`` < 1 means one per core. The loop is
    compiled before the pool starts, so forked workers inherit it, and the
    cells farthest from the origin, where the stiff and costly ones lie, are
    handed out first. The report order follows :meth:`GridSpec.points`
    regardless of worker scheduling, and per-cell numerical failures are
    recorded as diverged.
    """
    runner = CellRunner(system=system, variant=variant, cfg=cfg)
    pts = grid.points()
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    if jobs == 1 or pts.shape[0] <= 1:
        outcomes = [runner(p) for p in pts]
    else:
        build_closed_loop(system, variant)
        order = np.argsort(-np.linalg.norm(pts, axis=1), kind="stable")
        outcomes = [None] * len(pts)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for i, outcome in zip(order.tolist(), pool.map(runner, pts[order])):
                outcomes[i] = outcome
    return RoAReport(grid=grid, variant=describe(variant), outcomes=outcomes)


@dataclass
class RoAComparison:
    """Cell-by-cell delta between two sweeps on the same grid."""

    variant_a: str
    variant_b: str
    converged_a: int
    converged_b: int
    changed: list[tuple[int, str, str]]  # (cell index, kind in A, kind in B)
    a_larger: bool


def compare(report_a: RoAReport, report_b: RoAReport) -> RoAComparison:
    """Compare convergence counts of two reports over identical grids."""
    if report_a.grid != report_b.grid:
        raise ValueError("reports were produced on different grids")
    changed = [
        (i, a.kind, b.kind)
        for i, (a, b) in enumerate(zip(report_a.outcomes, report_b.outcomes))
        if a.kind != b.kind
    ]
    return RoAComparison(
        variant_a=report_a.variant,
        variant_b=report_b.variant,
        converged_a=report_a.converged_count,
        converged_b=report_b.converged_count,
        changed=changed,
        a_larger=report_a.converged_count > report_b.converged_count,
    )


def write_report_csv(report: RoAReport, path) -> None:
    """CSV of node coordinates and outcome, plus a trailing count summary."""
    pts = report.grid.points()
    m = pts.shape[1] - 1
    header = [f"x{i}" for i in range(1, m + 1)] + ["z", "outcome"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, out in zip(pts, report.outcomes):
            cols = [f"{v:.17g}" for v in row] + [out.kind]
            fh.write(",".join(cols) + "\n")
        fh.write(
            f"# converged={report.converged_count}"
            f" diverged={report.diverged_count}"
            f" undecided={report.undecided_count}"
            f" total={report.grid.n_cells}"
            f" variant={report.variant}\n"
        )
