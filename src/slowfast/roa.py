"""Region-of-attraction estimation by classified grid sweeps."""
from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .closedloop import CellRunner, Variant, describe
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
        return math.prod(self.shape)

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


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(
    system,
    variant: Variant,
    grid: GridSpec,
    cfg: IntegratorConfig,
    jobs: int = 1,
) -> RoAReport:
    """Classify the closed loop from every grid node with :class:`CellRunner`.

    Cells are independent; with ``jobs`` > 1 they fan out over that many
    processes, this one included, and ``jobs`` < 1 means the cores this
    process may run on. There are never more processes than the grid has
    cells or than this process has cores. With one, or where ``os.fork``
    does not exist, the sweep runs in this process and forks nothing.
    Otherwise the loop and its certificate are built before the fork, so
    the children inherit them, and the cells farthest from the origin,
    where the long and costly runs lie, go first, each to whichever process
    is free (:func:`_fan_out`). The report order follows
    :meth:`GridSpec.points` regardless of scheduling, and per-cell
    numerical failures are recorded as diverged; any other exception of a
    cell is raised here with its type, after every child has been reaped.
    """
    runner = CellRunner(system=system, variant=variant, cfg=cfg)
    pts = grid.points()
    if jobs is None or jobs < 1:
        jobs = _cores()
    workers = min(jobs, len(pts), _cores())
    if workers <= 1 or not hasattr(os, "fork"):
        outcomes = [runner(p) for p in pts]
    else:
        runner.prepare()
        outcomes = _fan_out(runner, pts, workers)
    return RoAReport(grid=grid, variant=describe(variant), outcomes=outcomes)


def _fan_out(runner: CellRunner, pts: np.ndarray, workers: int) -> list[Outcome]:
    """Classify ``pts`` on this process and ``workers - 1`` forked children.

    Every process takes the next cell, farthest from the origin first, from
    one counter that travels through a pipe: the process that has read it
    holds the lock until it writes the next value back, and one whose cell
    raised writes back the end, so that the others stop. A child sends its
    ``(index, Outcome)`` pairs, or the exception with its traceback, in one
    pickle through a pipe of its own and leaves by ``os._exit``. When this
    process raises, the children are killed. Either way each one is reaped
    before this returns, and one that sent nothing is an error that names
    its exit status.
    """
    order = np.argsort(-np.linalg.norm(pts, axis=1), kind="stable").tolist()
    counter_r, counter_w = os.pipe()

    def put(i: int) -> None:
        os.write(counter_w, i.to_bytes(8, "little"))

    def cells():
        while True:
            i = int.from_bytes(os.read(counter_r, 8), "little")
            put(min(i + 1, len(order)))
            if i == len(order):
                return
            yield order[i]

    outcomes = [None] * len(order)
    children = {}  # pid -> read end of the pipe its result comes through
    sent = {}
    put(0)
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(result_r)
                os.close(result_w)
                raise
            if pid == 0:  # the child: never return into the caller's frames
                code = 1
                try:
                    os.close(result_r)
                    try:
                        result = [(i, runner(pts[i])) for i in cells()]
                    except BaseException as exc:  # noqa: BLE001 - sent to the caller
                        os.read(counter_r, 8)  # the others take no further cell
                        put(len(order))
                        result = _portable(exc)
                    with open(result_w, "wb") as fh:
                        pickle.dump(result, fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(result_w)
            children[pid] = result_r
        for i in cells():
            outcomes[i] = runner(pts[i])
        for pid, fd in children.items():
            with open(fd, "rb", closefd=False) as fh:
                sent[pid] = fh.read()
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
        for fd in (counter_r, counter_w, *children.values()):
            os.close(fd)
    for pid, data in sent.items():
        if status[pid] != 0 or not data:
            raise RuntimeError(f"sweep worker {pid} exited with status {status[pid]}"
                               " without sending its outcomes")
        result = pickle.loads(data)
        if isinstance(result, tuple):
            exc, trace = result
            raise exc from RuntimeError(f"in sweep worker {pid}:\n{trace}")
        for i, outcome in result:
            outcomes[i] = outcome
    return outcomes


def _portable(exc: BaseException) -> tuple[BaseException, str]:
    """``exc`` and its traceback as text, or a RuntimeError with its repr
    when the exception does not survive a pickle round trip."""
    import traceback

    trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure to pickle
        exc = RuntimeError(f"a sweep cell raised {exc!r}")
    return exc, trace


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
