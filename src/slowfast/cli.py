"""Command-line front end.

Exit codes: 0 success, 1 configuration or usage error, 2 scenario contract
violated (or every initial condition failed numerically), 3 verification
failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .roa import GridSpec, sweep, write_report_csv
from .scenarios import (
    ConfigError,
    build,
    default_ex2_grid,
    load_config,
    make_out_dir,
    run_ex1,
    run_ex2_matrix,
    run_ex2_roa,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONTRACT = 2
EXIT_VERIFY = 3

JOBS_HELP = ("processes for the ROA sweep, this one included, capped at the cores "
             "it may run on (0 = all of them)")


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


class _SuiteHelp(argparse.HelpFormatter):
    """Names the suites only when verify's help is printed: no other command loads them."""

    def _get_help_string(self, action):
        if action.dest != "suite":
            return action.help
        from .verification import SUITES

        return f"{action.help}; available: {', '.join(SUITES)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slowfast",
        description="Stabilization of slow-fast systems near non-hyperbolic "
        "points: simulations, reproductions and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured scenario")
    sim.add_argument("--config", required=True, help="JSON scenario config")
    sim.add_argument("--out", default=None, help="output directory")

    ex1 = sub.add_parser("ex1", help="tunnel-diode circuit reproduction")
    ex1.add_argument("--out", default="out/ex1")
    ex1.add_argument("--epsilon", type=float, default=0.01)
    ex1.add_argument("--t-final", type=float, default=30.0)
    ex1.add_argument("--switch-on", type=float, default=10.0)

    ex2 = sub.add_parser("ex2", help="planar fold reproduction + ROA comparison")
    ex2.add_argument("--out", default="out/ex2")
    ex2.add_argument("--jobs", type=int, default=0, help=JOBS_HELP)
    ex2.add_argument("--roa-grid", type=int, default=41,
                     help="grid points per axis for the ROA comparison")
    ex2.add_argument("--skip-roa", action="store_true",
                     help="run only the trajectory matrix")

    roa = sub.add_parser("roa", help="region-of-attraction grid sweep")
    roa.add_argument("--config", required=True,
                     help="JSON scenario config; ROA grid replaces its ics")
    roa.add_argument("--out", default=None,
                     help="output directory (default: the config's outputs, else out/roa)")
    roa.add_argument("--grid", type=int, default=41, help="points per axis")
    roa.add_argument("--x-range", type=float, nargs=2, default=(-3.0, 3.0))
    roa.add_argument("--z-range", type=float, nargs=2, default=(-3.0, 3.0))
    roa.add_argument("--jobs", type=int, default=0, help=JOBS_HELP)

    ver = sub.add_parser("verify", help="run the numerical property suites",
                         formatter_class=_SuiteHelp)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--suite", action="append", default=None,
                     help="run only the named suite (repeatable)")
    return parser


def _config_error(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        result = run_scenario(cfg, out_dir=args.out or cfg.outputs)
    except ConfigError as exc:
        return _config_error(exc)
    for ic, out in zip(cfg.ics, result.outcomes):
        note = f" ({out.failure})" if out.failure else ""
        print(f"ic={list(ic)}: {out.kind}{note}")
    if result.all_failed:
        print("every initial condition failed numerically", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_ex1(args) -> int:
    try:
        report = run_ex1(out_dir=args.out, epsilon=args.epsilon,
                         t_final=args.t_final, switch_on_time=args.switch_on)
    except ConfigError as exc:
        return _config_error(exc)
    for i, (ou, ov) in enumerate(zip(report.outcomes_u, report.outcomes_v)):
        print(f"ic {i}: stabilizer={ou.kind} benchmark={ov.kind}")
    print(f"sup|u|={report.sup_u:.6g} sup|v|={report.sup_v:.6g}"
          f" ratio={report.ratio:.4f}")
    print(f"fold probe (informational): {report.p1_probe_outcome.kind}")
    if not report.passed:
        print("circuit reproduction contract violated", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_ex2(args) -> int:
    try:
        grid = None if args.skip_roa else default_ex2_grid(args.roa_grid)
    except ValueError as exc:  # a malformed grid
        return _config_error(f"--roa-grid: {exc}")
    try:
        report = run_ex2_matrix(out_dir=args.out)
    except ConfigError as exc:  # an output directory that cannot be made
        return _config_error(exc)
    for note in report.contract_notes:
        print(note)
    print(f"selected compensation gain K*={report.K_star:g}")
    if report.diverging_ic_k0 is not None:
        print(f"baseline diverges from {list(report.diverging_ic_k0)}"
              f" at eps={min(report.epsilons)}")
    if grid is not None:
        _, _, cmp = run_ex2_roa(report.K_star, grid=grid, jobs=args.jobs,
                                out_dir=args.out)
        print(f"ROA converged cells: compensated={cmp.converged_a}"
              f" baseline={cmp.converged_b} enlarged={cmp.a_larger}")
        if not cmp.a_larger:
            print("ROA enlargement contract violated", file=sys.stderr)
            return EXIT_CONTRACT
    if not report.contract_ok:
        print("planar reproduction contract violated", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_roa(args) -> int:
    try:
        cfg = load_config(args.config)
        if cfg.switch_on_time > 0:
            raise ConfigError("switch_on_time must be 0: a sweep runs closed loop"
                              f" from t = 0, got {cfg.switch_on_time}")
        system, variant, icfg = build(cfg)
        grid = GridSpec(
            x_ranges=((args.x_range[0], args.x_range[1], args.grid),) * system.n_slow,
            z_range=(args.z_range[0], args.z_range[1], args.grid),
        )
        out_dir = args.out or cfg.outputs or "out/roa"
        make_out_dir(out_dir)
    except ValueError as exc:  # a ConfigError, or a malformed grid
        return _config_error(exc)
    report = sweep(system, variant, grid, icfg, jobs=args.jobs)
    path = os.path.join(out_dir, "roa.csv")
    write_report_csv(report, path)
    print(f"{report.variant}: converged={report.converged_count}"
          f" diverged={report.diverged_count}"
          f" undecided={report.undecided_count} of {grid.n_cells}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_suites

    try:
        results = run_suites(seed=args.seed, names=args.suite)
    except ValueError as exc:
        return _config_error(exc)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "ex1": _cmd_ex1,
        "ex2": _cmd_ex2,
        "roa": _cmd_roa,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
