"""Command line front end.

Subcommands:

* ``run``      - integrate one sample path, writing SWV1 snapshots and plot
                 data into the output directory.
* ``converge`` - coupled-path convergence study; writes convergence.csv and
                 error-versus-tau plot data, prints fitted orders.
* ``compare``  - same study for several methods with measured timings and
                 error-versus-time plot data.

Options may come from a flat key=value config file (--config) with '#'
comments; command line flags override file values and are parsed by the
same rules.  --levels gives the number of dyadic levels, halving from the
coarsest step: --tau, else the coarsest configured level (default 2^-5).
Exit codes: 0 success, 2 configuration error, 3 numerical failure (any
``NumericalError``: a single run's non-finite step, or a study's
``NumericalFailure``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ConfigError,
    ExperimentConfig,
    compare_methods,
    config_from_mapping,
    emit_study,
    parse_config_file,
    run_convergence,
    run_single,
)
from .integrators import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# flag -> (config key, help); the flag's value is stored under the key as a
# string, which config_from_mapping parses like a config file value
_FLAGS = {
    "--seed": ("seed", "study seed (64-bit)"),
    "--samples": ("n_samples", "Monte Carlo sample count"),
    "--method": ("methods", "method(s): hrlri|lri|sem|stm, comma separated"),
    "--dim": ("dim", "spatial dimension"),
    "--preset": ("preset", "benchmark problem preset"),
    "--gamma": ("gamma", "initial-data smoothness"),
    "--alpha": ("alpha", "recovery band exponent"),
    "--tau": ("tau", "coarsest (or single-run) time step"),
    "--tfinal": ("t_final", "final time"),
    "--out": ("out_dir", "output directory"),
    "--workers": ("n_workers", "worker threads"),
    "--sample": ("sample_index", "sample index (run only)"),
    "--stride": ("snapshot_stride", "snapshot stride in steps (run only)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Pseudospectral solvers and strong-convergence studies "
                    "for the periodic stochastic nonlinear wave equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("run", "integrate one sample path with snapshots"),
                       ("converge", "coupled-path convergence study"),
                       ("compare", "multi-method study with timings")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for flag, (key, text) in _FLAGS.items():
            p.add_argument(flag, dest=key, help=text)
        p.add_argument("--levels", type=int, metavar="K",
                       help="number of dyadic levels halving from --tau, else "
                            "from the coarsest configured level")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's mapping, overridden by the flags, parsed once."""
    mapping = parse_config_file(args.config) if args.config else {}
    for key, _ in _FLAGS.values():
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    config = config_from_mapping(mapping)
    if args.tau is not None and (args.command != "run" or args.levels is not None):
        coarse = config.tau
    elif args.levels is not None:
        coarse = max(config.levels, default=2**-5)
    else:
        return config
    k = args.levels if args.levels is not None else 5
    return replace(config, levels=tuple(coarse * 2.0**-i for i in range(k)))


def _cmd_run(config: ExperimentConfig) -> int:
    summary = run_single(config)
    print(f"method={summary['method']} tau={summary['tau']:.17g} "
          f"n_cut={summary['n_cut']} steps={summary['steps']}")
    print(f"final pair norm = {summary['final_norm_pair']:.6e}, "
          f"u norm = {summary['final_norm_u']:.6e} "
          f"({len(summary['snapshots'])} snapshots in {config.out_dir})")
    return EXIT_OK


def _print_reports(reports) -> None:
    for m, rep in reports.items():
        order = "n/a" if rep.fitted_order is None else f"{rep.fitted_order:.3f}"
        print(f"{m}: fitted order {order}")
        for row in rep.rows:
            print(f"  tau={row.tau:.6g} N={row.n_cut} rms={row.rms_error:.6e} "
                  f"stderr={row.stderr:.2e} excluded={row.excluded}")


def _cmd_converge(config: ExperimentConfig) -> int:
    reports = run_convergence(config)
    csv_path = emit_study(reports, config.out_dir)
    _print_reports(reports)
    print(f"report written to {csv_path}")
    return EXIT_OK


def _cmd_compare(config: ExperimentConfig) -> int:
    reports, timing = compare_methods(config)
    csv_path = emit_study(reports, config.out_dir, timing=timing)
    _print_reports(reports)
    print(f"report written to {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "converge":
            return _cmd_converge(config)
        if args.command == "compare":
            return _cmd_compare(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
