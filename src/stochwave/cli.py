"""Command line front end.

Subcommands:

* ``run``      - integrate one sample path, writing SWV1 snapshots and plot
                 data into the output directory.
* ``converge`` - coupled-path convergence study; writes convergence.csv and
                 error-versus-tau plot data, prints fitted orders.
* ``compare``  - same study for several methods with measured timings and
                 error-versus-time plot data.

Options may come from a flat key=value config file (--config) with '#'
comments; command line flags override file values.  --levels gives the
number of dyadic levels, halving from the coarsest step --tau (default
2^-5).  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiments import (
    ConfigError,
    ExperimentConfig,
    NumericalFailure,
    canonical_method,
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
        p.add_argument("--seed", type=int, help="study seed (64-bit)")
        p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        p.add_argument("--method", help="method(s): hrlri|lri|sem|stm, comma separated")
        p.add_argument("--dim", type=int, choices=(1, 2))
        p.add_argument("--preset", type=int, choices=(1, 2, 3, 4),
                       help="benchmark problem preset")
        p.add_argument("--gamma", type=float, help="initial-data smoothness")
        p.add_argument("--alpha", type=float, help="recovery band exponent")
        p.add_argument("--tau", type=float, help="coarsest (or single-run) time step")
        p.add_argument("--tfinal", type=float, help="final time")
        p.add_argument("--levels", type=int, metavar="K",
                       help="number of dyadic levels halving from --tau")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--workers", type=int, help="worker threads")
        p.add_argument("--sample", type=int, help="sample index (run only)")
        p.add_argument("--stride", type=int, help="snapshot stride in steps (run only)")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping = parse_config_file(args.config)
    config = config_from_mapping(mapping)

    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["n_samples"] = args.samples
    if args.method is not None:
        overrides["methods"] = tuple(canonical_method(m) for m in args.method.split(","))
    if args.dim is not None:
        overrides["dim"] = args.dim
    if args.preset is not None:
        overrides["preset"] = args.preset
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.tfinal is not None:
        overrides["t_final"] = args.tfinal
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["n_workers"] = args.workers
    if args.sample is not None:
        overrides["sample_index"] = args.sample
    if args.stride is not None:
        overrides["snapshot_stride"] = args.stride
    if args.tau is not None:
        overrides["tau"] = args.tau
        if args.command in ("converge", "compare") or args.levels is not None:
            k = args.levels if args.levels is not None else 5
            overrides["levels"] = tuple(args.tau * 2.0**-i for i in range(k))
    elif args.levels is not None:
        coarse = config.levels[0] if config.levels else 2**-5
        overrides["levels"] = tuple(coarse * 2.0**-i for i in range(args.levels))

    valid = {f.name for f in fields(ExperimentConfig)}
    assert set(overrides) <= valid
    return ExperimentConfig(**{**_as_kwargs(config), **overrides})


def _as_kwargs(config: ExperimentConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}


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
    except (NumericalFailure, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
