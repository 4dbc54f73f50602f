"""Command line front end.

One parser: a command and the options, which every command takes alike.

* ``run``      - integrate one sample path, writing SWV1 snapshots and plot
                 data into the output directory.
* ``converge`` - coupled-path convergence study; writes convergence.csv and
                 error-versus-tau plot data, prints fitted orders.
* ``compare``  - the same study for two or more methods, its rows carrying
                 measured stepping times; also writes error-versus-time data.

``converge`` and ``compare`` share one command body.  Before any stepping it
refuses an output path (``experiments.study_files``) that a directory
holds, and ``compare`` fewer than two methods; then it runs
``run_convergence``, timed for ``compare``, and ``emit_study``.

Options may come from a flat key=value config file (--config) with '#'
comments; command line flags override file values and are parsed by the
same rules.  --levels gives the number of dyadic levels, halving from the
coarsest step: --tau, else the coarsest listed level, else the coarsest
default level of the config's dimension (``experiments.config_dim``): 2^-5
in 1D, 2^-4 in 2D, where a bare study starts too; K must be at least 1,
and a config that lists n_cuts refuses levels other than the ones it lists.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (any
``NumericalError``: a single run's non-finite step, or a study's
``NumericalFailure``), 4 output error (an output file that cannot be
written, for instance because a directory holds its name).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiments import (
    DEFAULT_LEVELS,
    ConfigError,
    ExperimentConfig,
    config_dim,
    config_from_mapping,
    emit_study,
    parse_config_file,
    resolve_config,
    run_convergence,
    run_single,
    study_files,
)
from .integrators import SCHEMES, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_OUTPUT = 4


# flag -> (config key, help); the flag's value is stored under the key as a
# string, which config_from_mapping parses like a config file value
_FLAGS = {
    "--seed": ("seed", "study seed (64-bit)"),
    "--samples": ("n_samples", "Monte Carlo sample count"),
    "--method": ("methods", f"method(s): {'|'.join(SCHEMES)}|hrlri, any case, comma separated"),
    "--dim": ("dim", "spatial dimension"),
    "--preset": ("preset", "benchmark problem preset"),
    "--gamma": ("gamma", "initial-data smoothness"),
    "--alpha": ("alpha", "recovery band exponent"),
    "--tau": ("tau", "coarsest (or single-run) time step"),
    "--tfinal": ("t_final", "final time"),
    "--out": ("out_dir", "output directory"),
    "--workers": ("n_workers", "worker processes"),
    "--sample": ("sample_index", "sample index (run only)"),
    "--stride": ("snapshot_stride", "snapshot stride in steps (run only)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Pseudospectral solvers and strong-convergence studies "
                    "for the periodic stochastic nonlinear wave equation.")
    parser.add_argument("command", choices=("run", "converge", "compare"),
                        help="one path with snapshots, a study, or a timed study")
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for flag, (key, text) in _FLAGS.items():
        parser.add_argument(flag, dest=key, help=text)
    parser.add_argument("--levels", type=int, metavar="K",
                        help="number of dyadic levels halving from --tau, else from "
                             "the coarsest listed level, else from the dimension's "
                             "coarsest default level (2^-5 in 1D, 2^-4 in 2D)")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's mapping, overridden by the flags, parsed once."""
    if args.levels is not None and args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    mapping = parse_config_file(args.config) if args.config else {}
    for key, _ in _FLAGS.values():
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    config = config_from_mapping(mapping)
    listed = config.levels or ()
    if config.tau is not None and (args.command != "run" or args.levels is not None):
        coarse = config.tau
    elif args.levels is not None:
        coarse = max(listed) if listed else DEFAULT_LEVELS[config_dim(config)][0]
    else:
        return config
    levels = tuple(coarse * 2.0**-i for i in range(5 if args.levels is None else args.levels))
    if sorted(levels) == sorted(listed):
        return config
    if config.n_cuts is not None:
        raise ConfigError(f"n_cuts pair with the listed levels {listed} only, "
                          f"not with the levels {levels}")
    return replace(config, levels=levels)


def _cmd_run(config: ExperimentConfig) -> int:
    summary = run_single(config)
    print(f"method={summary['method']} tau={summary['tau']:.17g} "
          f"n_cut={summary['n_cut']} steps={summary['steps']}")
    print(f"final pair norm = {summary['final_norm_pair']:.6e}, "
          f"u norm = {summary['final_norm_u']:.6e} "
          f"({len(summary['snapshots'])} snapshots in {config.out_dir})")
    return EXIT_OK


def _cmd_study(config: ExperimentConfig, timed: bool) -> int:
    """``converge``, or ``compare`` if ``timed``: refuse an output path that a
    directory holds, and for ``compare`` fewer than two methods, before any
    stepping; then the reports, their files and a summary."""
    config = resolve_config(config)
    if timed and len(config.methods) < 2:
        raise ConfigError("compare needs at least two methods")
    for path in study_files(config.out_dir, dict.fromkeys(config.methods, timed)).values():
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory, not a writable file")
    reports = run_convergence(config, timed)
    csv_path = emit_study(reports, config.out_dir)
    for m, rep in reports.items():
        order = "n/a" if rep.fitted_order is None else f"{rep.fitted_order:.3f}"
        print(f"{m}: fitted order {order}")
        for row in rep.rows:
            print(f"  tau={row.tau:.6g} N={row.n_cut} rms={row.rms_error:.6e} "
                  f"stderr={row.stderr:.2e} excluded={row.excluded}")
    print(f"report written to {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command == "run":
            return _cmd_run(config)
        return _cmd_study(config, timed=args.command == "compare")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
