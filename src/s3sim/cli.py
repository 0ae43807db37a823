"""Command-line front end.

Subcommands: curve, chsh, geodesic, bounds, probabilities, flat-vs-s3.
Flags may also come from a flat key=value config file (--config); explicit
flags override file values. Seeds are mandatory. Exit codes: 0 success,
2 usage error (including an --n too large to allocate), 3 I/O error, 4 numeric
failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiments import (CONFIG_KEYS, EXPERIMENTS, ConfigError, ExperimentConfig, NumericError,
                          parse_config_file, run)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="flat key=value config file; flags override")
    for key, (field, type_, choices, help_) in CONFIG_KEYS.items():
        flags.add_argument(f"--{key}", type=type_, choices=choices,
                           help=help_.format(defaults[field]))
    parser = argparse.ArgumentParser(
        prog="s3sim",
        description="Seeded, reproducible singlet-correlation experiments "
                    "(CSV/JSON artifacts).")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        sub.add_parser(name, help=f"run the {name} experiment", parents=[flags])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and explicit flags into a validated config."""
    values: dict = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key == "experiment":
                if raw != args.experiment:
                    raise ConfigError(
                        f"config file is for experiment {raw!r}, not {args.experiment!r}")
            elif key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            else:
                try:
                    values[key] = CONFIG_KEYS[key][1](raw)
                except ValueError as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values:
        raise ConfigError("--seed is mandatory (no wall-clock default)")
    # absent keys take the ExperimentConfig defaults
    return ExperimentConfig(experiment=args.experiment,
                            **{CONFIG_KEYS[key][0]: v for key, v in values.items()}).validated()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = resolve_config(args)
    except (ConfigError, OSError) as exc:
        # an unreadable config file is still a usage problem
        print(f"s3sim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = run(config)
    except ConfigError as exc:
        print(f"s3sim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"s3sim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # a request the machine cannot hold is a usage problem, not a crash
        print(f"s3sim: usage error: --n {config.n_per_point} is too large for the "
              f"{config.model} model ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ArithmeticError, RuntimeError) as exc:
        print(f"s3sim: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
