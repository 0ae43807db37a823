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

from .experiments import (EXPERIMENTS, FORMATS, ConfigError, ExperimentConfig,
                          NumericError, parse_config_file, run)
from .pearle import MODES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3sim",
        description="Seeded, reproducible singlet-correlation experiments "
                    "(CSV/JSON artifacts).")
    sub = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--model", choices=MODES, help="ensemble model (default s3)")
        p.add_argument("--n", type=int, dest="n", help="samples per grid point")
        p.add_argument("--seed", type=int, help="64-bit seed (mandatory)")
        p.add_argument("--grid", help="angle grid start:stop:step or a comma list, in degrees")
        p.add_argument("--kappa", type=int, help="winding index (default 1)")
        p.add_argument("--steps", type=int, help="geodesic sweep steps (default 180)")
        p.add_argument("--workers", type=int,
                       help="worker processes for the grid points or CHSH setting pairs "
                            "(default 1)")
        p.add_argument("--out", help="output path (default <experiment>.<format>)")
        p.add_argument("--format", choices=FORMATS, help="artifact format (default csv)")
    return parser


_KEY_TYPES = {"n": int, "seed": int, "kappa": int, "steps": int, "workers": int}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and explicit flags into a validated config."""
    values: dict = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key in ("model", "grid", "out", "format"):
                values[key] = raw
            elif key in _KEY_TYPES:
                try:
                    values[key] = _KEY_TYPES[key](raw)
                except ValueError as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from exc
            elif key == "experiment":
                if raw != args.experiment:
                    raise ConfigError(
                        f"config file is for experiment {raw!r}, not {args.experiment!r}")
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in ("model", "n", "seed", "grid", "kappa", "steps", "workers", "out", "format"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "seed" not in values:
        raise ConfigError("--seed is mandatory (no wall-clock default)")
    if "n" in values:
        values["n_per_point"] = values.pop("n")
    # absent keys take the ExperimentConfig defaults
    return ExperimentConfig(experiment=args.experiment, **values).validated()


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
