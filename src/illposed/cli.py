"""Command-line interface: ``illposed sweep``, its one subcommand.

It takes ``--config`` plus one flag per key of ``sweep.SETTINGS``; flags
override config-file keys.  Flags must be spelled in full: argparse's prefix
matching is off.  A single solve is a sweep at one noise level,
``illposed sweep --deltas 1e-2``.

Exit codes: 0 all certificates pass (and errors decrease, where a sweep has
two levels or more);
1 configuration, usage or I/O error; 2 a certificate or convergence verdict
failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ConfigurationError, IllposedError
from .sweep import (EXIT_CONFIG, SETTINGS, SweepConfig, parse_config_file,
                    print_summary, run_sweep)


class Parser(argparse.ArgumentParser):
    """Reports usage errors as ``ConfigurationError``: argparse's own exit
    code 2 is the code of a failed certificate."""

    def error(self, message):
        raise ConfigurationError(message)


def _flag_type(parse):
    """``parse`` for argparse, keeping the text of its ``ConfigurationError``
    (argparse replaces a ``ValueError``'s text by ``invalid <name> value``)."""

    def convert(text):
        try:
            return parse(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    convert.__name__ = parse.__name__  # argparse names the type in its own messages
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="illposed",
        description="Regularized solvers for operator equations with noisy data",
        allow_abbrev=False,
    )
    cmd = parser.add_subparsers(dest="command", required=True).add_parser(
        "sweep", help="convergence study over noise levels", allow_abbrev=False)
    cmd.add_argument("--config", help="flat key = value configuration file")
    for key, (parse, key_help) in SETTINGS.items():
        cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=_flag_type(parse), help=key_help)
    return parser


def _build_config(args: argparse.Namespace) -> SweepConfig:
    values = parse_config_file(args.config) if args.config else {}
    values.update({key: value for key, value in vars(args).items()
                   if key in SETTINGS and value is not None})
    if "problem" not in values:
        raise IllposedError("--problem is required (flag or config key)")
    return SweepConfig(**values)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        report = run_sweep(config)
    except (IllposedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print_summary(report)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
