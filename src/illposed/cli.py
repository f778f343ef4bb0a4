"""Command-line interface: ``illposed solve`` and ``illposed sweep``.

Exit codes: 0 all certificates pass (and errors decrease, for sweeps);
1 configuration or I/O error; 2 a certificate or convergence verdict failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import IllposedError
from .sweep import (EXIT_CONFIG, SweepConfig, parse_config_file, parse_deltas,
                    print_summary, run_solve, run_sweep)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--problem", help="gallery problem name")
    parser.add_argument("--n", type=int, help="number of grid nodes")
    parser.add_argument("--sigma", type=float, help="kernel width for fredholm-gauss")
    parser.add_argument("--method", choices=["variational", "quasi", "both"])
    parser.add_argument("--seed", type=int, help="base seed for noise draws")
    parser.add_argument("--alpha0", type=float, help="stabilizer weight on the value term")
    parser.add_argument("--alpha1", type=float, help="stabilizer weight on the slope term")
    parser.add_argument("--rho", type=float,
                        help="explicit constraint-set radius (blind mode)")
    parser.add_argument("--rho-factor", type=float, dest="rho_factor",
                        help="radius as a multiple of the true solution's stabilizer value")
    parser.add_argument("--noise-mode", choices=["exact-norm", "bounded"],
                        dest="noise_mode")
    parser.add_argument("--out", help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Regularized solvers for operator equations with noisy data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="single solve at one noise level")
    _add_common_flags(solve)
    solve.add_argument("--delta", type=float, help="noise level")

    sweep = sub.add_parser("sweep", help="convergence study over noise levels")
    _add_common_flags(sweep)
    sweep.add_argument("--deltas", help="comma-separated noise levels")
    return parser


def _build_config(args: argparse.Namespace) -> SweepConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    overrides = {
        key: getattr(args, key)
        for key in ("problem", "n", "sigma", "method", "seed", "alpha0",
                    "alpha1", "rho", "rho_factor", "noise_mode", "out")
        if getattr(args, key, None) is not None
    }
    values.update(overrides)
    if getattr(args, "delta", None) is not None:
        values["deltas"] = (args.delta,)
    if getattr(args, "deltas", None) is not None:
        values["deltas"] = parse_deltas(args.deltas)
    if "problem" not in values:
        raise IllposedError("--problem is required (flag or config key)")
    return SweepConfig(**values)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        report = run_solve(config) if args.command == "solve" else run_sweep(config)
    except (IllposedError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print_summary(report)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
