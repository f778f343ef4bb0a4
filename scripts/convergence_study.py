#!/usr/bin/env python3
"""Convergence study across the linear gallery: error versus noise level.

Runs both methods on every linear problem over a geometric range of noise
levels, writes one CSV per problem into ``results/`` and prints a compact
error table.  ``--with-autoconv`` adds the nonlinear autoconvolution problem.
"""

import os
import sys

from illposed import ConfigurationError, SweepConfig, run_sweep
from illposed.cli import Parser
from illposed.sweep import EXIT_CONFIG, parse_deltas, print_summary

LINEAR = ("diag-unbounded", "volterra-int", "fredholm-gauss")


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--deltas", default="1e-1,1e-2,1e-3,1e-4")
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--with-autoconv", action="store_true")
    try:
        args = parser.parse_args()
        problems = LINEAR + (("autoconv",) if args.with_autoconv else ())
        deltas = parse_deltas(args.deltas)
        configs = [SweepConfig(problem=name, n=args.n, method="both",
                               deltas=deltas, seed=args.seed,
                               out=os.path.join(args.outdir, f"{name}.csv"))
                   for name in problems]
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.outdir, exist_ok=True)

    worst = 0
    table = {}
    for name, config in zip(problems, configs):
        print(f"== {name} (n={args.n}) -> {config.out}")
        report = run_sweep(config)
        print_summary(report)
        print()
        worst = max(worst, report.exit_code)
        for row in report.rows:
            table[(name, row.method, row.delta)] = row.error_l2

    print("error_l2 by noise level")
    header = "problem/method".ljust(28) + "".join(f"{d:>12.0e}" for d in deltas)
    print(header)
    for name in problems:
        for method in ("variational", "quasi"):
            cells = "".join(f"{table[(name, method, d)]:>12.3e}" for d in deltas)
            print(f"{name + '/' + method:<28}" + cells)
    return worst


if __name__ == "__main__":
    sys.exit(main())
