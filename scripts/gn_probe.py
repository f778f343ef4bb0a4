#!/usr/bin/env python3
"""The Gauss-Newton gate: autoconv cells that every change to the nonlinear road must pass.

It runs the ``illposed`` that Python imports, so ``PYTHONPATH=<checkout>/src``
picks the checkout.  Every sweep uses the CLI defaults (method both, deltas
1e-1..1e-4) unless named otherwise:

- the probe: for k = 0 .. K-1, ``rng = random.Random(k * 1_000_003)`` draws
  ``seed = rng.randrange(2**31)`` for an n=16 sweep and then one for an n=64
  sweep, 8 cells each (320 cells at K = 20);
- the round-off twins: n = 16, seeds 1 .. K, every cell solved on its noisy
  data and on those data scaled by 1 + 2**-52;
- with ``--wide``, a grid of sweeps over n in {16, 32, 64, 128}, alpha0 and
  alpha1 in {0.1, 1, 10}, rho_factor in {1.1, 1.5, 3} and seeds 1 and 2
  (1728 cells).

For each part it prints the failing cells (a solver error or a false
verdict), the most and the total Gauss-Newton steps of a cell, the pencil
decompositions (a sweep decomposes the first step's pencil once per start
point, and a later step only where it starts at lam = 0 or falls back), the
pencil fallbacks (later steps whose factored root find handed the step to
the pencil), the root finds and their O(k), direct and factored path
evaluations per method, and the geometric-mean ``error_l2`` per (method,
delta); for the twins also the worst relative change of ``error_l2``.  It
exits 1 when a cell fails, else 0.

    PYTHONPATH=src python scripts/gn_probe.py [--seeds K] [--wide]
"""

import argparse
import itertools
import math
import random
import sys
from collections import defaultdict

import numpy as np

from illposed import (Compactum, Stabilizer, SweepConfig, build_problem,
                      inject_noise, run_sweep, sweep, tikhonov)
from illposed.sweep import delta_seed, resolve_rho

PROBE_NS = (16, 64)
TWIN_N = 16
TWIN_SCALE = 1.0 + 2.0 ** -52
WIDE_NS = (16, 32, 64, 128)
WIDE_WEIGHTS = (0.1, 1.0, 10.0)
WIDE_RHO_FACTORS = (1.1, 1.5, 3.0)
WIDE_SEEDS = (1, 2)
KINDS = {tikhonov.CoarsePoint: "O(k)", tikhonov.DirectPoint: "direct",
         tikhonov.FactoredPoint: "factored"}   # each point kind by its exact class


class Tally:
    """Gauss-Newton steps of each cell, pencil decompositions and fallbacks,
    and root finds with their O(k), direct and factored path evaluations by
    method."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.steps = []   # one entry per cell
        self.decompositions = 0
        self.fallbacks = 0
        self.method = None   # the method of the current cell
        self.root_finds = defaultdict(int)
        self.evaluations = defaultdict(int)   # (method, "O(k)", "direct" or "factored")

    def install(self):
        """Count through ``sweep.solve_one`` (one cell), ``np.linalg.eigh`` (one
        pencil decomposition) and ``tikhonov.path_solve`` (one Gauss-Newton
        step's root find, whose gap sees every path point it evaluates, O(k),
        direct or factored; a find on a provider with a fallback that evaluates
        an O(k) point has fallen back to the pencil)."""
        solve_one, eigh = sweep.solve_one, np.linalg.eigh
        path_solve = tikhonov.path_solve

        def counted_cell(problem, method, *args):
            self.steps.append(0)
            self.method = method
            return solve_one(problem, method, *args)

        def counted_eigh(*args, **kwargs):
            self.decompositions += 1
            return eigh(*args, **kwargs)

        def counted_solve(path, data, gap, **kwargs):
            self.steps[-1] += 1
            self.root_finds[self.method] += 1

            kinds = set()

            def counted_gap(point):
                kind = KINDS[type(point)]
                kinds.add(kind)
                self.evaluations[(self.method, kind)] += 1
                return gap(point)

            try:
                return path_solve(path, data, counted_gap, **kwargs)
            finally:
                if path.fallback is not None and "O(k)" in kinds:
                    self.fallbacks += 1

        sweep.solve_one = counted_cell
        np.linalg.eigh = counted_eigh
        tikhonov.path_solve = counted_solve


def relative_change(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def probe(seeds):
    """(label, row) of the probe's cells."""
    cells = []
    for k in range(seeds):
        rng = random.Random(k * 1_000_003)
        for n in PROBE_NS:
            seed = rng.randrange(2 ** 31)
            report = run_sweep(SweepConfig(problem="autoconv", n=n, seed=seed))
            cells += [(f"k={k} n={n} seed={seed}", row) for row in report.rows]
    return cells


def twins(seeds):
    """(label, row) of every twin cell, and the worst relative error_l2 change."""
    cells, worst = [], (0.0, None)
    for seed in range(1, seeds + 1):
        config = SweepConfig(problem="autoconv", n=TWIN_N, seed=seed)
        problem = build_problem(config.problem, config.n)
        stab = Stabilizer(config.alpha0, config.alpha1)
        K = Compactum(stab, resolve_rho(config, problem, stab))
        label = f"n={TWIN_N} seed={seed}"
        for j, delta in enumerate(config.deltas):
            f_delta = inject_noise(problem.grid, problem.f_exact, delta,
                                   delta_seed(config, j))
            for method in config.methods:
                pair = [sweep.solve_one(problem, method, delta, data, stab, K, None)
                        for data in (f_delta, f_delta * TWIN_SCALE)]
                cells += [(label, row) for row in pair]
                if all(row.error_l2 is not None for row in pair):
                    change = relative_change(pair[0].error_l2, pair[1].error_l2)
                    if change > worst[0]:
                        worst = (change, f"{label} delta={delta:g} {method}")
    return cells, worst


def wide():
    """(label, row) of the wide grid's cells."""
    cells = []
    for n, alpha0, alpha1, rho_factor, seed in itertools.product(
            WIDE_NS, WIDE_WEIGHTS, WIDE_WEIGHTS, WIDE_RHO_FACTORS, WIDE_SEEDS):
        report = run_sweep(SweepConfig(problem="autoconv", n=n, alpha0=alpha0,
                                       alpha1=alpha1, rho_factor=rho_factor, seed=seed))
        label = (f"n={n} alpha0={alpha0:g} alpha1={alpha1:g} "
                 f"rho_factor={rho_factor:g} seed={seed}")
        cells += [(label, row) for row in report.rows]
    return cells


def summarize(name, cells, tally):
    """Print one part's summary; return its number of failing cells."""
    failing = [(label, row) for label, row in cells if not row.certificates_ok]
    print(f"== {name}: {len(cells)} cells, {len(failing)} failing")
    for label, row in failing:
        verdicts = [column for column in sweep.CERT_COLUMNS
                    if getattr(row, column) is False]
        reason = row.solver_error or "false " + ",".join(verdicts)
        print(f"   FAIL {label} delta={row.delta:g} {row.method}: {reason}")
    print(f"   Gauss-Newton steps: most {max(tally.steps, default=0)}, "
          f"total {sum(tally.steps)}; pencil decompositions: {tally.decompositions}; "
          f"pencil fallbacks: {tally.fallbacks}")
    for method in sorted(tally.root_finds):
        print(f"   {method:<11s} root finds: {tally.root_finds[method]}, path "
              f"evaluations: O(k) {tally.evaluations[(method, 'O(k)')]}, "
              f"direct {tally.evaluations[(method, 'direct')]}, "
              f"factored {tally.evaluations[(method, 'factored')]}")
    logs = defaultdict(list)
    for _, row in cells:
        if row.error_l2 is not None and row.error_l2 > 0.0:
            logs[(row.method, row.delta)].append(math.log(row.error_l2))
    for method, delta in sorted(logs, key=lambda key: (key[0], -key[1])):
        values = logs[(method, delta)]
        print(f"   {method:<11s} delta={delta:<8g} error_l2 gmean "
              f"{math.exp(sum(values) / len(values)):.6e}")
    return len(failing)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=20,
                        help="probe k values and twin seeds (default 20)")
    parser.add_argument("--wide", action="store_true",
                        help="also run the 1728-cell grid")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    tally = Tally()
    tally.install()
    failing = summarize("probe", probe(args.seeds), tally)

    tally.reset()
    cells, (change, where) = twins(args.seeds)
    failing += summarize("round-off twins", cells, tally)
    print(f"   worst twin error_l2 change: {change:.2e}"
          + (f" ({where})" if where else ""))

    if args.wide:
        tally.reset()
        failing += summarize("wide grid", wide(), tally)
    print(f"failing cells: {failing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
