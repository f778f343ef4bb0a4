"""Workloads, timed passes, cell checks and metrics of the illposed benchmark.

A *cell* is one (problem, delta, method) solve with its certificates: one row
of a sweep report.  A *job* is one call of a public entry point,
``sweep.run_sweep`` or ``sweep.run_solve``, and a *pass* is the list of jobs a
workload makes from ``(seed, pass index)``.  Passes are timed back to back in
one process and one thread (a closed loop with one client) until the run's
seconds are used up; every pass draws fresh noise seeds, so a run covers
several noise draws rather than one repeated.

The entry points are looked up on ``illposed.sweep`` at call time, so a
:class:`tracer.Tracer` installed around a pass sees them.  Only the entry
points are timestamped; per-cell latency of a sweep is the ``wall_ms`` the
sweep reports for each row.
"""

from __future__ import annotations

import collections
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import betainc

import illposed
from illposed import SweepConfig
from illposed.sweep import rows_to_csv

from tracer import LayerStats, Tracer

SWEEP = "sweep"
SOLVE = "solve"
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10            # samples a tail percentile must leave above it
SETUP_REPEATS = 5           # fresh processes timed for setup_s
PASS_CAP_S = 100.0          # never start a pass after this much timed work
F_IDENTITY_RTOL = 1e-12

NUMERIC_FIELDS = {
    "variational": ("error_l2", "residual_noisy", "residual_exact", "phi_u",
                    "F_value"),
    "quasi": ("error_l2", "residual_noisy", "residual_exact", "phi_u"),
}
CERT_FIELDS = {
    "variational": ("cert_18", "cert_19", "cert_110"),
    "quasi": ("cert_24", "cert_26"),
}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs; see README.md for why each was chosen."""

    name: str
    kind: str                    # SWEEP: run_sweep jobs; SOLVE: run_solve jobs
    problems: Tuple[str, ...]
    n: int
    deltas: Tuple[float, ...]
    repeats: int                 # sweeps per problem, or solves per combination
    min_passes: int

    @property
    def cells_per_pass(self) -> int:
        return len(self.problems) * len(self.deltas) * 2 * self.repeats

    @property
    def tail_pct(self) -> float:
        """Highest ladder percentile with TAIL_BEYOND samples beyond it.

        Fixed from the guaranteed sample count, so every run of a workload
        reports the same percentile whatever number of passes it fits.
        """
        cells = self.min_passes * self.cells_per_pass
        fitting = [p for p in TAIL_LADDER if cells * (1.0 - p / 100.0) >= TAIL_BEYOND]
        if not fitting:
            raise ValueError(f"{self.name}: {cells} guaranteed cells leave no "
                             f"percentile with {TAIL_BEYOND} samples beyond it")
        return fitting[-1]


LINEAR = ("diag-unbounded", "volterra-int", "fredholm-gauss")
DEFAULT_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)

WORKLOADS = {
    wl.name: wl for wl in (
        Workload("linear-sweep-n512", SWEEP, LINEAR, 512, DEFAULT_DELTAS,
                 repeats=1, min_passes=3),
        Workload("linear-solve-n64", SOLVE, LINEAR, 64, DEFAULT_DELTAS,
                 repeats=8, min_passes=2),
        Workload("autoconv-sweep-n64", SWEEP, ("autoconv",), 64, (2e-1, 2e-2),
                 repeats=1, min_passes=10),
    )
}


def make_pass(wl: Workload, seed: int, index: int) -> List[SweepConfig]:
    """The jobs of pass ``index``: a pure function of the workload and seed."""
    rng = random.Random(seed * 1_000_003 + index)
    if wl.kind == SWEEP:
        return [SweepConfig(problem=p, n=wl.n, method="both", deltas=wl.deltas,
                            seed=rng.randrange(2**31))
                for _ in range(wl.repeats) for p in wl.problems]
    jobs = [SweepConfig(problem=p, n=wl.n, method=m, deltas=(d,),
                        seed=rng.randrange(2**31))
            for _ in range(wl.repeats) for p in wl.problems
            for d in wl.deltas for m in ("variational", "quasi")]
    rng.shuffle(jobs)
    return jobs


def expected_cells(wl: Workload, config: SweepConfig) -> List[Tuple[float, str]]:
    deltas = sorted(set(config.deltas), reverse=True)
    if wl.kind == SOLVE:
        deltas = deltas[:1]
    return [(d, m) for d in deltas for m in config.methods]


def cell_failure(row) -> Optional[str]:
    """Why a returned row counts as failed, or None when it is sound."""
    if row.solver_error is not None:
        return f"solver_error: {row.solver_error}"
    for name in NUMERIC_FIELDS[row.method]:
        value = getattr(row, name)
        if value is None or not math.isfinite(value):
            return f"{name} is {value!r}"
    for name in CERT_FIELDS[row.method]:
        if not isinstance(getattr(row, name), bool):
            return f"{name} is {getattr(row, name)!r}"
    if row.method == "variational":
        expected = row.residual_noisy + row.delta * row.phi_u
        if not math.isclose(row.F_value, expected, rel_tol=F_IDENTITY_RTOL):
            return f"F_value {row.F_value!r} != residual + delta*phi {expected!r}"
    return None


@dataclass
class JobResult:
    seconds: float
    attempted: int
    failed: int
    csv: Optional[str]
    cell_ms: List[float] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)     # error_l2 of sound cells
    cert_ok: int = 0
    problems: List[str] = field(default_factory=list)


def run_job(wl: Workload, config: SweepConfig) -> JobResult:
    entry = illposed.sweep.run_solve if wl.kind == SOLVE else illposed.sweep.run_sweep
    expected = expected_cells(wl, config)
    started = time.perf_counter()
    try:
        report = entry(config)
    except Exception as exc:  # the run goes on: every cell of the job fails
        seconds = time.perf_counter() - started
        return JobResult(seconds, len(expected), len(expected), None,
                         problems=[f"{config.problem}: {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - started
    result = JobResult(seconds, len(expected), 0, rows_to_csv(report.rows))
    got = [(row.delta, row.method) for row in report.rows]
    if got != expected:
        result.failed = len(expected)
        result.problems.append(f"{config.problem}: rows {got} != {expected}")
        return result
    for row in report.rows:
        why = cell_failure(row)
        if why is not None:
            result.failed += 1
            result.problems.append(f"{config.problem} {row.method} {row.delta:g}: {why}")
            continue
        result.cell_ms.append(1000.0 * seconds if wl.kind == SOLVE else row.wall_ms)
        result.errors.append(row.error_l2)
        result.cert_ok += row.certificates_ok
    return result


@dataclass
class PassResult:
    seconds: float
    jobs: List[JobResult]


def run_pass(wl: Workload, jobs: List[SweepConfig]) -> PassResult:
    started = time.perf_counter()
    results = [run_job(wl, config) for config in jobs]
    return PassResult(time.perf_counter() - started, results)


def check_repeat(first: PassResult, again: PassResult) -> None:
    """Fail every cell of a repeated job whose CSV differs from the first run's.

    A job that raised has no CSV: its cells already count as failed, and a
    job that raised the first time leaves nothing to compare against.
    """
    for a, b in zip(first.jobs, again.jobs):
        if a.csv is not None and b.csv is not None and b.csv != a.csv:
            b.problems.append("CSV differs from the first run of the same job")
            b.failed = b.attempted


def measure_setup(wl: Workload, root: str) -> List[float]:
    """Import illposed and build the workload's problems in fresh processes."""
    probe = [sys.executable, f"{root}/perfbench/setup_probe.py", root,
             ",".join(wl.problems), str(wl.n)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def warm_up(wl: Workload) -> None:
    """Load LAPACK wrappers and lazy imports before anything is timed."""
    illposed.sweep.run_solve(SweepConfig(problem=wl.problems[0], n=wl.n,
                                         method="variational",
                                         deltas=wl.deltas[:1]))


def timed_passes(wl: Workload, seed: int, seconds: float) -> List[PassResult]:
    passes: List[PassResult] = []
    while True:
        passes.append(run_pass(wl, make_pass(wl, seed, len(passes))))
        spent = sum(p.seconds for p in passes)
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= wl.min_passes and spent + typical > seconds:
            return passes
        if spent > PASS_CAP_S:
            return passes


def percentile(values: List[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile; 0 for an empty sample.

    A weighted mean of every order statistic, with beta weights centred on
    the requested rank.  Cell latencies form clusters by method (quasi and
    variational cells each make up half of every workload), so the plain
    sample median sits in the gap between two clusters and jumps with the
    edge samples; the weighted estimate does not.
    """
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n, p = len(ordered), pct / 100.0
    cdf = betainc((n + 1) * p, (n + 1) * (1.0 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), ordered))


def totals(passes: List[PassResult]) -> Tuple[int, int, List[str]]:
    jobs = [job for p in passes for job in p.jobs]
    return (sum(j.attempted for j in jobs), sum(j.failed for j in jobs),
            [msg for j in jobs for msg in j.problems])


def end_to_end(wl: Workload, passes: List[PassResult], setup: List[float],
               extra: List[PassResult]) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """End-to-end metrics of an untraced run, and the facts behind them.

    Accuracy guards (``cert_pass_frac``, ``error_l2_gmean``) read the first
    ``min_passes`` passes only, which every run makes, so they compare the
    same noise draws across commits however fast a pass is.
    """
    cell_ms = [ms for p in passes for job in p.jobs for ms in job.cell_ms]
    guarded = [job for p in passes[:wl.min_passes] for job in p.jobs]
    sound = sum(len(job.errors) for job in guarded)
    attempted, failed, problems = totals(passes + extra)
    tail_pct = wl.tail_pct
    log_errors = [math.log(max(e, 1e-300)) for job in guarded for e in job.errors]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "cells_per_s": (statistics.median(sum(len(j.cell_ms) for j in p.jobs) / p.seconds
                                          for p in passes), "1/s"),
        "cell_ms_p50": (percentile(cell_ms, 50.0), "ms"),
        "cell_ms_tail": (percentile(cell_ms, tail_pct), "ms"),
        "completed_frac": (1.0 - failed / attempted, "ratio"),
        "cert_pass_frac": (sum(j.cert_ok for j in guarded) / max(sound, 1), "ratio"),
        "error_l2_gmean": (math.exp(statistics.fmean(log_errors)) if log_errors else 0.0,
                           "norm"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    facts = {
        "passes": len(passes),
        "cells_timed": len(cell_ms),
        "failed_frac": failed / attempted,
        "cell_ms_tail_pct": tail_pct,
        "cell_ms_tail_beyond": sum(ms > metrics["cell_ms_tail"][0] for ms in cell_ms),
        "setup_samples_s": setup,
        "pass_samples_s": [p.seconds for p in passes],
        "problems": problems[:20],
    }
    return metrics, facts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# per-layer metrics of a traced run: "<layer>.<function>.<field>"
PER_LAYER = (
    "linalg.cho_factor.calls", "linalg.cho_factor.s",
    "linalg.cho_factor.gflop_computed", "linalg.cho_factor.gflops",
    "linalg.cho_solve.calls", "linalg.cho_solve.s",
    "variational.minimize_variational.calls", "variational.minimize_variational.s",
    "variational.minimize_variational.self_s",
    "quasisolution.minimize_on_compactum.calls", "quasisolution.minimize_on_compactum.s",
    "quasisolution.minimize_on_compactum.self_s",
    "operators.apply.calls", "operators.apply.s",
    "operators.jacobian_adjoint_apply.calls",
    "stabilizers.project_onto.calls", "stabilizers.project_onto.s",
    "stabilizers.phi_value.calls", "stabilizers.phi_value.s",
    "gallery.build_problem.s", "noise.inject_noise.s",
    "variational.variational_certificate.s", "quasisolution.quasi_certificate.s",
    "stabilizers.penalty_matrix.s",
    "sweep.solve_one.calls", "sweep.solve_one.self_s",
    "trace.overhead_frac",
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s",
               "gflop_computed": "GFLOP", "gflops": "GFLOP/s", "overhead_frac": "ratio"}


def per_layer(stats_runs: List[Dict[str, object]], untraced: List[float],
              traced: List[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    Counts come from the first traced pass (every traced pass runs the same
    jobs); times are medians over the traced passes.
    """
    # a layer that no longer exists reads as never called
    stats_runs = [collections.defaultdict(LayerStats, run) for run in stats_runs]
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric in PER_LAYER:
        layer, _, attr = metric.rpartition(".")
        if metric == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(untraced) - 1.0
        elif attr == "calls":
            value = stats_runs[0][layer].calls
        elif attr == "gflop_computed":
            value = stats_runs[0][layer].gflop
        elif attr == "gflops":
            seconds = statistics.median(run[layer].s for run in stats_runs)
            value = stats_runs[0][layer].gflop / seconds if seconds > 0 else 0.0
        else:
            value = statistics.median(getattr(run[layer], attr) for run in stats_runs)
        metrics[metric] = (value, FIELD_UNITS[attr])
    return metrics


def traced_pairs(wl: Workload, seed: int, seconds: float):
    """Alternate untraced and traced runs of pass 0 until ``seconds`` are used.

    Returns every pass run, the per-pass tracer stats, and the pass times of
    each side.  Every repeat is checked against the first untraced run.
    """
    jobs = make_pass(wl, seed, 0)
    passes: List[PassResult] = []
    stats_runs, untraced, traced = [], [], []
    while True:
        plain = run_pass(wl, jobs)
        with Tracer() as tracer:
            seen = run_pass(wl, jobs)
        reference = passes[0] if passes else plain
        check_repeat(reference, plain)
        check_repeat(reference, seen)
        passes += [plain, seen]
        stats_runs.append(tracer.stats)
        untraced.append(plain.seconds)
        traced.append(seen.seconds)
        spent = sum(untraced) + sum(traced)
        if spent + spent / len(traced) > seconds or spent > PASS_CAP_S:
            return passes, stats_runs, untraced, traced


def calls_repeat(stats_runs) -> bool:
    first = {name: st.calls for name, st in stats_runs[0].items()}
    return all({name: st.calls for name, st in run.items()} == first
               for run in stats_runs[1:])


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 root: str) -> Tuple[dict, dict]:
    """Run one workload; returns (result line, run facts)."""
    setup = [] if trace else measure_setup(wl, root)
    warm_up(wl)
    if trace:
        passes, stats_runs, untraced, traced = traced_pairs(wl, seed, seconds)
        metrics = per_layer(stats_runs, untraced, traced)
        attempted, failed, problems = totals(passes)
        facts = {"traced_passes": len(traced), "calls_repeat": calls_repeat(stats_runs),
                 "failed_frac": failed / attempted, "problems": problems[:20]}
    else:
        passes = timed_passes(wl, seed, seconds)
        # repeat the first job of the first pass: its CSV must be byte-identical
        again = run_pass(wl, make_pass(wl, seed, 0)[:1])
        check_repeat(passes[0], again)
        metrics, facts = end_to_end(wl, passes, setup, [again])
        attempted, failed, _ = totals(passes + [again])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, facts
