"""Spectral projected gradient descent shared by both nonlinear solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError
from .grids import Grid


@dataclass
class SolveOptions:
    """Knobs of the seeded projected-gradient descent; linear solves read none."""

    max_iter: int = 10000         # projected-gradient iterations per start
    n_starts: int = 5
    seed: int = 0
    step_tol: float = 1e-10


def spg_descend(project, surrogate, gradient, true_objective, u0, opts,
                precondition=None, metric_norm_sq=None):
    """Spectral projected gradient with Armijo backtracking.

    Minimizes the smooth ``surrogate`` over the set encoded by ``project``
    while tracking the best iterate under ``true_objective``.  When the
    projection is exact for a non-Euclidean metric, pass ``precondition``
    (gradient to descent direction in that metric) and ``metric_norm_sq``
    so steps and projection agree; mixing metrics can stall at
    non-stationary points.  Returns (best_point, best_value, converged).
    """
    if precondition is None:
        precondition = lambda g: g
    if metric_norm_sq is None:
        metric_norm_sq = lambda s: float(np.dot(s, s))

    u = project(u0)
    s_val = surrogate(u)
    g = gradient(u)
    direction = precondition(g)
    step = 1.0 / max(np.sqrt(metric_norm_sq(direction)), 1e-12)
    best_value = true_objective(u)
    best_point = u.copy()
    converged = False
    window_val = s_val
    for iteration in range(opts.max_iter):
        while True:
            candidate = project(u - step * direction)
            s_new = surrogate(candidate)
            decrease = float(np.dot(g, u - candidate))
            if s_new <= s_val - 1e-4 * decrease or step < 1e-18:
                break
            step *= 0.5
        displacement = candidate - u
        g_new = gradient(candidate)
        # Barzilai-Borwein step in the projection metric
        sy = float(np.dot(displacement, g_new - g))
        ss = metric_norm_sq(displacement)
        step = min(max(ss / sy, 1e-16), 1e16) if sy > 1e-30 else step * 2.0
        u, s_val, g = candidate, s_new, g_new
        direction = precondition(g)
        value = true_objective(u)
        if value < best_value:
            best_value = value
            best_point = u.copy()
        if np.sqrt(ss) <= opts.step_tol * (1.0 + np.sqrt(metric_norm_sq(u))):
            converged = True
            break
        # iterates grazing an active constraint keep a finite step size while
        # the (monotone) surrogate has stopped improving: also converged
        if (iteration + 1) % 50 == 0:
            if window_val - s_val <= 1e-4 * max(abs(s_val), 1e-30):
                converged = True
                break
            window_val = s_val
    return best_point, best_value, converged


def seeded_starts(grid: Grid, opts: SolveOptions):
    """Positive, low-frequency random profiles.

    Smoothness matters: white-noise profiles carry an enormous difference
    seminorm, which a stabilizer constraint would immediately crush to near
    zero; band-limited starts keep multi-start diversity without that.
    """
    rng = np.random.Generator(np.random.Philox(opts.seed))
    t = (grid.nodes - grid.a) / (grid.b - grid.a)
    for _ in range(opts.n_starts):
        profile = np.ones(grid.n)
        for k in range(1, 5):
            amp_s, amp_c = 0.3 * rng.standard_normal(2)
            profile += (amp_s * np.sin(np.pi * k * t)
                        + amp_c * np.cos(np.pi * k * t)) / k
        yield np.abs(profile)


def spg_multistart(grid: Grid, opts: SolveOptions, project, surrogate, gradient,
                   true_objective, **metric) -> np.ndarray:
    """Best point under ``true_objective`` of :func:`spg_descend` over the seeded starts.

    Raises :class:`SolverFailureError`, carrying that point, when no start converged.
    """
    best_point, best_value, any_converged = None, np.inf, False
    for u0 in seeded_starts(grid, opts):
        point, value, converged = spg_descend(
            project, surrogate, gradient, true_objective, u0, opts, **metric)
        any_converged = any_converged or converged
        if value < best_value:
            best_value, best_point = value, point
    if not any_converged:
        raise SolverFailureError(
            f"no projected-gradient start converged in {opts.max_iter} iterations",
            best_point=best_point, best_value=best_value)
    return best_point
