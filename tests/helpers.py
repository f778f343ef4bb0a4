"""Shared batched objectives for the brute-force oracle checks, and a recorder
of the path root finds a solve runs."""

import numpy as np

from illposed import as_matrix, phi_batch, tikhonov


def weighted_residual_batch(problem, f_delta):
    """Batched ||A u - f_delta|| over points stacked along the leading axis."""
    M = as_matrix(problem.op)
    gram = problem.grid.gram_diagonal

    def residuals(pts):
        r = pts @ M.T - f_delta[None, :]
        return np.sqrt(np.sum(gram[None, :] * r * r, axis=1))

    return residuals


def f_objective_batch(problem, stab, f_delta, delta):
    """Batched F(u) = ||A u - f_delta|| + delta * phi(u)."""
    residuals = weighted_residual_batch(problem, f_delta)
    grid = problem.grid

    def objective(pts):
        return residuals(pts) + delta * phi_batch(stab, grid, pts)

    return objective


def constrained_residual_batch(problem, K, f_delta, infeasible_value=1e30):
    """Batched residual, with points outside K mapped to a large finite value.

    The finite marker keeps golden-section refinement usable near the
    feasible boundary while still excluding infeasible grid points.
    """
    residuals = weighted_residual_batch(problem, f_delta)
    grid = problem.grid

    def objective(pts):
        phi = phi_batch(K.stab, grid, pts)
        feasible = phi <= K.rho * (1.0 + 1e-12)
        return np.where(feasible, residuals(pts), infeasible_value)

    return objective


def recorded_root_finds(monkeypatch):
    """[path, data, fn, t_floor] of every path root find, which still runs."""
    found = []
    path_solve, path_root = tikhonov.path_solve, tikhonov.path_root

    def solve_recording(path, data, gap, **kwargs):
        found.append([path, data])
        return path_solve(path, data, gap, **kwargs)

    def root_recording(fn, t_floor, **kwargs):
        found[-1] += [fn, t_floor]
        return path_root(fn, t_floor, **kwargs)

    monkeypatch.setattr(tikhonov, "path_solve", solve_recording)
    monkeypatch.setattr(tikhonov, "path_root", root_recording)
    return found
