"""Shared batched objectives for the brute-force oracle checks, a recorder
of the path root finds a solve runs, and the path point at a given lambda."""

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from illposed import as_matrix, phi_batch, tikhonov
from illposed.tikhonov import FactoredPoint, PathPoint, TikhonovPath


def lam_point(path, f_delta, lam):
    """u_lam of ``f_delta`` on ``path``: its direct point at t = log(lam)."""
    t = math.log(lam) if lam > 0.0 else -math.inf
    return PathPoint(path.data(f_delta), t, True).u


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


@dataclass
class RootFind:
    """One path root find: its path, data, gap, tol and start, the t of its
    factored, its O(k) and its direct evaluations, in order, and the t it
    returned (None when it raised)."""

    path: TikhonovPath
    data: np.ndarray
    gap: Callable
    tol: float
    start: float
    coarse: List[float] = field(default_factory=list)
    direct: List[float] = field(default_factory=list)
    factored: List[float] = field(default_factory=list)
    root: Optional[float] = None

    @property
    def points(self):
        """The t of every evaluation, in order: factored points come first, then
        the pencil's O(k) phase and its direct finish."""
        return self.factored + self.coarse + self.direct

    @property
    def t_floor(self):
        return self.path.t_floor


def recorded_root_finds(monkeypatch):
    """A RootFind of every ``tikhonov.path_solve``, which still runs."""
    finds = []
    path_solve = tikhonov.path_solve
    signature = inspect.signature(path_solve)

    def recording(path, data, gap, **kwargs):
        given = signature.bind(path, data, gap, **kwargs)
        given.apply_defaults()
        find = RootFind(path, data, gap, given.arguments["tol"], given.arguments["start"])
        finds.append(find)

        def counted(point):
            kind = (find.factored if isinstance(point, FactoredPoint)
                    else find.direct if point.direct else find.coarse)
            kind.append(point.t)
            return gap(point)

        point = path_solve(path, data, counted, **kwargs)
        find.root = point.t
        return point

    monkeypatch.setattr(tikhonov, "path_solve", recording)
    return finds
