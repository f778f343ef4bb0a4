"""Shared batched objectives for the brute-force oracle checks, a recorder
of the path root finds a solve runs, the path point at a given lambda, and
plain references the package does not need: the dense P, a batched phi, the
identity operator and the grid inner product."""

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from illposed import as_matrix, diagonal_operator, tikhonov
from illposed.grids import check_vec, trapezoid_weights
from illposed.stabilizers import add_bands, penalty_bands
from illposed.tikhonov import CoarsePoint, DirectPoint, FactoredPoint, TikhonovPath

KINDS = {CoarsePoint: "coarse", DirectPoint: "direct", FactoredPoint: "factored"}


def penalty_matrix(stab, grid):
    """Symmetric PSD matrix P with phi(u) = u^T P u (plain coordinates).

    P is positive definite when alpha0 > 0.  In the weighted geometry the
    Gram operator of phi is W^{-1} P, self-adjoint for the grid inner
    product.  P is tridiagonal, filled from ``stabilizers.penalty_bands``.
    """
    return add_bands(np.zeros((grid.n, grid.n)), *penalty_bands(stab, grid))


def phi_batch(stab, grid, pts):
    """Vectorized ``phi`` over points stacked along the leading axis."""
    pts = np.asarray(pts, dtype=float)
    value = stab.alpha0 * np.sum(grid.gram_diagonal * pts * pts, axis=-1)
    if stab.alpha1 != 0.0:
        d = np.diff(pts, axis=-1) / grid.h
        cells = grid.h * trapezoid_weights(grid.n - 1)
        value = value + stab.alpha1 * np.sum(cells * d * d, axis=-1)
    return value


def identity_operator(grid):
    return diagonal_operator(grid, np.ones(grid.n))


def inner_product(grid, u, v):
    """Trapezoid-weighted L2 inner product h * sum_i w_i u_i v_i."""
    u = check_vec(grid, u, "u")
    v = check_vec(grid, v, "v")
    return float(np.sum(grid.gram_diagonal * u * v))


def lam_point(path, f_delta, lam):
    """u_lam of ``f_delta`` on ``path``: its direct point at t = log(lam)."""
    t = math.log(lam) if lam > 0.0 else -math.inf
    return path.data(f_delta).point(t).u


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

        def counted(point):   # each point by its exact class; a new kind fails here
            getattr(find, KINDS[type(point)]).append(point.t)
            return gap(point)

        point = path_solve(path, data, counted, **kwargs)
        find.root = point.t
        return point

    monkeypatch.setattr(tikhonov, "path_solve", recording)
    return finds
