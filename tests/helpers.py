"""Shared batched objectives for the brute-force checks against
``oracle.py``, the membership test of a compactum that they and the
acceptance suite use, the one recorder of the calls of a function and the
one of the path root finds a solve runs, the check of a gap's slope, the
path point at a given lambda, and plain references the package does not
need: the dense P, a batched phi, the identity operator and the grid inner
product, and the ``np.sum`` and ``np.diff`` forms of the L2 norm and phi and
the gather form of the autoconvolution Jacobian, which the package's forms
must equal bit for bit.  ``scripts/gn_probe.py`` counts solver work through
these recorders too."""

import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from illposed import as_matrix, diagonal_operator, phi_value, tikhonov
from illposed.grids import check_vec, trapezoid_weights
from illposed.stabilizers import CONTAINS_RTOL, add_bands, penalty_bands
from illposed.tikhonov import (EPS, CoarsePoint, DirectPoint, FactoredPoint, PathData,
                               TikhonovPath)

# each path point kind by its exact class, and the RootFind list it goes to
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
        value = value + stab.alpha1 * np.sum(grid.cell_gram_diagonal * d * d, axis=-1)
    return value


def inside(K, phi):
    """Whether points with these phi values lie in K: the inside test of
    ``project_onto``, which counts the boundary as inside up to
    ``CONTAINS_RTOL``."""
    return phi <= K.rho * (1.0 + CONTAINS_RTOL)


def contains(K, grid, u):
    """Membership test; the boundary counts as inside (K is closed)."""
    return inside(K, phi_value(K.stab, grid, u))


def l2_norm_reference(grid, v):
    """sqrt(h * sum_i w_i v_i^2) by ``np.sum`` and ``np.sqrt``."""
    return float(np.sqrt(np.sum(grid.gram_diagonal * v * v)))


def phi_reference(stab, grid, u):
    """phi(u) by ``np.sum``, with the differences by ``np.diff``."""
    value = 0.0
    if stab.alpha0 != 0.0:
        value = stab.alpha0 * float(np.sum(grid.gram_diagonal * u * u))
    if stab.alpha1 != 0.0:
        d = np.diff(u) / grid.h
        value += stab.alpha1 * float(np.sum(grid.h * trapezoid_weights(grid.n - 1) * d * d))
    return value


def autoconvolve_jacobian_reference(grid, u):
    """A'(u) = h (2 T(u) - u_0 I - u e_0^T) of the autoconvolution, T(u) by a
    gather through an n x n index array and ``tril``."""
    i = np.arange(grid.n)
    # the negative indices above the diagonal wrap around; tril zeroes them
    jac = 2.0 * np.tril(u[i[:, None] - i])
    jac[i, i] -= u[0]
    jac[:, 0] -= u
    return grid.h * jac


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


def check_slope(find, allowance, h=1e-4):
    """The slope of the O(k) gap of ``find`` against a central difference of
    its value, from just above the floor of the path to t = 5: to 1e-6
    relative, plus the difference's own round-off, 4 k eps / h for sums of k
    terms.  And its value against the direct gap's, to ``allowance(find,
    data, direct)``, the method's bound on what the decomposition's error
    and round-off move the direct value by."""
    data = PathData(find.path, find.data)
    k = find.path.spectrum[1].shape[1]
    resolved = 0
    for t in np.linspace(find.t_floor + 0.5, 5.0, 12):
        value, slope = find.gap(data.coarse(t))
        difference = (find.gap(data.coarse(t + h))[0]
                      - find.gap(data.coarse(t - h))[0]) / (2.0 * h)
        roundoff = 4.0 * k * EPS / h
        assert abs(slope - difference) <= 1e-6 * abs(difference) + roundoff, t
        resolved += roundoff <= 1e-7 * abs(difference)
        direct = data.point(t)
        assert abs(value - find.gap(direct)[0]) <= allowance(find, data, direct), t
    assert resolved >= 4   # points where the test is 1e-6 relative outright


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
        feasible = inside(K, phi_batch(K.stab, grid, pts))
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


def calls(monkeypatch, owner, name, results=False):
    """The arguments of every call of ``owner.name``, which still runs, in call
    order, each a dict by parameter name; with ``results``, the result of
    each call instead, once it returns.  ``owner`` may be a tuple of the
    modules that bind one function by their own name: one list takes the
    calls through all of them."""
    made = []
    for each in owner if isinstance(owner, tuple) else (owner,):
        original = getattr(each, name)
        monkeypatch.setattr(each, name, _recording(original, made, results))
    return made


def _recording(original, made, results):
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        if results:
            made.append(original(*args, **kwargs))
            return made[-1]
        made.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    return recording


def by_solve(finds):
    """The root finds of each solve among ``finds``, in order: every root find
    of one solve reads the one gap of its method's call, and no other
    solve's."""
    return [list(group) for _, group in itertools.groupby(finds, key=lambda f: f.gap)]


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
