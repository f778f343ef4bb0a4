"""Reproducible ill-posed test problems with known true solutions.

Each problem packages an operator, the true solution sampled from a fixed
closed-form profile, and the exact data ``f = A(y)``.  Refining the grid
changes the vectors but not the underlying function, so errors are
comparable across resolutions.

The ``diag-unbounded`` family deserves a caveat: no fixed finite-dimensional
matrix is literally unbounded or has a discontinuous inverse.  The family
encodes both properties asymptotically, with operator norms and inverse
norms that diverge together as the grid is refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError
from .grids import Grid, check_vec
from .operators import (OperatorSpec, apply, as_matrix, dense_operator,
                        diagonal_operator, nonlinear_operator)

PROBLEM_NAMES = ("diag-unbounded", "volterra-int", "fredholm-gauss", "autoconv")
ILL_POSED_RATIO = 1e3


@dataclass(frozen=True)
class ProblemInstance:
    """A gallery problem: operator, true solution, exact data, provenance.

    The certificates and errors need the true solution and the exact data, so
    both are checked against the grid when the problem is built.
    """

    name: str
    grid: Grid
    op: OperatorSpec
    y_true: np.ndarray
    f_exact: np.ndarray
    notes: str

    def __post_init__(self):
        for name in ("y_true", "f_exact"):
            object.__setattr__(self, name, check_vec(self.grid, getattr(self, name), name))


@dataclass(frozen=True)
class ConditionReport:
    """Extreme singular values of a linear problem in the weighted geometry."""

    sigma_max: float
    sigma_min: float
    ratio: float
    ill_posed: bool


def _alternating_diagonal(n: int) -> np.ndarray:
    """Entries k+1 at even indices and 1/(k+1) at odd ones."""
    d = np.empty(n)
    k = np.arange((n + 1) // 2)
    d[0::2] = k[: len(d[0::2])] + 1.0
    d[1::2] = 1.0 / (k[: len(d[1::2])] + 1.0)
    return d


def _volterra_matrix(grid: Grid) -> np.ndarray:
    """Cumulative trapezoid integration from the left endpoint.

    Row 0 integrates over the half cell [a, a + h/2] so the matrix stays
    lower triangular with a strictly positive diagonal (hence injective);
    a zero first row would make the discretization singular.
    """
    n, h = grid.n, grid.h
    M = np.tril(np.full((n, n), h))
    M[:, 0] = h / 2.0
    np.fill_diagonal(M, h / 2.0)
    return M


def _fredholm_gauss_matrix(grid: Grid, sigma: float) -> np.ndarray:
    x = grid.nodes
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma**2))
    return kernel * grid.gram_diagonal[None, :]


def autoconvolve(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Trapezoid discretization of (u * u)(x) = int_0^x u(t) u(x-t) dt."""
    c = np.convolve(u, u)[: grid.n]
    return grid.h * (c - u[0] * u)


def autoconvolve_jacobian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """A'(u) = h (2 T(u) - u_0 I - u e_0^T), T(u)[i, j] = u[i - j] for j <= i.

    The lower-triangular Toeplitz T(u) is read as a strided view of u behind
    n - 1 zeros: row i starts at u_i and steps back one entry per column, into
    the zeros above the diagonal.  ``2.0 *`` copies it once, with no index
    array and no gather.
    """
    n = grid.n
    padded = np.concatenate((np.zeros(n - 1), u))
    jac = 2.0 * as_strided(padded[n - 1:], (n, n), (padded.itemsize, -padded.itemsize))
    jac.flat[::n + 1] -= u[0]
    jac[:, 0] -= u
    return np.multiply(grid.h, jac, out=jac)


def build_problem(name: str, n: int, sigma: float = 0.1) -> ProblemInstance:
    """Construct a gallery problem on an ``n``-node grid over ``[0, 1]``."""
    if name not in PROBLEM_NAMES:
        raise ConfigurationError(
            f"unknown problem {name!r}; valid names: {', '.join(PROBLEM_NAMES)}")
    # n = 3 is allowed so the brute-force oracle of the test suite can
    # cross-check the solvers at its search dimension cap; production runs go
    # through the batch driver, which requires n >= 4
    if n < 3:
        raise ConfigurationError(f"gallery problems need n >= 3, got n={n}")
    if not (sigma > 0.0 and np.finfo(float).tiny <= sigma * sigma < math.inf):
        raise ConfigurationError(
            f"kernel width sigma must be positive with a normal, finite square, "
            f"got {sigma}")
    grid = Grid(n)
    x = grid.nodes

    if name == "diag-unbounded":
        op = diagonal_operator(grid, _alternating_diagonal(n))
        y = np.sin(np.pi * x)
        notes = ("diagonal entries alternate between k+1 and 1/(k+1): norms and "
                 "inverse norms both diverge under refinement, modeling an "
                 "unbounded operator with discontinuous inverse; injective "
                 "because every entry is nonzero")
    elif name == "volterra-int":
        op = dense_operator(grid, _volterra_matrix(grid))
        y = np.sin(np.pi * x)
        notes = ("cumulative trapezoid integration (half-cell first row); "
                 "solving A u = f is numerical differentiation; injective by "
                 "lower triangularity with positive diagonal")
    elif name == "fredholm-gauss":
        op = dense_operator(grid, _fredholm_gauss_matrix(grid, sigma))
        y = np.sin(np.pi * x)
        notes = (f"first-kind integral operator with Gaussian kernel, sigma={sigma}; "
                 "severely ill-conditioned; injective because the Gaussian kernel "
                 "matrix is strictly totally positive")
    else:  # autoconv
        op = nonlinear_operator(
            grid,
            apply_fn=lambda u: autoconvolve(grid, u),
            jacobian_fn=lambda u: autoconvolve_jacobian(grid, u),
            domain_project_fn=lambda u: np.maximum(u, 0.0),
        )
        y = 1.0 + x * (1.0 - x)
        notes = ("nonlinear autoconvolution restricted to the positive cone, "
                 "where injectivity is asserted; solvers clamp iterates to be "
                 "nonnegative before any constraint projection")

    f = apply(op, y)
    return ProblemInstance(name=name, grid=grid, op=op, y_true=y, f_exact=f,
                           notes=notes)


def condition_report(p: ProblemInstance) -> ConditionReport:
    """Extreme singular values of a linear operator as a map of the weighted space."""
    M = as_matrix(p.op)
    s = np.sqrt(p.grid.weights)
    sv = np.linalg.svd((s[:, None] * M) / s[None, :], compute_uv=False)
    smax, smin = float(sv[0]), float(sv[-1])
    ratio = np.inf if smin == 0.0 else smax / smin
    return ConditionReport(sigma_max=smax, sigma_min=smin, ratio=float(ratio),
                           ill_posed=ratio > ILL_POSED_RATIO)

