"""Coercive quadratic stabilizer and the compact constraint set it induces.

The stabilizer is a discrete H1-type form

    phi(u) = alpha0 * ||u||^2 + alpha1 * ||Du||^2,

with D the forward difference quotient on the n-1 cells and both norms
trapezoid weighted.  Its sublevel sets ``{phi <= rho}`` are bounded
ellipsoids whenever ``alpha0 > 0``; those are the compacta used by the
residual-minimization method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grids import Grid, check_vec, trapezoid_weights

CONTAINS_RTOL = 1e-12


@dataclass(frozen=True)
class Stabilizer:
    """Weights of the quadratic form alpha0*||u||^2 + alpha1*||Du||^2."""

    alpha0: float = 1.0
    alpha1: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.alpha0 < np.inf and 0.0 <= self.alpha1 < np.inf):
            raise InvalidParameterError("stabilizer weights must be finite and nonnegative")
        if self.alpha0 == 0.0 and self.alpha1 == 0.0:
            raise InvalidParameterError("stabilizer weights cannot both be zero")


@dataclass(frozen=True)
class Compactum:
    """Sublevel ellipsoid K = {u : phi(u) <= rho} of a positive-definite stabilizer."""

    stab: Stabilizer
    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0.0):
            raise InvalidParameterError(f"sublevel bound must be positive, got {self.rho}")
        if self.stab.alpha0 <= 0.0:
            raise InvalidParameterError(
                "compactum needs alpha0 > 0; a semidefinite form has unbounded sublevel sets"
            )


def difference_quotient(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward differences (u_{i+1} - u_i)/h on the n-1 cells."""
    return np.diff(u) / grid.h


def _cell_gram_diagonal(grid: Grid) -> np.ndarray:
    m = grid.n - 1
    w = trapezoid_weights(m) if m >= 2 else np.ones(m)
    return grid.h * w


def phi_value(stab: Stabilizer, grid: Grid, u: np.ndarray) -> float:
    """Evaluate the stabilizer at ``u``."""
    u = check_vec(grid, u)
    value = stab.alpha0 * np.sum(grid.gram_diagonal * u * u)
    if stab.alpha1 != 0.0:
        d = difference_quotient(grid, u)
        value += stab.alpha1 * np.sum(_cell_gram_diagonal(grid) * d * d)
    return float(value)


def phi_batch(stab: Stabilizer, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Vectorized ``phi`` over points stacked along the leading axis."""
    pts = np.asarray(pts, dtype=float)
    value = stab.alpha0 * np.sum(grid.gram_diagonal * pts * pts, axis=-1)
    if stab.alpha1 != 0.0:
        d = np.diff(pts, axis=-1) / grid.h
        value = value + stab.alpha1 * np.sum(_cell_gram_diagonal(grid) * d * d, axis=-1)
    return value


def penalty_matrix(stab: Stabilizer, grid: Grid) -> np.ndarray:
    """Symmetric PSD matrix P with phi(u) = u^T P u (plain coordinates).

    P is positive definite when alpha0 > 0.  In the weighted geometry the
    Gram operator of phi is W^{-1} P, self-adjoint for the grid inner
    product.  The slope term D^T C D (C the cell weights) is tridiagonal and
    filled entry by entry, rounded exactly as the dense product rounds it.
    """
    n = grid.n
    P = np.zeros((n, n))
    diagonal = stab.alpha0 * grid.gram_diagonal
    if stab.alpha1 != 0.0:
        inv_h = 1.0 / grid.h
        c = (inv_h * _cell_gram_diagonal(grid)) * inv_h
        d = np.zeros(n)
        d[:-1] += c
        d[1:] += c
        diagonal = diagonal + stab.alpha1 * d
        cells = np.arange(n - 1)
        P[cells, cells + 1] = P[cells + 1, cells] = stab.alpha1 * -c
    np.fill_diagonal(P, diagonal)
    return P


def contains(K: Compactum, grid: Grid, u: np.ndarray) -> bool:
    """Membership test; the boundary counts as inside (K is closed)."""
    return phi_value(K.stab, grid, u) <= K.rho * (1.0 + CONTAINS_RTOL)


def project_onto(K: Compactum, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Radial projection onto K, exact for the metric induced by the stabilizer.

    Points inside K are returned unchanged; points outside are scaled by
    ``t = sqrt(rho / phi(u))``, which lands on the boundary with
    ``phi(result) = rho`` up to rounding.  The inside test shares the
    ``contains`` tolerance so projecting twice returns the same array.
    """
    u = check_vec(grid, u)
    p = phi_value(K.stab, grid, u)
    if p <= K.rho * (1.0 + CONTAINS_RTOL):
        return u
    return np.sqrt(K.rho / p) * u
