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
from typing import Tuple

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
    return grid.h * trapezoid_weights(grid.n - 1)


def phi_value(stab: Stabilizer, grid: Grid, u: np.ndarray) -> float:
    """phi(u); inf past the float range, as the weights multiply Python floats."""
    u = check_vec(grid, u)
    value = stab.alpha0 * float(np.sum(grid.gram_diagonal * u * u))
    if stab.alpha1 != 0.0:
        d = difference_quotient(grid, u)
        value += stab.alpha1 * float(np.sum(_cell_gram_diagonal(grid) * d * d))
    return value


def phi_batch(stab: Stabilizer, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Vectorized ``phi`` over points stacked along the leading axis."""
    pts = np.asarray(pts, dtype=float)
    value = stab.alpha0 * np.sum(grid.gram_diagonal * pts * pts, axis=-1)
    if stab.alpha1 != 0.0:
        d = np.diff(pts, axis=-1) / grid.h
        value = value + stab.alpha1 * np.sum(_cell_gram_diagonal(grid) * d * d, axis=-1)
    return value


def penalty_bands(stab: Stabilizer, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the tridiagonal P of :func:`penalty_matrix`.

    The slope term D^T C D (C the cell weights) is summed cell by cell,
    rounded exactly as the dense product rounds it.
    """
    diagonal, off = stab.alpha0 * grid.gram_diagonal, np.zeros(grid.n - 1)
    if stab.alpha1 != 0.0:
        inv_h = 1.0 / grid.h
        c = (inv_h * _cell_gram_diagonal(grid)) * inv_h
        diagonal = diagonal + stab.alpha1 * (np.append(c, 0.0) + np.append(0.0, c))
        off = stab.alpha1 * -c
    return diagonal, off


def penalty_matrix(stab: Stabilizer, grid: Grid) -> np.ndarray:
    """Symmetric PSD matrix P with phi(u) = u^T P u (plain coordinates).

    P is positive definite when alpha0 > 0.  In the weighted geometry the
    Gram operator of phi is W^{-1} P, self-adjoint for the grid inner
    product.  P is tridiagonal, filled from :func:`penalty_bands`.
    """
    return add_penalty(stab, grid, np.zeros((grid.n, grid.n)))


def add_penalty(stab: Stabilizer, grid: Grid, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` + P, in place from :func:`penalty_bands`; returns ``matrix``.

    Only the three bands of the n x n ``matrix`` are touched, each entry by
    one addition, so M + P is bitwise P + M (IEEE addition commutes) and no
    n x n P is allocated.
    """
    diagonal, off = penalty_bands(stab, grid)
    n = grid.n
    matrix.flat[::n + 1] += diagonal
    matrix.flat[1::n + 1] += off
    matrix.flat[n::n + 1] += off
    return matrix


def contains(K: Compactum, grid: Grid, u: np.ndarray) -> bool:
    """Membership test; the boundary counts as inside (K is closed)."""
    return _inside(K, phi_value(K.stab, grid, u))


def _inside(K: Compactum, phi: float) -> bool:
    """Whether a point with this phi value lies in K, up to CONTAINS_RTOL."""
    return phi <= K.rho * (1.0 + CONTAINS_RTOL)


def project_onto(K: Compactum, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Radial projection onto K, exact for the metric induced by the stabilizer.

    Points inside K are returned unchanged; points outside are scaled by
    ``t = sqrt(rho / phi(u))``, which lands on the boundary with
    ``phi(result) = rho`` up to rounding.  The inside test is the one of
    ``contains``, so projecting twice returns the same array.
    Where phi(u) overflows, phi(u) = s m^2 phi_1(u / m) with m = max |u| and
    phi_1 the stabilizer with its weights divided by the larger one, s.
    """
    u = check_vec(grid, u)
    p = phi_value(K.stab, grid, u)
    if _inside(K, p):
        return u
    if p == np.inf:
        s, m = max(K.stab.alpha0, K.stab.alpha1), float(np.max(np.abs(u)))
        unit = Stabilizer(K.stab.alpha0 / s, K.stab.alpha1 / s)
        return (np.sqrt(K.rho / s / phi_value(unit, grid, u / m)) / m) * u
    return np.sqrt(K.rho / p) * u
