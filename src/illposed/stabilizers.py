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
from .grids import Grid, check_vec

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


def phi_value(stab: Stabilizer, grid: Grid, u: np.ndarray) -> float:
    """phi(u); inf past the float range, as the weights multiply Python floats.

    Du, the forward differences (u_{i+1} - u_i) / h on the n - 1 cells, is
    taken by slicing, the subtraction that ``np.diff`` makes.
    """
    u = check_vec(grid, u)
    value = 0.0
    if stab.alpha0 != 0.0:   # 0 * inf is nan where the sum overflows
        value = stab.alpha0 * float((grid.gram_diagonal * u * u).sum())
    if stab.alpha1 != 0.0:
        d = (u[1:] - u[:-1]) / grid.h
        value += stab.alpha1 * float((grid.cell_gram_diagonal * d * d).sum())
    return value


def penalty_bands(stab: Stabilizer, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the symmetric PSD tridiagonal P with phi(u)
    = u^T P u (plain coordinates), positive definite when alpha0 > 0.

    The slope term D^T C D (C the cell weights) is summed cell by cell,
    rounded exactly as the dense product rounds it.  The bands are read-only,
    so the one pair a :class:`~illposed.tikhonov.TikhonovPath` forms can be
    shared by everything that reads it.
    """
    diagonal, off = stab.alpha0 * grid.gram_diagonal, np.zeros(grid.n - 1)
    if stab.alpha1 != 0.0:
        inv_h = 1.0 / grid.h
        c = (inv_h * grid.cell_gram_diagonal) * inv_h
        diagonal = diagonal + stab.alpha1 * (np.append(c, 0.0) + np.append(0.0, c))
        off = stab.alpha1 * -c
    diagonal.flags.writeable = off.flags.writeable = False
    return diagonal, off


def add_bands(matrix: np.ndarray, diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    """``matrix`` + the symmetric tridiagonal with these bands, in place;
    returns ``matrix``.

    Only the three bands of the n x n ``matrix`` are touched, each entry by
    one addition, so with the bands of :func:`penalty_bands` M + P is
    bitwise P + M (IEEE addition commutes) and no n x n P is allocated.
    """
    n = matrix.shape[0]
    matrix.flat[::n + 1] += diagonal
    matrix.flat[1::n + 1] += off
    matrix.flat[n::n + 1] += off
    return matrix


def project_onto(K: Compactum, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Radial projection onto K, exact for the metric induced by the stabilizer.

    Points inside K are returned unchanged; points outside are scaled by
    ``t = sqrt(rho / phi(u))``, which lands on the boundary with
    ``phi(result) = rho`` up to rounding.  The inside test counts the
    boundary as inside (K is closed) up to ``CONTAINS_RTOL``, so projecting
    twice returns the same array.
    Where phi(u) overflows, phi(u) = s m^2 phi_1(u / m) with m = max |u| and
    phi_1 the stabilizer with its weights divided by the larger one, s.
    """
    u = check_vec(grid, u)
    p = phi_value(K.stab, grid, u)
    if p <= K.rho * (1.0 + CONTAINS_RTOL):
        return u
    if p == np.inf:
        s, m = max(K.stab.alpha0, K.stab.alpha1), float(np.max(np.abs(u)))
        unit = Stabilizer(K.stab.alpha0 / s, K.stab.alpha1 / s)
        return (np.sqrt(K.rho / s / phi_value(unit, grid, u / m)) / m) * u
    return np.sqrt(K.rho / p) * u
