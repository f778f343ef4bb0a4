"""Uniform grids and the trapezoid-weighted discrete L2 geometry.

All vectors in this package are plain ``numpy`` arrays of node values on a
:class:`Grid`.  Norms and inner products carry trapezoid quadrature weights,
so ``l2_norm(g, v)`` approximates the continuum L2 norm of the function that
``v`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, NonFiniteError


def trapezoid_weights(m: int) -> np.ndarray:
    """Composite trapezoid weights on ``m`` nodes (half weights at the ends)."""
    w = np.ones(m)
    if m >= 2:
        w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` nodes on ``[a, b]`` with spacing ``h = (b-a)/(n-1)``."""

    n: int
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 nodes, got n={self.n}")
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"invalid interval [{self.a}, {self.b}]")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights w_i (without the h factor)."""
        return trapezoid_weights(self.n)

    @cached_property
    def gram_diagonal(self) -> np.ndarray:
        """Diagonal of the Gram matrix W = h * diag(w)."""
        return self.h * self.weights


def check_vec(grid: Grid, v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate that ``v`` is a finite vector on ``grid`` and return it as float64."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise GridMismatchError(
            f"{name} has shape {v.shape}, expected ({grid.n},) for this grid"
        )
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NonFiniteError(f"{name} has non-finite entry at index {bad}", index=bad)
    return v


def l2_norm(grid: Grid, v: np.ndarray) -> float:
    """Trapezoid-weighted L2 norm sqrt(h * sum_i w_i v_i^2)."""
    v = check_vec(grid, v)
    return float(np.sqrt(np.sum(grid.gram_diagonal * v * v)))


def inner_product(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Trapezoid-weighted L2 inner product h * sum_i w_i u_i v_i."""
    u = check_vec(grid, u, "u")
    v = check_vec(grid, v, "v")
    return float(np.sum(grid.gram_diagonal * u * v))

