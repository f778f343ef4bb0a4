"""Uniform grids and the trapezoid-weighted discrete L2 geometry.

All vectors in this package are plain ``numpy`` arrays of node values on a
:class:`Grid`.  Norms and inner products carry trapezoid quadrature weights,
so ``l2_norm(g, v)`` approximates the continuum L2 norm of the function that
``v`` samples.
"""

from __future__ import annotations

import math
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
    """Uniform grid of ``n`` nodes on ``[a, b]`` with spacing ``h = (b-a)/(n-1)``.

    Its weight vectors are formed on first read and kept, as every norm, phi
    and weighted product on the grid reads them.
    """

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

    @cached_property
    def root_gram_diagonal(self) -> np.ndarray:
        """Diagonal of W^1/2."""
        return np.sqrt(self.gram_diagonal)

    @cached_property
    def cell_gram_diagonal(self) -> np.ndarray:
        """Trapezoid Gram diagonal h * w of the n - 1 cells, which phi's slope
        term weights."""
        return self.h * trapezoid_weights(self.n - 1)


def check_vec(grid: Grid, v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate that ``v`` is a finite vector on ``grid`` and return it as float64."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise GridMismatchError(
            f"{name} has shape {v.shape}, expected ({grid.n},) for this grid"
        )
    return check_finite(v, name)


def check_finite(v: np.ndarray, name: str) -> np.ndarray:
    """``v``, or :class:`NonFiniteError` naming its first non-finite entry (in
    C order for a matrix)."""
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise NonFiniteError(f"{name} has non-finite entry at index {bad}", index=bad)
    return v


def l2_norm(grid: Grid, v: np.ndarray) -> float:
    """Trapezoid-weighted L2 norm sqrt(h * sum_i w_i v_i^2)."""
    v = check_vec(grid, v)
    return math.sqrt(float((grid.gram_diagonal * v * v).sum()))

