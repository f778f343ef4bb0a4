"""Forward operators: dense or diagonal linear maps, and nonlinear maps.

This module alone tells the kinds apart.  The weighted normal equations of a
linear A are built here: ``normal_matrix`` gives N = A^T W A = R^T R,
``weighted_product`` gives R X with R = W^1/2 A, and ``weighted_transpose``
gives A^T W v, W the Gram diagonal of the grid, so
``u @ weighted_transpose(A, v) == inner(A u, v)`` in the trapezoid-weighted
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedOperatorError
from .grids import Grid, check_finite, check_vec

LINEAR_DENSE = "linear-dense"
LINEAR_DIAGONAL = "linear-diagonal"
NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class OperatorSpec:
    """A forward map A from grid vectors to grid vectors.

    ``matrix`` / ``diagonal`` hold the payload for the linear kinds.  The
    nonlinear kind carries callables: ``apply_fn(u)``, the Jacobian
    ``jacobian_fn(u)``, the n x n matrix A'(u), and optionally a projection
    ``domain_project_fn(u)`` onto the operator domain (for example a
    positivity clamp).
    """

    kind: str
    grid: Grid
    matrix: Optional[np.ndarray] = None
    diagonal: Optional[np.ndarray] = None
    apply_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain_project_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in (LINEAR_DENSE, LINEAR_DIAGONAL, NONLINEAR):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        n = self.grid.n
        if self.kind == LINEAR_DENSE:
            if self.matrix is None or self.matrix.shape != (n, n):
                raise ValueError(f"dense operator needs an ({n}, {n}) matrix")
        elif self.kind == LINEAR_DIAGONAL:
            if self.diagonal is None or self.diagonal.shape != (n,):
                raise ValueError(f"diagonal operator needs {n} diagonal entries")
        else:
            if self.apply_fn is None or self.jacobian_fn is None:
                raise ValueError("nonlinear operator needs apply_fn and jacobian_fn")

    @property
    def is_linear(self) -> bool:
        return self.kind in (LINEAR_DENSE, LINEAR_DIAGONAL)


def dense_operator(grid: Grid, matrix: np.ndarray) -> OperatorSpec:
    return OperatorSpec(LINEAR_DENSE, grid, matrix=np.asarray(matrix, dtype=float))


def diagonal_operator(grid: Grid, diagonal: np.ndarray) -> OperatorSpec:
    return OperatorSpec(LINEAR_DIAGONAL, grid, diagonal=np.asarray(diagonal, dtype=float))


def nonlinear_operator(grid, apply_fn, jacobian_fn,
                       domain_project_fn=None) -> OperatorSpec:
    return OperatorSpec(
        NONLINEAR, grid,
        apply_fn=apply_fn, jacobian_fn=jacobian_fn,
        domain_project_fn=domain_project_fn,
    )


def apply(op: OperatorSpec, u: np.ndarray) -> np.ndarray:
    """Evaluate A(u)."""
    u = check_vec(op.grid, u, "operator input")
    if op.kind == LINEAR_DENSE:
        out = op.matrix @ u
    elif op.kind == LINEAR_DIAGONAL:
        out = op.diagonal * u
    else:
        out = np.asarray(op.apply_fn(u), dtype=float)
    return check_finite(out, "operator output")


def weighted_product(op: OperatorSpec, x: np.ndarray) -> np.ndarray:
    """R X with R = W^1/2 A of a linear A; for a diagonal A a row scaling of X."""
    root_w = op.grid.root_gram_diagonal
    if op.kind == LINEAR_DIAGONAL:
        return (root_w * op.diagonal)[:, None] * x
    return (root_w[:, None] * as_matrix(op)) @ x


def normal_matrix(op: OperatorSpec) -> np.ndarray:
    """N = A^T W A = R^T R of a linear A, R = W^1/2 A, as one symmetric product."""
    root_w = op.grid.root_gram_diagonal
    if op.kind == LINEAR_DIAGONAL:
        return np.diag((root_w * op.diagonal) ** 2)
    r = root_w[:, None] * as_matrix(op)
    return r.T @ r


def weighted_transpose(op: OperatorSpec, v: np.ndarray) -> np.ndarray:
    """A^T W v of a linear A, W the Gram diagonal of the grid."""
    v = check_vec(op.grid, v, "transpose input")
    w = op.grid.gram_diagonal
    if op.kind == LINEAR_DIAGONAL:
        out = op.diagonal * w * v
    else:
        out = as_matrix(op).T @ (w * v)
    return check_finite(out, "transpose output")


def jacobian(op: OperatorSpec, u: np.ndarray) -> np.ndarray:
    """The n x n Jacobian matrix A'(u) of a nonlinear operator."""
    if op.kind != NONLINEAR:
        raise UnsupportedOperatorError("jacobian is for nonlinear operators")
    u = check_vec(op.grid, u, "base point")
    return check_finite(np.asarray(op.jacobian_fn(u), dtype=float), "Jacobian")


def domain_project(op: OperatorSpec, u: np.ndarray) -> np.ndarray:
    """Project onto the operator domain (identity when no projection is set)."""
    if op.domain_project_fn is None:
        return u
    return np.asarray(op.domain_project_fn(u), dtype=float)


def as_matrix(op: OperatorSpec) -> np.ndarray:
    """Dense matrix of a linear operator."""
    if op.kind == LINEAR_DENSE:
        return op.matrix
    if op.kind == LINEAR_DIAGONAL:
        return np.diag(op.diagonal)
    raise UnsupportedOperatorError("nonlinear operators have no matrix form")
