"""The Tikhonov path u_lam = argmin ||A u - f_d||^2 + lam*phi(u) of a linear A.

u_lam solves (N + lam P) u = A^T W f_d with N = A^T W A and phi(u) = u^T P u.
In the GSVD view of Hansen's *Regularization Tools* (1994) the pencil (N, B),
B = N + P, is decomposed once: V^T B V = I, V^T N V = diag(theta) with theta
in (0, 1], so u_lam = V (c / (theta + lam (1 - theta))) with c = V^T A^T W f_d
costs one matrix-vector product.  The decomposition is the Cholesky reduction
of a symmetric-definite pencil (Golub & Van Loan, *Matrix Computations*,
section 8.7): B = L L^T, L^-1 by :func:`lower_inverse`, G = W^1/2 A L^-T,
the symmetric product C = G^T G = L^-1 N L^-T, C = Q diag(theta) Q^T by
``eigh`` and V = L^-T Q, truncated at its resolution (a truncated GSVD):
only the k theta above n * eps of the largest are kept, so V is n x k and
lam = 0 gives the least-squares point of span(V).  B is positive definite
exactly when N + lam P is for some lam > 0, so a semidefinite phi
(alpha0 = 0) needs no other road.  The decomposition depends on A and phi
only and the data enter through c alone, so one :class:`TikhonovPath`
serves every noise level and both methods of a sweep.

A nonlinear A is solved by damped Gauss-Newton whose steps are these linear
problems for the Jacobian (Kaltenbacher, Neubauer & Scherzer, *Iterative
Regularization Methods for Nonlinear Ill-Posed Problems*, 2008).  Each step's
linear problem is solved only to GN_RTOL, the relative accuracy at which the
outer loop stops, and its root find starts from the previous step's lambda
(an inexact Newton method: Dembo, Eisenstat & Steihaug, 1982), the lam = 0
end t = -inf included; a linear A is solved to ROOT_TOL from lam = 1.  Both
methods state their scalar equation as a :data:`Gap` ``gap(lin, data, t, u)``:
the linear operator ``lin`` and data of the problem on whose path ``u`` =
u_lam lies, t = log(lam).  Both return the :class:`Solution` of
:func:`solve`, the one place that chooses the road.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, SingularSystemError, SolverFailureError
from .grids import check_vec, l2_norm
from .operators import (OperatorSpec, apply, dense_operator, jacobian,
                        normal_matrix, weighted_product, weighted_transpose)
from .stabilizers import Stabilizer, penalty_matrix, phi_value

EPS = float(np.finfo(float).eps)
T_CEIL = math.log(np.finfo(float).max)  # the largest log(lam) whose lam is a float
ROOT_TOL = 1e-10      # accepted value of a linear solve's scalar equation, from above
ROOT_MAX_ITER = 100   # evaluations per root find, bracket search included
GN_MAX_ITER = 100     # Gauss-Newton steps per nonlinear solve
GN_RTOL = 1e-3        # stop once a step lowers the objective by less than this
                      # fraction, or its length fraction falls below it; also the
                      # accepted gap of each step's linear solve
INVERSE_LEAF = 64     # blocks of lower_inverse this small go to np.linalg.inv

Gap = Callable[[OperatorSpec, np.ndarray, float, np.ndarray], float]


@dataclass
class Solution:
    """u_delta, ||A(u_delta) - f_d||, phi(u_delta) and lam (nan for a nonlinear A)."""

    u_delta: np.ndarray
    residual_noisy: float
    phi_u: float
    lambda_star: float


class TikhonovPath:
    """Every point u_lam of the path of one linear A and stabilizer, for any data.

    The pencil is decomposed on first use, and once; a failed decomposition
    is not kept, so the next use tries again and fails the same way.  Each
    data vector then costs its coefficients c, and each point one
    matrix-vector product.  ``theta`` keeps the values the decomposition
    resolves, above n * eps of the largest, clipped to 1; V has their k
    columns, and k = 0 (every point 0) when none is resolved.
    """

    def __init__(self, op: OperatorSpec, stab: Stabilizer):
        self.op, self.stab = op, stab

    @functools.cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(theta, V); raises :class:`SingularSystemError` where B is singular."""
        # P first (its assembly needs the most scratch), then B = P + N in place
        pencil = penalty_matrix(self.stab, self.op.grid)
        pencil += normal_matrix(self.op)
        try:
            # B = L L^T turns the pencil into the symmetric L^-1 N L^-T = G^T G
            factor = np.linalg.cholesky(pencil)
            del pencil
            inv_l = lower_inverse(factor)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("N + lam P is singular at every lambda") from exc
        del factor
        g = weighted_product(self.op, inv_l.T)   # G = W^1/2 A L^-T
        gram = g.T @ g                           # one symmetric product (syrk)
        del g
        theta, vectors = np.linalg.eigh(gram)   # ascending
        del gram
        k = np.searchsorted(theta, self.op.grid.n * EPS * max(theta[-1], 0.0),
                            side="right")
        return np.minimum(theta[k:], 1.0), inv_l.T @ vectors[:, k:]

    @property
    def t_floor(self) -> float:
        """Below this log(lam) every point equals u_0 bitwise.

        lam (1 - theta) is under half an ulp of each theta there.  Two logs,
        as 0.25 * eps * theta underflows to 0 for theta near the smallest float.
        """
        return math.log(0.25 * EPS) + math.log(self.spectrum[0].min(initial=1.0))

    def coefficients(self, f_delta: np.ndarray) -> np.ndarray:
        """c = V^T A^T W f_d, the only part of the path that depends on the data."""
        return self.spectrum[1].T @ weighted_transpose(self.op, f_delta)

    def point(self, lam: float, coef: np.ndarray) -> np.ndarray:
        """u_lam of the data with coefficients ``coef``."""
        if lam < 0.0:
            raise InvalidParameterError(f"lambda must be nonnegative, got {lam}")
        theta, vectors = self.spectrum
        return vectors @ (coef / (theta + lam * (1.0 - theta)))


def lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by 2 x 2 blocks.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], so the work is
    matrix products; blocks of at most INVERSE_LEAF rows are inverted by
    ``np.linalg.inv``.  The strict upper triangle of the result is zero.
    """
    n = low.shape[0]
    if n <= INVERSE_LEAF:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    inv = np.zeros_like(low)
    inv[:h, :h] = lower_inverse(low[:h, :h])
    inv[h:, h:] = lower_inverse(low[h:, h:])
    inv[h:, :h] = -(inv[h:, h:] @ (low[h:, :h] @ inv[:h, :h]))
    return inv


def solve(op: OperatorSpec, stab: Stabilizer, f_delta: np.ndarray, gap: Gap,
          objective: Callable[[np.ndarray], float],
          project: Callable[[np.ndarray], np.ndarray],
          path: Optional[TikhonovPath] = None) -> Solution:
    """The :class:`Solution` at the root of ``gap``, which is nondecreasing in lam.

    A linear A is solved by :func:`path_solve` on ``path``, shared by a caller
    across data, or a new one; a nonlinear A by :func:`gauss_newton`.
    """
    f_delta = check_vec(op.grid, f_delta, "data")
    if op.is_linear:
        t, u = path_solve(path or TikhonovPath(op, stab), f_delta, gap)
    else:
        t, u = math.nan, gauss_newton(op, stab, f_delta, gap, objective, project)
    return Solution(u_delta=u, residual_noisy=l2_norm(op.grid, apply(op, u) - f_delta),
                    phi_u=phi_value(stab, op.grid, u), lambda_star=math.exp(t))


def path_solve(path: TikhonovPath, f_delta: np.ndarray, gap: Gap, *,
               tol: float = ROOT_TOL, start: float = 0.0) -> Tuple[float, np.ndarray]:
    """(t, u_lam) on ``path`` for ``f_delta`` at the root t = log(lam) of ``gap``.

    :func:`path_root` finds the root to ``tol`` from t = ``start``; t = -inf
    (lam = 0) when the gap is nonnegative along the whole path.  A pencil
    that cannot be decomposed fails the solve like a root find that does
    not converge.
    """
    try:
        coef = path.coefficients(f_delta)
        t = path_root(lambda t: gap(path.op, f_delta, t, path.point(math.exp(t), coef)),
                      path.t_floor, tol=tol, start=start)
        return t, path.point(math.exp(t), coef)
    except SingularSystemError as exc:
        raise SolverFailureError(str(exc)) from exc


def path_root(fn: Callable[[float], float], t_floor: float, *, tol: float = ROOT_TOL,
              start: float = 0.0) -> float:
    """Root of a nondecreasing ``fn`` of t = log(lam), from its nonnegative side.

    The bracket search starts at t = ``start`` clamped into [t_floor, T_CEIL]
    (by default lam = 1, where every pencil value is 1), and doubles its
    steps from 1 up to T_CEIL or down to t_floor, and ends where a clamped
    step does not move, so each end is evaluated at most once; Illinois
    regula falsi, safeguarded by bisection, closes the bracket to
    0 <= fn <= ``tol`` or to float resolution.  -inf (lam = 0) when fn is
    nonnegative down to ``t_floor``, below which the path is constant;
    :class:`SolverFailureError` when fn is negative up to T_CEIL.
    """
    calls = 0

    def value(t: float) -> float:
        nonlocal calls
        if calls == ROOT_MAX_ITER:
            raise SolverFailureError(
                f"path root find did not converge in {ROOT_MAX_ITER} iterations")
        calls += 1
        return fn(t)

    t = min(max(start, t_floor), T_CEIL)
    f_t = value(t)
    step = -1.0 if f_t >= 0.0 else 1.0
    while True:
        s = min(max(t + step, t_floor), T_CEIL)
        if s == t:  # clamped at an end that is already evaluated
            if f_t >= 0.0:
                return -math.inf
            raise SolverFailureError(
                f"path root lies beyond the largest float lambda {math.exp(T_CEIL):g}")
        f_s = value(s)
        if (f_s >= 0.0) != (f_t >= 0.0):
            break
        t, f_t, step = s, f_s, 2.0 * step
    (lo, g_lo), (hi, f_hi) = sorted([(t, f_t), (s, f_s)])

    g_hi, kept = f_hi, 0   # Illinois weights: an end kept twice has its weight halved
    while f_hi > tol and hi - lo > 4.0 * EPS * max(1.0, abs(hi)):
        t = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo + 0.01 * (hi - lo) < t < hi - 0.01 * (hi - lo):  # also nan
            t = 0.5 * (lo + hi)
        f_t = value(t)
        if f_t >= 0.0:
            hi, f_hi, g_hi = t, f_t, f_t
            g_lo, kept = (0.5 * g_lo if kept < 0 else g_lo), -1
        else:
            lo, g_lo = t, f_t
            g_hi, kept = (0.5 * g_hi if kept > 0 else g_hi), 1
    return hi


def gauss_newton(op: OperatorSpec, stab: Stabilizer, f_delta: np.ndarray, gap: Gap,
                 objective: Callable[[np.ndarray], float],
                 project: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Damped Gauss-Newton for a nonlinear A, from the constant profile 1.

    At the iterate u the operator builds its Jacobian matrix J = A'(u) once,
    and the method's own linear problem for J with data f_d - A(u) + J u is
    solved by :func:`path_solve` with ``gap``, to GN_RTOL and from the t =
    log(lam) where the previous step's root find ended (lam = 1 at the first
    step; the floor of the path after a step at lam = 0).  The iterate moves
    toward that point, halving the step until ``objective`` drops, then
    ``project``s.  It stops when a step lowers the objective by less than
    GN_RTOL of its value, or when no step of length fraction at least
    GN_RTOL lowers it; after GN_MAX_ITER steps it raises
    :class:`SolverFailureError` carrying the iterate.
    """
    u = project(np.ones(op.grid.n))
    value, t = objective(u), 0.0
    for _ in range(GN_MAX_ITER):
        jac = jacobian(op, u)
        path = TikhonovPath(dense_operator(op.grid, jac), stab)
        data = f_delta - apply(op, u) + jac @ u
        t, target = path_solve(path, data, gap, tol=GN_RTOL, start=t)
        step = 1.0
        while True:
            trial = project(u + step * (target - u))
            trial_value = objective(trial)
            if trial_value < value:
                break
            step *= 0.5
            if step < GN_RTOL:
                return u
        decrease, u, value = value - trial_value, trial, trial_value
        if decrease <= GN_RTOL * value:
            return u
    raise SolverFailureError(f"Gauss-Newton did not converge in {GN_MAX_ITER} steps",
                             best_point=u, best_value=value)
