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
methods state their scalar equation as a :data:`Gap` ``gap(lin, data, t, u,
drift, shrink)``: the linear operator ``lin`` and data of the problem on whose
path ``u`` = u_lam lies, t = log(lam), ``drift()``, which gives d r^2/dt of
its residual r = ||lin u - data||, and ``shrink()``, which gives -d phi/dt of
phi(u), each an O(k) sum over the pencil (:meth:`TikhonovPath.drift`,
:meth:`TikhonovPath.shrink`) for a gap that asks.  A gap returns its value
and its slope in t, or None for the slope.  Both gaps have the exact slope,
so their roots are found by Newton steps inside the bracket, and a point
without a slope bisects.  Both return the :class:`Solution` of
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

Gap = Callable[[OperatorSpec, np.ndarray, float, np.ndarray, Callable[[], float],
               Callable[[], float]], Tuple[float, Optional[float]]]


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

    def drift(self, lam: float, coef: np.ndarray) -> float:
        """d r^2 / d log(lam) at u_lam, r its residual for the data of ``coef``.

        Along the path d r^2/d lam = -lam d phi(u_lam)/d lam, and phi(u_lam) =
        sum((1 - theta) y^2) with y = coef / values, values = theta + lam (1 -
        theta); so this is 2 sum(x^2) with x = w coef / sqrt(values) and w =
        lam (1 - theta) / values in [0, 1], an O(k) sum that overflows only
        where r^2 does.  It takes V^T N V = diag(theta) as exact.
        """
        theta = self.spectrum[0]
        values = theta + lam * (1.0 - theta)
        x = coef / np.sqrt(values) * (lam * (1.0 - theta) / values)
        return 2.0 * float(x @ x)

    def shrink(self, lam: float, coef: np.ndarray) -> float:
        """-d phi(u_lam) / d log(lam) at u_lam, for the data of ``coef``.

        phi(u_lam) = sum((1 - theta) y^2) with y = coef / values, so this is
        2 sum(w (1 - theta) y^2) = 2 sum(x^2) with x = y sqrt(w (1 - theta)),
        w as in :meth:`drift`: an O(k) sum that overflows only where phi
        does.  lam times it is the drift, which underflows to 0 where lam is
        tiny, so it is not computed as drift / lam.  It takes V^T P V = I -
        diag(theta) as exact; the pencil's phi sum differs from the direct
        ``phi_value`` by up to 1.6e-9 relative (n = 512, alpha0 = 0.01;
        1.5e-11 at alpha0 = 1), above ROOT_TOL, so a gap's value stays on
        the direct product.
        """
        theta = self.spectrum[0]
        values = theta + lam * (1.0 - theta)
        x = coef / values * np.sqrt(lam * (1.0 - theta) / values * (1.0 - theta))
        return 2.0 * float(x @ x)


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

        def value(t: float) -> Tuple[float, Optional[float]]:
            lam = math.exp(t)
            return gap(path.op, f_delta, t, path.point(lam, coef),
                       lambda: path.drift(lam, coef), lambda: path.shrink(lam, coef))

        t = path_root(value, path.t_floor, tol=tol, start=start)
        return t, path.point(math.exp(t), coef)
    except SingularSystemError as exc:
        raise SolverFailureError(str(exc)) from exc


def path_root(fn: Callable[[float], Tuple[float, Optional[float]]], t_floor: float, *,
              tol: float = ROOT_TOL, start: float = 0.0) -> float:
    """Root of a nondecreasing ``fn`` of t = log(lam), from its nonnegative side.

    ``fn(t)`` is the value at t and its slope in t, or None for the slope.
    The search starts at t = ``start`` clamped into [t_floor, T_CEIL] (by
    default lam = 1, where every pencil value is 1).  From a point with a
    slope it takes the Newton step aimed at fn = tol / 2, the middle of the
    accepted band, where that step stays inside the bracket known so far and
    is at most half the step before last (the safeguard of ``rtsafe`` in
    *Numerical Recipes*, against a slope that overstates the change), and
    such a point is the root once 0 <= fn <= ``tol``.  Every other step
    is the bracket search's while one side is open: steps doubling from 1
    up to T_CEIL or down to t_floor, ending where a clamped step does not
    move, so each end is evaluated at most once.  Within the bracket every
    other step bisects, until 0 <= fn <= ``tol`` or float resolution.  -inf
    (lam = 0) when fn is nonnegative down to ``t_floor``, below which the
    path is constant; :class:`SolverFailureError` when fn is negative up to
    T_CEIL.  Every evaluation counts toward ROOT_MAX_ITER.
    """
    calls = 0
    moves = (math.inf, math.inf)   # the lengths of the step before last and the last

    def value(t: float) -> Tuple[float, Optional[float]]:
        nonlocal calls
        if calls == ROOT_MAX_ITER:
            raise SolverFailureError(
                f"path root find did not converge in {ROOT_MAX_ITER} iterations")
        calls += 1
        return fn(t)

    def newton(t: float, f_t: float, slope: Optional[float], lo: float,
               hi: float) -> Optional[float]:
        """The Newton point from t if it is trusted inside (lo, hi), else None."""
        if slope is None or not slope > 0.0:   # also nan
            return None
        s = t - (f_t - 0.5 * tol) / slope
        return s if lo < s < hi and abs(s - t) <= 0.5 * moves[0] else None

    t = min(max(start, t_floor), T_CEIL)
    f_t, slope = value(t)
    step = -1.0 if f_t >= 0.0 else 1.0
    while True:
        if slope is not None and 0.0 <= f_t <= tol and t > t_floor:
            return t
        s = newton(t, f_t, slope, *((t_floor, t) if f_t >= 0.0 else (t, T_CEIL)))
        if s is None:
            s = min(max(t + step, t_floor), T_CEIL)
            if s == t:  # clamped at an end that is already evaluated
                if f_t >= 0.0:
                    return -math.inf
                raise SolverFailureError(
                    f"path root lies beyond the largest float lambda {math.exp(T_CEIL):g}")
        f_s, slope_s = value(s)
        moves = (moves[1], abs(s - t))
        if (f_s >= 0.0) != (f_t >= 0.0):
            break
        t, f_t, slope, step = s, f_s, slope_s, 2.0 * step
    (lo, _), (hi, f_hi) = sorted([(t, f_t), (s, f_s)])

    t, f_t, slope = s, f_s, slope_s   # each step starts from the last point
    while f_hi > tol and hi - lo > 4.0 * EPS * max(1.0, abs(hi)):
        s = newton(t, f_t, slope, lo, hi)
        if s is None:
            s = 0.5 * (lo + hi)
        f_s, slope = value(s)
        t, f_t, moves = s, f_s, (moves[1], abs(s - t))
        if f_t >= 0.0:
            hi, f_hi = t, f_t
        else:
            lo = t
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
