"""The Tikhonov path u_lam = argmin ||A u - f_d||^2 + lam*phi(u) of a linear A.

u_lam solves (N + lam P) u = A^T W f_d with N = A^T W A and phi(u) = u^T P u.
In the GSVD view of Hansen's *Regularization Tools* (1994) the pencil (N, B),
B = N + P, is decomposed once: V^T B V = I, V^T N V = diag(theta) with theta
in [0, 1], so u_lam = V (c / (theta + lam (1 - theta))) with c = V^T A^T W f_d
costs one matrix-vector product.  B is positive definite exactly when
N + lam P is for some lam > 0, so a semidefinite phi (alpha0 = 0) needs no
other road.  The decomposition depends on A and phi only and the data enter
through c alone, so one :class:`TikhonovPath` serves every noise level and
both methods of a sweep.

A nonlinear A is solved by damped Gauss-Newton whose steps are these linear
problems for the Jacobian (Kaltenbacher, Neubauer & Scherzer, *Iterative
Regularization Methods for Nonlinear Ill-Posed Problems*, 2008).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, SingularSystemError, SolverFailureError
from .grids import check_vec
from .operators import (LINEAR_DIAGONAL, OperatorSpec, apply, as_matrix,
                        dense_operator, jacobian_apply)
from .stabilizers import Stabilizer, penalty_matrix

EPS = float(np.finfo(float).eps)
ROOT_TOL = 1e-10      # accepted value of the scalar equation, from its nonnegative side
ROOT_MAX_ITER = 100   # evaluations per root find, bracket search included
GN_MAX_ITER = 100     # Gauss-Newton steps per nonlinear solve
GN_RTOL = 1e-3        # stop once a step lowers the objective by less than this fraction
GN_MIN_STEP = 2.0 ** -30  # a step damped below this length fraction ends the solve

Gap = Callable[[float, np.ndarray], float]  # of log(lam) and u_lam


class TikhonovPath:
    """Every point u_lam of the path of one linear A and stabilizer, for any data.

    The pencil is decomposed on first use, and once; a failed decomposition
    is not kept, so the next use tries again and fails the same way.  Each
    data vector then costs its coefficients c, and each point one
    matrix-vector product.  ``theta`` is clipped to [0, 1]; values below
    n * eps of the largest, which the decomposition cannot tell from zero,
    are set to zero.
    """

    def __init__(self, op: OperatorSpec, stab: Stabilizer):
        self.op, self.stab = op, stab

    @functools.cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(theta, V); raises :class:`SingularSystemError` where B is singular."""
        op, w = self.op, self.op.grid.gram_diagonal
        # P first (its assembly needs the most scratch), then N, and B = P + N in place
        pencil = penalty_matrix(self.stab, op.grid)
        if op.kind == LINEAR_DIAGONAL:
            normal = np.diag(op.diagonal ** 2 * w)
        else:
            M = as_matrix(op)
            normal = M.T @ (w[:, None] * M)
        pencil += normal
        try:
            # B = L L^T turns the pencil into the symmetric L^-1 N L^-T
            inv_l = np.linalg.inv(np.linalg.cholesky(pencil))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("N + lam P is singular at every lambda") from exc
        del pencil
        theta, vectors = np.linalg.eigh(inv_l @ normal @ inv_l.T)
        theta = np.clip(theta, 0.0, 1.0)
        theta[theta <= op.grid.n * EPS * theta.max()] = 0.0
        return theta, inv_l.T @ vectors

    @property
    def t_floor(self) -> float:
        """Below this log(lam) every point equals u_0 bitwise.

        lam (1 - theta) is under half an ulp of each theta there, but for the
        zero pencil values.
        """
        theta = self.spectrum[0]
        return math.log(0.25 * EPS * theta[theta > 0.0].min(initial=1.0))

    def coefficients(self, f_delta: np.ndarray) -> np.ndarray:
        """c = V^T A^T W f_d, the only part of the path that depends on the data."""
        op, w = self.op, self.op.grid.gram_diagonal
        if op.kind == LINEAR_DIAGONAL:
            rhs = op.diagonal * w * f_delta
        else:
            rhs = as_matrix(op).T @ (w * f_delta)
        return self.spectrum[1].T @ rhs

    def point(self, lam: float, coef: np.ndarray) -> np.ndarray:
        """u_lam of the data with coefficients ``coef``.

        Raises :class:`SingularSystemError` where N + lam P is singular.
        """
        if lam < 0.0:
            raise InvalidParameterError(f"lambda must be nonnegative, got {lam}")
        theta, vectors = self.spectrum
        values = theta + lam * (1.0 - theta)
        if values.min() <= 0.0:
            raise SingularSystemError(f"a pencil value is zero at lambda={lam}", lam=lam)
        return vectors @ (coef / values)


def tikhonov_point(op: OperatorSpec, stab: Stabilizer, f_delta: np.ndarray,
                   lam: float) -> np.ndarray:
    """Unique minimizer of ||A u - f_delta||^2 + lam * phi(u) for linear A."""
    f_delta = check_vec(op.grid, f_delta, "data")
    path = TikhonovPath(op, stab)
    try:
        return path.point(lam, path.coefficients(f_delta))
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"normal-equations system is singular at lambda={lam}: {exc}", lam=lam) from exc


def solve_on_path(path: TikhonovPath, f_delta: np.ndarray,
                  gap: Gap) -> Tuple[float, np.ndarray]:
    """(lam, u_lam) at the root of ``gap(log(lam), u_lam)``, nondecreasing in lam.

    lam = 0 when the gap is nonnegative along the whole path, or the floor
    ``exp(t_floor)`` when a zero pencil value leaves no point at lam = 0.  A
    singular pencil fails the solve like a root find that does not converge.
    """
    try:
        coef = path.coefficients(f_delta)
        t = path_root(lambda t: gap(t, path.point(math.exp(t), coef)), path.t_floor)
        if t is not None:
            lam = math.exp(t)
        else:
            lam = 0.0 if path.spectrum[0].min() > 0.0 else math.exp(path.t_floor)
        return lam, path.point(lam, coef)
    except SingularSystemError as exc:
        raise SolverFailureError(str(exc)) from exc


def path_root(fn: Callable[[float], float], t_floor: float) -> Optional[float]:
    """Root of a nondecreasing ``fn`` of t = log(lam), from its nonnegative side.

    The bracket search starts at lam = 1, where every pencil value is 1, and
    doubles its steps; Illinois regula falsi, safeguarded by bisection, closes
    the bracket to 0 <= fn <= ROOT_TOL or to float resolution.  None when fn
    is nonnegative down to ``t_floor``, below which the path is constant.
    """
    calls = 0

    def value(t: float) -> float:
        nonlocal calls
        if calls == ROOT_MAX_ITER:
            raise SolverFailureError(
                f"path root find did not converge in {ROOT_MAX_ITER} iterations")
        calls += 1
        return fn(t)

    t, f_t = 0.0, value(0.0)
    step = -1.0 if f_t >= 0.0 else 1.0
    while True:
        s = max(t + step, t_floor)
        f_s = value(s)
        if (f_s >= 0.0) != (f_t >= 0.0):
            break
        if s == t_floor:
            return None
        t, f_t, step = s, f_s, 2.0 * step
    (lo, g_lo), (hi, f_hi) = sorted([(t, f_t), (s, f_s)])

    g_hi, kept = f_hi, 0   # Illinois weights: an end kept twice has its weight halved
    while f_hi > ROOT_TOL and hi - lo > 4.0 * EPS * max(1.0, abs(hi)):
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


def gauss_newton(op: OperatorSpec, stab: Stabilizer, f_delta: np.ndarray,
                 gap: Callable[[OperatorSpec, np.ndarray], Gap],
                 objective: Callable[[np.ndarray], float],
                 project: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Damped Gauss-Newton for a nonlinear A, from the constant profile 1.

    At the iterate u, J = A'(u) is built column by column and the method's own
    linear problem for J with data f_d - A(u) + J u is solved on its path with
    ``gap(J, data)``.  The iterate moves toward that point, halving the step
    until ``objective`` drops, then ``project``s.  It stops when a step lowers
    the objective by less than GN_RTOL of its value or no step lowers it;
    after GN_MAX_ITER steps it raises :class:`SolverFailureError` carrying the
    iterate.
    """
    columns = np.eye(op.grid.n)
    u = project(np.ones(op.grid.n))
    value = objective(u)
    for _ in range(GN_MAX_ITER):
        jac = np.column_stack([jacobian_apply(op, u, e) for e in columns])
        lin = dense_operator(op.grid, jac, injective=False)
        data = f_delta - apply(op, u) + jac @ u
        _, target = solve_on_path(TikhonovPath(lin, stab), data, gap(lin, data))
        step = 1.0
        while True:
            trial = project(u + step * (target - u))
            trial_value = objective(trial)
            if trial_value < value:
                break
            step *= 0.5
            if step < GN_MIN_STEP:
                return u
        decrease, u, value = value - trial_value, trial, trial_value
        if decrease <= GN_RTOL * value:
            return u
    raise SolverFailureError(f"Gauss-Newton did not converge in {GN_MAX_ITER} steps",
                             best_point=u, best_value=value)
