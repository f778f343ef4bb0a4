"""Residual minimization over a compact constraint set.

For linear operators ``min ||A u - f_d||  s.t.  phi(u) <= rho`` is a
trust-region subproblem: if the unconstrained least-squares point is
feasible it is the answer (multiplier zero); otherwise the constraint is
active and the KKT point is the Tikhonov point at the multiplier lam* > 0
with phi(u_lam*) = rho, the root of the decreasing log(phi(u_lam) / rho) on
log(lam), approached from the feasible side (:mod:`illposed.tikhonov`).

For nonlinear operators the residual is minimized best-effort by spectral
projected gradient descent with multi-start, keeping the best feasible
iterate by residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import check_vec, l2_norm
from .operators import (OperatorSpec, apply, domain_project,
                        jacobian_adjoint_apply)
from .spg import SolveOptions, spg_multistart
from .stabilizers import Compactum, penalty_matrix, phi_value, project_onto
from .tikhonov import solve_on_path

ON_BOUNDARY_RTOL = 1e-8


@dataclass
class QuasiResult:
    """Feasible near-minimizer of the residual over the compactum."""

    u_delta: np.ndarray
    residual_noisy: float
    mu_hat: float
    on_boundary: bool
    lambda_star: float
    residual_exact: Optional[float] = None


@dataclass
class QuasiCertificate:
    """Verdicts for the discrepancy bounds 2*delta (noisy) and 3*delta (exact)."""

    tol: float
    bound_24_ok: bool
    bound_26_ok: bool
    slack_24: float
    slack_26: float

    @property
    def all_ok(self) -> bool:
        return self.bound_24_ok and self.bound_26_ok


def _minimize_nonlinear(op, f_delta, K: Compactum, opts: SolveOptions) -> np.ndarray:
    import scipy.linalg as la  # here, so that linear solves never load it (~6 MB)
    grid = op.grid
    gram = grid.gram_diagonal
    # the radial projection onto K is exact in the stabilizer metric, so the
    # descent direction must live there too: precondition by the penalty matrix
    P = penalty_matrix(K.stab, grid)
    P_cho = la.cho_factor(P, lower=True)

    def project(u):
        # domain clamp first, then the compactum projection
        return project_onto(K, grid, domain_project(op, u))

    def surrogate(u):
        r = apply(op, u) - f_delta
        return 0.5 * float(np.sum(gram * r * r))

    def gradient(u):
        r = apply(op, u) - f_delta
        return jacobian_adjoint_apply(op, u, gram * r)

    def residual(u):
        return l2_norm(grid, apply(op, u) - f_delta)

    def precondition(g):
        return la.cho_solve(P_cho, g)

    def metric_norm_sq(s):
        return float(s @ (P @ s))

    return spg_multistart(grid, opts, project, surrogate, gradient, residual,
                          precondition=precondition, metric_norm_sq=metric_norm_sq)


def minimize_on_compactum(op: OperatorSpec, f_delta: np.ndarray, K: Compactum,
                          opts: Optional[SolveOptions] = None) -> QuasiResult:
    """Minimize the residual ||A(u) - f_delta|| over the compactum K.

    The linear case is solved exactly up to decomposition round-off; the
    nonlinear case is best-effort with every returned point feasible.
    """
    f_delta = check_vec(op.grid, f_delta, "data")
    if op.is_linear:
        def slack(t: float, u: np.ndarray) -> float:
            # log(rho / phi(u_lam)) is nonnegative exactly on the feasible side, so
            # lam = 0 (an inactive constraint) when the least-squares point is feasible
            phi = phi_value(K.stab, op.grid, u)
            return math.log(K.rho / phi) if phi > 0.0 else math.inf
        lam, u = solve_on_path(op, K.stab, f_delta, slack)
    else:
        lam, u = float("nan"), _minimize_nonlinear(op, f_delta, K, opts or SolveOptions())
    residual = l2_norm(op.grid, apply(op, u) - f_delta)
    boundary = abs(phi_value(K.stab, op.grid, u) - K.rho) <= ON_BOUNDARY_RTOL * K.rho
    return QuasiResult(u_delta=u, residual_noisy=residual, mu_hat=residual,
                       on_boundary=boundary, lambda_star=lam)


def quasi_certificate(res: QuasiResult, op: OperatorSpec, f: np.ndarray,
                      delta: float) -> QuasiCertificate:
    """Check the discrepancy bounds against the exact data ``f`` (test mode)."""
    if res.residual_exact is None:
        res.residual_exact = l2_norm(op.grid, apply(op, res.u_delta) - f)
    tol = 1e-9 * max(1.0, delta)
    slack_24 = 2.0 * delta + tol - res.residual_noisy
    slack_26 = 3.0 * delta + tol - res.residual_exact
    return QuasiCertificate(
        tol=tol,
        bound_24_ok=slack_24 >= 0.0,
        bound_26_ok=slack_26 >= 0.0,
        slack_24=slack_24,
        slack_26=slack_26,
    )
