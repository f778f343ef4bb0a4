"""Residual minimization over a compact constraint set.

For linear operators ``min ||A u - f_d||  s.t.  phi(u) <= rho`` is a
trust-region subproblem: if the unconstrained least-squares point is
feasible it is the answer (multiplier zero); otherwise the constraint is
active and the KKT point is the Tikhonov point at the multiplier lam* > 0
with phi(u_lam*) = rho, the root of the decreasing log(phi(u_lam) / rho) on
log(lam), approached from the feasible side (:mod:`illposed.tikhonov`).

For nonlinear operators the residual is minimized by damped Gauss-Newton:
each step solves this subproblem for the linearized operator and backtracks
on the true residual, every iterate clamped to the operator domain and
projected onto K (:func:`illposed.tikhonov.gauss_newton`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import check_vec, l2_norm
from .operators import OperatorSpec, apply, domain_project
from .stabilizers import Compactum, phi_value, project_onto
from .tikhonov import TikhonovPath, gauss_newton, solve_on_path

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


def minimize_on_compactum(op: OperatorSpec, f_delta: np.ndarray, K: Compactum,
                          path: Optional[TikhonovPath] = None) -> QuasiResult:
    """Minimize the residual ||A(u) - f_delta|| over the compactum K.

    The linear case is solved exactly up to decomposition round-off, on
    ``path``, the path of (op, K.stab) that a caller shares across data, or a
    new one; the nonlinear case is best-effort with every returned point
    feasible.
    """
    f_delta = check_vec(op.grid, f_delta, "data")

    def slack(t: float, u: np.ndarray) -> float:
        # log(rho / phi(u_lam)) is nonnegative exactly on the feasible side, so
        # lam = 0 (an inactive constraint) when the least-squares point is feasible
        phi = phi_value(K.stab, op.grid, u)
        return math.log(K.rho / phi) if phi > 0.0 else math.inf

    if op.is_linear:
        lam, u = solve_on_path(path or TikhonovPath(op, K.stab), f_delta, slack)
    else:
        lam, u = float("nan"), gauss_newton(
            op, K.stab, f_delta, lambda lin, data: slack,
            lambda v: l2_norm(op.grid, apply(op, v) - f_delta),
            lambda v: project_onto(K, op.grid, domain_project(op, v)))
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
