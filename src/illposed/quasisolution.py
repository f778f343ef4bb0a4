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
projected onto K (:func:`illposed.tikhonov.gauss_newton`).  Both return the
:class:`~illposed.tikhonov.Solution`; the certificate is the slack of each
bound by CSV column.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .grids import l2_norm
from .operators import OperatorSpec, apply, domain_project
from .stabilizers import Compactum, phi_value, project_onto
from .tikhonov import Solution, TikhonovPath, solve


def minimize_on_compactum(op: OperatorSpec, f_delta: np.ndarray, K: Compactum,
                          path: Optional[TikhonovPath] = None) -> Solution:
    """Minimize the residual ||A(u) - f_delta|| over the compactum K.

    The linear case is solved exactly up to decomposition round-off, on
    ``path``, the path of (op, K.stab) that a caller shares across data, or a
    new one; the nonlinear case is best-effort with every returned point
    feasible.
    """

    def slack(lin: OperatorSpec, data: np.ndarray, t: float, u: np.ndarray,
              drift: Callable[[], float],
              shrink: Callable[[], float]) -> Tuple[float, Optional[float]]:
        # log(rho / phi(u_lam)) is nonnegative exactly on the feasible side, so
        # lam = 0 (an inactive constraint) when the least-squares point is feasible;
        # a phi past the float range is on the infeasible side.  Its slope is
        # -d log(phi)/dt = shrink / phi, from the pencil; its value stays on the
        # direct phi, which the pencil's sum misses by more than ROOT_TOL
        phi = phi_value(K.stab, op.grid, u)
        if phi == math.inf:
            return -math.inf, None
        if phi == 0.0:
            return math.inf, None
        return math.log(K.rho / phi), shrink() / phi

    return solve(op, K.stab, f_delta, slack,
                 lambda v: l2_norm(op.grid, apply(op, v) - f_delta),
                 lambda v: project_onto(K, op.grid, domain_project(op, v)), path)


def quasi_certificate(res: Solution, residual_exact: float,
                      delta: float) -> Dict[str, float]:
    """Slacks of the discrepancy bounds, given ``residual_exact`` = ||A(u_delta) - f||.

    The bounds are (2.4) ||A(u_delta) - f_d|| <= 2*delta and (2.6)
    ||A(u_delta) - f|| <= 3*delta, each padded by tol = 1e-9 * max(1, delta).
    The slack of a bound is threshold + tol - value, keyed by its CSV column.
    The exact data f are known in test mode only.
    """
    tol = 1e-9 * max(1.0, delta)
    return {"cert_24": 2.0 * delta + tol - res.residual_noisy,
            "cert_26": 3.0 * delta + tol - residual_exact}
