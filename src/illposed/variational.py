"""Variational regularization: near-minimizers of F(u) = ||A(u) - f_d|| + delta * phi(u).

For linear operators the minimizer of F lies on the classical regularization
path u_lam = argmin ||A u - f_d||^2 + lam * phi(u): both terms of F are
convex, every F-minimizer is Pareto optimal in (residual, phi), and the path
traces that Pareto frontier because squaring the residual is monotone.
Along it dF/dlam has the sign of lam - 2*delta*r(lam), r the residual, so the
minimizer is the root of lam = 2*delta*r(lam), or the zero-residual end
lam = 0 when lam > 2*delta*r all the way down (:mod:`illposed.tikhonov`).

For nonlinear operators F is minimized by damped Gauss-Newton: each step
minimizes F of the linearized operator on its path and backtracks on the
true F (:func:`illposed.tikhonov.gauss_newton`).  The result is the
:class:`~illposed.tikhonov.Solution` with F(u_delta) added.  The problem is
nonconvex, so the certificate, the slack of each bound by CSV column, is
checked a posteriori and failures are reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import InvalidParameterError
from .grids import l2_norm
from .operators import OperatorSpec, apply, domain_project
from .stabilizers import Stabilizer, phi_value
from .tikhonov import Solution, TikhonovPath, solve


@dataclass
class VariationalResult(Solution):
    """A near-minimizer of F and its F value, residual_noisy + delta * phi_u."""

    F_value: float


def f_functional(op: OperatorSpec, f_delta: np.ndarray, delta: float,
                 stab: Stabilizer, u: np.ndarray) -> float:
    """F(u) = ||A(u) - f_delta|| + delta * phi(u); the residual is not squared."""
    if delta <= 0.0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    residual = apply(op, u) - f_delta
    return l2_norm(op.grid, residual) + delta * phi_value(stab, op.grid, u)


def minimize_variational(op: OperatorSpec, f_delta: np.ndarray, delta: float,
                         stab: Stabilizer,
                         path: Optional[TikhonovPath] = None) -> VariationalResult:
    """Return a near-minimizer u_delta of F, with ``F_value`` = F(u_delta).

    For linear A, u_delta is the minimizer of F on the Tikhonov path: ``path``,
    the path of (op, stab) that a caller shares across data, or a new one.
    ``F_value`` is the smallest F value found, the computable stand-in for the
    true infimum, so the near-minimizer contract holds with room to spare.
    """
    if delta <= 0.0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")

    def gap(lin: OperatorSpec, data: np.ndarray, t: float, u: np.ndarray,
            drift: Callable[[], float],
            shrink: Callable[[], float]) -> Tuple[float, Optional[float]]:
        # log(lam / (2*delta*r)): F decreases along the path while negative;
        # two logs, as 2*delta*r underflows to 0 for a subnormal delta.  Its
        # slope 1 - d log(r)/dt = 1 - drift / (2 r^2) is in (0, 1] in exact arithmetic
        r = l2_norm(lin.grid, apply(lin, u) - data)
        if r == 0.0:
            return math.inf, None
        return t - math.log(2.0 * delta) - math.log(r), 1.0 - 0.5 * drift() / r / r

    sol = solve(op, stab, f_delta, gap,
                lambda v: f_functional(op, f_delta, delta, stab, v),
                lambda v: domain_project(op, v), path)
    return VariationalResult(**vars(sol), F_value=sol.residual_noisy + delta * sol.phi_u)


def variational_certificate(res: VariationalResult, problem, delta: float,
                            stab: Stabilizer) -> Dict[str, float]:
    """Slacks of the a priori bounds of the variational method at ``res``.

    With c1 = 1 + phi(y) and c = c1 + 1 the bounds are (1.8)
    F(u_delta) <= c1*delta, (1.9) F(u_delta) <= c*delta and (1.10)
    phi(u_delta) <= c, each padded by tol = 1e-9 * max(1, c*delta); (1.8) stands in for
    inf F <= c1*delta, as u_delta attains the smallest F value found.  The
    slack of a bound is threshold + tol - value, keyed by its CSV column.
    c1 reads the true solution that every ``problem`` carries (test mode).
    """
    c1 = 1.0 + phi_value(stab, problem.grid, problem.y_true)
    c = c1 + 1.0
    tol = 1e-9 * max(1.0, c * delta)
    return {"cert_18": c1 * delta + tol - res.F_value,
            "cert_19": c * delta + tol - res.F_value,
            "cert_110": c + tol - res.phi_u}
