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
true F (:func:`illposed.tikhonov.gauss_newton`).  The problem is nonconvex,
so certificates are checked a posteriori and failures are reported, never
hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateUnavailableError, InvalidParameterError
from .grids import check_vec, l2_norm
from .operators import OperatorSpec, apply, domain_project
from .stabilizers import Stabilizer, phi_value
from .tikhonov import TikhonovPath, gauss_newton, solve_on_path


@dataclass
class VariationalResult:
    """Near-minimizer of F with every measured quantity attached."""

    u_delta: np.ndarray
    F_value: float
    residual_noisy: float
    phi_u: float
    lambda_star: float
    m_hat: float
    residual_exact: Optional[float] = None


@dataclass
class VariationalCertificate:
    """Verdicts for the three a priori inequalities the theory guarantees.

    With c1 = 1 + phi(y) and c = c1 + 1 the checks are
    m_hat <= c1*delta, F(u_delta) <= c*delta and phi(u_delta) <= c,
    each padded by ``tol``.  Slacks are threshold minus value, so a passing
    bound has nonnegative slack.
    """

    c1: float
    c: float
    tol: float
    bound_18_ok: bool
    bound_19_ok: bool
    bound_110_ok: bool
    slack_18: float
    slack_19: float
    slack_110: float

    @property
    def all_ok(self) -> bool:
        return self.bound_18_ok and self.bound_19_ok and self.bound_110_ok


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
    """Return a near-minimizer u_delta of F with F(u_delta) <= m_hat + delta.

    For linear A, u_delta is the minimizer of F on the Tikhonov path: ``path``,
    the path of (op, stab) that a caller shares across data, or a new one.
    ``m_hat`` is the smallest F value found (the computable stand-in for the
    true infimum); the returned point attains it, so the near-minimizer
    contract holds with room to spare.
    """
    if delta <= 0.0:
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    f_delta = check_vec(op.grid, f_delta, "data")

    def stationarity_gap(lin: OperatorSpec, data: np.ndarray):
        def gap(t: float, u: np.ndarray) -> float:
            # log(lam / (2*delta*r)): F decreases along the path while negative
            r = l2_norm(lin.grid, apply(lin, u) - data)
            return t - math.log(2.0 * delta * r) if r > 0.0 else math.inf
        return gap

    if op.is_linear:
        lam, u = solve_on_path(path or TikhonovPath(op, stab), f_delta,
                               stationarity_gap(op, f_delta))
    else:
        lam, u = float("nan"), gauss_newton(
            op, stab, f_delta, stationarity_gap,
            lambda v: f_functional(op, f_delta, delta, stab, v),
            lambda v: domain_project(op, v))
    residual = l2_norm(op.grid, apply(op, u) - f_delta)
    phi_u = phi_value(stab, op.grid, u)
    F_value = residual + delta * phi_u
    return VariationalResult(u_delta=u, F_value=F_value, residual_noisy=residual,
                             phi_u=phi_u, lambda_star=lam, m_hat=F_value)


def variational_certificate(res: VariationalResult, problem, delta: float,
                            stab: Stabilizer) -> VariationalCertificate:
    """Check the a priori bounds of the variational method against ``res``.

    Needs the true solution carried by ``problem`` (test mode); raises
    :class:`CertificateUnavailableError` when it is absent.
    """
    if problem.y_true is None:
        raise CertificateUnavailableError(
            "certificate needs the true solution; run a gallery problem")
    grid = problem.grid
    phi_y = phi_value(stab, grid, problem.y_true)
    c1 = 1.0 + phi_y
    c = c1 + 1.0
    tol = 1e-9 * max(1.0, c * delta)
    slack_18 = c1 * delta + tol - res.m_hat
    slack_19 = c * delta + tol - res.F_value
    slack_110 = c + tol - res.phi_u
    return VariationalCertificate(
        c1=c1, c=c, tol=tol,
        bound_18_ok=slack_18 >= 0.0,
        bound_19_ok=slack_19 >= 0.0,
        bound_110_ok=slack_110 >= 0.0,
        slack_18=slack_18, slack_19=slack_19, slack_110=slack_110,
    )
