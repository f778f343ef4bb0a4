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
lam = 0 gives the least-squares point of span(V).  B is N with the three
bands of the tridiagonal P added in place, so no n x n P is formed.  B is
positive definite exactly when N + lam P is for some lam > 0, so a
semidefinite phi (alpha0 = 0) needs no other road.  The decomposition
depends on A and phi only and the data enter through c alone, so one
:class:`TikhonovPath` serves every noise level and both methods of a sweep,
and the path keeps its last data vector's c (:class:`PathData`), so the two
methods at one noise level compute it once.

Both methods state their scalar equation as a :data:`Gap` ``gap(point)``:
it reads the residual ``r`` or ``phi`` of a :class:`PathPoint` at t =
log(lam), and ``drift()`` or ``shrink()`` for the slope, and returns its
value and its slope in t, or None for the slope.  A point's values are
either O(k) sums over the pencil, as Hansen's ``discrep`` and ``lsqi`` get
both norms from filter factors, or direct, measured on u_lam (an n x k
product, and one more for r).  The O(k) values take V^T N V = diag(theta)
and V^T P V = I - diag(theta) as exact and so miss the direct ones by the
decomposition's round-off, up to 2.7e-5 in the variational gap (n = 512);
``drift`` and ``shrink`` are their exact t-derivatives.  So
:func:`path_solve` finds each root in two phases, Newton steps on O(k)
points to COARSE_TOL and then on direct points to the solve's own
tolerance, and :func:`solve`, the one place that chooses the road, reads
the residual, the image A u and phi of a linear solution from the point it
returns, so A is applied to that point once.

A nonlinear A is solved by damped Gauss-Newton whose steps are these linear
problems for the Jacobian (Kaltenbacher, Neubauer & Scherzer, *Iterative
Regularization Methods for Nonlinear Ill-Posed Problems*, 2008).  Each step's
linear problem is solved only to GN_RTOL, the relative accuracy at which the
outer loop stops, and its root find starts from the previous step's lambda
(an inexact Newton method: Dembo, Eisenstat & Steihaug, 1982), the lam = 0
end t = -inf included; a linear A is solved to ROOT_TOL from lam = 1.  Every
solve of a sweep starts Gauss-Newton from the same profile, so its first
Jacobian and pencil are decomposed once per start point and shared, as the
one path of a linear A is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, SingularSystemError, SolverFailureError
from .grids import check_vec, l2_norm
from .operators import (OperatorSpec, apply, dense_operator, jacobian,
                        normal_matrix, weighted_product, weighted_transpose)
from .stabilizers import Stabilizer, add_penalty, phi_value

EPS = float(np.finfo(float).eps)
FLOAT_MAX = float(np.finfo(float).max)
T_CEIL = math.log(FLOAT_MAX)  # the largest log(lam) whose lam is a float
ROOT_TOL = 1e-10      # accepted value of a linear solve's scalar equation, from above
COARSE_TOL = 1e-6     # accepted O(k) value, from above, before the direct finish
ROOT_MAX_ITER = 100   # evaluations per root find phase, bracket search included
GN_MAX_ITER = 100     # Gauss-Newton steps per nonlinear solve
GN_RTOL = 1e-3        # stop once a step lowers the objective by less than this
                      # fraction, or its length fraction falls below it; also the
                      # accepted gap of each step's linear solve
INVERSE_LEAF = 64     # blocks of lower_inverse this small go to np.linalg.inv


@dataclass
class Solution:
    """u_delta, ||A(u_delta) - f_d||, phi(u_delta) and lam (nan for a nonlinear A),
    and ``image`` = A(u_delta), the vector the residual was measured from."""

    u_delta: np.ndarray
    residual_noisy: float
    phi_u: float
    lambda_star: float
    image: Optional[np.ndarray] = field(default=None, kw_only=True)


class TikhonovPath:
    """Every point u_lam of the path of one linear A and stabilizer, for any data.

    The pencil is decomposed on first use, and once; a failed decomposition
    is not kept, so the next use tries again and fails the same way.  Each
    data vector then costs its coefficients c, and each point one
    matrix-vector product.  ``theta`` keeps the values the decomposition
    resolves, above n * eps of the largest, clipped to 1; V has their k
    columns, and k = 0 (every point 0) when none is resolved.  ``last`` keeps
    the :class:`PathData` of the last data vector (:meth:`data`), so the
    solves of both methods at one noise level pay for c once.

    The path of a nonlinear A is that of each of its linearizations
    (:meth:`linearized`), and has no pencil of its own; ``starts`` keeps the
    first linearization of :func:`gauss_newton` by the bytes of its start
    point, one entry per distinct start, for every solve on this path.
    """

    def __init__(self, op: OperatorSpec, stab: Stabilizer):
        self.op, self.stab = op, stab
        self.starts = {}   # a nonlinear A's first linearization at each start point
        self.last: Optional[PathData] = None   # the PathData of the last data vector

    @functools.cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(theta, V); raises :class:`SingularSystemError` where B is singular."""
        pencil = add_penalty(self.stab, self.op.grid, normal_matrix(self.op))
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

    def linearized(self, u: np.ndarray) -> TikhonovPath:
        """The path of a nonlinear A's Jacobian matrix J = A'(u), J as its operator."""
        jac = jacobian(self.op, u)
        return TikhonovPath(dense_operator(self.op.grid, jac), self.stab)

    def data(self, f_delta: np.ndarray) -> PathData:
        """The :class:`PathData` of ``f_delta``: ``last`` again where ``f_delta``
        is bitwise equal to its data, else a new one, kept in its place."""
        if self.last is None or self.last.key != f_delta.tobytes():
            self.last = PathData(self, f_delta)
        return self.last

    def coefficients(self, f_delta: np.ndarray) -> np.ndarray:
        """c = V^T A^T W f_d, the only part of the path that depends on the data."""
        return self.spectrum[1].T @ weighted_transpose(self.op, f_delta)

    def point(self, lam: float, coef: np.ndarray) -> np.ndarray:
        """u_lam of the data with coefficients ``coef``."""
        if lam < 0.0:
            raise InvalidParameterError(f"lambda must be nonnegative, got {lam}")
        theta, vectors = self.spectrum
        return vectors @ (coef / (theta + lam * (1.0 - theta)))


class PathData:
    """One data vector on a :class:`TikhonovPath`: its coefficients c, and
    what the O(k) sums of its points share.

    It holds what its points read, the operator, the stabilizer and the
    spectrum, and not the path, so a path that keeps its last PathData forms
    no reference cycle and is freed as soon as its sweep drops it.  ``key``
    is the data's bytes, and ``data`` a read-only view of them, which a
    caller cannot change after the fact.

    As values >= theta and w <= 1 all along the path, |y| = |c| / values is
    at most |c / theta|, and |w c| / sqrt(values) at most |c / sqrt(theta)|.
    So c is kept divided by the largest |c / theta| (``y_coef``) and, over
    sqrt(theta), by the largest |c / sqrt(theta)| (``r_coef``): every term of
    a sum is then at most 1, and a sum overflows only to inf, in the Python
    floats that scale it back.  ``r0``, the direct residual of u_0, is
    measured when an O(k) point first needs it.
    """

    def __init__(self, path: TikhonovPath, data: np.ndarray):
        self.op, self.stab, self.coef = path.op, path.stab, path.coefficients(data)
        self.key = data.tobytes()
        self.data = np.frombuffer(self.key)
        (self.theta, self.vectors), self.r0 = path.spectrum, None
        self.rest, root = 1.0 - self.theta, np.sqrt(self.theta)
        with np.errstate(over="ignore"):   # a scale past the float range is clipped
            bounds = [np.abs(self.coef / x).max(initial=0.0) for x in (self.theta, root)]
        self.y_scale, self.r_scale = (min(float(b) or 1.0, FLOAT_MAX) for b in bounds)
        self.y_coef = self.coef / self.y_scale
        self.r_coef = self.coef / root / self.r_scale


class PathPoint:
    """The point u_lam at t = log(lam) of :class:`PathData`, with its
    ``values`` = theta + lam (1 - theta) and weights ``w`` = lam (1 - theta) /
    values in [0, 1].

    A direct point holds ``u`` = V (c / values), and measures its ``image``
    = lin u, its residual ``r`` = ||image - data|| and ``phi`` = phi(u) on
    first read.  An O(k) point has no u, and sums r and phi over the pencil
    with y = c / values: phi = sum((1 - theta) y^2) and r^2 = r_0^2 +
    sum(w^2 c^2 / theta).  The slopes ``drift()`` and ``shrink()`` are the
    exact t-derivatives of those sums, for points of either kind.
    """

    __slots__ = ("t", "lam", "direct", "of", "values", "w", "u", "_image", "_r", "_phi")

    def __init__(self, of: PathData, t: float, direct: bool):
        self.t, self.lam, self.direct, self.of = t, math.exp(t), direct, of
        scaled = self.lam * of.rest
        self.values = of.theta + scaled
        self.w, self._image, self._r, self._phi = scaled / self.values, None, None, None
        self.u = of.vectors @ (of.coef / self.values) if direct else None

    @property
    def image(self) -> np.ndarray:
        """lin u of a direct point, the one product with lin that it measures."""
        if self._image is None:
            self._image = apply(self.of.op, self.u)
        return self._image

    @property
    def r(self) -> float:
        of = self.of
        if self._r is None and self.direct:
            self._r = l2_norm(of.op.grid, self.image - of.data)
        elif self._r is None:
            if of.r0 is None:
                of.r0 = PathPoint(of, -math.inf, True).r
            z = self.w * of.r_coef
            self._r = math.hypot(of.r0, of.r_scale * math.sqrt(float(z @ z)))
        return self._r

    @property
    def phi(self) -> float:
        of = self.of
        if self._phi is None and self.direct:
            self._phi = phi_value(of.stab, of.op.grid, self.u)
        elif self._phi is None:
            q = of.y_coef / self.values
            self._phi = float((q * q) @ of.rest) * of.y_scale * of.y_scale
        return self._phi

    def drift(self) -> float:
        """d r^2 / dt = 2 sum(w^2 c^2 / values), overflowing only where r^2 does."""
        of, z = self.of, self.w * self.of.r_coef
        return 2.0 * float((z * z) @ (of.theta / self.values)) * of.r_scale * of.r_scale

    def shrink(self) -> float:
        """-d phi / dt = 2 sum(w (1 - theta) y^2), overflowing only where phi
        does.  lam times it is the drift, which underflows to 0 where lam is
        tiny, so neither is computed from the other."""
        of, q = self.of, self.of.y_coef / self.values
        return 2.0 * float((q * q) @ (self.w * of.rest)) * of.y_scale * of.y_scale


# gap(point): a method's scalar equation at a PathPoint, nondecreasing in t, as
# (value, slope in t or None); it reads r or phi, and drift() or shrink()
Gap = Callable[[PathPoint], Tuple[float, Optional[float]]]


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
    across data, or a new one, and the solution reads its residual, its image
    A u and phi from the point found; a nonlinear A is solved by
    :func:`gauss_newton` on ``path``, whose first linearization is shared the
    same way, and A is applied once to the point for both its residual and
    its image.
    """
    f_delta = check_vec(op.grid, f_delta, "data")
    path = path or TikhonovPath(op, stab)
    if op.is_linear:
        point = path_solve(path, f_delta, gap)
        return Solution(point.u, point.r, point.phi, point.lam, image=point.image)
    u = gauss_newton(path, f_delta, gap, objective, project)
    image = apply(op, u)
    return Solution(u, l2_norm(op.grid, image - f_delta), phi_value(stab, op.grid, u),
                    math.nan, image=image)


def path_solve(path: TikhonovPath, f_delta: np.ndarray, gap: Gap, *,
               tol: float = ROOT_TOL, start: float = 0.0) -> PathPoint:
    """The direct :class:`PathPoint` on ``path`` for ``f_delta`` at the root of ``gap``.

    :func:`path_root` finds the root on O(k) points to max(``tol``,
    COARSE_TOL) from t = ``start``, then from there on direct points to
    ``tol``, so a root find takes one or two direct points where the O(k)
    values are good to COARSE_TOL.  Where the direct values are round-off,
    the finish cannot resolve the root better than the O(k) values did, and
    the point is the O(k) root: once the direct gap's rise across its bracket
    departs from what its slope predicts by more than that prediction, or
    where the bracket closes at float resolution with its gap above ``tol``.
    t = -inf (lam = 0) when the gap is nonnegative along the whole path.  A
    pencil that cannot be decomposed fails the solve like a root find that
    does not converge.  The data's :class:`PathData` comes from
    ``path.data``, so a solve of bitwise equal data right after another on
    the same path, the other method at the same noise level, reuses its
    coefficients, their scales and r0; the first solve pays for them.
    """
    try:
        data, found = path.data(f_delta), {}   # found: t -> its direct point
        coarse = path_root(lambda t: gap(PathPoint(data, t, False)), path.t_floor,
                           tol=max(tol, COARSE_TOL), start=start)

        def direct(t: float) -> Tuple[float, Optional[float]]:
            found[t] = PathPoint(data, t, True)
            return gap(found[t])

        t = path_root(direct, path.t_floor, tol=tol, start=coarse, fallback=coarse)
        return found.get(t) or PathPoint(data, t, True)
    except SingularSystemError as exc:
        raise SolverFailureError(str(exc)) from exc


def path_root(fn: Callable[[float], Tuple[float, Optional[float]]], t_floor: float, *,
              tol: float = ROOT_TOL, start: float = 0.0,
              fallback: Optional[float] = None) -> float:
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
    other step bisects, until 0 <= fn <= ``tol`` or float resolution, where
    it ends at the nonnegative end or at ``fallback`` when one is given.
    With a ``fallback`` it also ends there once fn's rise across the bracket
    departs from the slope at t times the bracket's width by more than that
    product: fn's values then move on a scale its slope does not see, so they
    are round-off, and bisecting them finds nothing better than the fallback.
    -inf (lam = 0) when fn is nonnegative down to ``t_floor``, below which
    the path is constant; :class:`SolverFailureError` when fn is negative up
    to T_CEIL.  Every evaluation counts toward ROOT_MAX_ITER.
    """
    moves = (math.inf, math.inf)   # the lengths of the step before last and the last
    lo = hi = None   # the nearest points known with fn < 0 and with fn >= 0
    t, step = min(max(start, t_floor), T_CEIL), 1.0
    for _ in range(ROOT_MAX_ITER):
        f_t, slope = fn(t)
        if f_t >= 0.0:
            hi, f_hi = t, f_t
        else:
            lo, f_lo = t, f_t
        if slope is not None and 0.0 <= f_t <= tol and t > t_floor:
            return t
        bracket = lo is not None and hi is not None
        # the rise of fn across the bracket that its slope at t predicts; with a
        # fallback, fn is round-off once its own rise departs from that by more
        rise = slope * (hi - lo) if bracket and (slope or 0.0) > 0.0 else math.nan
        if bracket and (f_hi <= tol or hi - lo <= 4.0 * EPS * max(1.0, abs(hi))
                        or fallback is not None and rise < abs(f_hi - f_lo - rise)):
            return hi if f_hi <= tol or fallback is None else fallback
        # the Newton point, trusted strictly inside what is known (an open side
        # reaches to its end) and at most half the step before last; a missing,
        # nonpositive or nan slope gives none (nan fails every comparison)
        s = t - (f_t - 0.5 * tol) / slope if (slope or 0.0) > 0.0 else math.nan
        if not ((t_floor if lo is None else lo) < s < (T_CEIL if hi is None else hi)
                and abs(s - t) <= 0.5 * moves[0]):
            if bracket:
                s = 0.5 * (lo + hi)
            else:
                s = min(max(t - step if hi is not None else t + step, t_floor), T_CEIL)
                if s == t:  # clamped at an end that is already evaluated
                    if hi is not None:
                        return -math.inf
                    raise SolverFailureError(
                        f"path root lies beyond the largest float lambda {FLOAT_MAX:g}")
        t, moves, step = s, (moves[1], abs(s - t)), 2.0 * step
    raise SolverFailureError(
        f"path root find did not converge in {ROOT_MAX_ITER} iterations")


def gauss_newton(path: TikhonovPath, f_delta: np.ndarray, gap: Gap,
                 objective: Callable[[np.ndarray], float],
                 project: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Damped Gauss-Newton for the nonlinear A of ``path``, from the constant
    profile 1.

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

    The first step's linearization, J at the start point project(1) and its
    path, is kept in ``path.starts`` under the start point's bytes: a solve on
    the same ``path`` from a bitwise equal start reuses J and the decomposed
    pencil, which a new decomposition would reproduce bit for bit, and only
    its data, f_d - A(u) + J u, and its root find are its own.  Later steps
    are linearized and decomposed anew.
    """
    u = project(np.ones(path.op.grid.n))
    value, t, start = objective(u), 0.0, u.tobytes()
    if start not in path.starts:
        path.starts[start] = path.linearized(u)
    for k in range(GN_MAX_ITER):
        lin = path.starts[start] if k == 0 else path.linearized(u)
        data = f_delta - apply(path.op, u) + lin.op.matrix @ u
        point = path_solve(lin, data, gap, tol=GN_RTOL, start=t)
        t, target = point.t, point.u
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
