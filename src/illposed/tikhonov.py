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
it reads the residual ``r`` or ``phi`` of a :data:`PathPoint` at t =
log(lam), and ``drift()`` or ``shrink()`` for the slope, and returns its
value and its slope in t, or None for the slope.  :func:`path_solve` finds
the root on a point provider, and every failure on the path is one
:class:`SolverFailureError`: a point the provider cannot give, a pencil
that cannot be decomposed, a root find that does not converge.  On the
pencil an O(k) point sums r and phi over the pencil, as Hansen's
``discrep`` and ``lsqi`` get both norms from filter factors, and a direct
point measures them on u_lam (an n x k product, and one more for r).  The
O(k) values take V^T N V = diag(theta) and V^T P V = I - diag(theta) as
exact and so miss the direct ones by the decomposition's round-off, up to
2.7e-5 in the variational gap (n = 512); ``drift`` and ``shrink`` are their
exact t-derivatives.  So the root is found in two phases, Newton steps on
O(k) points to COARSE_TOL and then on direct points to the solve's own
tolerance.  :func:`solve` reads the residual, the image A u and phi of a
linear solution from the point it returns, so A is applied to that point
once.

A nonlinear A is solved by damped Gauss-Newton whose steps are these linear
problems for the Jacobian (Kaltenbacher, Neubauer & Scherzer, *Iterative
Regularization Methods for Nonlinear Ill-Posed Problems*, 2008), each solved
only to GN_RTOL from the previous step's lambda (an inexact Newton method:
Dembo, Eisenstat & Steihaug, 1982); a linear A is solved to ROOT_TOL from
lam = 1.  :func:`gauss_newton` solves its first step on the pencil of J,
shared by every solve from the same start point, and every later step on a
:class:`FactoredPath` with the pencil of J as its fallback, which takes each
step whose factored points fail, as each step from lam = 0, below the
factored floor, does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import NonFiniteError, SolverFailureError
from .grids import check_vec, l2_norm
from .operators import (OperatorSpec, apply, dense_operator, jacobian,
                        normal_matrix, weighted_product, weighted_transpose)
from .stabilizers import Stabilizer, add_bands, penalty_bands, phi_value

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

    ``bands``, the read-only bands of P (:func:`penalty_bands`), are formed
    once, when the path is built, unless they are given; a path hands them to
    each of its linearizations, and those to their :class:`FactoredPath`, so
    a sweep's path forms them for every step of every cell.

    The path of a nonlinear A is that of each of its linearizations
    (:meth:`linearized`), and has no pencil of its own; ``starts`` keeps the
    first linearization of :func:`gauss_newton` by the bytes of its start
    point, one entry per distinct start, for every solve on this path.
    """

    fallback = None   # as a point provider, it has none
    normal: Optional[np.ndarray] = None   # N = A^T W A, where a FactoredPath formed it

    def __init__(self, op: OperatorSpec, stab: Stabilizer, bands=None):
        self.op, self.stab = op, stab
        self.bands = penalty_bands(stab, op.grid) if bands is None else bands
        self.starts = {}   # a nonlinear A's first linearization at each start point
        self.last: Optional[PathData] = None   # the PathData of the last data vector

    @functools.cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """(theta, V); raises :class:`SolverFailureError` where B is singular,
        and where its eigendecomposition fails or gives a non-finite theta."""
        pencil = add_bands(normal_matrix(self.op) if self.normal is None else
                           self.normal.copy(), *self.bands)
        try:
            # B = L L^T turns the pencil into the symmetric L^-1 N L^-T = G^T G
            factor = np.linalg.cholesky(pencil)
            del pencil
            inv_l = lower_inverse(factor)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError("N + lam P is singular at every lambda") from exc
        del factor
        g = weighted_product(self.op, inv_l.T)   # G = W^1/2 A L^-T
        gram = g.T @ g                           # one symmetric product (syrk)
        del g
        try:
            theta, vectors = np.linalg.eigh(gram)   # ascending
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"the pencil has no eigendecomposition: {exc}") from exc
        del gram
        if not np.isfinite(theta).all():
            raise SolverFailureError("the pencil has a non-finite eigenvalue")
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
        return TikhonovPath(dense_operator(self.op.grid, jac), self.stab, self.bands)

    def data(self, f_delta: np.ndarray) -> PathData:
        """The :class:`PathData` of ``f_delta``: ``last`` again where ``f_delta``
        is bitwise equal to its data, else a new one, kept in its place."""
        if self.last is None or self.last.key != f_delta.tobytes():
            self.last = PathData(self, f_delta)
        return self.last


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
        self.op, self.stab, self.key = path.op, path.stab, data.tobytes()
        self.data = np.frombuffer(self.key)
        (self.theta, self.vectors), self.r0 = path.spectrum, None
        self.coef = self.vectors.T @ weighted_transpose(self.op, data)   # V^T A^T W f_d
        self.rest, root = 1.0 - self.theta, np.sqrt(self.theta)
        with np.errstate(over="ignore"):   # a scale past the float range is clipped
            bounds = [np.abs(self.coef / x).max(initial=0.0) for x in (self.theta, root)]
        self.y_scale, self.r_scale = (min(float(b) or 1.0, FLOAT_MAX) for b in bounds)
        self.y_coef = self.coef / self.y_scale
        self.r_coef = self.coef / root / self.r_scale

    def coarse(self, t: float) -> CoarsePoint:
        return CoarsePoint(self, t)

    def point(self, t: float) -> DirectPoint:
        return DirectPoint(self, t)


class PencilPoint:
    """A point of :class:`PathData`, with ``values`` = theta + lam (1 - theta)
    and weights ``w`` = lam (1 - theta) / values in [0, 1], and the slopes of
    the O(k) sums of a :class:`CoarsePoint`, for points of either kind."""

    def __init__(self, of: PathData, t: float):
        self.t, self.lam, self.of = t, math.exp(t), of
        scaled = self.lam * of.rest
        self.values = of.theta + scaled
        self.w = scaled / self.values

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


class CoarsePoint(PencilPoint):
    """An O(k) point: it has no u, and sums r and phi over the pencil on each
    read, with y = c / values: phi = sum((1 - theta) y^2) and r^2 = r_0^2 +
    sum(w^2 c^2 / theta)."""

    @property
    def r(self) -> float:
        of = self.of
        if of.r0 is None:
            of.r0 = of.point(-math.inf).r
        z = self.w * of.r_coef
        return math.hypot(of.r0, of.r_scale * math.sqrt(float(z @ z)))

    @property
    def phi(self) -> float:
        q = self.of.y_coef / self.values
        return float((q * q) @ self.of.rest) * self.of.y_scale * self.of.y_scale


class Measured:
    """A direct point's values, measured on its ``u`` on first read: its
    ``image`` = lin u, the one product with lin that it makes, its residual
    ``r`` = ||image - data|| and ``phi`` = phi(u)."""

    _image = _r = _phi = None   # until first read

    @property
    def image(self) -> np.ndarray:
        if self._image is None:
            self._image = apply(self.of.op, self.u)
        return self._image

    @property
    def r(self) -> float:
        if self._r is None:
            self._r = l2_norm(self.of.op.grid, self.image - self.of.data)
        return self._r

    @property
    def phi(self) -> float:
        if self._phi is None:
            self._phi = phi_value(self.of.stab, self.of.op.grid, self.u)
        return self._phi


class DirectPoint(Measured, PencilPoint):
    """A direct point of :class:`PathData`, ``u`` = V (c / values)."""

    def __init__(self, of: PathData, t: float):
        super().__init__(of, t)
        self.u = of.vectors @ (of.coef / self.values)


class FactoredPath:
    """The points of one linearization J of a nonlinear A, for one root find,
    each by a dense solve of N + lam P instead of a decomposition of the pencil,
    ``fallback``, the :class:`TikhonovPath` of J, which is only decomposed
    where a step falls back to it.  N = J^T W J is formed once, and handed
    to the pencil as its ``normal``: each point adds lam times P's bands, the
    pencil's, to a copy of it, and the pencil decomposes N + P from a copy of
    it too.

    ``t_floor`` is the log of lam_f = (n eps / GN_RTOL) max(1, |N| / |P|),
    with |.| the largest diagonal entry, and holds two conditions.  The
    pencil drops the directions with theta below n eps times the largest, so
    below n eps; above n eps / GN_RTOL the filter factor theta / (theta + lam
    (1 - theta)) of each such direction is under GN_RTOL, so a dense point,
    which keeps them, departs from the truncated path by less than a step's
    own tolerance.  And N carries a round-off of about n eps |N|, which lam P
    must exceed by 1 / GN_RTOL for the solve to resolve the directions that
    only P regularizes, as where P is tiny beside N.  Where P's diagonal is
    zero no lam P regularizes N, and the floor is +inf.
    """

    def __init__(self, pencil: TikhonovPath):
        self.fallback, self.op, self.stab = pencil, pencil.op, pencil.stab
        self.normal = pencil.normal = normal_matrix(self.op)
        self.bands = pencil.bands
        top, scale = float(self.normal.diagonal().max()), float(self.bands[0].max())
        # max(1, |N| / |P|) as a difference of logs, as |N| / |P| may overflow
        self.t_floor = (math.log(self.op.grid.n * EPS / GN_RTOL) + math.log(max(top, scale))
                        - math.log(scale) if 0.0 < scale < math.inf else math.inf)

    def data(self, f_delta: np.ndarray) -> FactoredData:
        return FactoredData(self, f_delta)


class FactoredData:
    """One data vector on a :class:`FactoredPath`."""

    coarse = None   # it has no O(k) points

    def __init__(self, path: FactoredPath, data: np.ndarray):
        self.path, self.op, self.stab, self.data = path, path.op, path.stab, data

    @functools.cached_property
    def rhs(self) -> np.ndarray:
        """b = J^T W f_d, formed at the first point above the floor: a step
        that starts below it goes to its fallback without reading b."""
        return weighted_transpose(self.op, self.data)

    def point(self, t: float) -> FactoredPoint:
        return FactoredPoint(self, t)


class FactoredPoint(Measured):
    """The direct point of :class:`FactoredData` at t: u solves (N + lam P) u
    = b, and q = (P u)^T (N + lam P)^-1 (P u) gives the exact slopes, as
    du/dlam = -(N + lam P)^-1 P u: d r^2 / dt = 2 lam^2 q and -d phi / dt =
    2 lam q.  At or below the floor, where the system is singular or a value
    leaves the float range, and where q falls outside [0, inf), it raises
    :class:`SolverFailureError`, and :func:`path_solve` solves the step on the
    path's ``fallback`` instead.
    """

    def __init__(self, of: FactoredData, t: float):
        if t <= of.path.t_floor:
            raise SolverFailureError(f"t = {t:g} is at or below the floor")
        self.t, self.lam, self.of = t, math.exp(t), of
        # b is formed outside the errstate below, which guards the system alone
        (diagonal, off), rhs = of.path.bands, of.rhs
        try:
            with np.errstate(over="raise", invalid="raise"):
                system = add_bands(of.path.normal.copy(), self.lam * diagonal,
                                   self.lam * off)
                self.u = np.linalg.solve(system, rhs)
                pu = diagonal * self.u   # P u, from P's bands
                pu[1:] += off * self.u[:-1]
                pu[:-1] += off * self.u[1:]
                self.q = float(pu @ np.linalg.solve(system, pu))
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise SolverFailureError(f"no factored point at t = {t:g}: {exc}") from exc
        if not 0.0 <= self.q < math.inf:   # nan fails it too
            raise SolverFailureError(f"no factored point at t = {t:g}: q = {self.q}")

    def drift(self) -> float:
        return 2.0 * self.lam * (self.lam * self.q)

    def shrink(self) -> float:
        return 2.0 * self.lam * self.q


# a point u_lam at t = log(lam), with lam and ``of``, the data of its provider: r,
# phi, their t-slopes drift() = d r^2 / dt and shrink() = -d phi / dt, and for a
# direct point u and its image; no kind of point derives from another
PathPoint = Union[CoarsePoint, DirectPoint, FactoredPoint]
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
          objective: Callable[[np.ndarray, np.ndarray], float],
          project: Callable[[np.ndarray], np.ndarray],
          path: Optional[TikhonovPath] = None) -> Solution:
    """The :class:`Solution` at the root of ``gap``, which is nondecreasing in lam.

    A linear A is solved by :func:`path_solve` on ``path``, shared by a caller
    across data, or a new one, and the solution reads its residual, its image
    A u and phi from the point found; a nonlinear A is solved by
    :func:`gauss_newton` on ``path``, whose first linearization is shared the
    same way, and the solution reads its residual from the image of A that
    the line search measured at the point returned.  Either way A meets the
    returned point once.
    """
    f_delta = check_vec(op.grid, f_delta, "data")
    path = path or TikhonovPath(op, stab)
    if op.is_linear:
        point = path_solve(path, f_delta, gap)
        return Solution(point.u, point.r, point.phi, point.lam, image=point.image)
    u, image = gauss_newton(path, f_delta, gap, objective, project)
    return Solution(u, l2_norm(op.grid, image - f_delta), phi_value(stab, op.grid, u),
                    math.nan, image=image)


def path_solve(path, f_delta: np.ndarray, gap: Gap, *, tol: float = ROOT_TOL,
               start: float = 0.0) -> PathPoint:
    """The direct point of the point provider ``path`` for ``f_delta`` at the
    root of ``gap``.

    A provider has ``t_floor``, ``fallback`` (a provider or None) and
    ``data(f_d)``, whose data give the direct point ``point(t)`` and, where
    they have O(k) values, ``coarse(t)`` (else ``coarse`` is None).  On O(k)
    points :func:`path_root` finds the root to max(``tol``, COARSE_TOL) from
    t = ``start``, then from there on direct points to ``tol`` with the O(k)
    root as its fallback, so a root find takes one or two direct points where
    the O(k) values are good to COARSE_TOL, and ends at the O(k) root where
    the direct values are round-off.  Other data are searched on direct
    points alone, to ``tol`` from ``start``.  A provider fails one way, by
    :class:`SolverFailureError`: where it cannot give a point, where its
    pencil cannot be decomposed, or where the root find fails.  The find
    then starts again from ``start`` on the provider's ``fallback``, or the
    error is raised where it has none.  t = -inf (lam = 0) when the gap is
    nonnegative along the whole path.
    """
    def direct(t: float) -> Tuple[float, Optional[float]]:
        found[t] = data.point(t)
        return gap(found[t])

    while True:
        found = {}   # t -> its direct point
        try:
            data, coarse = path.data(f_delta), None
            if data.coarse is not None:
                coarse = path_root(lambda t: gap(data.coarse(t)), path.t_floor,
                                   tol=max(tol, COARSE_TOL), start=start)
            t = path_root(direct, path.t_floor, tol=tol,
                          start=start if coarse is None else coarse, fallback=coarse)
            return found.get(t) or data.point(t)
        except SolverFailureError:
            if path.fallback is None:
                raise
            path = path.fallback


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
                 objective: Callable[[np.ndarray, np.ndarray], float],
                 project: Callable[[np.ndarray], np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton for the nonlinear A of ``path``, from the constant
    profile 1; returns the last iterate u and its image A(u).

    At the iterate u the operator builds its Jacobian matrix J = A'(u) once,
    and the method's own linear problem for J with data f_d - A(u) + J u is
    solved by :func:`path_solve` with ``gap``, to GN_RTOL and from the t =
    log(lam) where the previous step's root find ended (lam = 1 at the first
    step; the floor of the path after a step at lam = 0).  The iterate moves
    toward that point, halving the step until ``objective(u, A(u))`` drops,
    then ``project``s; the image of each trial is measured once and kept with
    the iterate it becomes, and a trial whose image or objective leaves the
    float range counts as worse, with the value inf.  It stops when a step
    lowers the objective by less than GN_RTOL of its value, or when no step
    of length fraction at least GN_RTOL lowers it; after GN_MAX_ITER steps it
    raises :class:`SolverFailureError`.

    The first step's linearization, J at the start point project(1) and its
    path, is kept in ``path.starts`` under the start point's bytes: a solve on
    the same ``path`` from a bitwise equal start reuses J and the decomposed
    pencil, which a new decomposition would reproduce bit for bit, and only
    its data, f_d - A(u) + J u, and its root find are its own.  Every later
    step evaluates the handful of points of its root find on a
    :class:`FactoredPath`, one dense solve each, whose fallback is the step's
    pencil.  A step from lam = 0 starts at the factored floor, where the
    factored point fails, and so runs on the pencil from the pencil's floor:
    lam = 0 is the truncated pencil's least-squares point.
    """
    u = project(np.ones(path.op.grid.n))
    image = apply(path.op, u)
    value, t, start = objective(u, image), 0.0, u.tobytes()
    if start not in path.starts:
        path.starts[start] = path.linearized(u)
    for k in range(GN_MAX_ITER):
        lin = path.starts[start] if k == 0 else FactoredPath(path.linearized(u))
        data = f_delta - image + lin.op.matrix @ u
        point = path_solve(lin, data, gap, tol=GN_RTOL, start=t)
        t, target = point.t, point.u
        step = 1.0
        while True:
            trial = project(u + step * (target - u))
            try:
                with np.errstate(over="ignore"):   # an overflow gives inf, a worse trial
                    trial_image = apply(path.op, trial)
                    trial_value = objective(trial, trial_image)
            except NonFiniteError:
                trial_value = math.inf
            if trial_value < value:
                break
            step *= 0.5
            if step < GN_RTOL:
                return u, image
        decrease, u, image, value = value - trial_value, trial, trial_image, trial_value
        if decrease <= GN_RTOL * value:
            return u, image
    raise SolverFailureError(f"Gauss-Newton did not converge in {GN_MAX_ITER} steps")
