"""Brute-force and golden-section minimizers used as independent ground truth.

These are deliberately simple searchers for desk-scale verification of the
solvers: exhaustive grid evaluation in up to three dimensions, a 1-d
golden-section refiner, and a cyclic coordinate polisher built on it.  They
import nothing from ``illposed``, so they share no code path with the
solvers they validate; every failure is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

POINT_BUDGET = 10_000_000
MAX_DIM = 3
CHUNK = 1 << 19  # grid points per objective call of the brute force
GOLDEN_MAX_ITER = 1000  # golden-section steps per bracket
POLISH_VALUE_TOL = 1e-15  # polishing stops once a sweep gains less than this
POLISH_MAX_SWEEPS = 300
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned box with a uniform number of grid points per axis."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("lower and upper bounds must have equal nonzero length")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("each lower bound must be below its upper bound")
        if self.resolution < 3:
            raise ValueError("resolution must be at least 3 points per axis")
        if self.resolution ** len(self.lower) > POINT_BUDGET:
            raise ValueError(
                f"{self.resolution}^{len(self.lower)} grid points exceed "
                f"the {POINT_BUDGET:.0e} budget"
            )

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list:
        return [np.linspace(lo, hi, self.resolution)
                for lo, hi in zip(self.lower, self.upper)]

    @property
    def cell(self) -> np.ndarray:
        """Grid spacing per axis."""
        return (np.asarray(self.upper) - np.asarray(self.lower)) / (self.resolution - 1)


def brute_force_minimize(objective: Callable[[np.ndarray], np.ndarray],
                         box: SearchBox) -> Tuple[np.ndarray, float]:
    """Evaluate ``objective`` at every grid point of ``box`` and return the best.

    ``objective`` must accept an ``(m, dim)`` array and return ``m`` values
    (it is evaluated ``CHUNK`` points at a time to stay within memory).  Ties
    are broken by lexicographic grid index.  ``+inf`` values mark infeasible points; the
    returned minimum must be finite.
    """
    if box.dim > MAX_DIM:
        raise ValueError(f"brute force search capped at {MAX_DIM} dimensions")
    axes = box.axes()
    res = box.resolution
    total = res ** box.dim
    shape = (res,) * box.dim

    best_value = np.inf
    best_index = -1
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        flat = np.arange(start, stop)
        idx = np.unravel_index(flat, shape)
        pts = np.stack([axes[k][idx[k]] for k in range(box.dim)], axis=1)
        values = np.asarray(objective(pts), dtype=float)
        if np.any(np.isnan(values)):
            bad = pts[int(np.flatnonzero(np.isnan(values))[0])]
            raise ValueError(f"objective returned NaN at {bad}")
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_index = start + j
    if not np.isfinite(best_value):
        raise ValueError("objective has no finite value on the search box")
    idx = np.unravel_index(best_index, shape)
    point = np.array([axes[k][idx[k]] for k in range(box.dim)])
    return point, best_value


def refine_1d(g: Callable[[float], float], bracket: Sequence[float],
              tol: float = 1e-6) -> float:
    """Golden-section search on a unimodal ``g``; returns the final bracket midpoint.

    Terminates once the bracket width falls below ``tol`` relative to the
    bracket magnitude (with a tiny absolute floor so brackets touching zero
    still terminate).
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError(f"invalid bracket [{a}, {b}]")
    atol = 1e-15 * (b - a) + 1e-300

    def _eval(x: float) -> float:
        y = g(x)
        if not np.isfinite(y):
            raise ValueError(f"objective is non-finite at {x}")
        return y

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = _eval(c), _eval(d)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= tol * 0.5 * (abs(a) + abs(b)) + atol:
            break
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = _eval(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = _eval(d)
    return 0.5 * (a + b)


def refine_coordinatewise(objective: Callable[[np.ndarray], np.ndarray],
                          start: np.ndarray,
                          radius: np.ndarray) -> Tuple[np.ndarray, float]:
    """Polish a brute-force minimizer by cyclic per-coordinate golden section.

    ``objective`` uses the same batched convention as
    :func:`brute_force_minimize`.  Each sweep refines every coordinate over a
    bracket of +/- ``radius`` around the current point; sweeps stop when the
    value improvement drops below ``POLISH_VALUE_TOL``.
    """
    point = np.array(start, dtype=float)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), point.shape)

    def scalar(p: np.ndarray) -> float:
        return float(objective(p[None, :])[0])

    value = scalar(point)
    for _ in range(POLISH_MAX_SWEEPS):
        previous = value
        for k in range(point.size):
            def slice_k(t: float, k: int = k) -> float:
                p = point.copy()
                p[k] = t
                return scalar(p)

            point[k] = refine_1d(slice_k, (point[k] - radius[k], point[k] + radius[k]),
                                 tol=1e-12)
        value = scalar(point)
        if previous - value < POLISH_VALUE_TOL:
            break
    return point, value
