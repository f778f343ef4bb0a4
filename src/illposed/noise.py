"""Calibrated pseudorandom perturbations of exact data.

The perturbation direction is i.i.d. standard normal per node, drawn from a
counter-based Philox generator so that results are reproducible across
platforms, then rescaled to the requested noise level in the grid norm.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .grids import Grid, check_vec, l2_norm

EXACT_NORM = "exact-norm"
BOUNDED = "bounded"


def inject_noise(grid: Grid, f: np.ndarray, delta: float, seed: int,
                 mode: str = EXACT_NORM) -> np.ndarray:
    """The noisy data: ``f`` plus a seeded perturbation of grid norm ``delta``.

    In ``exact-norm`` mode the perturbation norm equals ``delta`` exactly
    (worst case allowed by the noise model); in ``bounded`` mode the norm is
    drawn uniformly from ``(0, delta]``.  The output is a pure function of
    ``(grid, f, delta, seed, mode)``.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise InvalidParameterError(f"noise level must be positive, got delta={delta}")
    if mode not in (EXACT_NORM, BOUNDED):
        raise InvalidParameterError(f"unknown noise mode {mode!r}")
    f = check_vec(grid, f, "exact data")

    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal(grid.n)
    nz = l2_norm(grid, z)
    if nz == 0.0:  # pragma: no cover - probability zero
        raise InvalidParameterError("degenerate noise draw")
    direction = z / nz
    radius = delta if mode == EXACT_NORM else delta * (1.0 - rng.uniform())
    return f + radius * direction
