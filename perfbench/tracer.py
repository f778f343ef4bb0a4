"""Per-layer tracing by wrapping functions where their callers look them up.

The tracer replaces every binding of a traced function in the ``illposed``
modules (``from .operators import apply`` makes ``variational.apply`` a
binding of its own), plus ``scipy.linalg.cho_factor`` / ``cho_solve``, which
the solvers reach through ``la.<name>`` at call time.  Each call opens a span;
spans are folded into per-layer totals as they close, so memory stays flat
however many calls a pass makes:

* ``calls``  - completed calls,
* ``s``      - inclusive wall time (outermost activation only, if a layer
               ever re-enters itself),
* ``self_s`` - inclusive time minus the time covered by traced child spans,
* ``gflop``  - for ``cho_factor`` only: sum of n^3/3 over the factorized
               matrices, a computed operation count, not a measured one.

Nothing in ``src/`` changes; leaving the ``with`` block restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

# layers whose public functions are traced, by short module name
LAYER_MODULES = ("gallery", "noise", "variational", "quasisolution",
                 "operators", "stabilizers")
# the sweep module is traced at its entry points and its per-cell worker only
SWEEP_FUNCTIONS = ("run_sweep", "run_solve", "solve_one")
LAPACK_FUNCTIONS = ("cho_factor", "cho_solve")


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    gflop: float = 0.0
    active: int = 0


def _cholesky_gflop(args) -> float:
    n = args[0].shape[0]
    return n ** 3 / 3.0 / 1e9


class Tracer:
    """Context manager that traces the layers of an imported ``illposed``."""

    def __init__(self):
        self.stats: Dict[str, LayerStats] = {}
        self._children: List[float] = []  # child time of each open span
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name, fn, flop=None):
        stats = self.stats.setdefault(name, LayerStats())
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.active += 1
            children.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stats.active -= 1
                stats.calls += 1
                stats.self_s += elapsed - covered
                if stats.active == 0:
                    stats.s += elapsed
                if flop is not None:
                    stats.gflop += flop(args)

        return traced

    def _targets(self):
        """Map id(original function) -> its traced wrapper."""
        import illposed
        import scipy.linalg

        targets = {}
        for short in LAYER_MODULES:
            module = getattr(illposed, short)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    targets[id(value)] = self._wrap(f"{short}.{attr}", value)
        for attr in SWEEP_FUNCTIONS:
            fn = getattr(illposed.sweep, attr)
            targets[id(fn)] = self._wrap(f"sweep.{attr}", fn)
        for attr in LAPACK_FUNCTIONS:
            fn = getattr(scipy.linalg, attr)
            flop = _cholesky_gflop if attr == "cho_factor" else None
            targets[id(fn)] = self._wrap(f"linalg.{attr}", fn, flop)
        return targets

    def __enter__(self) -> "Tracer":
        import illposed
        import scipy.linalg

        targets = self._targets()
        modules = [illposed, scipy.linalg] + [
            getattr(illposed, name) for name in dir(illposed)
            if inspect.ismodule(getattr(illposed, name))
            and getattr(illposed, name).__name__.startswith("illposed.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
