"""Batch driver: single solves, noise-level sweeps, certificates, CSV reports.

The CSV artifact is a pure function of the configuration: per-level noise
seeds derive from the base seed and the position of each level in the
configured list, and the wall-clock column is left empty in the file (two
identical runs must produce byte-identical CSVs; measured timings go to the
console summary and to the in-memory report instead).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from math import isnan
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, SolverFailureError
from .gallery import ProblemInstance, build_problem
from .grids import l2_norm
from .noise import BOUNDED, EXACT_NORM, inject_noise
from .quasisolution import minimize_on_compactum, quasi_certificate
from .stabilizers import Compactum, Stabilizer, phi_value
from .tikhonov import TikhonovPath
from .variational import minimize_variational, variational_certificate

METHOD_VARIATIONAL = "variational"
METHOD_QUASI = "quasi"
METHOD_BOTH = "both"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERDICT = 2

MAX_N = 4096  # the largest grid of the dense road: an n x n float array is 134 MB


def parse_deltas(text: str) -> Tuple[float, ...]:
    """Comma-separated noise levels, for the config key and the CLI flag."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad noise levels {text!r}: {exc}") from exc


def setting(parse: Callable[[str], object], help_text: str,
            default: object = dataclasses.MISSING):
    """A ``SweepConfig`` field that is a config key and a CLI flag: ``parse``
    reads its text value, and ``help_text`` is the flag's help."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass
class SweepConfig:
    """Configuration of a solve or sweep run; each field is a :func:`setting`."""

    problem: str = setting(str, "gallery problem name")
    n: int = setting(int, "number of grid nodes", default=64)
    sigma: float = setting(float, "kernel width for fredholm-gauss", default=0.1)
    method: str = setting(str, "variational | quasi | both", default=METHOD_BOTH)
    deltas: Tuple[float, ...] = setting(parse_deltas, "comma-separated noise levels",
                                        default=(1e-1, 1e-2, 1e-3, 1e-4))
    seed: int = setting(int, "base seed for noise draws", default=42)
    noise_mode: str = setting(str, "exact-norm | bounded", default=EXACT_NORM)
    alpha0: float = setting(float, "stabilizer weight on the value term", default=1.0)
    alpha1: float = setting(float, "stabilizer weight on the slope term", default=1.0)
    rho_factor: float = setting(
        float, "radius as a multiple of the true solution's stabilizer value",
        default=1.5)
    out: Optional[str] = setting(str, "CSV output path", default=None)

    def __post_init__(self):
        if self.method not in (METHOD_VARIATIONAL, METHOD_QUASI, METHOD_BOTH):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.noise_mode not in (EXACT_NORM, BOUNDED):
            raise ConfigurationError(f"unknown noise mode {self.noise_mode!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if not self.deltas:
            raise ConfigurationError("at least one noise level is required")
        if any(d <= 0.0 for d in self.deltas):
            raise ConfigurationError("noise levels must be strictly positive")
        if not all(math.isfinite(d * d) for d in self.deltas):
            raise ConfigurationError(
                "noise levels must have a finite square, below 1.34e154")
        if len(set(self.deltas)) != len(self.deltas):
            # each level's seed is its position, so a repeat would reseed a row
            raise ConfigurationError("noise levels must not repeat")
        if not 4 <= self.n <= MAX_N:
            raise ConfigurationError(f"n must be between 4 and {MAX_N}, got {self.n}")
        if self.out is not None and "\0" in self.out:   # open() would raise ValueError
            raise ConfigurationError(f"output path {self.out!r} has a NUL character")

    @property
    def methods(self) -> List[str]:
        if self.method == METHOD_BOTH:
            return [METHOD_VARIATIONAL, METHOD_QUASI]
        return [self.method]


@dataclass
class SweepRow:
    """One (delta, method) cell; its fields but ``solver_error`` are the CSV
    columns, in order."""

    delta: float
    method: str
    error_l2: Optional[float] = None
    residual_noisy: Optional[float] = None
    residual_exact: Optional[float] = None
    phi_u: Optional[float] = None
    F_value: Optional[float] = None
    # verdicts of (1.8), (1.9), (1.10) for the variational method, (2.4), (2.6) for quasi
    cert_18: Optional[bool] = None
    cert_19: Optional[bool] = None
    cert_110: Optional[bool] = None
    cert_24: Optional[bool] = None
    cert_26: Optional[bool] = None
    lambda_star: Optional[float] = None
    wall_ms: Optional[float] = None
    solver_error: Optional[str] = None

    @property
    def certificates_ok(self) -> bool:
        if self.solver_error is not None:
            return False
        verdicts = (getattr(self, name) for name in CERT_COLUMNS)
        return all(ok for ok in verdicts if ok is not None)


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow)
                    if f.name != "solver_error")
CERT_COLUMNS = tuple(name for name in CSV_COLUMNS if name.startswith("cert_"))


@dataclass
class SweepReport:
    config: SweepConfig
    rows: List[SweepRow] = field(default_factory=list)

    @property
    def all_certificates_pass(self) -> bool:
        return all(row.certificates_ok for row in self.rows)

    def error_decreasing(self, method: str) -> Optional[bool]:
        """Whether the error at the smallest level beats the largest one."""
        rows = [r for r in self.rows if r.method == method and r.error_l2 is not None]
        if len(rows) < 2:
            return None
        largest = max(rows, key=lambda r: r.delta)
        smallest = min(rows, key=lambda r: r.delta)
        return smallest.error_l2 < largest.error_l2

    @property
    def exit_code(self) -> int:
        ok = self.all_certificates_pass
        for method in self.config.methods:
            verdict = self.error_decreasing(method)
            if verdict is False:
                ok = False
        return EXIT_OK if ok else EXIT_VERDICT


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    value = float(value)
    if isnan(value):
        return ""
    return repr(value)


def rows_to_csv(rows: List[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = [_format_cell(getattr(row, col)) for col in CSV_COLUMNS[:-1]]
        cells.append("")  # wall_ms stays empty: the file must be reproducible
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def delta_seed(config: SweepConfig, delta_index: int) -> int:
    """Noise seed for one level: appending levels never reshuffles earlier rows."""
    return config.seed + delta_index


def resolve_rho(config: SweepConfig, problem: ProblemInstance,
                stab: Stabilizer) -> float:
    """The constraint radius: ``rho_factor`` times the truth's ``phi``."""
    return config.rho_factor * phi_value(stab, problem.grid, problem.y_true)


def solve_one(problem: ProblemInstance, method: str, delta: float,
              f_delta: np.ndarray, stab: Stabilizer, K: Optional[Compactum],
              path: Optional[TikhonovPath]) -> SweepRow:
    """Run one (method, delta) cell on the noisy data and evaluate its certificates.

    ``stab``, the compactum ``K`` of the quasi cells and the Tikhonov ``path``
    of the problem's operator are shared by every cell of a sweep; with
    ``path`` None the cell shares nothing.  ``residual_exact`` is measured
    from the solution's ``image`` A(u_delta), so A is not applied again.
    """
    grid = problem.grid
    row = SweepRow(delta=delta, method=method)
    started = time.perf_counter()
    try:
        if method == METHOD_VARIATIONAL:
            res = minimize_variational(problem.op, f_delta, delta, stab, path)
            slacks = variational_certificate(res, problem, delta, stab)
            row.F_value = res.F_value
        else:
            res = minimize_on_compactum(problem.op, f_delta, K, path)
        row.residual_exact = l2_norm(grid, res.image - problem.f_exact)
        if method == METHOD_QUASI:
            slacks = quasi_certificate(res, row.residual_exact, delta)
        for column, slack in slacks.items():
            setattr(row, column, slack >= 0.0)
        row.residual_noisy = res.residual_noisy
        row.phi_u = res.phi_u
        row.lambda_star = res.lambda_star
        row.error_l2 = l2_norm(grid, res.u_delta - problem.y_true)
    except SolverFailureError as exc:
        row.solver_error = str(exc)
    row.wall_ms = 1000.0 * (time.perf_counter() - started)
    return row


def run_solve(config: SweepConfig) -> SweepReport:
    """:func:`run_sweep` at the first noise level alone.  Only the benchmark
    calls it: its ``linear-solve-n64`` workload and the warm-up before every
    workload, and its tracer traces it.  ``illposed sweep --deltas 1e-2`` is
    the same run from the command line."""
    return run_sweep(dataclasses.replace(config, deltas=config.deltas[:1]))


def run_sweep(config: SweepConfig) -> SweepReport:
    """One row per (delta, method); rows are reported by descending delta.

    The stabilizer and the compactum are built, and so checked, before any
    cell runs, as are the bands of phi's matrix and phi(y), which must be
    finite.  Every problem has one Tikhonov path for the whole sweep, and
    the check reads the bands that path forms for every cell.  For a
    linear problem the first cell decomposes its pencil and pays for it in its
    ``wall_ms``, and every later cell reuses the decomposition.  The path
    also keeps the last data vector's coefficients: the first cell at each
    noise level computes them, and pays for them in its ``wall_ms``, and the
    other method's cell at that level reuses them.
    For a nonlinear problem every cell starts Gauss-Newton from project(1): the
    variational cells from the domain projection of the profile 1, the quasi
    cells from its projection onto K, which is the same point when the
    profile lies in K.  The first cell from each distinct start point
    linearizes and decomposes there, and every later cell from a bitwise
    equal start reuses that first step's Jacobian and pencil, and the
    coefficients of the first step's data where those are bitwise equal too,
    as they are for the two methods at one level.  The rows
    cannot change: a cell would compute the same Jacobian and the same
    decomposition bit for bit, and everything that depends on its data is
    still its own.
    """
    problem = build_problem(config.problem, config.n, sigma=config.sigma)
    stab = Stabilizer(config.alpha0, config.alpha1)
    with np.errstate(over="ignore"):  # weights near the top of the float range
        path = TikhonovPath(problem.op, stab)
    finite = np.isfinite(np.concatenate(path.bands)).all()
    if not (finite and math.isfinite(phi_value(stab, problem.grid, problem.y_true))):
        raise ConfigurationError(f"phi overflows at alpha0={config.alpha0:g}, "
                                 f"alpha1={config.alpha1:g}")
    K = None
    if METHOD_QUASI in config.methods:
        K = Compactum(stab, resolve_rho(config, problem, stab))
    seeds = {delta: delta_seed(config, j) for j, delta in enumerate(config.deltas)}
    report = SweepReport(config=config)
    for delta in sorted(config.deltas, reverse=True):
        f_delta = inject_noise(problem.grid, problem.f_exact, delta, seeds[delta],
                               mode=config.noise_mode)
        for method in config.methods:
            report.rows.append(solve_one(problem, method, delta, f_delta, stab, K, path))
    if config.out is not None:
        write_report_csv(report, config.out)
    return report


def write_report_csv(report: SweepReport, path: str) -> None:
    text = rows_to_csv(report.rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def print_summary(report: SweepReport) -> None:
    total_ms = 0.0
    for row in report.rows:
        verdicts = [(name[len("cert_"):], getattr(row, name)) for name in CERT_COLUMNS]
        certs = [name for name, ok in verdicts if ok]
        failures = [name for name, ok in verdicts if ok is False]
        status = "FAIL " + ",".join(failures) if failures else "pass " + ",".join(certs)
        if row.solver_error is not None:
            status = f"SOLVER FAILURE ({row.solver_error})"
        err = "n/a" if row.error_l2 is None else f"{row.error_l2:.6e}"
        print(f"delta={row.delta:<8g} method={row.method:<12s} "
              f"error={err} [{status}] ({row.wall_ms:.1f} ms)")
        total_ms += row.wall_ms or 0.0
    print(f"all-certificates-pass: {report.all_certificates_pass}")
    for method in report.config.methods:
        verdict = report.error_decreasing(method)
        if verdict is not None:
            print(f"error-decreasing[{method}]: {verdict}")
    print(f"total wall time: {total_ms:.1f} ms")


# --- settings: config-file keys and CLI flags -------------------------------

# key -> (parser of its text value, help), one per ``SweepConfig`` field in order
SETTINGS: Dict[str, Tuple[Callable[[str], object], str]] = {
    f.name: (f.metadata["parse"], f.metadata["help"])
    for f in dataclasses.fields(SweepConfig)}


def parse_config_file(path: str) -> Dict[str, object]:
    """Parse a flat ``key = value`` file with ``#`` comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 text file: {exc}") from exc
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in SETTINGS:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(sorted(SETTINGS))}")
        try:
            values[key] = SETTINGS[key][0](value.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values
