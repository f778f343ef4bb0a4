"""Acceptance suite: every guarantee the library makes, checked end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All runs use the gallery at n=64, exact-norm noise and base
seed 42 unless a criterion says otherwise.
"""

import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from illposed import (Compactum, Stabilizer, SweepConfig, apply, build_problem,
                      inject_noise, jacobian, l2_norm, minimize_on_compactum,
                      minimize_variational, phi_value, project_onto,
                      quasi_certificate, run_sweep, variational_certificate,
                      weighted_transpose)
from illposed.tikhonov import TikhonovPath

from helpers import (constrained_residual_batch, contains, f_objective_batch,
                     inner_product, lam_point)
from oracle import SearchBox, brute_force_minimize, refine_coordinatewise

MATRIX = ("diag-unbounded", "volterra-int", "fredholm-gauss")
DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
SEED = 42
N = 64
RHO_FACTOR = 1.5

# error at the smallest noise level, recorded from the oracle-validated
# baseline run (criteria 6 and 7 green), then given 20% headroom
ERROR_THRESHOLDS = {
    ("diag-unbounded", "variational"): 1.6e-3,
    ("diag-unbounded", "quasi"): 1.6e-3,
    ("volterra-int", "variational"): 5.7e-3,
    ("volterra-int", "quasi"): 1.8e-2,
    ("fredholm-gauss", "variational"): 1.3e-2,
    ("fredholm-gauss", "quasi"): 5.1e-2,
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def matrix_runs():
    """Both methods on every linear problem at every noise level."""
    started = time.perf_counter()
    stab = Stabilizer()
    runs = {}
    for name in MATRIX:
        problem = build_problem(name, N)
        phi_y = phi_value(stab, problem.grid, problem.y_true)
        K = Compactum(stab, RHO_FACTOR * phi_y)
        for j, delta in enumerate(DELTAS):
            f_delta = inject_noise(problem.grid, problem.f_exact, delta, SEED + j)
            var = minimize_variational(problem.op, f_delta, delta, stab)
            var_cert = variational_certificate(var, problem, delta, stab)
            quasi = minimize_on_compactum(problem.op, f_delta, K)
            quasi_residual_exact = l2_norm(
                problem.grid, apply(problem.op, quasi.u_delta) - problem.f_exact)
            q_cert = quasi_certificate(quasi, quasi_residual_exact, delta)
            runs[(name, delta)] = SimpleNamespace(
                problem=problem, stab=stab, phi_y=phi_y, f_delta=f_delta,
                var=var, var_cert=var_cert, quasi=quasi, quasi_cert=q_cert,
                quasi_residual_exact=quasi_residual_exact,
                var_error=l2_norm(problem.grid, var.u_delta - problem.y_true),
                quasi_error=l2_norm(problem.grid, quasi.u_delta - problem.y_true),
            )
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - started)


def test_criterion_1_variational_value_bound(matrix_runs):
    worst = -np.inf
    for (name, delta), run in matrix_runs.runs.items():
        bound = (2.0 + run.phi_y) * delta + 1e-9
        worst = max(worst, run.var.F_value - bound)
        assert run.var.F_value <= bound, (name, delta)
        assert run.var_cert["cert_19"] >= 0.0
    ok = worst <= 0.0 and matrix_runs.elapsed < 5.0
    report("criterion 1: F(u_delta) <= (2+phi(y))*delta on the linear gallery",
           ok, f"worst slack {-worst:.3e}, matrix runtime {matrix_runs.elapsed:.2f}s")


def test_criterion_2_variational_stabilizer_bound(matrix_runs):
    worst = -np.inf
    for (name, delta), run in matrix_runs.runs.items():
        bound = 2.0 + run.phi_y + 1e-9
        worst = max(worst, run.var.phi_u - bound)
        assert run.var.phi_u <= bound, (name, delta)
        assert run.var_cert["cert_110"] >= 0.0
    report("criterion 2: phi(u_delta) <= 2+phi(y) on the linear gallery",
           worst <= 0.0, f"worst slack {-worst:.3e}")


def test_criterion_3_infimum_estimate_bound(matrix_runs):
    worst = -np.inf
    for (name, delta), run in matrix_runs.runs.items():
        bound = (1.0 + run.phi_y) * delta + 1e-9
        worst = max(worst, run.var.F_value - bound)
        assert run.var.F_value <= bound, (name, delta)
        assert run.var_cert["cert_18"] >= 0.0
    report("criterion 3: infimum estimate <= (1+phi(y))*delta",
           worst <= 0.0, f"worst slack {-worst:.3e}")


def test_criterion_4_quasisolution_discrepancy_bounds(matrix_runs):
    for (name, delta), run in matrix_runs.runs.items():
        assert run.quasi.residual_noisy <= 2.0 * delta + 1e-9, (name, delta)
        assert run.quasi_residual_exact <= 3.0 * delta + 1e-9, (name, delta)
        assert min(run.quasi_cert.values()) >= 0.0
    report("criterion 4: residuals within 2*delta (noisy) and 3*delta (exact)",
           True)


def test_criterion_5_empirical_convergence(matrix_runs):
    lines = []
    for name in MATRIX:
        for method, attr in (("variational", "var_error"), ("quasi", "quasi_error")):
            coarse = getattr(matrix_runs.runs[(name, DELTAS[0])], attr)
            fine = getattr(matrix_runs.runs[(name, DELTAS[-1])], attr)
            threshold = ERROR_THRESHOLDS[(name, method)]
            assert fine < coarse, (name, method)
            assert fine <= threshold, (name, method, fine, threshold)
            lines.append(f"{name}/{method}: {coarse:.2e} -> {fine:.2e}"
                         f" (<= {threshold:.1e})")
    report("criterion 5: error decreases with the noise level and meets the "
           "pinned thresholds", True, "; ".join(lines))


def _oracle_box(problem):
    lower = tuple(problem.y_true - 2.0)
    upper = tuple(problem.y_true + 2.0)
    return SearchBox(lower, upper, 201)


def test_criterion_6_variational_oracle_equivalence():
    started = time.perf_counter()
    stab = Stabilizer()
    problem = build_problem("diag-unbounded", 3)
    box = _oracle_box(problem)
    worst = 0.0
    for j, delta in enumerate((1e-1, 1e-2)):
        f_delta = inject_noise(problem.grid, problem.f_exact, delta, SEED + j)
        res = minimize_variational(problem.op, f_delta, delta, stab)
        objective = f_objective_batch(problem, stab, f_delta, delta)
        point, _ = brute_force_minimize(objective, box)
        _, oracle_value = refine_coordinatewise(objective, point, box.cell)
        worst = max(worst, abs(res.F_value - oracle_value))
        assert abs(res.F_value - oracle_value) <= 1e-6, delta
    elapsed = time.perf_counter() - started
    report("criterion 6: path search matches exhaustive minimization of F",
           elapsed < 10.0, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_quasisolution_oracle_equivalence():
    started = time.perf_counter()
    stab = Stabilizer()
    problem = build_problem("diag-unbounded", 3)
    K = Compactum(stab, RHO_FACTOR * phi_value(stab, problem.grid, problem.y_true))
    box = _oracle_box(problem)
    worst = 0.0
    for j, delta in enumerate((1e-1, 1e-2)):
        f_delta = inject_noise(problem.grid, problem.f_exact, delta, SEED + j)
        res = minimize_on_compactum(problem.op, f_delta, K)
        objective = constrained_residual_batch(problem, K, f_delta)
        point, _ = brute_force_minimize(objective, box)
        _, oracle_value = refine_coordinatewise(objective, point, box.cell)
        worst = max(worst, abs(res.residual_noisy - oracle_value))
        assert abs(res.residual_noisy - oracle_value) <= 1e-6, delta
    elapsed = time.perf_counter() - started
    report("criterion 7: compactum solver matches the feasible-grid minimum",
           elapsed < 10.0, f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_structural_invariants():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(987))
    stab = Stabilizer()
    problems = [build_problem(name, 32) for name in MATRIX]

    # adjoint consistency in the weighted inner product
    for _ in range(100):
        problem = problems[rng.integers(len(problems))]
        g = problem.grid
        u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)
        lhs = inner_product(g, apply(problem.op, u), v)
        rhs = u @ weighted_transpose(problem.op, v)
        assert abs(lhs - rhs) <= 1e-10 * l2_norm(g, apply(problem.op, u)) * l2_norm(g, v)

    # residual grows and the stabilizer shrinks along the regularization path
    lams = np.logspace(-12, 12, 25)
    for trial in range(100):
        problem = problems[trial % len(problems)]
        delta = 10.0 ** rng.uniform(-4, -1)
        f_delta = inject_noise(problem.grid, problem.f_exact, delta,
                               int(rng.integers(1 << 30)))
        path = TikhonovPath(problem.op, stab)
        prev_r, prev_p = -np.inf, np.inf
        for lam in lams:
            u = lam_point(path, f_delta, lam)
            r = l2_norm(problem.grid, apply(problem.op, u) - f_delta)
            p = phi_value(stab, problem.grid, u)
            assert r >= prev_r * (1 - 1e-9)
            assert p <= prev_p * (1 + 1e-9) + 1e-300
            prev_r, prev_p = r, p

    # projection onto the constraint set is idempotent and lands on the shell
    g = problems[0].grid
    K = Compactum(stab, 1.0)
    for _ in range(100):
        u = rng.standard_normal(g.n) * rng.uniform(0.05, 10.0)
        once = project_onto(K, g, u)
        assert np.array_equal(once, project_onto(K, g, once))
        assert contains(K, g, once)

    # the stabilizer is exactly quadratic under scaling
    for _ in range(100):
        u = rng.standard_normal(g.n)
        t = rng.uniform(-100.0, 100.0)
        assert phi_value(stab, g, t * u) == pytest.approx(
            t * t * phi_value(stab, g, u), rel=1e-12, abs=1e-280)

    # injected noise hits the requested level exactly
    f = problems[0].f_exact
    for trial in range(100):
        delta = DELTAS[trial % 4]
        f_delta = inject_noise(g, f, delta, trial)
        assert l2_norm(g, f_delta - f) == pytest.approx(delta, rel=1e-12)

    # nonlinear residual derivative against central finite differences
    autoconv = build_problem("autoconv", 48)
    ga = autoconv.grid
    f_delta = inject_noise(ga, autoconv.f_exact, 1e-2, 5)

    def half_residual_sq(u):
        r = apply(autoconv.op, u) - f_delta
        return 0.5 * float(np.sum(ga.gram_diagonal * r * r))

    for _ in range(100):
        u = np.abs(1.0 + 0.3 * rng.standard_normal(ga.n))
        v = rng.standard_normal(ga.n)
        r = apply(autoconv.op, u) - f_delta
        analytic = float(np.sum(ga.gram_diagonal * r * (jacobian(autoconv.op, u) @ v)))
        eps = 1e-5
        numeric = (half_residual_sq(u + eps * v)
                   - half_residual_sq(u - eps * v)) / (2 * eps)
        assert numeric == pytest.approx(analytic, rel=1e-6)

    elapsed = time.perf_counter() - started
    report("criterion 8: structural invariant suite, 100 seeded trials each",
           elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_9_negative_control(tmp_path):
    # rho = 0.5 * phi(y): the truth lies outside the constraint set
    out = tmp_path / "control.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "illposed", "sweep",
         "--problem", "diag-unbounded", "--n", str(N), "--method", "quasi",
         "--deltas", "1e-1,1e-2,1e-3,1e-4", "--seed", str(SEED),
         "--rho-factor", "0.5", "--out", str(out)],
        capture_output=True, text=True)
    header, *rows = out.read_text().splitlines()
    cert_24_column = header.split(",").index("cert_24")
    verdicts = [line.split(",")[cert_24_column] for line in rows]
    ok = proc.returncode == 2 and "false" in verdicts
    report("criterion 9: a constraint set that excludes the truth is flagged, "
           "exit code 2", ok, f"exit={proc.returncode}, verdicts={verdicts}")


def test_criterion_10_bit_identical_sweeps(tmp_path):
    settings = dict(problem="diag-unbounded", n=N, method="both",
                    deltas=DELTAS, seed=SEED)
    run_sweep(SweepConfig(**settings, out=str(tmp_path / "a.csv")))
    run_sweep(SweepConfig(**settings, out=str(tmp_path / "b.csv")))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    report("criterion 10: identical configurations give byte-identical CSVs",
           a == b, f"{len(a)} bytes")
