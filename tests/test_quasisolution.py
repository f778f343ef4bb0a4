import copy
import dataclasses

import numpy as np
import pytest

from illposed import (Compactum, Grid, Solution, SolverFailureError,
                      Stabilizer, SweepConfig, apply, build_problem, dense_operator,
                      inject_noise, l2_norm, minimize_on_compactum, phi_value,
                      quasi_certificate, run_sweep)
from illposed import tikhonov
from illposed.tikhonov import EPS

from helpers import (calls, check_slope, identity_operator, penalty_matrix,
                     recorded_root_finds)

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


def default_compactum(problem, stab, factor=1.5):
    return Compactum(stab, factor * phi_value(stab, problem.grid, problem.y_true))


def exact_residual(problem, res):
    return l2_norm(problem.grid, apply(problem.op, res.u_delta) - problem.f_exact)


def test_feasible_data_is_returned_unchanged(default_stab, rng):
    g = Grid(12)
    f_delta = 0.05 * rng.standard_normal(12)
    K = Compactum(default_stab, 10.0)
    res = minimize_on_compactum(identity_operator(g), f_delta, K)
    assert np.allclose(res.u_delta, f_delta, rtol=1e-10, atol=1e-15)
    assert res.residual_noisy <= 1e-12
    assert res.lambda_star == 0.0
    assert abs(res.phi_u - K.rho) > 1e-8 * K.rho  # off the boundary


def test_spherical_case_matches_radial_projection(rng):
    # A = identity and a plain-norm ball: the answer is the scaled data point
    g = Grid(10)
    stab = Stabilizer(1.0, 0.0)
    f_delta = rng.standard_normal(10) * 3.0
    rho = 0.25 * phi_value(stab, g, f_delta)
    K = Compactum(stab, rho)
    res = minimize_on_compactum(identity_operator(g), f_delta, K)
    expected = f_delta * np.sqrt(rho) / l2_norm(g, f_delta)
    assert np.allclose(res.u_delta, expected, rtol=1e-8)
    assert phi_value(stab, g, res.u_delta) == pytest.approx(rho, rel=1e-10)
    assert abs(res.phi_u - rho) <= 1e-8 * rho and res.lambda_star > 0.0  # on it


def test_discrepancy_bound_on_volterra(default_stab):
    p = build_problem("volterra-int", 64)
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 42)
    res = minimize_on_compactum(p.op, f_delta, default_compactum(p, default_stab))
    assert res.residual_noisy <= 2.0 * delta + 1e-9


@pytest.mark.parametrize("name", ["diag-unbounded", "volterra-int", "fredholm-gauss"])
def test_linear_solver_invariants(default_stab, name):
    p = build_problem(name, 64)
    K = default_compactum(p, default_stab)
    for j, delta in enumerate(DELTAS):
        f_delta = inject_noise(p.grid, p.f_exact, delta, 42 + j)
        res = minimize_on_compactum(p.op, f_delta, K)
        phi_u = phi_value(default_stab, p.grid, res.u_delta)
        assert phi_u <= K.rho * (1 + 1e-12)                      # feasibility
        assert res.phi_u == phi_u
        assert res.residual_noisy <= delta + 1e-9                # truth is feasible
        if res.lambda_star == 0.0:
            assert phi_u < K.rho
        else:
            assert abs(phi_u - K.rho) <= 1e-10 * K.rho           # complementarity


def test_certificate_arithmetic():
    delta = 1e-2
    res = Solution(u_delta=np.zeros(4), residual_noisy=1.9 * delta,
                   phi_u=1.0, lambda_star=1.0)
    cert = quasi_certificate(res, 2.8 * delta, delta)
    tol = 1e-9
    assert cert == pytest.approx({"cert_24": 0.1 * delta + tol,
                                  "cert_26": 0.2 * delta + tol})
    assert min(cert.values()) >= 0.0


def test_certificate_leaves_result_unchanged(default_stab):
    p = build_problem("diag-unbounded", 32)
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 5)
    res = minimize_on_compactum(p.op, f_delta, default_compactum(p, default_stab))
    before = copy.deepcopy(res)
    residual_exact = exact_residual(p, res)
    cert = quasi_certificate(res, residual_exact, delta)
    for field in dataclasses.fields(res):
        assert np.array_equal(getattr(res, field.name), getattr(before, field.name)), field
    assert cert["cert_26"] == 3.0 * delta + 1e-9 - residual_exact


def test_interpolating_solution_passes_both_bounds(default_stab, rng):
    # residual zero at the noisy data: the exact-data bound follows from the
    # triangle inequality
    g = Grid(16)
    f = rng.standard_normal(16) * 0.1
    delta = 5e-2
    f_delta = inject_noise(g, f, delta, 3)
    K = Compactum(default_stab, 1e6)
    res = minimize_on_compactum(identity_operator(g), f_delta, K)
    cert = quasi_certificate(res, l2_norm(g, res.u_delta - f), delta)
    assert res.residual_noisy <= 1e-10
    assert min(cert.values()) >= 0.0
    assert l2_norm(g, res.u_delta - f) <= delta * (1 + 1e-10)


def test_too_small_compactum_fails_certificate(default_stab):
    p = build_problem("diag-unbounded", 64)
    K = default_compactum(p, default_stab, factor=0.5)  # excludes the truth
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 42)
    res = minimize_on_compactum(p.op, f_delta, K)
    cert = quasi_certificate(res, exact_residual(p, res), delta)
    assert cert["cert_24"] < 0.0  # reported, not hidden


# --- the slope of the slack --------------------------------------------------

def slack_allowance(find, data, direct):
    """The O(k) phi takes the decomposition's error E = V^T P V - (I -
    diag(theta)) as 0, so the direct phi differs from it by y'E y, at most
    ||E|| |y|^2, which is counted twice, as E measured in floats carries a
    round-off of its own size; plus the direct phi's round-off, n^2 eps
    relative, as its difference quotients cancel."""
    theta, vectors = find.path.spectrum
    error = np.linalg.norm(vectors.T @ penalty_matrix(find.path.stab, find.path.op.grid)
                           @ vectors - np.diag(1.0 - theta), 2)
    y = data.coef / direct.values
    n = vectors.shape[0]
    return 2.0 * error * (y @ y) / direct.phi + n * n * EPS


@pytest.mark.parametrize("alpha0", [0.01, 1.0])
@pytest.mark.parametrize("name", ["diag-unbounded", "volterra-int", "fredholm-gauss"])
def test_slack_slope_matches_central_difference(name, alpha0, monkeypatch):
    found = recorded_root_finds(monkeypatch)
    p = build_problem(name, 64)
    stab = Stabilizer(alpha0, 1.0)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 7)
    minimize_on_compactum(p.op, f_delta, default_compactum(p, stab))
    assert len(found) == 1
    check_slope(found[0], slack_allowance)


def test_slack_slope_on_a_jacobian_path(default_stab, monkeypatch):
    found = recorded_root_finds(monkeypatch)
    p = build_problem("autoconv", 64)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 7)
    minimize_on_compactum(p.op, f_delta, default_compactum(p, default_stab))
    assert len(found) > 1   # one per Gauss-Newton step
    check_slope(found[0], slack_allowance)


def test_root_find_iteration_cap_reported(default_stab, monkeypatch):
    p = build_problem("volterra-int", 32)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 1)
    monkeypatch.setattr(tikhonov, "ROOT_MAX_ITER", 1)
    with pytest.raises(SolverFailureError) as err:
        minimize_on_compactum(p.op, f_delta,
                              default_compactum(p, default_stab))
    assert "1 iterations" in str(err.value)


def test_deterministic_given_inputs(default_stab):
    p = build_problem("fredholm-gauss", 48)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-3, 8)
    K = default_compactum(p, default_stab)
    a = minimize_on_compactum(p.op, f_delta, K)
    b = minimize_on_compactum(p.op, f_delta, K)
    assert np.array_equal(a.u_delta, b.u_delta)


def test_nonlinear_solver_feasible_and_within_bound(default_stab):
    p = build_problem("autoconv", 64)
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 43)
    K = default_compactum(p, default_stab)
    res = minimize_on_compactum(p.op, f_delta, K)
    assert phi_value(default_stab, p.grid, res.u_delta) <= K.rho * (1 + 1e-12)
    assert np.all(res.u_delta >= 0.0)
    cert = quasi_certificate(res, exact_residual(p, res), delta)
    assert min(cert.values()) >= 0.0
    again = minimize_on_compactum(p.op, f_delta, K)
    assert np.array_equal(res.u_delta, again.u_delta)


def test_nonlinear_singular_linearized_step_keeps_certificates():
    # the autoconvolution Jacobian has a zero first row, so every linearized
    # pencil has a null direction; the path keeps only the resolved ones
    report = run_sweep(SweepConfig(problem="autoconv", n=16, method="quasi",
                                   deltas=(1e-1, 1e-2, 1e-3, 1e-4), seed=368489497))
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.certificates_ok, row


def test_inactive_constraint_with_singular_pencil():
    # A has a zero row, so N is singular: the path drops that unresolved
    # direction and ends at lam = 0, the least-squares point of the rest
    g = Grid(8)
    matrix = np.diag([0.0] + [1.0] * 7)
    f = matrix @ np.linspace(1.0, 2.0, 8)
    K = Compactum(Stabilizer(), 100.0)
    res = minimize_on_compactum(dense_operator(g, matrix), f, K)
    assert res.residual_noisy <= 1e-12
    assert phi_value(K.stab, g, res.u_delta) <= K.rho
    assert res.lambda_star == 0.0


def test_small_noise_autoconv_quasi_does_not_move_with_round_off(default_stab,
                                                                  monkeypatch):
    # data scaled by 1 + 2**-52 differ from the data in round-off only; the
    # quasi point must not move with it, nor Gauss-Newton creep along the
    # null direction of the Jacobian's zero first row
    steps = calls(monkeypatch, tikhonov, "jacobian")
    p = build_problem("autoconv", 16)
    K = default_compactum(p, default_stab)
    for seed in (1, 2, 3):
        for delta in (1e-3, 1e-4):
            f_delta = inject_noise(p.grid, p.f_exact, delta, seed)
            errors = []
            for data in (f_delta, f_delta * (1.0 + 2.0 ** -52)):
                steps.clear()
                res = minimize_on_compactum(p.op, data, K)
                assert len(steps) <= 30, (seed, delta, len(steps))
                errors.append(l2_norm(p.grid, res.u_delta - p.y_true))
            assert errors[1] == pytest.approx(errors[0], rel=1e-6), (seed, delta)
