import math

import numpy as np
import pytest

from illposed import (Grid, GridMismatchError,
                      InvalidParameterError, ProblemInstance,
                      SolverFailureError, Stabilizer,
                      SweepConfig, VariationalResult, apply, build_problem,
                      diagonal_operator, f_functional,
                      inject_noise, jacobian,
                      l2_norm, minimize_variational, normal_matrix, phi_value, run_sweep,
                      tikhonov, variational_certificate)
from illposed.tikhonov import EPS, PathData, TikhonovPath

from helpers import check_slope, identity_operator, lam_point, recorded_root_finds

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


def path_point(op, stab, f_delta, lam):
    """The minimizer of ||A u - f_delta||^2 + lam * phi(u) on a fresh path."""
    return lam_point(TikhonovPath(op, stab), f_delta, lam)


# --- the functional ----------------------------------------------------------

def test_f_at_truth_with_clean_data(default_stab):
    p = build_problem("diag-unbounded", 32)
    delta = 1e-3
    value = f_functional(p.op, p.f_exact, delta, default_stab, p.y_true)
    assert value == pytest.approx(delta * phi_value(default_stab, p.grid, p.y_true),
                                  rel=1e-12)


def test_f_reduces_to_penalty_when_residual_vanishes(default_stab, rng):
    g = Grid(16)
    op = identity_operator(g)
    u = rng.standard_normal(16)
    assert f_functional(op, u, 0.05, default_stab, u) == pytest.approx(
        0.05 * phi_value(default_stab, g, u), rel=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
def test_f_at_truth_bounded_by_worst_case_noise(default_stab, delta):
    # with noise of norm exactly delta, F(y) = delta * (1 + phi(y))
    p = build_problem("volterra-int", 48)
    f_delta = inject_noise(p.grid, p.f_exact, delta, 5)
    c1 = 1.0 + phi_value(default_stab, p.grid, p.y_true)
    value = f_functional(p.op, f_delta, delta, default_stab, p.y_true)
    assert value <= c1 * delta * (1 + 1e-12)
    assert value == pytest.approx(c1 * delta, rel=1e-10)


def test_nonpositive_delta_rejected(default_stab):
    p = build_problem("diag-unbounded", 8)
    with pytest.raises(InvalidParameterError):
        f_functional(p.op, p.f_exact, 0.0, default_stab, p.y_true)
    with pytest.raises(InvalidParameterError):
        minimize_variational(p.op, p.f_exact, -1.0, default_stab)


# --- the inner path solver ---------------------------------------------------

def test_tikhonov_identity_at_zero_returns_data(default_stab, rng):
    g = Grid(10)
    f_delta = rng.standard_normal(10)
    u = path_point(identity_operator(g), default_stab, f_delta, 0.0)
    assert np.allclose(u, f_delta, rtol=1e-10, atol=1e-14)


def test_tikhonov_huge_penalty_crushes_solution(default_stab):
    p = build_problem("diag-unbounded", 16)
    u = path_point(p.op, default_stab, p.f_exact, 1e12)
    assert l2_norm(p.grid, u) <= 1e-6 * l2_norm(p.grid, p.f_exact)


@pytest.mark.parametrize("lam", [0.0, 0.1, 2.0])
def test_tikhonov_matches_diagonal_closed_form(lam, rng):
    # with a diagonal A and the plain-norm stabilizer the weights cancel:
    # u_k = a_k f_k / (a_k^2 + lam)
    g = Grid(4)
    a = np.array([1.0, 2.0, 0.5, 3.0])
    op = diagonal_operator(g, a)
    stab = Stabilizer(1.0, 0.0)
    f_delta = rng.standard_normal(4)
    expected = a * f_delta / (a * a + lam)
    u = path_point(op, stab, f_delta, lam)
    assert np.allclose(u, expected, rtol=1e-12)


def test_point_at_lambda_zero_drops_unresolved_directions(rng):
    # a zero diagonal entry leaves N singular: the lam = 0 point is the
    # least-squares point u_k = f_k / a_k of the other entries, with no
    # component along the zero one
    g = Grid(4)
    a = np.array([1.0, 2.0, 0.0, 3.0])
    f_delta = rng.standard_normal(4)
    path = TikhonovPath(diagonal_operator(g, a), Stabilizer(1.0, 0.0))
    assert path.spectrum[1].shape == (4, 3)
    u = lam_point(path, f_delta, 0.0)
    assert u[2] == 0.0
    kept = a != 0.0
    assert np.allclose(u[kept], f_delta[kept] / a[kept], rtol=1e-12, atol=0.0)


def test_zero_data_give_the_zero_residual_end(default_stab):
    # every path point of f_d = 0 is 0, with r = 0: the gap is +inf all the way
    # down, so the root is lam = 0 and F is 0
    problem = build_problem("volterra-int", 16)
    res = minimize_variational(problem.op, np.zeros(16), 1e-2, default_stab)
    assert res.lambda_star == 0.0 and res.residual_noisy == 0.0 and res.F_value == 0.0
    assert not res.u_delta.any()


def test_path_without_a_resolved_direction_is_zero(default_stab):
    # A = 0 resolves no direction: V is n x 0, and every point, the solution
    # included, is 0
    g = Grid(6)
    op = diagonal_operator(g, np.zeros(6))
    path = TikhonovPath(op, default_stab)
    assert path.spectrum[1].shape == (6, 0)
    assert not lam_point(path, np.ones(6), 0.0).any()
    res = minimize_variational(op, np.ones(6), 1e-2, default_stab)
    assert not res.u_delta.any() and res.phi_u == 0.0


def test_path_monotonicity(default_stab, linear_problems):
    # residual grows and the stabilizer shrinks along the path
    lams = np.logspace(-12, 12, 25)
    for p in linear_problems.values():
        f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 3)
        path = TikhonovPath(p.op, default_stab)
        residuals, phis = [], []
        for lam in lams:
            u = lam_point(path, f_delta, lam)
            residuals.append(l2_norm(p.grid, apply(p.op, u) - f_delta))
            phis.append(phi_value(default_stab, p.grid, u))
        for i in range(len(lams) - 1):
            assert residuals[i + 1] >= residuals[i] * (1 - 1e-9)
            assert phis[i + 1] <= phis[i] * (1 + 1e-9) + 1e-300


# --- the slope of the gap ----------------------------------------------------

def gap_allowance(find, data, direct):
    """The O(k) r^2 takes the decomposition's error E = V^T N V - diag(theta)
    as 0, so the direct r^2 differs from it by y'E y - y_0'E y_0, at most
    ||E|| (|y|^2 + |y_0|^2), plus the direct residual's round-off, n^2 eps;
    that dominates where r^2 nears E's size (r ~ 1e-12 on a path with k = n)."""
    theta, vectors = find.path.spectrum
    error = np.linalg.norm(vectors.T @ normal_matrix(find.path.op) @ vectors
                           - np.diag(theta), 2)
    y, y0 = data.coef / direct.values, data.coef / theta
    n = vectors.shape[0]
    return error * (y @ y + y0 @ y0) / (2.0 * direct.r ** 2) + n * n * EPS


@pytest.mark.parametrize("alpha0", [0.0, 1.0])
@pytest.mark.parametrize("name", ["diag-unbounded", "volterra-int", "fredholm-gauss"])
def test_gap_slope_matches_central_difference(name, alpha0, monkeypatch):
    found = recorded_root_finds(monkeypatch)
    p = build_problem(name, 64)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 7)
    minimize_variational(p.op, f_delta, 1e-2, Stabilizer(alpha0, 1.0))
    assert len(found) == 1
    check_slope(found[0], gap_allowance)


def test_gap_slope_on_a_jacobian_path(default_stab, monkeypatch):
    found = recorded_root_finds(monkeypatch)
    p = build_problem("autoconv", 64)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 7)
    minimize_variational(p.op, f_delta, 1e-2, default_stab)
    assert len(found) > 1   # one per Gauss-Newton step
    check_slope(found[0], gap_allowance)


# --- the outer minimization --------------------------------------------------

def test_consistent_identity_recovers_truth(default_stab):
    g = Grid(32)
    y = np.sin(np.pi * g.nodes)
    res = minimize_variational(identity_operator(g), y, 1e-8, default_stab)
    assert l2_norm(g, res.u_delta - y) <= 1e-6


def test_minimizer_not_clamped_at_small_lambda(default_stab):
    # F keeps decreasing along the path below lambda = 1e-12, so a search
    # confined to lambda >= 1e-12 stops short of the minimizer
    p = build_problem("diag-unbounded", 64)
    delta = 1e-4
    f_delta = inject_noise(p.grid, p.f_exact, delta, 42)
    res = minimize_variational(p.op, f_delta, delta, default_stab)
    at_floor = path_point(p.op, default_stab, f_delta, 1e-12)
    f_floor = f_functional(p.op, f_delta, delta, default_stab, at_floor)
    f_min = f_functional(p.op, f_delta, delta, default_stab, res.u_delta)
    assert f_min < f_floor * (1 - 1e-9)
    assert res.lambda_star < 1e-12


def test_a_root_find_limited_by_resolution_ends_at_its_o_k_root(monkeypatch):
    # at delta = 1e-3 (noise seed 5) the root lies near lam = 3e-17, where the
    # residual is round-off: the direct gap scatters by 5e-5 and more, and its
    # finish closes at float resolution outside ROOT_TOL.  Such a find returns
    # the root of the smooth O(k) gap, never a point that misses silently
    found = recorded_root_finds(monkeypatch)
    report = run_sweep(SweepConfig(problem="diag-unbounded", n=16, seed=3,
                                   method="variational",
                                   deltas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)))
    ends = []
    for find, row in zip(found, report.rows, strict=True):
        assert row.solver_error is None
        t = math.log(row.lambda_star)
        direct = t - math.log(2.0 * row.delta) - math.log(row.residual_noisy)
        coarse = find.gap(PathData(find.path, find.data).coarse(t))[0]
        ends.append("direct" if 0.0 <= direct <= tikhonov.ROOT_TOL
                    else "O(k)" if 0.0 <= coarse <= tikhonov.COARSE_TOL else "miss")
    assert ends == ["direct", "direct", "O(k)", "direct", "direct", "direct"]
    assert found[2].root == found[2].coarse[-1]


def test_result_invariants(default_stab):
    p = build_problem("volterra-int", 32)
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 11)
    res = minimize_variational(p.op, f_delta, delta, default_stab)
    assert res.F_value == pytest.approx(res.residual_noisy + delta * res.phi_u,
                                        rel=1e-10)
    assert res.lambda_star > 0.0


@pytest.mark.parametrize("delta", DELTAS)
def test_certificate_chain_diag(default_stab, delta):
    p = build_problem("diag-unbounded", 64)
    f_delta = inject_noise(p.grid, p.f_exact, delta, 42)
    res = minimize_variational(p.op, f_delta, delta, default_stab)
    phi_y = phi_value(default_stab, p.grid, p.y_true)
    assert res.F_value <= (2.0 + phi_y) * delta + 1e-9
    assert res.phi_u <= 2.0 + phi_y + 1e-9
    # the infimum estimate sits below the value at the truth
    f_at_truth = f_functional(p.op, f_delta, delta, default_stab, p.y_true)
    assert res.F_value <= f_at_truth + 1e-9
    assert f_at_truth <= (1.0 + phi_y) * delta + 1e-9


def test_certificate_thresholds_forced_by_arithmetic(default_stab):
    # phi(y) = 4 makes the thresholds 5*delta, 6*delta and 6
    g = Grid(9)
    y = np.full(9, 2.0)
    stab = Stabilizer(1.0, 0.0)
    op = identity_operator(g)
    problem = ProblemInstance(name="const", grid=g, op=op, y_true=y,
                              f_exact=apply(op, y), notes="")
    assert phi_value(stab, g, y) == pytest.approx(4.0, rel=1e-14)
    delta = 0.01

    def cert_for(F_value, phi_u):
        res = VariationalResult(u_delta=y, F_value=F_value, residual_noisy=0.0,
                                phi_u=phi_u, lambda_star=1.0)
        return variational_certificate(res, problem, delta, stab)

    tol = 1e-9  # max(1, c*delta) is 1 here
    assert cert_for(F_value=0.0, phi_u=0.0) == pytest.approx(
        {"cert_18": 5.0 * delta + tol, "cert_19": 6.0 * delta + tol,
         "cert_110": 6.0 + tol})
    passing = cert_for(F_value=0.05, phi_u=6.0)
    assert min(passing.values()) >= 0.0
    # each bound flips on its own input: F over 5*delta fails (1.8) only,
    # F over 6*delta fails (1.9) as well, phi over 6 fails (1.10) only
    only_18 = cert_for(F_value=0.0500001, phi_u=6.0)
    assert [column for column, slack in only_18.items() if slack < 0.0] == ["cert_18"]
    assert cert_for(F_value=0.0600001, phi_u=6.0)["cert_19"] < 0.0
    only_110 = cert_for(F_value=0.05, phi_u=6.0001)
    assert [column for column, slack in only_110.items() if slack < 0.0] == ["cert_110"]


def test_corrupted_solution_fails_certificates(default_stab):
    p = build_problem("diag-unbounded", 32)
    delta = 1e-2
    f_delta = inject_noise(p.grid, p.f_exact, delta, 21)
    res = minimize_variational(p.op, f_delta, delta, default_stab)
    bad = 10.0 * res.u_delta
    bad_F = f_functional(p.op, f_delta, delta, default_stab, bad)
    corrupted = VariationalResult(
        u_delta=bad, F_value=bad_F,
        residual_noisy=l2_norm(p.grid, apply(p.op, bad) - f_delta),
        phi_u=phi_value(default_stab, p.grid, bad),
        lambda_star=res.lambda_star)
    cert = variational_certificate(corrupted, p, delta, default_stab)
    assert min(cert.values()) < 0.0


def test_certificate_requires_truth():
    p = build_problem("diag-unbounded", 16)
    with pytest.raises(GridMismatchError):
        ProblemInstance(name=p.name, grid=p.grid, op=p.op, y_true=None,
                        f_exact=p.f_exact, notes="")


def test_deterministic_given_inputs(default_stab):
    p = build_problem("fredholm-gauss", 48)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-3, 9)
    a = minimize_variational(p.op, f_delta, 1e-3, default_stab)
    b = minimize_variational(p.op, f_delta, 1e-3, default_stab)
    assert np.array_equal(a.u_delta, b.u_delta)
    assert a.lambda_star == b.lambda_star


# --- nonlinear path ----------------------------------------------------------

def test_gradient_matches_central_differences(default_stab, rng):
    p = build_problem("autoconv", 48)
    gram = p.grid.gram_diagonal
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 17)

    def half_residual_sq(u):
        r = apply(p.op, u) - f_delta
        return 0.5 * float(np.sum(gram * r * r))

    for _ in range(20):
        u = np.abs(1.0 + 0.3 * rng.standard_normal(p.grid.n))
        v = rng.standard_normal(p.grid.n)
        r = apply(p.op, u) - f_delta
        analytic = float(np.sum(gram * r * (jacobian(p.op, u) @ v)))
        eps = 1e-5
        numeric = (half_residual_sq(u + eps * v) - half_residual_sq(u - eps * v)) / (2 * eps)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_nonlinear_non_convergence_is_a_named_failure(default_stab, monkeypatch):
    p = build_problem("autoconv", 32)
    f_delta = inject_noise(p.grid, p.f_exact, 1e-2, 2)
    monkeypatch.setattr(tikhonov, "GN_MAX_ITER", 1)
    with pytest.raises(SolverFailureError, match="Gauss-Newton did not converge in 1 steps"):
        minimize_variational(p.op, f_delta, 1e-2, default_stab)


def test_nonlinear_solve_is_deterministic_and_reported_honestly(default_stab):
    p = build_problem("autoconv", 64)
    delta = 1e-1
    f_delta = inject_noise(p.grid, p.f_exact, delta, 42)
    res = minimize_variational(p.op, f_delta, delta, default_stab)
    again = minimize_variational(p.op, f_delta, delta, default_stab)
    assert np.array_equal(res.u_delta, again.u_delta)
    assert np.isnan(res.lambda_star)
    assert res.F_value == pytest.approx(res.residual_noisy + delta * res.phi_u,
                                        rel=1e-10)
    # the verdict must recompute from the stored quantities, pass or fail
    cert = variational_certificate(res, p, delta, default_stab)
    c = 1.0 + phi_value(default_stab, p.grid, p.y_true) + 1.0
    assert cert["cert_19"] == c * delta + 1e-9 * max(1.0, c * delta) - res.F_value
    assert l2_norm(p.grid, res.u_delta - p.y_true) < 0.5


def test_nonlinear_certificates_hold_at_small_noise():
    # (1.8) and (1.9) need F(u_delta) within a few delta of zero at every level
    report = run_sweep(SweepConfig(problem="autoconv", n=64, method="variational",
                                   seed=42))
    rows = {row.delta: row for row in report.rows}
    for delta in (1e-2, 1e-3):
        assert rows[delta].certificates_ok, rows[delta]
