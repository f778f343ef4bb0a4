"""The pencil decomposition of tikhonov.TikhonovPath, checked by its contract,
and the root find on its path."""

import math

import numpy as np
import pytest

from illposed import (Compactum, Grid, SingularSystemError, SolverFailureError,
                      Stabilizer, apply, build_problem, dense_operator,
                      diagonal_operator, inject_noise, jacobian, l2_norm,
                      minimize_on_compactum, minimize_variational, normal_matrix,
                      penalty_matrix, phi_value, tikhonov)
from illposed.tikhonov import EPS, ROOT_TOL, T_CEIL, TikhonovPath, lower_inverse, path_root

LINEAR = ("diag-unbounded", "volterra-int", "fredholm-gauss")


def check_lower_inverse(low):
    inv = lower_inverse(low)
    n = low.shape[0]
    assert not np.triu(inv, 1).any()
    assert np.abs(low @ inv - np.eye(n)).max() <= 1e-10
    reference = np.linalg.inv(low)
    assert np.abs(inv - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 300])
def test_lower_inverse_matches_general_inverse(n, rng):
    a = rng.standard_normal((n, n))
    check_lower_inverse(np.linalg.cholesky(a @ a.T + n * np.eye(n)))


def test_lower_inverse_of_a_pencil_factor():
    p = build_problem("fredholm-gauss", 300)
    pencil = penalty_matrix(Stabilizer(), p.grid) + normal_matrix(p.op)
    check_lower_inverse(np.linalg.cholesky(pencil))


@pytest.mark.parametrize("weights",
                         [(1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (1e-300, 1e300)])
@pytest.mark.parametrize("n", [4, 5, 16, 64, 513])
def test_pencil_is_assembled_from_the_penalty_bands(n, weights, rng, monkeypatch):
    # the B that the decomposition factors is N with P's three bands added in
    # place: IEEE addition commutes, so it is P + N bitwise, up to signs of zeros
    grid, stab = Grid(n, -1.0, 3.0), Stabilizer(*weights)
    factored = []

    def recorded(matrix):
        factored.append(matrix.copy())
        raise np.linalg.LinAlgError("stop after the assembly")

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    for op in (diagonal_operator(grid, rng.standard_normal(n)),
               dense_operator(grid, rng.standard_normal((n, n)))):
        with pytest.raises(SingularSystemError):
            TikhonovPath(op, stab).spectrum
        expected = penalty_matrix(stab, grid) + normal_matrix(op)
        assert np.array_equal(factored.pop(), expected)


def check_pencil_contract(op, stab):
    """V^T B V = I_k and V^T N V = diag(theta), B = N + P, for the k kept theta
    in (cut, 1], cut = n eps max(theta); what is dropped carries N-energy of
    at most cut per unit of B-energy.  Returns k."""
    theta, vectors = TikhonovPath(op, stab).spectrum
    normal = normal_matrix(op)
    pencil = normal + penalty_matrix(stab, op.grid)
    n, k = vectors.shape
    cut = n * EPS * theta.max(initial=0.0)
    assert theta.shape == (k,)
    assert np.all((theta > cut) & (theta <= 1.0))
    assert np.abs(vectors.T @ pencil @ vectors - np.eye(k)).max() <= 1e-9
    assert np.abs(vectors.T @ normal @ vectors - np.diag(theta)).max() <= 1e-9
    # an independent full reduction L^-1 N L^-T of the pencil, B = L L^T
    low = np.linalg.cholesky(pencil)
    reduced = np.linalg.solve(low, np.linalg.solve(low, normal).T)
    full = np.linalg.eigvalsh(reduced)
    assert np.abs(full[n - k:] - theta).max(initial=0.0) <= 1e-9
    assert full[:n - k].max(initial=0.0) <= cut + 1e-9
    # the N-energy left outside span(V): the reduced pencil minus its kept part
    kept = low.T @ vectors
    assert np.linalg.eigvalsh(reduced - (kept * theta) @ kept.T).max() <= cut + 1e-9
    return k


@pytest.mark.parametrize("alpha0", [0.0, 1.0])
@pytest.mark.parametrize("n", [16, 65, 200])
@pytest.mark.parametrize("name", LINEAR)
def test_pencil_contract_linear(name, n, alpha0):
    p = build_problem(name, n)
    k = check_pencil_contract(p.op, Stabilizer(alpha0, 1.0))
    if name == "diag-unbounded" or (name, n) == ("volterra-int", 65):
        assert k == n   # every direction is resolved
    if name == "fredholm-gauss" and n > 16:
        assert k < 20   # the Gaussian kernel resolves about 17 directions


def test_pencil_contract_autoconv_jacobian():
    # the Jacobian's first row is zero, so N has one exact null direction,
    # which is dropped
    p = build_problem("autoconv", 64)
    lin = dense_operator(p.grid, jacobian(p.op, p.y_true))
    assert check_pencil_contract(lin, Stabilizer()) == 63


def counted(fn, slope=lambda t: None):
    """``fn`` with ``slope`` as path_root takes it, recording the points at
    which it is evaluated."""
    points = []

    def value(t):
        points.append(t)
        return fn(t), slope(t)

    return value, points


def cubic(t):
    """A nondecreasing fn of t, flat near its root 5.3, off the bracket's lattice."""
    return (t - 5.3) ** 3 + 0.1 * (t - 5.3)


def cubic_slope(t):
    return 3.0 * (t - 5.3) ** 2 + 0.1


def softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def gap_like(t):
    """A nondecreasing fn of t whose slope falls from 1 to 0.1 around t = 2, as
    the variational gap's does where the residual starts to grow."""
    return t - 0.9 * softplus(t - 2.0) - 1.7


def gap_like_slope(t):
    return 1.0 - 0.9 / (1.0 + math.exp(-(t - 2.0)))


@pytest.mark.parametrize("start", [-100.0, -50.0, 0.0, 5.2, 300.0, T_CEIL, 1e4])
@pytest.mark.parametrize("tol", [ROOT_TOL, 1e-3])
def test_path_root_from_any_start_to_its_tolerance(start, tol):
    fn, points = counted(cubic)
    t = path_root(fn, -50.0, tol=tol, start=start)
    assert 0.0 <= cubic(t) <= tol
    assert points[0] == min(max(start, -50.0), T_CEIL)


@pytest.mark.parametrize("start", [-100.0, 0.0, 5.2, 20.0, 1e4])
def test_path_root_loose_tolerance_takes_fewer_evaluations(start):
    tight, tight_points = counted(cubic)
    loose, loose_points = counted(cubic)
    path_root(tight, -50.0, start=start)
    path_root(loose, -50.0, tol=1e-3, start=start)
    assert len(loose_points) < len(tight_points)


def test_path_root_defaults_start_at_lam_one_to_root_tol():
    fn, points = counted(cubic)
    t = path_root(fn, -50.0)
    assert points[0] == 0.0
    assert 0.0 <= cubic(t) <= ROOT_TOL


@pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-3, "start": -80.0},
                                    {"tol": 1e-3, "start": 2.0},
                                    {"tol": 1e-3, "start": 1e4}])
def test_path_root_ends_of_the_path(kwargs):
    # each end is evaluated once, so a start clamped to it is the only evaluation
    # nonnegative down to the floor: no root, the path's end lam = 0 is the answer
    fn, points = counted(lambda t: 1.0)
    assert path_root(fn, -50.0, **kwargs) == -math.inf
    assert points[-1] == -50.0 and points.count(-50.0) == 1
    # negative up to the largest float lambda: a named failure
    fn, points = counted(lambda t: -1.0)
    with pytest.raises(SolverFailureError, match="beyond the largest float"):
        path_root(fn, -50.0, **kwargs)
    assert points[-1] == T_CEIL and points.count(T_CEIL) == 1


STARTS = [-math.inf, -100.0, -50.0, 0.0, 5.2, 5.4, 20.0, 300.0, T_CEIL, 1e4]


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("tol", [ROOT_TOL, 1e-3])
@pytest.mark.parametrize("fn, slope", [(cubic, cubic_slope), (gap_like, gap_like_slope)])
def test_path_root_newton_from_either_side(fn, slope, tol, start):
    # starts below the root (to -inf, clamped to the floor) and above it
    newton, points = counted(fn, slope)
    t = path_root(newton, -50.0, tol=tol, start=start)
    assert 0.0 <= fn(t) <= tol
    assert points[0] == min(max(start, -50.0), T_CEIL)
    if fn is gap_like:   # Newton near the cubic's flat root is only linear
        bisection, bisection_points = counted(fn)   # no slope: the search bisects
        path_root(bisection, -50.0, tol=tol, start=start)
        assert len(points) <= min(len(bisection_points), 10)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("tol", [ROOT_TOL, 1e-3])
@pytest.mark.parametrize("lie", [0.0, -1.0, 1e-300, math.nan, math.inf, -math.inf])
def test_path_root_lying_slope_ends_at_the_root(lie, tol, start):
    # a zero, negative or tiny slope puts every Newton point outside the bracket,
    # so the search doubles its steps and then bisects; an infinite one does not move
    fn, points = counted(gap_like, lambda t: lie)
    t = path_root(fn, -50.0, tol=tol, start=start)
    assert 0.0 <= gap_like(t) <= tol
    assert len(points) <= 60


@pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-3, "start": -80.0},
                                    {"tol": 1e-3, "start": 2.0},
                                    {"tol": 1e-3, "start": 1e4}])
@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_path_root_ends_of_the_path_with_a_slope(slope, kwargs):
    # as without a slope.  On these flat fn a slope of 1 overstates every change:
    # Newton steps of one unit would take 700 evaluations to T_CEIL, so the
    # step-length safeguard hands over to the doubling search
    fn, points = counted(lambda t: 1.0, lambda t: slope)
    assert path_root(fn, -50.0, **kwargs) == -math.inf
    assert points[-1] == -50.0 and points.count(-50.0) == 1
    fn, points = counted(lambda t: -1.0, lambda t: slope)
    with pytest.raises(SolverFailureError, match="beyond the largest float"):
        path_root(fn, -50.0, **kwargs)
    assert points[-1] == T_CEIL and points.count(T_CEIL) == 1


@pytest.mark.parametrize("start", [-80.0, -50.0, 2.0, 1e4])
def test_path_root_accepts_a_point_with_a_slope_in_the_band(start):
    # such a point is the root, except at the floor, where the path ends at lam = 0
    fn, points = counted(lambda t: 0.5 * ROOT_TOL, lambda t: 1.0)
    expected = -math.inf if start <= -50.0 else min(start, T_CEIL)
    assert path_root(fn, -50.0, start=start) == expected
    assert len(points) == 1


def jump(t):
    """A nondecreasing fn that steps across the band [0, ROOT_TOL] at t = 2."""
    return 1e-3 if t >= 2.0 else -1e-3


@pytest.mark.parametrize("slope", [lambda t: None, lambda t: 1.0])
def test_path_root_closing_at_float_resolution_ends_at_its_fallback(slope):
    # no point meets the band, so the bracket closes at float resolution: at
    # its nonnegative end by default, at the fallback when one is given
    fn, points = counted(jump, slope)
    t = path_root(fn, -50.0)
    assert jump(t) > ROOT_TOL and 0.0 <= t - 2.0 <= 8.0 * EPS * 2.0
    assert len(points) < 100
    fn, points = counted(jump, slope)
    assert path_root(fn, -50.0, fallback=-7.0) == -7.0
    # a find that meets the band ignores the fallback
    t = path_root(counted(gap_like, gap_like_slope)[0], -50.0, fallback=-7.0)
    assert 0.0 <= gap_like(t) <= ROOT_TOL


def test_path_root_counts_every_newton_evaluation(monkeypatch):
    fn, points = counted(gap_like, gap_like_slope)
    path_root(fn, -50.0, start=300.0)
    assert len(points) > 3
    monkeypatch.setattr(tikhonov, "ROOT_MAX_ITER", 3)
    fn, points = counted(gap_like, gap_like_slope)
    with pytest.raises(SolverFailureError, match="did not converge in 3"):
        path_root(fn, -50.0, start=300.0)
    assert len(points) == 3


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("name", [*LINEAR, "autoconv"])
def test_solution_image_is_the_product_its_residual_measured(name, shared):
    # a shared path serves the quasi solve the variational solve's data
    problem = build_problem(name, 32)
    stab = Stabilizer()
    K = Compactum(stab, 1.5 * phi_value(stab, problem.grid, problem.y_true))
    f_delta = inject_noise(problem.grid, problem.f_exact, 1e-2, 5)
    path = TikhonovPath(problem.op, stab) if shared else None
    for sol in (minimize_variational(problem.op, f_delta, 1e-2, stab, path),
                minimize_on_compactum(problem.op, f_delta, K, path)):
        assert sol.image.tobytes() == apply(problem.op, sol.u_delta).tobytes()
        assert sol.residual_noisy == l2_norm(problem.grid, sol.image - f_delta)


def test_path_keeps_the_last_data_by_its_bytes():
    problem = build_problem("volterra-int", 16)
    path = TikhonovPath(problem.op, Stabilizer())
    f_delta = problem.f_exact.copy()
    data = path.data(f_delta)
    assert path.data(f_delta.copy()) is data
    f_delta[0] += 1.0   # the kept data is a copy the caller cannot change
    assert path.data(f_delta) is not data and path.last is not data
    assert data.data.tobytes() != f_delta.tobytes()
    zero = np.zeros(16)
    assert path.data(-zero) is not path.data(zero)   # -0.0 == 0.0, but not bitwise
