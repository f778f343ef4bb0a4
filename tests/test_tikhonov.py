"""The pencil decomposition of tikhonov.TikhonovPath, checked by its contract,
the factored points of a Gauss-Newton step, and the root find on a path."""

import math

import numpy as np
import pytest

from illposed import (Compactum, Grid, SolverFailureError,
                      Stabilizer, apply, build_problem, dense_operator,
                      diagonal_operator, inject_noise, jacobian, l2_norm,
                      minimize_on_compactum, minimize_variational, normal_matrix,
                      phi_value, tikhonov)
from illposed import operators, variational
from illposed.tikhonov import (EPS, GN_RTOL, ROOT_TOL, T_CEIL, CoarsePoint, DirectPoint,
                               FactoredPath, TikhonovPath, lower_inverse, path_root,
                               path_solve)

from helpers import penalty_matrix

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
        with pytest.raises(SolverFailureError, match="singular at every lambda"):
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


def linearization(n, at):
    """(J's pencil path, the Gauss-Newton data f_d - A(u) + J u) of autoconv at
    n, linearized at the profile 1 or at the true solution."""
    problem = build_problem("autoconv", n)
    u = np.ones(n) if at == "ones" else problem.y_true
    lin = TikhonovPath(problem.op, Stabilizer()).linearized(u)
    f_delta = inject_noise(problem.grid, problem.f_exact, 1e-2, 3)
    return lin, f_delta - apply(problem.op, u) + lin.op.matrix @ u


@pytest.mark.parametrize("at", ["ones", "truth"])
@pytest.mark.parametrize("n", [16, 64])
def test_factored_point_matches_the_pencil_direct_point(n, at):
    # above the floor a factored point and a direct pencil point are the same
    # u_lam: they part by the filter factors n eps / lam of the directions the
    # pencil truncates, which the floor keeps under GN_RTOL, plus the pencil's
    # own round-off; its slopes are the exact t-derivatives, as the pencil's are
    lin, data = linearization(n, at)
    factored = FactoredPath(lin)
    assert factored.t_floor == math.log(n * EPS / GN_RTOL)
    on_pencil, on_factored = lin.data(data), factored.data(data)
    exact = 0
    for t in np.linspace(factored.t_floor + 0.5, 20.0, 12):
        a, b = on_factored.point(t), on_pencil.point(t)
        tol = n * EPS / a.lam + 1e-9
        pairs = [(a.r, b.r), (a.phi, b.phi), (a.drift(), b.drift()), (a.shrink(), b.shrink()),
                 (l2_norm(lin.op.grid, a.u - b.u) / l2_norm(lin.op.grid, b.u), 0.0)]
        assert a.image.tobytes() == apply(lin.op, a.u).tobytes()
        changes = [abs(x - y) / max(abs(x), abs(y)) if y else x for x, y in pairs]
        assert max(changes) <= tol, (t, changes)
        exact += max(changes) <= 1e-9
    assert exact >= 6


def slack(rho):
    """A quasi-like gap, log(rho / phi) with its slope shrink / phi."""
    return lambda point: (math.log(rho / point.phi), point.shrink() / point.phi)


def discrepancy(delta):
    """The variational gap, log(lam / (2 delta r)) with its slope."""
    return lambda point: (point.t - math.log(2.0 * delta) - math.log(point.r),
                          1.0 - 0.5 * point.drift() / point.r / point.r)


@pytest.mark.parametrize("case", ["floor", "overflow", "zero bands", "singular",
                                  "negative q"])
def test_factored_root_find_falls_back_to_its_pencil(case, monkeypatch):
    # a find that reaches the floor, a lam P past the float range, a P with no
    # band, a singular system and a q outside [0, inf) are solved on the pencil,
    # from the same start and with the same arithmetic as a find that starts there
    problem = build_problem("volterra-int", 32)
    stab = Stabilizer(5e-324, 0.0) if case == "zero bands" else Stabilizer()
    data = inject_noise(problem.grid, problem.f_exact, 1e-2, 3)
    factored = FactoredPath(TikhonovPath(problem.op, stab))
    start = {"floor": factored.t_floor - 1.0, "overflow": T_CEIL}.get(case, 0.0)
    if case == "singular":
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
    solves, solve = [], np.linalg.solve
    if case == "negative q":
        def negated(system, rhs):   # the second solve of a point, for q, is negated
            solves.append(rhs)
            return solve(system, rhs) * (-1.0 if len(solves) % 2 == 0 else 1.0)

        monkeypatch.setattr(np.linalg, "solve", negated)
    reference, gap = TikhonovPath(problem.op, stab), discrepancy(1e-2)
    expected = path_solve(reference, data, gap, tol=GN_RTOL, start=start)
    kinds = []

    def counted(point):
        kinds.append(type(point))
        return gap(point)

    point = path_solve(factored, data, counted, tol=GN_RTOL, start=start)
    assert point.t == expected.t and point.u.tobytes() == expected.u.tobytes()
    assert kinds and set(kinds) <= {CoarsePoint, DirectPoint}
    if case == "negative q":   # one factored point made both its solves, then failed
        assert len(solves) == 2
        with pytest.raises(SolverFailureError, match=r"q = -"):
            factored.data(data).point(0.0)


def test_factored_root_find_ends_on_a_factored_point():
    lin, data = linearization(64, "ones")
    gap = slack(lin.data(data).point(-3.0).phi)
    expected = path_solve(lin, data, gap, tol=GN_RTOL, start=0.0)
    point = path_solve(FactoredPath(lin), data, gap, tol=GN_RTOL, start=0.0)
    assert type(point).__name__ == "FactoredPoint"
    assert 0.0 <= gap(point)[0] <= GN_RTOL
    assert abs(point.t - expected.t) <= 1e-3


class Unresolving:
    """A point provider with no O(k) points, each of whose points fails with
    SolverFailureError, and ``fallback`` as its fallback: the protocol of
    path_solve, and nothing more."""

    t_floor, coarse = -math.inf, None

    def __init__(self, fallback):
        self.fallback = fallback

    def data(self, f_delta):
        return self

    def point(self, t):
        raise SolverFailureError(f"no point at t = {t:g}")


@pytest.mark.parametrize("start", [0.0, -8.0])
@pytest.mark.parametrize("method", ["variational", "quasi"])
def test_a_provider_is_its_protocol(method, start):
    # a find that meets a failing point moves to the fallback and runs
    # there as a find that starts on it, bit for bit
    problem = build_problem("volterra-int", 32)
    stab = Stabilizer()
    data = inject_noise(problem.grid, problem.f_exact, 1e-2, 3)
    path = TikhonovPath(problem.op, stab)
    gap = discrepancy(1e-2) if method == "variational" else slack(
        0.5 * path.data(data).point(0.0).phi)
    expected = path_solve(path, data, gap, start=start)
    point = path_solve(Unresolving(TikhonovPath(problem.op, stab)), data, gap, start=start)
    assert type(point) is DirectPoint and point.t == expected.t
    assert point.u.tobytes() == expected.u.tobytes()


@pytest.mark.parametrize("shared", [False, True])
def test_a_nonlinear_solution_meets_a_once(shared, monkeypatch):
    # the line search measured A at the iterate it accepted; the solution
    # takes that image, and A is applied to the returned point once
    problem = build_problem("autoconv", 32)
    stab = Stabilizer()
    K = Compactum(stab, 1.5 * phi_value(stab, problem.grid, problem.y_true))
    f_delta = inject_noise(problem.grid, problem.f_exact, 1e-2, 5)
    path = TikhonovPath(problem.op, stab) if shared else None
    applied, apply_once = [], operators.apply

    def recorded(op, u):   # products with A, not with a linearization J
        if op is problem.op:
            applied.append(np.array(u))
        return apply_once(op, u)

    for module in (operators, tikhonov, variational):
        monkeypatch.setattr(module, "apply", recorded)
    for solve in (lambda: minimize_variational(problem.op, f_delta, 1e-2, stab, path),
                  lambda: minimize_on_compactum(problem.op, f_delta, K, path)):
        applied.clear()
        sol = solve()
        assert sum(np.array_equal(u, sol.u_delta) for u in applied) == 1
        assert sol.image.tobytes() == apply_once(problem.op, sol.u_delta).tobytes()
