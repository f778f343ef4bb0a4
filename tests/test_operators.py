import numpy as np
import pytest

from illposed import (Grid, NonFiniteError, OperatorSpec, UnsupportedOperatorError,
                      apply, as_matrix, dense_operator, diagonal_operator, domain_project,
                      jacobian, l2_norm, nonlinear_operator, normal_matrix,
                      weighted_product, weighted_transpose)
from illposed.operators import LINEAR_DENSE, LINEAR_DIAGONAL, NONLINEAR

from helpers import identity_operator, inner_product


def test_identity_returns_input(rng):
    g = Grid(10)
    u = rng.standard_normal(10)
    assert np.array_equal(apply(identity_operator(g), u), u)


def test_diagonal_apply_is_componentwise():
    g = Grid(2)
    op = diagonal_operator(g, np.array([2.0, 0.5]))
    assert np.array_equal(apply(op, np.array([1.0, 1.0])), np.array([2.0, 0.5]))


def test_linearity_probe(linear_problems, rng):
    for problem in linear_problems.values():
        g = problem.grid
        for _ in range(100):
            u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)
            a, b = rng.uniform(-3, 3, size=2)
            lhs = apply(problem.op, a * u + b * v)
            rhs = a * apply(problem.op, u) + b * apply(problem.op, v)
            bound = 1e-10 * (l2_norm(g, apply(problem.op, u))
                             + l2_norm(g, apply(problem.op, v)))
            assert l2_norm(g, lhs - rhs) <= bound


def test_adjoint_consistency(linear_problems, rng):
    for problem in linear_problems.values():
        g = problem.grid
        for _ in range(100):
            u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)
            lhs = inner_product(g, apply(problem.op, u), v)
            rhs = u @ weighted_transpose(problem.op, v)
            assert abs(lhs - rhs) <= 1e-10 * l2_norm(g, apply(problem.op, u)) * l2_norm(g, v)


def test_adjoint_consistency_random_dense(rng):
    g = Grid(17, -1.0, 2.0)
    op = dense_operator(g, rng.standard_normal((17, 17)))
    for _ in range(100):
        u, v = rng.standard_normal(17), rng.standard_normal(17)
        lhs = inner_product(g, apply(op, u), v)
        rhs = u @ weighted_transpose(op, v)
        assert abs(lhs - rhs) <= 1e-10 * l2_norm(g, apply(op, u)) * l2_norm(g, v)


def test_normal_matrix_is_gram_of_weighted_product(linear_problems):
    for problem in linear_problems.values():
        r = weighted_product(problem.op, np.eye(problem.grid.n))  # R = W^1/2 A
        np.testing.assert_allclose(normal_matrix(problem.op), r.T @ r, rtol=1e-14, atol=0)


def test_weighted_product_row_scaling_matches_dense(rng):
    g = Grid(9, 0.0, 2.0)
    d = rng.uniform(0.5, 2.0, size=9)
    x = rng.standard_normal((9, 4))
    expected = np.sqrt(g.gram_diagonal)[:, None] * (np.diag(d) @ x)
    for op in (diagonal_operator(g, d), dense_operator(g, np.diag(d))):
        np.testing.assert_allclose(weighted_product(op, x), expected, rtol=1e-15)


def test_non_finite_output_names_index():
    g = Grid(4)
    op = diagonal_operator(g, np.array([1e308, 1.0, 1.0, 1.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError) as err:
            apply(op, np.array([1e10, 0.0, 0.0, 0.0]))
    assert err.value.index == 0
    assert "index 0" in str(err.value)


def test_adjoint_rejected_for_nonlinear():
    g = Grid(6)
    op = nonlinear_operator(g, lambda u: u**2, lambda u: np.diag(2 * u))
    with pytest.raises(UnsupportedOperatorError):
        weighted_transpose(op, np.ones(6))
    with pytest.raises(UnsupportedOperatorError):
        normal_matrix(op)
    with pytest.raises(UnsupportedOperatorError):
        weighted_product(op, np.eye(6))
    with pytest.raises(UnsupportedOperatorError):
        as_matrix(op)


@pytest.mark.parametrize("kind, payload, message", [
    ("sparse", {}, "unknown operator kind"),
    (LINEAR_DENSE, {"matrix": np.eye(5)}, r"needs an \(6, 6\) matrix"),
    (LINEAR_DENSE, {}, r"needs an \(6, 6\) matrix"),
    (LINEAR_DIAGONAL, {"diagonal": np.ones(5)}, "needs 6 diagonal entries"),
    (NONLINEAR, {"apply_fn": np.sin}, "needs apply_fn and jacobian_fn"),
])
def test_operator_spec_rejects_a_payload_that_does_not_fit_its_kind(kind, payload, message):
    with pytest.raises(ValueError, match=message):
        OperatorSpec(kind, Grid(6), **payload)


def test_domain_projection_without_a_projection_is_the_identity(rng):
    u = rng.standard_normal(6)
    op = nonlinear_operator(Grid(6), lambda v: v**2, lambda v: np.diag(2 * v))
    assert domain_project(op, u) is u
    assert domain_project(identity_operator(Grid(6)), u) is u


def test_jacobian_rejected_for_linear():
    g = Grid(6)
    with pytest.raises(UnsupportedOperatorError):
        jacobian(identity_operator(g), np.ones(6))
