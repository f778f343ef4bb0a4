"""The pencil decomposition of tikhonov.TikhonovPath, checked by its contract."""

import numpy as np
import pytest

from illposed import (Stabilizer, build_problem, dense_operator, jacobian,
                      normal_matrix, penalty_matrix)
from illposed.tikhonov import TikhonovPath, lower_inverse

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


def check_pencil_contract(op, stab):
    """V^T B V = I and V^T N V = diag(theta), theta in [0, 1], B = N + P."""
    theta, vectors = TikhonovPath(op, stab).spectrum
    normal = normal_matrix(op)
    pencil = normal + penalty_matrix(stab, op.grid)
    n = op.grid.n
    assert np.all((theta >= 0.0) & (theta <= 1.0))
    assert np.abs(vectors.T @ pencil @ vectors - np.eye(n)).max() <= 1e-9
    assert np.abs(vectors.T @ normal @ vectors - np.diag(theta)).max() <= 1e-9


@pytest.mark.parametrize("alpha0", [0.0, 1.0])
@pytest.mark.parametrize("n", [16, 65, 200])
@pytest.mark.parametrize("name", LINEAR)
def test_pencil_contract_linear(name, n, alpha0):
    p = build_problem(name, n)
    check_pencil_contract(p.op, Stabilizer(alpha0, 1.0))


def test_pencil_contract_autoconv_jacobian():
    # the Jacobian's first row is zero, so N is singular and some theta are 0
    p = build_problem("autoconv", 64)
    lin = dense_operator(p.grid, jacobian(p.op, p.y_true))
    check_pencil_contract(lin, Stabilizer())
