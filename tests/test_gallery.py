import numpy as np
import pytest

from illposed import (ConfigurationError, Grid, ProblemInstance,
                      UnsupportedOperatorError, apply, as_matrix,
                      build_problem, condition_report, l2_norm)
from illposed.gallery import PROBLEM_NAMES, autoconvolve_jacobian

from helpers import autoconvolve_jacobian_reference, identity_operator


def test_unknown_name_lists_valid_ones():
    with pytest.raises(ConfigurationError) as err:
        build_problem("backward-heat", 16)
    for name in PROBLEM_NAMES:
        assert name in str(err.value)


def test_minimum_size_enforced():
    with pytest.raises(ConfigurationError):
        build_problem("diag-unbounded", 2)
    build_problem("diag-unbounded", 3)  # oracle-scale instances are allowed


def test_alternating_diagonal_entries():
    p = build_problem("diag-unbounded", 6)
    assert np.array_equal(p.op.diagonal, [1.0, 1.0, 2.0, 0.5, 3.0, 1.0 / 3.0])


def test_volterra_matrix_structure():
    p = build_problem("volterra-int", 12)
    M = as_matrix(p.op)
    assert np.array_equal(M, np.tril(M))
    assert np.all(np.diag(M) > 0.0)


def test_volterra_integrates_constants():
    # A(1) should reproduce x at the nodes; the first node integrates only
    # over its half cell, every other node is exact for constants
    p = build_problem("volterra-int", 33)
    out = apply(p.op, np.ones(33))
    x = p.grid.nodes
    assert abs(out[0]) <= 0.51 * p.grid.h
    assert np.max(np.abs(out[1:] - x[1:])) <= 1e-12


def test_volterra_matches_analytic_antiderivative():
    # integrand cos(2t), antiderivative sin(2x)/2; composite trapezoid error
    # is below (b-a) h^2 max|u''| / 12 away from the half-cell start
    p = build_problem("volterra-int", 65)
    x = p.grid.nodes
    out = apply(p.op, np.cos(2.0 * x))
    exact = 0.5 * np.sin(2.0 * x)
    bound = p.grid.h**2 * 4.0 / 12.0
    assert np.max(np.abs(out[1:] - exact[1:])) <= bound
    assert abs(out[0] - exact[0]) <= 0.51 * p.grid.h


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@pytest.mark.parametrize("n", [16, 64])
def test_exact_data_consistency(name, n):
    p = build_problem(name, n)
    recomputed = apply(p.op, p.y_true)
    assert l2_norm(p.grid, p.f_exact - recomputed) <= 1e-12 * l2_norm(p.grid, p.f_exact)
    assert p.notes


def test_condition_ratios_at_64():
    diag = condition_report(build_problem("diag-unbounded", 64))
    assert diag.ratio == pytest.approx(1024.0, rel=1e-12)
    assert diag.sigma_max == pytest.approx(32.0, rel=1e-12)
    assert diag.ill_posed

    volterra = condition_report(build_problem("volterra-int", 64))
    assert volterra.ratio > 1e3 and volterra.ill_posed

    fredholm = condition_report(build_problem("fredholm-gauss", 64))
    assert fredholm.ratio > 1e6 and fredholm.ill_posed


def test_identity_is_well_posed():
    g = build_problem("diag-unbounded", 16).grid
    op = identity_operator(g)
    p = ProblemInstance(name="identity", grid=g, op=op, y_true=np.ones(16),
                        f_exact=np.ones(16), notes="baseline")
    report = condition_report(p)
    assert report.ratio == pytest.approx(1.0, rel=1e-12)
    assert not report.ill_posed


def test_condition_report_rejects_nonlinear():
    with pytest.raises(UnsupportedOperatorError):
        condition_report(build_problem("autoconv", 16))


def test_autoconv_profile_strictly_positive():
    p = build_problem("autoconv", 32)
    assert np.all(p.y_true > 0.0)
    assert p.f_exact[0] == 0.0  # the running integral starts at zero


def test_mesh_coherence():
    coarse = build_problem("fredholm-gauss", 33)
    fine = build_problem("fredholm-gauss", 65)
    assert np.allclose(fine.y_true[::2], coarse.y_true, atol=1e-14)



@pytest.mark.parametrize("n", [16, 64])
def test_autoconv_jacobian_columns_match_convolution(n, rng):
    # column j of A'(u) is the derivative along e_j:
    # h (2 (u * e_j)[:n] - u_0 e_j - [j = 0] u), the convolution a shift of u
    p = build_problem("autoconv", n)
    for _ in range(5):
        u = rng.uniform(0.0, 2.0, size=n)
        J = autoconvolve_jacobian(p.grid, u)
        for j, e in enumerate(np.eye(n)):
            expected = p.grid.h * (2.0 * np.convolve(u, e)[:n] - u[0] * e - e[0] * u)
            assert np.array_equal(J[:, j], expected), j


@pytest.mark.parametrize("n", [3, 4, 5, 16, 64, 257])
def test_autoconv_jacobian_is_the_gather_form_bit_for_bit(n, rng):
    # the strided Toeplitz copy against the gather through an index array,
    # on entries of both signs, zeros and +-1e150, the first one included
    g = Grid(n)
    u = rng.standard_normal(n) * rng.choice([1.0, 1e150, -1e150, 0.0, -1.0], n)
    u[0], u[n // 2] = 1e150, 0.0
    for v in (u, -u, np.abs(u), u[::-1].copy()):
        strided = autoconvolve_jacobian(g, v)
        assert strided.flags.c_contiguous and strided.flags.writeable
        assert strided.tobytes() == autoconvolve_jacobian_reference(g, v).tobytes()
