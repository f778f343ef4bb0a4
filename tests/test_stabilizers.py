import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from illposed import (Compactum, Grid, InvalidParameterError, Stabilizer,
                      contains, l2_norm, phi_value, project_onto)
from illposed.stabilizers import penalty_bands

from helpers import penalty_matrix, phi_batch, phi_reference


def test_weight_validation():
    with pytest.raises(InvalidParameterError):
        Stabilizer(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        Stabilizer(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        Stabilizer(1.0, float("nan"))
    with pytest.raises(InvalidParameterError):
        Stabilizer(float("nan"), 1.0)
    Stabilizer(0.0, 1.0)  # seminorm alone is allowed for the stabilizer itself


def test_compactum_needs_positive_definite_form():
    with pytest.raises(InvalidParameterError):
        Compactum(Stabilizer(0.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        Compactum(Stabilizer(1.0, 1.0), 0.0)


def test_phi_of_zero_is_zero(default_stab):
    assert phi_value(default_stab, Grid(8), np.zeros(8)) == 0.0


@pytest.mark.parametrize("c", [1.0, -2.5, 0.3])
def test_constant_kills_difference_term(default_stab, c):
    g = Grid(11, 0.0, 1.0)
    assert phi_value(default_stab, g, np.full(11, c)) == pytest.approx(c * c, rel=1e-14)


def test_phi_matches_direct_summation(default_stab):
    g = Grid(6, 0.0, 1.0)
    u = np.random.Generator(np.random.Philox(7)).standard_normal(6)
    w = [0.5, 1, 1, 1, 1, 0.5]
    wd = [0.5, 1, 1, 1, 0.5]
    value_term = g.h * sum(wi * x * x for wi, x in zip(w, u))
    diffs = [(u[i + 1] - u[i]) / g.h for i in range(5)]
    slope_term = g.h * sum(wi * d * d for wi, d in zip(wd, diffs))
    assert phi_value(default_stab, g, u) == pytest.approx(value_term + slope_term,
                                                          rel=1e-12)


def test_phi_equals_quadratic_form(default_stab, rng):
    g = Grid(14, -1.0, 3.0)
    for stab in (default_stab, Stabilizer(0.0, 1.0), Stabilizer(2.0, 0.0)):
        P = penalty_matrix(stab, g)
        assert np.allclose(P, P.T)
        for _ in range(100):
            u = rng.standard_normal(14)
            assert phi_value(stab, g, u) == pytest.approx(float(u @ P @ u),
                                                          rel=1e-12)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (1e-300, 1e300)])
def test_penalty_bands_are_the_matrix_bands(weights):
    g = Grid(11, -1.0, 3.0)
    stab = Stabilizer(*weights)
    diagonal, off = penalty_bands(stab, g)
    P = penalty_matrix(stab, g)
    assert np.array_equal(np.diag(P), diagonal)
    assert np.array_equal(np.diag(P, 1), off) and np.array_equal(np.diag(P, -1), off)
    assert np.array_equal(P, np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))


def test_phi_batch_matches_scalar(default_stab, rng):
    g = Grid(9)
    pts = rng.standard_normal((40, 9))
    batch = phi_batch(default_stab, g, pts)
    for row, expected in zip(pts, batch):
        assert phi_value(default_stab, g, row) == pytest.approx(expected, rel=1e-13)


@settings(derandomize=True, deadline=None)
@given(t=st.floats(-1e4, 1e4, allow_nan=False), seed=st.integers(0, 2**32 - 1))
def test_phi_scaling_law(t, seed):
    stab = Stabilizer(1.0, 1.0)
    g = Grid(10)
    u = np.random.Generator(np.random.Philox(seed)).standard_normal(10)
    assert phi_value(stab, g, t * u) == pytest.approx(t * t * phi_value(stab, g, u),
                                                      rel=1e-12, abs=1e-300)


def test_sublevel_sets_are_bounded(default_stab, rng):
    g = Grid(16)
    for _ in range(100):
        u = rng.standard_normal(16) * rng.uniform(0.1, 10)
        c = phi_value(default_stab, g, u)
        assert l2_norm(g, u) <= math.sqrt(c / default_stab.alpha0) * (1 + 1e-12)


def test_membership(default_stab, rng):
    g = Grid(12)
    K = Compactum(default_stab, 2.0)
    assert contains(K, g, np.zeros(12))
    u = rng.standard_normal(12)
    boundary = u * math.sqrt(K.rho / phi_value(default_stab, g, u))
    assert contains(K, g, boundary)  # the boundary belongs to the closed set
    outside = boundary * math.sqrt(2.0)
    assert phi_value(default_stab, g, outside) == pytest.approx(2 * K.rho, rel=1e-12)
    assert not contains(K, g, outside)


def test_projection_identity_inside(default_stab, rng):
    g = Grid(12)
    K = Compactum(default_stab, 5.0)
    u = 0.1 * rng.standard_normal(12)
    assert project_onto(K, g, u) is u


def test_projection_halves_at_four_rho(default_stab, rng):
    g = Grid(12)
    u = rng.standard_normal(12)
    K = Compactum(default_stab, phi_value(default_stab, g, u) / 4.0)
    projected = project_onto(K, g, u)
    assert np.allclose(projected, u / 2.0, rtol=1e-12)
    assert phi_value(default_stab, g, projected) == pytest.approx(K.rho, rel=1e-12)


def test_projection_lands_on_boundary(default_stab, rng):
    g = Grid(5)
    K = Compactum(default_stab, 0.7)
    for _ in range(100):
        u = rng.standard_normal(5) * rng.uniform(1.0, 50.0)
        if phi_value(default_stab, g, u) <= K.rho:
            continue
        assert phi_value(default_stab, g, project_onto(K, g, u)) == pytest.approx(
            K.rho, rel=1e-12)


@pytest.mark.parametrize("weights, rho", [((1e300, 1.0), 1e300),
                                         ((1e308, 1e308), 1e308)])
def test_projection_of_a_point_whose_phi_overflows(weights, rho):
    # phi(u) is inf in floats, so sqrt(rho / phi(u)) would map u to zero
    g = Grid(16)
    stab = Stabilizer(*weights)
    K = Compactum(stab, rho)
    u = 1e5 * np.linspace(1.0, 2.0, 16)
    assert phi_value(stab, g, u) == math.inf
    projected = project_onto(K, g, u)
    assert phi_value(stab, g, projected) == pytest.approx(K.rho, rel=1e-12)
    assert np.allclose(projected / u, projected[0] / u[0], rtol=1e-15, atol=0.0)


def test_projection_idempotent(default_stab, rng):
    g = Grid(10)
    K = Compactum(default_stab, 1.3)
    for _ in range(100):
        u = rng.standard_normal(10) * rng.uniform(0.1, 20.0)
        once = project_onto(K, g, u)
        twice = project_onto(K, g, once)
        assert np.array_equal(once, twice)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(u=arrays(np.float64, st.integers(2, 70),
                elements=st.floats(-1e150, 1e150, allow_subnormal=True)),
       alpha0=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       alpha1=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
def test_phi_is_the_np_sum_and_np_diff_form_bit_for_bit(u, alpha0, alpha1):
    assume(alpha0 > 0.0 or alpha1 > 0.0)
    stab, g = Stabilizer(alpha0, alpha1), Grid(u.size)
    assert phi_value(stab, g, u) == phi_reference(stab, g, u)


def test_phi_is_inf_past_the_float_range():
    g = Grid(6)
    with np.errstate(over="ignore"):   # the sums overflow
        assert phi_value(Stabilizer(1.0, 1.0), g, np.full(6, 1e200)) == math.inf
        # the value term is finite, near 1e308, and the slope term overflows
        assert phi_value(Stabilizer(1.0, 1.0), g, 1e154 * (-1.0) ** np.arange(6)) == math.inf
    # the sums are finite, and the weights multiply them past the range
    assert phi_value(Stabilizer(1e300, 0.0), g, np.full(6, 1e10)) == math.inf
    assert phi_value(Stabilizer(1.0, 1e300), g, np.arange(6.0) * 1e10) == math.inf
