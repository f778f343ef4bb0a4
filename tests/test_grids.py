import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed import Grid, GridMismatchError, NonFiniteError, inner_product, l2_norm


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(8, 1.0, 1.0)
    g = Grid(5, 0.0, 1.0)
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_zero_vector_has_zero_norm():
    g = Grid(7)
    assert l2_norm(g, np.zeros(7)) == 0.0


@pytest.mark.parametrize("n", [2, 5, 17, 64])
def test_constant_norm_is_exact(n):
    # trapezoid quadrature integrates constants exactly on [0, 1]
    g = Grid(n, 0.0, 1.0)
    assert l2_norm(g, np.ones(n)) == pytest.approx(1.0, rel=1e-14)


def test_norm_matches_hand_summation():
    g = Grid(5, 0.0, 1.0)
    v = np.random.Generator(np.random.Philox(123)).standard_normal(5)
    weights = [0.5, 1.0, 1.0, 1.0, 0.5]
    expected = math.sqrt(g.h * sum(w * x * x for w, x in zip(weights, v)))
    assert l2_norm(g, v) == pytest.approx(expected, rel=1e-15)


scales = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                   st.floats(-1e100, -1e-100))


@settings(derandomize=True, deadline=None)
@given(c=scales, seed=st.integers(0, 2**32 - 1))
def test_norm_absolute_homogeneity(c, seed):
    g = Grid(9)
    v = np.random.Generator(np.random.Philox(seed)).standard_normal(9)
    assert l2_norm(g, c * v) == pytest.approx(abs(c) * l2_norm(g, v),
                                              rel=1e-12, abs=1e-300)


def test_inner_product_consistency(rng):
    g = Grid(12)
    u, v = rng.standard_normal(12), rng.standard_normal(12)
    assert inner_product(g, u, v) == pytest.approx(inner_product(g, v, u), rel=1e-14)
    assert inner_product(g, u, u) == pytest.approx(l2_norm(g, u) ** 2, rel=1e-13)


def test_mismatched_grid_rejected():
    with pytest.raises(GridMismatchError):
        l2_norm(Grid(5), np.ones(4))


def test_non_finite_vector_rejected():
    v = np.ones(5)
    v[3] = np.nan
    with pytest.raises(NonFiniteError) as err:
        l2_norm(Grid(5), v)
    assert err.value.index == 3

