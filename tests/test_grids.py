import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from illposed import (Grid, GridMismatchError, NonFiniteError, apply, jacobian, l2_norm,
                      nonlinear_operator)
from illposed.grids import check_finite, check_vec

from helpers import inner_product, l2_norm_reference


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


BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("where", [0, 3, 6])
def test_first_non_finite_entry_is_named(bad, where):
    # every non-finite kind at any position, with a later one of another kind
    g = Grid(7)
    v = np.ones(7)
    v[where] = bad
    v[where + 1:] = math.nan if bad != bad else math.inf
    with pytest.raises(NonFiniteError, match=f"data has non-finite entry at index "
                                             f"{where}$") as err:
        check_vec(g, v, "data")
    assert err.value.index == where
    # an operator's output, and its Jacobian by the C-order index of the matrix
    op = nonlinear_operator(g, apply_fn=lambda u: v, jacobian_fn=lambda u: np.diag(v))
    for evaluate, index in ((apply, where), (jacobian, 8 * where)):
        with pytest.raises(NonFiniteError) as err:
            evaluate(op, np.ones(7))
        assert err.value.index == index
    with pytest.raises(NonFiniteError) as err:
        check_finite(v.reshape(1, 7), "matrix")
    assert err.value.index == where


@settings(derandomize=True, deadline=None, max_examples=200)
@given(v=arrays(np.float64, st.integers(2, 70),
                elements=st.floats(-1e150, 1e150, allow_subnormal=True)))
def test_norm_is_the_np_sum_form_bit_for_bit(v):
    assert l2_norm(Grid(v.size), v) == l2_norm_reference(Grid(v.size), v)


def test_norm_is_inf_past_the_float_range():
    with np.errstate(over="ignore"):
        assert l2_norm(Grid(6), np.full(6, 1e200)) == math.inf
