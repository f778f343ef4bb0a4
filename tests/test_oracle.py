import math

import numpy as np
import pytest

from oracle import SearchBox, brute_force_minimize, refine_1d, refine_coordinatewise


def test_minimum_on_a_grid_node():
    box = SearchBox((0.0,), (1.0,), 11)
    point, value = brute_force_minimize(lambda p: (p[:, 0] - 0.3) ** 2, box)
    assert point[0] == pytest.approx(0.3, abs=1e-15)
    assert value == pytest.approx(0.0, abs=1e-16)


def test_off_grid_quadratic_within_cell_diameter():
    box = SearchBox((0.0, 0.0), (1.0, 1.0), 11)
    a, b = 0.33, 0.77

    def objective(p):
        return (p[:, 0] - a) ** 2 + (p[:, 1] - b) ** 2

    _, value = brute_force_minimize(objective, box)
    diameter = math.sqrt(np.sum(box.cell**2))
    assert value <= diameter**2


def test_constant_objective_ties_to_first_lexicographic_point():
    box = SearchBox((-1.0, 2.0), (1.0, 3.0), 5)
    point, value = brute_force_minimize(lambda p: np.zeros(len(p)), box)
    assert np.array_equal(point, [-1.0, 2.0])
    assert value == 0.0


def test_point_budget_guard():
    with pytest.raises(ValueError, match=r"500\^3 grid points exceed the 1e\+07 budget"):
        SearchBox((0.0,) * 3, (1.0,) * 3, 500)


def test_dimension_cap():
    box = SearchBox((0.0,) * 4, (1.0,) * 4, 5)
    with pytest.raises(ValueError, match="capped at 3 dimensions"):
        brute_force_minimize(lambda p: np.zeros(len(p)), box)


def test_box_validation():
    with pytest.raises(ValueError, match="each lower bound must be below its upper bound"):
        SearchBox((1.0,), (0.0,), 5)
    with pytest.raises(ValueError, match="at least 3 points per axis"):
        SearchBox((0.0,), (1.0,), 2)
    for lower, upper in (((0.0, 0.0), (1.0,)), ((), ())):
        with pytest.raises(ValueError, match="equal nonzero length"):
            SearchBox(lower, upper, 5)


def test_brute_force_rejects_nan_and_a_box_with_no_finite_value():
    box = SearchBox((0.0,), (1.0,), 5)

    def nan_at_half(p):
        return np.where(p[:, 0] == 0.5, np.nan, p[:, 0])

    with pytest.raises(ValueError, match=r"NaN at \[0.5\]"):
        brute_force_minimize(nan_at_half, box)
    with pytest.raises(ValueError, match="no finite value"):
        brute_force_minimize(lambda p: np.full(len(p), np.inf), box)


@pytest.mark.parametrize("bracket", [(1.0, 0.0), (1.0, 1.0), (0.0, float("nan"))])
def test_refine_rejects_a_bracket_that_is_not_increasing(bracket):
    with pytest.raises(ValueError, match="invalid bracket"):
        refine_1d(lambda x: x, bracket)


def test_brute_force_deterministic(rng):
    coeffs = rng.standard_normal(2)
    box = SearchBox((-2.0, -2.0), (2.0, 2.0), 41)

    def objective(p):
        return np.cos(3 * p[:, 0] + coeffs[0]) + (p[:, 1] - coeffs[1]) ** 2

    first = brute_force_minimize(objective, box)
    second = brute_force_minimize(objective, box)
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]


def test_refine_finds_log_parabola_minimum():
    result = refine_1d(lambda lam: (math.log(lam) - 1.0) ** 2,
                       (math.exp(-2), math.exp(4)), tol=1e-6)
    assert result == pytest.approx(math.e, rel=1e-5)


def test_refine_monotone_converges_to_left_endpoint():
    assert refine_1d(lambda x: x, (0.0, 1.0), tol=1e-9) == pytest.approx(0.0, abs=1e-12)
    assert refine_1d(lambda x: x, (2.0, 3.0), tol=1e-9) == pytest.approx(2.0, rel=1e-8)


def test_refine_symmetric_parabola_returns_center():
    assert refine_1d(lambda x: (x - 2.0) ** 2, (1.0, 3.0), tol=1e-6) == pytest.approx(
        2.0, abs=1e-4)


def test_refine_propagates_non_finite_values():
    with pytest.raises(ValueError, match="objective is non-finite at"):
        refine_1d(lambda x: float("nan"), (0.0, 1.0))


def test_coordinatewise_polish():
    def objective(p):
        return (p[:, 0] - 0.33) ** 2 + 2.0 * (p[:, 1] - 0.77) ** 2

    point, value = refine_coordinatewise(objective, np.array([0.3, 0.8]),
                                         radius=np.array([0.1, 0.1]))
    assert np.allclose(point, [0.33, 0.77], atol=1e-9)
    assert value <= 1e-17
