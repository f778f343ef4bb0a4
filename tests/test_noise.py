import numpy as np
import pytest

from illposed import Grid, InvalidParameterError, inject_noise, l2_norm

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


@pytest.fixture(scope="module")
def setup():
    g = Grid(64)
    f = np.sin(np.pi * g.nodes)
    return g, f


@pytest.mark.parametrize("delta", DELTAS)
def test_exact_norm_calibration(setup, delta):
    g, f = setup
    for seed in range(25):
        f_delta = inject_noise(g, f, delta, seed)
        achieved = l2_norm(g, f_delta - f)
        assert achieved == pytest.approx(delta, rel=1e-12)


def test_repeat_draw_is_bit_identical(setup):
    g, f = setup
    a = inject_noise(g, f, 1e-2, 42)
    b = inject_noise(g, f, 1e-2, 42)
    assert np.array_equal(a, b)


def test_distinct_seeds_distinct_directions(setup):
    g, f = setup
    a = inject_noise(g, f, 1e-2, 1)
    b = inject_noise(g, f, 1e-2, 2)
    assert not np.array_equal(a, b)
    assert l2_norm(g, a - f) == pytest.approx(l2_norm(g, b - f), rel=1e-12)


def test_bounded_mode_stays_in_range(setup):
    g, f = setup
    for seed in range(100):
        f_delta = inject_noise(g, f, 1e-2, seed, mode="bounded")
        achieved = l2_norm(g, f_delta - f)
        assert 0.0 < achieved <= 1e-2 * (1 + 1e-12)


def test_invalid_parameters_rejected(setup):
    g, f = setup
    with pytest.raises(InvalidParameterError):
        inject_noise(g, f, 0.0, 1)
    with pytest.raises(InvalidParameterError):
        inject_noise(g, f, -1e-3, 1)
    with pytest.raises(InvalidParameterError):
        inject_noise(g, f, 1e-2, 1, mode="gaussian")
