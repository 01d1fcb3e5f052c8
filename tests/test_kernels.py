"""The scalar kernels' contract: their error types and the roots they return.

Random inputs stay inside the range where intermediate powers fit in a
double; the overflow corner is exercised separately and must raise
OverflowError.
"""

import numpy as np
import pytest

from fibercurve import _kernels as K


def draw_ray(rng):
    n = rng.uniform(0.05, 20.0)
    b = rng.uniform(-8.0, 8.0)
    c = rng.uniform(-3.0, 3.0)
    alpha = rng.uniform(1.01, 2.5)
    eta = rng.uniform(alpha + 0.05, alpha + 2.0)
    beta = rng.uniform(eta + 0.05, eta + 3.0)
    return n, b, alpha, eta, beta, c


def test_classify_degenerate_case_returns_t_bar_twice():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.uniform(0.1, 10.0)
        b = rng.uniform(0.1, 10.0)
        alpha, eta, beta = 1.5, 2.0, 4.0
        t_bar, c_bar = K.extremal_pair(n, b, alpha, eta, beta)
        case, tp, tm = K.classify(n, b, alpha, eta, beta, c_bar)
        assert case == K.CASE_DEGENERATE
        assert tp == tm == t_bar


@pytest.mark.parametrize("name", ["fiber_value", "fiber_d1", "fiber_d2"])
def test_zero_a_raises(name):
    with pytest.raises(ZeroDivisionError):
        getattr(K, name)(1.0, 0.0, 1.0, 1.5, 2.0, 4.0, -0.01, 1.0)


def test_bad_t_raises():
    with pytest.raises(ValueError, match="t > 0 only"):
        K.fiber_value(1.0, 1.0, 1.0, 1.5, 2.0, 4.0, -0.01, 0.0)
    with pytest.raises(ValueError, match="t > 0 only"):
        K.fiber_d1(1.0, 1.0, 1.0, 1.5, 2.0, 4.0, -0.01, -1.0)
    with pytest.raises(ValueError, match="t >= 0 only"):
        K.g_value(1.0, 1.0, 1.5, 2.0, 4.0, -0.01, -0.5)
    with pytest.raises(ValueError, match="t >= 0 only"):
        K.g_deriv(1.0, 1.0, 1.5, 2.0, 4.0, -0.5)


def test_bad_ray_raises():
    with pytest.raises(ValueError, match="need n > 0"):
        K.extremal_pair(0.0, 1.0, 1.5, 2.0, 4.0)
    with pytest.raises(ValueError, match="need b > 0"):
        K.extremal_pair(1.0, -1.0, 1.5, 2.0, 4.0)
    with pytest.raises(ValueError, match="need n > 0"):
        K.zero_level_pair(-1.0, 1.0, 2.0, 4.0)
    with pytest.raises(ValueError, match="need b > 0"):
        K.zero_level_pair(1.0, 0.0, 2.0, 4.0)
    with pytest.raises(ValueError, match="needs n > 0"):
        K.classify(0.0, 1.0, 1.5, 2.0, 4.0, -0.01)
    with pytest.raises(ValueError, match="finite data"):
        K.classify(1.0, float("nan"), 1.5, 2.0, 4.0, -0.01)


def test_overflow_raises_overflowerror():
    # beta - eta tiny: t_bar = (ratio)**(1/(beta-eta)) exceeds double range
    with pytest.raises(OverflowError):
        K.extremal_pair(1.0, 1e-3, 1.5, 2.0, 2.01)
    with pytest.raises(OverflowError):
        K.classify(1.0, 1e-3, 1.5, 2.0, 2.01, -0.5)
    with pytest.raises(OverflowError):
        K.g_value(1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e200)


def test_classify_roots_satisfy_g():
    """Roots drive g to ~0 relative to its term sizes, in every case."""
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(500):
        n, b, alpha, eta, beta, c = draw_ray(rng)
        case, tp, tm = K.classify(n, b, alpha, eta, beta, c)
        seen.add(case)
        for t in (tp, tm):
            if np.isnan(t):
                continue
            scale = (
                (eta - alpha) / eta * n * t**eta
                + abs((beta - alpha) / beta * b) * t**beta
                + abs(alpha * c)
            )
            assert abs(K.g_value(n, b, alpha, eta, beta, c, t)) <= 1e-9 * scale
    # random draws must exercise every non-degenerate case
    assert {K.CASE_NO_CRITICAL, K.CASE_UNIQUE_MIN,
            K.CASE_UNIQUE_MAX, K.CASE_TWO_ROOTS} <= seen
