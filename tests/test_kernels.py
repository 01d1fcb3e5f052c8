"""The scalar kernels' contract: their error types and the roots they return.

Random inputs stay inside the range where intermediate powers fit in a
double; the overflow corner is exercised separately and must raise
OverflowError.
"""

import decimal
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    # beta - eta tiny: t_bar = (ratio)**(1/(beta-eta)) exceeds double range;
    # the message names the kernel, the ray data and the exponents
    with pytest.raises(OverflowError, match=(
        r"^extremal_pair overflows the double range at "
        r"n=1\.0, b=0\.001, alpha=1\.5, eta=2\.0, beta=2\.01$"
    )):
        K.extremal_pair(1.0, 1e-3, 1.5, 2.0, 2.01)
    with pytest.raises(OverflowError, match=(
        r"^classify overflows the double range at "
        r"n=1\.0, b=0\.001, alpha=1\.5, eta=2\.0, beta=2\.01, c=-0\.5$"
    )):
        K.classify(1.0, 1e-3, 1.5, 2.0, 2.01, -0.5)
    with pytest.raises(OverflowError, match=r"^g_value .* c=-0\.5, t=1e\+200$"):
        K.g_value(1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e200)
    # c_bar underflows to zero, so the normalized level c/c_bar has no double
    with pytest.raises(OverflowError, match=r"^classify .* c=1\.0$"):
        K.classify(1e-300, 1.0, 1.5, 2.0, 4.0, 1.0)


FIBER_ARGS = "n=1.0, a=1.0, b=1.0, alpha=1.5, eta=2.0, beta=4.0, c=-0.5"
NARROW_ARGS = "n=1.0, b=0.001, alpha=1.5, eta=2.0, beta=2.01"


@pytest.mark.parametrize(
    "kernel,args,kwargs,named",
    [
        # t**(beta-alpha) and t**(eta-alpha-1) beyond the double range
        ("fiber_value", (1.0, 1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e300), {},
         f"{FIBER_ARGS}, t=1e+300"),
        ("fiber_d1", (1.0, 1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e300), {},
         f"{FIBER_ARGS}, t=1e+300"),
        # t**(-alpha-2) beyond the double range
        ("fiber_d2", (1.0, 1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e-100), {},
         f"{FIBER_ARGS}, t=1e-100"),
        ("g_value", (1.0, 1.0, 1.5, 2.0, 4.0, -0.5, 1e200), {},
         "n=1.0, b=1.0, alpha=1.5, eta=2.0, beta=4.0, c=-0.5, t=1e+200"),
        # beta - eta tiny: t_bar and c0 leave the double range
        ("extremal_pair", (1.0, 1e-3, 1.5, 2.0, 2.01), {}, NARROW_ARGS),
        ("zero_level_pair", (1.0, 1e-3, 2.0, 2.01), {}, "n=1.0, b=0.001, eta=2.0, beta=2.01"),
        ("classify", (1.0, 1e-3, 1.5, 2.0, 2.01, -0.5), {}, f"{NARROW_ARGS}, c=-0.5"),
        ("classify", (1.0, 1e-3, 1.5, 2.0, 2.01, -0.5), {"branch": "plus"},
         f"{NARROW_ARGS}, c=-0.5"),
    ],
    ids=["fiber_value", "fiber_d1", "fiber_d2", "g_value", "extremal_pair",
         "zero_level_pair", "classify", "classify_plus"],
)
def test_overflow_names_kernel_and_arguments(kernel, args, kwargs, named):
    """Every public kernel names itself and its ray data, exponents, c and t,
    and chains the float error it caught."""
    with pytest.raises(OverflowError) as info:
        getattr(K, kernel)(*args, **kwargs)
    assert str(info.value) == f"{kernel} overflows the double range at {named}"
    assert isinstance(info.value.__cause__, OverflowError)


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


def _decimal_plus_root(n, b, alpha, eta, beta, c):
    """The smaller root of g for the integer exponents eta = 2, beta = 4, by
    bisection on [0, t_bar] in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        n, b, alpha, c = (decimal.Decimal(x) for x in (n, b, alpha, c))

        def g(t):
            return (2 - alpha) / 2 * n * t**2 - (4 - alpha) / 4 * b * t**4 + alpha * c

        lo = decimal.Decimal(0)
        hi = ((2 - alpha) * n / ((4 - alpha) * b)).sqrt()
        for _ in range(220):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("c", [-1e-14, -1e-10])
def test_small_plus_root_is_relatively_accurate(c):
    """A plus root far below t_bar keeps its relative accuracy."""
    ray = (1e3, 1.0, 1.5, 2.0, 4.0)
    case, t_plus, _ = K.classify(*ray, c)
    assert case == K.CASE_TWO_ROOTS
    ref = _decimal_plus_root(*ray, c)
    assert abs(t_plus - ref) <= 1e-14 * ref


# ---------------------------------------------------------------------------
# property tests: derandomized, so every run draws the same examples

EXPONENTS = st.tuples(
    st.floats(1.05, 2.5), st.floats(0.1, 2.0), st.floats(0.5, 3.0)
).map(lambda d: (d[0], d[0] + d[1], d[0] + d[1] + d[2]))
MAGNITUDE = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def _assert_roots_solve_g(n, b, alpha, eta, beta, c, roots):
    for t in roots:
        t1 = (eta - alpha) / eta * n * t**eta
        t2 = (beta - alpha) / beta * b * t**beta
        assert t > 0.0
        g = K.g_value(n, b, alpha, eta, beta, c, t)
        assert abs(g) <= 1e-9 * (abs(t1) + abs(t2) + abs(alpha * c))


def _outside_band(c, c_bar, deg_rtol=1e-14):
    return abs(c - c_bar) > deg_rtol * (1.0 + abs(c_bar))


@PROPERTY
@given(n=MAGNITUDE, b=MAGNITUDE, exps=EXPONENTS,
       r=st.one_of(st.floats(-14.0, -0.01).map(lambda x: 10.0**x), st.floats(0.01, 0.99)))
def test_two_roots_straddle_t_bar(n, b, exps, r):
    t_bar, c_bar = K.extremal_pair(n, b, *exps)
    c = r * c_bar
    # the band is absolute: it swallows every c in (c_bar, 0) when |c_bar| << 1e-14
    assume(_outside_band(c, c_bar))
    case, t_plus, t_minus = K.classify(n, b, *exps, c)
    assert case == K.CASE_TWO_ROOTS
    assert t_plus < t_bar < t_minus
    _assert_roots_solve_g(n, b, *exps, c, (t_plus, t_minus))


@PROPERTY
@given(n=MAGNITUDE, b=MAGNITUDE, exps=EXPONENTS, gap=st.floats(-12.0, -2.0))
def test_two_roots_near_the_collision(n, b, exps, gap):
    """r = c/c_bar close to 1 but outside the degenerate band."""
    t_bar, c_bar = K.extremal_pair(n, b, *exps)
    c = (1.0 - 10.0**gap) * c_bar
    assume(_outside_band(c, c_bar))
    case, t_plus, t_minus = K.classify(n, b, *exps, c)
    assert case == K.CASE_TWO_ROOTS
    assert t_plus < t_bar < t_minus
    _assert_roots_solve_g(n, b, *exps, c, (t_plus, t_minus))


@PROPERTY
@given(n=MAGNITUDE, b=MAGNITUDE, exps=EXPONENTS,
       c=st.one_of(st.just(0.0), MAGNITUDE))
def test_nonnegative_level_has_one_maximum(n, b, exps, c):
    t_bar, _ = K.extremal_pair(n, b, *exps)
    case, t_plus, t_minus = K.classify(n, b, *exps, c)
    assert case == K.CASE_UNIQUE_MAX
    assert np.isnan(t_plus) and t_bar < t_minus
    _assert_roots_solve_g(n, b, *exps, c, (t_minus,))


@PROPERTY
@given(n=MAGNITUDE, exps=EXPONENTS, c=MAGNITUDE, tiny=st.floats(-12.0, -9.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_vanishing_b(n, exps, c, tiny, sign):
    """b -> 0+ keeps both roots (c_bar -> -inf); b -> 0- keeps the minimum."""
    b = sign * n * 10.0**tiny
    case, t_plus, t_minus = K.classify(n, b, *exps, -c)
    if sign > 0.0:
        t_bar, _ = K.extremal_pair(n, b, *exps)
        assert case == K.CASE_TWO_ROOTS
        assert t_plus < t_bar < t_minus
        _assert_roots_solve_g(n, b, *exps, -c, (t_plus, t_minus))
    else:
        assert case == K.CASE_UNIQUE_MIN and np.isnan(t_minus)
        _assert_roots_solve_g(n, b, *exps, -c, (t_plus,))


@PROPERTY
@given(n=MAGNITUDE, b=st.one_of(st.just(0.0), MAGNITUDE.map(lambda x: -x)),
       exps=EXPONENTS, c=MAGNITUDE)
def test_nonpositive_b_has_one_minimum(n, b, exps, c):
    case, t_plus, t_minus = K.classify(n, b, *exps, -c)
    assert case == K.CASE_UNIQUE_MIN and np.isnan(t_minus)
    _assert_roots_solve_g(n, b, *exps, -c, (t_plus,))


@PROPERTY
@given(n=MAGNITUDE, b=MAGNITUDE, exps=EXPONENTS)
def test_collision_level_is_a_fixed_multiple_of_the_zero_level(n, b, exps):
    """c_bar = -kappa * c0 on every ray: both levels are n**(beta/(beta-eta))
    * b**(-eta/(beta-eta)) times a constant of the exponents."""
    try:
        _, c_bar = K.extremal_pair(n, b, *exps)
        _, c0 = K.zero_level_pair(n, b, *exps[1:])
    except OverflowError:
        assume(False)
    assume(c0 > 0.0 and c_bar < 0.0)
    assert abs(c_bar + K.threshold_ratio(*exps) * c0) <= 1e-13 * abs(c_bar)


# rows of classify's case table: b <= 0 or b > 0, and where c lies
CASE_ROWS = ("b<=0,c>=0", "b<=0,c<0", "b>0,c>=0", "b>0,c_bar<c<0", "b>0,c=c_bar", "b>0,c<c_bar")


def _row_ray(row, n, m, exps, x, edge):
    """(b, c) of a ray in one case-table row: m > 0 sizes b and c, x in (0, 1)
    places c between c_bar and 0 or below c_bar, and edge puts b or c at 0."""
    if row.startswith("b<=0"):
        b = 0.0 if edge else -m
        return b, (0.0 if edge else x * m) if row.endswith("c>=0") else -x * m
    _, c_bar = K.extremal_pair(n, m, *exps)
    return m, {
        "b>0,c>=0": 0.0 if edge else x * m,
        "b>0,c_bar<c<0": x * c_bar,
        "b>0,c=c_bar": c_bar,
        "b>0,c<c_bar": c_bar / x,
    }[row]


@PROPERTY
@given(row=st.sampled_from(CASE_ROWS), n=MAGNITUDE, m=MAGNITUDE, exps=EXPONENTS,
       x=st.floats(0.01, 0.99), edge=st.booleans())
def test_one_branch_solves_the_same_root(row, n, m, exps, x, edge):
    """classify(..., branch=...) fills the requested slot bit for bit as the
    call without branch does, and leaves the other one NaN."""
    b, c = _row_ray(row, n, m, exps, x, edge)
    case, *roots = K.classify(n, b, *exps, c)
    for slot, branch in enumerate(("plus", "minus")):
        one_case, *one = K.classify(n, b, *exps, c, branch=branch)
        assert one_case == case
        assert struct.pack("<d", one[slot]) == struct.pack("<d", roots[slot])
        assert math.isnan(one[1 - slot])


def test_unknown_branch_raises():
    with pytest.raises(ValueError, match="branch must be"):
        K.classify(1.0, 1.0, 1.5, 2.0, 4.0, -0.01, branch="both")
