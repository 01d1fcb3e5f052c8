"""Fibering-map classification against independent oracles.

The main oracle is brute force: sample the scalar map on a wide log grid,
count sign changes of its derivative, and locate roots with scipy's brentq.
For the (eta, beta) = (2, 4) family the critical scalings also solve a
quadratic in t**2, giving closed forms to pin exact values.
"""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from fibercurve import (
    Case,
    Exponents,
    FiberingProfile,
    RayData,
    classify_and_solve,
    extremal_pair,
    fibering_d1,
    fibering_d2,
    fibering_value,
    ray_data,
    restricted_lambda,
    zero_level_pair,
)

E_TOY = Exponents(1.5, 2.0, 4.0)
TOY = RayData(n=1.0, a=1.0, b=1.0, exponents=E_TOY)


def g_scalar(ray, c, t):
    e = ray.exponents
    return ((e.eta - e.alpha) / e.eta * ray.n * t**e.eta
            - (e.beta - e.alpha) / e.beta * ray.b * t**e.beta + e.alpha * c)


def quadratic_roots_toy(c):
    """Closed-form critical scalings for (n, b) = (1, 1), (alpha,eta,beta) = (1.5,2,4).

    g(t) = 0.25 t^2 - 0.625 t^4 + 1.5 c, a quadratic in t^2.
    """
    disc = 0.0625 + 4.0 * 0.625 * 1.5 * c
    if disc < 0:
        return None
    s_minus = (0.25 - math.sqrt(disc)) / 1.25
    s_plus = (0.25 + math.sqrt(disc)) / 1.25
    return math.sqrt(s_minus), math.sqrt(s_plus)


class TestClosedFormToy:
    def test_extremal_pair(self):
        t_bar, c_bar = extremal_pair(TOY)
        # t_bar = sqrt((eta-alpha) n / ((beta-alpha) b)) = sqrt(0.2)
        assert t_bar == pytest.approx(math.sqrt(0.2), abs=1e-15)
        assert c_bar == pytest.approx(-1.0 / 60.0, abs=1e-15)

    def test_zero_level_pair_exact(self):
        t0, c0 = zero_level_pair(TOY)
        assert t0 == 1.0
        assert c0 == 0.25

    def test_two_roots_match_quadratic(self):
        c = -0.01
        tp_exact, tm_exact = quadratic_roots_toy(c)
        prof = classify_and_solve(TOY, c)
        assert prof.case is Case.TWO_ROOTS and not prof.degenerate
        assert prof.t_plus == pytest.approx(tp_exact, abs=1e-9)
        assert prof.t_minus == pytest.approx(tm_exact, abs=1e-9)
        # and the frozen digits themselves, so a regression is loud
        assert prof.t_plus == pytest.approx(0.27112523599485316, abs=1e-12)
        assert prof.t_minus == pytest.approx(0.5713940027745611, abs=1e-12)

    def test_unique_max_matches_quadratic(self):
        c = 0.02
        prof = classify_and_solve(TOY, c)
        assert prof.case is Case.UNIQUE_MAX and prof.t_plus is None
        disc = 0.0625 + 4.0 * 0.625 * 1.5 * c
        tm_exact = math.sqrt((0.25 + math.sqrt(disc)) / 1.25)
        assert prof.t_minus == pytest.approx(tm_exact, abs=1e-9)

    def test_degenerate_collision(self):
        t_bar, c_bar = extremal_pair(TOY)
        prof = classify_and_solve(TOY, c_bar)
        assert prof.degenerate
        assert prof.case is Case.TWO_ROOTS
        assert prof.t_plus == prof.t_minus == t_bar

    def test_below_extremal_no_roots(self):
        _, c_bar = extremal_pair(TOY)
        prof = classify_and_solve(TOY, c_bar * 1.01)
        assert prof.case is Case.NO_CRITICAL
        assert prof.t_plus is None and prof.t_minus is None


def draw_ray(rng):
    alpha = rng.uniform(1.05, 2.5)
    eta = rng.uniform(alpha + 0.1, alpha + 2.0)
    beta = rng.uniform(eta + 0.1, eta + 3.0)
    return RayData(
        n=rng.uniform(0.05, 10.0),
        a=rng.uniform(0.05, 5.0),
        b=rng.uniform(-6.0, 6.0),
        exponents=Exponents(alpha, eta, beta),
    )


def _g_samples(ray, c, t):
    e = ray.exponents
    return ((e.eta - e.alpha) / e.eta * ray.n * t**e.eta
            - (e.beta - e.alpha) / e.beta * ray.b * t**e.beta + e.alpha * c)


def brute_force_case(ray, c, n_grid=800):
    """Count sign changes of g from dense sampling; map the count to a case.

    Pure sampling: a log grid plus a few zoom rounds around the sampled
    maximum, so a narrow positive bump between two nearby roots is not
    stepped over.
    """
    t = np.logspace(-10, 10, n_grid)
    g = _g_samples(ray, c, t)
    tz, gz = t, g
    for _ in range(3):
        i = int(np.argmax(gz))
        lo = tz[max(i - 1, 0)]
        hi = tz[min(i + 1, len(tz) - 1)]
        tz = np.linspace(lo, hi, 801)
        gz = _g_samples(ray, c, tz)
        t = np.concatenate([t, tz])
        g = np.concatenate([g, gz])
    order = np.argsort(t)
    signs = np.sign(g[order])
    signs = signs[signs != 0]
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if ray.b <= 0.0:
        return Case.NO_CRITICAL if changes == 0 else Case.UNIQUE_MIN
    if c >= 0.0:
        return Case.UNIQUE_MAX
    return Case.TWO_ROOTS if changes == 2 else Case.NO_CRITICAL


def test_case_table_against_brute_force():
    rng = np.random.default_rng(20240816)
    checked = 0
    by_case = {}
    while checked < 10000:
        ray = draw_ray(rng)
        c = rng.uniform(-2.0, 2.0)
        if abs(c) < 1e-8:
            continue
        if ray.b > 0.0:
            t_bar, c_bar = extremal_pair(ray)
            # counting on a fixed log window needs the turning point inside it
            if not (1e-6 < t_bar < 1e6):
                continue
            # stay off the degenerate collision where counting is ill posed
            if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
                continue
        prof = classify_and_solve(ray, c)
        expected = brute_force_case(ray, c)
        assert prof.case is expected, (ray, c)
        by_case[prof.case] = by_case.get(prof.case, 0) + 1
        checked += 1
    assert set(by_case) == {Case.NO_CRITICAL, Case.UNIQUE_MIN,
                            Case.UNIQUE_MAX, Case.TWO_ROOTS}


def test_roots_against_brentq():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 2000:
        ray = draw_ray(rng)
        c = rng.uniform(-1.5, 1.5)
        if ray.b > 0.0:
            _, c_bar = extremal_pair(ray)
            if abs(c - c_bar) <= 1e-8 * (1.0 + abs(c_bar)):
                continue
        prof = classify_and_solve(ray, c)
        if prof.case is Case.NO_CRITICAL:
            checked += 1
            continue
        t_lo, t_hi = 1e-10, None
        if ray.b > 0.0:
            t_bar, _ = extremal_pair(ray)
            if prof.t_plus is not None:
                ref = brentq(lambda t: g_scalar(ray, c, t), 1e-14, t_bar,
                             xtol=1e-14, rtol=8.9e-16)
                assert prof.t_plus == pytest.approx(ref, rel=1e-9, abs=1e-9)
            hi = 2.0 * t_bar
            while g_scalar(ray, c, hi) > 0.0:
                hi *= 2.0
            ref = brentq(lambda t: g_scalar(ray, c, t), t_bar, hi,
                         xtol=1e-14, rtol=8.9e-16)
            assert prof.t_minus == pytest.approx(ref, rel=1e-9, abs=1e-9)
        else:
            hi = 1.0
            while g_scalar(ray, c, hi) < 0.0:
                hi *= 2.0
            ref = brentq(lambda t: g_scalar(ray, c, t), 1e-14, hi,
                         xtol=1e-14, rtol=8.9e-16)
            assert prof.t_plus == pytest.approx(ref, rel=1e-9, abs=1e-9)
        checked += 1


def test_morse_signs_and_value_ordering():
    """t_plus is a strict local minimum of the fiber, t_minus a maximum."""
    rng = np.random.default_rng(5)
    n_two = 0
    for _ in range(3000):
        ray = draw_ray(rng)
        c = rng.uniform(-1.0, 1.0)
        if ray.b > 0.0:
            _, c_bar = extremal_pair(ray)
            if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
                continue
        prof = classify_and_solve(ray, c)
        if prof.t_plus is not None and not prof.degenerate:
            assert fibering_d2(ray, c, prof.t_plus) > 0.0
        if prof.t_minus is not None and not prof.degenerate:
            assert fibering_d2(ray, c, prof.t_minus) < 0.0
        if prof.case is Case.TWO_ROOTS and not prof.degenerate:
            n_two += 1
            assert prof.t_plus < prof.t_minus
            assert fibering_value(ray, c, prof.t_plus) < fibering_value(ray, c, prof.t_minus)
    assert n_two > 100


def test_first_derivative_vanishes_at_roots():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        ray = draw_ray(rng)
        c = rng.uniform(-1.0, 1.0)
        if ray.b > 0.0:
            _, c_bar = extremal_pair(ray)
            if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
                continue
        prof = classify_and_solve(ray, c)
        e = ray.exponents
        for t in (prof.t_plus, prof.t_minus):
            if t is None:
                continue
            # |phi'(t)| relative to the size of its three terms
            scale = (e.alpha / abs(ray.a)) * t ** (-e.alpha - 1.0) * (
                (e.eta - e.alpha) / e.eta * ray.n * t**e.eta
                + abs((e.beta - e.alpha) / e.beta * ray.b) * t**e.beta
                + abs(e.alpha * c)
            )
            assert abs(fibering_d1(ray, c, t)) <= 1e-9 * scale


def test_restricted_lambda_matches_fiber_value():
    rng = np.random.default_rng(7)
    for _ in range(500):
        ray = draw_ray(rng)
        c = rng.uniform(-1.0, 1.0)
        if ray.b > 0.0:
            _, c_bar = extremal_pair(ray)
            if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
                continue
        prof = classify_and_solve(ray, c)
        for t in (prof.t_plus, prof.t_minus):
            if t is None:
                continue
            lam = restricted_lambda(ray, c, t)
            assert lam == pytest.approx(fibering_value(ray, c, t), rel=1e-9, abs=1e-12)


def test_restricted_lambda_rejects_non_roots():
    with pytest.raises(ValueError, match="not a critical scaling"):
        restricted_lambda(TOY, -0.01, 0.4)


def test_scaling_bound_on_t_plus():
    """For two-root levels, t_plus**eta <= alpha*eta*beta*|c| / ((eta-alpha)(beta-eta) n)."""
    rng = np.random.default_rng(8)
    n_checked = 0
    for _ in range(3000):
        ray = draw_ray(rng)
        if ray.b <= 0.0:
            continue
        _, c_bar = extremal_pair(ray)
        c = rng.uniform(c_bar, 0.0)
        if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
            continue
        prof = classify_and_solve(ray, c)
        if prof.case is not Case.TWO_ROOTS:
            continue
        e = ray.exponents
        bound = (e.alpha * e.eta * e.beta * abs(c)
                 / ((e.eta - e.alpha) * (e.beta - e.eta) * ray.n)) ** (1.0 / e.eta)
        assert prof.t_plus <= bound * (1.0 + 1e-12)
        n_checked += 1
    assert n_checked > 200


def test_extremal_c_is_scale_invariant():
    """c_bar depends on the ray, not the representative: c_bar(su) = c_bar(u)."""
    rng = np.random.default_rng(9)
    e = Exponents(1.5, 2.0, 4.0)
    for _ in range(100):
        n, b = rng.uniform(0.1, 5.0, 2)
        s = rng.uniform(0.1, 10.0)
        ray1 = RayData(n=n, a=1.0, b=b, exponents=e)
        ray2 = RayData(n=n * s**e.eta, a=s**e.alpha, b=b * s**e.beta, exponents=e)
        _, c1 = extremal_pair(ray1)
        _, c2 = extremal_pair(ray2)
        assert c2 == pytest.approx(c1, rel=1e-12)
        _, z1 = zero_level_pair(ray1)
        _, z2 = zero_level_pair(ray2)
        assert z2 == pytest.approx(z1, rel=1e-12)


def test_ray_data_validation():
    with pytest.raises(ValueError, match="n > 0"):
        RayData(n=0.0, a=1.0, b=1.0, exponents=E_TOY)
    with pytest.raises(ValueError, match="finite"):
        RayData(n=1.0, a=float("nan"), b=1.0, exponents=E_TOY)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"n": math.nan}, "ray data must be finite, got n=nan"),
        ({"n": math.inf}, "ray data must be finite, got n=inf"),
        ({"a": math.nan}, "ray data must be finite, got a=nan"),
        ({"a": -math.inf}, "ray data must be finite, got a=-inf"),
        ({"b": math.nan}, "ray data must be finite, got b=nan"),
        ({"b": math.inf}, "ray data must be finite, got b=inf"),
        # the first bad field is named
        ({"n": math.inf, "b": math.nan}, "ray data must be finite, got n=inf"),
        ({"n": 0.0}, "ray data needs n > 0 (coercive part), got n=0.0"),
        ({"n": -1.0}, "ray data needs n > 0 (coercive part), got n=-1.0"),
    ],
    ids=["n_nan", "n_inf", "a_nan", "a_neg_inf", "b_nan", "b_inf", "n_and_b",
         "n_zero", "n_negative"],
)
def test_ray_data_rejects_bad_fields(fields, message):
    data = {"n": 1.0, "a": 1.0, "b": 1.0, **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RayData(exponents=E_TOY, **data)


class TestRecordContract:
    """RayData and FiberingProfile are immutable named tuples."""

    def test_fields_and_default(self):
        assert RayData._fields == ("n", "a", "b", "exponents")
        assert FiberingProfile._fields == ("case", "t_plus", "t_minus", "degenerate")
        assert FiberingProfile._field_defaults == {"degenerate": False}
        assert FiberingProfile(Case.NO_CRITICAL, None, None).degenerate is False

    def test_keyword_and_positional_construction_agree(self):
        assert RayData(2.0, 0.5, -1.0, E_TOY) == RayData(n=2.0, a=0.5, b=-1.0, exponents=E_TOY)
        assert (FiberingProfile(Case.TWO_ROOTS, 0.1, 0.2, True)
                == FiberingProfile(case=Case.TWO_ROOTS, t_plus=0.1, t_minus=0.2, degenerate=True))
        # a named tuple equals the plain tuple of its fields
        assert TOY == (1.0, 1.0, 1.0, E_TOY)
        assert type(TOY._replace(b=-1.0)) is RayData

    def test_replace_checks_the_fields(self):
        with pytest.raises(ValueError, match="must be finite, got b=nan"):
            TOY._replace(b=math.nan)
        with pytest.raises(ValueError, match="needs n > 0"):
            TOY._replace(n=0.0)

    @pytest.mark.parametrize("field", ["n", "a", "b", "exponents"])
    def test_ray_data_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(TOY, field, 2.0)

    @pytest.mark.parametrize("field", ["case", "t_plus", "t_minus", "degenerate"])
    def test_profile_fields_are_read_only(self, field):
        prof = classify_and_solve(TOY, -0.01)
        with pytest.raises(AttributeError):
            setattr(prof, field, None)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            TOY.extra = 1.0
        with pytest.raises(AttributeError):
            classify_and_solve(TOY, -0.01).extra = 1.0


@pytest.mark.parametrize(
    "c,t_root",
    [(-0.01, math.nan), (-0.01, math.inf), (math.nan, 0.5), (math.inf, 0.5), (-0.01, 0.0)],
    ids=["t_nan", "t_inf", "c_nan", "c_inf", "t_zero"],
)
def test_restricted_lambda_rejects_non_finite_input(c, t_root):
    ray = RayData(1.0, 1.0, 1.0, E_TOY)
    with pytest.raises(ValueError, match="needs a finite c and a finite t > 0"):
        restricted_lambda(ray, c, t_root)


def test_classify_rejects_nonpositive_a():
    ray = RayData(n=1.0, a=-1.0, b=1.0, exponents=E_TOY)
    with pytest.raises(ValueError, match="sign normalization upstream"):
        classify_and_solve(ray, -0.01)


def test_ray_data_from_triple(pos_triple):
    rng = np.random.default_rng(10)
    u = rng.standard_normal(pos_triple.dim)
    ray = ray_data(pos_triple, u)
    assert ray.n == pytest.approx(pos_triple.eval_N(u))
    assert ray.a == pytest.approx(pos_triple.eval_A(u))
    assert ray.b == pytest.approx(pos_triple.eval_B(u))
    assert ray.exponents == pos_triple.exponents
