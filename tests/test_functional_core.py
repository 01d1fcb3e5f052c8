import math

import numpy as np
import pytest

from conftest import level_evaluation
from fibercurve import (
    ConeTag,
    Exponents,
    FunctionalTriple,
    SphereConstraint,
    cone_membership,
    lambda_of,
    phi,
    phi_grad,
)
from fibercurve.functional_core import _CONE_RTOL, _inside_cone


def power_triple(wn, wa, wb, alpha=1.5, eta=2.0, beta=4.0):
    """Dense hand-built triple: sums of signed powers of the coefficients."""
    wn = np.asarray(wn, dtype=float)
    wa = np.asarray(wa, dtype=float)
    wb = np.asarray(wb, dtype=float)

    def term(w, p):
        def value(u):
            return float(np.sum(w * np.abs(u) ** p))

        def grad(u):
            return p * w * np.abs(u) ** (p - 1.0) * np.sign(u)

        return value, grad

    n_val, n_grad = term(wn, eta)
    a_val, a_grad = term(wa, alpha)
    b_val, b_grad = term(wb, beta)
    return FunctionalTriple(
        exponents=Exponents(alpha, eta, beta),
        dim=wn.size,
        eval_N=n_val, eval_A=a_val, eval_B=b_val,
        grad_N=n_grad, grad_A=a_grad, grad_B=b_grad,
    )


TOY = power_triple([1.0, 2.0, 0.5], [1.0, -0.5, 0.25], [0.5, 1.5, -1.0])


class TestExponents:
    def test_ordering_message(self):
        with pytest.raises(ValueError) as exc:
            Exponents(2.0, 1.5, 4.0)
        assert "exponent ordering violated: need 1 < alpha < eta < beta" in str(exc.value)

    @pytest.mark.parametrize("bad", [(1.0, 2.0, 4.0), (1.5, 1.5, 4.0), (1.5, 4.0, 4.0),
                                     (0.5, 2.0, 4.0)])
    def test_rejects_bad_orderings(self, bad):
        with pytest.raises(ValueError):
            Exponents(*bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Exponents(1.5, 2.0, float("inf"))

    def test_accepts_valid(self):
        e = Exponents(1.5, 2.0, 4.0)
        assert (e.alpha, e.eta, e.beta) == (1.5, 2.0, 4.0)


class TestConeTag:
    def test_a_sign(self):
        assert ConeTag.A_POS.a_sign == 1.0
        assert ConeTag.A_POS_B_POS.a_sign == 1.0
        assert ConeTag.A_NEG.a_sign == -1.0
        assert ConeTag.A_NEG_B_POS.a_sign == -1.0

    def test_needs_b_pos(self):
        assert not ConeTag.A_POS.needs_b_pos
        assert ConeTag.A_POS_B_POS.needs_b_pos
        assert not ConeTag.A_NEG.needs_b_pos
        assert ConeTag.A_NEG_B_POS.needs_b_pos


def test_homogeneity_and_evenness():
    rng = np.random.default_rng(0)
    e = TOY.exponents
    for _ in range(200):
        u = rng.standard_normal(TOY.dim)
        s = rng.uniform(0.1, 10.0)
        for val, deg in ((TOY.eval_N, e.eta), (TOY.eval_A, e.alpha), (TOY.eval_B, e.beta)):
            ref = val(u)
            assert val(s * u) == pytest.approx(s**deg * ref, rel=1e-12, abs=1e-300)
            assert val(-u) == ref


def test_euler_identity():
    """Homogeneous functionals satisfy <grad F, u> = deg * F(u)."""
    rng = np.random.default_rng(1)
    e = TOY.exponents
    for _ in range(200):
        u = rng.standard_normal(TOY.dim)
        for val, grad, deg in (
            (TOY.eval_N, TOY.grad_N, e.eta),
            (TOY.eval_A, TOY.grad_A, e.alpha),
            (TOY.eval_B, TOY.grad_B, e.beta),
        ):
            lhs = float(np.dot(grad(u), u))
            rhs = deg * val(u)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def test_lambda_of_places_u_at_level():
    rng = np.random.default_rng(2)
    for _ in range(300):
        u = rng.standard_normal(TOY.dim)
        if TOY.eval_A(u) == 0.0:
            continue
        c = rng.uniform(-5.0, 5.0)
        lam = lambda_of(TOY, c, u)
        assert phi(TOY, lam, u) == pytest.approx(c, rel=1e-10, abs=1e-10)


def test_lambda_of_zero_a_raises():
    tri = power_triple([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ZeroDivisionError, match="A\\(u\\) = 0"):
        lambda_of(tri, -0.01, np.array([1.0, 2.0]))


def test_phi_grad_is_fd_gradient():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(20):
        u = rng.standard_normal(TOY.dim) + 2.0 * np.sign(rng.standard_normal(TOY.dim))
        u[np.abs(u) < 0.5] = 0.7  # keep away from the |.|^alpha kink
        lam = rng.uniform(-2.0, 2.0)
        g = phi_grad(TOY, lam, u)
        for i in range(TOY.dim):
            step = np.zeros(TOY.dim)
            step[i] = h
            fd = (phi(TOY, lam, u + step) - phi(TOY, lam, u - step)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)


def test_with_negated_a_flips_sign_bit_exactly():
    rng = np.random.default_rng(4)
    flipped = TOY.with_negated_a()
    for _ in range(100):
        u = rng.standard_normal(TOY.dim)
        lam = rng.uniform(-3.0, 3.0)
        assert flipped.eval_A(u) == -TOY.eval_A(u)
        assert np.array_equal(flipped.grad_A(u), -np.asarray(TOY.grad_A(u)))
        # phi(lam, u; A) == phi(-lam, u; -A), exactly
        assert phi(TOY, lam, u) == phi(flipped, -lam, u)


def test_norm_of_default():
    u = np.array([1.0, 2.0, -0.5])
    e = TOY.exponents
    assert TOY.norm_of(u) == TOY.eval_N(u) ** (1.0 / e.eta)


def test_toy_triple_has_identity_metric():
    # the default metric pair is M = I: sphere descent runs in the Euclidean
    # coefficient metric
    u = np.array([1.0, 2.0, -0.5])
    for triple in (TOY, TOY.with_negated_a()):
        apply, solve = triple.metric_at(u)
        assert apply(u) is u
        assert solve(u) is u


def test_cone_membership_margins():
    tri = power_triple([1.0, 1.0], [1.0, -1.0], [1.0, -1.0])
    u_pos = np.array([2.0, 0.5])   # A > 0, B > 0
    u_neg = np.array([0.5, 2.0])   # A < 0, B < 0
    ok, margin = cone_membership(tri, ConeTag.A_POS, u_pos)
    assert ok and margin == pytest.approx(tri.eval_A(u_pos))
    ok, margin = cone_membership(tri, ConeTag.A_NEG, u_neg)
    assert ok and margin == pytest.approx(-tri.eval_A(u_neg))
    ok, _ = cone_membership(tri, ConeTag.A_POS_B_POS, u_neg)
    assert not ok
    ok, margin = cone_membership(tri, ConeTag.A_NEG_B_POS, u_neg)
    assert not ok and margin == pytest.approx(tri.eval_B(u_neg))
    # the zero vector is never a member
    ok, margin = cone_membership(tri, ConeTag.A_POS, np.zeros(2))
    assert not ok and margin == 0.0


@pytest.mark.parametrize("tag", [ConeTag.A_POS, ConeTag.A_NEG], ids=["a_pos", "a_neg"])
@pytest.mark.parametrize(
    "a, inside",
    [(0.5 * _CONE_RTOL, False), (_CONE_RTOL * (1.0 + _CONE_RTOL), False),
     (1.01 * _CONE_RTOL, True)],
    ids=["within_margin", "at_margin", "past_margin"],
)
def test_one_cone_rule(tag, a, inside):
    """Membership, SphereConstraint.feasible and the ground objective agree:
    a sign-adjusted A in (0, _CONE_RTOL (1 + |A|)] is the boundary, outside."""
    tri = power_triple([1.0], [tag.a_sign * a], [1.0])
    u = np.array([1.0])
    member, margin = cone_membership(tri, tag, u)
    assert margin == a
    assert member is inside
    constraint = SphereConstraint(tri, tag=tag)
    assert constraint.feasible(u) is inside
    value = level_evaluation(constraint, -0.01, "plus")(u).value
    assert math.isfinite(value) is inside


def test_phi_rejects_non_finite_data():
    bad = power_triple([1.0, np.nan], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        phi(bad, 0.5, np.array([1.0, 1.0]))


def test_gradient_and_parameter_reject_non_finite_data():
    bad = power_triple([1.0, np.nan], [1.0, 1.0], [1.0, 1.0])
    u = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite energy gradient"):
        phi_grad(bad, 0.5, u)
    with pytest.raises(ValueError, match="non-finite parameter value"):
        lambda_of(bad, -0.01, u)


@pytest.mark.parametrize(
    "a, b, inside",
    [(1e16, 0.1, True), (0.1, 1e16, True), (1.0, 1e-13, False), (1e-13, 1.0, False)],
    ids=["large_a", "large_b", "small_b", "small_a"],
)
def test_each_cone_scalar_meets_its_own_margin(a, b, inside):
    """A scalar's margin grows with its own magnitude alone: a large A moves
    no B margin, and a B within 1e-12 of 0 is outside whatever A is."""
    assert _inside_cone(a, b) is inside


def test_identities_on_discretized_triples(pos_triple, two_d_triple, truncated_triple):
    """The grid-built triples obey the same structural identities."""
    rng = np.random.default_rng(5)
    for tri in (pos_triple, two_d_triple, truncated_triple):
        e = tri.exponents
        for _ in range(50):
            u = rng.standard_normal(tri.dim)
            s = rng.uniform(0.2, 5.0)
            for val, grad, deg in (
                (tri.eval_N, tri.grad_N, e.eta),
                (tri.eval_A, tri.grad_A, e.alpha),
                (tri.eval_B, tri.grad_B, e.beta),
            ):
                f = val(u)
                assert val(s * u) == pytest.approx(s**deg * f, rel=1e-10, abs=1e-12)
                assert val(-u) == pytest.approx(f, rel=1e-12, abs=1e-12)
                assert float(np.dot(grad(u), u)) == pytest.approx(deg * f, rel=1e-9, abs=1e-9)
            if tri.eval_A(u) != 0.0:
                c = rng.uniform(-2.0, 2.0)
                lam = lambda_of(tri, c, u)
                assert phi(tri, lam, u) == pytest.approx(c, rel=1e-9, abs=1e-9)
