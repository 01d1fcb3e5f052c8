"""Level minimization, thresholds, surrogate levels, and their certification."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import fibercurve.nehari_minmax as nm
from conftest import (
    count_multistart_purposes,
    level_evaluation,
    random_cone_point,
    record_acceptance_line,
)
from fibercurve import _kernels as K
from fibercurve.curve_tracer import EnergyCurve, _LevelChain, trace_family
from fibercurve.fibering import classify_and_solve, ray_data, restricted_lambda
from fibercurve.functional_core import ConeTag, FunctionalTriple, phi
from fibercurve.model_problems import (
    build_disjoint_basis,
    build_triple,
    cone_node_mask,
    dirichlet_problem_1d,
    dirichlet_problem_2d,
    truncated_problem_1d,
)
from fibercurve.nehari_minmax import (
    GenusSurrogate,
    InfeasibleLevelError,
    InfeasibleRayError,
    OptimizerParams,
    SphereConstraint,
    SurrogateInvalidError,
    compute_c_star,
    compute_c_star_star,
    extract_critical_point,
    lambda_tilde,
    minimize_c0,
    minimize_ground_level,
    surrogate_level,
)
from fibercurve.reporting import curve_rows

# weight of the intersect benchmark's minus-branch instance (a = b)
_MINUS_WEIGHT = "0.5*(sin(2*pi*x)-0.5+abs(sin(2*pi*x)-0.5))"


def one_dof_triple(alpha=1.5, eta=2.0, beta=4.0):
    """Scalar model: N = u^2, A = |u|^alpha, B = u^4; the sphere is {-1, +1}."""
    from fibercurve.functional_core import Exponents

    return FunctionalTriple(
        exponents=Exponents(alpha, eta, beta),
        dim=1,
        eval_N=lambda u: float(u[0] ** 2),
        eval_A=lambda u: float(abs(u[0]) ** alpha),
        eval_B=lambda u: float(u[0] ** 4),
        grad_N=lambda u: 2.0 * np.asarray(u, dtype=float),
        grad_A=lambda u: alpha * np.abs(u) ** (alpha - 1.0) * np.sign(u),
        grad_B=lambda u: 4.0 * np.asarray(u, dtype=float) ** 3,
    )


class TestLambdaTilde:
    def test_energy_identity_at_critical_scaling(self, pos_con_plus):
        rng = np.random.default_rng(11)
        tri = pos_con_plus.triple
        checked = 0
        while checked < 50:
            u = random_cone_point(pos_con_plus, rng)
            for c, branch in ((-0.05, "plus"), (-0.05, "minus")):
                try:
                    lam, t = lambda_tilde(pos_con_plus, c, branch, u)
                except InfeasibleRayError:
                    continue
                value = phi(tri, lam, t * u)
                # the identity cancels terms of size T down to c, so the
                # floating floor scales with T (rays with tiny B put the
                # minus root far out and T reaches 1e6)
                e = tri.exponents
                terms = (
                    float(tri.eval_N(u)) * t**e.eta / e.eta
                    + abs(lam) * abs(float(tri.eval_A(u))) * t**e.alpha / e.alpha
                    + abs(float(tri.eval_B(u))) * t**e.beta / e.beta
                )
                assert value == pytest.approx(c, abs=1e-12 * (1.0 + abs(c) + terms))
                checked += 1

    def test_branch_ordering_on_shared_ray(self, const_con_plus):
        u = np.ones(const_con_plus.triple.dim)
        u = u / const_con_plus.triple.norm_of(u)
        lam_p, t_p = lambda_tilde(const_con_plus, -0.01, "plus", u)
        lam_m, t_m = lambda_tilde(const_con_plus, -0.01, "minus", u)
        assert t_p < t_m
        assert lam_p < lam_m

    def test_infeasible_branch_raises(self, const_con_plus):
        u = np.ones(const_con_plus.triple.dim)
        with pytest.raises(InfeasibleRayError, match="no plus-branch"):
            lambda_tilde(const_con_plus, 0.1, "plus", u)

    def test_bad_branch_name(self, const_con_plus):
        u = np.ones(const_con_plus.triple.dim)
        with pytest.raises(ValueError, match="branch must be one of"):
            lambda_tilde(const_con_plus, -0.01, "up", u)

    def test_bad_branch_name_checked_before_the_ray(self, const_con_plus):
        # the zero ray raises InfeasibleRayError (N = 0) if the branch is
        # validated only after the ray scalars
        u = np.zeros(const_con_plus.triple.dim)
        with pytest.raises(ValueError, match="branch must be one of"):
            lambda_tilde(const_con_plus, -0.01, "foo", u)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_agrees_with_fibering_profile(self, pos_con_plus, branch):
        # the public fibering path: classify_and_solve's root, then the
        # cross-checked restricted_lambda, on the same ray
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            u = random_cone_point(pos_con_plus, rng)
            ray = ray_data(pos_con_plus.working, u)
            for c in (-0.2, -0.05, -0.005, 0.05):
                profile = classify_and_solve(ray, c)
                t_ref = profile.t_plus if branch == "plus" else profile.t_minus
                if t_ref is None:
                    with pytest.raises(InfeasibleRayError):
                        lambda_tilde(pos_con_plus, c, branch, u)
                    continue
                lam_ref = pos_con_plus.lambda_sign * restricted_lambda(ray, c, t_ref)
                lam, t = lambda_tilde(pos_con_plus, c, branch, u)
                assert t == t_ref
                assert lam == pytest.approx(lam_ref, rel=1e-10)
                checked += 1
        assert checked >= 40


class TestLevelSlope:
    def test_matches_finite_difference(self, pos_con_plus):
        rng = np.random.default_rng(7)
        c = -0.05
        dc = 1e-6
        checked = 0
        draws = 0
        while checked < 20 and draws < 500:
            draws += 1
            u = random_cone_point(pos_con_plus, rng)
            levels = {}
            for branch in ("plus", "minus"):
                try:
                    levels[branch] = lambda_tilde(pos_con_plus, c, branch, u)[0]
                except InfeasibleRayError:
                    pass
            if len(levels) == 2:
                tp = lambda_tilde(pos_con_plus, c, "plus", u)[1]
                tm = lambda_tilde(pos_con_plus, c, "minus", u)[1]
                if tm < 2.0 * tp:
                    # nearly coalesced roots: the level curvature in c blows
                    # up and a finite difference cannot resolve the slope
                    continue
            for branch, lam0 in levels.items():
                slope = extract_critical_point(pos_con_plus, c, branch, u).slope
                if abs(slope) * dc < 1e-11 * (1.0 + abs(lam0)):
                    # difference quotient numerator sits at the rounding
                    # floor of lam itself (huge level, flat slope)
                    continue
                hi, _ = lambda_tilde(pos_con_plus, c + dc, branch, u)
                lo, _ = lambda_tilde(pos_con_plus, c - dc, branch, u)
                fd = (hi - lo) / (2.0 * dc)
                assert slope == pytest.approx(fd, rel=1e-4)
                assert slope < 0.0
                checked += 1
        assert checked >= 10

    def test_negative_cone_flips_slope(self, signed_problem):
        tri = build_triple(signed_problem)
        con = SphereConstraint(triple=tri, tag=ConeTag.A_NEG)
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 10:
            g = rng.standard_normal(tri.dim)
            u = g / tri.norm_of(g)
            if not con.feasible(u):
                u = -np.abs(u) / tri.norm_of(np.abs(u))
                if not con.feasible(u):
                    continue
            try:
                slope = extract_critical_point(con, -0.05, "plus", u).slope
            except InfeasibleRayError:
                continue
            assert slope > 0.0
            checked += 1

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_surrogate_level_slope_is_danskin(self, signed_problem, signed_con_both, branch):
        # The k >= 2 surrogate is a maximum over a c-free set of rays, so its
        # c-derivative is the ray slope at the maximizer (Danskin); the
        # intersection Newton step relies on this.
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 2)
        surrogate = GenusSurrogate(signed_con_both, basis, n_samples=16)
        c, dc = -0.05, 1e-5
        slope = surrogate_level(surrogate, c, branch).record.slope
        hi = surrogate_level(surrogate, c + dc, branch).record.lam
        lo = surrogate_level(surrogate, c - dc, branch).record.lam
        assert slope == pytest.approx((hi - lo) / (2.0 * dc), rel=1e-3)

    @pytest.mark.parametrize(
        "a_expr,p,tag,branch,c,dc",
        [
            ("1+x", 2.0, ConeTag.A_POS, "plus", -0.05, 1e-5),
            ("1+x", 2.0, ConeTag.A_POS_B_POS, "minus", 5.0, 1e-4),
            ("1+x", 3.0, ConeTag.A_POS, "plus", -0.05, 1e-5),
            ("-(1+x)", 2.0, ConeTag.A_NEG, "plus", -0.05, 1e-5),
            ("-(1+x)", 2.0, ConeTag.A_NEG_B_POS, "minus", 5.0, 1e-4),
        ],
        ids=["p2_plus", "p2_minus", "p3_plus", "a_flipped_plus", "a_flipped_minus"],
    )
    def test_ground_level_slope_is_danskin(self, a_expr, p, tag, branch, c, dc):
        # The ground level is a minimum over a c-free set of rays, so its
        # c-derivative is the ray slope at the minimizer (Danskin); the k = 1
        # intersection Newton step relies on this.  The neighbouring levels
        # are warm-started from the minimizer at c.
        problem = dirichlet_problem_1d(31, a_expr, "cos(2*pi*x)+0.2", p=p, alpha=1.5, beta=4.0)
        con = SphereConstraint(triple=build_triple(problem), tag=tag)
        _, record = minimize_ground_level(con, c, branch, multistart=4)
        warm = [record.coefficients / record.t_root]
        hi, _ = minimize_ground_level(con, c + dc, branch, multistart=4, extra_starts=warm)
        lo, _ = minimize_ground_level(con, c - dc, branch, multistart=4, extra_starts=warm)
        assert record.slope == pytest.approx((hi - lo) / (2.0 * dc), rel=1e-6)
        # reported levels fall with c on A-positive cones and rise on A-negative ones
        assert record.slope * tag.a_sign < 0.0


class TestWarmStartAtRoundingFloor:
    def test_warm_start_converges(self, monkeypatch):
        # A warm start from the minimizer at a nearby level begins at the
        # rounding floor of the level value: the Armijo decrease it asks for
        # (about 1e-20) is far below ulp(lambda), so the line search cannot
        # end the descent.  The relative stopping test does, at a residual
        # the rounding floor already meets, well before max_iter = 5000.
        expr = "0.5*(sin(2*pi*x)-0.5+abs(sin(2*pi*x)-0.5))"
        tri = build_triple(dirichlet_problem_1d(31, expr, expr))
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS_B_POS)
        c0 = 60.0
        _, cold = minimize_ground_level(con, c0, "minus", multistart=8, seed=0)
        residuals = []
        descend = nm._sphere_descend

        def recording(*args, **kwargs):
            out = descend(*args, **kwargs)
            residuals.append(out.residual)
            return out

        monkeypatch.setattr(nm, "_sphere_descend", recording)
        _, warm = minimize_ground_level(
            con, c0 * (1.0 + 1e-7), "minus", multistart=0,
            extra_starts=[cold.coefficients / cold.t_root],
        )
        assert warm.converged
        # stopped by the relative stopping test itself, not at max_iter or
        # by an exhausted line search short of it
        assert residuals[0] <= nm._STOP_RTOL
        assert warm.iterations <= 50
        assert warm.residual_grad <= 1e-6

    def test_warm_p3_level_converges(self):
        # A p = 3 level warm-started from the minimizer 1e-5 away in c.  An
        # absolute stop ||g|| <= 1e-8 ended its descent at the rounding floor
        # of the level at ||g|| = 1.2e-7, unconverged although its residual
        # of 8.3e-8 certifies; the relative test stops it converged, at the
        # same level.
        problem = dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=3.0, alpha=1.5, beta=4.0)
        tag = ConeTag.A_POS
        con = SphereConstraint(
            build_triple(problem), tag=tag, start_support=cone_node_mask(problem, tag)
        )
        _, record = minimize_ground_level(con, -0.05, "plus", multistart=4)
        lam, warm = minimize_ground_level(
            con, -0.04999, "plus", multistart=4,
            extra_starts=[record.coefficients / record.t_root],
        )
        assert warm.converged
        assert warm.residual_grad <= nm._CERTIFY_RTOL
        assert lam == pytest.approx(1.6509135756581086, rel=1e-12)


    def test_warm_p3_descent_stays_below_its_window(self, monkeypatch):
        # The Armijo reference is the largest of the last _WINDOW measured
        # values, with no allowance for rounding, so every value a descent
        # measures lies strictly below it.  With a 4-ulp allowance the warm
        # descent accepted 1.6509135756581166 over its start's
        # 1.6509135756581157 at iteration 1.
        problem = dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=3.0, alpha=1.5, beta=4.0)
        tag = ConeTag.A_POS
        con = SphereConstraint(
            build_triple(problem), tag=tag, start_support=cone_node_mask(problem, tag)
        )
        _, record = minimize_ground_level(con, -0.05, "plus", multistart=4)
        descents = []
        descend = nm._sphere_descend

        def measuring(metric_at, evaluate, start, params, *, merge):
            measured = []
            descents.append(measured)

            def wrap(point):
                def gradient():
                    measured.append(point.value)
                    return point.gradient()

                return point._replace(gradient=gradient)

            return descend(metric_at, lambda v: wrap(evaluate(v)), wrap(start), params, merge=merge)

        monkeypatch.setattr(nm, "_sphere_descend", measuring)
        minimize_ground_level(
            con, -0.04999, "plus", multistart=4,
            extra_starts=[record.coefficients / record.t_root],
        )
        assert descents and all(descents)
        for measured in descents:
            for i in range(1, len(measured)):
                assert measured[i] < max(measured[max(0, i - nm._WINDOW):i])


class TestArmijoIsStrict:
    def test_an_equal_value_is_not_a_decrease(self):
        # Every trial of a flat objective equals the reference.  Once the
        # asked-for decrease c1 step grad^T d is below half an ulp of the
        # value, reference - decrease rounds to the reference; the test on
        # the difference trial - reference still rejects the trial, so the
        # line search is exhausted at the start instead of moving on.
        def evaluate(v):
            nrm = float(np.linalg.norm(v))
            u = v / nrm
            tangent = 1e-3 * np.array([-u[1], u[0]])
            return nm.SpherePoint(u, nrm, 1.0, lambda: (tangent, 1.0))

        start = evaluate(np.array([1.0, 0.0]))
        identity = (lambda v: v, lambda g: g)
        out = nm._sphere_descend(
            lambda u: identity, evaluate, start, OptimizerParams(max_iter=50),
            merge=lambda u, value: False,
        )
        assert out.iterations == 1
        assert np.array_equal(out.u, start.u)


class TestStopIsTheCertificate:
    @pytest.mark.parametrize(
        "a_expr,tag,branch,c",
        [
            ("1+x", ConeTag.A_POS, "plus", -0.01),
            ("1+x", ConeTag.A_POS_B_POS, "minus", 5.0),
            ("-(1+x)", ConeTag.A_NEG, "plus", -0.05),
        ],
        ids=["plus", "minus", "a_flipped_plus"],
    )
    def test_descent_residual_is_the_records(self, monkeypatch, a_expr, tag, branch, c):
        # The gradient's norm over its largest chain-rule term is the
        # residual_grad of the record at the descent's end: the level's
        # partials carry the energy gradient's terms times one factor.
        problem = dirichlet_problem_1d(31, a_expr, "cos(2*pi*x)+0.2")
        con = SphereConstraint(build_triple(problem), tag=tag)
        descents = recording_descents(monkeypatch)
        _, record = minimize_ground_level(con, c, branch, multistart=4)
        ends = [out for _, _, out, merged in descents if not merged]
        assert ends
        for out in ends:
            assert out.residual <= nm._STOP_RTOL
            certificate = extract_critical_point(con, c, branch, out.u).residual_grad
            assert out.residual == pytest.approx(certificate, rel=1e-2)
        best = min(ends, key=lambda out: out.value)
        assert best.residual == pytest.approx(record.residual_grad, rel=1e-2)

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_capped_descent_residual_is_the_records(self, monkeypatch, max_iter):
        # A descent cut at max_iter stops at the last point it measured, with
        # that point's residual.  Stopping one step later, at a point never
        # measured, it reported the residual of the point before: 0.751
        # against the record's 0.972 at max_iter 1.
        problem = dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2")
        con = SphereConstraint(build_triple(problem), tag=ConeTag.A_POS)
        descents = recording_descents(monkeypatch)
        _, record = minimize_ground_level(
            con, -0.01, "plus", multistart=1, params=OptimizerParams(max_iter=max_iter)
        )
        ((_, _, out, merged),) = descents
        assert not merged
        assert out.iterations == max_iter
        assert out.residual > nm._CERTIFY_RTOL
        assert not record.converged
        assert out.residual == pytest.approx(record.residual_grad, rel=1e-2)


class TestOneVerdict:
    """A record is converged iff its own residual_grad meets _CERTIFY_RTOL,
    whatever stopped the descent that found it."""

    def test_refine_p3_truncated_level_converges(self):
        # The refine benchmark's trunc_p3_n161 instance.  A stop at the
        # rounding floor, where the last ten values spanned 4 ulps, ended its
        # best descent at residual 7.5e-7; the relative test ends it three
        # iterations later at 8.3e-9, 5 ulps away in the level.
        problem = truncated_problem_1d(161, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0)
        con = SphereConstraint(build_triple(problem), tag=ConeTag.A_POS)
        lam, record = minimize_ground_level(con, -0.01, "plus", multistart=2, seed=0)
        assert record.converged
        assert record.residual_grad <= nm._STOP_RTOL
        assert lam == pytest.approx(0.15843253329002716, rel=1e-14)

    def test_capped_level_converges_by_its_residual(self):
        # Cut at max_iter 12 and 13 the level's residual is 7.0e-7 and
        # 7.1e-8, within the certificate's bound: both are converged, and
        # at 13 the level is the converged one to the last digit.  A stop at
        # max_iter reported them not converged.
        problem = dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2")
        con = SphereConstraint(build_triple(problem), tag=ConeTag.A_POS)
        converged = []
        for max_iter in range(1, 15):
            _, record = minimize_ground_level(
                con, -0.01, "plus", multistart=1, seed=0,
                params=OptimizerParams(max_iter=max_iter),
            )
            assert record.converged == (record.residual_grad <= nm._CERTIFY_RTOL)
            converged.append(record.converged)
        assert converged[11] and converged[12]


class TestBranchCheck:
    """Every entry point that takes a branch rejects any but plus and minus
    before it reads a ray, here the zero ray, whose N = 0 raises otherwise."""

    @pytest.mark.parametrize("branch", [None, "foo"])
    @pytest.mark.parametrize(
        "entry", ["extract_critical_point", "lambda_tilde", "ground", "surrogate"]
    )
    def test_other_branches_raise(self, const_con_plus, entry, branch):
        dim = const_con_plus.triple.dim
        zero = np.zeros(dim)
        solves = {
            "extract_critical_point": lambda: extract_critical_point(
                const_con_plus, -0.01, branch, zero
            ),
            "lambda_tilde": lambda: lambda_tilde(const_con_plus, -0.01, branch, zero),
            "ground": lambda: minimize_ground_level(
                const_con_plus, -0.01, branch, multistart=0, extra_starts=[zero]
            ),
            "surrogate": lambda: surrogate_level(
                GenusSurrogate(const_con_plus, np.ones((1, dim)), n_samples=4),
                -0.01, branch, warm_xi=[np.zeros(1)],
            ),
        }
        with pytest.raises(ValueError, match=r"branch must be one of \('plus', 'minus'\)"):
            solves[entry]()


class TestOptimizerParams:
    @pytest.mark.parametrize("max_iter", [0, -5, math.nan])
    def test_max_iter_below_one_raises(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            OptimizerParams(max_iter=max_iter)


class TestGroundLevelRegression:
    """Frozen multistart results; deterministic given (fixture, seed)."""

    def test_const_plus(self, const_con_plus):
        lam, rec = minimize_ground_level(const_con_plus, -0.01, "plus")
        assert lam == pytest.approx(2.9366380969186943, rel=1e-5)
        assert rec.converged

    def test_const_minus(self, const_con_plus):
        lam, rec = minimize_ground_level(const_con_plus, -0.01, "minus")
        assert lam == pytest.approx(8.056866335418936, rel=1e-5)

    def test_pos_plus(self, pos_con_plus):
        lam, _ = minimize_ground_level(pos_con_plus, -0.01, "plus")
        assert lam == pytest.approx(1.950072010888613, rel=1e-5)

    def test_signed_plus(self, signed_con_plus):
        lam, _ = minimize_ground_level(signed_con_plus, -0.01, "plus")
        assert lam == pytest.approx(5.610604726035698, rel=1e-5)

    def test_two_d_plus(self, two_d_problem):
        con = SphereConstraint(triple=build_triple(two_d_problem), tag=ConeTag.A_POS)
        lam, _ = minimize_ground_level(con, -0.01, "plus")
        assert lam == pytest.approx(4.166728595679652, rel=1e-5)

    def test_truncated_plus(self, truncated_problem):
        con = SphereConstraint(triple=build_triple(truncated_problem), tag=ConeTag.A_POS)
        lam, _ = minimize_ground_level(con, -0.01, "plus")
        assert lam == pytest.approx(0.15889784991511852, rel=1e-5)

    def test_determinism(self, const_con_plus):
        lam1, rec1 = minimize_ground_level(const_con_plus, -0.01, "plus", multistart=4)
        lam2, rec2 = minimize_ground_level(const_con_plus, -0.01, "plus", multistart=4)
        assert lam1 == lam2
        assert np.array_equal(rec1.coefficients, rec2.coefficients)

    def test_record_certification_fields(self, const_con_plus):
        lam, rec = minimize_ground_level(const_con_plus, -0.01, "plus")
        tri = const_con_plus.triple
        assert rec.lam == lam
        assert rec.branch == "plus" and rec.k == 1
        assert rec.residual_grad <= 1e-6
        assert rec.energy_defect <= 1e-10
        assert phi(tri, rec.lam, rec.coefficients) == pytest.approx(-0.01, abs=1e-10)

    def test_t_root_is_the_norm_of_the_critical_point(
        self, const_con_plus, signed_problem, signed_con_both
    ):
        # coefficients are t_root * (unit vector), so their norm is t_root,
        # on ground records and k >= 2 surrogate records alike; no record
        # field repeats it
        _, ground = minimize_ground_level(const_con_plus, -0.01, "plus")
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 2)
        surrogate = surrogate_level(
            GenusSurrogate(signed_con_both, basis, n_samples=16), -0.05, "plus"
        ).record
        assert surrogate.k == 2
        for rec, con in ((ground, const_con_plus), (surrogate, signed_con_both)):
            assert con.triple.norm_of(rec.coefficients) == pytest.approx(rec.t_root, rel=1e-12)

    def test_warm_start_can_only_help(self, pos_con_plus):
        lam_cold, rec = minimize_ground_level(pos_con_plus, -0.012, "plus", multistart=2)
        lam_warm, _ = minimize_ground_level(
            pos_con_plus, -0.012, "plus", multistart=2,
            extra_starts=[rec.coefficients / rec.t_root],
        )
        assert lam_warm <= lam_cold + 1e-14

    def test_no_plus_branch_above_zero(self, const_con_plus):
        # the draws lie in the cone, and the failure names the missing root
        with pytest.raises(InfeasibleLevelError) as info:
            minimize_ground_level(const_con_plus, 0.05, "plus", multistart=2)
        assert str(info.value) == (
            "could not sample a feasible start (index 0) after 200 attempts; "
            "the last draw: no plus-branch critical scaling on this ray"
        )

    def test_no_minus_branch_without_positive_b(self):
        prob = dirichlet_problem_1d(15, "1", "-1")
        con = SphereConstraint(triple=build_triple(prob), tag=ConeTag.A_POS)
        with pytest.raises(InfeasibleLevelError):
            minimize_ground_level(con, -0.01, "minus", multistart=2)

    def test_bad_branch_rejected(self, const_con_plus):
        with pytest.raises(ValueError, match="branch must be one of"):
            minimize_ground_level(const_con_plus, -0.01, "sideways")

    def test_no_feasible_start_raises(self, const_con_plus):
        # the plus branch has no critical scaling at c > 0, so the one extra
        # start is not usable, and no start is drawn
        u = np.ones(const_con_plus.triple.dim)
        with pytest.raises(InfeasibleLevelError, match="no feasible start for branch 'plus'"):
            minimize_ground_level(const_con_plus, 0.1, "plus", multistart=0, extra_starts=[u])

    @pytest.mark.parametrize(
        "solve,reason",
        [
            (lambda con: minimize_ground_level(con, -0.01, "plus", multistart=2),
             "outside the cone"),
            (lambda con: minimize_c0(con, multistart=2), "outside the A cone"),
        ],
        ids=["ground", "zero_level"],
    )
    def test_start_failure_names_the_cone(self, solve, reason):
        # A < 0 on every ray: no draw lies in the A > 0 cone
        con = SphereConstraint(build_triple(dirichlet_problem_1d(15, "-1", "1")))
        with pytest.raises(InfeasibleLevelError, match=f"the last draw: {reason}$"):
            solve(con)


class TestMeshRefinement:
    """Ground level at c = -0.01 on refined 1D grids.

    Sphere descent runs in the metric of the problem norm at the iterate:
    the p = 2 stiffness at p = 2, and the stiffness with cell weights
    |Du|^(p-2) at other p (plus the weighted lumped mass on truncated
    grids).  So its iteration count must not grow with the number of nodes,
    and every refined level must certify.
    """

    C = -0.01

    def _solve(self, n, p, monkeypatch, multistart=2, alpha=1.5):
        """Level, record and the iteration count of every start."""
        prob = dirichlet_problem_1d(n, "1+x", "cos(2*pi*x)+0.2", p=p, alpha=alpha)
        return self._solve_problem(prob, monkeypatch, multistart)

    def _solve_problem(self, prob, monkeypatch, multistart):
        iters = []
        descend = nm._sphere_descend

        def counting(*args, **kwargs):
            out = descend(*args, **kwargs)
            iters.append(out.iterations)
            return out

        con = SphereConstraint(triple=build_triple(prob), tag=ConeTag.A_POS)
        with monkeypatch.context() as patch:
            patch.setattr(nm, "_sphere_descend", counting)
            lam, rec = minimize_ground_level(con, self.C, "plus", multistart=multistart, seed=0)
        return lam, rec, iters

    def _assert_certified(self, rec, c=C):
        assert rec.converged
        assert rec.residual_grad <= 1e-6
        assert rec.energy_defect <= 1e-8 * (1.0 + abs(c))

    def test_p2_second_order_with_flat_iterations(self, monkeypatch):
        levels, per_start = [], []
        for n in (63, 127, 255):
            lam, rec, iters = self._solve(n, 2.0, monkeypatch)
            self._assert_certified(rec)
            assert len(iters) == 2
            levels.append(lam)
            per_start.append(sum(iters) / len(iters))
        # halving h quarters the error of a second-order scheme
        order = np.log2((levels[1] - levels[0]) / (levels[2] - levels[1]))
        assert abs(order - 2.0) <= 0.3
        assert max(per_start) <= 1.5 * min(per_start)

    def test_p2_iterations_do_not_grow_up_to_4095_nodes(self, monkeypatch):
        # 65 times the nodes cost at most 3 more iterations (13 at both)
        _, coarse, coarse_iters = self._solve(63, 2.0, monkeypatch, multistart=1)
        _, fine, fine_iters = self._solve(4095, 2.0, monkeypatch, multistart=1)
        self._assert_certified(coarse)
        self._assert_certified(fine)
        assert len(coarse_iters) == len(fine_iters) == 1
        assert fine_iters[0] <= coarse_iters[0] + 3

    def test_p3_iterations_do_not_grow_up_to_4095_nodes(self, monkeypatch):
        # 18 iterations at n = 63 and 27 at n = 4095; in the p = 2 metric
        # they were 38 and 177, and n = 4095 ended at residual 2.2e-7
        _, coarse, coarse_iters = self._solve(63, 3.0, monkeypatch, multistart=1)
        _, fine, fine_iters = self._solve(4095, 3.0, monkeypatch, multistart=1)
        self._assert_certified(coarse)
        self._assert_certified(fine)
        assert fine.residual_grad <= nm._STOP_RTOL
        assert len(coarse_iters) == len(fine_iters) == 1
        assert fine_iters[0] <= 2 * coarse_iters[0]

    def test_p15_certifies_at_255_nodes(self, monkeypatch):
        # 37 iterations; in the p = 2 metric the descent took 754 and ended
        # at residual 2.4e-6, uncertified
        _, rec, iters = self._solve(255, 1.5, monkeypatch, multistart=1, alpha=1.2)
        self._assert_certified(rec)
        assert iters == [rec.iterations]

    @pytest.mark.parametrize("p", [1.999, 2.001])
    def test_near_p2_weights_certify(self, p):
        # 14 iterations at both p.  Within 0.0062 of p = 2 the weight floor
        # 100^(-1/|p-2|) of the largest slope once underflowed to 0, so a
        # flat cell got weight 0 or inf and every descent stopped after one
        # iteration at residual 0.70
        prob = dirichlet_problem_1d(
            31, "sin(2*pi*x)+0.3", "cos(2*pi*x)+0.2", p=p, alpha=1.2
        )
        con = SphereConstraint(
            triple=build_triple(prob), tag=ConeTag.A_POS,
            start_support=cone_node_mask(prob, ConeTag.A_POS),
        )
        _, rec = minimize_ground_level(con, self.C, "plus", multistart=2, seed=0)
        self._assert_certified(rec)

    def test_truncated_p3_iterations_do_not_grow_with_the_radius(self, monkeypatch):
        # h = 0.1 at R = 2 and 8: 18 and 26 iterations; in the p = 2 metric
        # 30 and 363
        iters = []
        for radius in (2.0, 8.0):
            prob = truncated_problem_1d(
                int(20 * radius) + 1, radius, "exp(-x^2)", "exp(-x^2/2)", p=3.0
            )
            _, rec, per_start = self._solve_problem(prob, monkeypatch, multistart=1)
            self._assert_certified(rec)
            iters += per_start
        assert len(iters) == 2
        assert iters[1] <= 2 * iters[0]

    def test_p3_certifies_within_default_max_iter(self, monkeypatch):
        _, rec, iters = self._solve(127, 3.0, monkeypatch)
        self._assert_certified(rec)
        assert max(iters) < OptimizerParams().max_iter

    @pytest.mark.parametrize(
        "branch,c,expected",
        [
            ("plus", -0.01, [1.0668454, 1.0669084, 1.0669381, 1.0669485]),
            ("minus", 5.0, [6.9778346, 7.0028164, 7.0093621, 7.0110192]),
        ],
    )
    def test_exact_p17_certifies_under_refinement(self, branch, c, expected):
        # p < 2 runs the exact kernel, with no smoothing of |Du|^p.  Observed
        # orders over n = 31, 63, 127, 255: plus 1.08 then 1.51, minus 1.93
        # then 1.98.
        levels = []
        for n in (31, 63, 127, 255):
            prob = dirichlet_problem_1d(n, "1+x", "cos(2*pi*x)+0.2", p=1.7, alpha=1.2)
            con = SphereConstraint(triple=build_triple(prob), tag=ConeTag.A_POS)
            lam, rec = minimize_ground_level(con, c, branch, multistart=4, seed=0)
            self._assert_certified(rec, c)
            levels.append(lam)
        assert levels == pytest.approx(expected, abs=5e-8)
        steps = np.diff(levels)
        orders = np.log2(steps[:-1] / steps[1:])
        record_acceptance_line(
            f"PASS  exact p = 1.7 {branch} ground levels certified, n = 31..255: observed orders "
            + ", ".join(f"{o:.2f}" for o in orders)
        )


class TestThresholds:
    def test_one_dof_closed_forms(self):
        tri = one_dof_triple()
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS_B_POS)
        c_star = compute_c_star(con, multistart=2)
        c_star_star, minimizers = compute_c_star_star(con, multistart=2)
        # n = a = b = 1 on the unit sphere: the ray scalars are exact
        assert c_star == pytest.approx(-1.0 / 60.0, abs=1e-15)
        assert c_star_star == pytest.approx(0.25, abs=1e-15)
        assert all(abs(abs(u[0]) - 1.0) < 1e-12 for u in minimizers)

    def test_const_regression_and_ratio(self, const_con_both):
        c_star = compute_c_star(const_con_both)
        c_star_star, _ = compute_c_star_star(const_con_both)
        assert c_star == pytest.approx(-1.0484707042149721, rel=1e-5)
        assert c_star_star == pytest.approx(15.727060563224589, rel=1e-5)
        # c_bar = -c0 / 15 on every ray for the exponents (1.5, 2, 4)
        assert c_star_star / (-c_star) == pytest.approx(15.0, rel=1e-9)

    def test_pos_regression(self, pos_con_both):
        assert compute_c_star(pos_con_both) == pytest.approx(-15.71096357080466, rel=1e-5)
        c2, _ = compute_c_star_star(pos_con_both)
        assert c2 == pytest.approx(235.66445356206995, rel=1e-5)

    def test_more_starts_never_shrinks_c_star(self, const_con_both):
        # start index i draws the same vector regardless of the total count,
        # so a larger multistart explores a superset of descent paths
        lo = compute_c_star(const_con_both, multistart=4)
        hi = compute_c_star(const_con_both, multistart=12)
        assert hi >= lo

    @pytest.mark.parametrize("instance", ["pos_con_both", "signed_con_both"])
    def test_c_star_matches_an_extremal_level_multistart(self, request, instance):
        # c* = -kappa * c** agrees with maximizing the collision level c_bar
        # directly over the A and B cone
        con = request.getfixturevalue(instance)

        e = con.working.exponents
        q, r = e.beta / (e.beta - e.eta), e.eta / (e.beta - e.eta)

        def negated_extremal(n, a, b):
            # c_bar = const * N**q * B**-r, q = beta/(beta-eta), r = eta/(beta-eta)
            c_bar = K.extremal_pair(n, b, e.alpha, e.eta, e.beta)[1]
            return -c_bar, lambda: (-c_bar * q / n, 0.0, c_bar * r / b)

        evaluate = nm._sphere_evaluation(con, negated_extremal)
        # purpose 3 is unused by the library: these starts are the test's own
        results, _ = nm._multistart(con, evaluate, 3, 8, 0, None)
        direct = -results[0].value
        assert abs(compute_c_star(con, multistart=8, seed=0) - direct) <= 1e-12 * abs(direct)

    def test_one_inside_minimizer_is_enough(self, monkeypatch, signed_con_both):
        # Of the two B-cone minimizers of the signed instance one has A < 0:
        # c** is the B-cone minimum, with the inside minimizer alone, and no
        # solve over the A and B cone runs.
        purposes = count_multistart_purposes(monkeypatch)
        c0, b_cone = minimize_c0(signed_con_both, multistart=8, seed=0)
        margins = sorted(float(signed_con_both.triple.eval_A(u)) for u in b_cone)
        assert margins[0] < 0.0 < margins[-1]
        purposes.clear()
        c2, minimizers = compute_c_star_star(signed_con_both, multistart=8, seed=0)
        assert purposes == Counter({nm._PURPOSE["c0"]: 1})
        assert c2 == c0
        assert len(minimizers) == len(b_cone) - 1
        assert all(signed_con_both.feasible(u) for u in minimizers)

    def test_no_inside_minimizer_solves_over_both_cones(self, monkeypatch):
        # A > 0 only inside sin(2 pi x) > 0.8, where B's weight is small: the
        # B-cone minimizer has A < 0, so the threshold needs its own solve
        # and lies above the B-cone minimum, pinned at the A cone boundary
        problem = dirichlet_problem_1d(31, "sin(2*pi*x)-0.8", "cos(2*pi*x)+0.2")
        con = SphereConstraint(
            build_triple(problem), tag=ConeTag.A_POS_B_POS,
            start_support=cone_node_mask(problem, ConeTag.A_POS_B_POS),
        )
        purposes = count_multistart_purposes(monkeypatch)
        c2, minimizers = compute_c_star_star(con, multistart=8, seed=0)
        assert purposes == Counter({nm._PURPOSE["c0"]: 1, nm._PURPOSE["c_star_star"]: 1})
        c0, _ = minimize_c0(con, multistart=8, seed=0)
        assert c2 > 10.0 * c0
        assert minimizers and all(con.feasible(u) for u in minimizers)

    def test_zero_level_descends_at_any_scale(self, monkeypatch):
        # 1D Dirichlet p = 3, beta = 4: c0 = const N**4 / B**3 is 1e14 to 2.4e20
        # at the drawn starts, with gradients to match.  The step floor is
        # relative, step ||d||_M >= _STEP_MIN ||u||_M, so these descents run;
        # an absolute floor of 1e-16 lay above their first-trial cap, every
        # descent stopped at iteration 1, and c** was the best white-noise
        # start's value (8.5e16, 3.6e20 and 2.8e24 at n = 31, 63 and 127).
        # The stopping test is relative, so with c0 near 8e8 every descent
        # that does not merge converges; an absolute ||g|| <= 1e-8 left all
        # of them at the rounding floor, unconverged.  Each solve's found set
        # holds their end points, so no minimizer returned repeats another.
        descents = recording_descents(monkeypatch)
        levels = []
        for n in (31, 63, 127):
            problem = dirichlet_problem_1d(n, "1+x", "cos(2*pi*x)+0.2", p=3.0, beta=4.0)
            tag = ConeTag.A_POS_B_POS
            con = SphereConstraint(
                build_triple(problem), tag=tag, start_support=cone_node_mask(problem, tag)
            )
            c_ss, minimizers = compute_c_star_star(con, multistart=8, seed=0)
            tri = con.working
            e = tri.exponents
            q, r = e.beta / (e.beta - e.eta), e.eta / (e.beta - e.eta)
            assert minimizers
            for u in minimizers:
                # the zero level's Euler-Lagrange equation q N'(u) = r B'(u) / B(u)
                term_n = q * tri.grad_N(u)
                term_b = r * tri.grad_B(u) / tri.eval_B(u)
                scale = max(np.linalg.norm(term_n), np.linalg.norm(term_b))
                assert np.linalg.norm(term_n - term_b) <= 1e-8 * scale
            for i, u in enumerate(minimizers):
                for w in minimizers[:i]:
                    radius = nm._MERGE_RTOL * float(np.max(np.abs(w)))
                    assert float(np.max(np.abs(u - w))) > radius
            levels.append(c_ss)
        assert descents and all(out.iterations > 1 for _, _, out, _ in descents)
        ends = [out for _, _, out, merged in descents if not merged]
        assert ends and all(out.residual <= 1e-8 for out in ends)
        assert max(levels) < 1e9
        assert abs(levels[2] - levels[1]) < 0.01 * levels[1]

    def test_minimize_c0_ignores_a_sign(self, signed_problem):
        tri = build_triple(signed_problem)
        best, minimizers = minimize_c0(SphereConstraint(tri), multistart=8, seed=0)
        assert best > 0.0
        assert minimizers
        for u in minimizers:
            assert float(tri.eval_B(u)) > 0.0


class TestMultistartCount:
    """A threshold solve draws at least one start and a ground level at
    least none (a warm chain passes 0 beside its warm start); a smaller
    count is a ValueError that names multistart."""

    @pytest.fixture(scope="class")
    def problem(self):
        return dirichlet_problem_1d(15, "1+x", "cos(2*pi*x)+0.2")

    @pytest.fixture(scope="class")
    def con_both(self, problem):
        return SphereConstraint(build_triple(problem), tag=ConeTag.A_POS_B_POS)

    @pytest.mark.parametrize("solve", [compute_c_star_star, minimize_c0, compute_c_star])
    def test_threshold_solve_needs_a_start(self, con_both, solve):
        with pytest.raises(ValueError, match="multistart must be at least 1, got 0"):
            solve(con_both, multistart=0)

    def test_c_star_star_checks_multistart_with_a_zero_level(self, con_both):
        # the check does not wait for the second solve, which a zero level
        # with a minimizer inside the A cone never runs
        zero_level = minimize_c0(con_both, multistart=2)
        with pytest.raises(ValueError, match="multistart must be at least 1, got 0"):
            compute_c_star_star(con_both, multistart=0, zero_level=zero_level)

    def test_given_c_star_star_runs_no_solve(self, con_both):
        c_star_star, _ = compute_c_star_star(con_both, multistart=2)
        assert compute_c_star(con_both, multistart=0, c_star_star=c_star_star) < 0.0

    def test_ground_level_count_is_not_negative(self, problem):
        con = SphereConstraint(build_triple(problem), tag=ConeTag.A_POS)
        with pytest.raises(ValueError, match="multistart must be at least 0, got -3"):
            minimize_ground_level(con, -0.01, "plus", multistart=-3)


def recording_triple(tri):
    """tri with eval_N, eval_A and eval_B counting their calls per argument vector."""
    seen = {"eval_N": Counter(), "eval_A": Counter(), "eval_B": Counter()}

    def recording(name):
        fn = getattr(tri, name)

        def wrapped(u):
            seen[name][np.asarray(u, dtype=float).tobytes()] += 1
            return fn(u)

        return wrapped

    recorded = dataclasses.replace(tri, **{name: recording(name) for name in seen})
    return recorded, seen


def recording_descents(monkeypatch) -> list:
    """(merge predicate, params, result, merged) of every nm._sphere_descend
    call from now on; merged says whether the descent stopped by merging."""
    descents = []
    descend = nm._sphere_descend

    def recording(metric_at, evaluate, start, params, *, merge):
        merged = [False]

        def watching(u, value):
            merged.append(merge(u, value))
            return merged[-1]

        out = descend(metric_at, evaluate, start, params, merge=watching)
        descents.append((merge, params, out, merged[-1]))
        return out

    monkeypatch.setattr(nm, "_sphere_descend", recording)
    return descents


class TestOneScalarSetPerTrial:
    """A start or a line-search trial reads N, A and B once each: its cone
    test and its level read one scalar set, and the descent reuses the
    evaluation that accepted its start."""

    def test_no_trial_reaches_a_or_b_twice(self, monkeypatch):
        tri = build_triple(dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"))
        c_ss, _ = compute_c_star_star(
            SphereConstraint(triple=tri, tag=ConeTag.A_POS_B_POS), multistart=4
        )
        recorded, seen = recording_triple(tri)
        con = SphereConstraint(triple=recorded, tag=ConeTag.A_POS_B_POS)
        # a descent's result is evaluated again, and certification reads its
        # scaled vector t u
        excluded = set()
        descend, extract = nm._sphere_descend, nm.extract_critical_point

        def descending(*args, **kwargs):
            out = descend(*args, **kwargs)
            excluded.add(out.u.tobytes())
            return out

        def certifying(*args, **kwargs):
            record = extract(*args, **kwargs)
            excluded.add(record.coefficients.tobytes())
            return record

        monkeypatch.setattr(nm, "_sphere_descend", descending)
        monkeypatch.setattr(nm, "extract_critical_point", certifying)
        # enough starts that N, A and B each see more than 100 starts and trials
        minimize_ground_level(con, 0.5 * c_ss, "minus", multistart=8, seed=0)
        compute_c_star(con, multistart=8, seed=0)
        assert excluded
        for name, counts in seen.items():
            trials = [n for u, n in counts.items() if u not in excluded]
            assert len(trials) > 100
            repeated = sum(n > 1 for n in trials)
            assert repeated == 0, f"{repeated} of {len(trials)} points reach {name} twice"


def counting_triple(tri):
    """tri with its six functional callables counting their calls in one Counter."""
    calls = Counter()

    def counting(name):
        fn = getattr(tri, name)

        def wrapped(u):
            calls[name] += 1
            return fn(u)

        return wrapped

    names = ("eval_N", "eval_A", "eval_B", "grad_N", "grad_A", "grad_B")
    return dataclasses.replace(tri, **{name: counting(name) for name in names}), calls


def records_equal(a, b) -> bool:
    """Bit-identical records: every field equal, arrays byte for byte."""
    return all(
        x.tobytes() == y.tobytes() if isinstance(x, np.ndarray) else x == y
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b))
    )


class TestNoStateOutlivesACall:
    """A solve repeated on one constraint or surrogate does the same work and
    returns the same bits: nothing one call evaluates is kept for the next."""

    def test_repeated_solves_repeat_their_work(self, pos_problem):
        counted, calls = counting_triple(build_triple(pos_problem))
        ground = SphereConstraint(counted, tag=ConeTag.A_POS, start_support=cone_node_mask(
            pos_problem, ConeTag.A_POS))
        both = SphereConstraint(counted, tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 2)
        surrogate = GenusSurrogate(both, basis, n_samples=16)
        solves = {
            "ground": lambda: minimize_ground_level(ground, -0.05, "plus", multistart=4, seed=0),
            "c_star_star": lambda: compute_c_star_star(both, multistart=4, seed=0),
            "surrogate": lambda: surrogate_level(surrogate, 50.0, "minus"),
        }
        for name, solve in solves.items():
            runs = []
            for _ in range(2):
                calls.clear()
                runs.append((solve(), Counter(calls)))
            (first, first_calls), (second, second_calls) = runs
            assert first_calls == second_calls and sum(first_calls.values()) > 0, name
            if name == "ground":
                assert first[0] == second[0] and records_equal(first[1], second[1])
            elif name == "c_star_star":
                assert first[0] == second[0] and len(first[1]) == len(second[1]) > 0
                assert all(u.tobytes() == v.tobytes() for u, v in zip(first[1], second[1]))
            else:
                assert records_equal(first.record, second.record)
                assert first.xi.tobytes() == second.xi.tobytes()


class TestGradNCountsIterations:
    """The benchmark's tracer derives a ground solve's descent iterations as
    its grad_N calls minus 2: every iteration of every descent, merged or
    not, reads grad_N once, starts read no gradient, and certification
    (extract_critical_point) reads grad_N twice."""

    @pytest.mark.parametrize(
        "problem, branch, c",
        [
            (dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"), "plus", -0.01),
            (dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"), "minus", 5.0),
            (dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2", p=3.0), "plus", -0.01),
            (dirichlet_problem_2d((16, 16), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"), "plus", -0.01),
        ],
        ids=["d1_p2_plus", "d1_p2_minus", "d1_p3_plus", "d2_p2_16x16"],
    )
    def test_grad_n_calls_are_iterations_plus_two(self, monkeypatch, problem, branch, c):
        counted, calls = counting_triple(build_triple(problem))
        tag = ConeTag.A_POS if branch == "plus" else ConeTag.A_POS_B_POS
        con = SphereConstraint(counted, tag=tag, start_support=cone_node_mask(problem, tag))
        _, warm = minimize_ground_level(con, c, branch, multistart=2, seed=0)
        descents = recording_descents(monkeypatch)
        calls.clear()
        _, rec = minimize_ground_level(
            con, c, branch, multistart=8, seed=1, extra_starts=[warm.coefficients]
        )
        assert len(descents) == rec.starts == 9
        assert rec.merged_starts > 0
        assert calls["grad_N"] == sum(out.iterations for _, _, out, _ in descents) + 2
        # only a merge stop ends at a point it never measured
        assert all(math.isnan(out.residual) == merged for _, _, out, merged in descents)


# the objective-gradient instances: 1D p = 2 and p = 3, 2D p = 2, truncated p = 3
OBJECTIVE_PROBLEMS = {
    "d1_p2": lambda: dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"),
    "d1_p3": lambda: dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=3.0),
    "d2_p2": lambda: dirichlet_problem_2d((12, 12), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
    "trunc_p3": lambda: truncated_problem_1d(41, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0),
}


def central_difference_error(value, x, grad, rng) -> float:
    """Largest gap between grad . d and the central difference of value along
    random unit directions d at x, relative to ||grad||."""
    h = 1e-5 * np.linalg.norm(x)
    worst = 0.0
    for _ in range(4):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        slope = (value(x + h * d) - value(x - h * d)) / (2.0 * h)
        worst = max(worst, abs(slope - grad @ d) / np.linalg.norm(grad))
    return worst


class TestObjectiveGradients:
    """Every descent objective's chain-rule gradient matches central
    differences of its value: the ground level on both branches and the zero
    level on the grid sphere, and the surrogate polish's level in s."""

    @pytest.mark.parametrize("name", sorted(OBJECTIVE_PROBLEMS))
    @pytest.mark.parametrize("objective", ["plus", "minus", "zero_level"])
    def test_sphere_objective(self, name, objective):
        tri = build_triple(OBJECTIVE_PROBLEMS[name]())
        e = tri.exponents
        if objective == "zero_level":
            con = SphereConstraint(tri, tag=ConeTag.A_POS_B_POS)
            evaluate = nm._sphere_evaluation(con, nm._zero_level(e))
        else:
            tag = ConeTag.A_POS if objective == "plus" else ConeTag.A_POS_B_POS
            con = SphereConstraint(tri, tag=tag)
            c = -0.01 if objective == "plus" else 1.0
            evaluate = level_evaluation(con, c, objective)
        rng = np.random.default_rng(3)
        for _ in range(3):
            point = evaluate(random_cone_point(con, rng))
            error = central_difference_error(
                lambda v: evaluate(v).value, point.u, point.gradient()[0], rng
            )
            assert error <= 1e-5

    @pytest.mark.parametrize("name", sorted(OBJECTIVE_PROBLEMS))
    @pytest.mark.parametrize("branch, c", [("plus", -0.01), ("minus", 1.0)])
    def test_surrogate_polish_objective(self, name, branch, c):
        problem = OBJECTIVE_PROBLEMS[name]()
        con = SphereConstraint(build_triple(problem), tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 3)
        scalars = nm._basis_scalars(con.working, basis)
        evaluate = nm._coefficient_evaluation(con.working.exponents, c, branch, scalars)
        rng = np.random.default_rng(4)
        for _ in range(3):
            point = evaluate(rng.standard_normal(3))
            error = central_difference_error(
                lambda v: evaluate(v).value, point.u, point.gradient()[0], rng
            )
            assert error <= 1e-5


class TrackedMs(np.ndarray):
    """M u as the metric returned it, and everything the descent derives from
    it; each vector s that a descent multiplies from the left, with the
    vector it multiplies, is logged."""

    log: list = []

    def __rmatmul__(self, other):
        TrackedMs.log.append((np.array(other, dtype=float), self.view(np.ndarray).copy()))
        return other @ self.view(np.ndarray)


class TestMetricOncePerDescent:
    """A descent applies M once per metric: to its start, and again only
    where the metric at an accepted point is a new pair.  While the pair
    stays it carries M u: an accepted trial (u - step d) / nrm has M u =
    (M u - step grad) / nrm.  The Barzilai-Borwein numerator s^T M s is
    then s^T (M u - M u_prev), in the metric the step was taken in."""

    @pytest.mark.parametrize(
        "problem",
        [
            dirichlet_problem_1d(255, "1+x", "cos(2*pi*x)+0.2"),
            dirichlet_problem_2d((32, 32), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)"),
        ],
        ids=["d1_n255", "d2_32x32"],
    )
    def test_carried_numerator_matches_the_metric(self, monkeypatch, problem):
        tri = build_triple(problem)
        apply, solve = tri.metric_at(np.ones(tri.dim))
        applied = []

        def tracked(v):
            applied.append(v)
            return apply(v).view(TrackedMs)

        pair = (tracked, solve)
        norms = []  # Euclidean norms of every evaluated unit vector
        sphere_evaluation = nm._sphere_evaluation

        def recording(*args):
            evaluate = sphere_evaluation(*args)

            def evaluating(v):
                point = evaluate(v)
                norms.append(float(np.linalg.norm(point.u)))
                return point

            return evaluating

        monkeypatch.setattr(nm, "_sphere_evaluation", recording)
        monkeypatch.setattr(TrackedMs, "log", [])
        con = SphereConstraint(
            dataclasses.replace(tri, metric_at=lambda u: pair), tag=ConeTag.A_POS
        )
        _, rec = minimize_ground_level(con, -0.01, "plus", multistart=2, seed=0)
        assert rec.converged
        assert len(applied) == rec.starts == 2
        # the start radius u^T M u, then one numerator per Barzilai-Borwein step
        products = TrackedMs.log
        assert len(products) >= 2 + 10
        eps = np.finfo(float).eps
        for s, m_s in products:
            exact = apply(s)
            carried = float(s @ m_s)
            # s is a difference of unit vectors, each rounded to about eps |u|
            # per entry, and s^T M s is only defined to that rounding of s
            floor = 4.0 * eps * max(norms) * float(np.linalg.norm(exact))
            assert abs(carried - float(s @ exact)) <= 1e-10 * float(s @ exact) + floor

    def test_a_point_metric_is_applied_once_per_accepted_point(self, monkeypatch):
        # d1_p3_n127 of the refine benchmark: the metric at u is rebuilt at
        # the start and at every accepted point, and each new pair is
        # applied once, to that point.  Only the descent's builds count: the
        # start draw solves in the metric at its masked noise too.
        tri = build_triple(dirichlet_problem_1d(127, "1+x", "cos(2*pi*x)+0.2", p=3.0))
        built, applied = [], []

        def metric_at(u):
            apply, solve = tri.metric_at(u)
            built.append(np.array(u))

            def counting(v):
                applied.append(v)
                return apply(v)

            return counting, solve

        descend = nm._sphere_descend

        def descending(_, evaluate, start, params, *, merge):
            return descend(metric_at, evaluate, start, params, merge=merge)

        monkeypatch.setattr(nm, "_sphere_descend", descending)
        con = SphereConstraint(tri, tag=ConeTag.A_POS)
        _, rec = minimize_ground_level(con, -0.01, "plus", multistart=1, seed=0)
        assert rec.converged
        # one build at the start and one per accepted step, as many as the
        # points measured
        assert len(built) == rec.iterations
        assert len(applied) == len(built)
        for u, v in zip(built, applied):
            assert np.array_equal(u, v)


class TestFirstTrial:
    def test_first_trial_turns_at_most_atan_2(self, monkeypatch, pos_problem):
        # d = M^-1 grad is M-orthogonal to u, so the first trial u - step d
        # turns u by atan(step ||d||_M / ||u||_M) on the sphere; the first
        # step is capped at step ||d||_M <= 2 ||u||_M.  Descents on the report
        # benchmark's instance: ground levels and surrogate polishes along
        # two short curves per branch, and the zero-level multistart.
        first = []  # (metric at u, u, u - step d) of every descent that tried a step
        descend = nm._sphere_descend

        def descending(metric_at, evaluate, start, params, *, merge):
            trials = []

            def evaluating(v):
                trials.append(np.array(v, dtype=float))
                return evaluate(v)

            try:
                return descend(metric_at, evaluating, start, params, merge=merge)
            finally:
                if trials:
                    # the start's unit vector and the first trial before normalizing
                    first.append((metric_at(start.u), start.u, trials[0]))

        monkeypatch.setattr(nm, "_sphere_descend", descending)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        tri = build_triple(pos_problem)
        for branch, grid in (("plus", [-4.32, -0.79]), ("minus", [-0.79, 141.4])):
            tag = ConeTag.A_POS if branch == "plus" else ConeTag.A_POS_B_POS
            con = SphereConstraint(tri, tag=tag, start_support=cone_node_mask(pos_problem, tag))
            trace_family(con, grid, branch, ks=(1, 2, 3), basis=basis, multistart=8,
                         warm_multistart=4, n_samples=16, seed=0)
        compute_c_star_star(SphereConstraint(tri, tag=ConeTag.A_POS_B_POS), multistart=8)
        assert len(first) >= 50
        assert any(u.size == 3 for _, u, _ in first)

        def m_norm(metric, x):
            return math.sqrt(float(x @ metric[0](x)))

        for metric, u, v in first:
            assert m_norm(metric, u - v) <= 2.0 * m_norm(metric, u) * (1.0 + 1e-12)


class TestStartRule:
    """A start is usable when the descent's own objective is finite there."""

    class Drawn(Exception):
        """The first descent began: every start has been drawn."""

    @pytest.mark.parametrize("solve", ["ground", "c_star", "c_star_star", "c0"])
    def test_drawing_reads_each_candidate_once(self, monkeypatch, solve):
        tri = build_triple(dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2"))
        recorded, seen = recording_triple(tri)
        con = SphereConstraint(triple=recorded, tag=ConeTag.A_POS_B_POS)

        def stop(*args, **kwargs):
            raise self.Drawn

        monkeypatch.setattr(nm, "_sphere_descend", stop)
        x = np.linspace(0.0, 1.0, tri.dim + 2)[1:-1]
        warm = [np.sin(np.pi * x), np.sin(3.0 * np.pi * x), np.zeros(tri.dim)]
        with pytest.raises(self.Drawn):
            if solve == "ground":
                minimize_ground_level(con, 1.0, "minus", multistart=6, extra_starts=warm)
            elif solve == "c_star":
                compute_c_star(con, multistart=6)
            elif solve == "c_star_star":
                compute_c_star_star(con, multistart=6)
            else:
                minimize_c0(con, multistart=6)
        for name, counts in seen.items():
            assert len(counts) >= 6
            assert max(counts.values()) == 1, f"a candidate reaches {name} twice"

    def test_minimize_c0_starts_inside_the_a_cone(self, monkeypatch):
        # The zero-crossing level ignores A; its starts still lie in A > 0.
        # A's weight has mean zero here, so about half the draws have A < 0.
        tri = build_triple(dirichlet_problem_1d(31, "sin(2*pi*x)", "cos(2*pi*x)+0.2"))
        starts = []
        descend = nm._sphere_descend

        def recording(metric_at, evaluate, start, params, *, merge):
            starts.append(start.u)
            return descend(metric_at, evaluate, start, params, merge=merge)

        monkeypatch.setattr(nm, "_sphere_descend", recording)
        minimize_c0(SphereConstraint(tri), multistart=8, seed=0)
        assert len(starts) == 8
        a_cone = SphereConstraint(triple=tri, tag=ConeTag.A_POS)
        assert all(a_cone.feasible(u) for u in starts)

    def test_each_draw_is_evaluated_once(self, monkeypatch):
        # A's weight has mean zero, so many draws leave the A cone.  A
        # rejected draw is not tried again in another form: N is read once
        # per draw.
        tri = build_triple(dirichlet_problem_1d(31, "sin(2*pi*x)", "cos(2*pi*x)+0.2"))
        recorded, seen = recording_triple(tri)
        con = SphereConstraint(triple=recorded, tag=ConeTag.A_POS)
        usable = nm._start_rule(level_evaluation(con, -0.01, "plus"))
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                draws.append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(nm.np.random, "default_rng", CountingRng)
        starts = nm._draw_starts(con, 16, 0, nm._PURPOSE["plus"], usable)
        assert len(starts) == 16
        assert len(draws) == 34
        assert sum(seen["eval_N"].values()) == len(draws)

    def test_empty_support_draws_the_unrestricted_starts(self, pos_triple):
        # a grid too coarse for a weight's sign structure leaves an empty
        # node mask, which restricts nothing
        free = SphereConstraint(pos_triple, tag=ConeTag.A_POS_B_POS)
        empty = dataclasses.replace(free, start_support=np.zeros(pos_triple.dim, dtype=bool))
        usable = nm._start_rule(level_evaluation(free, -0.01, "minus"))
        free_starts, empty_starts = (
            nm._draw_starts(con, 8, 0, nm._PURPOSE["minus"], usable)
            for con in (free, empty)
        )
        assert [p.u.tobytes() for p in empty_starts] == [p.u.tobytes() for p in free_starts]


class TestSmoothedStarts:
    """A start is mask * M^{-1}(mask * g) of white noise g: the Gaussian
    field of precision M^2, kept on the start support."""

    @pytest.mark.parametrize("support", [None, [True, False]], ids=["free", "masked"])
    def test_identity_metric_draws_are_white(self, support):
        # with M = I the draw is g masked, bit for bit
        mask = None if support is None else np.array(support)
        con = SphereConstraint(two_basin_triple(), tag=ConeTag.A_POS, start_support=mask)
        usable = nm._start_rule(level_evaluation(con, -1e-3, "plus"))
        starts = nm._draw_starts(con, 8, 0, nm._PURPOSE["plus"], usable)
        white = []
        for i in range(8):
            g = np.random.default_rng((0, nm._PURPOSE["plus"], i)).standard_normal(2)
            white.append(usable(g if mask is None else np.where(mask, g, 0.0)).u)
        assert [p.u.tobytes() for p in starts] == [u.tobytes() for u in white]

    @pytest.mark.parametrize(
        "problem, c",
        [
            (dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2"), 5.0),
            (dirichlet_problem_1d(63, "1+x", "cos(2*pi*x)+0.2", p=3.0), 5.0),
            (dirichlet_problem_2d((15, 15), "1+x", "cos(2*pi*x)*cos(2*pi*y)+0.2"), 1.0),
        ],
        ids=["d1_p2", "d1_p3", "d2_15x15"],
    )
    def test_masked_starts_stay_on_the_support(self, problem, c):
        # the solve spreads the masked noise over every node; the second mask
        # takes it back to the nodes cone_node_mask vouches for
        tag = ConeTag.A_POS_B_POS
        mask = cone_node_mask(problem, tag)
        assert 0 < mask.sum() < mask.size
        con = SphereConstraint(build_triple(problem), tag=tag, start_support=mask)
        usable = nm._start_rule(level_evaluation(con, c, "minus"))
        for start in nm._draw_starts(con, 8, 0, nm._PURPOSE["minus"], usable):
            assert np.all(start.u[~mask] == 0.0)
            assert np.all(start.u[mask] != 0.0)

    @staticmethod
    def level(n, c, branch, tag):
        prob = dirichlet_problem_1d(n, "1+x", "cos(2*pi*x)+0.2")
        mask = cone_node_mask(prob, tag)
        con = SphereConstraint(build_triple(prob), tag=tag, start_support=mask)
        return minimize_ground_level(con, c, branch, multistart=4, seed=0)

    @pytest.mark.parametrize("n", [2047, 4095])
    def test_fine_grid_minus_level_solves(self, n):
        # white starts put every B-positive draw within the cone margin from
        # n = 2047 on, and no minus level had a start there
        lam, rec = self.level(n, 5.0, "minus", ConeTag.A_POS_B_POS)
        assert rec.converged and rec.energy_defect <= 1e-8 * (1.0 + abs(rec.c))
        # the levels rise toward the continuum: 17.91845 at n = 511
        assert lam == pytest.approx(17.9189, rel=1e-5)

    def test_plus_iterations_do_not_grow_with_the_grid(self):
        coarse = self.level(63, -0.01, "plus", ConeTag.A_POS)[1]
        fine = self.level(4095, -0.01, "plus", ConeTag.A_POS)[1]
        assert coarse.converged and fine.converged
        assert abs(fine.iterations - coarse.iterations) <= 2


def two_basin_triple(w_low=2.0):
    """N = |u|**4, A = |u_1|**3 + w_low |u_2|**3, B = |u|**6 on R^2.

    N and B are constant on the unit circle, so the level falls as A rises.
    With alpha = 3 > 2 both axes are local maxima of A: the level has a basin
    at (1, 0) and a lower one at (0, 1), whose level is 1/w_low times the first.
    """
    from fibercurve.functional_core import Exponents

    w = np.array([1.0, w_low])

    def sq(u):
        return float(np.dot(u, u))

    return FunctionalTriple(
        exponents=Exponents(3.0, 4.0, 6.0),
        dim=2,
        eval_N=lambda u: sq(u) ** 2,
        eval_A=lambda u: float(np.dot(w, np.abs(u) ** 3)),
        eval_B=lambda u: sq(u) ** 3,
        grad_N=lambda u: 4.0 * sq(u) * np.asarray(u, dtype=float),
        grad_A=lambda u: 3.0 * w * np.abs(u) * u,
        grad_B=lambda u: 6.0 * sq(u) ** 2 * np.asarray(u, dtype=float),
    )


class TestMultistartMerge:
    """A descent that enters a found minimizer's basin above it merges."""

    # plus levels exist for c_bar = -1/324 < c < 0 on the two-basin circle
    C = -1e-3

    def test_drawn_start_finds_the_lower_basin(self):
        con = SphereConstraint(two_basin_triple(), tag=ConeTag.A_POS)
        warm = [np.array([1.0, 0.1]), np.array([-1.0, 0.05])]
        lam_high, _ = minimize_ground_level(con, self.C, "plus", multistart=0, extra_starts=warm)
        lam, rec = minimize_ground_level(
            con, self.C, "plus", multistart=8, seed=0, extra_starts=warm
        )
        assert lam == pytest.approx(0.5 * lam_high, rel=1e-10)
        assert rec.converged
        assert abs(rec.coefficients[1]) / rec.t_root == pytest.approx(1.0, abs=1e-6)
        assert rec.starts == 10
        # the second warm start lies in the first one's basin, as do some draws
        assert rec.merged_starts >= 1

    def test_descent_below_a_found_minimizer_never_merges(self):
        # With w_low = 100 the basin of (1, 0) ends 0.01 rad from it, and
        # from 0.015 rad on the level lies below its minimum.  A start 0.016
        # rad away takes its first step to 0.025 rad, inside the merge
        # radius but below the found minimizer, and goes on to the lower basin.
        con = SphereConstraint(two_basin_triple(w_low=100.0), tag=ConeTag.A_POS)
        found = np.array([1.0, 0.0])
        near = np.array([math.cos(0.016), math.sin(0.016)])
        assert float(np.max(np.abs(near - found))) <= nm._MERGE_RTOL
        lam_high, _ = minimize_ground_level(con, self.C, "plus", multistart=0, extra_starts=[found])
        lam, rec = minimize_ground_level(
            con, self.C, "plus", multistart=0, extra_starts=[found, near]
        )
        assert lam == pytest.approx(0.01 * lam_high, rel=1e-10)
        assert (rec.starts, rec.merged_starts) == (2, 0)

    def test_converged_repeat_merges(self, monkeypatch):
        # The starts on the one-dof sphere {-1, +1} are -1, -1, -1, +1, and
        # each converges at once.  The repeats, the sign flip included, merge
        # at an equal value; the kept -1 is returned sign-aligned as +1.
        descend_merging = nm._descend_merging
        calls = []

        def recording(*args):
            out = descend_merging(*args)
            calls.append(out)
            return out

        monkeypatch.setattr(nm, "_descend_merging", recording)
        con = SphereConstraint(triple=one_dof_triple(), tag=ConeTag.A_POS_B_POS)
        c_star_star, minimizers = compute_c_star_star(con, multistart=4)
        assert c_star_star == pytest.approx(0.25, abs=1e-15)
        assert len(minimizers) == 1 and minimizers[0][0] == 1.0
        ((results, merged),) = calls
        assert (len(results), merged) == (1, 3)
        assert results[0].u[0] == -1.0

    def test_unconverged_repeat_merges(self, pos_con_plus):
        # Every descent that does not merge is a merge target, converged or
        # not: the repeat of a descent cut at max_iter stops where it ended.
        tri = pos_con_plus.working
        evaluate = level_evaluation(pos_con_plus, -0.01, "plus")
        start = evaluate(random_cone_point(pos_con_plus, np.random.default_rng(0)))
        results, merged = nm._descend_merging(
            tri.metric_at, evaluate, [start, start], OptimizerParams(max_iter=3)
        )
        assert (len(results), merged) == (1, 1)
        assert results[0].iterations == 3
        assert results[0].residual > nm._CERTIFY_RTOL

    def test_unconverged_level_stays_flagged_when_repeats_merge(self, signed_problem):
        # On the signed instance no descent of this level converges in 200
        # iterations.  The repeats merge into the first descent's end point,
        # and the level is still the first minimum, flagged as unconverged.
        tag = ConeTag.A_NEG
        con = SphereConstraint(
            build_triple(signed_problem), tag=tag,
            start_support=cone_node_mask(signed_problem, tag),
        )
        lam, rec = minimize_ground_level(
            con, -1.0, "plus", multistart=4, seed=0, params=OptimizerParams(max_iter=200)
        )
        assert lam == -49.97417732472885
        assert not rec.converged
        assert (rec.starts, rec.merged_starts) == (4, 3)
        curve = EnergyCurve(branch="plus", k=1, points=(rec,), verdicts={})
        assert curve_rows([curve])[0]["flags"] == "not_converged"

    def test_sign_flipped_repeat_merges(self):
        # the triples are even: -u is the minimizer u again
        con = SphereConstraint(two_basin_triple(), tag=ConeTag.A_POS)
        axes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        _, rec = minimize_ground_level(con, self.C, "plus", multistart=0, extra_starts=axes)
        assert (rec.starts, rec.merged_starts) == (2, 1)

    @pytest.mark.parametrize("w_low", [1.0, 2.0])
    def test_distinct_basins_both_stay(self, w_low):
        # (1, 0) and (0, 1) are distinct minimizers, at equal levels when
        # w_low = 1; each start converges at once and neither merges
        con = SphereConstraint(two_basin_triple(w_low), tag=ConeTag.A_POS)
        evaluate = level_evaluation(con, self.C, "plus")
        axes = [evaluate(np.array([1.0, 0.0])), evaluate(np.array([0.0, 1.0]))]
        results, merged = nm._descend_merging(
            con.working.metric_at, evaluate, axes, OptimizerParams()
        )
        assert merged == 0
        assert [tuple(r.u) for r in results if r.residual <= nm._STOP_RTOL] == [(1, 0), (0, 1)]
        assert results[1].value == pytest.approx(results[0].value / w_low, rel=1e-12)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_merged_iterates_descend_into_their_minimizer(self, monkeypatch, pos_problem, branch):
        # the `report` instance and its curve grids, solved as its curves are
        tag = ConeTag.A_POS if branch == "plus" else ConeTag.A_POS_B_POS
        con = SphereConstraint(
            build_triple(pos_problem), tag=tag, start_support=cone_node_mask(pos_problem, tag)
        )
        grid = [-7.86, -6.09, -4.32, -2.55, -0.79]
        if branch == "minus":
            grid += [70.7, 141.4, 212.1]
        found: dict = {}  # merge predicate of one multistart -> its converged (value, u)
        merged = []
        descend = nm._sphere_descend

        def recording(metric_at, evaluate, start, params, *, merge):
            def watching(u, value):
                if merge(u, value):
                    merged.append((list(found[merge]), metric_at, evaluate, u, value))
                    return True
                return False

            found.setdefault(merge, [])
            out = descend(metric_at, evaluate, start, params, merge=watching)
            if out.residual <= nm._CERTIFY_RTOL:
                found[merge].append((out.value, out.u))
            return out

        monkeypatch.setattr(nm, "_sphere_descend", recording)
        trace_family(con, grid, branch, ks=(1,), multistart=8, warm_multistart=4, seed=0)
        assert len(merged) >= 10

        def distance(u, m):
            return float(np.max(np.abs(nm._sign_aligned(u) - nm._sign_aligned(m))))

        for minima, metric_at, evaluate, u, value in merged:
            into = [
                (distance(u, m), v, m) for v, m in minima
                if value > v and distance(u, m) <= nm._MERGE_RTOL * float(np.max(np.abs(m)))
            ]
            assert into
            _, v, m = min(into, key=lambda dvm: dvm[0])
            end = descend(
                metric_at, evaluate, evaluate(u), OptimizerParams(), merge=lambda u, value: False
            )
            assert end.residual <= nm._STOP_RTOL
            assert distance(end.u, m) <= 1e-3
            assert end.value >= v - 1e-6 * (1.0 + abs(v))


class TestSurrogates:
    def test_singleton_matches_direct_evaluation(self, pos_con_plus):
        rng = np.random.default_rng(3)
        u = random_cone_point(pos_con_plus, rng)
        c = -0.05
        record = surrogate_level(GenusSurrogate(pos_con_plus, u[None, :]), c, "plus").record
        lam, t = lambda_tilde(pos_con_plus, c, "plus", u)
        assert record.lam == pytest.approx(lam, rel=1e-12)
        assert record.t_root == pytest.approx(t, rel=1e-12)
        assert record.k == 1

    def test_family_is_monotone_in_k(self, signed_problem, signed_con_both):
        # the ground level, then surrogates chained in k over one nested basis
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 3)
        fam = trace_family(
            signed_con_both, [-0.05], "plus", ks=(1, 2, 3), basis=basis, multistart=16,
            n_samples=24,
        )
        lams = [fam[k].points[0].lam for k in (1, 2, 3)]
        assert lams[0] <= lams[1] <= lams[2]

    def test_surrogate_bounds_ground_from_above(self, signed_problem, signed_con_both):
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 2)[:1]
        level = surrogate_level(GenusSurrogate(signed_con_both, basis, n_samples=24), -0.05, "plus")
        lam, _ = minimize_ground_level(signed_con_both, -0.05, "plus", multistart=16)
        assert level.record.lam >= lam - 1e-12

    def test_infeasible_basis_raises(self, signed_problem):
        tri = build_triple(signed_problem)
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS)
        good = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 1)[0]
        bad = np.zeros(tri.dim)
        # spike where the concave weight is negative (second half of (0,1))
        bad[int(tri.dim * 0.6)] = 1.0
        bad /= tri.norm_of(bad)
        surrogate = GenusSurrogate(con, np.vstack([good, bad]), n_samples=8)
        with pytest.raises(SurrogateInvalidError, match="leaves the feasible cone"):
            surrogate_level(surrogate, -0.05, "plus")

    def test_polish_point_without_a_root_raises(self, pos_problem):
        # B > 0 on the basis, so the plus branch has no root at c > 0
        con = SphereConstraint(build_triple(pos_problem), tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 2)
        scalars = nm._basis_scalars(con.working, basis)
        polish = nm._coefficient_evaluation(con.working.exponents, 0.5, "plus", scalars)
        with pytest.raises(
            SurrogateInvalidError,
            match=r"coefficient point array\(\[.*\]\) leaves the feasible cone: no plus-branch",
        ):
            polish(np.array([3.0, 4.0]))

    @pytest.mark.parametrize(
        "problem_name", ["signed_problem", "truncated_problem", "two_d_problem"]
    )
    def test_scalar_level_matches_model(self, problem_name, request):
        # On a disjoint basis N, A and B of basis.T @ xi are sums of
        # |xi_i|**degree times their values at the basis vectors, so the
        # surrogate's level at a unit s, where xi = sign(s) |s|**(2/alpha),
        # and its s-gradient must match the grid evaluation with the chain
        # factor dxi_i/ds_i = (2/alpha) |s_i|**(2/alpha - 1).  The polish
        # evaluation returns the negated level.
        problem = request.getfixturevalue(problem_name)
        con = SphereConstraint(triple=build_triple(problem), tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 3)
        scalars = nm._basis_scalars(con.working, basis)
        power = 2.0 / con.working.exponents.alpha
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            s = rng.standard_normal(3)
            s /= np.linalg.norm(s)
            branch, c = ("plus", -1e-3) if checked % 2 else ("minus", 0.5)
            evaluate = nm._coefficient_evaluation(con.working.exponents, c, branch, scalars)
            u = basis.T @ (np.sign(s) * np.abs(s) ** power)
            try:
                point = evaluate(s)
                ref = level_evaluation(con, c, branch)(u)
            except (InfeasibleRayError, SurrogateInvalidError):
                continue
            lam = -point.value
            assert lam == pytest.approx(lambda_tilde(con, c, branch, u)[0], rel=1e-12)
            assert lam == pytest.approx(ref.value, rel=1e-12)
            # the evaluation's gradient is at the unit vector u / ref.nrm, and
            # the level is 0-homogeneous: its gradient at u is that / ref.nrm
            expected = power * np.abs(s) ** (power - 1.0) * (basis @ ref.gradient()[0]) / ref.nrm
            gradient = -point.gradient()[0]
            assert np.linalg.norm(gradient - expected) <= 1e-9 * np.linalg.norm(expected)
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    def test_polishes_converge_by_gtol(self, monkeypatch, pos_problem):
        # The maximizer often sits on a coordinate axis.  In xi the level has
        # a |xi_j|**alpha cusp there and the polishes stopped at the rounding
        # floor with ||g|| between 1e-5 and 3e-2; in s it is a smooth
        # critical point.  A polish that merges stops early on purpose, inside
        # the merge radius of a maximizer its own surrogate call converged
        # to.  Every other polish converges by the relative stopping test
        # itself.  Instances: the intersect benchmark's minus instance and the
        # report benchmark's weights, inside their windows.
        minus_problem = dirichlet_problem_1d(31, _MINUS_WEIGHT, _MINUS_WEIGHT)
        params = OptimizerParams()
        descents = recording_descents(monkeypatch)
        for problem, branch, cs in (
            (minus_problem, "minus", (9.5, 85.0)),
            (pos_problem, "minus", (23.5, 212.0)),
            (pos_problem, "plus", (-0.2, -0.01)),
        ):
            tag = ConeTag.A_POS_B_POS if branch == "minus" else ConeTag.A_POS
            con = SphereConstraint(triple=build_triple(problem), tag=tag)
            basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 3)
            chain = _LevelChain(con, branch, (2, 3), basis=basis, n_samples=16, params=params)
            for c in cs:
                assert set(chain(c)) == {2, 3}
        polishes = [(merge, out, merged) for merge, ascent, out, merged in descents
                    if ascent.max_iter == nm._POLISH_ITER]
        assert len(polishes) >= 36
        maxima = {}  # merge predicate -> the (value, s) its call's polishes converged to
        for merge, out, merged in polishes:
            if merged:
                aligned = nm._sign_aligned(out.u)
                assert any(
                    out.value > v and float(np.max(np.abs(aligned - nm._sign_aligned(m))))
                    <= nm._MERGE_RTOL * float(np.max(np.abs(m)))
                    for v, m in maxima[merge]
                )
                continue
            assert out.residual <= nm._STOP_RTOL and out.iterations <= 30
            maxima.setdefault(merge, []).append((out.value, out.u))
        assert any(merged for _, _, merged in polishes)

    def test_warm_start_at_the_maximizer_merges_the_sample_polishes(self, monkeypatch):
        # This level peaks on the diagonal.  Its three best samples are two
        # axis points, which are critical points in s and stop at once, and
        # one that a cold polish climbs in several iterations; after a warm
        # start at the maximizer that polish merges into it.
        problem = dirichlet_problem_1d(31, _MINUS_WEIGHT, _MINUS_WEIGHT)
        con = SphereConstraint(triple=build_triple(problem), tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 2)
        surrogate = GenusSurrogate(con, basis, n_samples=16)
        descents = recording_descents(monkeypatch)
        cold = surrogate_level(surrogate, 12.0, "minus")
        cold_polishes = [(out.iterations, out.residual, merged) for _, _, out, merged in descents]
        descents.clear()
        warm = surrogate_level(surrogate, 12.0, "minus", warm_xi=[cold.xi])
        polishes = [(out.iterations, out.residual, merged) for _, _, out, merged in descents]
        assert (warm.record.lam, warm.record.t_root) == (cold.record.lam, cold.record.t_root)
        assert np.array_equal(warm.xi, cold.xi)
        # the warm start converges where it starts
        assert polishes[0][0] == 1 and polishes[0][1] <= nm._STOP_RTOL
        assert len(cold_polishes) == len(polishes) - 1 == 3
        assert not any(merged for _, _, merged in cold_polishes)
        assert any(iterations > 2 for iterations, _, _ in cold_polishes)
        for (cold_iterations, _, _), (iterations, residual, merged) in zip(
            cold_polishes, polishes[1:]
        ):
            if cold_iterations == 1:
                assert residual <= nm._STOP_RTOL and iterations == 1
            else:
                assert merged and iterations < cold_iterations

    @pytest.mark.parametrize(
        "problem,branch,c",
        [
            (dirichlet_problem_1d(31, _MINUS_WEIGHT, _MINUS_WEIGHT), "minus", 12.0),
            (
                dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2", p=3.0, alpha=2.5, beta=4.0),
                "plus",
                -0.05,
            ),
        ],
        ids=["alpha1.5_minus", "p3_alpha2.5_plus"],
    )
    def test_k2_surrogate_is_the_quarter_circle_maximum(self, problem, branch, c):
        # The level depends on |xi_i| only, so for k = 2 the quarter circle
        # xi = (cos th, sin th) covers the coefficient sphere.  The first
        # instance peaks on the diagonal, between two lower axis maxima that
        # an unscaled first polish step at this level jumps to; the second
        # has s-degrees (2.4, 2, 3.2) and peaks on an axis.
        tag = ConeTag.A_POS_B_POS if branch == "minus" else ConeTag.A_POS
        con = SphereConstraint(triple=build_triple(problem), tag=tag)
        basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 2)
        level = surrogate_level(GenusSurrogate(con, basis, n_samples=16), c, branch)
        assert np.all(np.isfinite(level.xi)) and math.isfinite(level.record.lam)
        e = con.working.exponents
        scalars = nm._basis_scalars(con.working, basis)
        th = np.linspace(0.0, 0.5 * np.pi, 200001)
        circle = np.abs(np.stack([np.cos(th), np.sin(th)]))
        n, a, b = (scalars[m] @ circle**d for m, d in enumerate((e.eta, e.alpha, e.beta)))
        best = -math.inf
        for nj, aj, bj in zip(n.tolist(), a.tolist(), b.tolist()):
            try:
                best = max(best, nm._scalar_level(e, c, branch, nj, aj, bj)[0])
            except InfeasibleRayError:
                pass
        assert level.record.lam == pytest.approx(best, rel=1e-12)

    def test_adjacent_blocks_are_not_additive(self, pos_problem):
        # Two blocks that touch share a difference quotient of the gradient
        # term, so N(e_0 + e_1) != N(e_0) + N(e_1) (relative defect 0.5 here).
        tri = build_triple(pos_problem)
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS)
        basis = np.zeros((2, tri.dim))
        basis[0, 5:12] = 1.0
        basis[1, 12:19] = 1.0
        basis /= np.array([[tri.norm_of(basis[0])], [tri.norm_of(basis[1])]])
        with pytest.raises(SurrogateInvalidError, match="basis vectors 0 and 1 are not additive"):
            GenusSurrogate(con, basis, n_samples=8)

    def test_polish_stops_at_rounding_floor(self, monkeypatch):
        # The minus-branch surrogates of the intersect benchmark sit at levels
        # near 1.45e4, where the coefficient gradient rests near 8e-8, at the
        # rounding floor of the level, and the line search asks for decreases
        # below the level's rounding; what ends the polish short of its
        # iteration cap is its relative test, which that gradient meets.
        expr = "0.5*(sin(2*pi*x)-0.5+abs(sin(2*pi*x)-0.5))"
        problem = dirichlet_problem_1d(31, expr, expr)
        con = SphereConstraint(triple=build_triple(problem), tag=ConeTag.A_POS_B_POS)
        basis = build_disjoint_basis(problem, ConeTag.A_POS_B_POS, 3)
        c_ss, _ = compute_c_star_star(con, multistart=8, seed=0)
        capped = []
        descend = nm._sphere_descend

        def counting(*args, **kwargs):
            out = descend(*args, **kwargs)
            if args[3].max_iter == nm._POLISH_ITER and out.iterations == nm._POLISH_ITER:
                capped.append(out.residual)
            return out

        monkeypatch.setattr(nm, "_sphere_descend", counting)
        for k in (2, 3):
            surrogate = GenusSurrogate(con, basis[:k], n_samples=16)
            warm = ()
            for c in (0.1 * c_ss, 0.9 * c_ss):
                level = surrogate_level(surrogate, c, "minus", warm_xi=warm)
                warm = (level.xi,)
        assert capped == []

    def test_basis_scalars_built_once_per_surrogate(self, monkeypatch, pos_problem,
                                                    pos_con_plus):
        built = []
        basis_scalars = nm._basis_scalars

        def counting(working, vectors):
            built.append(vectors.shape[0])
            return basis_scalars(working, vectors)

        monkeypatch.setattr(nm, "_basis_scalars", counting)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 2)
        surrogate = GenusSurrogate(pos_con_plus, basis, n_samples=8)
        for c in (-0.1, -0.05):
            surrogate_level(surrogate, c, "plus")
        assert built == [2]

    def test_surrogate_validation(self, pos_con_plus):
        with pytest.raises(ValueError, match="between 1 and 16"):
            GenusSurrogate(pos_con_plus, np.ones((17, 4)))
        with pytest.raises(ValueError, match="n_samples"):
            GenusSurrogate(pos_con_plus, np.ones((1, 4)), n_samples=0)

    def test_family_needs_enough_basis_vectors(self, signed_problem, signed_con_both):
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 2)
        with pytest.raises(ValueError, match="basis has 2 vectors, largest requested k is 3"):
            _LevelChain(signed_con_both, "plus", (3,), basis=basis)

    def test_warm_xi_shape_checked(self, pos_con_plus):
        u = np.ones(pos_con_plus.triple.dim)
        u /= pos_con_plus.triple.norm_of(u)
        with pytest.raises(ValueError, match="warm coefficient vector"):
            surrogate_level(
                GenusSurrogate(pos_con_plus, u[None, :]), -0.05, "plus", warm_xi=[np.ones(3)]
            )


class TestSignFlip:
    def test_negated_weight_negates_levels_bitwise(self):
        pos = dirichlet_problem_1d(31, "1+x", "cos(2*pi*x)+0.2")
        neg = dirichlet_problem_1d(31, "-(1+x)", "cos(2*pi*x)+0.2")
        con_pos = SphereConstraint(triple=build_triple(pos), tag=ConeTag.A_POS)
        con_neg = SphereConstraint(triple=build_triple(neg), tag=ConeTag.A_NEG)
        for c in (-0.01, -0.2):
            lam_p, rec_p = minimize_ground_level(con_pos, c, "plus", multistart=6)
            lam_n, rec_n = minimize_ground_level(con_neg, c, "plus", multistart=6)
            assert lam_n == -lam_p
            assert np.array_equal(rec_p.coefficients, rec_n.coefficients)
            assert rec_p.t_root == rec_n.t_root


class TestExtractCriticalPoint:
    def test_scales_to_requested_level(self, pos_con_plus):
        rng = np.random.default_rng(21)
        c = -0.03
        rec = None
        while rec is None:
            u = random_cone_point(pos_con_plus, rng)
            try:
                rec = extract_critical_point(pos_con_plus, c, "minus", u, k=2, iterations=7)
            except InfeasibleRayError:
                continue
        tri = pos_con_plus.triple
        assert rec.k == 2 and rec.iterations == 7 and not rec.converged
        assert rec.energy_defect == abs(phi(tri, rec.lam, rec.coefficients) - c)
        assert rec.energy_defect <= 1e-8 * (1.0 + abs(c))
        assert np.array_equal(rec.coefficients, rec.t_root * u)
        # a generic ray point is scaled onto the level set but is not critical
        assert rec.residual_grad > 1e-3


class TestWeightScaling:
    """Scaling the weight a by kappa > 0 scales A, so lambda scales by 1/kappa
    on every ray and at the ground optimum; the thresholds look at (N, B)
    alone on the same cone, so they do not move."""

    KAPPA = 3.0
    C = -0.05

    @pytest.fixture(scope="class")
    def constraints(self):
        def constraint(a):
            prob = dirichlet_problem_1d(31, a, "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0)
            return SphereConstraint(triple=build_triple(prob), tag=ConeTag.A_POS)

        return constraint("1+x"), constraint(f"{self.KAPPA}*(1+x)")

    def test_fixed_ray(self, constraints):
        base, scaled = constraints
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(20):
            u = random_cone_point(base, rng)
            for branch in ("plus", "minus"):
                try:
                    lam, t = lambda_tilde(base, self.C, branch, u)
                except InfeasibleRayError:
                    # which branches a ray has depends on (N, B) alone
                    with pytest.raises(InfeasibleRayError):
                        lambda_tilde(scaled, self.C, branch, u)
                    continue
                lam_k, t_k = lambda_tilde(scaled, self.C, branch, u)
                assert t_k == t
                assert abs(self.KAPPA * lam_k - lam) <= 1e-13 * abs(lam)
                solved += 1
        assert solved >= 20

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_ground_optimum(self, constraints, branch):
        base, scaled = constraints
        lam, rec = minimize_ground_level(base, self.C, branch, multistart=4, seed=0)
        lam_k, rec_k = minimize_ground_level(scaled, self.C, branch, multistart=4, seed=0)
        for r in (rec, rec_k):
            assert r.converged and r.residual_grad <= 1e-6
        assert abs(self.KAPPA * lam_k - lam) <= 1e-9 * abs(lam)

    def test_thresholds_do_not_move(self, constraints):
        base, scaled = constraints
        c_star = compute_c_star(base, multistart=4, seed=0)
        assert abs(compute_c_star(scaled, multistart=4, seed=0) - c_star) <= 1e-12 * abs(c_star)
        c_ss, _ = compute_c_star_star(base, multistart=4, seed=0)
        c_ss_k, _ = compute_c_star_star(scaled, multistart=4, seed=0)
        assert abs(c_ss_k - c_ss) <= 1e-12 * c_ss


class TestNoAbsoluteScale:
    """The descent's step bounds are turns, and each cone scalar meets its
    own margin, so a weight scaled by s moves every level by exactly 1/s:
    1D Dirichlet n = 63, a = s (1+x), b = cos(2 pi x) + 0.2, multistart 2."""

    @staticmethod
    def constraint(s, tag, p=2.0, beta=4.0):
        prob = dirichlet_problem_1d(63, f"{s!r}*(1+x)", "cos(2*pi*x)+0.2", p=p, beta=beta)
        mask = cone_node_mask(prob, tag)
        return SphereConstraint(build_triple(prob), tag=tag, start_support=mask)

    @staticmethod
    def certified(rec):
        return rec.converged and rec.energy_defect <= 1e-8 * (1.0 + abs(rec.c))

    @pytest.mark.parametrize("scale", [1e8, 1e16, 1e24])
    @pytest.mark.parametrize("p, beta", [(2.0, 4.0), (3.0, 5.0)], ids=["p2", "p3"])
    def test_plus_level_scales_with_the_weight(self, p, beta, scale):
        # an absolute step cap of 1e12 would stop s = 1e16 and 1e24 at
        # max_iter off the level; a cap that is a turn scales with them
        lam, _ = minimize_ground_level(
            self.constraint(1.0, ConeTag.A_POS, p, beta), -0.01, "plus", multistart=2, seed=0
        )
        lam_s, rec = minimize_ground_level(
            self.constraint(scale, ConeTag.A_POS, p, beta), -0.01, "plus", multistart=2, seed=0
        )
        assert self.certified(rec)
        assert lam_s * scale == pytest.approx(lam, rel=1e-12)

    def test_plus_level_far_below_rounding(self):
        # |c|**((eta-alpha)/eta) at p = 3: 20 decades of c are 10 of the level
        con = self.constraint(1.0, ConeTag.A_POS, 3.0, 5.0)
        records = [minimize_ground_level(con, c, "plus", multistart=2, seed=0)[1]
                   for c in (-1e-40, -1e-60)]
        assert all(self.certified(rec) for rec in records)
        assert records[1].lam / records[0].lam == pytest.approx(1e-10, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e8, 1e16])
    def test_minus_level_scales_with_the_weight(self, scale):
        # a B margin that grew with |A| would leave s = 1e8 off the level
        # and draw no start inside the cone at s = 1e16
        lam, _ = minimize_ground_level(
            self.constraint(1.0, ConeTag.A_POS_B_POS), 5.0, "minus", multistart=2, seed=0
        )
        lam_s, rec = minimize_ground_level(
            self.constraint(scale, ConeTag.A_POS_B_POS), 5.0, "minus", multistart=2, seed=0
        )
        assert self.certified(rec)
        assert lam_s * scale == pytest.approx(lam, rel=1e-12)
