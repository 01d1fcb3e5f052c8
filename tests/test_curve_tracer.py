"""Curve tracing over energy levels, shape verdicts, intersection solves."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fibercurve.curve_tracer as ct
import fibercurve.nehari_minmax as nm
from fibercurve.functional_core import ConeTag
from fibercurve.model_problems import (
    build_disjoint_basis,
    build_triple,
    cone_node_mask,
    dirichlet_problem_1d,
)
from fibercurve.curve_tracer import (
    EnergyCurve,
    extend_minus_past_cstarstar,
    geometric_grid,
    intersect_with_lambda,
    limit_check_zero,
    ordering_check,
    trace_curve,
    trace_family,
)
from fibercurve.nehari_minmax import (
    GenusSurrogate,
    SphereConstraint,
    compute_c_star_star,
    minimize_ground_level,
    surrogate_level,
)
from fibercurve.reporting import curve_rows


class TestGeometricGrid:
    def test_negative_window(self):
        g = geometric_grid(-1.0, -0.01, 5)
        assert g[0] == pytest.approx(-1.0)
        assert g[-1] == pytest.approx(-0.01)
        assert np.all(np.diff(g) > 0)
        # geometric spacing: constant ratio
        r = g[1:] / g[:-1]
        assert np.allclose(r, r[0])

    def test_positive_window(self):
        g = geometric_grid(0.1, 10.0, 4)
        assert np.all(np.diff(g) > 0)

    def test_errors(self):
        with pytest.raises(ValueError, match="two grid points"):
            geometric_grid(-1.0, -0.1, 1)
        with pytest.raises(ValueError, match="equal sign"):
            geometric_grid(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="equal sign"):
            geometric_grid(0.0, 1.0, 3)


class TestTraceCurve:
    def test_shape_verdicts_on_constant_instance(self, const_con_plus):
        grid = geometric_grid(-0.5, -0.01, 5)
        curve = trace_curve(const_con_plus, grid, "plus", multistart=8)
        assert curve.truncation_reason == ""
        assert len(curve.points) == 5
        v = curve.verdicts
        assert v["monotone_decreasing"]
        assert v["lipschitz_ok"]
        assert v["norm_monotone"]
        assert curve.points[0].lam > curve.points[-1].lam > 0.0
        lams = [p.lam for p in curve.points]
        assert lams == sorted(lams, reverse=True)

    def test_retrace_is_bit_identical(self, const_con_plus):
        grid = geometric_grid(-0.2, -0.02, 3)
        c1 = trace_curve(const_con_plus, grid, "plus", multistart=4)
        c2 = trace_curve(const_con_plus, grid, "plus", multistart=4)
        assert [p.lam for p in c1.points] == [p.lam for p in c2.points]
        for p1, p2 in zip(c1.points, c2.points):
            assert np.array_equal(p1.coefficients, p2.coefficients)

    def test_truncates_at_infeasible_level(self, const_con_plus):
        # the plus branch has no critical scaling at c = 0
        curve = trace_curve(const_con_plus, [-0.1, -0.01, 0.0], "plus", multistart=4)
        assert len(curve.points) == 2
        assert "stopped at c=0.0" in curve.truncation_reason

    def test_all_points_dropped_when_start_is_infeasible(self, const_con_plus):
        curve = trace_curve(const_con_plus, [0.0, 0.1], "plus", multistart=2)
        assert curve.points == ()
        assert "stopped at c=0.0" in curve.truncation_reason

    def test_rejects_unsorted_grid(self, const_con_plus):
        with pytest.raises(ValueError, match="strictly increasing"):
            trace_curve(const_con_plus, [-0.01, -0.1], "plus")

    def test_negative_warm_multistart_raises_before_a_solve(self, monkeypatch, const_con_plus):
        def solve(*args, **kw):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(ct, "minimize_ground_level", solve)
        with pytest.raises(ValueError, match="multistart must be at least 0, got -1"):
            trace_family(const_con_plus, [-0.1, -0.01], "plus", ks=(1,), warm_multistart=-1)

    def test_zero_multistart_without_starts_raises_before_a_solve(self, monkeypatch):
        # the first k = 1 level would draw no start; it was reported as an
        # infeasible level, an empty curve truncated at its first c
        tri = build_triple(dirichlet_problem_1d(15, "1+x", "cos(2*pi*x)+0.2"))
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS)

        def solve(*args, **kw):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(ct, "minimize_ground_level", solve)
        with pytest.raises(ValueError, match="multistart must be at least 1, got 0"):
            trace_family(con, [-0.2, -0.1], "plus", ks=(1,), multistart=0)


class TestLipschitzVerdict:
    @staticmethod
    def segment(sign, jump):
        # two levels 0.5 apart in c with slopes of size 2 and 1: the bound is
        # 3 * max|slope| * |dc| = 3.0; reported levels fall with c when sign
        # is 1 and rise when it is -1, and the slopes have the same signs
        def record(c, lam, slope):
            return nm.CriticalPointRecord(
                branch="plus", k=1, c=c, lam=sign * lam, coefficients=np.ones(3), t_root=1.0,
                slope=-sign * slope, residual_grad=0.0, energy_defect=0.0, iterations=0,
                converged=True,
            )

        return [record(-1.0, 4.0, 2.0), record(-0.5, 4.0 - jump, 1.0)]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jump_above_the_bound_fails(self, sign):
        v = ct._curve_verdicts(self.segment(sign, 3.5), sign, 1e-6)
        assert v["monotone_decreasing"]
        assert not v["lipschitz_ok"]
        assert v["lipschitz_worst_ratio"] > 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jump_just_below_the_bound_passes(self, sign):
        # the bound takes the larger slope: the smaller one would fail this jump
        v = ct._curve_verdicts(self.segment(sign, 2.997), sign, 1e-6)
        assert v["lipschitz_ok"]
        assert 0.99 < v["lipschitz_worst_ratio"] < 1.0


class TestMonotoneVerdict:
    # the level rises with c on a positive cone and falls on a negative one,
    # against the cone's direction; the noise bound is 1e-6 * (1 + 4) = 5e-6
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("rise, monotone", [(0.5, False), (4e-6, True)])
    def test_level_moving_against_the_cone_sign(self, sign, rise, monotone):
        v = ct._curve_verdicts(TestLipschitzVerdict.segment(sign, -rise), sign, 1e-6)
        assert v["monotone_decreasing"] is monotone
        assert v["lipschitz_ok"]


class TestTraceFamily:
    def test_curves_carry_the_cone_sign(self, const_con_plus):
        # an A-negative cone reports negated levels, and its curves say so
        mirror = dirichlet_problem_1d(15, "-(1+x)", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0)
        neg = trace_family(
            SphereConstraint(build_triple(mirror), tag=ConeTag.A_NEG), [-0.1], "plus", ks=(1,),
            multistart=2,
        )[1]
        assert neg.lambda_sign == -1.0
        assert neg.points[0].lam < 0.0
        pos = trace_family(const_con_plus, [-0.1], "plus", ks=(1,), multistart=2)[1]
        assert pos.lambda_sign == 1.0

    def test_k_monotone_with_surrogates(self, signed_problem, signed_con_both):
        basis = build_disjoint_basis(signed_problem, ConeTag.A_POS_B_POS, 2)
        grid = geometric_grid(-0.2, -0.05, 3)
        fam = trace_family(
            signed_con_both, grid, "plus", ks=(1, 2), basis=basis,
            multistart=8, n_samples=16,
        )
        assert set(fam) == {1, 2}
        k1, k2 = fam[1], fam[2]
        assert len(k1.points) == len(k2.points) == 3
        assert k1.verdicts["k_monotone"] and k2.verdicts["k_monotone"]
        for p1, p2 in zip(k1.points, k2.points):
            assert p2.lam >= p1.lam - 1e-9
        assert all(row["flags"] != "surrogate" for row in curve_rows([k1]))
        assert all(row["flags"] == "surrogate" for row in curve_rows([k2]))
        assert k2.verdicts["monotone_decreasing"]

    def test_infeasible_surrogate_ends_only_its_curves(self, pos_problem, pos_con_plus):
        # Far below c*, the first basis vector alone has no plus-branch
        # scaling, so the first coefficient sample of every surrogate leaves
        # the cone; the surrogate curves stop there and the ground curve,
        # whose minimizers use the whole grid, goes on.
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        fam = trace_family(
            pos_con_plus, [-1e4, -1e3], "plus", ks=(1, 2, 3), basis=basis,
            multistart=4, n_samples=16,
        )
        assert len(fam[1].points) == 2 and fam[1].truncation_reason == ""
        for k in (2, 3):
            assert fam[k].points == ()
            reason = fam[k].truncation_reason
            assert reason.startswith("stopped at c=-10000.0: coefficient sample")
            assert "leaves the feasible cone" in reason

    def test_surrogate_below_the_ground_fails_k_monotone(self, monkeypatch, pos_problem,
                                                         pos_con_plus):
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 2)
        level_of = ct.surrogate_level

        def lowered(surrogate, c, branch, warm_xi=()):
            level = level_of(surrogate, c, branch, warm_xi)
            return replace(level, record=replace(level.record, lam=-1.0))

        monkeypatch.setattr(ct, "surrogate_level", lowered)
        fam = trace_family(
            pos_con_plus, [-0.2, -0.1], "plus", ks=(1, 2), basis=basis,
            multistart=4, n_samples=16,
        )
        assert [p.lam for p in fam[2].points] == [-1.0, -1.0]
        assert fam[1].verdicts["k_monotone"]
        assert not fam[2].verdicts["k_monotone"]

    def test_validation(self, signed_con_both):
        with pytest.raises(ValueError, match="must be positive"):
            trace_family(signed_con_both, [-0.1, -0.01], "plus", ks=(0, 1))
        with pytest.raises(ValueError, match="disjoint-support basis"):
            trace_family(signed_con_both, [-0.1, -0.01], "plus", ks=(2,))
        with pytest.raises(ValueError, match="largest requested k"):
            trace_family(
                signed_con_both, [-0.1, -0.01], "plus", ks=(3,),
                basis=np.ones((2, signed_con_both.triple.dim)),
            )


class TestOrderingCheck:
    def test_plus_below_minus(self, const_con_plus):
        grid = geometric_grid(-0.3, -0.05, 3)
        plus = trace_curve(const_con_plus, grid, "plus", multistart=6)
        minus = trace_curve(const_con_plus, grid, "minus", multistart=6)
        out = ordering_check(plus, minus)
        assert out["ok"]
        assert out["n_compared"] == 3
        assert out["worst_gap"] < 0.0

    def test_negated_levels_on_a_negative_cone(self, const_con_plus):
        # an A-negative cone reports every level negated; its curves carry
        # lambda_sign -1, and with it the comparison is the A-positive one
        grid = geometric_grid(-0.3, -0.05, 3)
        plus = trace_curve(const_con_plus, grid, "plus", multistart=6)
        minus = trace_curve(const_con_plus, grid, "minus", multistart=6)

        def negated(curve, lambda_sign=-1.0):
            points = tuple(replace(p, lam=-p.lam) for p in curve.points)
            return replace(curve, points=points, lambda_sign=lambda_sign)

        assert ordering_check(negated(plus), negated(minus)) == ordering_check(plus, minus)
        assert not ordering_check(negated(plus, 1.0), negated(minus, 1.0))["ok"]

    def test_mixed_signs_raise(self):
        plus = EnergyCurve(branch="plus", k=1, points=(), verdicts={})
        minus = EnergyCurve(branch="minus", k=1, points=(), verdicts={}, lambda_sign=-1.0)
        with pytest.raises(ValueError, match="opposite cone signs"):
            ordering_check(plus, minus)
        with pytest.raises(ValueError, match="opposite cone signs"):
            ordering_check(replace(minus, branch="plus"), replace(plus, branch="minus"))

    def test_empty_overlap(self, const_con_plus):
        plus = trace_curve(const_con_plus, [-0.1], "plus", multistart=2)
        minus = trace_curve(const_con_plus, [-0.2], "minus", multistart=2)
        out = ordering_check(plus, minus)
        assert out["ok"] and out["n_compared"] == 0


class TestLimitCheckZero:
    def test_vanishing_limit_diagnostics(self, signed_con_plus):
        out = limit_check_zero(
            signed_con_plus, schedule=(-1e-2, -1e-3, -1e-4), multistart=8
        )
        assert out["magnitude_decreasing"]
        assert out["bound_ok"]
        assert out["trend_ok"]
        # measured decay of the ground level over two decades follows the
        # |c|**((eta-alpha)/eta) scaling, which gives 10**-0.5 here; the
        # stricter 0.05 default target is not met and is reported honestly
        assert 0.25 < out["limit_ratio"] < 0.4
        assert not out["limit_ok"]
        for row in out["points"]:
            assert row["t_root"] <= row["t_bound"] * (1.0 + 1e-10)

    def test_schedule_validation(self, signed_con_plus):
        with pytest.raises(ValueError, match="must be negative"):
            limit_check_zero(signed_con_plus, schedule=(-1e-2, 1e-3))
        with pytest.raises(ValueError, match="two usable levels"):
            limit_check_zero(signed_con_plus, schedule=(-1e-2,))


class TestIntersect:
    def test_root_recovers_known_level(self, const_con_plus):
        c_truth = -0.05
        lam_truth, _ = minimize_ground_level(const_con_plus, c_truth, "plus", multistart=8)
        out = intersect_with_lambda(
            const_con_plus, "plus", lam_truth, -0.2, -0.01, multistart=8
        )
        assert not out["skipped"]
        (pt,) = out["points"]
        assert pt["k"] == 1
        assert pt["iterations"] > 0
        assert pt["c"] == pytest.approx(c_truth, rel=1e-6)
        assert pt["lam"] == pytest.approx(lam_truth, rel=1e-6)
        assert out["c_increasing"] and out["norms_ok"]
        # Newton on the exact slope; bisection alone needed 34 level solves
        assert pt["iterations"] < pt["probes"] <= 12

    def test_surrogate_roots_are_not_converged(self, pos_problem, pos_con_plus):
        # k >= 2 roots are surrogate bounds, recorded like curve surrogates
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        lam_truth, _ = minimize_ground_level(pos_con_plus, -0.05, "plus", multistart=4)
        out = intersect_with_lambda(
            pos_con_plus, "plus", lam_truth, -0.2, -0.01, ks=(1, 2, 3), basis=basis,
            n_samples=16, multistart=4,
        )
        assert not out["skipped"]
        converged = {p["k"]: p["record"].converged for p in out["points"]}
        assert converged == {1: True, 2: False, 3: False}

    def test_window_expansion_finds_outside_root(self, const_con_plus):
        lam_truth, _ = minimize_ground_level(const_con_plus, -0.05, "plus", multistart=8)
        out = intersect_with_lambda(
            const_con_plus, "plus", lam_truth, -0.9, -0.5, multistart=8
        )
        (pt,) = out["points"]
        assert pt["c"] == pytest.approx(-0.05, rel=1e-6)
        assert pt["probes"] <= 12

    def test_window_moves_down_to_a_root_below(self, pos_problem, pos_triple):
        # The target is the plus level at c = -0.3, below the window: the
        # window moves down, doubling, to the root of a bracketing window;
        # a floor above the root ends the moves with the target unreachable.
        tag = ConeTag.A_POS
        con = SphereConstraint(pos_triple, tag=tag, start_support=cone_node_mask(pos_problem, tag))
        lam_truth, _ = minimize_ground_level(con, -0.3, "plus", multistart=8, seed=0)
        (moved,) = intersect_with_lambda(
            con, "plus", lam_truth, -0.05, -0.01, multistart=8, seed=0
        )["points"]
        (bracketed,) = intersect_with_lambda(
            con, "plus", lam_truth, -0.5, -0.01, multistart=8, seed=0
        )["points"]
        assert moved["c"] == pytest.approx(bracketed["c"], rel=1e-9)
        assert moved["c"] == pytest.approx(-0.3, rel=1e-9)
        assert moved["probes"] > bracketed["probes"]
        out = intersect_with_lambda(
            con, "plus", lam_truth, -0.05, -0.01, multistart=8, seed=0, c_floor=-0.2
        )
        assert not out["points"]
        (skip,) = out["skipped"]
        assert skip["k"] == 1
        assert "not reachable above c=-0.2" in skip["reason"]

    def test_one_probe_at_the_floor_decides_reachability(self, monkeypatch, pos_problem,
                                                           pos_triple):
        # The target is the plus level at c = -0.3, below the floor -0.2.
        # The first move down would pass the floor, so it probes the floor
        # itself, which does not bracket the target, and the next move ends.
        # Halving the gap to the floor instead took 55 level solves.
        tag = ConeTag.A_POS
        con = SphereConstraint(pos_triple, tag=tag, start_support=cone_node_mask(pos_problem, tag))
        probes = []
        level = ct._LevelChain.level

        def recording(chain, c, k):
            probes.append(c)
            return level(chain, c, k)

        monkeypatch.setattr(ct._LevelChain, "level", recording)
        out = intersect_with_lambda(
            con, "plus", 4.583013195078587, -0.05, -0.01, multistart=8, seed=0, c_floor=-0.2
        )
        assert not out["points"]
        (skip,) = out["skipped"]
        assert "not reachable above c=-0.2" in skip["reason"]
        assert len(probes) <= 3
        assert probes[-1] == -0.2

    def test_power_law_expansion_toward_plus_ceiling(self, const_con_plus):
        # The root sits far above the window, near the ceiling c = 0, where
        # the level vanishes like |c|**((eta-alpha)/eta).  In x = log(-c) and
        # log|level| that power law is a line and the ceiling is x -> -inf,
        # so a move to half the |c| the line predicts brackets the root.
        c_truth = -1e-8
        lam_truth, _ = minimize_ground_level(const_con_plus, c_truth, "plus", multistart=8)
        out = intersect_with_lambda(
            const_con_plus, "plus", lam_truth, -0.5, -0.01, multistart=8
        )
        (pt,) = out["points"]
        assert pt["c"] == pytest.approx(c_truth, rel=1e-6)
        assert pt["lam"] == pytest.approx(lam_truth, rel=1e-6)
        assert pt["probes"] <= 12

    def test_far_plus_root_is_probed_near_itself(self, monkeypatch, const_con_plus):
        # The root of target 1e-12 lies near c = -1.3e-52.  A move toward the
        # ceiling goes at most to half the |c| the power law predicts, so no
        # probe lands far beyond the root.
        probes = []
        level = ct._LevelChain.level

        def recording(chain, c, k):
            probes.append(c)
            return level(chain, c, k)

        monkeypatch.setattr(ct._LevelChain, "level", recording)
        out = intersect_with_lambda(const_con_plus, "plus", 1e-12, -0.2, -0.1, multistart=2)
        (pt,) = out["points"]
        assert pt["lam"] == pytest.approx(1e-12, rel=1e-9)
        assert pt["probes"] <= 6
        assert min(abs(c) for c in probes) >= 1e-2 * abs(pt["c"])

    def test_plus_root_near_the_smallest_floats_is_found(self, const_con_plus):
        # target 1e-60 has its root near c = -1.3e-244: the moves toward the
        # ceiling stay above it instead of rounding c to 0
        out = intersect_with_lambda(const_con_plus, "plus", 1e-60, -0.2, -0.1, multistart=2)
        (pt,) = out["points"]
        assert pt["lam"] == pytest.approx(1e-60, rel=1e-9)
        assert -1e-200 < pt["c"] < 0.0

    def test_plus_root_among_the_subnormal_floats_ends_in_one_entry(self, const_con_plus):
        # target 1e-78 has its root at a subnormal c, where c / c_bar of a ray
        # can underflow to 0 and the ray is reported off the plus branch: the
        # k gets a point or a skip entry, and nothing raises
        out = intersect_with_lambda(const_con_plus, "plus", 1e-78, -0.2, -0.1, multistart=2)
        (entry,) = out["points"] + out["skipped"]
        assert entry["k"] == 1

    def test_plus_target_beyond_the_floats_skips(self, const_con_plus):
        # moving away from the ceiling toward level 1e300 would take c past
        # the largest float: the target is not bracketed, and nothing raises
        out = intersect_with_lambda(const_con_plus, "plus", 1e300, -0.2, -0.1, multistart=2)
        assert not out["points"]
        (skip,) = out["skipped"]
        assert skip["k"] == 1
        assert "not bracketed" in skip["reason"]

    def test_log_newton_along_plus_power_law(self):
        # The intersect benchmark's plus k = 1 root (target 10 in
        # [-0.5, -0.01]).  The level follows lambda ~ K|c|**gamma, concave
        # in c; the plus branch's coordinates, log|level| over log(-c), make
        # it nearly linear, so Newton converges in a few probes.
        tri = build_triple(dirichlet_problem_1d(31, "sin(2*pi*x)+0.3", "cos(2*pi*x)+0.2"))
        con = SphereConstraint(triple=tri, tag=ConeTag.A_POS)
        out = intersect_with_lambda(con, "plus", 10.0, -0.5, -0.01, multistart=8, seed=0)
        (pt,) = out["points"]
        assert pt["lam"] == pytest.approx(10.0, rel=1e-9)
        assert pt["record"].converged and pt["record"].residual_grad <= 1e-6
        assert pt["probes"] <= 8

    @staticmethod
    def window_end_levels(monkeypatch, con, branch):
        """The levels intersect_with_lambda reads at the ends of the window
        [-0.2, -0.1] with multistart 2: its first two probes, whatever the
        target."""
        ends = []
        level = ct._LevelChain.level

        class Read(Exception):
            pass

        def recording(chain, c, k):
            record = level(chain, c, k)
            ends.append(record.lam)
            if len(ends) == 2:
                raise Read
            return record

        with monkeypatch.context() as patch:
            patch.setattr(ct._LevelChain, "level", recording)
            with pytest.raises(Read):
                intersect_with_lambda(con, branch, 1.0, -0.2, -0.1, multistart=2)
        return ends

    @pytest.mark.parametrize(
        "branch,end,ulps,probes",
        [
            ("plus", 0, 0, 2), ("plus", 0, 1, 4), ("plus", 0, -1, 2),
            ("plus", 1, 0, 2), ("plus", 1, 1, 3), ("plus", 1, -1, 4),
            ("minus", 0, 0, 2), ("minus", 0, 1, 4), ("minus", 0, -1, 3),
            ("minus", 1, 0, 2), ("minus", 1, 1, 3), ("minus", 1, -1, 4),
        ],
    )
    def test_target_at_a_window_end(self, monkeypatch, const_con_plus, branch, end, ulps,
                                    probes):
        # A target equal to a window end's level is that end, found by the
        # two window probes.  One ulp away, the root lies just inside or
        # just outside the window: one Newton step, after a move of the
        # window when outside, stops on its size (at plus -0.2 one ulp down,
        # the log levels round equal and the end is the root).
        c_end = (-0.2, -0.1)[end]
        target = self.window_end_levels(monkeypatch, const_con_plus, branch)[end]
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        out = intersect_with_lambda(const_con_plus, branch, target, -0.2, -0.1, multistart=2)
        (pt,) = out["points"]
        assert pt["probes"] == probes
        assert pt["lam"] == pytest.approx(target, rel=1e-14)
        assert pt["c"] == pytest.approx(c_end, rel=1e-13)
        if ulps == 0:
            assert (pt["c"], pt["lam"], pt["iterations"]) == (c_end, target, 0)

    def test_newton_step_below_half_an_ulp_ends_the_refinement(self, const_con_plus):
        # Target 1e-6 has its root near c = -1.34e-28, x = log(-c) = -64.18.
        # The first refinement step lands where f is 1.8e-15 and the next
        # Newton step, 7.1e-15, is below half an ulp of x: the tangent's root
        # is the probe itself, which ends the refinement (bisecting on took
        # three more probes to the same c).
        out = intersect_with_lambda(const_con_plus, "plus", 1e-6, -0.2, -0.1, multistart=2)
        (pt,) = out["points"]
        assert (pt["probes"], pt["iterations"]) == (4, 2)
        assert pt["lam"] == pytest.approx(1e-6, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"branch": "foo"}, "branch must be one of"),
            ({"ks": (0, 1)}, "k values must be positive"),
            ({"ks": (1, 2)}, "basis is required"),
            ({"ks": (2,), "basis": True, "n_samples": 0}, "n_samples must be positive"),
            ({"multistart": -3}, "multistart must be at least 0, got -3"),
            # k = 1 without extra starts: the first solve would have no start
            ({"multistart": 0}, "multistart must be at least 1, got 0"),
        ],
        ids=["branch", "k0", "missing_basis", "n_samples0", "negative_multistart",
             "zero_multistart"],
    )
    def test_caller_errors_raise(
        self, monkeypatch, const_problem, const_con_plus, kwargs, message
    ):
        # a caller error is not a skipped k: it raises before any level solve
        def solve(*args, **kw):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(ct, "minimize_ground_level", solve)
        monkeypatch.setattr(ct, "surrogate_level", solve)
        args = {"branch": "plus", "ks": (1,), "basis": None, "n_samples": 64, "multistart": 4,
                **kwargs}
        if args["basis"]:
            args["basis"] = build_disjoint_basis(const_problem, ConeTag.A_POS, 2)
        with pytest.raises(ValueError, match=message):
            intersect_with_lambda(
                const_con_plus, args["branch"], 1.0, -0.2, -0.01, ks=args["ks"],
                basis=args["basis"], n_samples=args["n_samples"], multistart=args["multistart"],
            )

    def test_unreachable_target_reports_reason(self, const_con_plus):
        out = intersect_with_lambda(
            const_con_plus, "plus", -5.0, -0.2, -0.1, multistart=2
        )
        assert not out["points"]
        (skip,) = out["skipped"]
        assert "not" in skip["reason"]

    @pytest.mark.parametrize("target", [-5.0, 0.0])
    def test_plus_target_of_the_other_sign_solves_no_level(self, monkeypatch, const_con_plus,
                                                           target):
        # Plus levels are positive at every c < 0 on an A-positive cone, so
        # no level is solved for a target of the other sign, or 0.
        probes = []
        level = ct._LevelChain.level

        def recording(chain, c, k):
            probes.append(c)
            return level(chain, c, k)

        monkeypatch.setattr(ct._LevelChain, "level", recording)
        out = intersect_with_lambda(const_con_plus, "plus", target, -0.2, -0.1, multistart=2)
        assert not out["points"]
        (skip,) = out["skipped"]
        assert skip["k"] == 1
        assert "not reachable" in skip["reason"]
        assert probes == []

    def test_infeasible_level_is_skipped(self, const_con_plus):
        # the plus branch has no critical scaling at c > 0 on any ray
        out = intersect_with_lambda(const_con_plus, "plus", 1.0, 0.1, 0.2, multistart=2)
        assert not out["points"]
        (skip,) = out["skipped"]
        assert skip["k"] == 1
        assert skip["reason"].startswith(
            "level infeasible: stopped at c=0.1: could not sample a feasible start"
        )

    def test_window_validation(self, const_con_plus):
        with pytest.raises(ValueError, match="c_lo < c_hi"):
            intersect_with_lambda(const_con_plus, "plus", 1.0, -0.1, -0.2)


class TestMinusContinuation:
    def test_sign_change_through_threshold(self, pos_con_plus):
        out = extend_minus_past_cstarstar(
            pos_con_plus, deltas=(0.05,), multistart=8
        )
        assert out["ok"]
        assert out["c_star_star"] == pytest.approx(235.66445356206995, rel=1e-4)
        assert out["positive_before"] and out["zero_at_threshold"] and out["negative_after"]
        assert all(m > 0 for m in out["minimizer_a_margins"])
        cs = [r.c for r in out["points"]]
        assert cs == sorted(cs)

    def test_negative_a_cone_mirrors_the_positive_one(self, pos_problem):
        # a -> -a with the A-negative cone is the same problem: the crossing
        # (from its own zero-level solve) and c** match, with negated levels
        mirror = dirichlet_problem_1d(31, "-(1+x)", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0)
        out = {}
        for name, problem, tag in (("pos", pos_problem, ConeTag.A_POS_B_POS),
                                   ("neg", mirror, ConeTag.A_NEG_B_POS)):
            con = SphereConstraint(build_triple(problem), tag=tag)
            out[name] = extend_minus_past_cstarstar(con, deltas=(0.05,), multistart=8, seed=0)
            out[name]["threshold"] = compute_c_star_star(con, multistart=8, seed=0)[0]
        pos, neg = out["pos"], out["neg"]
        assert neg["threshold"] == pos["threshold"] == neg["c_star_star"] == pos["c_star_star"]
        assert neg["minimizer_a_margins"] == pos["minimizer_a_margins"]
        for key in ("positive_before", "zero_at_threshold", "negative_after", "ok"):
            assert neg[key] == pos[key]
        assert pos["ok"]
        assert [r.c for r in neg["points"]] == [r.c for r in pos["points"]]
        assert [r.lam for r in neg["points"]] == [-r.lam for r in pos["points"]]

    @pytest.mark.parametrize("deltas", [(), (0.05, 1.0), (0.0,)], ids=["empty", "one", "zero"])
    def test_deltas_outside_the_unit_interval_raise(self, pos_con_plus, deltas):
        with pytest.raises(ValueError, match=r"deltas must be a nonempty list in \(0, 1\)"):
            extend_minus_past_cstarstar(pos_con_plus, deltas=deltas)

    def test_hypothesis_violation_raises(self, signed_con_plus):
        with pytest.raises(ValueError, match="continuation hypothesis fails"):
            extend_minus_past_cstarstar(signed_con_plus, deltas=(0.05,), multistart=16)


class TestLevelChain:
    def test_one_warm_start_rule(self, monkeypatch, const_con_plus, pos_con_plus):
        # Every k = 1 level of a curve, the zero limit, the c** crossing and an
        # intersection follows one rule: the first solve draws the cold
        # count, later solves the warm count beside the previous minimizer,
        # solve n is seeded (seed, n), and extra starts join every solve.
        calls = []
        solve, c0 = ct.minimize_ground_level, ct.minimize_c0

        def recording(*args, **kwargs):
            lam, record = solve(*args, **kwargs)
            starts = [np.array(w) for w in kwargs["extra_starts"]]
            calls.append((kwargs["multistart"], kwargs["seed"], starts,
                          record.coefficients / record.t_root))
            return lam, record

        zero_level_minimizers = []

        def recording_c0(*args, **kwargs):
            c2, mins = c0(*args, **kwargs)
            zero_level_minimizers.extend(mins)
            return c2, mins

        monkeypatch.setattr(ct, "minimize_ground_level", recording)
        monkeypatch.setattr(ct, "minimize_c0", recording_c0)

        def check(cold, warm, seed, extra=()):
            assert len(calls) >= 3
            assert [m for m, _, _, _ in calls] == [cold] + [warm] * (len(calls) - 1)
            assert [s for _, s, _, _ in calls] == [(seed, n) for n in range(len(calls))]
            previous = []
            for _, _, starts, u in calls:
                expected = previous + list(extra)
                assert len(starts) == len(expected)
                assert all(np.array_equal(a, b) for a, b in zip(starts, expected))
                previous = [u]
            calls.clear()

        trace_family(const_con_plus, [-0.2, -0.1, -0.05], "plus", ks=(1,),
                     multistart=6, warm_multistart=3, seed=7)
        check(cold=6, warm=3, seed=7)
        limit_check_zero(const_con_plus, schedule=(-1e-2, -1e-3, -1e-4), multistart=3, seed=7)
        check(cold=3, warm=3, seed=7)
        extend_minus_past_cstarstar(pos_con_plus, deltas=(0.05,), multistart=3,
                                    warm_multistart=2, seed=7)
        assert zero_level_minimizers
        check(cold=3, warm=2, seed=7, extra=zero_level_minimizers)
        lam_truth, _ = solve(const_con_plus, -0.05, "plus", multistart=4)
        intersect_with_lambda(const_con_plus, "plus", lam_truth, -0.2, -0.01, multistart=24,
                              seed=7)
        check(cold=24, warm=3, seed=(7, 1))

    def test_surrogate_data_built_once_per_k(self, monkeypatch, pos_problem):
        # The basis scalars and the coefficient samples with their N, A and B
        # do not depend on c: a chain builds each k's GenusSurrogate at its
        # first call of that k, calls surrogate_level once per k and c, and
        # every level it gets is the level a fresh surrogate gives with the
        # same warm starts.
        con = SphereConstraint(build_triple(pos_problem), tag=ConeTag.A_POS)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        built = []
        basis_scalars = nm._basis_scalars

        def counting(working, vectors):
            built.append(vectors.shape[0])
            return basis_scalars(working, vectors)

        calls = []
        level_of = ct.surrogate_level

        def recording(surrogate, c, branch, warm_xi=()):
            level = level_of(surrogate, c, branch, warm_xi)
            calls.append((surrogate, c, branch, list(warm_xi), level))
            return level

        monkeypatch.setattr(nm, "_basis_scalars", counting)
        monkeypatch.setattr(ct, "surrogate_level", recording)
        chain = ct._LevelChain(con, "plus", (2, 3), basis=basis, n_samples=16)
        grid = [-0.5, -0.2, -0.1, -0.05]
        for c in grid:
            assert set(chain(c)) == {2, 3}
        assert sorted(built) == [2, 3]
        assert len(calls) == 2 * len(grid)
        for surrogate, c, branch, warm, level in calls:
            assert surrogate.constraint is con
            fresh_surrogate = GenusSurrogate(con, surrogate.basis, surrogate.n_samples)
            fresh = surrogate_level(fresh_surrogate, c, branch, warm_xi=warm)
            assert (fresh.record.lam, fresh.record.t_root) == (level.record.lam,
                                                                level.record.t_root)
            assert np.array_equal(fresh.xi, level.xi)
            assert np.array_equal(fresh.record.coefficients, level.record.coefficients)

    def test_level_of_a_dropped_k_raises(self, const_con_plus):
        # the plus branch has no level at c > 0, so the one extra start is
        # not usable, and no start is drawn
        u = np.ones(const_con_plus.triple.dim)
        chain = ct._LevelChain(const_con_plus, "plus", (1,), multistart=0, extra_starts=[u])
        for c in (0.1, 0.2):
            with pytest.raises(nm.InfeasibleLevelError, match="stopped at c=0.1: no feasible"):
                chain.level(c, 1)
        assert chain.alive == []

    def test_surrogate_below_its_lower_neighbour_is_replaced(self, monkeypatch, pos_problem):
        # A k = 3 level below the k = 2 level at the same c is replaced by
        # it, with k = 3 and the k = 2 maximizer zero-padded as its xi.
        con = SphereConstraint(build_triple(pos_problem), tag=ConeTag.A_POS)
        basis = build_disjoint_basis(pos_problem, ConeTag.A_POS_B_POS, 3)
        level_of = ct.surrogate_level

        def lowered(surrogate, c, branch, warm_xi=()):
            level = level_of(surrogate, c, branch, warm_xi)
            if surrogate.k == 3:
                level = replace(level, record=replace(level.record, lam=-1.0))
            return level

        monkeypatch.setattr(ct, "surrogate_level", lowered)
        chain = ct._LevelChain(con, "plus", (2, 3), basis=basis, n_samples=16)
        levels = chain(-0.1)
        assert levels[2].lam > 0.0
        assert levels[3] == replace(levels[2], k=3)
        assert np.array_equal(chain._warm_xi[3], np.append(chain._warm_xi[2], 0.0))
