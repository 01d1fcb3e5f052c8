"""Acceptance battery: one recorded pass/fail line per criterion.

Each test exercises one advertised guarantee of the package at its stated
tolerance on desk-scale instances, records a summary line (shown in the
terminal summary section), and then asserts.  The vanishing-level check
asserts the rate at which the plus ground level goes to zero as c -> 0-:
the level behaves like K |c|**((eta-alpha)/eta), so for the exponents
(1.5, 2, 4) two decades of c shrink it by 10**(-1/2).  On the signed
instance the measured ratio level(-1e-4)/level(-1e-2) is 0.3162131, a
fitted exponent of 0.2500100 against the predicted 0.25.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import record_acceptance_line
from fibercurve import (
    Case,
    ConeTag,
    Exponents,
    RayData,
    SphereConstraint,
    build_disjoint_basis,
    build_triple,
    classify_and_solve,
    compute_c_star,
    compute_c_star_star,
    cone_node_mask,
    construct_weight_for_conjecture,
    dirichlet_problem_1d,
    dirichlet_problem_2d,
    extremal_pair,
    fibering_d1,
    geometric_grid,
    intersect_with_lambda,
    lambda_of,
    minimize_ground_level,
    ordering_check,
    phi,
    phi_grad,
    trace_curve,
    trace_family,
    truncated_problem_1d,
    zero_level_pair,
)

EXP = Exponents(alpha=1.5, eta=2.0, beta=4.0)


def record(ok, label, detail):
    record_acceptance_line(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")


# ---------------------------------------------------------------------------
# shared instances: 1D grids at 63 and 127 interior nodes, one 32x32 2D
# smoke instance, and one truncated whole-line instance with p = 3


@pytest.fixture(scope="module")
def instances():
    return {
        "constant_63": dirichlet_problem_1d(63, "1", "1", p=2.0, alpha=1.5, beta=4.0),
        "signed_63": dirichlet_problem_1d(
            63, "sin(2*pi*x)+0.3", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0
        ),
        "positive_127": dirichlet_problem_1d(
            127, "1+x", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0
        ),
        "two_d_32x32": dirichlet_problem_2d(
            (32, 32), "1+x*y", "0.5+sin(pi*x)*sin(pi*y)", p=2.0, alpha=1.5, beta=4.0
        ),
        "truncated_63": truncated_problem_1d(
            63, 4.0, "exp(-x^2)", "exp(-x^2/2)", p=3.0, alpha=1.5, beta=4.0
        ),
    }


@pytest.fixture(scope="module")
def triples(instances):
    return {name: build_triple(prob) for name, prob in instances.items()}


@pytest.fixture(scope="module")
def signed_setup(instances, triples):
    tri = triples["signed_63"]
    con_plus = SphereConstraint(tri, tag=ConeTag.A_POS)
    con_both = SphereConstraint(tri, tag=ConeTag.A_POS_B_POS)
    c_star = compute_c_star(con_both, multistart=16, seed=0)
    return {
        "problem": instances["signed_63"],
        "triple": tri,
        "con_plus": con_plus,
        "con_both": con_both,
        "c_star": c_star,
    }


@pytest.fixture(scope="module")
def curve12(signed_setup):
    """Ground curves of both branches over a 12-point grid inside (c*, 0)."""
    t0 = time.perf_counter()
    grid = geometric_grid(0.5 * signed_setup["c_star"], 0.02 * signed_setup["c_star"], 12)
    plus = trace_curve(
        signed_setup["con_plus"], grid, "plus", multistart=16, warm_multistart=8, seed=0
    )
    minus = trace_curve(
        signed_setup["con_both"], grid, "minus", multistart=16, warm_multistart=8, seed=0
    )
    return {"plus": plus, "minus": minus, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def family4(signed_setup):
    """Surrogate family k = 1..3 over four energy levels.

    The basis lives in the intersection cone, so its span is feasible for the
    plain A > 0 constraint used here; the ground curve then has interior
    minimizers and certifies, instead of chasing a boundary infimum.
    """
    t0 = time.perf_counter()
    basis = build_disjoint_basis(signed_setup["problem"], ConeTag.A_POS_B_POS, 3)
    grid = geometric_grid(0.4 * signed_setup["c_star"], 0.05 * signed_setup["c_star"], 4)
    fam = trace_family(
        signed_setup["con_plus"], grid, "plus", ks=(1, 2, 3), basis=basis,
        multistart=16, warm_multistart=8, seed=0, n_samples=16,
    )
    return {"family": fam, "basis": basis, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def conjecture_run():
    """Weight built so the zero-level minimizers stay strictly inside the A cone."""
    base = dirichlet_problem_1d(63, "1", "sin(2*pi*x)", p=2.0, alpha=1.5, beta=4.0)
    field, eps = construct_weight_for_conjecture(base, 0.75, 0.1, multistart=16, seed=0)
    prob = replace(base, weights=field)
    con = SphereConstraint(build_triple(prob), tag=ConeTag.A_POS_B_POS)
    c_ss, _ = compute_c_star_star(con, multistart=16, seed=0)
    delta = 0.05 * c_ss
    lam_at, rec_at = minimize_ground_level(con, c_ss, "minus", multistart=16, seed=0)
    lam_lo, rec_lo = minimize_ground_level(con, c_ss - delta, "minus", multistart=16, seed=0)
    lam_hi, rec_hi = minimize_ground_level(con, c_ss + delta, "minus", multistart=16, seed=0)
    return {
        "eps": eps,
        "c_star_star": c_ss,
        "lam_at": lam_at,
        "lam_lo": lam_lo,
        "lam_hi": lam_hi,
        "records": [rec_at, rec_lo, rec_hi],
    }


@pytest.fixture(scope="module")
def intersect_plus(signed_setup, family4):
    res = intersect_with_lambda(
        signed_setup["con_plus"], "plus", 10.0, -0.5, -0.01, ks=(1, 2, 3),
        basis=family4["basis"], n_samples=16, multistart=16, seed=0,
        c_floor=signed_setup["c_star"],
    )
    return res


@pytest.fixture(scope="module")
def intersect_minus():
    """Nonnegative concave weight vanishing exactly where the convex one does."""
    expr = "0.5*(sin(2*pi*x)-0.5+abs(sin(2*pi*x)-0.5))"
    prob = dirichlet_problem_1d(63, expr, expr, p=2.0, alpha=1.5, beta=4.0)
    con = SphereConstraint(build_triple(prob), tag=ConeTag.A_POS_B_POS)
    c_ss, _ = compute_c_star_star(con, multistart=16, seed=0)
    lam_ref, _ = minimize_ground_level(con, 0.1 * c_ss, "minus", multistart=16, seed=0)
    basis = build_disjoint_basis(prob, ConeTag.A_POS_B_POS, 3)
    res = intersect_with_lambda(
        con, "minus", 0.5 * lam_ref, 0.1 * c_ss, 0.9 * c_ss, ks=(1, 2, 3),
        basis=basis, n_samples=16, multistart=16, seed=0,
    )
    return {"result": res, "c_star_star": c_ss}


# ---------------------------------------------------------------------------
# 1. structural identities on randomized coefficient vectors


class TestStructuralIdentities:
    def test_identities_randomized(self, triples):
        t0 = time.perf_counter()
        tri_a = triples["constant_63"]
        tri_b = triples["signed_63"]
        rng = np.random.default_rng(101)
        n_checked = 0
        failure = None

        for i in range(2500):
            tri = tri_a if i % 2 == 0 else tri_b
            u = rng.standard_normal(tri.dim)
            t = float(np.exp(rng.uniform(-1.0, 1.0)))
            for f, deg in ((tri.eval_N, 2.0), (tri.eval_A, 1.5), (tri.eval_B, 4.0)):
                base = float(f(u))
                scaled = float(f(t * u))
                if abs(scaled - t**deg * base) > 1e-10 * (1.0 + abs(scaled)):
                    failure = f"homogeneity broken at degree {deg}, t={t!r}"
            n_checked += 1

        for i in range(2500):
            tri = tri_a if i % 2 == 0 else tri_b
            u = rng.standard_normal(tri.dim)
            for f, g, deg in (
                (tri.eval_N, tri.grad_N, 2.0),
                (tri.eval_A, tri.grad_A, 1.5),
                (tri.eval_B, tri.grad_B, 4.0),
            ):
                pairing = float(np.dot(np.asarray(g(u)), u))
                if abs(pairing - deg * float(f(u))) > 1e-10 * (1.0 + abs(pairing)):
                    failure = f"gradient pairing off at degree {deg}"
            n_checked += 1

        for i in range(2500):
            tri = tri_a if i % 2 == 0 else tri_b
            u = rng.standard_normal(tri.dim)
            c = float(rng.uniform(-2.0, 2.0))
            lam = lambda_of(tri, c, u)
            scale = (
                float(tri.eval_N(u)) / 2.0
                + abs(lam) * abs(float(tri.eval_A(u))) / 1.5
                + abs(float(tri.eval_B(u))) / 4.0
            )
            if abs(phi(tri, lam, u) - c) > 1e-12 * (1.0 + abs(c) + scale):
                failure = f"defining identity off at c={c!r}"
            n_checked += 1

        while n_checked < 10000:
            n = float(np.exp(rng.uniform(-2.0, 2.0)))
            a = float(np.exp(rng.uniform(-2.0, 2.0)))
            b = float(rng.normal())
            c = -float(np.exp(rng.uniform(-3.0, 0.0)))
            ray = RayData(n=n, a=a, b=b, exponents=EXP)
            prof = classify_and_solve(ray, c)
            roots = [t for t in (prof.t_plus, prof.t_minus) if t is not None]
            for t in roots:
                # the fiber derivative is alpha * g(t) / (a * t**(alpha+1));
                # tolerate rounding of the g terms propagated through that factor
                s_g = 0.25 * n * t**2.0 + 0.625 * abs(b) * t**4.0 + 1.5 * abs(c)
                scale = 1.5 * s_g / (a * t**2.5)
                if abs(fibering_d1(ray, c, t)) > 1e-9 * (1.0 + scale):
                    failure = f"root defect too large at t={t!r}, c={c!r}"
            n_checked += 1

        elapsed = time.perf_counter() - t0
        ok = failure is None and n_checked == 10000 and elapsed < 10.0
        record(
            ok,
            "structural identities",
            failure or f"{n_checked} randomized cases in {elapsed:.1f}s",
        )
        assert ok, failure


# ---------------------------------------------------------------------------
# 2. scalar classification against brute force, roots against bisection,
#    and the worked one-dof values


def _g_samples(ray, c, t):
    e = ray.exponents
    return (
        (e.eta - e.alpha) / e.eta * ray.n * t**e.eta
        - (e.beta - e.alpha) / e.beta * ray.b * t**e.beta
        + e.alpha * c
    )


def _brute_force(ray, c):
    """Sign changes of the root-counting function on a refined log grid.

    Evaluation only: a coarse two-decade-per-point sweep plus three zoom
    rounds around the running maximum, so nearby root pairs are not missed.
    """
    t = np.logspace(-10, 10, 800)
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
    t, g = t[order], g[order]
    signs = np.sign(g)
    keep = signs != 0
    changes = np.flatnonzero(signs[keep][1:] != signs[keep][:-1])
    brackets = []
    idx = np.flatnonzero(keep)
    for j in changes:
        brackets.append((t[idx[j]], t[idx[j + 1]]))
    if ray.b <= 0.0:
        case = Case.NO_CRITICAL if len(brackets) == 0 else Case.UNIQUE_MIN
    elif c >= 0.0:
        case = Case.UNIQUE_MAX
    else:
        case = Case.TWO_ROOTS if len(brackets) == 2 else Case.NO_CRITICAL
    return case, brackets


class TestFiberingOracle:
    def test_classification_matches_brute_force(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        n_checked = 0
        n_root_checked = 0
        failure = None
        while n_checked < 10000:
            n = float(np.exp(rng.uniform(-2.0, 2.0)))
            a = float(np.exp(rng.uniform(-2.0, 2.0)))
            b = float(rng.normal())
            c = float(rng.normal())
            if abs(c) < 1e-8:
                continue
            ray = RayData(n=n, a=a, b=b, exponents=EXP)
            if b > 0.0:
                t_bar, c_bar = extremal_pair(ray)
                if not (1e-6 < t_bar < 1e6):
                    continue
                if abs(c - c_bar) <= 1e-6 * (1.0 + abs(c_bar)):
                    continue
            prof = classify_and_solve(ray, c)
            got, brackets = _brute_force(ray, c)
            if prof.case != got and not (prof.case == Case.TWO_ROOTS and prof.degenerate):
                failure = (
                    f"case mismatch at n={n!r} b={b!r} c={c!r}: "
                    f"{prof.case} vs brute-force {got}"
                )
                break
            roots = sorted(t for t in (prof.t_plus, prof.t_minus) if t is not None)
            if roots and len(brackets) == len(roots):
                for t_root, (lo, hi) in zip(roots, brackets):
                    t_bis = brentq(lambda t: _g_samples(ray, c, t), lo, hi, xtol=1e-13)
                    if abs(t_root - t_bis) > 1e-9 * (1.0 + t_root):
                        failure = f"root {t_root!r} vs bisection {t_bis!r} at c={c!r}"
                        break
                    n_root_checked += 1
            if failure:
                break
            n_checked += 1
        elapsed = time.perf_counter() - t0
        record(
            failure is None,
            "fibering oracle",
            failure
            or f"{n_checked} classifications, {n_root_checked} bisected roots, {elapsed:.1f}s",
        )
        assert failure is None, failure

    def test_one_dof_worked_values(self):
        ray = RayData(n=1.0, a=1.0, b=1.0, exponents=EXP)
        t_bar, c_bar = extremal_pair(ray)
        t0, c0 = zero_level_pair(ray)
        prof = classify_and_solve(ray, -0.01)
        checks = [
            abs(t_bar - np.sqrt(0.2)) <= 1e-9,
            abs(c_bar - (-1.0 / 60.0)) <= 1e-9,
            abs(t0 - 1.0) <= 1e-9,
            abs(c0 - 0.25) <= 1e-9,
            abs(prof.t_plus - 0.27112523599485316) <= 1e-9,
            abs(prof.t_minus - 0.5713940027745611) <= 1e-9,
        ]
        record(all(checks), "one-dof worked values", "6 closed-form quantities at 1e-9")
        assert all(checks)


# ---------------------------------------------------------------------------
# 3. threshold signs on every instance whose cones intersect


class TestThresholdSigns:
    def test_signs_with_margin(self, triples):
        rows = []
        failures = []
        for name, tri in triples.items():
            con = SphereConstraint(tri, tag=ConeTag.A_POS_B_POS)
            t0 = time.perf_counter()
            c_star = compute_c_star(con, multistart=16, seed=0)
            c_ss, _ = compute_c_star_star(con, multistart=16, seed=0)
            elapsed = time.perf_counter() - t0
            rows.append(f"{name} {c_star:.3g}/{c_ss:.3g} {elapsed:.1f}s")
            if not c_star < -1e-10:
                failures.append(f"{name}: lower threshold {c_star!r} not negative")
            if not c_ss > 1e-10:
                failures.append(f"{name}: upper threshold {c_ss!r} not positive")
            if not elapsed < 60.0:
                failures.append(f"{name}: thresholds took {elapsed:.1f}s")
        record(not failures, "threshold signs", "; ".join(rows))
        assert not failures, failures


# ---------------------------------------------------------------------------
# 4. curve structure on the sign-changing instance


class TestCurveStructure:
    def test_4a_ground_curve_decreasing_positive(self, curve12):
        lams = [p.lam for p in curve12["plus"].points]
        ok = (
            len(lams) == 12
            and all(l1 < l0 for l0, l1 in zip(lams, lams[1:]))
            and all(l > 0.0 for l in lams)
        )
        record(
            ok,
            "ground curve shape",
            f"12-point grid, lam from {lams[0]:.4g} to {lams[-1]:.4g}, strictly decreasing, positive",
        )
        assert ok

    def test_4b_vanishing_level_ratio(self, signed_setup):
        e = signed_setup["triple"].exponents
        c_coarse, c_fine = -1e-2, -1e-4
        lam_coarse, rec_coarse = minimize_ground_level(
            signed_setup["con_plus"], c_coarse, "plus", multistart=16, seed=0
        )
        lam_fine, rec_fine = minimize_ground_level(
            signed_setup["con_plus"], c_fine, "plus", multistart=16, seed=0
        )
        # the rate below holds for true minimizers only, so both levels must
        # certify at the tolerances TestEnergyDefects applies
        certified = all(
            rec.converged
            and rec.residual_grad <= 1e-6
            and rec.energy_defect <= 1e-8 * (1.0 + abs(rec.c))
            for rec in (rec_coarse, rec_fine)
        )
        ratio = lam_fine / lam_coarse
        exponent = np.log(ratio) / np.log(c_fine / c_coarse)
        predicted = (e.eta - e.alpha) / e.eta
        # as c -> 0- the B term is of higher order and the plus level behaves
        # like K |c|**((eta-alpha)/eta).  The first-order B correction moves
        # the ratio by about 5e-5 here, i.e. the exponent by about 1e-5, so
        # 1e-3 leaves ample margin while rejecting a level that does not
        # vanish (exponent 0) and any other power law (0.24, 0.5, 0.7, ...)
        ok = certified and abs(exponent - predicted) <= 1e-3
        record(
            ok,
            "vanishing-level rate",
            f"level({c_fine:g})/level({c_coarse:g}) = {ratio:.7f}, fitted exponent "
            f"{exponent:.7f} vs (eta-alpha)/eta = {predicted:g} within 1e-3; "
            + ("both levels certified" if certified else "a level is NOT certified"),
        )
        assert certified, (rec_coarse, rec_fine)
        assert abs(exponent - predicted) <= 1e-3, (
            f"two-decade ratio {ratio:.7f} gives exponent {exponent:.7f}, "
            f"expected {predicted:g}"
        )

    def test_4c_plus_below_minus(self, curve12):
        check = ordering_check(curve12["plus"], curve12["minus"])
        ok = check["ok"] and check["n_compared"] == 12
        record(
            ok,
            "branch ordering",
            f"plus below minus at {check['n_compared']} shared levels, "
            f"worst gap {check['worst_gap']:.4g}",
        )
        assert ok

    def test_4d_surrogate_family_monotone(self, family4, curve12):
        fam = family4["family"]
        ok = True
        for k in (1, 2, 3):
            verdicts = fam[k].verdicts
            ok = ok and verdicts["monotone_decreasing"] and verdicts["k_monotone"]
        total = curve12["seconds"] + family4["seconds"]
        ok = ok and total < 600.0
        record(
            ok,
            "surrogate family",
            f"k = 1..3 each decreasing in c, nondecreasing in k; curve work {total:.0f}s",
        )
        assert ok


# ---------------------------------------------------------------------------
# 5. certification of every converged critical point produced above


class TestEnergyDefects:
    def test_converged_points_certified(self, curve12, family4, conjecture_run, intersect_plus):
        # surrogate entries are upper-bound witnesses, not critical points,
        # so only k = 1 curve points and k = 1 intersections qualify
        records = [p for p in curve12["plus"].points if p.k == 1]
        records += [p for p in curve12["minus"].points if p.k == 1]
        for curve in family4["family"].values():
            records += [p for p in curve.points if p.k == 1]
        records += conjecture_run["records"]
        records += [p["record"] for p in intersect_plus["points"] if p["k"] == 1]
        converged = [r for r in records if r.converged]
        worst_defect = 0.0
        worst_residual = 0.0
        for rec in converged:
            bound = 1e-8 * (1.0 + abs(rec.c))
            worst_defect = max(worst_defect, rec.energy_defect / bound)
            worst_residual = max(worst_residual, rec.residual_grad / 1e-6)
        ok = len(converged) >= 24 and worst_defect <= 1.0 and worst_residual <= 1.0
        record(
            ok,
            "prescribed-energy defects",
            f"{len(converged)} converged points; defect at {worst_defect:.2g} of bound, "
            f"residual at {worst_residual:.2g} of bound",
        )
        assert ok


# ---------------------------------------------------------------------------
# 6. zero of the minus level at the upper threshold on a constructed weight


class TestUpperThresholdZero:
    def test_minus_level_crosses_zero(self, conjecture_run):
        c_ss = conjecture_run["c_star_star"]
        ok = (
            abs(conjecture_run["lam_at"]) <= 1e-4
            and conjecture_run["lam_lo"] > 0.0
            and conjecture_run["lam_hi"] < 0.0
        )
        record(
            ok,
            "upper-threshold zero",
            f"constructed weight (eps={conjecture_run['eps']:.3g}): "
            f"level({c_ss:.4g}) = {conjecture_run['lam_at']:.3g}, "
            f"sign flip across +/-5% verified",
        )
        assert ok


# ---------------------------------------------------------------------------
# 7. parameter-line intersections: norms shrink toward zero on the plus
#    branch and grow on the minus branch of the degenerate-weight instance


class TestIntersections:
    def test_plus_branch_norms_decreasing(self, intersect_plus):
        pts = intersect_plus["points"]
        ok = (
            len(pts) >= 3
            and intersect_plus["c_increasing"]
            and intersect_plus["norms_ok"]
            and intersect_plus["norm_direction"] == "decreasing"
        )
        detail = ", ".join(
            f"k={p['k']}: c={p['c']:.3g}, norm={p['record'].u_norm:.3g}" for p in pts
        )
        record(ok, "plus-branch intersections", detail)
        assert ok

    def test_minus_branch_norms_increasing(self, intersect_minus):
        res = intersect_minus["result"]
        pts = res["points"]
        ok = (
            len(pts) >= 3
            and res["norms_ok"]
            and res["norm_direction"] == "increasing"
        )
        detail = ", ".join(
            f"k={p['k']}: c={p['c']:.3g}, norm={p['record'].u_norm:.3g}" for p in pts
        )
        record(ok, "minus-branch intersections", detail)
        assert ok


# ---------------------------------------------------------------------------
# 8. sign-flip reduction: the negative-A pipeline on (a, b) is the
#    positive-A pipeline on (-a, b) with the parameter negated


class TestSignFlipReduction:
    def test_pipelines_agree_pointwise(self, signed_setup):
        neg = dirichlet_problem_1d(
            63, "-(sin(2*pi*x)+0.3)", "cos(2*pi*x)+0.2", p=2.0, alpha=1.5, beta=4.0
        )
        # start supports matter here: dense draws essentially never land in
        # the negative-A cone, its mass is dominated by the positive part
        con_neg = SphereConstraint(
            signed_setup["triple"],
            tag=ConeTag.A_NEG,
            start_support=cone_node_mask(signed_setup["problem"], ConeTag.A_NEG),
        )
        con_flip = SphereConstraint(
            build_triple(neg),
            tag=ConeTag.A_POS,
            start_support=cone_node_mask(neg, ConeTag.A_POS),
        )
        grid = geometric_grid(-1.0, -0.02, 4)
        curve_neg = trace_curve(con_neg, grid, "plus", multistart=16, seed=0)
        curve_flip = trace_curve(con_flip, grid, "plus", multistart=16, seed=0)
        worst = 0.0
        coeff_ok = True
        for p, q in zip(curve_neg.points, curve_flip.points):
            assert p.c == q.c
            worst = max(worst, abs(p.lam + q.lam) / (1.0 + abs(q.lam)))
            coeff_ok = coeff_ok and np.allclose(
                p.coefficients, q.coefficients, rtol=0.0, atol=1e-10
            )
        ok = (
            len(curve_neg.points) == len(curve_flip.points) == 4
            and worst <= 1e-10
            and coeff_ok
        )
        record(ok, "sign-flip reduction", f"4 shared levels, worst parameter gap {worst:.2g}")
        assert ok


# ---------------------------------------------------------------------------
# 9. analytic gradients against central finite differences


class TestGradientChecks:
    def test_fd_match_on_all_instances(self, triples):
        rows = []
        failures = []
        h = 1e-6
        for idx, (name, tri) in enumerate(sorted(triples.items())):
            rng = np.random.default_rng(900 + idx)
            worst = 0.0
            for _ in range(100):
                # keep every coefficient away from zero: the concave term has
                # a kink there and the difference stencil must not straddle it
                u = (0.1 + rng.random(tri.dim)) * rng.choice([-1.0, 1.0], tri.dim)
                lam = float(rng.uniform(-2.0, 2.0))
                v = rng.standard_normal(tri.dim)
                v /= float(np.linalg.norm(v))
                fd = (phi(tri, lam, u + h * v) - phi(tri, lam, u - h * v)) / (2.0 * h)
                an = float(np.dot(phi_grad(tri, lam, u), v))
                scale = max(abs(an), abs(fd), 1e-6 * float(np.linalg.norm(phi_grad(tri, lam, u))))
                rel = abs(an - fd) / scale
                worst = max(worst, rel)
            rows.append(f"{name} {worst:.1e}")
            if worst > 1e-5:
                failures.append(f"{name}: worst directional-derivative error {worst:.2e}")
        record(not failures, "gradient checks", "100 points/instance, worst rel " + "; ".join(rows))
        assert not failures, failures
