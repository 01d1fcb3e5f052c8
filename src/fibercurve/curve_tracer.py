"""Tracing level curves over the prescribed-value axis and checking their shape.

A curve is the map c -> level(c) for one (branch, k), sampled on a user grid.
Every caller follows its levels with one continuation chain, _LevelChain:
each solve starts from the optimizer found at the previous c.  Ground levels
(k = 1) are exact multistart minima; k >= 2 levels are surrogate upper bounds
chained both in k and in c.  Every level's record carries its exact c-slope
-alpha/A(t u) at the optimizer (Danskin's theorem), which the verdicts and
the intersections read.  Each traced curve carries verdicts: monotonicity in
c, the largest successive jump, and a Lipschitz check of each segment
against the larger record slope of its endpoints (with a safety factor,
since the slope is known only at the endpoints).

Also here, on the same chain: the zero-limit diagnostic for c -> 0- on the
plus branch, the level-set intersections lambda(c) = target (one bracketed
Newton iteration on the records' slopes, in branch coordinates: log|level|
over log|c| on the plus branch, where the power law toward the ceiling c = 0
is a line), and the continuation of the minus curve through the upper
threshold where its sign flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .functional_core import Array, _inside_cone
from .nehari_minmax import (
    CriticalPointRecord,
    GenusSurrogate,
    InfeasibleLevelError,
    InfeasibleRayError,
    OptimizerParams,
    SphereConstraint,
    SurrogateLevel,
    _check_branch,
    _check_multistart,
    minimize_c0,
    minimize_ground_level,
    surrogate_level,
)

__all__ = [
    "EnergyCurve",
    "extend_minus_past_cstarstar",
    "geometric_grid",
    "intersect_with_lambda",
    "limit_check_zero",
    "ordering_check",
    "trace_curve",
    "trace_family",
]

_TREND_FACTOR = 3.0  # largest ratio of the zero-limit scalings t / |c|**(1/eta)
# safety factor on the Lipschitz bound max |slope| of a curve segment, whose
# slope is known only at the segment's endpoints
_LIPSCHITZ_SAFETY = 3.0
_ZERO_LEVEL_ABS = 1e-4  # largest |level| of the minus curve at c**
_MAX_REFINE = 200  # refinement steps of one intersection root inside its bracket
_TOL_C = 1e-10  # refinement stop of an intersection root in x: times 1 + |c| on minus only
_MAX_EXPAND = 60  # moves of a seed window that does not bracket the target


@dataclass(frozen=True)
class EnergyCurve:
    """Sampled level curve with shape verdicts.

    points are the records of the curve's levels, by increasing c; a record
    is converged iff its residual_grad meets the certificate's bound, and
    k >= 2 records are surrogate bounds, whose residuals on the full problem
    stay far above it.  truncation_reason is
    empty for a fully traced grid; otherwise it explains why tracing
    stopped early (the remaining grid values are dropped).
    lambda_sign is the constraint's: -1.0 on A-negative cones, whose levels
    are reported negated.
    """

    branch: str
    k: int
    points: tuple[CriticalPointRecord, ...]
    verdicts: dict
    truncation_reason: str = ""
    lambda_sign: float = 1.0


def geometric_grid(c_from: float, c_to: float, n: int) -> np.ndarray:
    """n values from c_from to c_to, geometric in |c| (same-sign endpoints)."""
    if n < 2:
        raise ValueError("need at least two grid points")
    if c_from == 0.0 or c_to == 0.0 or (c_from > 0.0) != (c_to > 0.0):
        raise ValueError("geometric grid needs nonzero endpoints of equal sign")
    sign = 1.0 if c_from > 0.0 else -1.0
    return sign * np.geomspace(abs(c_from), abs(c_to), n)


def _curve_verdicts(points: Sequence[CriticalPointRecord], sign: float, noise: float) -> dict:
    """Shape checks for one traced curve, ordered by increasing c; sign is
    the constraint's lambda_sign."""
    lams = [p.lam for p in points]
    verdicts: dict = {
        "n_points": len(points),
        "lambda_first": lams[0] if lams else math.nan,
        "lambda_last": lams[-1] if lams else math.nan,
    }
    if len(points) < 2:
        verdicts.update(
            monotone_decreasing=True, max_successive_jump=0.0, lipschitz_ok=True,
            norm_monotone=True,
        )
        return verdicts

    mono = True
    lip = True
    max_jump = 0.0
    worst_ratio = 0.0
    for p0, p1 in zip(points[:-1], points[1:]):
        jump = abs(p1.lam - p0.lam)
        max_jump = max(max_jump, jump)
        # reported levels fall with c on positive cones and rise on negative ones
        if sign * (p1.lam - p0.lam) > noise * (1.0 + abs(p0.lam)):
            mono = False
        bound = _LIPSCHITZ_SAFETY * max(abs(p0.slope), abs(p1.slope)) * abs(p1.c - p0.c)
        worst_ratio = max(worst_ratio, jump / bound if bound > 0.0 else math.inf)
        if jump > bound:
            lip = False

    norms = [p.u_norm for p in points]
    if points[0].branch == "plus":
        norm_mono = all(n1 <= n0 * (1.0 + 1e-9) + noise for n0, n1 in zip(norms, norms[1:]))
    else:
        norm_mono = all(n1 >= n0 * (1.0 - 1e-9) - noise for n0, n1 in zip(norms, norms[1:]))

    verdicts.update(
        monotone_decreasing=mono,
        max_successive_jump=max_jump,
        lipschitz_ok=lip,
        lipschitz_worst_ratio=worst_ratio,
        norm_monotone=norm_mono,
    )
    return verdicts


class _LevelChain:
    """Levels of one (constraint, branch) for several k along a sequence of c.

    Continuation in c (Allgower and Georg, Introduction to Numerical
    Continuation Methods, 2003): every solve starts from the optimizer found
    at the previous c.  For k = 1 that is minimize_ground_level with the
    previous minimizer and extra_starts as starts; the first call draws
    multistart further starts, later calls warm_multistart, and call n is
    seeded (seed, n).  For k >= 2 it is surrogate_level over the first k
    basis vectors, warm-started from the previous c's maximizer and from the
    zero-padded maximizer of the next lower surrogate k at this c; that
    embedded start makes the surrogates nondecreasing in k, and a level that
    still falls below its lower neighbour is replaced by it.  The
    GenusSurrogate of each k, which holds what its levels read that does not
    depend on c, is built at the first call of that k, so a basis that is
    not additive drops k at that call.  A k whose level is infeasible is
    dropped, and truncation[k] says where and why.  Arguments are checked
    here, before any level is solved: a branch other than plus and minus, a
    k below 1, a negative multistart or warm_multistart, a multistart of 0
    for k = 1 without extra_starts, and for a k >= 2 a missing or short
    basis or n_samples below 1 raise ValueError.
    """

    def __init__(self, constraint, branch, ks, basis=None, n_samples=64, multistart=32,
                 warm_multistart=8, seed=0, params=None, extra_starts=()):
        _check_branch(branch)
        self.ks = sorted(set(int(k) for k in ks))
        if any(k < 1 for k in self.ks):
            raise ValueError("k values must be positive")
        _check_multistart(multistart, 0)
        _check_multistart(warm_multistart, 0)
        if 1 in self.ks and not extra_starts:
            _check_multistart(multistart, 1)  # the first k = 1 solve has no other start
        surrogate_ks = [k for k in self.ks if k >= 2]
        if surrogate_ks:
            if basis is None:
                raise ValueError("a disjoint-support basis is required for k >= 2")
            if n_samples < 1:
                raise ValueError("n_samples must be positive")
            basis = np.atleast_2d(np.asarray(basis, dtype=float))
            if basis.shape[0] < surrogate_ks[-1]:
                raise ValueError(
                    f"basis has {basis.shape[0]} vectors, largest requested k is "
                    f"{surrogate_ks[-1]}"
                )
        self.basis = basis
        self.n_samples = n_samples
        self.surrogates: dict[int, GenusSurrogate] = {}
        self.constraint = constraint
        self.branch = branch
        self.multistart = multistart
        self.warm_multistart = warm_multistart
        self.seed = seed
        self.params = params or OptimizerParams()
        self.extra_starts = list(extra_starts)
        self.alive = list(self.ks)
        self.truncation = {k: "" for k in self.ks}
        self.calls = 0
        self._warm_u: list[Array] = []
        self._warm_xi: dict[int, Array] = {}

    def __call__(self, c: float) -> dict[int, CriticalPointRecord]:
        """The record at c of every k not dropped yet."""
        n = self.calls
        self.calls += 1
        levels = {}
        lower = None  # the surrogate level of the next lower k at this c
        for k in list(self.alive):
            try:
                if k == 1:
                    _, record = minimize_ground_level(
                        self.constraint, c, self.branch,
                        multistart=self.multistart if n == 0 else self.warm_multistart,
                        seed=(self.seed, n), params=self.params,
                        extra_starts=self._warm_u + self.extra_starts,
                    )
                    self._warm_u = [record.coefficients / record.t_root]
                else:
                    lower = self._surrogate(c, k, lower)
                    record = lower.record
            except (InfeasibleRayError, InfeasibleLevelError) as exc:
                self.truncation[k] = f"stopped at c={c!r}: {exc}"
                self.alive.remove(k)
            else:
                levels[k] = record
        return levels

    def _surrogate(self, c: float, k: int, lower: SurrogateLevel | None) -> SurrogateLevel:
        padded = None if lower is None else np.concatenate([lower.xi, np.zeros(k - lower.xi.size)])
        warm = [w for w in (padded, self._warm_xi.get(k)) if w is not None]
        if k not in self.surrogates:
            self.surrogates[k] = GenusSurrogate(self.constraint, self.basis[:k], self.n_samples)
        level = surrogate_level(self.surrogates[k], c, self.branch, warm_xi=warm)
        sign = self.constraint.lambda_sign
        if lower is not None and sign * level.record.lam < sign * lower.record.lam:
            level = replace(lower, record=replace(lower.record, k=k), xi=padded)
        self._warm_xi[k] = level.xi
        return level

    def level(self, c: float, k: int) -> CriticalPointRecord:
        """The record of k at c; raises InfeasibleLevelError once k is dropped."""
        levels = self(c)
        if k not in levels:
            raise InfeasibleLevelError(self.truncation[k])
        return levels[k]


def trace_curve(
    constraint: SphereConstraint,
    c_values: Sequence[float],
    branch: str,
    k: int = 1,
    basis: Array | None = None,
    multistart: int = 32,
    warm_multistart: int = 8,
    seed: int = 0,
    params: OptimizerParams | None = None,
    noise: float = 1e-6,
    n_samples: int = 64,
) -> EnergyCurve:
    """Trace one (branch, k) curve over c_values (sorted by increasing c).

    Ground curves warm-start each level from the previous minimizer and keep a
    reduced multistart for basin changes.  k >= 2 needs a disjoint basis and
    returns surrogate records, whose residuals stay far above the bound a
    converged record meets.  Tracing truncates, not fails,
    when a level becomes infeasible.  This is trace_family for the one k.
    """
    return trace_family(
        constraint, c_values, branch, ks=(k,), basis=basis,
        multistart=multistart, warm_multistart=warm_multistart, seed=seed,
        params=params, noise=noise, n_samples=n_samples,
    )[k]


def trace_family(
    constraint: SphereConstraint,
    c_values: Sequence[float],
    branch: str,
    ks: Sequence[int],
    basis: Array | None = None,
    multistart: int = 32,
    warm_multistart: int = 8,
    seed: int = 0,
    params: OptimizerParams | None = None,
    noise: float = 1e-6,
    n_samples: int = 64,
) -> dict[int, EnergyCurve]:
    """Trace curves for several k at once along one _LevelChain.

    k = 1 points are exact ground minima; higher k are surrogate bounds over
    prefixes of the nested basis, warm-chained in k (guaranteeing pointwise
    k-monotonicity among the surrogates) and in c.  A k whose level becomes
    infeasible is truncated there; the other ks go on.  Each returned curve
    gets a "k_monotone" verdict computed across the family.
    """
    chain = _LevelChain(
        constraint, branch, ks, basis=basis, n_samples=n_samples, multistart=multistart,
        warm_multistart=warm_multistart, seed=seed, params=params,
    )
    ks = chain.ks
    c_values = [float(c) for c in c_values]
    if any(c1 <= c0 for c0, c1 in zip(c_values, c_values[1:])):
        raise ValueError("c_values must be strictly increasing")

    points: dict[int, list[CriticalPointRecord]] = {k: [] for k in ks}
    for c in c_values:
        for k, record in chain(c).items():
            points[k].append(record)

    curves: dict[int, EnergyCurve] = {}
    for k in ks:
        verdicts = _curve_verdicts(points[k], constraint.lambda_sign, noise)
        verdicts["k_monotone"] = True
        curves[k] = EnergyCurve(
            branch=branch, k=k, points=tuple(points[k]), verdicts=verdicts,
            truncation_reason=chain.truncation[k], lambda_sign=constraint.lambda_sign,
        )

    # family-wide k-monotonicity of reported levels at matching c
    sign = constraint.lambda_sign
    for k_lo, k_hi in zip(ks[:-1], ks[1:]):
        lo = {p.c: p.lam for p in curves[k_lo].points}
        hi = {p.c: p.lam for p in curves[k_hi].points}
        ok = all(
            sign * hi[c] >= sign * lo[c] - noise * (1.0 + abs(lo[c]))
            for c in lo.keys() & hi.keys()
        )
        if not ok:
            curves[k_hi].verdicts["k_monotone"] = False
    return curves


def ordering_check(
    plus_curve: EnergyCurve, minus_curve: EnergyCurve, noise: float = 1e-6
) -> dict:
    """Pointwise ordering of branches at matching (c, k): plus below minus.

    On each common ray the plus scaling is the fibering minimum and the minus
    scaling the maximum, and the plus branch minimizes over a larger feasible
    set, so the plus level can never exceed the minus level (up to noise).
    A-negative cones report negated levels, so the comparison reads the
    curves' lambda_sign; curves of opposite signs raise ValueError.
    """
    sign = plus_curve.lambda_sign
    if minus_curve.lambda_sign != sign:
        raise ValueError(
            f"curves of opposite cone signs: plus {sign!r}, minus {minus_curve.lambda_sign!r}"
        )
    plus = {p.c: p.lam for p in plus_curve.points}
    minus = {p.c: p.lam for p in minus_curve.points}
    common = sorted(plus.keys() & minus.keys())
    worst = -math.inf
    for c in common:
        worst = max(worst, sign * (plus[c] - minus[c]))
    ok = worst <= noise * (1.0 + max(abs(minus[c]) for c in common)) if common else True
    return {"ok": bool(ok), "worst_gap": worst, "n_compared": len(common)}


def limit_check_zero(
    constraint: SphereConstraint,
    schedule: Sequence[float] = (-1e-2, -1e-3, -1e-4),
    tol_limit: float = 0.05,
    seed: int = 0,
    multistart: int = 32,
    params: OptimizerParams | None = None,
) -> dict:
    """Diagnostics for the plus ground level vanishing as c -> 0-.

    Checks, over the schedule of negative c approaching 0: the level magnitude
    decreases, its endpoint ratio falls below tol_limit, every minimizer obeys
    the closed-form scaling bound t <= (alpha*eta*beta*|c| / ((eta-alpha)*
    (beta-eta)*N(u)))**(1/eta), and the scalings track |c|**(1/eta) within a
    factor 3.  The schedule is used as given: a caller that knows c* passes
    only its entries above c*.  Every level draws multistart starts beside
    the warm one.
    """
    schedule = sorted(float(c) for c in schedule)
    if any(c >= 0.0 for c in schedule):
        raise ValueError("zero-limit schedule must be negative")
    if len(schedule) < 2:
        raise ValueError("zero-limit schedule needs at least two usable levels")
    chain = _LevelChain(
        constraint, "plus", (1,), multistart=multistart, warm_multistart=multistart,
        seed=seed, params=params,
    )
    e = constraint.triple.exponents
    rows = []
    for c in schedule:
        record = chain.level(c, 1)
        n_val = float(constraint.working.eval_N(record.coefficients / record.t_root))
        t_bound = (
            e.alpha * e.eta * e.beta * (-c) / ((e.eta - e.alpha) * (e.beta - e.eta) * n_val)
        ) ** (1.0 / e.eta)
        rows.append(
            {
                "c": c,
                "lambda": record.lam,
                "t_root": record.t_root,
                "t_bound": t_bound,
                "bound_ok": record.t_root <= t_bound * (1.0 + 1e-10),
                "t_over_scaling": record.t_root / (-c) ** (1.0 / e.eta),
            }
        )
    mags = [abs(r["lambda"]) for r in rows]
    ratio = mags[-1] / mags[0]
    trend = [r["t_over_scaling"] for r in rows]
    trend_ratio = max(trend) / min(trend)
    return {
        "schedule": schedule,
        "points": rows,
        "magnitude_decreasing": all(m1 <= m0 * (1.0 + 1e-9) for m0, m1 in zip(mags, mags[1:])),
        "limit_ratio": ratio,
        "limit_ok": ratio < tol_limit,
        "tol_limit": tol_limit,
        "bound_ok": all(r["bound_ok"] for r in rows),
        "trend_ratio": trend_ratio,
        "trend_ok": trend_ratio <= _TREND_FACTOR,
    }


def intersect_with_lambda(
    constraint: SphereConstraint,
    branch: str,
    lam_target: float,
    c_lo: float,
    c_hi: float,
    ks: Sequence[int] = (1,),
    basis: Array | None = None,
    n_samples: int = 64,
    multistart: int = 32,
    seed: int = 0,
    params: OptimizerParams | None = None,
    c_floor: float | None = None,
) -> dict:
    """Solve level_k(c) = lam_target in c for each k in ks.

    The level is strictly monotone in c along a branch, with the exact slope
    -alpha/A(t u) at the optimizer, so a sign change of level - target
    brackets a unique root and every probe also yields the derivative.  The
    root is sought in branch coordinates x with f(x) = 0: on the minus
    branch x = c and f = level - target; on the plus branch x = log(-c) and
    f = log|level| - log|target|, in which the power law level ~ K|c|**gamma
    toward the ceiling c = 0 is a line of slope gamma = c * slope / level,
    and the ceiling is x -> -inf.  Plus levels have the constraint's
    lambda_sign at every c < 0, so a plus target of the other sign, or 0, is
    not reachable, and no level is solved for it.  Probes are exact c
    values.  When the seed window [c_lo, c_hi] does not bracket the target
    for some k, the window moves in x along the monotone direction, at most
    _MAX_EXPAND times, by at least doubling, or by 1.5 Newton steps when
    those reach further; a plus move toward the ceiling goes at most one
    Newton step plus log 2, to half the |c| the power law predicts.  A move
    down in c that would reach or pass c_floor probes c_floor itself, and
    the target is not reachable when that probe does not bracket it; a plus
    move whose c leaves the floats (0, or past the largest) ends with the
    target not bracketed.  Inside the bracket a safeguarded Newton iteration
    (rtsafe) refines the root, bisecting whenever a Newton step leaves the
    bracket or fails to halve the step before last; it stops when the step
    or the bracket in x is below _TOL_C * (1 + |c|) on the minus branch and
    _TOL_C on the plus branch (relative in c: plus roots can lie at |c| far
    below 1), when a Newton step rounds to zero, or after _MAX_REFINE steps.
    Each k follows its own _LevelChain, seeded (seed, k), whose probes after
    the first draw max(2, multistart // 8) starts beside the warm one.  Each
    k either yields a root entry or a skip entry with a reason (the level
    infeasible, or the target not reachable or not bracketed); family
    verdicts compare the roots across k.  An argument _LevelChain rejects
    (a branch other than plus and minus, a k below 1, a negative multistart,
    a k >= 2 without a basis or with n_samples below 1) is the caller's
    error and raises ValueError before any level is solved.

    Returns a dict with "points" (one per solved k: k, c, lam, record,
    iterations = refinement steps, probes = level solves including the
    bracketing ones), "skipped" (k, reason), "c_increasing", and "norms_ok"
    (plus branch: extracted norms strictly decreasing along the schedule;
    minus branch: strictly increasing).
    """
    if not (c_lo < c_hi):
        raise ValueError("need c_lo < c_hi")
    chains = [
        (k, _LevelChain(
            constraint, branch, (k,), basis=basis, n_samples=n_samples,
            multistart=multistart, warm_multistart=max(2, multistart // 8),
            seed=(seed, k), params=params,
        ))
        for k in map(int, ks)
    ]
    points = []
    skipped = []
    for k, chain in chains:
        try:
            entry = _intersect_single(chain, k, lam_target, c_lo, c_hi, c_floor)
        except InfeasibleLevelError as exc:
            skipped.append({"k": k, "reason": f"level infeasible: {exc}"})
            continue
        except ValueError as exc:  # not reachable, or not bracketed
            skipped.append({"k": k, "reason": str(exc)})
            continue
        points.append(entry)

    cs = [p["c"] for p in points]
    norms = [p["record"].u_norm for p in points]
    c_increasing = all(c1 > c0 for c0, c1 in zip(cs, cs[1:]))
    if branch == "plus":
        norms_ok = all(n1 < n0 for n0, n1 in zip(norms, norms[1:]))
        direction = "decreasing"
    else:
        norms_ok = all(n1 > n0 for n0, n1 in zip(norms, norms[1:]))
        direction = "increasing"
    return {
        "points": points,
        "skipped": skipped,
        "c_increasing": bool(c_increasing),
        "norms_ok": bool(norms_ok),
        "norm_direction": direction,
    }


class _Sample(NamedTuple):
    """One probe of the intersection at c, in the branch coordinates x: f(x)
    and its derivative df = f'(x), and the level's record."""

    c: float
    x: float
    f: float
    df: float
    record: CriticalPointRecord

    @property
    def step(self) -> float:
        """The Newton step, x - step being the root of the tangent at x."""
        return self.f / self.df


def _intersect_single(
    chain: _LevelChain,
    k: int,
    lam_target: float,
    c_lo: float,
    c_hi: float,
    c_floor: float | None,
) -> dict:
    plus = chain.branch == "plus"
    if plus and not chain.constraint.lambda_sign * lam_target > 0.0:
        raise ValueError(
            f"k={k}: target {lam_target!r} not reachable: every plus level has the "
            f"sign of {chain.constraint.lambda_sign!r}"
        )

    def sample(c: float) -> _Sample:
        # The record's slope is the exact envelope derivative -alpha/A(t u) at
        # the optimizer u: the ground minimizer for k = 1, the surrogate
        # maximizer for k >= 2 (Danskin's theorem, since both levels are
        # extrema over c-free sets of rays).
        record = chain.level(c, k)
        if plus:
            # x = log(-c), f = log|level| - log|target|: the power law
            # K|c|**gamma is a line of slope gamma = c * slope / level
            f = math.log(abs(record.lam)) - math.log(abs(lam_target))
            return _Sample(c, math.log(-c), f, c * record.slope / record.lam, record)
        return _Sample(c, c, record.lam - lam_target, record.slope, record)

    def c_of(x: float) -> float:
        if not plus:
            return x
        try:
            return -math.exp(x)
        except OverflowError:  # past the largest float
            return -math.inf

    def result(point: _Sample, iterations: int) -> dict:
        return {"k": k, "c": point.c, "lam": point.record.lam, "record": point.record,
                "iterations": iterations, "probes": chain.calls}

    lo, hi = sample(c_lo), sample(c_hi)
    if hi.x < lo.x:
        lo, hi = hi, lo
    expansions = 0
    width = hi.x - lo.x
    while lo.f * hi.f > 0.0 and expansions < _MAX_EXPAND:
        expansions += 1
        # f is monotone in x: the target lies at larger x when f and f' differ in sign
        rise = (lo.f > 0.0) == (lo.df < 0.0)
        end = hi if rise else lo
        width = max(2.0 * width, 1.5 * abs(end.step))
        if plus and not rise:
            # toward the ceiling the power law is nearly exact: move at most
            # to half the |c| it predicts
            width = min(width, abs(end.step) + math.log(2.0))
        c_new = c_of(end.x + width if rise else end.x - width)
        # a move down in c (a rise in x = log(-c) on the plus branch) that
        # passes the floor probes it: one probe decides reachability
        if c_floor is not None and c_new <= c_floor and rise == plus:
            if end.c <= c_floor:
                raise ValueError(
                    f"k={k}: target {lam_target!r} not reachable above c={c_floor!r}"
                )
            c_new = c_floor
        if plus and not -math.inf < c_new < 0.0:
            break  # c left the floats: the target is not bracketed
        new = sample(c_new)
        lo, hi = (hi, new) if rise else (new, lo)
    if lo.f == 0.0:
        return result(lo, 0)
    if hi.f == 0.0:
        return result(hi, 0)
    if lo.f * hi.f > 0.0:
        raise ValueError(
            f"k={k}: target {lam_target!r} is not bracketed: "
            f"level({lo.c!r})={lo.record.lam!r}, level({hi.c!r})={hi.record.lam!r}"
        )

    # Safeguarded Newton (rtsafe, Numerical Recipes 9.4) from the better end;
    # [a, b] stays a bracket in x and f_a is the sign reference of its left end.
    a, b, f_a = lo.x, hi.x, lo.f
    point = lo if abs(lo.f) <= abs(hi.f) else hi
    dx_old = dx = b - a
    it = 0
    for it in range(1, _MAX_REFINE + 1):
        newton = point.x - point.step
        if newton == point.x:  # the tangent's root is the probe itself
            break
        bisect = not (a < newton < b) or abs(2.0 * (newton - point.x)) > abs(dx_old)
        dx_old, dx = dx, 0.5 * (b - a) if bisect else newton - point.x
        point = sample(c_of(a + dx if bisect else newton))
        # in x = log(-c) a step is relative in c, as plus roots can lie at |c| << 1
        tol = _TOL_C if plus else _TOL_C * (1.0 + abs(point.c))
        if point.f == 0.0 or abs(dx) <= tol:
            break
        if (point.f > 0.0) == (f_a > 0.0):
            a, f_a = point.x, point.f
        else:
            b = point.x
        if b - a <= tol:
            break
    return result(point, it)


def extend_minus_past_cstarstar(
    constraint: SphereConstraint,
    deltas: Sequence[float] = (0.01, 0.05),
    multistart: int = 32,
    warm_multistart: int = 8,
    seed: int = 0,
    params: OptimizerParams | None = None,
    noise: float = 1e-6,
    zero_level: tuple[float, Sequence[Array]] | None = None,
) -> dict:
    """Continue the minus ground curve through the upper threshold.

    Takes the zero-crossing minimizing set over the B cone alone: zero_level
    = (c0, minimizers), minimize_c0's result on the constraint, or that
    solve run here when it is not given.  Every minimizer must sit strictly
    inside the working A cone, which is the hypothesis for the sign change
    of the minus level at the threshold; a violating minimizer raises
    ValueError.  (compute_c_star_star needs only one inside minimizer to
    take c0 as c**; here all must be inside, so the threshold is c0 = c**.)
    Then evaluates the curve on c = threshold * (1 +/- delta), each delta in
    (0, 1), and at the threshold itself, expecting positive levels before,
    |level| <= _ZERO_LEVEL_ABS at, and negative levels after.  The levels
    follow one _LevelChain, started from the minimizers; the first level
    draws multistart further starts and later ones warm_multistart, like the
    points of a curve; "points" holds their records, by increasing c.
    """
    if len(deltas) == 0 or not all(0.0 < d < 1.0 for d in deltas):
        raise ValueError(f"deltas must be a nonempty list in (0, 1), got {list(deltas)!r}")
    working = constraint.working
    if zero_level is None:
        zero_level = minimize_c0(constraint, multistart=multistart, seed=seed, params=params)
    c2, mins = zero_level
    margins = []
    for i, m in enumerate(mins):
        a_val = float(working.eval_A(m))
        margins.append(a_val)
        if not _inside_cone(a_val):
            raise ValueError(
                f"zero-crossing minimizer {i} leaves the concave-term cone "
                f"(margin {a_val!r}); the continuation hypothesis fails"
            )
    c_before = sorted(c2 * (1.0 - d) for d in deltas)
    c_after = sorted(c2 * (1.0 + d) for d in deltas)
    grid = c_before + [c2] + c_after

    chain = _LevelChain(
        constraint, "minus", (1,), multistart=multistart, warm_multistart=warm_multistart,
        seed=seed, params=params, extra_starts=mins,
    )
    points = [chain.level(c, 1) for c in grid]

    sign = constraint.lambda_sign
    before = [p for p in points if p.c < c2]
    at = [p for p in points if p.c == c2]
    after = [p for p in points if p.c > c2]
    positive_before = all(sign * p.lam > noise for p in before)
    zero_at = all(abs(p.lam) <= _ZERO_LEVEL_ABS for p in at)
    negative_after = all(sign * p.lam < -noise for p in after)
    return {
        "c_star_star": c2,
        "minimizer_a_margins": margins,
        "points": points,
        "positive_before": bool(positive_before),
        "zero_at_threshold": bool(zero_at),
        "negative_after": bool(negative_after),
        "ok": bool(positive_before and zero_at and negative_after),
    }
