"""Constrained optimization of the restricted parameter over sphere-in-cone sets.

The restricted parameter of a unit vector u at level c and branch +/- is the
fibering-map value at the corresponding critical scaling (local minimum for
the plus branch, local maximum for the minus branch).  It is 0-homogeneous in
u, so optimization runs as descent on the coefficients with a
renormalization to the problem-norm sphere after every step; the analytic
gradient is

    grad_u = (alpha/a) * (t**(eta-alpha) grad_N/eta - lam grad_A/alpha
             - t**(beta-alpha) grad_B/beta),

which is automatically tangent at exact roots.  Steps follow the Sobolev
gradient d = M^{-1} grad_u for the triple's metric M (the p = 2 stiffness of
the problem norm on model problems, the identity on triples without one),
with Barzilai-Borwein steps s^T M s / s^T y and a nonmonotone Armijo test on
the decrease step * grad_u^T d.  In this metric the iteration count does not
grow with the number of grid nodes.  A descent stops at ||grad_u|| <= gtol,
or at the rounding floor, when its recent values no longer move in floating
point.  Ground levels (k = 1) are exact multistart minima; k >= 2 levels are
genus-type surrogate bounds from spheres of coefficient combinations over
disjoint-support bases, labeled as surrogates everywhere.  On such a basis
N, A and B are additive (checked on every pair), so a surrogate level is a
function of the 3k numbers N(e_i), A(e_i), B(e_i): its sampling and polish
never touch the grid.

Negative-cone branches never run their own machinery: the energy satisfies
phi(lam, u; A) = phi(-lam, u; -A), so constraints with a negative tag flip the
sign of A internally and negate the reported parameter.

Thresholds: c* is the sup over the A and B cone of the degenerate-collision
level c_bar(u) < 0, and c** the inf of the zero-crossing level c0(u) > 0.
Both are 0-homogeneous ray functions of (N, B) alone, and on every ray
c_bar(u) = -kappa * c0(u) with kappa = K.threshold_ratio(alpha, eta, beta)
(the extreme-value relation of the nonlinear Rayleigh quotients; Il'yasov,
Topol. Methods Nonlinear Anal. 49, 2017), so c* = -kappa * c**.  One
zero-level multistart over the B > 0 cone alone (minimize_c0) gives c**
whenever any of its near-best minimizers lies inside the A cone, since c0
ignores A and c** is at least that minimum; only when none does,
compute_c_star_star minimizes c0 over the A and B cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _kernels as K
from .fibering import classify_and_solve  # noqa: F401 (perfbench/tracing.py patches it here)
from .functional_core import (
    Array, ConeTag, Exponents, FunctionalTriple, _inside_cone, cone_membership, phi, phi_grad,
)

# objective value at a point, with a callable finishing the gradient there
Evaluated = tuple[float, Callable[[], Array]]
Evaluation = Callable[[Array], Evaluated]

__all__ = [
    "CriticalPointRecord",
    "GenusSurrogate",
    "InfeasibleLevelError",
    "InfeasibleRayError",
    "OptimizerParams",
    "SphereConstraint",
    "SurrogateInvalidError",
    "SurrogateLevel",
    "compute_c_star",
    "compute_c_star_star",
    "extract_critical_point",
    "lambda_tilde",
    "level_slope",
    "minimize_c0",
    "minimize_ground_level",
    "surrogate_level",
]


class InfeasibleRayError(Exception):
    """The requested branch has no critical scaling on this ray.

    Optimizers consume this as value +inf on the minimizing branches, which is
    the coercive behavior of the restricted parameter at the cone boundary.
    """


class InfeasibleLevelError(RuntimeError):
    """No feasible start produced a finite level for this (c, branch)."""


class SurrogateInvalidError(InfeasibleLevelError):
    """A sampled coefficient combination left the feasible cone, or the basis
    is not additive: the surrogate level at this (c, branch) is infeasible."""


@dataclass
class OptimizerParams:
    """Descent stop: ||grad|| <= gtol, or max_iter iterations."""

    gtol: float = 1e-8
    max_iter: int = 5000


# line search: Armijo factor, first step, backtracking factor, smallest step
_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_FACTOR = 0.5
_STEP_MIN = 1e-16
# iteration cap of the surrogate polish, and random draws per start
_POLISH_ITER = 200
_START_ATTEMPTS = 200
# Merge radius of a found minimizer in a multistart, relative to its sup-norm
# (0.42 to 0.83 for unit grid minimizers, whatever the grid size).  On the
# 1D Dirichlet instance with weights 1+x and cos(2 pi x)+0.2, a minus-branch
# descent 0.084 relative from a local minimizer still ends in the lower one.
_MERGE_RTOL = 0.03


@dataclass
class SphereConstraint:
    """Unit sphere of the problem norm intersected with an open cone.

    start_support optionally restricts random start vectors to a boolean DOF
    mask (model problems pass the sign-structure mask so starts are feasible
    by construction); an empty mask restricts nothing.  Every cone decision
    follows the one cone rule (functional_core._inside_cone): a point is
    inside when A of the working problem, and B on B-positive cones, exceed
    _CONE_RTOL times 1 + their magnitudes; closer points count as boundary.
    The descents apply the rule to the scalars their levels then read, and
    accept a start where their objective is finite; feasible(u) applies it
    alone (minimize_c0's A > 0 starts).
    """

    triple: FunctionalTriple
    tag: ConeTag = ConeTag.A_POS
    start_support: Array | None = None

    def __post_init__(self) -> None:
        self._working = self.triple if self.tag.a_sign > 0 else self.triple.with_negated_a()

    @property
    def working(self) -> FunctionalTriple:
        """Triple with A sign-normalized so the working cone always has A > 0."""
        return self._working

    @property
    def lambda_sign(self) -> float:
        return self.tag.a_sign

    def feasible(self, u: Array) -> bool:
        return cone_membership(self.triple, self.tag, u)[0]


def _outside_cone() -> Array:
    """Gradient callable of a point outside the cone, whose value is +inf."""
    raise InfeasibleRayError("no gradient outside the cone")


@dataclass(frozen=True)
class CriticalPointRecord:
    """One candidate critical pair (lam, v) with its certification data.

    coefficients is the scaled vector v = t_root * u; residual_grad is the
    coefficient-gradient norm of the energy at (lam, v) relative to the
    largest of its three term norms; energy_defect is |phi(lam, v) - c|.
    converged reports the optimizer's own stopping test, not the residual
    thresholds, so certification stays a separate check.  Ground levels
    (minimize_ground_level) also count the descents their multistart ran
    (starts) and how many of those merged into a minimizer found before them
    (merged_starts); other records leave both 0.
    """

    branch: str
    k: int
    c: float
    lam: float
    coefficients: Array
    t_root: float
    u_norm: float
    residual_grad: float
    energy_defect: float
    iterations: int
    converged: bool
    starts: int = 0
    merged_starts: int = 0


@dataclass(frozen=True)
class SurrogateLevel:
    """Surrogate level value with the maximizing coefficient combination."""

    value: float
    k: int
    xi: Array
    u_unit: Array
    t_root: float


_BRANCHES = ("plus", "minus")


def _branch_root(t_plus: float, t_minus: float, branch: str) -> float:
    if branch == "plus":
        t = t_plus
    elif branch == "minus":
        t = t_minus
    else:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    if math.isnan(t):
        raise InfeasibleRayError(f"no {branch}-branch critical scaling on this ray")
    return t


def _ray_scalars(working: FunctionalTriple, u: Array) -> tuple[float, float, float]:
    """(N(u), A(u), B(u)) of the working problem."""
    return float(working.eval_N(u)), float(working.eval_A(u)), float(working.eval_B(u))


def _scalar_level(
    e: Exponents, c: float, branch: str, n: float, a: float, b: float
) -> tuple[float, float]:
    """(lam, t_root) of a ray with scalars (n, a, b); raises InfeasibleRayError off-branch."""
    if not (n > 0.0):
        raise InfeasibleRayError(f"coercive part not positive on this ray (N={n!r})")
    if a <= 0.0:
        raise InfeasibleRayError(f"ray outside the working cone (A={a!r})")
    _, tp, tm = K.classify(n, b, e.alpha, e.eta, e.beta, c, branch=branch)
    t = _branch_root(tp, tm, branch)
    num = (e.beta - e.eta) / e.eta * n * t**e.eta - e.beta * c
    den = (e.beta - e.alpha) / e.alpha * a * t**e.alpha
    return num / den, t


def _level_internal(
    working: FunctionalTriple, c: float, branch: str, u: Array
) -> tuple[float, float, float]:
    """(lam, t_root, A(u)) of the working problem; raises InfeasibleRayError off-branch."""
    n, a, b = _ray_scalars(working, u)
    lam, t = _scalar_level(working.exponents, c, branch, n, a, b)
    return lam, t, a


def _level_gradient(
    e: Exponents, lam: float, t: float, a: float, grad_n: Array, grad_a: Array, grad_b: Array
) -> Array:
    """Gradient of the level from the gradients of N, A and B at a ray's root t."""
    return (e.alpha / a) * (
        t ** (e.eta - e.alpha) * grad_n / e.eta
        - lam * grad_a / e.alpha
        - t ** (e.beta - e.alpha) * grad_b / e.beta
    )


def _level_evaluation(constraint: SphereConstraint, c: float, branch: str) -> Evaluation:
    """The descent's evaluation of the working problem's level at (c, branch).

    The cone test and the level read one set of ray scalars, computed cone
    first: A, then B on B-positive cones, and N only inside the cone.  A point
    outside the cone has value +inf.
    """
    working = constraint.working
    e = working.exponents
    needs_b_pos = constraint.tag.needs_b_pos

    def evaluate(u: Array) -> Evaluated:
        a = float(working.eval_A(u))
        b = float(working.eval_B(u)) if needs_b_pos else None
        if not _inside_cone(a, b):
            return math.inf, _outside_cone
        n = float(working.eval_N(u))
        if b is None:
            b = float(working.eval_B(u))
        lam, t = _scalar_level(e, c, branch, n, a, b)

        def gradient() -> Array:
            return _level_gradient(
                e, lam, t, a,
                np.asarray(working.grad_N(u), dtype=float),
                np.asarray(working.grad_A(u), dtype=float),
                np.asarray(working.grad_B(u), dtype=float),
            )

        return lam, gradient

    return evaluate


def lambda_tilde(
    constraint: SphereConstraint, c: float, u: Array, branch: str
) -> tuple[float, float]:
    """Restricted parameter and critical scaling of u at level c on a branch.

    The same ray evaluation the optimizers run, with the parameter
    sign-adjusted for negative cones.  Raises InfeasibleRayError when the ray
    leaves the working cone or has no critical scaling on the branch.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    lam, t, _ = _level_internal(constraint.working, c, branch, u)
    return constraint.lambda_sign * lam, t


def level_slope(constraint: SphereConstraint, c: float, u: Array, branch: str) -> float:
    """Exact c-derivative of the reported level along a fixed ray: -alpha/A(t u).

    A is the original (signed) concave term, so negative-cone constraints get
    positive slopes, matching the sign-flipped reporting.
    """
    _, t, a = _level_internal(constraint.working, c, branch, u)
    e = constraint.triple.exponents
    a_at_root = constraint.lambda_sign * a * t**e.alpha
    return -e.alpha / a_at_root


def extract_critical_point(
    constraint: SphereConstraint,
    c: float,
    branch: str,
    u: Array,
    k: int = 1,
    iterations: int = 0,
    converged: bool = True,
) -> CriticalPointRecord:
    """Scale u to its critical point and certify residual and energy defect.

    The residual and defect are evaluated on the original triple with the
    reported (sign-adjusted) parameter, which coincides with the working
    problem's residual by the sign-flip identity.
    """
    working = constraint.working
    lam_int, t, _ = _level_internal(working, c, branch, u)
    lam = constraint.lambda_sign * lam_int
    v = t * np.asarray(u, dtype=float)
    triple = constraint.triple
    e = triple.exponents
    res_vec = phi_grad(triple, lam, v)
    term_n = float(np.linalg.norm(np.asarray(triple.grad_N(v), dtype=float))) / e.eta
    term_a = abs(lam) * float(np.linalg.norm(np.asarray(triple.grad_A(v), dtype=float))) / e.alpha
    term_b = float(np.linalg.norm(np.asarray(triple.grad_B(v), dtype=float))) / e.beta
    scale = max(term_n, term_a, term_b, 1e-300)
    residual = float(np.linalg.norm(res_vec)) / scale
    defect = abs(phi(triple, lam, v) - c)
    return CriticalPointRecord(
        branch=branch,
        k=k,
        c=c,
        lam=lam,
        coefficients=v,
        t_root=t,
        u_norm=triple.norm_of(v),
        residual_grad=residual,
        energy_defect=defect,
        iterations=iterations,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# descent machinery


def _normalize(working: FunctionalTriple, u: Array) -> Array:
    nrm = working.norm_of(u)
    if not (nrm > 0.0) or not math.isfinite(nrm):
        raise InfeasibleRayError(f"cannot normalize: norm={nrm!r}")
    return np.asarray(u, dtype=float) / nrm


# Armijo slack for rounding noise in the level values, in units in the last place
_ROUNDING_ULPS = 4
# accepted values the nonmonotone Armijo reference remembers
_WINDOW = 10


def _sphere_descend(
    working: FunctionalTriple,
    evaluate: Evaluation,
    u0: Array,
    params: OptimizerParams,
    *,
    merge: Callable[[Array, float], bool] | None = None,
) -> tuple[Array, float, int, bool, float]:
    """Preconditioned gradient descent with renormalization after every step.

    evaluate(u) returns the objective value at u and a zero-argument callable
    that finishes the gradient there from what the value already computed
    (ray scalars, root).  Each point is evaluated once: the gradient is asked
    for only at the start and at accepted trials, never re-evaluating the
    value, and rejected trials cost the value alone.  The objective does its
    own cone test on the scalars its value reads and returns +inf outside the
    cone; such a trial, like one raising InfeasibleRayError, fails the Armijo
    test.

    The direction is d = M^{-1} grad for the triple's metric M (the Sobolev
    gradient; d = grad when the triple has no metric).  Step lengths come from
    the Barzilai-Borwein quotient s^T M s / s^T y of ambient differences,
    safeguarded by a nonmonotone Armijo backtracking that asks for a decrease
    of c1 * step * grad^T d below the worst of the last few accepted values;
    both pieces are deterministic.  The stopping test stays the Euclidean
    ||grad|| <= gtol.  Returns (u, value, iterations, converged, gradient_norm).

    The first trial, which has no Barzilai-Borwein quotient yet, is capped at
    step ||d||_M <= 2 ||u||_M.  The gradient is tangent, so d is M-orthogonal
    to u and the trial turns u by at most atan 2 on the sphere (Absil,
    Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008).
    Uncapped, a unit first step at a large gradient turns u by nearly 90
    degrees, and the backtracking must halve it 20 to 35 times before it
    tests a nearby point.

    The Armijo reference carries an allowance of _ROUNDING_ULPS units in the
    last place of its value, in the spirit of the approximate Wolfe test of
    Hager and Zhang (SIAM J. Optim. 16, 2005).  A warm start that already sits
    at a minimizer asks for decreases (about 1e-20) far below the rounding of
    the value itself (ulp(35) is about 7e-15); without the allowance a trial
    one ulp above the single remembered value fails, a trial equal to it
    passes without progress, and the descent runs to max_iter just above gtol.

    The same allowance ends a descent whose values have stopped moving in
    floating point: once the window of the last _WINDOW accepted values spans
    no more than _ROUNDING_ULPS units in the last place of its maximum, the
    gradient is at its rounding floor and further steps only trade rounding
    noise.  Such a stop counts as converged iff ||grad|| <= 10 gtol, the
    verdict an exhausted line search gets.  It ends descents whose level
    carries more rounding noise than a step toward the optimum can gain, as
    on minus-branch levels at c far above c**, where the level's numerator
    cancels.

    merge(u, value), when given, is asked after every accepted step; when it
    holds, the descent stops there, not converged, with the gradient norm of
    the iterate before (see _multistart).
    """
    metric, metric_solve = working.metric, working.metric_solve
    u = _normalize(working, u0)
    radius = math.sqrt(float(u @ (u if metric is None else metric(u))))  # ||u||_M
    value, gradient = evaluate(u)
    gnorm = math.inf
    step_next = _STEP_INIT
    prev_u: Array | None = None
    prev_grad: Array | None = None
    recent = [value]
    for it in range(1, params.max_iter + 1):
        grad = gradient()
        gnorm = math.sqrt(grad @ grad)
        if gnorm <= params.gtol:
            return u, value, it, True, gnorm
        if len(recent) == _WINDOW:
            top = max(recent)
            if top - min(recent) <= _ROUNDING_ULPS * math.ulp(top):
                # rounding floor: the last accepted values no longer move
                return u, value, it, gnorm <= 10.0 * params.gtol, gnorm
        if metric is None:
            direction, slope = grad, gnorm * gnorm
        else:
            direction = metric_solve(grad)
            slope = float(grad @ direction)
        if prev_grad is not None:
            s = u - prev_u
            y = grad - prev_grad
            sy = float(s @ y)
            if sy > 0.0 and math.isfinite(sy):
                step_next = float(s @ (s if metric is None else metric(s))) / sy
        step = min(max(step_next, _STEP_MIN), 1e12)
        if prev_grad is None:
            # ||d||_M = sqrt(grad^T M^{-1} grad) = sqrt(slope)
            step = min(step, 2.0 * radius / math.sqrt(slope))
        reference = max(recent)
        reference += _ROUNDING_ULPS * math.ulp(reference)
        accepted = False
        while step >= _STEP_MIN:
            try:
                trial = _normalize(working, u - step * direction)
                trial_value, trial_gradient = evaluate(trial)
            except InfeasibleRayError:
                trial_value = math.inf
            if trial_value <= reference - _ARMIJO_C1 * step * slope:
                prev_u, prev_grad = u, grad
                u, value, gradient = trial, trial_value, trial_gradient
                accepted = True
                break
            step *= _STEP_FACTOR
        if not accepted:
            # line search exhausted: flat valley or cone-boundary pin
            return u, value, it, gnorm <= 10.0 * params.gtol, gnorm
        if merge is not None and merge(u, value):
            return u, value, it, False, gnorm
        recent.append(value)
        if len(recent) > _WINDOW:
            recent.pop(0)
        step_next = step * 2.0
    return u, value, params.max_iter, False, gnorm


def _seed_key(seed) -> tuple[int, ...]:
    """Flatten arbitrarily nested int/tuple seeds so callers can compose them."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    out: list[int] = []
    for s in seed:
        out.extend(_seed_key(s))
    return tuple(out)


def _start_rule(evaluate: Evaluation) -> Callable[[Array], bool]:
    """The start rule: u is usable when the descent's own evaluate(u) is
    finite (it is +inf outside the cone and raises off the branch)."""

    def usable(u: Array) -> bool:
        try:
            value, _ = evaluate(u)
        except InfeasibleRayError:
            return False
        return math.isfinite(value)

    return usable


def _first_usable(
    working: FunctionalTriple, usable: Callable[[Array], bool], candidates
) -> Array | None:
    """The unit vector of the first candidate that usable accepts, or None;
    a candidate that cannot be normalized ends the search."""
    for candidate in candidates:
        try:
            u = _normalize(working, np.asarray(candidate, dtype=float))
        except InfeasibleRayError:
            return None
        if usable(u):
            return u
    return None


def _draw_starts(
    constraint: SphereConstraint,
    count: int,
    seed,
    purpose: int,
    usable: Callable[[Array], bool],
) -> list[Array]:
    """Deterministic usable start vectors; seeds derive from (seed, purpose, index)."""
    working = constraint.working
    dim = constraint.triple.dim
    support = constraint.start_support
    starts: list[Array] = []
    for i in range(count):
        rng = np.random.default_rng(_seed_key(seed) + (purpose, i))
        for _ in range(_START_ATTEMPTS):
            g = rng.standard_normal(dim)
            if support is not None and support.any():  # an empty support restricts nothing
                g = np.where(support, g, 0.0)
            # a one-signed profile is feasible more often than a sign-changing one
            u = _first_usable(working, usable, (g, np.abs(g))) if np.any(g) else None
            if u is not None:
                starts.append(u)
                break
        else:
            raise InfeasibleLevelError(
                f"could not sample a feasible start (index {i}) after "
                f"{_START_ATTEMPTS} attempts; check the cone support"
            )
    return starts


def _multistart(
    constraint: SphereConstraint,
    evaluate: Evaluation,
    usable: Callable[[Array], bool],
    purpose: int,
    count: int,
    seed,
    params: OptimizerParams,
    extra_starts: Sequence[Array] = (),
) -> tuple[list[tuple[Array, float, int, bool, float]], int]:
    """Descend from the usable extra_starts, then from count drawn starts.

    Returns _descend_merging's results and merge count.  Whether a descent
    merges depends only on the starts before it, so more drawn starts can
    only add results.
    """
    working = constraint.working
    starts = [u for w in extra_starts if (u := _first_usable(working, usable, (w,))) is not None]
    starts += _draw_starts(constraint, count, seed, purpose, usable)
    return _descend_merging(working, evaluate, starts, params)


def _descend_merging(
    working: FunctionalTriple,
    evaluate: Evaluation,
    starts: Sequence[Array],
    params: OptimizerParams,
) -> tuple[list[tuple[Array, float, int, bool, float]], int]:
    """Descend from every start in order; a descent into a found basin merges.

    Returns the _sphere_descend result of every descent that did not merge,
    in start order, and the number that merged.  This is the clustering rule
    of multi-level single linkage (Rinnooy Kan and Timmer, Math. Programming
    39, 1987), and the solver's only test of "a minimizer already found": the
    minimizer of every converged descent is found, and a later descent merges
    when it ends, converged or not, within _MERGE_RTOL times a found
    minimizer's sup-norm of it, in the sign-aligned sup-norm (u and -u are
    the same point), at a value not below that minimizer's.  The descent is
    also asked after every accepted step, and ends at the first one that
    gets there.  A descent below every found minimizer never merges, so a
    lower basin is still found.  Ground levels, thresholds and surrogate
    polishes all descend here.
    """
    found: list[tuple[float, Array, float]] = []  # (value, sign-aligned minimizer, radius)

    def merges(u: Array, value: float) -> bool:
        above = [(m, radius) for v, m, radius in found if value >= v]
        if not above:
            return False
        aligned = _sign_aligned(u)
        return any(float(np.max(np.abs(aligned - m))) <= radius for m, radius in above)

    results = []
    merged = 0
    for u0 in starts:
        result = _sphere_descend(working, evaluate, u0, params, merge=merges)
        u, value, _, converged, _ = result
        if merges(u, value):
            merged += 1
            continue
        if converged:
            m = _sign_aligned(u)
            found.append((value, m, _MERGE_RTOL * float(np.max(m))))
        results.append(result)
    return results, merged


_PURPOSE = {"plus": 1, "minus": 2, "c_star_star": 4, "c0": 5}


def minimize_ground_level(
    constraint: SphereConstraint,
    c: float,
    branch: str,
    multistart: int = 32,
    seed: int | tuple[int, ...] = 0,
    params: OptimizerParams | None = None,
    extra_starts: Sequence[Array] = (),
) -> tuple[float, CriticalPointRecord]:
    """Multistart ground level (k = 1): minimize the restricted parameter.

    Starts are deterministic functions of (seed, branch, index); extra_starts
    allows warm starting from neighboring levels (infeasible ones are skipped)
    and runs first.  A descent that comes close to a minimizer an earlier
    descent converged to, at a value not below it, merges: it stops and is
    dropped (_descend_merging).  The first minimum in start order of the other
    descents wins, so a larger multistart can only lower the level.  The
    record counts the descents run (starts) and merged (merged_starts).
    Raises InfeasibleLevelError when nothing feasible exists at this
    (c, branch).
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    evaluate = _level_evaluation(constraint, c, branch)
    results, merged = _multistart(
        constraint, evaluate, _start_rule(evaluate), _PURPOSE[branch], multistart, seed,
        params or OptimizerParams(), extra_starts,
    )
    if not results:
        raise InfeasibleLevelError(
            f"no feasible start for branch {branch!r} at c={c!r}"
        )
    u, _, iters, ok, _ = min(results, key=lambda r: r[1])
    record = extract_critical_point(
        constraint, c, branch, u, k=1, iterations=iters, converged=ok
    )
    return record.lam, replace(record, starts=len(results) + merged, merged_starts=merged)


# ---------------------------------------------------------------------------
# thresholds: ray functions of (N, B) only


def _zero_level(working: FunctionalTriple, u: Array, b: float) -> Evaluated:
    """(level, gradient) of the ray's zero level c0, a function of (N, B) alone.

    b is B(u), already read by the cone test.  c0 is n**q * b**-r times a
    constant with q = beta/(beta-eta) and r = eta/(beta-eta).
    """
    e = working.exponents
    n = float(working.eval_N(u))
    if not (n > 0.0):
        raise InfeasibleRayError(f"coercive part not positive (N={n!r})")
    if b <= 0.0:
        raise InfeasibleRayError(f"threshold objective needs B > 0 (B={b!r})")
    level = K.zero_level_pair(n, b, e.eta, e.beta)[1]

    def gradient() -> Array:
        q = e.beta / (e.beta - e.eta)
        r = e.eta / (e.beta - e.eta)
        return level * (
            q * np.asarray(working.grad_N(u), dtype=float) / n
            - r * np.asarray(working.grad_B(u), dtype=float) / b
        )

    return level, gradient


# threshold minima within this relative level of the best are near-best
_LEVEL_RTOL = 1e-6


def _sign_aligned(u: Array) -> Array:
    """u or -u, whichever has its entry of largest magnitude positive; the
    triples are even, so both are the same point of the level."""
    return -u if u[int(np.argmax(np.abs(u)))] < 0.0 else u


def _minimize_ray_objective(
    constraint: SphereConstraint,
    objective: Callable[[FunctionalTriple, Array, float], Evaluated],
    purpose: int,
    multistart: int,
    seed: int,
    params: OptimizerParams | None,
    with_a: bool = True,
) -> list[tuple[float, Array]]:
    """Multistart minima of a threshold objective over its cone.

    Returns (value, sign-aligned minimizer) of every descent that did not
    merge (_descend_merging), sorted by value.

    The cone is the B-positive cone of constraint's tag (A > 0 and B > 0 of
    the working problem), or B > 0 alone when with_a is false; then starts
    must also pass constraint.feasible, so they still lie inside A > 0.  The
    cone test reads A and B, and the objective reuses that B.
    """
    if with_a:
        constraint = replace(constraint, tag=constraint.tag.b_positive)
    working = constraint.working

    def evaluate(u: Array) -> Evaluated:
        b = float(working.eval_B(u))
        inside = _inside_cone(float(working.eval_A(u)), b) if with_a else _inside_cone(b)
        if not inside:
            return math.inf, _outside_cone
        return objective(working, u, b)

    rule = _start_rule(evaluate)
    usable = rule if with_a else (lambda u: constraint.feasible(u) and rule(u))
    results, _ = _multistart(
        constraint, evaluate, usable, purpose, multistart, seed, params or OptimizerParams()
    )
    minima = [(value, _sign_aligned(u)) for u, value, _, _, _ in results]
    return sorted(minima, key=lambda vu: vu[0])


def _near_best(minima: list[tuple[float, Array]]) -> tuple[float, list[Array]]:
    """The best of sorted minima and the minimizers within relative _LEVEL_RTOL of it."""
    best = minima[0][0]
    return best, [u for value, u in minima if abs(value - best) <= _LEVEL_RTOL * (1.0 + abs(best))]


def compute_c_star(
    constraint: SphereConstraint,
    multistart: int = 32,
    seed: int = 0,
    params: OptimizerParams | None = None,
    c_star_star: float | None = None,
) -> float:
    """Lower threshold: sup of the degenerate-collision level over the A and B cone.

    On every ray c_bar(u) = -kappa * c0(u), kappa = K.threshold_ratio of the
    exponents, so the sup of c_bar is -kappa times the inf of c0 over the same
    cone: c* = -kappa * c**.  c_star_star is that upper threshold of this
    constraint when the caller has it; otherwise compute_c_star_star runs
    with multistart, seed and params (one zero-level solve over the B > 0
    cone, any-inside rule).  Always strictly negative.
    """
    if c_star_star is None:
        c_star_star, _ = compute_c_star_star(constraint, multistart, seed, params)
    e = constraint.triple.exponents
    c_star = -K.threshold_ratio(e.alpha, e.eta, e.beta) * c_star_star
    if not (c_star < 0.0):
        raise RuntimeError(f"computed lower threshold {c_star!r} is not negative")
    return c_star


def compute_c_star_star(
    constraint: SphereConstraint,
    multistart: int = 32,
    seed: int = 0,
    params: OptimizerParams | None = None,
    zero_level: tuple[float, Sequence[Array]] | None = None,
) -> tuple[float, list[Array]]:
    """Upper threshold: inf of the zero-crossing level over the A and B cone.

    c0 ignores A, so the solve runs over the B > 0 cone alone: minimize_c0
    on the constraint, or zero_level = (c0, minimizers), its result, when
    the caller has it.  The threshold is at least the B-cone minimum, and a
    minimizer inside the working A cone attains it; so when any near-best
    minimizer lies inside, the B-cone minimum is the threshold and the
    inside minimizers are its minimizers.  Only when none lies inside does a
    second solve run, over the A and B cone.  Returns the threshold (always
    > 0) and the distinct minimizers found within relative 1e-6 of the best
    value (the numerical stand-in for the minimizing set).
    """
    working = constraint.working
    if zero_level is None:
        zero_level = minimize_c0(constraint, multistart, seed, params)
    best, minimizers = zero_level
    keep = [u for u in minimizers if _inside_cone(float(working.eval_A(u)))]
    if not keep:
        best, keep = _near_best(_minimize_ray_objective(
            constraint, _zero_level, _PURPOSE["c_star_star"], multistart, seed, params
        ))
    if not (best > 0.0):
        raise RuntimeError(f"computed upper threshold {best!r} is not positive")
    return best, keep


def minimize_c0(
    constraint: SphereConstraint,
    multistart: int = 16,
    seed: int = 0,
    params: OptimizerParams | None = None,
) -> tuple[float, list[Array]]:
    """Zero-crossing level minimized over the B > 0 cone alone.

    The objective ignores A entirely, so the descent's cone here is only
    B(u) > 0; starts are drawn inside the constraint's working A > 0 cone as
    well, on its start support.  Returns the minimum and the near-best
    minimizers.  This is the one zero-level solve behind
    compute_c_star_star, compute_c_star and extend_minus_past_cstarstar;
    the conjecture-supporting weight construction uses it too.  Those
    callers test the minimizers against the A > 0 cone themselves.
    """
    constraint = SphereConstraint(constraint.working, start_support=constraint.start_support)
    return _near_best(_minimize_ray_objective(
        constraint, _zero_level, _PURPOSE["c0"], multistart, seed, params, with_a=False
    ))


# ---------------------------------------------------------------------------
# genus surrogates


_XI_MASTER_SEED = 20240811
_XI_MAX_K = 16
# relative tolerance of the pairwise additivity check on surrogate bases
_ADDITIVITY_RTOL = 1e-12


def _xi_samples(k: int, n_samples: int) -> Array:
    """Deterministic coefficient-sphere sample, nested across k.

    Samples for every k' <= k are embedded (padded with zeros), so surrogate
    values are nondecreasing in k by construction when the same resolution is
    used.  Axis vectors are always included.
    """
    rng = np.random.default_rng(_XI_MASTER_SEED)
    master = rng.standard_normal((n_samples, _XI_MAX_K))
    rows: list[Array] = []
    for j in range(1, k + 1):
        eye = np.zeros(k)
        eye[j - 1] = 1.0
        rows.append(eye)
        if j == 1:
            continue
        block = master[:, :j]
        norms = np.linalg.norm(block, axis=1)
        good = norms > 0.0
        unit = block[good] / norms[good, None]
        padded = np.zeros((unit.shape[0], k))
        padded[:, :j] = unit
        rows.extend(padded)
    return np.vstack(rows)


def _basis_scalars(working: FunctionalTriple, basis: Array) -> Array:
    """(N, A, B) of every basis vector as a (3, k) array, checked additive on every pair.

    Raises SurrogateInvalidError naming the first pair (i, j) where N, A or B
    of e_i + e_j differs from the sum of its values at e_i and e_j by more
    than _ADDITIVITY_RTOL relative to the sum of their magnitudes.
    """
    scalars = np.array([_ray_scalars(working, e) for e in basis]).T
    for i in range(basis.shape[0]):
        for j in range(i + 1, basis.shape[0]):
            joint = np.array(_ray_scalars(working, basis[i] + basis[j]))
            expected = scalars[:, i] + scalars[:, j]
            bad = np.abs(joint - expected) > _ADDITIVITY_RTOL * (
                np.abs(scalars[:, i]) + np.abs(scalars[:, j])
            )
            if bad.any():
                m = int(np.argmax(bad))
                f = "NAB"[m]
                raise SurrogateInvalidError(
                    f"basis vectors {i} and {j} are not additive: "
                    f"{f}(e_{i} + e_{j}) = {joint[m]!r}, "
                    f"{f}(e_{i}) + {f}(e_{j}) = {expected[m]!r}; "
                    "their supports interact (adjacent blocks need a gap column)"
                )
    return scalars


def _xi_of_s(alpha: float, s: Array) -> Array:
    """Basis coefficients xi = sign(s) |s|**(2/alpha) of cusp-free coordinates s."""
    return np.sign(s) * np.abs(s) ** (2.0 / alpha)


def _s_of_xi(alpha: float, xi: Array) -> Array:
    """Cusp-free coordinates s = sign(xi) |xi|**(alpha/2); zero entries stay zero."""
    return np.sign(xi) * np.abs(xi) ** (alpha / 2.0)


def _s_degrees(e: Exponents) -> Array:
    """Degrees in |s_i| of N, A and B over an additive basis, as a (3, 1) column."""
    return np.array([[2.0 * e.eta / e.alpha], [2.0], [2.0 * e.beta / e.alpha]])


def _coefficient_evaluation(
    e: Exponents, c: float, branch: str, scalars: Array
) -> Evaluation:
    """Level at coordinates s over an additive basis whose (N, A, B) are scalars.

    The point is sum_i xi_i e_i with xi_i = sign(s_i) |s_i|**(2/alpha).  Then
    N = sum_i |s_i|**(2 eta/alpha) N(e_i), A = sum_i |s_i|**2 A(e_i) and
    B = sum_i |s_i|**(2 beta/alpha) B(e_i), so a point costs 3k numbers and
    one root solve, and the s-gradient follows in closed form from the
    level's partials.  In xi the level has a |xi_j|**alpha cusp on every axis
    when alpha < 2, where a maximizer with some xi_j = 0 is not a critical
    point; in s every degree is at least 2, A is a diagonal quadratic form,
    and such a maximizer is a smooth critical point that a polish converges to.
    """
    degrees = _s_degrees(e)

    def evaluate(s: Array) -> Evaluated:
        n, a, b = ((np.abs(s) ** degrees) * scalars).sum(axis=1)
        lam, t = _scalar_level(e, c, branch, float(n), float(a), float(b))

        def gradient() -> Array:
            # d/ds_i of |s_i|**d f(e_i) is d |s_i|**(d-1) sign(s_i) f(e_i)
            grads = degrees * np.abs(s) ** (degrees - 1.0) * np.sign(s) * scalars
            return _level_gradient(e, lam, t, float(a), *grads)

        return lam, gradient

    return evaluate


class GenusSurrogate:
    """Surrogate competitor set: the coefficient sphere over a disjoint basis.

    basis holds k unit vectors of pairwise disjoint support inside the cone
    of constraint, k the genus being approximated; n_samples is the
    quadrature resolution on the coefficient sphere.  N, A and B must be
    additive over the basis: no functional may couple two supports (the
    gradient in N does when two blocks touch), so that N(sum_i xi_i e_i) =
    sum_i |xi_i|**eta N(e_i) and likewise for A and B.

    Everything a surrogate level reads that does not depend on c or the
    branch is built here, once, on the constraint's working triple: scalars,
    the (3, k) per-basis (N, A, B), checked additive on every pair
    (_basis_scalars raises SurrogateInvalidError naming the first pair that
    is not); samples, the (m, k) coefficient samples in s; and
    sample_scalars, the (3, m) (N, A, B) of the samples.
    """

    def __init__(self, constraint: SphereConstraint, basis: Array, n_samples: int = 64) -> None:
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        k = basis.shape[0]
        if k < 1 or k > _XI_MAX_K:
            raise ValueError(f"k must be between 1 and {_XI_MAX_K}")
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.constraint = constraint
        self.basis = basis
        self.k = k
        self.n_samples = n_samples
        e = constraint.working.exponents
        self.scalars = _basis_scalars(constraint.working, basis)
        self.samples = _s_of_xi(e.alpha, _xi_samples(k, n_samples))
        # the sums of _coefficient_evaluation for every sample at once, (3, m, k) -> (3, m)
        self.sample_scalars = (
            np.abs(self.samples) ** _s_degrees(e)[:, :, None] * self.scalars[:, None, :]
        ).sum(axis=2)


def surrogate_level(
    surrogate: GenusSurrogate,
    c: float,
    branch: str,
    warm_xi: Sequence[Array] = (),
    params: OptimizerParams | None = None,
) -> SurrogateLevel:
    """Upper-bound surrogate for the genus-k level on positive-A constraints.

    Samples the coefficient sphere of the surrogate basis, takes the largest
    restricted-parameter value and polishes it by ascent in coefficient space.
    The result bounds the true min-max level from above because the basis
    sphere is one admissible competitor set.

    Sampling and polish run on the per-basis scalars N(e_i), A(e_i), B(e_i)
    (_coefficient_evaluation) and the sample scalars that the surrogate
    built once; only the maximizer is evaluated on the model of the
    surrogate's constraint, which gives the reported value, t_root and
    u_unit.  Any infeasible sampled ray raises SurrogateInvalidError, as
    does a basis that is not additive when the surrogate is built: a basis
    violating the cone must be rebuilt, not silently skipped.

    Sampling and polish run in the coordinates s = sign(xi) |xi|**(alpha/2).
    The maximizer often sits on a coordinate axis (some xi_j = 0), where the
    level has a |xi_j|**alpha cusp for alpha < 2: its xi-gradient does not
    vanish there, and an ascent in xi stalls short of gtol.  In s the level
    is smooth on the axes and the maximizer is a critical point.  The level
    is 0-homogeneous in s as in xi, so the polish stays on the Euclidean unit
    sphere, with the metric scaled by the best sample's |level|: the first
    trial step then turns the start by the relative gradient (at most
    atan 2), whatever the level's magnitude.  Samples, warm starts and the
    returned xi are in xi; the map keeps zero entries zero, so samples stay
    nested across k.

    The polish descends from the warm starts, then from the three best
    samples, once from each distinct start, in one multistart
    (_descend_merging): a polish that comes within the merge radius of a
    maximizer an earlier one converged to, while not above it, stops there
    and is dropped.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    params = params or OptimizerParams()
    constraint = surrogate.constraint
    working = constraint.working
    e = working.exponents
    k = surrogate.k
    level = _coefficient_evaluation(e, c, branch, surrogate.scalars)

    def invalid(s: Array, what: str, exc: InfeasibleRayError) -> SurrogateInvalidError:
        return SurrogateInvalidError(
            f"coefficient {what} {_xi_of_s(e.alpha, s)!r} leaves the feasible cone: {exc}"
        )

    values = []
    for s, (n, a, b) in zip(surrogate.samples, surrogate.sample_scalars.T.tolist()):
        try:
            values.append(_scalar_level(e, c, branch, n, a, b)[0])
        except InfeasibleRayError as exc:
            raise invalid(s, "sample", exc) from None
    values = np.array(values)
    order = np.argsort(values)[::-1]

    polish_starts = []
    for w in warm_xi:
        w = np.asarray(w, dtype=float)
        if w.shape != (k,):
            raise ValueError(f"warm coefficient vector has shape {w.shape}, expected ({k},)")
        polish_starts.append(_s_of_xi(e.alpha, w))
    polish_starts += [surrogate.samples[i] for i in order[:3]]
    # an axis maximizer is often a warm start and a best sample: descend once from it
    polish_starts = [
        s for i, s in enumerate(polish_starts)
        if not any(np.array_equal(s, t) for t in polish_starts[:i])
    ]

    ascent = OptimizerParams(gtol=params.gtol, max_iter=_POLISH_ITER)
    best_value = values[order[0]]
    best_s = surrogate.samples[order[0]]
    # The gradient grows with the level.  With M = I the first trial step at
    # a level near 4e3 turns the start by nearly 90 degrees, and backtracking
    # takes the first higher point it meets, which can lie across a valley
    # (an axis instead of the peak the start sat below).
    scale = abs(best_value) or 1.0

    euclid = FunctionalTriple(
        exponents=e,
        dim=k,
        eval_N=lambda s: float(np.dot(s, s)) ** (e.eta / 2.0),
        eval_A=lambda s: 1.0,
        eval_B=lambda s: 1.0,
        grad_N=lambda s: e.eta * float(np.dot(s, s)) ** (e.eta / 2.0 - 1.0) * s,
        grad_A=lambda s: np.zeros_like(s),
        grad_B=lambda s: np.zeros_like(s),
        metric=lambda v: scale * v,
        metric_solve=lambda g: g / scale,
    )

    def neg_evaluate(s: Array) -> Evaluated:
        try:
            lam, gradient = level(s)
        except InfeasibleRayError as exc:
            raise invalid(s, "point", exc) from None
        return -lam, lambda: -gradient()

    results, _ = _descend_merging(euclid, neg_evaluate, polish_starts, ascent)
    for s, neg_val, _, _, _ in results:
        if -neg_val > best_value:
            best_value = -neg_val
            best_s = s

    best_xi = _xi_of_s(e.alpha, best_s)
    u_best = surrogate.basis.T @ best_xi
    u_best = u_best / working.norm_of(u_best)
    lam_int, t, _ = _level_internal(working, c, branch, u_best)
    return SurrogateLevel(
        value=constraint.lambda_sign * lam_int,
        k=k,
        xi=best_xi,
        u_unit=u_best,
        t_root=t,
    )
