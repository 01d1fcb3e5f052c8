"""Constrained optimization of the restricted parameter over sphere-in-cone sets.

The restricted parameter of a unit vector u at level c and branch +/- is the
fibering-map value at the corresponding critical scaling (local minimum for
the plus branch, local maximum for the minus branch).  It is 0-homogeneous in
u, so optimization runs as descent on the problem-norm sphere: a trial
point is any representative v of its ray, and one read of N(v), A(v) and
B(v) gives the unit vector u = v / N(v)**(1/eta) and, through the degrees of
A and B, the scalars of u, where N = 1.  Every descent objective (the level,
the zero level c0, the surrogate level in coefficient space) is a function
of the ray scalars (n, a, b) that gives its value and its partials
(f_n, f_a, f_b); the level takes its partials from the fibering map at its
root by the envelope theorem.  One sphere evaluation turns any objective into
the gradient f_n grad_N + f_a grad_A + f_b grad_B, for the level

    grad_u = (alpha/a) * (t**(eta-alpha) grad_N/eta - lam grad_A/alpha
             - t**(beta-alpha) grad_B/beta),

which is automatically tangent at exact roots, and one multistart minimizes
it for ground levels and both thresholds.  Steps follow the Sobolev
gradient d = M(u)^{-1} grad_u for the triple's metric at the iterate
(FunctionalTriple.metric_at: on model problems the stiffness of the problem
norm, with the p-Laplacian's cell weights |Du|^(p-2) on 1D grids, all 1 at
p = 2; the identity pair by default), with Barzilai-Borwein steps
s^T M s / s^T y and a nonmonotone Armijo test on the decrease
step * grad_u^T d.  The
descent carries M u while the metric stays, so a metric that does not
depend on u is applied once, at the start.  In this metric the iteration
count does not grow with the number of grid nodes: from drawn starts
(_draw_starts) 12 and 16 iterations at n = 63 and 4095 for p = 3 in 1D;
from white-noise starts 18 and 27, and in the p = 2 stiffness 38 and 177.
A descent stops on one relative test: the
gradient's norm against the largest norm of its three chain-rule terms,
which for the level is the certificate's residual_grad.  It stops once
that ratio is at most _STOP_RTOL, at max_iter, or when its line search is
exhausted, and gives no verdict: a level is converged iff its record's own
residual_grad meets the certificate's bound _CERTIFY_RTOL
(extract_critical_point).  Ground levels (k = 1) are exact multistart
minima; k >= 2 levels are genus-type surrogate bounds from spheres of
coefficient combinations over disjoint-support bases, labeled as surrogates
everywhere.
On such a basis N, A and B are additive (checked on every pair), so a
surrogate level is a function of the 3k numbers N(e_i), A(e_i), B(e_i): its
sampling and polish never touch the grid.

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

import collections
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kernels as K
from .fibering import classify_and_solve  # noqa: F401 (perfbench/tracing.py patches it here)
from .functional_core import (
    Array, ConeTag, Exponents, FunctionalTriple, Metric, _inside_cone, cone_membership, phi,
    phi_grad,
)

# a descent objective: objective(n, a, b) gives its value at the ray scalars
# (n, a, b) and a callable giving its partials (f_n, f_a, f_b) there
Partials = tuple[float, float, float]
Objective = Callable[[float, float, float], tuple[float, Callable[[], Partials]]]


class SpherePoint(NamedTuple):
    """A sphere point evaluated from a representative v of its ray.

    u = v / nrm is the unit vector, value the objective at u and gradient a
    zero-argument callable finishing the objective's gradient at u from what
    the value already computed, with the squared norm of its largest
    chain-rule term (_chain_rule), the scale of the descent's stopping test.
    """

    u: Array
    nrm: float
    value: float
    gradient: Callable[[], tuple[Array, float]]


class Descent(NamedTuple):
    """What a descent (_sphere_descend) returns.

    u is the unit vector it stopped at and value the objective there;
    iterations counts the points it measured (read the gradient of), and
    residual is u's relative residual, the stopping test's ratio, nan at a
    merge stop, whose point is never measured.  It carries no verdict: the
    record of u decides convergence (extract_critical_point).
    """

    u: Array
    value: float
    iterations: int
    residual: float


Evaluation = Callable[[Array], SpherePoint]
# a start rule: the evaluated point of a usable candidate, the reason it is
# rejected for any other
StartRule = Callable[[Array], SpherePoint | str]
# the metric at a point: u -> (apply, solve) of M(u) (FunctionalTriple.metric_at)
MetricAt = Callable[[Array], Metric]

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
    """A descent's iteration cap, the most points it measures (at least 1);
    it stops earlier on the relative residual test of _sphere_descend."""

    max_iter: int = 5000

    def __post_init__(self) -> None:
        if not (self.max_iter >= 1):
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


# line search: Armijo factor, first step, backtracking factor, and the
# smallest and largest step in units of ||u||_M / ||d||_M, turns in radians
# (scale-free, like the first-trial cap)
_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_FACTOR = 0.5
_STEP_MIN = 1e-16
_STEP_MAX = 1e12
# the descent's stopping ratio ||grad|| / max_i ||f_i grad_i|| (_sphere_descend):
# a descent stops at _STOP_RTOL, and a record is converged when its
# residual_grad, the same ratio, meets _CERTIFY_RTOL (extract_critical_point)
_STOP_RTOL = 1e-8
_CERTIFY_RTOL = 1e-6
# iteration cap of the surrogate polish, and random draws per start
_POLISH_ITER = 200
_START_ATTEMPTS = 200
# Merge radius of a found point in a multistart, relative to its sup-norm
# (0.42 to 0.83 for unit grid minimizers, whatever the grid size).  On the
# 1D Dirichlet instance with weights 1+x and cos(2 pi x)+0.2, a minus-branch
# descent 0.084 relative from a local minimizer still ends in the lower one.
_MERGE_RTOL = 0.03


@dataclass
class SphereConstraint:
    """Unit sphere of the problem norm intersected with an open cone.

    start_support optionally restricts random start vectors to a boolean DOF
    mask; an empty mask restricts nothing.  Model problems pass the
    sign-structure mask (cone_node_mask), which makes A, and B on B-positive
    cones, positive at every start, but not by the margin of the cone rule:
    that rule still decides whether a start is usable (_draw_starts smooths
    the draws so that it passes on fine grids).  Every cone decision
    follows the one cone rule (functional_core._inside_cone): a point is
    inside when A of the working problem, and B on B-positive cones, each
    exceed _CONE_RTOL times 1 + its own magnitude; closer points count as
    boundary.
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

    coefficients is the scaled vector v = t_root * u of a unit u, so t_root
    is also the problem norm N(v)**(1/eta) of v; slope is the level's
    c-derivative along the ray of u, -alpha/A(v) with the original (signed)
    A, which by Danskin's theorem is also the c-slope of a ground minimum or
    a surrogate maximum at its optimizer; residual_grad is the
    coefficient-gradient norm of the energy at (lam, v) relative to the
    largest of its three term norms; energy_defect is |phi(lam, v) - c|.
    converged is residual_grad <= _CERTIFY_RTOL, whatever stopped the
    descent that found v; certification also checks the energy defect.
    Ground levels (minimize_ground_level) also count the descents their
    multistart ran (starts) and how many of those merged into a minimizer
    found before them (merged_starts); other records leave both 0.
    """

    branch: str
    k: int
    c: float
    lam: float
    coefficients: Array
    t_root: float
    slope: float
    residual_grad: float
    energy_defect: float
    iterations: int
    converged: bool
    starts: int = 0
    merged_starts: int = 0


@dataclass(frozen=True)
class SurrogateLevel:
    """Record of a surrogate level and its maximizing coefficients xi.

    The record's converged follows its residual_grad, as every record's
    does; the maximizer is a point of the full problem that is not critical
    there, so its residual stays far above the bound.
    """

    record: CriticalPointRecord
    xi: Array


_BRANCHES = ("plus", "minus")


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
    _, t_plus, t_minus = K.classify(n, b, e.alpha, e.eta, e.beta, c, branch=branch)
    t = t_plus if branch == "plus" else t_minus
    if math.isnan(t):
        raise InfeasibleRayError(f"no {branch}-branch critical scaling on this ray")
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


def _level_objective(e: Exponents, c: float, branch: str) -> Objective:
    """The level at (c, branch) as an objective of the ray scalars (n, a, b).

    The fibering map is stationary in t at the root t, so by the envelope
    theorem the partials are those of phi(lam, t; n, a, b) = c at fixed t:

        (alpha/a) t**(eta-alpha)/eta,  -lam/a,  -(alpha/a) t**(beta-alpha)/beta.
    """

    def objective(n: float, a: float, b: float) -> tuple[float, Callable[[], Partials]]:
        lam, t = _scalar_level(e, c, branch, n, a, b)

        def partials() -> Partials:
            scale = e.alpha / a
            f_n = scale * t ** (e.eta - e.alpha) / e.eta
            return f_n, -lam / a, -(scale * t ** (e.beta - e.alpha) / e.beta)

        return lam, partials

    return objective


def _chain_rule(partials: Partials, gradient_of: Callable[[int], Array]) -> tuple[Array, float]:
    """f_n grad_N + f_a grad_A + f_b grad_B for partials (f_n, f_a, f_b), and
    the largest squared norm ||f_i grad_i||**2 of its terms.

    gradient_of(i) gives the gradient of the i-th ray scalar (N, A, B) and
    is not asked where the partial is 0.  For the level all three terms
    carry the factor alpha / (a t**(alpha-1)) of the energy gradient at the
    critical point, so the gradient's norm over the largest term's is
    extract_critical_point's residual_grad.
    """
    terms = [f * gradient_of(i) for i, f in enumerate(partials) if f != 0.0]
    first, *rest = terms
    return sum(rest, first), float(max(map(np.dot, terms, terms)))


def _unit_vector(v: Array, nrm: float) -> Array:
    """v / nrm; raises InfeasibleRayError unless nrm is positive and finite."""
    if not (nrm > 0.0) or not math.isfinite(nrm):
        raise InfeasibleRayError(f"cannot normalize: norm={nrm!r}")
    return v / nrm


def _unit_scalars(
    working: FunctionalTriple, v: Array, with_a: bool = True
) -> tuple[Array, float, float, float]:
    """(u, nrm, A(u), B(u)) of the unit vector u = v / nrm of a nonzero v.

    N, A and B are read once each, at v.  nrm = N(v)**(1/eta), and A and B
    are scaled to u by the powers of nrm their degrees give, so N(u) = 1.
    A is not read, and is nan, when with_a is false.
    """
    e = working.exponents
    nrm = working.norm_of(v)
    u = _unit_vector(v, nrm)
    a = float(working.eval_A(v)) / nrm**e.alpha if with_a else math.nan
    return u, nrm, a, float(working.eval_B(v)) / nrm**e.beta


def _sphere_evaluation(
    constraint: SphereConstraint, objective: Objective, with_a: bool = True
) -> Evaluation:
    """The descent's evaluation of an objective on the working problem's sphere.

    The cone test and the objective read one set of scalars of the unit
    vector u (_unit_scalars), where N = 1: A, and B on B-positive cones,
    decide the cone, or B alone when with_a is false, and then A is not
    read.  A point outside the cone has value +inf.  The gradient at u is the
    chain rule of the objective's partials (_chain_rule), with the gradients
    of N, A and B read at u, and comes with its largest squared term norm.
    """
    working = constraint.working
    needs_b_pos = constraint.tag.needs_b_pos
    grads = (working.grad_N, working.grad_A, working.grad_B)

    def evaluate(v: Array) -> SpherePoint:
        u, nrm, a, b = _unit_scalars(working, v, with_a)
        inside = _inside_cone(a, b if needs_b_pos else None) if with_a else _inside_cone(b)
        if not inside:
            return SpherePoint(u, nrm, math.inf, _outside_cone)
        value, partials = objective(1.0, a, b)

        def gradient() -> tuple[Array, float]:
            return _chain_rule(partials(), lambda i: np.asarray(grads[i](u), dtype=float))

        return SpherePoint(u, nrm, value, gradient)

    return evaluate


def lambda_tilde(
    constraint: SphereConstraint, c: float, branch: str, u: Array
) -> tuple[float, float]:
    """Restricted parameter and critical scaling of u at level c on a branch.

    The same ray evaluation the optimizers run, with the parameter
    sign-adjusted for negative cones; the arguments come in the order of
    extract_critical_point's.  Raises InfeasibleRayError when the ray
    leaves the working cone or has no critical scaling on the branch.
    """
    _check_branch(branch)
    lam, t, _ = _level_internal(constraint.working, c, branch, u)
    return constraint.lambda_sign * lam, t


def extract_critical_point(
    constraint: SphereConstraint,
    c: float,
    branch: str,
    u: Array,
    k: int = 1,
    iterations: int = 0,
) -> CriticalPointRecord:
    """Scale u to its critical point and certify residual and energy defect.

    The residual and defect are evaluated on the original triple with the
    reported (sign-adjusted) parameter, which coincides with the working
    problem's residual by the sign-flip identity.  The record is converged
    iff its residual meets _CERTIFY_RTOL: this is the one place that
    verdict is made, for every record.  The slope -alpha/A(t u)
    takes A(t u) = lambda_sign * a * t**alpha from the working A(u) = a, so
    negative cones get positive slopes, like their reported levels.
    """
    _check_branch(branch)
    working = constraint.working
    lam_int, t, a = _level_internal(working, c, branch, u)
    lam = constraint.lambda_sign * lam_int
    v = t * np.asarray(u, dtype=float)
    triple = constraint.triple
    e = triple.exponents
    slope = -e.alpha / (constraint.lambda_sign * a * t**e.alpha)
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
        slope=slope,
        residual_grad=residual,
        energy_defect=defect,
        iterations=iterations,
        converged=residual <= _CERTIFY_RTOL,
    )


# ---------------------------------------------------------------------------
# descent machinery


# accepted values the nonmonotone Armijo reference remembers
_WINDOW = 10


def _sphere_descend(
    metric_at: MetricAt,
    evaluate: Evaluation,
    start: SpherePoint,
    params: OptimizerParams,
    *,
    merge: Callable[[Array, float], bool],
) -> Descent:
    """Preconditioned gradient descent on the sphere, from an evaluated start.

    evaluate(v) takes any representative v of a ray and returns its
    SpherePoint: the unit vector, the objective value there and a
    zero-argument callable that finishes the gradient there, with its
    largest squared chain-rule term norm, from what the value already
    computed (ray scalars, root).  Each point is evaluated
    once: start is the evaluation that accepted it, a trial u - step d is
    evaluated as it stands and normalized by the evaluation, the gradient is
    asked for only at the start and at accepted trials, and rejected trials
    cost the value alone.  The objective does its own cone test and returns
    +inf outside the cone; such a trial, like one raising InfeasibleRayError,
    fails the Armijo test.

    The direction is d = M^{-1} grad for the metric M = (apply, solve) that
    metric_at(u) gives at the current point: the Sobolev gradient for a
    triple's metric, the gradient itself for the identity pair.  Step lengths
    come from the Barzilai-Borwein quotient s^T M s / s^T y of ambient
    differences, safeguarded by a nonmonotone Armijo backtracking that asks
    for a decrease of c1 * step * grad^T d below the worst of the last few
    accepted values; both pieces are deterministic.  M is applied once per
    metric change.  The descent asks metric_at for the pair at its start and
    at every accepted point, and applies a new pair once, to that point.
    While the pair stays the same object (every metric that does not depend
    on u), it carries M u: an accepted trial (u - step d) / nrm has M u =
    (M u - step grad) / nrm, since M d = grad.  So s^T M s is
    s^T (M u - M u_prev), always in the metric the step was taken in, and
    only then is the metric of the new point applied.

    The stopping test is relative and the same for every objective: the
    residual ||grad|| / max_i ||f_i grad_i||, the Euclidean gradient norm
    over the largest of its chain-rule terms.  It is scale-free, whatever
    the objective's magnitude (the zero level near 8e8 at p = 3), and for
    the level it is the certificate's residual_grad.  The descent stops at
    residual <= _STOP_RTOL or at params.max_iter, both tested at the top of
    an iteration, after u's residual; when its line search is exhausted; or
    at a merge.  Every stop but a merge is at a measured point, one whose
    gradient the descent has read, and params.max_iter bounds the points
    measured, so iterations is also the number of gradient reads.  Returns
    a Descent, which gives no verdict: whether u is converged is for its
    record to say (extract_critical_point).

    The first trial, which has no Barzilai-Borwein quotient yet, is capped at
    step ||d||_M <= 2 ||u||_M.  The gradient is tangent, so d is M-orthogonal
    to u and the trial turns u by at most atan 2 on the sphere (Absil,
    Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008).
    Uncapped, a unit first step at a large gradient turns u by nearly 90
    degrees, and the backtracking must halve it 20 to 35 times before it
    tests a nearby point.

    The Armijo reference is the largest of the last _WINDOW accepted values,
    with no allowance for rounding, so every accepted value lies strictly
    below it.  The test compares trial - reference, exact for nearby values,
    with -c1 step grad^T d: reference - c1 step grad^T d would round to the
    reference once the decrease is below half its ulp, and accept an equal
    value.  A warm start that already sits at a minimizer, where the
    asked-for decrease (about 1e-20) is far below the rounding of the value
    itself (ulp(35) is about 7e-15), is ended by the relative stopping test,
    at its first measured point or soon after, not by the line search.

    merge(u, value) is asked after every accepted step; when it holds, the
    descent stops there with residual nan: u was never measured, and
    _descend_merging drops the descent.
    """
    u, _, value, gradient = start
    metric = metric_at(u)
    apply_m, solve_m = metric
    mu = apply_m(u)  # M u, carried while the metric stays
    radius = math.sqrt(float(u @ mu))  # ||u||_M
    step_next = _STEP_INIT
    prev_u: Array | None = None
    m_s: Array | None = None  # M s of the last step, in the metric it was taken in
    prev_grad: Array | None = None
    recent = collections.deque([value], maxlen=_WINDOW)
    for it in itertools.count(1):
        grad, scale2 = gradient()
        residual = math.sqrt(float(grad @ grad) / scale2)
        if residual <= _STOP_RTOL or it >= params.max_iter:
            return Descent(u, value, it, residual)
        direction = solve_m(grad)
        slope = float(grad @ direction)
        # ||d||_M = sqrt(grad^T M^{-1} grad) = sqrt(slope), and a step below
        # step_min turns u by less than _STEP_MIN radians on the sphere; the
        # cap is the turn _STEP_MAX in the same units, so scaling the
        # objective scales the steps it allows
        step_min = _STEP_MIN * radius / math.sqrt(slope)
        if prev_grad is not None:
            s = u - prev_u
            y = grad - prev_grad
            sy = float(s @ y)
            if sy > 0.0 and math.isfinite(sy):
                step_next = float(s @ m_s) / sy
        step = min(max(step_next, step_min), _STEP_MAX * radius / math.sqrt(slope))
        if prev_grad is None:
            step = min(step, 2.0 * radius / math.sqrt(slope))
        reference = max(recent)
        while step >= step_min:
            try:
                trial = evaluate(u - step * direction)
            except InfeasibleRayError:
                trial = None
            if trial is not None and trial.value - reference <= -_ARMIJO_C1 * step * slope:
                break
            step *= _STEP_FACTOR
        else:
            # line search exhausted: flat valley or cone-boundary pin
            return Descent(u, value, it, residual)
        prev_u, prev_grad = u, grad
        u, _, value, gradient = trial
        stepped = (mu - step * grad) / trial.nrm
        m_s = stepped - mu
        if merge(u, value):
            return Descent(u, value, it, math.nan)
        recent.append(value)
        step_next = step * 2.0
        following = metric_at(u)
        if following is metric:
            mu = stepped
        else:
            metric = following
            apply_m, solve_m = metric
            mu = apply_m(u)
            radius = math.sqrt(float(u @ mu))


def _seed_key(seed) -> tuple[int, ...]:
    """Flatten arbitrarily nested int/tuple seeds so callers can compose them."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    out: list[int] = []
    for s in seed:
        out.extend(_seed_key(s))
    return tuple(out)


def _check_branch(branch: str) -> None:
    """A level lives on the plus or the minus branch; raises ValueError otherwise."""
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")


def _check_multistart(multistart: int, least: int) -> None:
    """A ground level draws at least 0 starts (a warm chain passes 0 beside
    its warm start); a threshold solve draws at least 1."""
    if multistart < least:
        raise ValueError(f"multistart must be at least {least}, got {multistart!r}")


def _start_rule(
    evaluate: Evaluation, feasible: Callable[[Array], bool] | None = None
) -> StartRule:
    """The start rule: a candidate is usable when the descent's own
    evaluate is finite there (it is +inf outside the cone and raises off the
    branch) and feasible, when given, holds at its unit vector; that
    evaluation is the descent's start.  A rejected candidate gives the
    reason: the InfeasibleRayError's text, "outside the cone", or "outside
    the A cone" where feasible fails."""

    def usable(v: Array) -> SpherePoint | str:
        try:
            point = evaluate(v)
        except InfeasibleRayError as exc:
            return str(exc)
        if not math.isfinite(point.value):
            return "outside the cone"
        if feasible is not None and not feasible(point.u):
            return "outside the A cone"
        return point

    return usable


def _draw_starts(
    constraint: SphereConstraint,
    count: int,
    seed,
    purpose: int,
    usable: StartRule,
) -> list[SpherePoint]:
    """Deterministic usable starts, evaluated; seeds derive from (seed, purpose, index).

    A draw is s = mask * M^{-1}(mask * g): g is white noise, one standard
    normal per node, and (apply, solve) of M is the working metric at
    mask * g.  Unmasked, s solves M s = g, the Gaussian field of precision
    M^2 (Lindgren, Rue and Lindstrom, J. R. Stat. Soc. B 73, 2011, their
    alpha = 2): on 1D Dirichlet grids at p = 2, white noise integrated
    twice and pinned to 0 at both ends.  It is no rougher on a finer grid,
    where white noise put every B-positive start within the cone margin
    from n = 2047 nodes on.  The mask, start_support, applies on both sides
    of the solve, so every start is 0 off the support; an empty or absent
    support restricts nothing.  With the identity pair s is g masked, the
    white draw, bit for bit.
    """
    dim = constraint.triple.dim
    support = constraint.start_support
    if support is None or not support.any():  # an empty support restricts nothing
        support = np.ones(dim, dtype=bool)
    metric_at = constraint.working.metric_at
    starts: list[SpherePoint] = []
    for i in range(count):
        rng = np.random.default_rng(_seed_key(seed) + (purpose, i))
        for _ in range(_START_ATTEMPTS):
            g = np.where(support, rng.standard_normal(dim), 0.0)
            _, solve = metric_at(g)
            # each draw is evaluated once; usable rejects a zero draw, whose
            # norm _unit_vector refuses
            start = usable(np.where(support, solve(g), 0.0))
            if isinstance(start, SpherePoint):
                starts.append(start)
                break
        else:
            raise InfeasibleLevelError(
                f"could not sample a feasible start (index {i}) after "
                f"{_START_ATTEMPTS} attempts; the last draw: {start}"
            )
    return starts


def _multistart(
    constraint: SphereConstraint,
    evaluate: Evaluation,
    purpose: int,
    count: int,
    seed,
    params: OptimizerParams | None,
    extra_starts: Sequence[Array] = (),
    feasible: Callable[[Array], bool] | None = None,
) -> tuple[list[Descent], int]:
    """The one multistart minimizer of ground levels and thresholds.

    Descends from the usable extra_starts, then from count drawn starts
    (_start_rule(evaluate, feasible)), in one _descend_merging, in the
    working triple's metric.  Returns the descents that did not merge,
    sorted by value (ties in start order), and the merge count.  Whether a
    descent merges depends only on the starts before it, so more drawn
    starts can only add results.
    """
    usable = _start_rule(evaluate, feasible)
    starts = [
        start for w in extra_starts
        if isinstance(start := usable(np.asarray(w, dtype=float)), SpherePoint)
    ]
    starts += _draw_starts(constraint, count, seed, purpose, usable)
    results, merged = _descend_merging(
        constraint.working.metric_at, evaluate, starts, params or OptimizerParams()
    )
    return sorted(results, key=lambda r: r.value), merged


def _descend_merging(
    metric_at: MetricAt,
    evaluate: Evaluation,
    starts: Sequence[SpherePoint],
    params: OptimizerParams,
) -> tuple[list[Descent], int]:
    """Descend from every evaluated start in order; a descent into a found basin merges.

    Returns the Descent of every descent that did not merge, in start order,
    and the number that merged.  This is the clustering rule of
    multi-level single linkage (Rinnooy Kan and Timmer, Math. Programming 39,
    1987), and the solver's only test of "a minimizer already found": the end
    point of every descent that does not merge is found, converged or not, and
    a later descent merges when it ends within _MERGE_RTOL times a found
    point's sup-norm of it, in the sign-aligned sup-norm (u and -u are the same
    point), at a value not below that point's.  So where no descent converges,
    the first one still stops the repeats.  The descent is also asked after
    every accepted step, and ends at the first one that gets there.  A descent
    below every found point never merges, so a lower basin is still found.
    Ground levels, thresholds and surrogate polishes all descend here.
    """
    found: list[tuple[float, Array, float]] = []  # (value, sign-aligned end point, radius)

    def merges(u: Array, value: float) -> bool:
        above = [(m, radius) for v, m, radius in found if value >= v]
        if not above:
            return False
        aligned = _sign_aligned(u)
        return any(float(np.max(np.abs(aligned - m))) <= radius for m, radius in above)

    results = []
    merged = 0
    for start in starts:
        result = _sphere_descend(metric_at, evaluate, start, params, merge=merges)
        if merges(result.u, result.value):
            merged += 1
            continue
        m = _sign_aligned(result.u)
        found.append((result.value, m, _MERGE_RTOL * float(np.max(m))))
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
    and runs first.  A descent that comes close to the end point of an earlier
    descent that did not merge, at a value not below it, merges: it stops and
    is dropped (_descend_merging).  The first minimum in start order of the
    other descents wins, so a larger multistart can only lower the level.  The
    record counts the descents run (starts) and merged (merged_starts).  Raises
    InfeasibleLevelError when nothing feasible exists at this (c, branch).
    """
    _check_branch(branch)
    _check_multistart(multistart, 0)
    evaluate = _sphere_evaluation(
        constraint, _level_objective(constraint.working.exponents, c, branch)
    )
    results, merged = _multistart(
        constraint, evaluate, _PURPOSE[branch], multistart, seed, params, extra_starts
    )
    if not results:
        raise InfeasibleLevelError(
            f"no feasible start for branch {branch!r} at c={c!r}"
        )
    best = results[0]
    record = extract_critical_point(
        constraint, c, branch, best.u, k=1, iterations=best.iterations
    )
    return record.lam, replace(record, starts=len(results) + merged, merged_starts=merged)


# ---------------------------------------------------------------------------
# thresholds: ray functions of (N, B) only


def _zero_level(e: Exponents) -> Objective:
    """The zero level c0 as an objective of the ray scalars, a function of (n, b) alone.

    c0 is n**q * b**-r times a constant with q = beta/(beta-eta) and
    r = eta/(beta-eta), so its partials are (q c0/n, 0, -r c0/b).  b > 0 is
    left to the cone test.
    """
    q = e.beta / (e.beta - e.eta)
    r = e.eta / (e.beta - e.eta)

    def objective(n: float, a: float, b: float) -> tuple[float, Callable[[], Partials]]:
        c0 = K.zero_level_pair(n, b, e.eta, e.beta)[1]
        return c0, lambda: (q * c0 / n, 0.0, -(r * c0 / b))

    return objective


# threshold minima within this relative level of the best are near-best
_LEVEL_RTOL = 1e-6


def _sign_aligned(u: Array) -> Array:
    """u or -u, whichever has its entry of largest magnitude positive; the
    triples are even, so both are the same point of the level."""
    return -u if u[int(np.argmax(np.abs(u)))] < 0.0 else u


def _near_best(results: list[Descent]) -> tuple[float, list[Array]]:
    """The best value of _multistart's results and the sign-aligned minimizers
    within relative _LEVEL_RTOL of it."""
    best = results[0].value
    close = _LEVEL_RTOL * (1.0 + abs(best))
    return best, [_sign_aligned(r.u) for r in results if abs(r.value - best) <= close]


def compute_c_star(
    constraint: SphereConstraint,
    multistart: int = 32,
    seed: int = 0,
    c_star_star: float | None = None,
) -> float:
    """Lower threshold: sup of the degenerate-collision level over the A and B cone.

    On every ray c_bar(u) = -kappa * c0(u), kappa = K.threshold_ratio of the
    exponents, so the sup of c_bar is -kappa times the inf of c0 over the same
    cone: c* = -kappa * c**.  c_star_star is that upper threshold of this
    constraint when the caller has it; otherwise compute_c_star_star runs
    with multistart and seed (one zero-level solve over the B > 0 cone,
    any-inside rule).  Always strictly negative.
    """
    if c_star_star is None:
        c_star_star, _ = compute_c_star_star(constraint, multistart, seed)
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
    value (the numerical stand-in for the minimizing set).  multistart is
    checked on entry, whether or not the second solve runs.
    """
    _check_multistart(multistart, 1)
    working = constraint.working
    if zero_level is None:
        zero_level = minimize_c0(constraint, multistart, seed, params)
    best, minimizers = zero_level
    keep = [u for u in minimizers if _inside_cone(float(working.eval_A(u)))]
    if not keep:
        both = replace(constraint, tag=constraint.tag.b_positive)
        evaluate = _sphere_evaluation(both, _zero_level(working.exponents))
        best, keep = _near_best(
            _multistart(both, evaluate, _PURPOSE["c_star_star"], multistart, seed, params)[0]
        )
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
    _check_multistart(multistart, 1)
    constraint = SphereConstraint(constraint.working, start_support=constraint.start_support)
    evaluate = _sphere_evaluation(
        constraint, _zero_level(constraint.working.exponents), with_a=False
    )
    return _near_best(_multistart(
        constraint, evaluate, _PURPOSE["c0"], multistart, seed, params,
        feasible=constraint.feasible,
    )[0])


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
    """The surrogate polish's evaluation: the negated level at coordinates s
    over an additive basis whose (N, A, B) are scalars.

    The level is 0-homogeneous in s, so a representative v of a ray is
    normalized on the Euclidean unit sphere, s = v / nrm, and the point is
    sum_i xi_i e_i with xi_i = sign(s_i) |s_i|**(2/alpha).  Then
    N = sum_i |s_i|**(2 eta/alpha) N(e_i), A = sum_i |s_i|**2 A(e_i) and
    B = sum_i |s_i|**(2 beta/alpha) B(e_i), so a point costs 3k numbers and
    one root solve, and the s-gradient follows in closed form from the
    level's partials.  Value and gradient are negated, so a descent on them
    maximizes the level.  A point where the level has no root raises
    SurrogateInvalidError naming its xi.  In xi the level has a
    |xi_j|**alpha cusp on every axis when alpha < 2, where a maximizer with
    some xi_j = 0 is not a critical point; in s every degree is at least 2,
    A is a diagonal quadratic form, and such a maximizer is a smooth
    critical point that a polish converges to.
    """
    degrees = _s_degrees(e)
    objective = _level_objective(e, c, branch)

    def evaluate(v: Array) -> SpherePoint:
        nrm = math.sqrt(float(v @ v))
        s = _unit_vector(v, nrm)
        n, a, b = ((np.abs(s) ** degrees) * scalars).sum(axis=1)
        try:
            lam, partials = objective(float(n), float(a), float(b))
        except InfeasibleRayError as exc:
            raise SurrogateInvalidError(
                f"coefficient point {_xi_of_s(e.alpha, s)!r} leaves the feasible cone: {exc}"
            ) from None

        def gradient() -> tuple[Array, float]:
            # d/ds_i of |s_i|**d f(e_i) is d |s_i|**(d-1) sign(s_i) f(e_i)
            grads = degrees * np.abs(s) ** (degrees - 1.0) * np.sign(s) * scalars
            return _chain_rule([-f for f in partials()], grads.__getitem__)

        return SpherePoint(s, nrm, -lam, gradient)

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
) -> SurrogateLevel:
    """Upper-bound surrogate for the genus-k level on positive-A constraints.

    Samples the coefficient sphere of the surrogate basis, takes the largest
    restricted-parameter value and polishes it by ascent in coefficient space.
    The result bounds the true min-max level from above because the basis
    sphere is one admissible competitor set.

    Sampling runs on the sample scalars that the surrogate built once, and
    the polish on the per-basis scalars N(e_i), A(e_i), B(e_i) through its
    sphere evaluation (_coefficient_evaluation); only the maximizer is
    evaluated on the model of the surrogate's constraint, and its record
    (extract_critical_point, whose residual on the full problem stays far
    above the certificate's bound) is the reported level.  Any infeasible
    sampled or polished ray raises SurrogateInvalidError, as does
    a basis that is not additive when the surrogate is built: a basis
    violating the cone must be rebuilt, not silently skipped.

    Sampling and polish run in the coordinates s = sign(xi) |xi|**(alpha/2).
    The maximizer often sits on a coordinate axis (some xi_j = 0), where the
    level has a |xi_j|**alpha cusp for alpha < 2: its xi-gradient does not
    vanish there, and an ascent in xi stalls short of its stopping test.  In
    s the level is smooth on the axes and the maximizer is a critical point.
    The level is 0-homogeneous in s as in xi, so the polish stays on the
    Euclidean unit sphere, with the metric scaled by the best sample's
    |level|: the first trial step then turns the start by the relative
    gradient (at most atan 2), whatever the level's magnitude.  Samples, warm
    starts and the returned xi are in xi; the map keeps zero entries zero, so
    samples stay nested across k.

    The polish descends from the warm starts, then from the three best
    samples, once from each distinct start, in one multistart
    (_descend_merging): a polish that comes within the merge radius of
    where an earlier polish that did not merge ended, while not above it,
    stops there and is dropped.  The level is the highest of the ends of the
    polishes that did not merge; the first wins ties.  No start is above its
    polish's end: an accepted step lies strictly below the Armijo reference,
    and a polish that merges stops near a found end not above its own value.
    """
    _check_branch(branch)
    constraint = surrogate.constraint
    working = constraint.working
    e = working.exponents
    k = surrogate.k
    values = []
    for s, (n, a, b) in zip(surrogate.samples, surrogate.sample_scalars.T.tolist()):
        try:
            values.append(_scalar_level(e, c, branch, n, a, b)[0])
        except InfeasibleRayError as exc:
            raise SurrogateInvalidError(
                f"coefficient sample {_xi_of_s(e.alpha, s)!r} leaves the feasible cone: {exc}"
            ) from None
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

    # The gradient grows with the level.  With M = I the first trial step at
    # a level near 4e3 turns the start by nearly 90 degrees, and backtracking
    # takes the first higher point it meets, which can lie across a valley
    # (an axis instead of the peak the start sat below).
    scale = abs(values[order[0]]) or 1.0
    metric = (lambda v: scale * v, lambda g: g / scale)
    polish = _coefficient_evaluation(e, c, branch, surrogate.scalars)
    starts = [polish(s) for s in polish_starts]
    results, _ = _descend_merging(
        lambda s: metric, polish, starts, OptimizerParams(max_iter=_POLISH_ITER)
    )
    # the highest level of the polish ends; the first wins ties
    best_s = min(results, key=lambda r: r.value).u

    best_xi = _xi_of_s(e.alpha, best_s)
    u_best = surrogate.basis.T @ best_xi
    u_best = u_best / working.norm_of(u_best)
    record = extract_critical_point(constraint, c, branch, u_best, k=k)
    return SurrogateLevel(record=record, xi=best_xi)
