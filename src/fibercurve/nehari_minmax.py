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
grow with the number of grid nodes.  Ground levels (k = 1) are
exact multistart minima; k >= 2 levels are genus-type surrogate bounds from
spheres of coefficient combinations over disjoint-support bases, labeled as
surrogates everywhere.

Negative-cone branches never run their own machinery: the energy satisfies
phi(lam, u; A) = phi(-lam, u; -A), so constraints with a negative tag flip the
sign of A internally and negate the reported parameter.

Thresholds: compute_c_star maximizes the degenerate-collision level c_bar(u)
(always < 0) and compute_c_star_star minimizes the zero-crossing level c0(u)
(always > 0); both are 0-homogeneous ray functions of (N, B) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels as K
from .fibering import classify_and_solve  # noqa: F401 (perfbench/tracing.py patches it here)
from .functional_core import Array, ConeTag, FunctionalTriple, phi, phi_grad

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
    "surrogate_family",
    "surrogate_level",
]


class InfeasibleRayError(Exception):
    """The requested branch has no critical scaling on this ray.

    Optimizers consume this as value +inf on the minimizing branches, which is
    the coercive behavior of the restricted parameter at the cone boundary.
    """


class InfeasibleLevelError(RuntimeError):
    """No feasible start produced a finite level for this (c, branch)."""


class SurrogateInvalidError(Exception):
    """A sampled coefficient combination left the feasible cone."""


@dataclass
class OptimizerParams:
    """Projected-descent settings; defaults follow the library-wide policy."""

    gtol: float = 1e-8
    max_iter: int = 5000
    armijo_c1: float = 1e-4
    step_init: float = 1.0
    step_factor: float = 0.5
    step_min: float = 1e-16
    polish_iter: int = 200
    start_attempts: int = 200


@dataclass
class SphereConstraint:
    """Unit sphere of the problem norm intersected with an open cone.

    start_support optionally restricts random start vectors to a boolean DOF
    mask (model problems pass the sign-structure mask so starts are feasible
    by construction).  eps_cone is the relative margin below which a point
    counts as boundary during line searches.
    """

    triple: FunctionalTriple
    tag: ConeTag = ConeTag.A_POS
    eps_cone: float = 1e-12
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
        working = self.working
        a = float(working.eval_A(u))
        margin = a
        scale = 1.0 + abs(a)
        if self.tag.needs_b_pos:
            b = float(working.eval_B(u))
            margin = min(margin, b)
            scale += abs(b)
        return margin > self.eps_cone * scale


@dataclass(frozen=True)
class CriticalPointRecord:
    """One candidate critical pair (lam, v) with its certification data.

    coefficients is the scaled vector v = t_root * u; residual_grad is the
    coefficient-gradient norm of the energy at (lam, v) relative to the
    largest of its three term norms; energy_defect is |phi(lam, v) - c|.
    converged reports the optimizer's own stopping test, not the residual
    thresholds, so certification stays a separate check.
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


@dataclass(frozen=True)
class GenusSurrogate:
    """Surrogate competitor set: the coefficient sphere over a disjoint basis.

    k is the genus being approximated, basis holds k unit vectors of pairwise
    disjoint support inside the cone, n_samples is the quadrature resolution
    on the coefficient sphere.
    """

    k: int
    basis: Array
    n_samples: int = 64

    def __post_init__(self) -> None:
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", basis)
        if basis.shape[0] != self.k:
            raise ValueError(f"basis has {basis.shape[0]} vectors, k={self.k}")
        if self.k < 1 or self.k > 16:
            raise ValueError("k must be between 1 and 16")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


@dataclass(frozen=True)
class SurrogateLevel:
    """Surrogate level value with the maximizing coefficient combination."""

    value: float
    k: int
    xi: Array
    u_unit: Array
    t_root: float


_BRANCHES = ("plus", "minus")


def _branch_root(code: int, t_plus: float, t_minus: float, branch: str) -> float:
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
    n = float(working.eval_N(u))
    a = float(working.eval_A(u))
    b = float(working.eval_B(u))
    if not (n > 0.0):
        raise InfeasibleRayError(f"coercive part not positive on this ray (N={n!r})")
    if a <= 0.0:
        raise InfeasibleRayError(f"ray outside the working cone (A={a!r})")
    return n, a, b


def _level_internal(
    working: FunctionalTriple, c: float, branch: str, u: Array
) -> tuple[float, float]:
    """(lam, t_root) of the working problem; raises InfeasibleRayError off-branch."""
    e = working.exponents
    n, a, b = _ray_scalars(working, u)
    code, tp, tm = K.classify(n, b, e.alpha, e.eta, e.beta, c)
    t = _branch_root(code, tp, tm, branch)
    num = (e.beta - e.eta) / e.eta * n * t**e.eta - e.beta * c
    den = (e.beta - e.alpha) / e.alpha * a * t**e.alpha
    return num / den, t


def _level_grad_internal(
    working: FunctionalTriple, c: float, branch: str, u: Array
) -> tuple[float, float, Array]:
    """(lam, t_root, gradient) of the working problem at u."""
    e = working.exponents
    lam, t = _level_internal(working, c, branch, u)
    a = float(working.eval_A(u))
    g = (e.alpha / a) * (
        t ** (e.eta - e.alpha) * np.asarray(working.grad_N(u), dtype=float) / e.eta
        - lam * np.asarray(working.grad_A(u), dtype=float) / e.alpha
        - t ** (e.beta - e.alpha) * np.asarray(working.grad_B(u), dtype=float) / e.beta
    )
    return lam, t, g


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
    lam, t = _level_internal(constraint.working, c, branch, u)
    return constraint.lambda_sign * lam, t


def level_slope(constraint: SphereConstraint, c: float, u: Array, branch: str) -> float:
    """Exact c-derivative of the reported level along a fixed ray: -alpha/A(t u).

    A is the original (signed) concave term, so negative-cone constraints get
    positive slopes, matching the sign-flipped reporting.
    """
    _, t = _level_internal(constraint.working, c, branch, u)
    e = constraint.triple.exponents
    a_at_root = float(constraint.triple.eval_A(u)) * t**e.alpha
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
    lam_int, t = _level_internal(working, c, branch, u)
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


def _sphere_descend(
    working: FunctionalTriple,
    feasible: Callable[[Array], bool],
    value_fn: Callable[[Array], float],
    grad_fn: Callable[[Array], tuple[float, Array]],
    u0: Array,
    params: OptimizerParams,
) -> tuple[Array, float, int, bool, float]:
    """Preconditioned gradient descent with renormalization after every step.

    The direction is d = M^{-1} grad for the triple's metric M (the Sobolev
    gradient; d = grad when the triple has no metric).  Step lengths come from
    the Barzilai-Borwein quotient s^T M s / s^T y of ambient differences,
    safeguarded by a nonmonotone Armijo backtracking that asks for a decrease
    of c1 * step * grad^T d below the worst of the last few accepted values;
    both pieces are deterministic.  The stopping test stays the Euclidean
    ||grad|| <= gtol.  Returns (u, value, iterations, converged, gradient_norm).

    The Armijo reference carries an allowance of _ROUNDING_ULPS units in the
    last place of its value, in the spirit of the approximate Wolfe test of
    Hager and Zhang (SIAM J. Optim. 16, 2005).  A warm start that already sits
    at a minimizer asks for decreases (about 1e-20) far below the rounding of
    the value itself (ulp(35) is about 7e-15); without the allowance a trial
    one ulp above the single remembered value fails, a trial equal to it
    passes without progress, and the descent runs to max_iter just above gtol.
    """
    metric, metric_solve = working.metric, working.metric_solve
    u = _normalize(working, u0)
    value = value_fn(u)
    gnorm = math.inf
    step_next = params.step_init
    prev_u: Array | None = None
    prev_grad: Array | None = None
    recent = [value]
    for it in range(1, params.max_iter + 1):
        value, grad = grad_fn(u)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= params.gtol:
            return u, value, it, True, gnorm
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
        step = min(max(step_next, params.step_min), 1e12)
        reference = max(recent)
        reference += _ROUNDING_ULPS * math.ulp(reference)
        accepted = False
        while step >= params.step_min:
            trial = u - step * direction
            try:
                trial = _normalize(working, trial)
            except InfeasibleRayError:
                step *= params.step_factor
                continue
            if feasible(trial):
                try:
                    trial_value = value_fn(trial)
                except InfeasibleRayError:
                    trial_value = math.inf
                if trial_value <= reference - params.armijo_c1 * step * slope:
                    prev_u, prev_grad = u, grad
                    u = trial
                    value = trial_value
                    accepted = True
                    break
            step *= params.step_factor
        if not accepted:
            # line search exhausted: flat valley or cone-boundary pin
            return u, value, it, gnorm <= 10.0 * params.gtol, gnorm
        recent.append(value)
        if len(recent) > 10:
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


def _draw_starts(
    constraint: SphereConstraint,
    count: int,
    seed,
    purpose: int,
    check: Callable[[Array], bool],
    params: OptimizerParams,
) -> list[Array]:
    """Deterministic feasible start vectors; seeds derive from (seed, purpose, index)."""
    working = constraint.working
    dim = constraint.triple.dim
    support = constraint.start_support
    starts: list[Array] = []
    for i in range(count):
        rng = np.random.default_rng(_seed_key(seed) + (purpose, i))
        found = False
        for _ in range(params.start_attempts):
            g = rng.standard_normal(dim)
            if support is not None:
                g = np.where(support, g, 0.0)
            if not np.any(g):
                continue
            try:
                u = _normalize(working, g)
            except InfeasibleRayError:
                continue
            if constraint.feasible(u) and check(u):
                starts.append(u)
                found = True
                break
            # a one-signed profile is feasible more often than a sign-changing one
            try:
                u = _normalize(working, np.abs(g))
            except InfeasibleRayError:
                continue
            if constraint.feasible(u) and check(u):
                starts.append(u)
                found = True
                break
        if not found:
            raise InfeasibleLevelError(
                f"could not sample a feasible start (index {i}) after "
                f"{params.start_attempts} attempts; check the cone support"
            )
    return starts


def _computable(working: FunctionalTriple, c: float, branch: str) -> Callable[[Array], bool]:
    def check(u: Array) -> bool:
        try:
            _level_internal(working, c, branch, u)
        except InfeasibleRayError:
            return False
        return True

    return check


_PURPOSE = {"plus": 1, "minus": 2, "c_star": 3, "c_star_star": 4, "c0": 5}


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
    allows warm starting from neighboring levels (infeasible ones are skipped).
    Raises InfeasibleLevelError when nothing feasible exists at this (c, branch).
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    params = params or OptimizerParams()
    working = constraint.working

    def value_fn(u: Array) -> float:
        return _level_internal(working, c, branch, u)[0]

    def grad_fn(u: Array) -> tuple[float, Array]:
        lam, _, g = _level_grad_internal(working, c, branch, u)
        return lam, g

    check = _computable(working, c, branch)
    starts: list[Array] = []
    for w in extra_starts:
        try:
            w = _normalize(working, np.asarray(w, dtype=float))
        except InfeasibleRayError:
            continue
        if constraint.feasible(w) and check(w):
            starts.append(w)
    if multistart > 0:
        starts.extend(
            _draw_starts(constraint, multistart, seed, _PURPOSE[branch], check, params)
        )
    if not starts:
        raise InfeasibleLevelError(
            f"no feasible start for branch {branch!r} at c={c!r}"
        )

    best: tuple[float, Array, int, bool] | None = None
    for u0 in starts:
        u, value, iters, ok, _ = _sphere_descend(working, constraint.feasible, value_fn, grad_fn, u0, params)
        if best is None or value < best[0]:
            best = (value, u, iters, ok)
    value, u, iters, ok = best
    record = extract_critical_point(
        constraint, c, branch, u, k=1, iterations=iters, converged=ok
    )
    return record.lam, record


# ---------------------------------------------------------------------------
# thresholds: ray functions of (N, B) only


def _zero_level_value_grad(working: FunctionalTriple, u: Array, want_grad: bool):
    e = working.exponents
    n = float(working.eval_N(u))
    b = float(working.eval_B(u))
    if not (n > 0.0):
        raise InfeasibleRayError(f"coercive part not positive (N={n!r})")
    if b <= 0.0:
        raise InfeasibleRayError(f"zero-level objective needs B > 0 (B={b!r})")
    t0, c0 = K.zero_level_pair(n, b, e.eta, e.beta)
    if not want_grad:
        return c0, None
    q = e.beta / (e.beta - e.eta)
    r = e.eta / (e.beta - e.eta)
    grad = c0 * (
        q * np.asarray(working.grad_N(u), dtype=float) / n
        - r * np.asarray(working.grad_B(u), dtype=float) / b
    )
    return c0, grad


def _extremal_value_grad(working: FunctionalTriple, u: Array, want_grad: bool):
    e = working.exponents
    n = float(working.eval_N(u))
    b = float(working.eval_B(u))
    if not (n > 0.0):
        raise InfeasibleRayError(f"coercive part not positive (N={n!r})")
    if b <= 0.0:
        raise InfeasibleRayError(f"extremal objective needs B > 0 (B={b!r})")
    _, c_bar = K.extremal_pair(n, b, e.alpha, e.eta, e.beta)
    if not want_grad:
        return c_bar, None
    q = e.beta / (e.beta - e.eta)
    r = e.eta / (e.beta - e.eta)
    grad = c_bar * (
        q * np.asarray(working.grad_N(u), dtype=float) / n
        - r * np.asarray(working.grad_B(u), dtype=float) / b
    )
    return c_bar, grad


def _cluster_minima(
    minima: list[tuple[float, Array]], level_rtol: float = 1e-6, coeff_tol: float = 1e-3
) -> list[tuple[float, Array]]:
    """Deduplicate (value, u) pairs; sign-aligned coefficient distance below coeff_tol merges."""
    kept: list[tuple[float, Array]] = []
    for value, u in sorted(minima, key=lambda vu: vu[0]):
        idx = int(np.argmax(np.abs(u)))
        if u[idx] < 0.0:
            u = -u
        dup = False
        for kv, ku in kept:
            if abs(value - kv) <= level_rtol * (1.0 + abs(kv)) and float(
                np.max(np.abs(u - ku))
            ) <= coeff_tol:
                dup = True
                break
        if not dup:
            kept.append((value, u))
    return kept


def _minimize_ray_objective(
    constraint: SphereConstraint,
    objective,
    feasible: Callable[[Array], bool],
    purpose: int,
    multistart: int,
    seed: int,
    params: OptimizerParams,
) -> list[tuple[float, Array]]:
    working = constraint.working

    def value_fn(u: Array) -> float:
        return objective(working, u, False)[0]

    def grad_fn(u: Array) -> tuple[float, Array]:
        return objective(working, u, True)

    def check(u: Array) -> bool:
        try:
            value_fn(u)
        except InfeasibleRayError:
            return False
        return True

    starts = _draw_starts(constraint, multistart, seed, purpose, check, params)
    minima = []
    for u0 in starts:
        u, value, _, _, _ = _sphere_descend(working, feasible, value_fn, grad_fn, u0, params)
        minima.append((value, u))
    return _cluster_minima(minima)


def compute_c_star(
    constraint: SphereConstraint,
    multistart: int = 32,
    seed: int = 0,
    params: OptimizerParams | None = None,
) -> float:
    """Lower threshold: sup of the degenerate-collision level over the A and B cone.

    Always strictly negative; the optimizer maximizes the 0-homogeneous
    collision level (equivalently minimizes its negative), so the result is a
    certified inner approximation of the supremum.
    """
    params = params or OptimizerParams()
    inter = SphereConstraint(
        triple=constraint.triple,
        tag=ConeTag.A_NEG_B_POS if constraint.lambda_sign < 0 else ConeTag.A_POS_B_POS,
        eps_cone=constraint.eps_cone,
        start_support=constraint.start_support,
    )

    def objective(working, u, want_grad):
        value, grad = _extremal_value_grad(working, u, want_grad)
        return (-value, None) if grad is None else (-value, -grad)

    minima = _minimize_ray_objective(
        inter, objective, inter.feasible, _PURPOSE["c_star"], multistart, seed, params
    )
    c_star = -minima[0][0]
    if not (c_star < 0.0):
        raise RuntimeError(f"computed lower threshold {c_star!r} is not negative")
    return c_star


def compute_c_star_star(
    constraint: SphereConstraint,
    multistart: int = 32,
    seed: int = 0,
    params: OptimizerParams | None = None,
) -> tuple[float, list[Array]]:
    """Upper threshold: inf of the zero-crossing level over the A and B cone.

    Returns the threshold (always > 0) and the distinct minimizers found
    within relative 1e-6 of the best value (the numerical stand-in for the
    minimizing set).
    """
    params = params or OptimizerParams()
    inter = SphereConstraint(
        triple=constraint.triple,
        tag=ConeTag.A_NEG_B_POS if constraint.lambda_sign < 0 else ConeTag.A_POS_B_POS,
        eps_cone=constraint.eps_cone,
        start_support=constraint.start_support,
    )
    minima = _minimize_ray_objective(
        inter, _zero_level_value_grad, inter.feasible, _PURPOSE["c_star_star"],
        multistart, seed, params,
    )
    best = minima[0][0]
    if not (best > 0.0):
        raise RuntimeError(f"computed upper threshold {best!r} is not positive")
    keep = [u for value, u in minima if abs(value - best) <= 1e-6 * (1.0 + abs(best))]
    return best, keep


def minimize_c0(
    triple: FunctionalTriple,
    multistart: int = 16,
    seed: int = 0,
    start_support: Array | None = None,
    params: OptimizerParams | None = None,
) -> tuple[float, list[Array]]:
    """Zero-crossing level minimized over the B > 0 cone alone.

    The objective ignores A entirely, so the feasible set here is only
    B(u) > 0; used by the conjecture-supporting weight construction, whose
    hypothesis check (all minimizers inside the A > 0 cone) happens downstream.
    """
    params = params or OptimizerParams()
    constraint = SphereConstraint(
        triple=triple, tag=ConeTag.A_POS, eps_cone=1e-12, start_support=start_support
    )

    def feasible(u: Array) -> bool:
        b = float(triple.eval_B(u))
        return b > 1e-12 * (1.0 + abs(b))

    minima = _minimize_ray_objective(
        constraint, _zero_level_value_grad, feasible, _PURPOSE["c0"], multistart, seed, params
    )
    best = minima[0][0]
    keep = [u for value, u in minima if abs(value - best) <= 1e-6 * (1.0 + abs(best))]
    return best, keep


# ---------------------------------------------------------------------------
# genus surrogates


_XI_MASTER_SEED = 20240811
_XI_MAX_K = 16


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


def surrogate_level(
    constraint: SphereConstraint,
    c: float,
    branch: str,
    surrogate: GenusSurrogate,
    warm_xi: Sequence[Array] = (),
    params: OptimizerParams | None = None,
) -> SurrogateLevel:
    """Upper-bound surrogate for the genus-k level on positive-A constraints.

    Samples the coefficient sphere of the surrogate basis, takes the largest
    restricted-parameter value and polishes it by ascent in coefficient space.
    The result bounds the true min-max level from above because the basis
    sphere is one admissible competitor set.  Any infeasible sampled ray
    raises SurrogateInvalidError: a basis violating the cone must be rebuilt,
    not silently skipped.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}, got {branch!r}")
    params = params or OptimizerParams()
    working = constraint.working
    basis = surrogate.basis
    k = surrogate.k

    def combo(xi: Array) -> Array:
        return basis.T @ xi

    def value_fn(xi: Array) -> float:
        u = combo(xi)
        try:
            lam, _ = _level_internal(working, c, branch, u)
        except InfeasibleRayError as exc:
            raise SurrogateInvalidError(
                f"coefficient sample {xi!r} leaves the feasible cone: {exc}"
            ) from None
        return lam

    samples = _xi_samples(k, surrogate.n_samples)
    values = np.array([value_fn(xi) for xi in samples])
    order = np.argsort(values)[::-1]

    polish_starts = [samples[i] for i in order[:3]]
    for w in warm_xi:
        w = np.asarray(w, dtype=float)
        if w.shape != (k,):
            raise ValueError(f"warm coefficient vector has shape {w.shape}, expected ({k},)")
        polish_starts.append(w)

    ascent = OptimizerParams(
        gtol=params.gtol,
        max_iter=params.polish_iter,
        armijo_c1=params.armijo_c1,
        step_init=params.step_init,
        step_factor=params.step_factor,
        step_min=params.step_min,
    )

    euclid = FunctionalTriple(
        exponents=working.exponents,
        dim=k,
        eval_N=lambda xi: float(np.dot(xi, xi)) ** (working.exponents.eta / 2.0),
        eval_A=lambda xi: 1.0,
        eval_B=lambda xi: 1.0,
        grad_N=lambda xi: working.exponents.eta
        * float(np.dot(xi, xi)) ** (working.exponents.eta / 2.0 - 1.0)
        * xi,
        grad_A=lambda xi: np.zeros_like(xi),
        grad_B=lambda xi: np.zeros_like(xi),
    )

    def neg_value(xi: Array) -> float:
        return -value_fn(xi)

    def neg_grad(xi: Array) -> tuple[float, Array]:
        u = combo(xi)
        try:
            lam, _, g = _level_grad_internal(working, c, branch, u)
        except InfeasibleRayError as exc:
            raise SurrogateInvalidError(
                f"coefficient point {xi!r} leaves the feasible cone: {exc}"
            ) from None
        return -lam, -(basis @ g)

    best_value = values[order[0]]
    best_xi = samples[order[0]]
    for xi0 in polish_starts:
        try:
            xi, neg_val, _, _, _ = _sphere_descend(
                euclid, lambda xi: True, neg_value, neg_grad, xi0, ascent
            )
        except SurrogateInvalidError:
            raise
        if -neg_val > best_value:
            best_value = -neg_val
            best_xi = xi

    u_best = combo(best_xi)
    u_best = u_best / working.norm_of(u_best)
    lam_int, t = _level_internal(working, c, branch, u_best)
    return SurrogateLevel(
        value=constraint.lambda_sign * lam_int,
        k=k,
        xi=np.asarray(best_xi, dtype=float),
        u_unit=u_best,
        t_root=t,
    )


def surrogate_family(
    constraint: SphereConstraint,
    c: float,
    branch: str,
    basis: Array,
    ks: Sequence[int],
    n_samples: int = 64,
    warm_by_k: dict[int, Array] | None = None,
    params: OptimizerParams | None = None,
) -> dict[int, SurrogateLevel]:
    """Surrogate levels for several k over prefixes of one nested basis.

    Each level k reuses the polished maximizer of level k-1 (zero-padded) as a
    warm start, which together with the embedded sampling makes the family
    nondecreasing in k exactly.  warm_by_k carries maximizers from a previous
    c (curve tracing).
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    out: dict[int, SurrogateLevel] = {}
    prev_xi: Array | None = None
    for k in sorted(ks):
        if k > basis.shape[0]:
            raise ValueError(f"nested basis has {basis.shape[0]} vectors, needs {k}")
        warm: list[Array] = []
        if prev_xi is not None:
            warm.append(np.concatenate([prev_xi, np.zeros(k - prev_xi.size)]))
        if warm_by_k and k in warm_by_k:
            warm.append(np.asarray(warm_by_k[k], dtype=float))
        level = surrogate_level(
            constraint,
            c,
            branch,
            GenusSurrogate(k=k, basis=basis[:k], n_samples=n_samples),
            warm_xi=warm,
            params=params,
        )
        if prev_xi is not None:
            prev = out[max(out)]
            sign = constraint.lambda_sign
            if sign * level.value < sign * prev.value:
                # the embedded warm start guarantees this cannot drop; keep the bound tight
                level = SurrogateLevel(
                    value=prev.value,
                    k=k,
                    xi=np.concatenate([prev.xi, np.zeros(k - prev.xi.size)]),
                    u_unit=prev.u_unit,
                    t_root=prev.t_root,
                )
        out[k] = level
        prev_xi = level.xi
    return out
