"""Homogeneous functional triples and the maps built on top of them.

The whole library works with a triple of even functionals (N, A, B) on R^dim,
positively homogeneous of degrees eta, alpha, beta with 1 < alpha < eta < beta.
N is the coercive part (N(u) > 0 for u != 0), A carries the sign-indefinite
concave weight and B the sign-indefinite convex weight.  The parametrized
energy is

    phi(lam, u) = N(u)/eta - lam*A(u)/alpha - B(u)/beta,

and the unique parameter placing u at energy level c is

    lambda_of(c, u) = (N(u)/eta - B(u)/beta - c) / (A(u)/alpha),

defined wherever A(u) != 0.  Everything downstream (fibering maps, sphere
optimization, curve tracing) consumes triples only through this interface, so
toy closed-form triples and grid discretizations share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "ConeTag",
    "Exponents",
    "FunctionalTriple",
    "cone_membership",
    "lambda_of",
    "phi",
    "phi_grad",
]


@dataclass(frozen=True)
class Exponents:
    """Homogeneity degrees (alpha, eta, beta), validated to 1 < alpha < eta < beta."""

    alpha: float
    eta: float
    beta: float

    def __post_init__(self) -> None:
        a, e, b = self.alpha, self.eta, self.beta
        if not (np.isfinite(a) and np.isfinite(e) and np.isfinite(b)):
            raise ValueError(f"exponents must be finite, got ({a}, {e}, {b})")
        if not (1.0 < a < e < b):
            raise ValueError(
                "exponent ordering violated: need 1 < alpha < eta < beta, "
                f"got alpha={a}, eta={e}, beta={b}"
            )


class ConeTag(Enum):
    """Open cones in which sphere optimization is run.

    A_POS        : A(u) > 0
    A_POS_B_POS  : A(u) > 0 and B(u) > 0
    A_NEG        : A(u) < 0
    A_NEG_B_POS  : A(u) < 0 and B(u) > 0
    """

    A_POS = "a_pos"
    A_POS_B_POS = "a_pos_b_pos"
    A_NEG = "a_neg"
    A_NEG_B_POS = "a_neg_b_pos"

    @property
    def a_sign(self) -> float:
        return -1.0 if self in (ConeTag.A_NEG, ConeTag.A_NEG_B_POS) else 1.0

    @property
    def needs_b_pos(self) -> bool:
        return self in (ConeTag.A_POS_B_POS, ConeTag.A_NEG_B_POS)

    @property
    def b_positive(self) -> ConeTag:
        """The B-positive cone with this tag's sign of A."""
        return ConeTag.A_POS_B_POS if self.a_sign > 0 else ConeTag.A_NEG_B_POS


# a metric M as (apply, solve), v -> M v and g -> M^{-1} g
Metric = tuple[Callable[[Array], Array], Callable[[Array], Array]]


def _identity(v: Array) -> Array:
    """M v and M^{-1} v of the identity metric M = I."""
    return v


_IDENTITY_PAIR: Metric = (_identity, _identity)


def _euclidean(u: Array) -> Metric:
    """The identity pair at every point: the Euclidean coefficient metric."""
    return _IDENTITY_PAIR


@dataclass(frozen=True)
class FunctionalTriple:
    """Even homogeneous triple (N, A, B) with gradients and a problem norm.

    eval_* return floats, grad_* return arrays of shape (dim,).  The norm of
    the unit spheres is N(u)**(1/eta), which for the discrete Dirichlet and
    truncated whole-space builds is exactly the discrete W^{1,p} norm.  Every
    callable must be homogeneous of the declared degree and even; property
    tests enforce this on randomized inputs.

    metric_at(u) gives the symmetric positive definite matrix M(u) of the
    sphere geometry at the point u, as a pair of an apply (M v) and a solve
    (M^{-1} v); sphere descent steps along M(u)^{-1} grad.  A metric that
    does not depend on the point returns the same pair object at every u,
    and descent then applies it once.  The default is _euclidean, M = I at
    every u, the Euclidean coefficient metric.
    """

    exponents: Exponents
    dim: int
    eval_N: Callable[[Array], float]
    eval_A: Callable[[Array], float]
    eval_B: Callable[[Array], float]
    grad_N: Callable[[Array], Array]
    grad_A: Callable[[Array], Array]
    grad_B: Callable[[Array], Array]
    metric_at: Callable[[Array], Metric] = _euclidean

    def norm_of(self, u: Array) -> float:
        return float(self.eval_N(u)) ** (1.0 / self.exponents.eta)

    def with_negated_a(self) -> "FunctionalTriple":
        """Triple with A replaced by -A.

        The negative-cone branches reduce to positive-cone runs on this
        flipped triple with the parameter negated afterwards, because
        phi(lam, u; A) = phi(-lam, u; -A).  The metric belongs to N alone
        and carries over unchanged.
        """
        ea, ga = self.eval_A, self.grad_A
        return replace(
            self,
            eval_A=lambda u: -float(ea(u)),
            grad_A=lambda u: -np.asarray(ga(u)),
        )


def phi(triple: FunctionalTriple, lam: float, u: Array) -> float:
    """Energy N(u)/eta - lam*A(u)/alpha - B(u)/beta."""
    exps = triple.exponents
    value = (
        float(triple.eval_N(u)) / exps.eta
        - lam * float(triple.eval_A(u)) / exps.alpha
        - float(triple.eval_B(u)) / exps.beta
    )
    if not np.isfinite(value):
        raise ValueError("non-finite energy value; discretization data invalid")
    return value


def phi_grad(triple: FunctionalTriple, lam: float, u: Array) -> Array:
    """Coefficient gradient of phi at fixed lam: grad N/eta - lam grad A/alpha - grad B/beta."""
    exps = triple.exponents
    grad = (
        np.asarray(triple.grad_N(u), dtype=float) / exps.eta
        - lam * np.asarray(triple.grad_A(u), dtype=float) / exps.alpha
        - np.asarray(triple.grad_B(u), dtype=float) / exps.beta
    )
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite energy gradient; discretization data invalid")
    return grad


def lambda_of(triple: FunctionalTriple, c: float, u: Array) -> float:
    """The unique parameter with phi(lambda_of(c, u), u) = c; needs A(u) != 0."""
    exps = triple.exponents
    a = float(triple.eval_A(u))
    if a == 0.0:
        raise ZeroDivisionError("lambda_of undefined: A(u) = 0 (u outside both A-cones)")
    value = (
        float(triple.eval_N(u)) / exps.eta - float(triple.eval_B(u)) / exps.beta - c
    ) / (a / exps.alpha)
    if not np.isfinite(value):
        raise ValueError("non-finite parameter value; discretization data invalid")
    return value


# Relative margin of the cone rule: a value within _CONE_RTOL of 0, relative
# to 1 + the magnitudes of the cone's values, counts as the boundary.
_CONE_RTOL = 1e-12


def _inside_cone(a: float, b: float | None = None) -> bool:
    """The one cone rule on ray scalars: a, and b when given, exceed
    _CONE_RTOL times 1 + their magnitudes.  a is the sign-adjusted A (a
    negative cone is the positive cone of -A, since phi(lam, u; A) =
    phi(-lam, u; -A)); _inside_cone(b) is the B > 0 cone alone."""
    margin = a
    scale = 1.0 + abs(a)
    if b is not None:
        margin = min(margin, b)
        scale += abs(b)
    return margin > _CONE_RTOL * scale


def cone_membership(
    triple: FunctionalTriple, tag: ConeTag, u: Array
) -> tuple[bool, float]:
    """Cone test returning (member, margin) by the one cone rule (_inside_cone).

    The margin is the smallest of the quantities defining the cone
    (sign-adjusted A, and B where required); membership holds when it exceeds
    _CONE_RTOL times 1 + their magnitudes.  The zero vector has margin 0 and
    is never a member.
    """
    a = tag.a_sign * float(triple.eval_A(u))
    b = float(triple.eval_B(u)) if tag.needs_b_pos else None
    return _inside_cone(a, b), a if b is None else min(a, b)
