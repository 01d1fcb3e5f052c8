"""Fibering-map analysis along rays t -> t*u, t > 0.

A ray is summarized by the scalars (n, a, b) = (N(u), A(u), B(u)).  At energy
level c the fibering map

    fiber(t) = lambda_of(c, t*u)

has critical points exactly at the positive roots of a two-term power function
(see _kernels), and the case table over (sign of b, position of c) is
exhaustive.  This module exposes the classification, the degenerate-collision
pair (t_bar, c_bar), the zero-level pair (t0, c0) and the restricted parameter
value used by the sphere optimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import _kernels as K
from .functional_core import Array, Exponents, FunctionalTriple

__all__ = [
    "Case",
    "FiberingProfile",
    "RayData",
    "classify_and_solve",
    "extremal_pair",
    "fibering_d1",
    "fibering_d2",
    "fibering_value",
    "ray_data",
    "restricted_lambda",
    "zero_level_pair",
]


class Case(Enum):
    NO_CRITICAL = "no_critical"
    UNIQUE_MIN = "unique_min"
    UNIQUE_MAX = "unique_max"
    TWO_ROOTS = "two_roots"


_CASE_FROM_CODE = {
    K.CASE_NO_CRITICAL: Case.NO_CRITICAL,
    K.CASE_UNIQUE_MIN: Case.UNIQUE_MIN,
    K.CASE_UNIQUE_MAX: Case.UNIQUE_MAX,
    K.CASE_TWO_ROOTS: Case.TWO_ROOTS,
    K.CASE_DEGENERATE: Case.TWO_ROOTS,  # double root, flagged via FiberingProfile.degenerate
}


@dataclass(frozen=True)
class RayData:
    """Scalar data (n, a, b) of one ray together with the exponents."""

    n: float
    a: float
    b: float
    exponents: Exponents

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"ray data must be finite, got {name}={value!r}")
        if self.n <= 0.0:
            raise ValueError(f"ray data needs n > 0 (coercive part), got n={self.n!r}")


@dataclass(frozen=True)
class FiberingProfile:
    """Classification of one fiber at one energy level.

    t_plus is the local-minimum scaling, t_minus the local-maximum scaling,
    None when absent.  phi_plus / phi_minus are the fibering-map values there.
    extremal_c and zero_level_c are filled whenever b > 0.  degenerate marks
    the collision c = extremal_c, where the double root is reported in both
    slots instead of raising.
    """

    case: Case
    t_plus: float | None
    t_minus: float | None
    phi_plus: float | None
    phi_minus: float | None
    extremal_c: float | None
    zero_level_c: float | None
    degenerate: bool = False


def ray_data(triple: FunctionalTriple, u: Array) -> RayData:
    """Evaluate the triple along u and package the scalars."""
    return RayData(
        n=float(triple.eval_N(u)),
        a=float(triple.eval_A(u)),
        b=float(triple.eval_B(u)),
        exponents=triple.exponents,
    )


def fibering_value(ray: RayData, c: float, t: float) -> float:
    e = ray.exponents
    return K.fiber_value(ray.n, ray.a, ray.b, e.alpha, e.eta, e.beta, c, t)


def fibering_d1(ray: RayData, c: float, t: float) -> float:
    e = ray.exponents
    return K.fiber_d1(ray.n, ray.a, ray.b, e.alpha, e.eta, e.beta, c, t)


def fibering_d2(ray: RayData, c: float, t: float) -> float:
    e = ray.exponents
    return K.fiber_d2(ray.n, ray.a, ray.b, e.alpha, e.eta, e.beta, c, t)


def extremal_pair(ray: RayData) -> tuple[float, float]:
    """(t_bar, c_bar) for rays with b > 0; c_bar is 0-homogeneous in u and < 0."""
    e = ray.exponents
    return K.extremal_pair(ray.n, ray.b, e.alpha, e.eta, e.beta)


def zero_level_pair(ray: RayData) -> tuple[float, float]:
    """(t0, c0) for rays with b > 0: the unique scaling and level with fiber = fiber' = 0."""
    e = ray.exponents
    return K.zero_level_pair(ray.n, ray.b, e.eta, e.beta)


def classify_and_solve(ray: RayData, c: float, deg_rtol: float = 1e-14) -> FiberingProfile:
    """Full case table with solved critical scalings.

    Requires a > 0; negative-a rays must be routed through the flipped triple
    first (phi(lam, u; A) = phi(-lam, u; -A)), which the optimizers do.
    """
    if ray.a <= 0.0:
        raise ValueError(
            "classification needs a > 0; negative-a rays are handled by sign "
            f"normalization upstream (got a={ray.a!r})"
        )
    e = ray.exponents
    code, t_plus, t_minus = K.classify(ray.n, ray.b, e.alpha, e.eta, e.beta, c, deg_rtol)

    extremal_c: float | None = None
    zero_level_c: float | None = None
    if ray.b > 0.0:
        extremal_c = K.extremal_pair(ray.n, ray.b, e.alpha, e.eta, e.beta)[1]
        zero_level_c = K.zero_level_pair(ray.n, ray.b, e.eta, e.beta)[1]

    tp = None if math.isnan(t_plus) else float(t_plus)
    tm = None if math.isnan(t_minus) else float(t_minus)
    return FiberingProfile(
        case=_CASE_FROM_CODE[code],
        t_plus=tp,
        t_minus=tm,
        phi_plus=None if tp is None else fibering_value(ray, c, tp),
        phi_minus=None if tm is None else fibering_value(ray, c, tm),
        extremal_c=extremal_c,
        zero_level_c=zero_level_c,
        degenerate=(code == K.CASE_DEGENERATE),
    )


def restricted_lambda(ray: RayData, c: float, t_root: float, check_rtol: float = 1e-10) -> float:
    """Parameter value at a critical scaling, via the root-substituted formula.

    On critical scalings the fibering value can be rewritten as

        ((beta-eta)/eta * n * t**eta - beta*c) / ((beta-alpha)/alpha * a * t**alpha),

    which is the form whose c-derivative drives curve monotonicity.  The value
    is cross-checked against the direct fibering map; disagreement beyond
    check_rtol (relative) means t_root is not a critical scaling.
    """
    e = ray.exponents
    num = (e.beta - e.eta) / e.eta * ray.n * t_root**e.eta - e.beta * c
    den = (e.beta - e.alpha) / e.alpha * ray.a * t_root**e.alpha
    value = num / den
    direct = fibering_value(ray, c, t_root)
    if abs(value - direct) > check_rtol * (1.0 + abs(direct)):
        raise ValueError(
            f"restricted parameter inconsistent with fibering map at t={t_root!r}: "
            f"{value!r} vs {direct!r}; t is not a critical scaling"
        )
    return value
