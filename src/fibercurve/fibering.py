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
from enum import Enum
from typing import NamedTuple

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


# kernel case code -> (Case, FiberingProfile.degenerate)
_CASE_FROM_CODE = {
    K.CASE_NO_CRITICAL: (Case.NO_CRITICAL, False),
    K.CASE_UNIQUE_MIN: (Case.UNIQUE_MIN, False),
    K.CASE_UNIQUE_MAX: (Case.UNIQUE_MAX, False),
    K.CASE_TWO_ROOTS: (Case.TWO_ROOTS, False),
    K.CASE_DEGENERATE: (Case.TWO_ROOTS, True),  # the double root, in both slots
}

# relative agreement restricted_lambda demands of its two formulas
_CHECK_RTOL = 1e-10


class _RayFields(NamedTuple):
    n: float
    a: float
    b: float
    exponents: Exponents


class RayData(_RayFields):
    """Scalar data (n, a, b) of one ray together with the exponents.

    An immutable named tuple, checked on construction: n, a and b finite and
    n > 0.
    """

    __slots__ = ()

    def __new__(cls, n: float, a: float, b: float, exponents: Exponents) -> RayData:
        isfinite = math.isfinite
        if not (isfinite(n) and isfinite(a) and isfinite(b)):
            for name, value in (("n", n), ("a", a), ("b", b)):
                if not isfinite(value):
                    raise ValueError(f"ray data must be finite, got {name}={value!r}")
        if n <= 0.0:
            raise ValueError(f"ray data needs n > 0 (coercive part), got n={n!r}")
        return tuple.__new__(cls, (n, a, b, exponents))

    @classmethod
    def _make(cls, iterable) -> RayData:
        # _replace builds through _make: check its fields too
        return cls(*iterable)


class FiberingProfile(NamedTuple):
    """Classification of one fiber at one energy level, an immutable named tuple.

    t_plus is the local-minimum scaling, t_minus the local-maximum scaling,
    None when absent (fibering_value gives the fibering-map value there).
    degenerate marks the collision c = c_bar (extremal_pair), where the double
    root is reported in both slots instead of raising.
    """

    case: Case
    t_plus: float | None
    t_minus: float | None
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
    case, degenerate = _CASE_FROM_CODE[code]
    return FiberingProfile(
        case,
        None if math.isnan(t_plus) else t_plus,
        None if math.isnan(t_minus) else t_minus,
        degenerate,
    )


def restricted_lambda(ray: RayData, c: float, t_root: float) -> float:
    """Parameter value at a critical scaling, via the root-substituted formula.

    On critical scalings the fibering value can be rewritten as

        ((beta-eta)/eta * n * t**eta - beta*c) / ((beta-alpha)/alpha * a * t**alpha),

    which is the form whose c-derivative drives curve monotonicity.  The value
    is cross-checked against the direct fibering map; disagreement beyond
    1e-10 (relative) means t_root is not a critical scaling.  c must be finite
    and t_root finite and > 0.
    """
    if not (math.isfinite(c) and 0.0 < t_root < math.inf):
        raise ValueError(
            f"restricted parameter needs a finite c and a finite t > 0, got c={c!r}, t={t_root!r}"
        )
    n, a, b, e = ray
    num = (e.beta - e.eta) / e.eta * n * t_root**e.eta - e.beta * c
    den = (e.beta - e.alpha) / e.alpha * a * t_root**e.alpha
    value = num / den
    direct = K.fiber_value(n, a, b, e.alpha, e.eta, e.beta, c, t_root)
    if not abs(value - direct) <= _CHECK_RTOL * (1.0 + abs(direct)):
        raise ValueError(
            f"restricted parameter inconsistent with fibering map at t={t_root!r}: "
            f"{value!r} vs {direct!r}; t is not a critical scaling"
        )
    return value
