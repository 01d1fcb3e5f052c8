"""Scalar kernels for fibering-map analysis along a single ray.

Everything here works on the scalar ray data (n, a, b) = (N(u), A(u), B(u))
and the exponents (alpha, eta, beta).  The fibering map of the ray t -> t*u
at energy level c is

    fiber(t) = (alpha/a) * (t**(eta-alpha)*n/eta - t**(beta-alpha)*b/beta - t**(-alpha)*c)

and its critical points are the positive roots of the two-term power function

    g(t) = (eta-alpha)/eta * n * t**eta - (beta-alpha)/beta * b * t**beta + alpha*c,

since fiber'(t) = alpha/(a*t**(alpha+1)) * g(t).  For b > 0 the substitution
s = t/t_bar, r = c/c_bar (the extremal pair) turns g(t) = 0 into

    H(s) = (beta*s**eta - eta*s**beta)/(beta - eta) = r,

whose roots depend on (r, eta, beta) alone: H rises from H(0) = 0 to its
maximum H(1) = 1, falls through zero at s_z = (beta/eta)**(1/(beta-eta)) and
is concave on s >= 1.  Each root is solved by safeguarded Newton (rtsafe,
Numerical Recipes 9.4) inside a closed-form bracket; for b <= 0 the scaling
by the b-free root t_seed gives the convex equation s**eta + q*s**beta = 1,
where plain Newton from above converges monotonically.  Either iteration
stops once a Newton step moves the root by at most _STEP_RTOL relative,
after a few evaluations, and keeps the relative accuracy of roots far below
t_bar.  These functions sit in the optimizer inner loop; they are plain
Python on floats, one frame per call: each public kernel re-raises a float
OverflowError with its own name and arguments, and no wrapper sits between
a caller and the arithmetic.
"""

from __future__ import annotations

import math

CASE_NO_CRITICAL = 0
CASE_UNIQUE_MIN = 1
CASE_UNIQUE_MAX = 2
CASE_TWO_ROOTS = 3
CASE_DEGENERATE = 4

_NAN = float("nan")
# a Newton step at most this fraction of the root ends the iteration; the
# quadratic convergence leaves an error of about its square
_STEP_RTOL = 1e-9
_MAX_STEPS = 100


def _overflow(kernel, **data):
    """OverflowError naming the kernel and the arguments it overflowed at."""
    args = ", ".join(f"{k}={v!r}" for k, v in data.items())
    return OverflowError(f"{kernel} overflows the double range at {args}")


def fiber_value(n, a, b, alpha, eta, beta, c, t):
    if a == 0.0:
        raise ZeroDivisionError("fibering map undefined: A(u) = 0 on this ray")
    if t <= 0.0:
        raise ValueError(f"fibering map defined for t > 0 only, got t={t!r}")
    try:
        return (alpha / a) * (
            t ** (eta - alpha) * n / eta - t ** (beta - alpha) * b / beta - t ** (-alpha) * c
        )
    except OverflowError as exc:
        raise _overflow("fiber_value", n=n, a=a, b=b, alpha=alpha, eta=eta, beta=beta,
                        c=c, t=t) from exc


def fiber_d1(n, a, b, alpha, eta, beta, c, t):
    if a == 0.0:
        raise ZeroDivisionError("fibering map undefined: A(u) = 0 on this ray")
    if t <= 0.0:
        raise ValueError(f"fibering map defined for t > 0 only, got t={t!r}")
    try:
        return (alpha / a) * (
            (eta - alpha) / eta * n * t ** (eta - alpha - 1.0)
            - (beta - alpha) / beta * b * t ** (beta - alpha - 1.0)
            + alpha * c * t ** (-alpha - 1.0)
        )
    except OverflowError as exc:
        raise _overflow("fiber_d1", n=n, a=a, b=b, alpha=alpha, eta=eta, beta=beta,
                        c=c, t=t) from exc


def fiber_d2(n, a, b, alpha, eta, beta, c, t):
    if a == 0.0:
        raise ZeroDivisionError("fibering map undefined: A(u) = 0 on this ray")
    if t <= 0.0:
        raise ValueError(f"fibering map defined for t > 0 only, got t={t!r}")
    try:
        return (alpha / a) * (
            (eta - alpha) * (eta - alpha - 1.0) / eta * n * t ** (eta - alpha - 2.0)
            - (beta - alpha) * (beta - alpha - 1.0) / beta * b * t ** (beta - alpha - 2.0)
            - alpha * (alpha + 1.0) * c * t ** (-alpha - 2.0)
        )
    except OverflowError as exc:
        raise _overflow("fiber_d2", n=n, a=a, b=b, alpha=alpha, eta=eta, beta=beta,
                        c=c, t=t) from exc


def g_value(n, b, alpha, eta, beta, c, t):
    if t < 0.0:
        raise ValueError(f"g defined for t >= 0 only, got t={t!r}")
    try:
        return (
            (eta - alpha) / eta * n * t ** eta - (beta - alpha) / beta * b * t ** beta + alpha * c
        )
    except OverflowError as exc:
        raise _overflow("g_value", n=n, b=b, alpha=alpha, eta=eta, beta=beta, c=c, t=t) from exc


def extremal_pair(n, b, alpha, eta, beta):
    """(t_bar, c_bar): scaling placing the ray on the degenerate fiber, and its level.

    t_bar maximizes g over t > 0; c_bar < 0 is the level at which the two
    fibering critical points collide there.  Requires n > 0 and b > 0.
    """
    if n <= 0.0:
        raise ValueError("extremal pair undefined: need n > 0")
    if b <= 0.0:
        raise ValueError("extremal pair undefined: need b > 0")
    try:
        t_bar = ((eta - alpha) * n / ((beta - alpha) * b)) ** (1.0 / (beta - eta))
        c_bar = -(eta - alpha) * (beta - eta) / (eta * beta * alpha) * n * t_bar ** eta
        return t_bar, c_bar
    except OverflowError as exc:
        raise _overflow("extremal_pair", n=n, b=b, alpha=alpha, eta=eta, beta=beta) from exc


# classify binds the pair under a private name, so that wrapping the public
# extremal_pair (as the benchmark's call counter does) sees only outside calls
_extremal_pair = extremal_pair


def zero_level_pair(n, b, eta, beta):
    """(t0, c0): the unique scaling and positive level with fiber = fiber' = 0.

    Requires n > 0 and b > 0.  c0 does not involve alpha or a.
    """
    if n <= 0.0:
        raise ValueError("zero-level pair undefined: need n > 0")
    if b <= 0.0:
        raise ValueError("zero-level pair undefined: need b > 0")
    try:
        t0 = (n / b) ** (1.0 / (beta - eta))
        c0 = (beta - eta) / (eta * beta) * n * t0 ** eta
        return t0, c0
    except OverflowError as exc:
        raise _overflow("zero_level_pair", n=n, b=b, eta=eta, beta=beta) from exc


def threshold_ratio(alpha, eta, beta):
    """kappa > 0 with c_bar = -kappa * c0 on every ray (n > 0, b > 0).

    The two pair levels are the same power n**(beta/(beta-eta)) *
    b**(-eta/(beta-eta)) of the ray data, so their ratio depends on the
    exponents alone: kappa = ((eta-alpha)/alpha) * (t_bar/t0)**eta with
    t_bar/t0 = ((eta-alpha)/(beta-alpha))**(1/(beta-eta)).
    """
    return (eta - alpha) / alpha * ((eta - alpha) / (beta - alpha)) ** (eta / (beta - eta))


def _solve_h(r, eta, beta, lo, hi, s, rising):
    """Root of H(s) = r in [lo, hi] by safeguarded Newton from s.

    H - r is increasing on the bracket when rising, decreasing otherwise.  A
    Newton step that leaves the bracket or fails to halve the step before
    last becomes a bisection.  The iteration ends at the first Newton step
    below _STEP_RTOL relative, which it takes even if rounding puts it just
    outside the bracket, or when the bracket has no double left between its
    ends.
    """
    k = beta - eta
    dx_old = dx = hi - lo
    for _ in range(_MAX_STEPS):
        pe = s ** eta
        pb = s ** beta
        f = (beta * pe - eta * pb) / k - r
        df = beta * eta * (pe - pb) / (k * s)
        step = f / df if df else math.inf
        if abs(step) <= _STEP_RTOL * s:
            return s - step
        if (f < 0.0) == rising:
            lo = s
        else:
            hi = s
        if lo < s - step < hi and abs(step) <= 0.5 * abs(dx_old):
            dx_old, dx = dx, step
            s -= step
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            s = lo + dx
            if not lo < s < hi:
                return s
    raise RuntimeError(f"no convergence solving H(s) = {r!r} on [{lo!r}, {hi!r}]")


def _solve_convex(q, eta, beta):
    """Root in (0, 1] of s**eta + q*s**beta = 1, q >= 0, by Newton from above.

    The left side is convex and increasing, and it is >= 1 at the start
    min(1, q**(-1/beta)), so every step stays right of the root.
    """
    s = 1.0 if q <= 1.0 else q ** (-1.0 / beta)
    for _ in range(_MAX_STEPS):
        pe = s ** eta
        pb = q * s ** beta
        step = (pe + pb - 1.0) * s / (eta * pe + beta * pb)
        s -= step
        if step <= _STEP_RTOL * s:
            return s
    raise RuntimeError(f"no convergence solving s**eta + q*s**beta = 1 at q={q!r}")


def classify(n, b, alpha, eta, beta, c, deg_rtol=1e-14, branch=None):
    """Case label and critical scalings of the fibering map on one ray.

    Returns (case, t_plus, t_minus) with NaN for absent roots:

      b <= 0, c >= 0        -> (CASE_NO_CRITICAL, nan, nan)
      b <= 0, c <  0        -> (CASE_UNIQUE_MIN, t_plus, nan)
      b >  0, c >= 0        -> (CASE_UNIQUE_MAX, nan, t_minus)
      b >  0, c_bar < c < 0 -> (CASE_TWO_ROOTS, t_plus, t_minus), t_plus < t_minus
      b >  0, c ~= c_bar    -> (CASE_DEGENERATE, t_bar, t_bar)
      b >  0, c <  c_bar    -> (CASE_NO_CRITICAL, nan, nan)

    The degenerate band is |c - c_bar| <= deg_rtol * (1 + |c_bar|).  With
    branch "plus" or "minus" only that root is solved for: the other slot is
    NaN whatever the case, and the requested slot is the one the call without
    branch returns.
    """
    try:
        if branch not in (None, "plus", "minus"):
            raise ValueError(f"branch must be None, 'plus' or 'minus', got {branch!r}")
        if not (n > 0.0) or not math.isfinite(n):
            raise ValueError(f"ray classification needs n > 0, got n={n!r}")
        if not math.isfinite(b) or not math.isfinite(c):
            raise ValueError(f"ray classification needs finite data, got b={b!r}, c={c!r}")

        if b <= 0.0:
            if c >= 0.0:
                return CASE_NO_CRITICAL, _NAN, _NAN
            if branch == "minus":
                return CASE_UNIQUE_MIN, _NAN, _NAN
            # unique minimum; with s = t/t_seed, g = -alpha*c*(s**eta + q*s**beta - 1)
            t_seed = (-alpha * c * eta / ((eta - alpha) * n)) ** (1.0 / eta)
            q = (beta - alpha) / beta * -b * t_seed ** beta / (-alpha * c)
            return CASE_UNIQUE_MIN, t_seed * _solve_convex(q, eta, beta), _NAN

        t_bar, c_bar = _extremal_pair(n, b, alpha, eta, beta)
        if c < 0.0:
            if abs(c - c_bar) <= deg_rtol * (1.0 + abs(c_bar)):
                return (CASE_DEGENERATE, _NAN if branch == "minus" else t_bar,
                        _NAN if branch == "plus" else t_bar)
            if c < c_bar:
                return CASE_NO_CRITICAL, _NAN, _NAN
        elif c > 1e300 * -c_bar:
            raise OverflowError(f"c/c_bar leaves the double range (c_bar={c_bar!r})")
        r = c / c_bar if c else 0.0
        s_z = (beta / eta) ** (1.0 / (beta - eta))
        # H is concave on s >= 1, so its tangent at s_z lies above it: where the
        # tangent reaches r < 1 is at or right of the root beyond the maximum
        s_tangent = s_z - r / (beta * s_z ** (eta - 1.0))
        if c >= 0.0:
            if branch == "plus":
                return CASE_UNIQUE_MAX, _NAN, _NAN
            # H > -eta*s**beta/(beta-eta) bounds the root below as well
            lo = max(s_z, (-r * (beta - eta) / eta) ** (1.0 / beta))
            return CASE_UNIQUE_MAX, _NAN, t_bar * _solve_h(r, eta, beta, lo, s_tangent, lo, False)

        # seeds: H < beta*s**eta/(beta-eta) bounds the small root below, sharply
        # as r -> 0, where the tangent at s_z is sharp for the large root; near
        # the maximum H ~ 1 - eta*beta*(s-1)**2/2
        lo = (r * (beta - eta) / beta) ** (1.0 / eta)
        if r < 0.5:
            seed_plus, seed_minus = lo, s_tangent
        else:
            near = math.sqrt(2.0 * (1.0 - r) / (eta * beta))
            seed_plus, seed_minus = max(lo, 1.0 - near), min(s_tangent, 1.0 + near)
        t_plus = t_minus = _NAN
        if branch != "minus":
            t_plus = t_bar * _solve_h(r, eta, beta, lo, 1.0, seed_plus, True)
        if branch != "plus":
            t_minus = t_bar * _solve_h(r, eta, beta, 1.0, s_tangent, seed_minus, False)
        return CASE_TWO_ROOTS, t_plus, t_minus
    except OverflowError as exc:
        raise _overflow("classify", n=n, b=b, alpha=alpha, eta=eta, beta=beta, c=c) from exc
