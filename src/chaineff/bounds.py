"""Upper and lower bounds on chain efficiency.

Closed-form and numeric evaluation of the general upper bounds for
posets (the basic 1/3 bound and the improved 1/3.015 bound) and the
two-sided bounds for regular bipartite posets.  Every reported value
is evaluated in 128-bit big floats; factorials and binomials are
computed exactly before conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import mpmath

from .errors import InvalidDegree, InvalidSize
from .poset import MAX_ELEMENTS

BOUND_PRECISION_BITS = 128
GOLDEN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoundReport:
    name: str
    parameters: dict
    value: str
    auxiliaries: dict = field(default_factory=dict)

    @property
    def value_float(self) -> float:
        return float(self.value)


def _fmt(x, digits: int = 15) -> str:
    return mpmath.nstr(x, digits, strip_zeros=False)


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    p = mpmath.mpf(p)
    if p <= 0 or p >= 1:
        if p == 0 or p == 1:
            return mpmath.mpf(0)
        raise ValueError("entropy argument must lie in [0, 1]")
    q = 1 - p
    return -(p * mpmath.log(p, 2) + q * mpmath.log(q, 2))


def inverse_binary_entropy(y):
    """The unique p in [0, 1/2] with h(p) = y."""
    y = mpmath.mpf(y)
    if not 0 <= y <= 1:
        raise ValueError("entropy values lie in [0, 1]")
    return _bisect(lambda p: binary_entropy(p) < y, mpmath.mpf(0), mpmath.mpf("0.5"))


def _bisect(below, lo, hi):
    """The point of [lo, hi] where ``below`` turns from true to false, by 200
    halvings: ``below`` must be true left of it and false right of it."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _golden_section_max(fn, lo, hi, tol):
    """Maximize a unimodal fn on [lo, hi] to within tol."""
    invphi = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2
    return x, fn(x)


def basic_upper_bound(n: int) -> BoundReport:
    """Both forms of the basic bound; the tighter one is the value."""
    if n < 3:
        raise InvalidSize("the basic bound needs n >= 3")
    with mpmath.workprec(BOUND_PRECISION_BITS):
        explicit = mpmath.power(mpmath.e * n, mpmath.mpf(3) / n) / 3
        simplified = (1 + 6 * mpmath.log(n, 2) / n) / 3
        tighter = min(explicit, simplified)
        return BoundReport(
            name="basic",
            parameters={"n": n},
            value=_fmt(tighter),
            auxiliaries={
                "explicit": _fmt(explicit),
                "simplified": _fmt(simplified),
            },
        )


def improved_upper_bound() -> BoundReport:
    """Optimize delta where the two exponent branches cross.

    gamma(delta) = max{h(delta)/3, h((1-2*delta)/3)} is the max of an
    increasing and a decreasing continuous branch on (0, 1/2), so its
    minimum sits where they are equal; bisection finds the crossing.
    """
    with mpmath.workprec(BOUND_PRECISION_BITS):
        def rising(delta):
            return binary_entropy(delta) / 3

        def falling(delta):
            return binary_entropy((1 - 2 * delta) / 3)

        lo, hi = mpmath.mpf("1e-9"), mpmath.mpf("0.5") - mpmath.mpf("1e-9")
        delta = _bisect(lambda d: rising(d) < falling(d), lo, hi)
        gamma = max(rising(delta), falling(delta))
        bound = (
            mpmath.power(2, gamma)
            * mpmath.power(mpmath.mpf(1) / 3, mpmath.mpf(2) / 3)
            * mpmath.power(mpmath.mpf(1) / 6, mpmath.mpf(1) / 3)
        )
        return BoundReport(
            name="improved",
            parameters={},
            value=_fmt(bound),
            auxiliaries={
                "delta": _fmt(delta),
                "gamma": _fmt(gamma),
                "reciprocal": _fmt(1 / bound),
            },
        )


def regular_bipartite_bounds(m: int, d: int) -> BoundReport:
    """Two-sided counting bounds for a d-regular bipartite poset on 2m
    elements: an ideal-count lower bound and an extension-count upper
    bound, combined into an efficiency upper bound."""
    if d < 1 or d > m:
        raise InvalidDegree("degree must satisfy 1 <= d <= m")
    if 2 * m > MAX_ELEMENTS:
        raise InvalidSize(f"2m = {2 * m} exceeds {MAX_ELEMENTS} elements")
    with mpmath.workprec(BOUND_PRECISION_BITS):
        alpha_lower = mpmath.mpf(0)
        for i in range(m + 1):
            c_mi = comb(m, i)
            ratio = mpmath.mpf(comb(m - d, i)) / c_mi if i <= m - d else mpmath.mpf(0)
            alpha_lower += c_mi * mpmath.power(2, m * ratio)
        lambda_upper = mpmath.mpf(factorial(2 * m)) * mpmath.power(
            comb(2 * d, d), -mpmath.mpf(2 * m) / (2 * d)
        )
        n = 2 * m
        # eta^n = lambda / (alpha^2 * n!); bound eta from above by the
        # bounded lambda over the bounded alpha
        eta_n = lambda_upper / (alpha_lower**2 * mpmath.mpf(factorial(n)))
        eta_upper = mpmath.power(eta_n, mpmath.mpf(1) / n)
        return BoundReport(
            name="regular-bipartite",
            parameters={"m": m, "d": d},
            value=_fmt(eta_upper),
            auxiliaries={
                "alpha_lower": _fmt(alpha_lower),
                "lambda_upper": _fmt(lambda_upper),
                "inv_eta_lower": _fmt(1 / eta_upper),
            },
        )


def _limit_objective(q, d):
    return mpmath.power(2, binary_entropy(q) + mpmath.power(q, d))


def regular_bipartite_efficiency_limit(d: int) -> BoundReport:
    """max over q of 2^{h(q) + q^d} times C(2d, d)^{1/(2d)}.

    The exponent h(q) + q^d can have two local maxima.  One lies inside
    (0, 1), near q = 1/2 once d is large, and reaches only about
    1 + 2^-d.  The other lies at 1 - q ~ 2^-d, where h(q) ~ (1 - q)
    log2(e / (1 - q)) and q^d ~ 1 - d(1 - q) lift the exponent to about
    1 + 2^-d log2 e, so it is the global maximum; the tests confirm this
    for every admissible d by independent scans off the bracket.  One
    golden-section search therefore runs over 1 - q in
    [2^-d / 8, 8 * 2^-d], clamped at q >= 0 (for d <= 3 the bracket
    starts at 0, and the exponent is concave), to a tolerance scaled by
    2^-d.
    A d-regular bipartite poset has at least 2d elements, so d is capped at
    MAX_ELEMENTS // 2.
    """
    if not 1 <= d <= MAX_ELEMENTS // 2:
        raise InvalidDegree(f"degree must satisfy 1 <= d <= {MAX_ELEMENTS // 2}")
    with mpmath.workprec(BOUND_PRECISION_BITS):
        root = mpmath.power(comb(2 * d, d), mpmath.mpf(1) / (2 * d))
        gap = mpmath.mpf(2) ** -d
        q, peak = _golden_section_max(
            lambda q: _limit_objective(q, d),
            max(0, 1 - 8 * gap),
            1 - gap / 8,
            GOLDEN_TOLERANCE * gap,
        )
        return BoundReport(
            name="regular-bipartite-limit",
            parameters={"d": d},
            value=_fmt(peak * root),
            auxiliaries={"q": _fmt(q)},
        )
