"""Closed-form bounds on the truncated-permutation distinguishing advantage.

Each published bound is evaluated as a pure function of (n, m, q), faithful to
its source formula: values may exceed 1 (capping happens only in
`best_known_upper`), and bounds whose asymptotic constant is unpublished are
evaluated with that constant set to 1 and carry a reference-only flag.

Fractional powers of two are computed in floats; everything else is exact
where the formula is rational.  A float bound whose evaluation leaves the float
range is math.inf, and is then far above 1; `hall_upper` is also math.inf
where its scale underflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import all_distinct_prob

Scalar = Fraction | float


def float_or_inf(value: Scalar) -> float:
    """float(value), or math.inf past the float range (every bound here is
    non-negative)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _pow2_half(exponent: int) -> Scalar:
    """2**(exponent/2); an exact integer-or-Fraction when exponent is even."""
    if exponent % 2 == 0:
        half = exponent // 2
        return Fraction(1 << half) if half >= 0 else Fraction(1, 1 << -half)
    return 2.0 ** (exponent / 2)


def _over_pow2_half(q: int, exponent: int) -> Scalar:
    """q / 2**(exponent/2): an exact Fraction when exponent is even, else a
    float (math.inf past the float range)."""
    try:
        half = _pow2_half(exponent)
        return Fraction(q, half) if isinstance(half, Fraction) else q / half
    except OverflowError:  # q or 2**(exponent/2) past the float range
        return float_or_inf(Fraction(q, 1 << exponent // 2)) / math.sqrt(2.0)


@dataclass(frozen=True)
class FlaggedBound:
    value: Scalar
    valid: bool


@dataclass(frozen=True)
class BranchedBound:
    value: float
    branch: int
    valid: bool


def birthday_exact(n: int, q: int) -> Fraction | None:
    """Advantage of the full (untruncated) random permutation: one minus the
    probability that q uniform n-bit values are pairwise distinct.  None
    where q <= 2**n is past math.perm's sys.maxsize (q >= 2**63 on 64-bit
    builds)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    dom = 1 << n
    if q > dom:
        return Fraction(1)
    if q > sys.maxsize:
        return None
    return 1 - all_distinct_prob(q, dom)


def birthday_upper(n: int, q: int) -> Fraction:
    """Collision-test upper bound min{q(q-1)/2**(n+1), 1}; valid for any m."""
    return min(Fraction(q * (q - 1), 1 << (n + 1)), Fraction(1))


def hall_lower_reference(n: int, m: int, q: int) -> FlaggedBound:
    """Reference value q**2 / 2**(n+m) for the 1998 lower bound.

    The published constant is an unspecified Omega(1); this evaluates with
    constant 1 and is reference-only.  Valid flag requires q <= 2**((n+m)/2).
    """
    value = Fraction(q * q, 1 << (n + m))
    return FlaggedBound(value, valid=q * q <= (1 << (n + m)))


def hall_upper(n: int, m: int, q: int) -> float:
    """The 1998 upper bound 5 x**(2/3) + x**3 / (2 * 2**((n-7m)/2)) with
    x = q / 2**((n+m)/2).  Deteriorates (exceeds 1) well inside the valid
    query range once m is large; math.inf once 2**((n-7m)/2) underflows to
    0.0 as a float, or once x or x**3 is past the float range (x > 2**341,
    so the bound is over 2**227)."""
    x = float_or_inf(_over_pow2_half(q, n + m))
    try:
        scale = 2.0 ** ((n - 7 * m) / 2)
    except OverflowError:  # past 2**1024: a finite x**3 / scale is below 5 x**(2/3)'s ulp
        scale = math.inf
    if scale == 0.0 or x == math.inf:
        return math.inf
    try:
        return 5.0 * x ** (2.0 / 3.0) + 0.5 * x**3 / scale
    except OverflowError:
        return math.inf


def bellare_impagliazzo_upper(n: int, m: int, q: int) -> FlaggedBound:
    """Reference value n * q / 2**((n+m)/2) for the 1999 bound.

    The published constant is an unspecified O(n) factor; this evaluates with
    constant 1 and is reference-only.  Valid flag requires
    2**(n-m) < q < 2**((n+m)/2).
    """
    try:
        value = float(n) * q / float(_pow2_half(n + m))
    except OverflowError:  # q or 2**((n+m)/2) past the float range
        value = n * float_or_inf(_over_pow2_half(q, n + m))
    valid = (1 << (n - m)) < q and q * q < (1 << (n + m))
    return FlaggedBound(value, valid)


def gilboa_gueron_upper(n: int, m: int, q: int) -> BranchedBound:
    """The 2015 two-branch upper bound in x = q / 2**((n+m)/2).

    Branch 1 applies for m <= n/3, branch 2 for larger m; the valid flag is
    false once m > n - log2(16n), where neither branch is established.
    """
    branch = 1 if 3 * m <= n else 2
    x = float_or_inf(_over_pow2_half(q, n + m))
    try:
        if branch == 1:
            value = (
                2.0 * 2.0 ** (1.0 / 3.0) * x ** (2.0 / 3.0)
                + 2.0 * math.sqrt(2.0) / math.sqrt(3.0) * x**1.5
                + x**2
            )
        else:
            value = (
                3.0 * x ** (2.0 / 3.0)
                + 2.0 * x
                + 5.0 * x**2
                + 0.5 * (2.0 * x) ** (n / (n - m))
            )
    except OverflowError:  # a term past the float range
        value = math.inf
    valid = branch == 1 or m <= n - math.log2(16 * n)
    return BranchedBound(value, branch, valid)


def stam_upper(n: int, m: int, q: int) -> float:
    """Stam's 1978 bound:
    (1/2) sqrt((2**(n-m) - 1) q (q-1) / ((2**n - 1)(2**n - (q-1))))."""
    dom = 1 << n
    if q - 1 >= dom:
        raise ValueError("undefined for q - 1 >= 2**n")
    if q < 1:
        raise ValueError("q must be >= 1")
    ratio = Fraction(((1 << (n - m)) - 1) * q * (q - 1), (dom - 1) * (dom - (q - 1)))
    return 0.5 * math.sqrt(float_or_inf(ratio))


def stam_upper_simplified(n: int, m: int, q: int) -> FlaggedBound:
    """The amenable form q / 2**((m+n)/2), valid for q <= (3/4) 2**n.

    Exact (a Fraction) when n + m is even, e.g. exactly 2**-32 at
    (n, m, q) = (128, 64, 2**64).
    """
    value = _over_pow2_half(q, n + m)
    return FlaggedBound(value, valid=4 * q <= 3 * (1 << n))


def best_known_upper(n: int, m: int, q: int) -> Scalar:
    """min of the collision-test bound, Stam's bound (where defined), and 1."""
    candidates: list[Scalar] = [birthday_upper(n, q), Fraction(1)]
    if q - 1 < (1 << n):
        candidates.append(stam_upper(n, m, q))
    return min(candidates)


def advantage_envelope(n: int, m: int, q: int) -> Scalar:
    """The tight order of magnitude min{q**2/2**n, q/2**((n+m)/2), 1}."""
    return min(Fraction(q * q, 1 << n), _over_pow2_half(q, n + m), Fraction(1))


@dataclass(frozen=True)
class BoundReport:
    birthday_exact: Fraction | None  # m = 0 only, and None past math.perm
    birthday_upper: Fraction
    hall_lower_ref: FlaggedBound
    hall_upper: float
    bi_upper: FlaggedBound
    gg_upper: BranchedBound
    stam_full: float | None  # None where undefined (q - 1 >= 2**n)
    stam_simplified: FlaggedBound
    combined_upper: Scalar
    theta_envelope: Scalar


def bound_report(n: int, m: int, q: int) -> BoundReport:
    """All closed-form bounds for one parameter triple."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    if q < 1:
        raise ValueError("q must be >= 1")
    stam = stam_upper(n, m, q) if q - 1 < (1 << n) else None
    return BoundReport(
        birthday_exact=birthday_exact(n, q) if m == 0 else None,
        birthday_upper=birthday_upper(n, q),
        hall_lower_ref=hall_lower_reference(n, m, q),
        hall_upper=hall_upper(n, m, q),
        bi_upper=bellare_impagliazzo_upper(n, m, q),
        gg_upper=gilboa_gueron_upper(n, m, q),
        stam_full=stam,
        stam_simplified=stam_upper_simplified(n, m, q),
        combined_upper=best_known_upper(n, m, q),
        theta_envelope=advantage_envelope(n, m, q),
    )
