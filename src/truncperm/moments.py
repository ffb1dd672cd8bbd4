"""Moments of the collision-excess statistic and the tail machinery built on
them.

The statistic is the number of colliding reply pairs minus its uniform-oracle
mean; its first four moments have closed forms in the single-pair collision
probability p = 1/#buckets.  The closed forms are implemented exactly as
printed (products of binomials and polynomials in p, no algebraic
simplification) so the brute-force oracle catches transcription slips.

All closed forms work for an arbitrary bucket count, not just powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .core import (
    Params,
    collision_excesses,
    count_pieces,
    require_count_rows,
    sample_function_count_matrix,
)
from .exact import enumerate_profiles, transcript_tallies
from .game import collision_rule_threshold


class PreconditionError(ValueError):
    """Raised when a check is asked for outside its stated parameter range."""


@dataclass(frozen=True)
class MomentSet:
    """First four raw moments of the collision-excess statistic (the first is
    centered, so it doubles as the first central moment)."""

    m1: Fraction
    m2: Fraction
    m3: Fraction
    m4: Fraction
    p: Fraction  # single-pair collision probability, 1/#buckets


@dataclass(frozen=True)
class EmpiricalMoments:
    m1: float
    m2: float
    m3: float
    m4: float
    se1: float
    se2: float
    se3: float
    se4: float
    trials: int


def pair_collision_moments(q: int, buckets: int) -> MomentSet:
    """Closed-form moments for q symbols over `buckets` equiprobable values."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if buckets < 2:
        raise ValueError("need at least 2 buckets")
    p = Fraction(1, buckets)
    m2 = comb(q, 2) * p * (1 - p)
    m3 = 6 * comb(q, 3) * p**2 * (1 - p) + comb(q, 2) * p * (1 - p) * (1 - 2 * p)
    m4 = (
        18 * comb(q, 4) * p**2 * (1 - p) * (1 + 3 * p)
        + 54 * comb(q, 3) * p**2 * (1 - p) * (1 - Fraction(5, 3) * p)
        + comb(q, 2) * p * (1 - p) * (1 - 3 * p + 3 * p**2)
    )
    return MomentSet(Fraction(0), m2, m3, m4, p)


def _profile_moments(weights, q: int, buckets: int, powers: int) -> list[Fraction]:
    """Averages of the statistic's first `powers` powers over (parts, count)
    pairs: each profile's pairs - C(q, 2)/buckets, weighted by its number of
    transcripts out of buckets**q.  The sums run on integers,
    sum count * (buckets * pairs - C(q, 2))**k, each divided once at the end
    by buckets**(q + k)."""
    top = comb(q, 2)
    sums = [0] * powers
    for parts, count in weights:
        x = buckets * sum(comb(d, 2) for d in parts) - top
        term = count
        for k in range(powers):
            term *= x
            sums[k] += term
    return [Fraction(s, buckets ** (q + k)) for k, s in enumerate(sums, 1)]


def pair_collision_moments_brute(q: int, buckets: int) -> MomentSet:
    """Exhaustive oracle: the moments over the profile weights that
    `transcript_tallies` finds by listing every transcript (at most
    TRANSCRIPT_CEILING of them)."""
    weights = transcript_tallies(q, buckets).items()
    return MomentSet(*_profile_moments(weights, q, buckets, 4), p=Fraction(1, buckets))


def moments_closed_form(params: Params) -> MomentSet:
    return pair_collision_moments(params.q, params.num_replies)


def profile_power_means(params: Params, powers: int) -> list[Fraction]:
    """E x**k for k = 1 .. `powers` of the collision excess x, exactly, over
    the profile weights of `enumerate_profiles` (closed-form transcript
    counts), so a cell costs one term per partition of q rather than per
    transcript; refused (EnumerationLimitError) when those partitions number
    over PROFILE_CEILING."""
    return _profile_moments(enumerate_profiles(params), params.q, params.num_replies, powers)


def moments_profiles(params: Params) -> MomentSet:
    """The same averages as `pair_collision_moments_brute`, from
    `profile_power_means`."""
    return MomentSet(*profile_power_means(params, 4), p=Fraction(1, params.num_replies))


def power_standard_errors(means: list[Fraction], trials: int) -> list[float]:
    """Standard errors of the sample means of x, x**2, ... over `trials`
    draws, sqrt((E x**(2k) - (E x**k)**2) / trials), from the exact power
    means E x, E x**2, ... (`profile_power_means`); half as many as given."""
    return [
        math.sqrt(float(means[2 * k - 1] - means[k - 1] ** 2) / trials)
        for k in range(1, len(means) // 2 + 1)
    ]


def _sample_excess(
    params: Params, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Collision-excess values of `trials` uniform transcripts, via their
    multinomial bucket counts (drawn in pieces, `count_pieces`); refused
    before any draw where one row of counts is too large
    (`require_count_rows`)."""
    require_count_rows(params, permutation_arm=False)
    pieces = count_pieces(sample_function_count_matrix, params, trials, rng)
    return np.concatenate([collision_excesses(c, params) for c in pieces])


def moments_empirical(
    params: Params, trials: int, rng: np.random.Generator
) -> EmpiricalMoments:
    """Sample moments of the collision excess with the standard errors of the
    sample means."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    x = _sample_excess(params, trials, rng)
    powers = [x, x**2, x**3, x**4]
    means = [float(p.mean()) for p in powers]
    ses = [float(p.std(ddof=1) / math.sqrt(trials)) for p in powers]
    return EmpiricalMoments(*means, *ses, trials=trials)


# ---------------------------------------------------------------------------
# Fourth-moment bound, witness polynomial, tail probability


def _require_tail_regime(params: Params) -> None:
    """Raise PreconditionError unless q > 2**((n-m)/2 + 8), that is
    q > sqrt(buckets) * 2**8, compared exactly via squares."""
    b = params.num_replies
    q = params.q
    if q * q <= b * (1 << 16):
        raise PreconditionError(
            f"not applicable: requires q > 2**((n-m)/2 + 8), got q={q} with "
            f"2**(n-m)={b}"
        )


@dataclass(frozen=True)
class FourthMomentCheck:
    holds: bool
    bound: Fraction
    fourth_moment: Fraction
    margin: Fraction


def fourth_moment_bound_check(params: Params) -> FourthMomentCheck:
    """Closed-form check that the fourth moment stays below
    q**2 (q-1)**2 / 2**(2(n-m)), in the regime q > 2**((n-m)/2 + 8)."""
    _require_tail_regime(params)
    b = params.num_replies
    q = params.q
    bound = Fraction(q * q * (q - 1) ** 2, b * b)
    m4 = pair_collision_moments(q, b).m4
    return FourthMomentCheck(m4 < bound, bound, m4, bound - m4)


def tail_witness_poly(x):
    """The quartic -(x + 5/2)**2 (x - 1/10)(x - 5), evaluated in expanded
    form; positive only strictly inside (1/10, 5), bounded above by 200."""
    return (
        -(x**4)
        + Fraction(1, 10) * x**3
        + Fraction(75, 4) * x**2
        + Fraction(235, 8) * x
        - Fraction(25, 8)
    )


@dataclass(frozen=True)
class TailCheck:
    estimate: float
    std_err: float
    threshold: float
    trials: int
    passes: bool  # estimate exceeds 1/400 by more than 4 standard errors


def tail_probability_check(
    params: Params, trials: int, rng: np.random.Generator
) -> TailCheck:
    """Monte Carlo confirmation that the collision excess exceeds the
    collision rule's cutoff (`collision_rule_threshold`) with probability
    > 1/400 (4-standard-error margin)."""
    _require_tail_regime(params)
    if trials < 10**5:
        raise PreconditionError("trials must be >= 1e5 to resolve 1/400")
    threshold = collision_rule_threshold(params)
    x = _sample_excess(params, trials, rng)
    hits = float(np.mean(x > threshold))
    se = math.sqrt(max(hits * (1.0 - hits), 1e-12) / trials)
    return TailCheck(hits, se, threshold, trials, passes=hits - 4.0 * se > 1.0 / 400.0)
