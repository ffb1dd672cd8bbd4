"""Moments of the collision-excess statistic: closed form, exact profile sums
and sampled moments.

The statistic is the number of colliding reply pairs minus its uniform-oracle
mean; its first four moments have closed forms in the single-pair collision
probability p = 1/#buckets.  The closed forms are implemented exactly as
printed (products of binomials and polynomials in p, no algebraic
simplification) so the tests' brute-force oracle, `_profile_moments` over
`exact.transcript_tallies`, catches transcription slips.

All closed forms work for an arbitrary bucket count, not just powers of two.
"""

from __future__ import annotations

import math
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
from .exact import enumerate_profiles

POWERS = 8  # E x**k for k = 1 .. POWERS in `profile_power_means`


def pair_collision_moments(q: int, buckets: int) -> list[Fraction]:
    """Closed-form E x**k for k = 1 .. 4 of the collision excess x of q
    symbols over `buckets` equiprobable values; x is centered (E x = 0), so
    these are its central moments too."""
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
    return [Fraction(0), m2, m3, m4]


def _profile_moments(weights, q: int, buckets: int) -> list[Fraction]:
    """Averages of the statistic's first POWERS powers over (parts, count)
    pairs: each profile's pairs - C(q, 2)/buckets, weighted by its number of
    transcripts out of buckets**q.  The sums run on integers,
    sum count * (buckets * pairs - C(q, 2))**k, each divided once at the end
    by buckets**(q + k)."""
    top = comb(q, 2)
    sums = [0] * POWERS
    for parts, count in weights:
        x = buckets * sum(comb(d, 2) for d in parts) - top
        term = count
        for k in range(POWERS):
            term *= x
            sums[k] += term
    return [Fraction(s, buckets ** (q + k)) for k, s in enumerate(sums, 1)]


def profile_power_means(params: Params) -> list[Fraction]:
    """E x**k for k = 1 .. POWERS of the collision excess x, exactly, over
    the profile weights of `enumerate_profiles` (closed-form transcript
    counts), so a cell costs one term per partition of q rather than per
    transcript; the first four equal `pair_collision_moments`.  Refused
    (EnumerationLimitError) when those partitions number over
    PROFILE_CEILING."""
    return _profile_moments(enumerate_profiles(params), params.q, params.num_replies)


def power_standard_errors(means: list[Fraction], trials: int) -> list[float]:
    """Standard errors of the sample means of x, x**2, ... over `trials`
    draws, sqrt((E x**(2k) - (E x**k)**2) / trials), from the exact power
    means E x, E x**2, ... (`profile_power_means`); half as many as given."""
    return [
        math.sqrt(float(means[2 * k - 1] - means[k - 1] ** 2) / trials)
        for k in range(1, len(means) // 2 + 1)
    ]


def sample_excess(
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
) -> tuple[list[float], list[float]]:
    """Sample means of x**k for k = 1 .. 4 of the collision excess x, and
    their standard errors."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    x = sample_excess(params, trials, rng)
    powers = [x, x**2, x**3, x**4]
    means = [float(p.mean()) for p in powers]
    ses = [float(p.std(ddof=1) / math.sqrt(trials)) for p in powers]
    return means, ses

