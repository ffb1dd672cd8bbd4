"""Exact distinguishing advantage by enumeration, plus a Monte Carlo estimator.

Two independent routes are provided: `exact_advantage` sums over count
profiles (partitions of q with multinomial weights) and `brute_force_advantage`
iterates every one of the 2**((n-m)q) transcripts explicitly.  In exact
arithmetic the two agree bit for bit, which is the main self-check of the
whole artifact.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Callable, Iterator

import numpy as np

from .core import (
    CountProfile,
    Params,
    _log_ratio_terms,
    all_distinct_prob,
    count_pieces,
    likelihood_ratio,
    log_likelihood_ratios,
    map_shards,
    sample_function_count_matrix,
)

VIA_R_GREATER = "via_R_greater"
VIA_R_LESS = "via_R_less"

DEFAULT_PROFILE_CEILING = 10**6
DEFAULT_TRANSCRIPT_CEILING = 10**7


class EnumerationLimitError(ValueError):
    """Raised when an exact enumeration would exceed its feasibility ceiling."""


@dataclass(frozen=True)
class ProfileWeight:
    """A count profile together with its exact weight under the uniform oracle."""

    profile: CountProfile
    transcript_count: int
    num_transcripts: int  # num_replies**q: every transcript of the cell

    @property
    def probability(self) -> Fraction:
        return Fraction(self.transcript_count, self.num_transcripts)


@dataclass(frozen=True)
class AdvantageResult:
    value: Fraction
    identity: str
    profiles_enumerated: int  # closed-form count of the identity's profiles
    profiles_walked: int  # profiles whose ratio the walk evaluated


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_err: float | None
    trials: int


def _partitions(total: int, max_part: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into at most `max_parts` parts, each <= max_part,
    in descending-part lexicographic order ({4}, {3,1}, {2,2}, ...).

    A subtree whose parts cannot reach `total` is not entered."""
    if total == 0:
        yield ()
    elif total <= max_part * max_parts:
        for first in range(min(total, max_part), 0, -1):
            for rest in _partitions(total - first, first, max_parts - 1):
                yield (first, *rest)


def count_partitions(total: int, max_part: int, max_parts: int) -> int:
    """Number of partitions of `total` into at most `max_parts` parts, each <=
    max_part, without listing them.

    It is the coefficient of x**total in the Gaussian binomial
    [M + k choose k]_x = prod_{i=1..k} (1 - x**(M+i)) / (1 - x**i), with
    M = max_part and k = max_parts.  Both are capped at `total`, and as the
    binomial is symmetric in them the smaller one sets the number of factors;
    each factor is applied to a power series truncated at degree `total`.
    """
    if total <= 0 or max_part <= 0 or max_parts <= 0:
        return int(total == 0)
    k, big = sorted((min(max_part, total), min(max_parts, total)))
    if total > k * big:
        return 0
    coeffs = [1] + [0] * total
    for i in range(1, k + 1):
        shift = big + i  # times (1 - x**shift)
        coeffs[shift:] = map(operator.sub, coeffs[shift:], coeffs[: total + 1 - shift])
        for j in range(i, total + 1):  # divided by (1 - x**i)
            coeffs[j] += coeffs[j - i]
    return coeffs[total]


def transcript_count(parts: tuple[int, ...], params: Params) -> int:
    """Number of transcripts with this count profile: choices of which reply
    values carry the counts, times orderings of the query indices."""
    b = params.num_replies
    k = len(parts)
    mult = Counter(parts)
    placements = perm(b, k)
    for c in mult.values():
        placements //= factorial(c)
    orderings = factorial(params.q)
    for d in parts:
        orderings //= factorial(d)
    return placements * orderings


def enumerate_profiles(
    params: Params, max_part: int | None = None
) -> Iterator[ProfileWeight]:
    """Every count profile of a q-query transcript with exact weight.

    Profiles whose largest count exceeds the bucket capacity are included by
    default (they carry probability mass and likelihood ratio 0); pass
    `max_part` to restrict.  Transcript counts sum to num_replies**q over the
    unrestricted enumeration.
    """
    if max_part is None:
        max_part = params.q
    denom = params.num_replies**params.q
    for parts in _partitions(params.q, max_part, params.num_replies):
        yield ProfileWeight(CountProfile(parts), transcript_count(parts, params), denom)


def advantage_sum(
    params: Params,
    accept: Callable[[int, int], bool],
    max_part: int | None = None,
    positive_only: bool = False,
) -> tuple[Fraction, int]:
    """Sum of probability * (R - 1) over the count profiles `accept` takes,
    and the number of profiles whose excess was evaluated.

    With b = 2**(n-m), (x)_d the falling factorial and p = count / b**q a
    profile's uniform-oracle weight, R = b**q * prod_d (2**m)_d / (2**n)_q.
    Each profile therefore adds the integer count * excess, where
    excess = b**q * prod_d (2**m)_d - (2**n)_q has the sign of R - 1, over the
    common denominator b**q * (2**n)_q; a single Fraction is built at the end.
    `accept(pairs, excess)` decides from the profile's pair count
    sum_d C(d, 2) and that sign.  Profiles are those of
    `enumerate_profiles(params, max_part)`, in another order.

    The walk picks each distinct part size d with its multiplicity c in one
    level, so it recurses once per distinct size (under sqrt(2q) levels), and
    carries down the product of the (2**m)_d, the pair count and the weight
    count = q!/prod d! * perm(b, k)/prod c!.  When `accept` takes only
    profiles with excess > 0 (`positive_only`), a prefix with product P and
    r queries left is skipped once b**q * P * 2**(m*r) <= (2**n)_q: as
    (2**m)_d <= 2**(m*d), no completion of it has R > 1.
    """
    q = params.q
    b = params.num_replies
    m = params.m
    cap = params.bucket_capacity
    falling = [1] * (q + 1)  # (2**m)_d; 0 from d = 2**m + 1 on
    for d in range(1, q + 1):
        falling[d] = falling[d - 1] * (cap - d + 1)
    uniform = perm(params.domain_size, q)
    scale = b**q
    # b**q * X <= (2**n)_q  <=>  X <= floor((2**n)_q / b**q), for integers X >= 0
    limit = uniform // scale
    total = 0
    walked = 0

    def leaf(prod: int, weight: int, pairs: int) -> None:
        nonlocal total, walked
        walked += 1
        excess = scale * prod - uniform
        if accept(pairs, excess):
            total += weight * excess

    def walk(left: int, top: int, k: int, prod: int, weight: int, pairs: int) -> None:
        # place `left` more queries in parts of size <= top, on at most b - k
        # further reply values
        room = b - k
        for d in range(min(left, top), 0, -1):
            if left > d * room:
                return  # smaller parts reach even less
            if d == 1:  # the rest are single queries on distinct reply values
                prod *= cap**left
                if not positive_only or prod > limit:
                    leaf(prod, weight * perm(room, left), pairs)
                return
            fd = falling[d]
            pd = comb(d, 2)
            rest, p, w, x = left, prod, weight, pairs
            for c in range(1, min(left // d, room) + 1):
                p *= fd
                if positive_only and p << (m * (rest - d)) <= limit:
                    break  # more parts of size d only lower the bound
                w = w * comb(rest, d) * (room - c + 1) // c
                rest -= d
                x += pd
                if rest == 0:
                    leaf(p, w, x)
                elif rest <= (d - 1) * (room - c):
                    walk(rest, d - 1, k + c, p, w, x)

    walk(q, q if max_part is None else max_part, 0, 1, 1, 0)
    return Fraction(total, scale * uniform), walked


def _max_part(params: Params, identity: str) -> int:
    """Largest count the identity's sum visits: the greater-side sum only
    needs profiles within capacity (everything else has ratio 0)."""
    if identity == VIA_R_GREATER:
        return min(params.q, params.bucket_capacity)
    if identity == VIA_R_LESS:
        return params.q
    raise ValueError(f"unknown identity {identity!r}")


def profile_budget(
    params: Params,
    identity: str = VIA_R_GREATER,
    profile_ceiling: int = DEFAULT_PROFILE_CEILING,
) -> int:
    """Number of profiles `exact_advantage` sums for this identity, counted in
    closed form; raises EnumerationLimitError when it exceeds the ceiling."""
    estimated = count_partitions(params.q, _max_part(params, identity), params.num_replies)
    if estimated > profile_ceiling:
        raise EnumerationLimitError(
            f"{estimated} profiles exceed ceiling {profile_ceiling}; "
            "use mc_advantage for an estimate"
        )
    return estimated


def exact_advantage(
    params: Params,
    identity: str = VIA_R_GREATER,
    profile_ceiling: int = DEFAULT_PROFILE_CEILING,
) -> AdvantageResult:
    """Distinguishing advantage, exactly, by summation over count profiles.

    `identity` selects which of the two equivalent expectations is summed:
    E max{R-1, 0} (VIA_R_GREATER) or E max{1-R, 0} (VIA_R_LESS); the results
    are equal.  The greater-side sum only needs profiles within capacity,
    which keeps e.g. the m=0 birthday case feasible for large q, and skips
    every subtree that cannot reach R > 1; the less-side sum walks every
    profile, so the two stay independent checks of each other.  The cell is
    refused before any enumeration when its profile count exceeds the ceiling.
    """
    profiles = profile_budget(params, identity, profile_ceiling)
    max_part = _max_part(params, identity)
    if identity == VIA_R_GREATER:
        value, walked = advantage_sum(
            params, lambda _, excess: excess > 0, max_part, positive_only=True
        )
    else:
        value, walked = advantage_sum(params, lambda _, excess: excess < 0, max_part)
        value = -value
    return AdvantageResult(value, identity, profiles, walked)


def brute_force_advantage(
    params: Params, transcript_ceiling: int = DEFAULT_TRANSCRIPT_CEILING
) -> AdvantageResult:
    """Distinguishing advantage by explicit iteration over all transcripts.

    Independent of the partition-based route: the histogram of every single
    transcript is taken directly.  Exact-rational result.
    """
    b = params.num_replies
    q = params.q
    total_transcripts = b**q
    if total_transcripts > transcript_ceiling:
        raise EnumerationLimitError(
            f"{total_transcripts} transcripts exceed ceiling {transcript_ceiling}"
        )
    tallies: dict[tuple[int, ...], int] = {}
    for t in itertools.product(range(b), repeat=q):
        key = tuple(sorted(Counter(t).values(), reverse=True))
        tallies[key] = tallies.get(key, 0) + 1
    total = Fraction(0)
    for parts, count in tallies.items():
        ratio = likelihood_ratio(CountProfile(parts), params)
        if ratio > 1:
            total += Fraction(count, total_transcripts) * (ratio - 1)
    return AdvantageResult(total, VIA_R_GREATER, len(tallies), len(tallies))


def profile_score(profile: CountProfile, params: Params) -> float:
    """Sum over occupied buckets of ln(all-distinct prob of the count) plus
    pairs/capacity; the exchange quantity maximized by balanced profiles."""
    cap = params.bucket_capacity
    if not profile.fits_capacity(params):
        raise ValueError("profile has a count above the bucket capacity 2**m")
    terms = []
    for d in profile.parts:
        terms.append(float(all_distinct_prob(d, cap, mode="log")) + comb(d, 2) / cap)
    return math.fsum(terms)


def mc_advantage(
    params: Params,
    trials: int,
    rng: np.random.Generator,
    identity: str = VIA_R_LESS,
) -> MonteCarloEstimate:
    """Unbiased Monte Carlo estimate of the advantage from uniform transcripts.

    Averages max{1-R, 0} (or max{R-1, 0}) over sampled transcripts; the
    likelihood ratio is evaluated in log space via table lookup on the bucket
    counts.  Reports the sample mean with its standard error (absent for a
    single trial).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if identity not in (VIA_R_GREATER, VIA_R_LESS):
        raise ValueError(f"unknown identity {identity!r}")
    b = params.num_replies
    q = params.q
    if trials * b <= 5 * 10**7:
        pieces = count_pieces(sample_function_count_matrix, params, trials, rng)
        log_ratio = np.concatenate([log_likelihood_ratios(c, params) for c in pieces])
    else:
        # large reply alphabets: histogram one sampled transcript at a time,
        # over its at most q distinct replies
        table, log_denom = _log_ratio_terms(params)
        log_num = np.empty(trials)
        for i in range(trials):
            draws = rng.integers(0, b, size=q)
            log_num[i] = table[np.unique(draws, return_counts=True)[1]].sum()
        log_ratio = log_num - log_denom
    with np.errstate(invalid="ignore"):
        ratio = np.exp(log_ratio)
    ratio = np.nan_to_num(ratio, nan=0.0)
    if identity == VIA_R_LESS:
        values = np.maximum(1.0 - ratio, 0.0)
    else:
        values = np.maximum(ratio - 1.0, 0.0)
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return MonteCarloEstimate(mean, std_err, trials)


def mc_advantage_sharded(
    params: Params,
    trials: int,
    seed: int | None,
    workers: int = 1,
    identity: str = VIA_R_LESS,
) -> MonteCarloEstimate:
    """Sharded `mc_advantage`: deterministic in (seed, trials), for any worker
    count, by fixing the shard layout and merging in shard order."""
    shots = map_shards(
        lambda t, rng: mc_advantage(params, t, rng, identity=identity),
        params,
        trials,
        seed,
        workers,
    )
    # merge sums, not means, so the float result is order-fixed
    s = math.fsum(e.mean * e.trials for e in shots)
    ss = math.fsum(
        ((e.std_err or 0.0) ** 2 * e.trials * (e.trials - 1)) + e.mean**2 * e.trials
        for e in shots
    )
    mean = s / trials
    if trials > 1:
        var = max(ss - trials * mean**2, 0.0) / (trials - 1)
        std_err = math.sqrt(var / trials)
    else:
        std_err = None
    return MonteCarloEstimate(mean, std_err, trials)
