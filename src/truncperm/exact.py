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
from math import comb, perm
from typing import Iterator

import numpy as np

from .core import (
    MATRIX_CELLS,
    Params,
    SamplerLimitError,
    count_pieces,
    likelihood_ratio,
    log_likelihood_ratios,
    map_shards,
    sample_function_count_matrix,
)

VIA_R_GREATER = "via_R_greater"
VIA_R_LESS = "via_R_less"

PROFILE_CEILING = 10**6  # most count profiles an exact sum may visit
TRANSCRIPT_CEILING = 10**7  # most transcripts a brute-force oracle may list


class EnumerationLimitError(ValueError):
    """Raised when an exact enumeration would exceed its feasibility ceiling."""


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


def _partitions(
    total: int, max_part: int, max_parts: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Partitions of `total` into at most `max_parts` parts, each <= max_part,
    in descending-part lexicographic order ({4}, {3,1}, {2,2}, ...), each with
    its number of transcripts on `max_parts` reply values: the choices of which
    values carry the parts, perm(max_parts, k) / prod_c c! for k parts of
    which c share a size, times the orderings of the `total` queries,
    total! / prod_d d!.  Both limits are at least 1.

    Each level places the c parts of one distinct size d, most parts first,
    in the shape of `advantage_sum`'s walk, and carries the count down.  No
    part is smaller than the queries left over the reply values left, so no
    subtree that cannot reach `total` is entered.  A tail with one shape left
    is yielded in place: none, single queries after the parts of size 2, or
    one part on the last reply value."""

    def walk(left: int, top: int, room: int, head: tuple[int, ...], count: int):
        # place `left` more queries in parts of size <= top on at most `room`
        # further reply values, after the parts `head` of transcript count `count`
        for d in range(min(left, top), max(1, (left - 1) // room), -1):
            placed = []  # (c, queries left, count) after c parts of size d
            rest, w = left, count
            for c in range(1, min(left // d, room) + 1):
                w = w * comb(rest, d) * (room - c + 1) // c
                rest -= d
                placed.append((c, rest, w))
            for c, rest, w in reversed(placed):
                if rest > (d - 1) * (room - c):
                    break  # fewer parts of size d leave the smaller parts even more
                if rest == 0 or d == 2:
                    yield head + (d,) * c + (1,) * rest, w * perm(room - c, rest)
                elif room - c == 1:
                    yield head + (d,) * c + (rest,), w
                else:
                    yield from walk(rest, d - 1, room - c, head + (d,) * c, w)
        if left <= room:
            yield head + (1,) * left, count * perm(room, left)

    return walk(total, max_part, max_parts, (), 1)


def _partition_counts(total: int, max_part: int, max_parts: int) -> Iterator[int]:
    """The coefficient of x**total in the Gaussian binomial
    [M + k choose k]_x = prod_{i=1..k} (1 - x**(M+i)) / (1 - x**i) after each
    factor in turn, on a power series truncated at degree `total`.  M and k
    are the two limits capped at `total`, k the smaller (the binomial is
    symmetric in them).  After i factors it counts the partitions into at
    most i parts, each <= M, so it only grows."""
    k, big = sorted((min(max_part, total), min(max_parts, total)))
    if k <= 0 or total > k * big:
        yield int(total == 0)
        return
    coeffs = [1] + [0] * total
    for i in range(1, k + 1):
        shift = big + i  # times (1 - x**shift)
        coeffs[shift:] = map(operator.sub, coeffs[shift:], coeffs[: total + 1 - shift])
        for j in range(i, total + 1):  # divided by (1 - x**i)
            coeffs[j] += coeffs[j - i]
        yield coeffs[total]


def _price(total: int, max_part: int, max_parts: int) -> int:
    """The number of profiles a sum visits, the partitions of `total` into at
    most `max_parts` parts, each <= max_part (the last of
    `_partition_counts`), counted before it visits any; over PROFILE_CEILING,
    raises EnumerationLimitError at the first factor whose count passes it."""
    for priced in _partition_counts(total, max_part, max_parts):
        if priced > PROFILE_CEILING:
            raise EnumerationLimitError(
                f"at least {priced} profiles exceed ceiling {PROFILE_CEILING}; "
                "use mc_advantage for an estimate"
            )
    return priced


def enumerate_profiles(params: Params) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every count profile of a q-query transcript as a (parts, transcript
    count) pair, the pairs `transcript_tallies` finds by listing transcripts.

    Profiles whose largest count exceeds the bucket capacity are included
    (they carry probability mass and likelihood ratio 0), so the transcript
    counts sum to num_replies**q.  All of them are priced when this is called,
    before any is listed.
    """
    q, b = params.q, params.num_replies
    _price(q, q, b)
    return _partitions(q, q, b)


def advantage_sum(
    params: Params, side: str | None, max_pairs: float = math.inf
) -> tuple[Fraction, int, int]:
    """Sum of probability * (R - 1) over the count profiles on `side` of
    R = 1 (VIA_R_GREATER: R > 1, VIA_R_LESS: R < 1, None: either) with at
    most `max_pairs` colliding reply pairs sum_d C(d, 2), the number of
    profiles it was priced at and the number the walk reached.  Profiles are
    those of `enumerate_profiles(params)`, in another order.

    The walk is priced before it starts by the closed-form count of the
    profiles it may reach (`_price`), and refused (EnumerationLimitError)
    above PROFILE_CEILING: on the greater side those within capacity (every
    other profile has ratio 0), on the other sides every profile.

    With b = 2**(n-m), (x)_d the falling factorial and p = count / b**q a
    profile's uniform-oracle weight, R = b**q * P / (2**n)_q, where
    P = prod_d (2**m)_d.  Acceptance is decided on the integer P alone:
    R > 1 iff P > floor((2**n)_q / b**q), and R < 1 iff
    P <= floor(((2**n)_q - 1) / b**q).  The walk adds up sum count * P and
    sum count over the accepted profiles; the integer
    b**q * sum count * P - (2**n)_q * sum count, over the common denominator
    b**q * (2**n)_q, is formed once at the end as a single Fraction.

    The walk picks each distinct part size d with its multiplicity c in one
    level, so it recurses once per distinct size (under sqrt(2q) levels), and
    carries down P, the pair count and the weight
    count = q!/prod d! * perm(b, k)/prod c!, and no part is smaller than the
    queries left over the reply values left.  The rest of a profile after its
    parts of size 2 are placed is single queries (or none), closed in place;
    `_partitions` has the same shape.  On the greater side, a prefix with
    product P and r queries left is skipped once P * 2**(m*r) is at most the
    bound: as (2**m)_d <= 2**(m*d), no completion of it has R > 1.  A part
    above the capacity 2**m makes P = 0, so that side never enters one.  On
    every side a prefix is skipped once its pairs pass `max_pairs`, as pairs
    only grow below it.  The less side with no pair bound adds a subtree in
    one step once P * 2**(m*r) is within the bound, as P only falls below it,
    so every profile in it is taken.  The subtree's (sum count * P, sum
    count) relative to the prefix comes from `closed`, a memo of another
    shape: a row per (queries left, reply values left), whose entry for
    largest part t adds the c >= 1 parts of size t to the entry below, so it
    recurses only into fewer reply values.  As that walk reaches every
    profile, the number it reports walked is its price.
    """
    q = params.q
    b = params.num_replies
    m = params.m
    if side not in (VIA_R_GREATER, VIA_R_LESS, None):
        raise ValueError(f"unknown side {side!r}")
    max_part = min(q, params.bucket_capacity) if side == VIA_R_GREATER else q
    priced = _price(q, max_part, b)
    falling = [1] * (q + 1)  # (2**m)_d; 0 from d = 2**m + 1 on
    for d in range(1, q + 1):
        falling[d] = falling[d - 1] * (params.bucket_capacity - d + 1)
    uniform = perm(params.domain_size, q)
    scale = b**q
    # take P iff lo < P <= hi; every P is at most (2**m)**q
    lo, hi = -1, 1 << (m * q)
    if side == VIA_R_GREATER:
        lo = uniform // scale
    elif side == VIA_R_LESS:
        hi = (uniform - 1) // scale
    closing = side == VIA_R_LESS and max_pairs >= comb(q, 2)
    sum_wp = sum_w = walked = 0
    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}  # of `closed`

    def closed(left: int, top: int, room: int) -> tuple[int, int]:
        # (sum w * P, sum w) over every way of placing `left` more queries in
        # parts of size <= top on at most `room` further reply values, with w
        # and P taken relative to the prefix; row (left, room) holds it for
        # top = ceil(left / room), ..., each entry adding parts of size top
        low = -(-left // room)
        row = rows.setdefault((left, room), [])
        for d in range(low + len(row), min(top, left) + 1):
            sp, sw = row[-1] if row else (0, 0)
            fd = falling[d]
            rest, p, w = left, 1, 1
            for c in range(1, min(left // d, room) + 1):
                p *= fd
                w = w * comb(rest, d) * (room - c + 1) // c
                rest -= d
                if rest <= (d - 1) * (room - c):
                    p1, w1 = closed(rest, d - 1, room - c) if rest else (1, 1)
                    sp, sw = sp + w * p * p1, sw + w * w1
            row.append((sp, sw))
        return row[min(top, left) - low]

    def walk(left: int, top: int, room: int, prod: int, weight: int, pairs: int) -> None:
        # place `left` more queries in parts of size <= top, on at most `room`
        # further reply values
        nonlocal sum_wp, sum_w, walked
        if closing and prod << (m * left) <= hi:
            # every profile below is taken, as P only falls
            sp, sw = closed(left, top, room)
            sum_wp += weight * prod * sp
            sum_w += weight * sw
            return
        for d in range(min(left, top), (left - 1) // room or 1, -1):
            fd = falling[d]
            pd = d * (d - 1) // 2
            rest, p, w, x = left, prod, weight, pairs
            for c in range(1, min(left // d, room) + 1):
                p *= fd
                x += pd
                if x > max_pairs or lo >= 0 and p << (m * (rest - d)) <= lo:
                    break  # more parts of size d only add pairs and lower the bound
                w = w * comb(rest, d) * (room - c + 1) // c
                rest -= d
                if rest == 0 or d == 2:  # the rest are single queries; p1 > lo by the check above
                    if rest <= room - c:
                        walked += 1
                        p1 = p << (m * rest)
                        if p1 <= hi:
                            w1 = w * perm(room - c, rest)
                            sum_wp += w1 * p1
                            sum_w += w1
                elif rest <= (d - 1) * (room - c):
                    walk(rest, d - 1, room - c, p, w, x)
        # the rest are single queries on distinct reply values
        if left <= room:
            prod <<= m * left
            if prod > lo:
                walked += 1
                if prod <= hi:
                    weight *= perm(room, left)
                    sum_wp += weight * prod
                    sum_w += weight

    if max_pairs >= 0:  # every profile has pairs >= 0
        walk(q, q, b, 1, 1, 0)
    value = Fraction(scale * sum_wp - uniform * sum_w, scale * uniform)
    return value, priced, priced if closing else walked


def exact_advantage(params: Params, identity: str = VIA_R_GREATER) -> AdvantageResult:
    """Distinguishing advantage, exactly, by summation over count profiles.

    `identity` selects which of the two equivalent expectations is summed:
    E max{R-1, 0} (VIA_R_GREATER) or E max{1-R, 0} (VIA_R_LESS); the results
    are equal.  The greater-side sum only reaches profiles within capacity,
    which keeps e.g. the m=0 birthday case feasible for large q, and skips
    every subtree that cannot reach R > 1; the less-side sum covers every
    profile, adding each subtree in which all are taken in one step, so the
    two stay independent checks of each other.  The cell is
    refused before any enumeration when its profile count exceeds
    PROFILE_CEILING (see `advantage_sum`).
    """
    value, profiles, walked = advantage_sum(params, identity)
    if identity == VIA_R_LESS:
        value = -value
    return AdvantageResult(value, identity, profiles, walked)


def transcript_tallies(q: int, buckets: int) -> dict[tuple[int, ...], int]:
    """Number of transcripts of each count profile, found by listing all
    buckets**q transcripts of q replies and histogramming each one (the
    brute-force oracles' weights); refused above TRANSCRIPT_CEILING."""
    total = buckets**q
    if total > TRANSCRIPT_CEILING:
        raise EnumerationLimitError(
            f"{total} transcripts exceed ceiling {TRANSCRIPT_CEILING}"
        )
    return Counter(
        tuple(sorted(Counter(t).values(), reverse=True))
        for t in itertools.product(range(buckets), repeat=q)
    )


def brute_force_advantage(params: Params) -> AdvantageResult:
    """Distinguishing advantage by explicit iteration over all transcripts.

    Independent of the partition-based route: the profile weights come from
    `transcript_tallies`.  Exact-rational result.
    """
    tallies = transcript_tallies(params.q, params.num_replies)
    total_transcripts = params.num_replies**params.q
    total = Fraction(0)
    for parts, count in tallies.items():
        ratio = likelihood_ratio(parts, params)
        if ratio > 1:
            total += Fraction(count, total_transcripts) * (ratio - 1)
    return AdvantageResult(total, VIA_R_GREATER, len(tallies), len(tallies))


def mc_advantage(
    params: Params, trials: int, rng: np.random.Generator
) -> MonteCarloEstimate:
    """Unbiased Monte Carlo estimate of the advantage from uniform transcripts.

    Averages max{1-R, 0} over sampled transcripts; the
    likelihood ratio is evaluated in log space via table lookup on the bucket
    counts.  Reports the sample mean with its standard error (absent for a
    single trial).  Refused (SamplerLimitError) past 2**64 reply values,
    which numpy's integer draws do not reach.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    b = params.num_replies
    q = params.q
    if b > 1 << 63:
        raise SamplerLimitError(
            f"(n, m, q) = ({params.n}, {params.m}, {q}): 2**(n-m) = "
            f"2**{params.n - params.m} reply values exceed numpy's 64-bit integer draws"
        )
    if trials * b <= MATRIX_CELLS:
        pieces = count_pieces(sample_function_count_matrix, params, trials, rng)
        log_ratio = np.concatenate([log_likelihood_ratios(c, params) for c in pieces])
    else:
        # large reply alphabets: histogram one sampled transcript at a time,
        # over its at most q distinct replies
        log_ratio = np.empty(trials)
        for i in range(trials):
            draws = rng.integers(0, b, size=q)
            counts = np.unique(draws, return_counts=True)[1]
            log_ratio[i] = log_likelihood_ratios(counts[None, :], params)[0]
    with np.errstate(invalid="ignore"):
        ratio = np.exp(log_ratio)
    ratio = np.nan_to_num(ratio, nan=0.0)
    values = np.maximum(1.0 - ratio, 0.0)
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return MonteCarloEstimate(mean, std_err, trials)


def mc_advantage_sharded(
    params: Params,
    trials: int,
    seed: int | None,
) -> MonteCarloEstimate:
    """Sharded `mc_advantage`: deterministic in (seed, trials), for any thread
    count, by fixing the shard layout and merging in shard order."""
    shots = map_shards(lambda t, rng: mc_advantage(params, t, rng), params, trials, seed)
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
