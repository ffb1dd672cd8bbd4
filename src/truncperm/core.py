"""Foundations of the truncated-permutation distinguishing experiment.

A transcript is the length-q sequence of (n-m)-bit replies an adversary
collects from the oracle; its count profile (the bucket histogram, sorted
descending) carries everything the optimal distinguisher needs.

The likelihood ratio of a single profile is exact (`fractions.Fraction`).
Sampled transcripts are handled as count matrices, one row of bucket counts
per transcript, whose ratios are evaluated in log space by table lookup
(`log_likelihood_ratios`) so that long products of near-one factors neither
underflow nor lose precision.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterator, TypeVar

import numpy as np

EXACT = "exact"
LOG = "log"

#: log-space representation of an exactly-zero probability
LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class Params:
    """Experiment parameters.

    n: bit width of the permutation domain.
    m: number of truncated (dropped) low bits, 0 <= m < n.
    q: number of distinct queries, 1 <= q <= 2**n.
    """

    n: int
    m: int
    q: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got m={self.m}, n={self.n}")
        if not 1 <= self.q <= (1 << self.n):
            raise ValueError(
                f"need 1 <= q <= 2**n (queries are distinct n-bit strings), got q={self.q}"
            )

    @property
    def domain_size(self) -> int:
        """Number of n-bit inputs/outputs, 2**n."""
        return 1 << self.n

    @property
    def num_replies(self) -> int:
        """Number of possible (n-m)-bit replies, 2**(n-m)."""
        return 1 << (self.n - self.m)

    @property
    def bucket_capacity(self) -> int:
        """How many n-bit values share one reply prefix, 2**m."""
        return 1 << self.m


@dataclass(frozen=True)
class CountProfile:
    """Histogram of a transcript over reply values: positive parts, descending."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.parts):
            raise ValueError("profile parts must be positive (zeros are omitted)")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("profile parts must be sorted descending")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def fits_capacity(self, params: Params) -> bool:
        """True iff every count is <= 2**m, i.e. the profile is reachable by a
        truncated permutation."""
        return all(d <= params.bucket_capacity for d in self.parts)


def all_distinct_prob(k: int, alpha: int, mode: str = EXACT) -> Fraction | float:
    """Probability that k uniform draws from alpha values are pairwise distinct:
    the product of (1 - j/alpha) for j = 0 .. k-1.

    Exactly 0 for k > alpha.  ``mode=LOG`` returns the log of the product
    (LOG_ZERO for the zero case).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if mode == EXACT:
        if k > alpha:
            return Fraction(0)
        out = Fraction(1)
        for j in range(k):
            out *= Fraction(alpha - j, alpha)
        return out
    if mode == LOG:
        if k > alpha:
            return LOG_ZERO
        return math.fsum(math.log1p(-j / alpha) for j in range(k))
    raise ValueError(f"unknown mode {mode!r}")


def log_all_distinct_table(k_max: int, alpha: int) -> np.ndarray:
    """Vector of log all_distinct_prob(k, alpha) for k = 0 .. k_max.

    Entries with k > alpha are LOG_ZERO.  Useful for table-lookup evaluation
    of likelihood ratios over many count vectors at once.
    """
    table = np.full(k_max + 1, LOG_ZERO)
    top = min(k_max, alpha)
    steps = np.log1p(-np.arange(top, dtype=np.float64) / alpha)
    table[0] = 0.0
    table[1 : top + 1] = np.cumsum(steps)
    return table


def collision_excess_of_profile(profile: CountProfile, params: Params) -> Fraction:
    """Number of colliding reply pairs minus its uniform-oracle mean,
    computed from the count profile."""
    pairs = sum(comb(d, 2) for d in profile.parts)
    return pairs - Fraction(comb(params.q, 2), params.num_replies)


def likelihood_ratio(profile: CountProfile, params: Params) -> Fraction:
    """Probability of observing a transcript with this profile under the
    truncated-permutation oracle, divided by its probability under the uniform
    oracle.  Exactly 0 whenever some count exceeds the bucket capacity 2**m.
    """
    if profile.total != params.q:
        raise ValueError(f"profile sums to {profile.total}, expected q={params.q}")
    if not profile.fits_capacity(params):
        return Fraction(0)
    num = Fraction(1)
    for d in profile.parts:
        num *= all_distinct_prob(d, params.bucket_capacity)
    return num / all_distinct_prob(params.q, params.domain_size)


# ---------------------------------------------------------------------------
# Randomness plumbing


def make_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Independent, reproducible RNG streams: stream i is a deterministic
    function of (seed, count, i)."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


#: Fixed shard count for parallel Monte Carlo.  Results depend on (seed,
#: SHARD_COUNT) only, never on how many workers execute the shards.
SHARD_COUNT = 32

#: Most cells of a count matrix drawn at once.  Drawing `trials` rows from one
#: Generator in consecutive pieces gives the same rows, byte for byte, as one
#: call for all of them, so the piece size changes memory, never results.
CHUNK_CELLS = 2**16

#: Most bytes of count rows a cell's threads hold at once, 8 per counter.  A
#: cell with longer rows runs its shards on fewer threads, and from rows of
#: 2**24 counters on serially, so that every row `require_count_rows` admits
#: is drawn within 1 GiB.
THREAD_ROW_BYTES = 2**27

_T = TypeVar("_T")


def map_shards(
    fn: Callable[[int, np.random.Generator], _T],
    params: Params,
    trials: int,
    seed: int | None,
    workers: int = 1,
) -> list[_T]:
    """fn(shard_trials, rng) over the fixed shard layout of `trials`, in shard
    order: the trials split into at most SHARD_COUNT positive shards, the
    first `trials % SHARD_COUNT` one larger, and shard i gets stream i of
    spawn_rngs(seed, SHARD_COUNT).  The results depend on (seed, trials)
    only, never on `workers`.

    A cell whose whole trials x buckets count matrix fits in one piece
    (`count_pieces`) runs its shards serially: a thread pool costs more than
    it saves there.  Threads are also capped by THREAD_ROW_BYTES."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base, extra = divmod(trials, SHARD_COUNT)
    rngs = spawn_rngs(seed, SHARD_COUNT)
    shards = [(base + (i < extra), rngs[i]) for i in range(min(trials, SHARD_COUNT))]
    threads = min(workers, THREAD_ROW_BYTES // (8 * params.num_replies))
    if trials * params.num_replies <= CHUNK_CELLS or threads <= 1:
        return [fn(t, rng) for t, rng in shards]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, t, rng) for t, rng in shards]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Count-matrix samplers for the two hypotheses

#: Most cells of a count matrix a sampling path takes on.  Past it
#: `mc_advantage` samples one transcript at a time, and a cell whose single
#: row of num_replies counters is larger is refused by `require_count_rows`.
MATRIX_CELLS = 5 * 10**7

#: numpy's multivariate hypergeometric draw takes populations below this.
HYPERGEOMETRIC_POPULATION = 10**9


class SamplerLimitError(ValueError):
    """Raised, before any draw, for a cell its sampler cannot draw."""


def require_count_rows(params: Params, permutation_arm: bool) -> None:
    """Raise SamplerLimitError unless the count-matrix samplers can draw the
    cell: one row of num_replies counters within MATRIX_CELLS and, for the
    permutation arm, a population 2**n below HYPERGEOMETRIC_POPULATION."""
    if params.num_replies > MATRIX_CELLS:
        why = f"one row of 2**(n-m) = {params.num_replies} counters exceeds {MATRIX_CELLS} cells"
    elif permutation_arm and params.domain_size >= HYPERGEOMETRIC_POPULATION:
        why = (
            f"the permutation arm's population 2**n = {params.domain_size} is not "
            f"below numpy's hypergeometric limit {HYPERGEOMETRIC_POPULATION}"
        )
    else:
        return
    raise SamplerLimitError(f"(n, m, q) = ({params.n}, {params.m}, {params.q}): {why}")


def sample_function_count_matrix(
    params: Params, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Bucket-count vectors of `trials` independent uniform-function
    transcripts (the multinomial pushforward of iid sampling)."""
    b = params.num_replies
    return rng.multinomial(params.q, np.full(b, 1.0 / b), size=trials)


def sample_permutation_count_matrix(
    params: Params, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Bucket-count vectors of `trials` fresh truncated-permutation
    transcripts.  Bucketing a uniform without-replacement sample of q values
    out of 2**n, with 2**m values per bucket, is exactly a multivariate
    hypergeometric draw."""
    colors = np.full(params.num_replies, params.bucket_capacity, dtype=np.int64)
    return rng.multivariate_hypergeometric(colors, params.q, size=trials)


def count_pieces(
    sampler: Callable[[Params, int, np.random.Generator], np.ndarray],
    params: Params,
    trials: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """The (trials x buckets) count matrix of `sampler`, in consecutive pieces
    of max(1, CHUNK_CELLS // buckets) rows, all drawn from rng."""
    rows = max(1, CHUNK_CELLS // params.num_replies)
    for done in range(0, trials, rows):
        yield sampler(params, min(rows, trials - done), rng)


# ---------------------------------------------------------------------------
# Statistics of (trials x buckets) count matrices, one value per row


@lru_cache(maxsize=16)
def _log_ratio_terms(params: Params) -> tuple[np.ndarray, float]:
    """The lookup table and the log denominator of `log_likelihood_ratios`,
    built once per cell rather than once per piece of its count matrix."""
    table = log_all_distinct_table(params.q, params.bucket_capacity)
    table.flags.writeable = False
    return table, all_distinct_prob(params.q, params.domain_size, mode=LOG)


def log_likelihood_ratios(counts: np.ndarray, params: Params) -> np.ndarray:
    """Log of `likelihood_ratio` for every row of a count matrix (one row of
    bucket counts per transcript), by table lookup; LOG_ZERO where some count
    exceeds the bucket capacity."""
    table, log_denom = _log_ratio_terms(params)
    return table[counts].sum(axis=1) - log_denom


def collision_excesses(counts: np.ndarray, params: Params) -> np.ndarray:
    """`collision_excess_of_profile` of every row of a count matrix, in
    floats."""
    c = counts.astype(np.float64)
    pairs = (c * (c - 1.0) / 2.0).sum(axis=1)
    return pairs - comb(params.q, 2) / params.num_replies
