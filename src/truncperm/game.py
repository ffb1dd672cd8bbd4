"""The operational distinguishing experiment.

An adversary queries one of two oracles (uniform random function, or truncated
random permutation), then applies a decision rule to the transcript.  The
optimal rule thresholds the likelihood ratio at 1; the collision rule
thresholds the collision-excess statistic.  Rules can be evaluated exactly
(profile enumeration) or empirically (Monte Carlo over both arms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Params,
    SHARD_COUNT,
    all_distinct_prob,
    collision_excess_of_profile,
    likelihood_ratio,
    log_all_distinct_table,
    parallel_map,
    sample_function_count_matrix,
    sample_permutation_count_matrix,
    spawn_rngs,
    split_trials,
)
from .exact import (
    DEFAULT_PROFILE_CEILING,
    EnumerationLimitError,
    advantage_sum,
    count_partitions,
)

LIKELIHOOD_GREATER = "likelihood_greater_than_one"
LIKELIHOOD_LESS = "likelihood_less_than_one"
COLLISION_THRESHOLD = "collision_threshold"


@dataclass(frozen=True)
class Rule:
    """A distinguishing rule: output 1 iff the transcript is accepted.

    Ties of the likelihood ratio at exactly 1 are rejected; such transcripts
    carry zero weight in the advantage either way.
    """

    kind: str
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LIKELIHOOD_GREATER, LIKELIHOOD_LESS, COLLISION_THRESHOLD):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == COLLISION_THRESHOLD:
            if self.threshold is None or math.isnan(self.threshold):
                raise ValueError("collision rule needs a finite-or-inf threshold")
        elif self.threshold is not None:
            raise ValueError("threshold only applies to the collision rule")


def optimal_rule(direction: str = "greater") -> Rule:
    """The advantage-maximizing rule: accept iff the likelihood ratio is > 1
    (or < 1); both directions achieve the same advantage."""
    if direction == "greater":
        return Rule(LIKELIHOOD_GREATER)
    if direction == "less":
        return Rule(LIKELIHOOD_LESS)
    raise ValueError(f"direction must be 'greater' or 'less', got {direction!r}")


def collision_rule_threshold(params: Params) -> float:
    """The lower-bound proof's cutoff sqrt(q(q-1)) / (10 * 2**((n-m)/2))."""
    if params.q < 2:
        raise ValueError("q must be >= 2 (a single reply has no pairs)")
    return math.sqrt(params.q * (params.q - 1)) / (
        10.0 * 2.0 ** ((params.n - params.m) / 2)
    )


def _acceptance(rule: Rule, params: Params):
    """The rule as a predicate on (profile, excess), where excess is any number
    with the sign of R - 1 (see `advantage_sum`)."""
    if rule.kind == COLLISION_THRESHOLD:
        return lambda profile, _: collision_excess_of_profile(profile, params) > rule.threshold
    if rule.kind == LIKELIHOOD_GREATER:
        return lambda _, excess: excess > 0
    return lambda _, excess: excess < 0


def accepts_profile(rule: Rule, profile, params: Params) -> bool:
    """Exact-arithmetic acceptance decision for a count profile."""
    return _acceptance(rule, params)(profile, likelihood_ratio(profile, params) - 1)


def rule_advantage_exact(
    params: Params, rule: Rule, profile_ceiling: int = DEFAULT_PROFILE_CEILING
) -> Fraction:
    """Exact advantage of an arbitrary (possibly suboptimal) rule:
    |sum over accepted profiles of (R - 1) * probability|."""
    estimated = count_partitions(params.q, params.q, params.num_replies)
    if estimated > profile_ceiling:
        raise EnumerationLimitError(
            f"{estimated} profiles exceed ceiling {profile_ceiling}"
        )
    return abs(advantage_sum(params, _acceptance(rule, params)))


@dataclass(frozen=True)
class GameResult:
    trials_per_arm: int
    accept_rate_function: float
    accept_rate_permutation: float
    empirical_advantage: float
    standard_error: float


def _accept_counts(rule: Rule, counts: np.ndarray, params: Params) -> int:
    """Vectorized acceptance over a (trials x buckets) count matrix."""
    if rule.kind == COLLISION_THRESHOLD:
        c = counts.astype(np.float64)
        pairs = (c * (c - 1.0) / 2.0).sum(axis=1)
        excess = pairs - math.comb(params.q, 2) / params.num_replies
        return int(np.count_nonzero(excess > rule.threshold))
    table = log_all_distinct_table(params.q, params.bucket_capacity)
    log_denom = all_distinct_prob(params.q, params.domain_size, mode="log")
    log_ratio = table[counts].sum(axis=1) - log_denom
    if rule.kind == LIKELIHOOD_GREATER:
        return int(np.count_nonzero(log_ratio > 0.0))
    return int(np.count_nonzero(log_ratio < 0.0))


def _play_arm_counts(
    params: Params, rule: Rule, trials: int, rng: np.random.Generator
) -> tuple[int, int]:
    """(function-arm accepts, permutation-arm accepts) over `trials` each.

    Each arm samples fresh bucket-count vectors per trial: multinomial for the
    uniform function, multivariate hypergeometric for a fresh truncated
    permutation (the exact pushforwards of the per-transcript samplers).
    """
    fun_counts = sample_function_count_matrix(params, trials, rng)
    perm_counts = sample_permutation_count_matrix(params, trials, rng)
    return (
        _accept_counts(rule, fun_counts, params),
        _accept_counts(rule, perm_counts, params),
    )


def _result_from_accepts(acc_fun: int, acc_perm: int, trials: int) -> GameResult:
    r_fun = acc_fun / trials
    r_perm = acc_perm / trials
    se = math.sqrt(
        r_fun * (1.0 - r_fun) / trials + r_perm * (1.0 - r_perm) / trials
    )
    return GameResult(trials, r_fun, r_perm, abs(r_perm - r_fun), se)


def play_game(
    params: Params, rule: Rule, trials: int, rng: np.random.Generator
) -> GameResult:
    """Run `trials` independent transcripts under each oracle, apply the rule,
    and report acceptance rates, their absolute gap, and the binomial
    standard error of the gap."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    acc_fun, acc_perm = _play_arm_counts(params, rule, trials, rng)
    return _result_from_accepts(acc_fun, acc_perm, trials)


def play_game_sharded(
    params: Params,
    rule: Rule,
    trials: int,
    seed: int | None,
    workers: int = 1,
) -> GameResult:
    """Sharded `play_game`: acceptance counts merge as integer sums in fixed
    shard order, so the result depends only on (seed, trials)."""
    sizes = split_trials(trials)
    rngs = spawn_rngs(seed, SHARD_COUNT)
    shots = parallel_map(
        lambda t, rng: _play_arm_counts(params, rule, t, rng),
        [(t, rng) for t, rng in zip(sizes, rngs)],
        workers=workers,
    )
    acc_fun = sum(s[0] for s in shots)
    acc_perm = sum(s[1] for s in shots)
    return _result_from_accepts(acc_fun, acc_perm, trials)
