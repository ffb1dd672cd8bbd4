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
    collision_excesses,
    count_pieces,
    log_likelihood_ratios,
    map_shards,
    require_count_rows,
    sample_function_count_matrix,
    sample_permutation_count_matrix,
)
from .exact import VIA_R_GREATER, advantage_sum, exact_advantage

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


def rule_advantage_exact(params: Params, rule: Rule) -> Fraction:
    """Exact advantage of an arbitrary (possibly suboptimal) rule:
    |sum over accepted profiles of (R - 1) * probability|.  Refused, like
    `exact_advantage`, when the sum it walks is priced over PROFILE_CEILING
    (`advantage_sum` prices itself).  Both likelihood rules are the pruned
    greater-side sum (the two sides are equal by the dual identity).  The
    collision rule accepts a profile by its number of colliding reply pairs
    sum_d C(d, 2); as (R - 1) * probability sums to 0 over all profiles, it
    is the sum over the rejected ones, and the walk reaches only those."""
    if rule.kind in (LIKELIHOOD_GREATER, LIKELIHOOD_LESS):
        return exact_advantage(params, VIA_R_GREATER).value
    # pairs - C(q,2)/b > t  <=>  pairs > floor(C(q,2)/b + t) for integer pairs,
    # with t exact; Fraction(+-inf) raises: -inf rejects no profile, +inf all
    top = math.comb(params.q, 2)
    t = rule.threshold
    if math.isinf(t):
        max_pairs = -1 if t < 0 else top
    else:
        max_pairs = math.floor(Fraction(top, params.num_replies) + Fraction(t))
    return abs(advantage_sum(params, None, max_pairs)[0])


@dataclass(frozen=True)
class GameResult:
    accept_rate_function: float
    accept_rate_permutation: float
    empirical_advantage: float
    standard_error: float | None  # None for a single trial per arm


def _accept_counts(rule: Rule, counts: np.ndarray, params: Params) -> int:
    """Vectorized acceptance over a (trials x buckets) count matrix."""
    if rule.kind == COLLISION_THRESHOLD:
        excess = collision_excesses(counts, params)
        return int(np.count_nonzero(excess > rule.threshold))
    log_ratio = log_likelihood_ratios(counts, params)
    if rule.kind == LIKELIHOOD_GREATER:
        return int(np.count_nonzero(log_ratio > 0.0))
    return int(np.count_nonzero(log_ratio < 0.0))


def _play_arm_counts(
    params: Params, rule: Rule, trials: int, rng: np.random.Generator
) -> tuple[int, int]:
    """(function-arm accepts, permutation-arm accepts) over `trials` each.

    Each arm samples fresh bucket-count vectors per trial: multinomial for the
    uniform function, multivariate hypergeometric for a fresh truncated
    permutation (the exact pushforwards of per-transcript sampling).  The
    whole function arm is drawn first, then the whole permutation arm, each in
    pieces (`count_pieces`).  A cell the samplers cannot draw is refused
    first (`require_count_rows`).
    """
    require_count_rows(params, permutation_arm=True)

    def accepts(sampler) -> int:
        pieces = count_pieces(sampler, params, trials, rng)
        return sum(_accept_counts(rule, c, params) for c in pieces)

    return accepts(sample_function_count_matrix), accepts(sample_permutation_count_matrix)


def _result_from_accepts(acc_fun: int, acc_perm: int, trials: int) -> GameResult:
    r_fun = acc_fun / trials
    r_perm = acc_perm / trials
    # plug-in binomial variances, each count held inside [1, trials - 1]: a
    # rate of exactly 0 or 1 gets that of one accept or reject, not 0.  A
    # single trial leaves that interval empty, and no standard error
    se = None
    if trials > 1:
        held = (min(max(a, 1), trials - 1) / trials for a in (acc_fun, acc_perm))
        se = math.sqrt(sum(r * (1.0 - r) / trials for r in held))
    return GameResult(r_fun, r_perm, abs(r_perm - r_fun), se)


def play_game_sharded(
    params: Params,
    rule: Rule,
    trials: int,
    seed: int | None,
) -> GameResult:
    """Run `trials` independent transcripts under each oracle, apply the rule,
    and report acceptance rates, their absolute gap, and the binomial
    standard error of the gap (None for a single trial).  The trials run in
    the fixed shards of `map_shards`, and acceptance counts merge as integer
    sums in shard order, so the result depends only on (seed, trials)."""
    shots = map_shards(
        lambda t, rng: _play_arm_counts(params, rule, t, rng), params, trials, seed
    )
    acc_fun = sum(s[0] for s in shots)
    acc_perm = sum(s[1] for s in shots)
    return _result_from_accepts(acc_fun, acc_perm, trials)
