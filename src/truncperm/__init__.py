"""Verification lab for the distinguishing advantage of truncated random
permutations: exact computation, closed-form bounds, inequality checks, an
operational distinguishing game, and a beyond-birthday-bound keystream
generator."""

from .core import (
    CountProfile,
    Params,
    all_distinct_prob,
    likelihood_ratio,
    make_rng,
    spawn_rngs,
)
from .exact import (
    AdvantageResult,
    EnumerationLimitError,
    MonteCarloEstimate,
    ProfileWeight,
    brute_force_advantage,
    enumerate_profiles,
    exact_advantage,
    mc_advantage,
    profile_score,
)
from .bounds import (
    BoundReport,
    advantage_envelope,
    best_known_upper,
    birthday_exact,
    birthday_upper,
    bound_report,
    stam_upper,
    stam_upper_simplified,
)
from .moments import (
    MomentSet,
    fourth_moment_bound_check,
    markov_lower,
    moments_brute,
    moments_closed_form,
    moments_empirical,
    moments_profiles,
    tail_probability_check,
    tail_witness_poly,
)
from .game import (
    GameResult,
    Rule,
    collision_rule_threshold,
    optimal_rule,
    play_game,
    rule_advantage_exact,
)
from .stream import (
    ExplicitPermutation,
    FeistelPermutation,
    StreamConfig,
    balance_check,
    generate_stream,
    security_margin,
    stream_length_bytes,
    throughput_bench,
    truncate,
)

__version__ = "0.1.0"
