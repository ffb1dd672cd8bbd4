"""The exact engine's parameters: each one is read by a CLI path or a library
route, and none exists only for tests to set."""

import inspect

import pytest

from truncperm import exact, game, moments

PARAMETERS = {
    exact.exact_advantage: ["params", "identity"],
    exact.profile_budget: ["params", "identity"],
    exact.advantage_sum: ["params", "accept", "positive_only"],
    exact.enumerate_profiles: ["params"],
    exact.brute_force_advantage: ["params"],
    game.rule_advantage_exact: ["params", "rule"],
    exact.mc_advantage: ["params", "trials", "rng"],
    exact.mc_advantage_sharded: ["params", "trials", "seed", "workers"],
    moments.moments_brute: ["params"],
    moments.pair_collision_moments_brute: ["q", "buckets"],
}


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_takes_only_the_parameters_it_reads(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_ceilings_are_fixed():
    assert exact.PROFILE_CEILING == 10**6
    assert exact.TRANSCRIPT_CEILING == 10**7
    assert moments.TRANSCRIPT_CEILING is exact.TRANSCRIPT_CEILING
