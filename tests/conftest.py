"""Shared fixtures, and the reference helpers that only the tests read."""

import pytest

from truncperm.core import Params, likelihood_ratio
from truncperm.exact import _partition_counts, enumerate_profiles, transcript_tallies
from truncperm.moments import _profile_moments


def count_partitions(total, max_part, max_parts):
    """Number of partitions of `total` into at most `max_parts` parts, each <=
    max_part, without listing them: the last of `_partition_counts`."""
    *_, count = _partition_counts(total, max_part, max_parts)
    return count


def pair_collision_moments_brute(q, buckets):
    """Exhaustive oracle of the closed-form moments: the first four of the
    moment sum over the profile weights that `transcript_tallies` finds by
    listing every transcript (at most TRANSCRIPT_CEILING of them)."""
    return _profile_moments(transcript_tallies(q, buckets).items(), q, buckets)[:4]


@pytest.fixture(scope="session")
def small_cell_ratios():
    """Every (n, m, q) with n <= 6 whose full profile enumeration has at most
    1000 profiles, each cell with its (parts, transcript count, Fraction
    likelihood ratio) triples: the reference for the integer kernel's sums."""
    cells = []
    for n in range(1, 7):
        for m in range(n):
            for q in range(1, (1 << n) + 1):
                p = Params(n, m, q)
                if count_partitions(q, q, p.num_replies) <= 1000:
                    cells.append((p, [
                        (parts, count, likelihood_ratio(parts, p))
                        for parts, count in enumerate_profiles(p)
                    ]))
    return cells
