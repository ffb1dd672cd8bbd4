import math
import time
from fractions import Fraction

import pytest

from truncperm.core import Params, make_rng
from truncperm.exact import EnumerationLimitError, transcript_tallies
from truncperm.moments import (
    moments_empirical,
    _profile_moments,
    pair_collision_moments,
    power_standard_errors,
    profile_power_means,
)

from conftest import pair_collision_moments_brute


class TestClosedForm:
    def test_two_symbols_two_buckets(self):
        assert pair_collision_moments(2, 2) == [
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
            Fraction(1, 16),
        ]

    @pytest.mark.parametrize("buckets", [2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, q, buckets):
        assert pair_collision_moments(q, buckets) == pair_collision_moments_brute(
            q, buckets
        )

    def test_profile_sum_equals_transcript_walk(self):
        # both depend on (q, buckets) only: every pair with buckets**q <= 10**4
        cells = [(q, 1 << k) for k in range(1, 14) for q in range(1, 14)
                 if (1 << k) ** q <= 10**4]
        assert len(cells) == 37
        for q, buckets in cells:
            p = Params(buckets.bit_length() + 3, 4, q)
            assert p.num_replies == buckets
            brute = pair_collision_moments_brute(q, buckets)
            assert profile_power_means(p)[:4] == brute, p

    def test_eight_powers_equal_the_transcript_walk(self):
        cells = [(q, 1 << k) for k in range(1, 14) for q in range(1, 14)
                 if (1 << k) ** q <= 10**4]
        for q, buckets in cells:
            p = Params(buckets.bit_length() + 3, 4, q)
            brute = _profile_moments(transcript_tallies(q, buckets).items(), q, buckets)
            means = profile_power_means(p)
            assert len(means) == 8
            assert means == brute, p

    def test_profile_sum_is_priced_before_it_runs(self):
        # partitions of 64 into at most 16 parts: 1031391 profiles
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError) as err:
            profile_power_means(Params(8, 4, 64))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            "at least 1031391 profiles exceed ceiling 1000000; use mc_advantage for an estimate"
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pair_collision_moments(0, 2)
        with pytest.raises(ValueError):
            pair_collision_moments(4, 1)
        with pytest.raises(ValueError):
            pair_collision_moments_brute(30, 2)  # over the transcript ceiling


class TestEmpirical:
    def test_within_4se_of_closed_form(self):
        p = Params(10, 9, 512)  # B = 2, q = 512
        closed = pair_collision_moments(p.q, p.num_replies)
        means, ses = moments_empirical(p, 10**5, make_rng(13))
        assert len(means) == len(ses) == 4
        for e, c, se in zip(means, closed, ses):
            assert abs(e - float(c)) < 4 * se

    def test_jackknife_matches_classical_se(self):
        p = Params(6, 3, 16)
        _, ses = moments_empirical(p, 4000, make_rng(3))
        # for a plain mean the jackknife reduces to sd/sqrt(t); check the
        # first moment's SE against the closed-form variance
        closed = pair_collision_moments(p.q, p.num_replies)
        classical = math.sqrt(float(closed[1]) / 4000)
        assert ses[0] == pytest.approx(classical, rel=0.1)

    def test_exact_standard_errors(self):
        # two replies on two values: x = +-1/2, so x**2 = 1/4 always
        means = profile_power_means(Params(2, 1, 2))[:4]
        assert means == [0, Fraction(1, 4), 0, Fraction(1, 16)]
        assert power_standard_errors(means, 100) == [0.05, 0.0]

    def test_first_standard_error_is_the_closed_form_one(self):
        # E x = 0, so the mean's standard error is sqrt(m2 / trials)
        p = Params(6, 3, 16)
        ses = power_standard_errors(profile_power_means(p), 4000)
        assert len(ses) == 4
        closed = pair_collision_moments(p.q, p.num_replies)
        assert ses[0] == pytest.approx(math.sqrt(closed[1] / 4000), rel=1e-12)

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            moments_empirical(Params(4, 2, 4), 1, make_rng(0))

